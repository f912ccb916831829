//! Length-prefixed JSON wire protocol for the serving engine.
//!
//! # Framing
//!
//! Every message — both directions — is one **frame**: a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8 JSON.
//! Frames larger than [`MAX_FRAME`] are rejected, so a corrupt or hostile
//! length prefix cannot make the server allocate unboundedly.
//!
//! # Requests
//!
//! Each request is a JSON object with an `"op"` member:
//!
//! | op            | fields                                                        |
//! |---------------|---------------------------------------------------------------|
//! | `submit`      | `graph?`, `query{labels,edges}`, `limit?`, `deadline_ms?`, `order?`, `pruning?`, `label_pair?`, `count_only?` |
//! | `cancel`      | `id`                                                          |
//! | `apply-delta` | `graph?`, `insert?: [[u,v],…]`, `delete?: [[u,v],…]`          |
//! | `stats`       | —                                                             |
//! | `shutdown`    | —                                                             |
//!
//! `graph` defaults to `"default"`. `order` is `"static"`/`"adaptive"`,
//! `pruning` is `"plain"`/`"failing-set"` — the same vocabulary as the
//! CLI's `--order`/`--pruning` flags.
//!
//! # Responses
//!
//! A `submit` answers `{"ok":true,"id":N}` and then streams
//! `{"id":N,"batch":[[…],…]}` frames followed by exactly one terminal
//! frame: `{"id":N,"done":{…}}` or `{"id":N,"error":"…"}`. The `done`
//! object carries `outcome` (see `MatchOutcome::as_tag`), `embeddings`,
//! `truncated`, `checksum` (hex string — JSON numbers cannot carry 64-bit
//! integers exactly), `search_nodes` and `elapsed_ms`. Other ops answer a
//! single `{"ok":…}` frame. Failures are
//! `{"ok":false,"error":"…","retry":B}` where `retry:true` marks
//! transient conditions (queue full).

use std::io::{self, Read, Write};
use std::time::Duration;

use cfl_graph::{graph_from_edges, GraphDelta, VertexId};
use cfl_trace::ServeTrace;

use super::engine::{EmbeddingBatch, QueryDone, QuerySpec};
use super::json::{escape, Json};
use crate::config::{MatchConfig, OrderingKind, PruningKind};

/// Maximum frame payload accepted or produced (16 MiB).
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

fn check_len(len: usize) -> io::Result<()> {
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME",
        ));
    }
    Ok(())
}

/// Sends frames over `W`, each as **one** `write_all` of length prefix
/// plus payload assembled in a reused buffer.
///
/// Writing the prefix and the payload separately lets Nagle's algorithm
/// hold the payload until the peer acknowledges the prefix, which delayed
/// ACK postpones by ~40 ms per frame. Both ends also set `TCP_NODELAY`.
pub(crate) struct FrameWriter<W> {
    w: W,
    buf: Vec<u8>,
}

impl<W: Write> FrameWriter<W> {
    pub(crate) fn new(w: W) -> Self {
        FrameWriter { w, buf: Vec::new() }
    }

    /// Sends one frame carrying `payload`.
    pub(crate) fn send(&mut self, payload: &str) -> io::Result<()> {
        check_len(payload.len())?;
        self.buf.clear();
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_be_bytes());
        self.buf.extend_from_slice(payload.as_bytes());
        self.flush_buf()
    }

    /// Sends one `{"id":N,"batch":…}` frame, encoded straight into the
    /// frame buffer (the bytes equal [`encode_batch`]'s).
    pub(crate) fn send_batch(&mut self, id: u64, batch: &EmbeddingBatch) -> io::Result<()> {
        self.buf.clear();
        self.buf.extend_from_slice(&[0; 4]);
        encode_batch_into(&mut self.buf, id, batch.iter());
        let len = self.buf.len() - 4;
        check_len(len)?;
        self.buf[..4].copy_from_slice(&(len as u32).to_be_bytes());
        self.flush_buf()
    }

    fn flush_buf(&mut self) -> io::Result<()> {
        self.w.write_all(&self.buf)?;
        self.w.flush()
    }
}

/// Writes one frame (length prefix + payload) in a single write and
/// flushes.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    FrameWriter::new(w).send(payload)
}

/// Reads one frame's payload into `buf`, replacing its contents.
/// `Ok(false)` on a clean end-of-stream *between* frames; EOF inside a
/// frame is an error. The buffer grows as payload bytes arrive, so a
/// length prefix alone cannot make it allocate up to [`MAX_FRAME`].
pub(crate) fn read_frame_into(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<bool> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        let n = r.read(&mut len[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(false);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "eof inside frame header",
            ));
        }
        got += n;
    }
    let n = u32::from_be_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    buf.clear();
    r.take(n as u64).read_to_end(buf)?;
    if buf.len() < n {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "eof inside frame payload",
        ));
    }
    Ok(true)
}

fn not_utf8() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "frame is not utf-8")
}

/// A frame payload as text; the protocol is UTF-8 JSON.
pub(crate) fn frame_text(payload: &[u8]) -> io::Result<&str> {
    std::str::from_utf8(payload).map_err(|_| not_utf8())
}

/// Reads one frame. `Ok(None)` on a clean end-of-stream *between* frames;
/// EOF inside a frame is an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    if !read_frame_into(r, &mut buf)? {
        return Ok(None);
    }
    String::from_utf8(buf).map(Some).map_err(|_| not_utf8())
}

/// A decoded client request.
#[derive(Debug)]
pub enum Request {
    /// Run one query.
    Submit(QuerySpec),
    /// Cancel a live query by id.
    Cancel {
        /// Engine-assigned query id.
        id: u64,
    },
    /// Apply an edge delta to a named graph.
    ApplyDelta {
        /// Target graph name.
        graph: String,
        /// The batch of edits.
        delta: GraphDelta,
    },
    /// Snapshot the serving counters.
    Stats,
    /// Stop accepting connections and exit the server loop.
    Shutdown,
}

fn edge_pairs(v: &Json, what: &str) -> Result<Vec<(VertexId, VertexId)>, String> {
    let arr = v
        .as_arr()
        .ok_or_else(|| format!("{what} must be an array"))?;
    let mut out = Vec::with_capacity(arr.len());
    for pair in arr {
        let pair = pair
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| format!("{what} entries must be [u, v] pairs"))?;
        let u = pair[0]
            .as_u64()
            .and_then(|x| u32::try_from(x).ok())
            .ok_or_else(|| format!("{what} endpoints must be u32"))?;
        let v = pair[1]
            .as_u64()
            .and_then(|x| u32::try_from(x).ok())
            .ok_or_else(|| format!("{what} endpoints must be u32"))?;
        out.push((u, v));
    }
    Ok(out)
}

fn parse_submit(v: &Json) -> Result<QuerySpec, String> {
    let graph = v
        .get("graph")
        .map(|g| {
            g.as_str()
                .map(str::to_string)
                .ok_or("graph must be a string")
        })
        .transpose()?
        .unwrap_or_else(|| "default".to_string());
    let q = v.get("query").ok_or("submit requires a query object")?;
    let labels: Vec<u32> = q
        .get("labels")
        .and_then(Json::as_arr)
        .ok_or("query.labels must be an array")?
        .iter()
        .map(|l| {
            l.as_u64()
                .and_then(|x| u32::try_from(x).ok())
                .ok_or("query.labels entries must be u32")
        })
        .collect::<Result<_, _>>()?;
    let edges = edge_pairs(
        q.get("edges").unwrap_or(&Json::Arr(Vec::new())),
        "query.edges",
    )?;
    let query = graph_from_edges(&labels, &edges).map_err(|e| format!("invalid query: {e}"))?;

    let mut config = MatchConfig::exhaustive();
    match v.get("order").map(|o| o.as_str()) {
        None | Some(Some("static")) => {}
        Some(Some("adaptive")) => config = config.with_ordering(OrderingKind::Adaptive),
        Some(other) => {
            return Err(format!(
                "unknown order {other:?} (expected \"static\" or \"adaptive\")"
            ))
        }
    }
    match v.get("pruning").map(|o| o.as_str()) {
        None | Some(Some("plain")) => {}
        Some(Some("failing-set")) => config = config.with_pruning(PruningKind::FailingSet),
        Some(other) => {
            return Err(format!(
                "unknown pruning {other:?} (expected \"plain\" or \"failing-set\")"
            ))
        }
    }
    if v.get("label_pair").and_then(Json::as_bool) == Some(true) {
        let mut filters = config.filters;
        filters.use_label_pair = true;
        config = config.with_filters(filters);
    }

    let limit = match v.get("limit") {
        None | Some(Json::Null) => None,
        Some(j) => Some(j.as_u64().ok_or("limit must be a non-negative integer")?),
    };
    let deadline = match v.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(j) => Some(Duration::from_millis(
            j.as_u64()
                .ok_or("deadline_ms must be a non-negative integer")?,
        )),
    };
    let count_only = v.get("count_only").and_then(Json::as_bool).unwrap_or(false);
    Ok(QuerySpec {
        graph,
        query,
        config,
        limit,
        deadline,
        count_only,
    })
}

/// Decodes one request frame.
pub fn parse_request(text: &str) -> Result<Request, String> {
    let v = Json::parse(text).map_err(|e| e.to_string())?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("request requires a string \"op\" member")?;
    match op {
        "submit" => parse_submit(&v).map(Request::Submit),
        "cancel" => {
            let id = v
                .get("id")
                .and_then(Json::as_u64)
                .ok_or("cancel requires a numeric id")?;
            Ok(Request::Cancel { id })
        }
        "apply-delta" => {
            let graph = v
                .get("graph")
                .and_then(Json::as_str)
                .unwrap_or("default")
                .to_string();
            let mut delta = GraphDelta::new();
            if let Some(ins) = v.get("insert") {
                for (u, w) in edge_pairs(ins, "insert")? {
                    delta.insert(u, w);
                }
            }
            if let Some(del) = v.get("delete") {
                for (u, w) in edge_pairs(del, "delete")? {
                    delta.delete(u, w);
                }
            }
            if delta.is_empty() {
                return Err("apply-delta requires insert and/or delete edges".to_string());
            }
            Ok(Request::ApplyDelta { graph, delta })
        }
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

// ---------------------------------------------------------------------
// Response encoders (hand-written JSON, like every producer in this
// workspace).
// ---------------------------------------------------------------------

/// `submit` accepted.
#[must_use]
pub fn encode_submitted(id: u64) -> String {
    format!("{{\"ok\": true, \"id\": {id}}}")
}

/// A batch of embeddings for query `id`: `{"id": N, "batch": [[…], …]}`.
#[must_use]
pub fn encode_batch(id: u64, batch: &[Vec<VertexId>]) -> String {
    let mut out = Vec::new();
    encode_batch_into(&mut out, id, batch.iter().map(Vec::as_slice));
    // The encoder emits ASCII only.
    String::from_utf8(out).unwrap_or_default()
}

/// The one batch encoder: appends the payload of a batch frame to `out`.
fn encode_batch_into<'a>(
    out: &mut Vec<u8>,
    id: u64,
    rows: impl IntoIterator<Item = &'a [VertexId]>,
) {
    out.extend_from_slice(b"{\"id\": ");
    push_decimal(out, id);
    out.extend_from_slice(b", \"batch\": [");
    for (i, row) in rows.into_iter().enumerate() {
        if i > 0 {
            out.extend_from_slice(b", ");
        }
        out.push(b'[');
        for (j, &v) in row.iter().enumerate() {
            if j > 0 {
                out.extend_from_slice(b", ");
            }
            push_decimal(out, u64::from(v));
        }
        out.push(b']');
    }
    out.extend_from_slice(b"]}");
}

/// Appends `n` in decimal, as `Display` would print it.
fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Decodes one frame of a query's result stream. A batch frame lands in
/// `out` and yields `Ok(None)`; any other frame is returned parsed.
///
/// Batch frames byte for byte in the form [`encode_batch`] produces take
/// a fast path that builds no JSON tree. Any other valid JSON falls back
/// to [`Json::parse`] and decodes to the same rows.
pub(crate) fn decode_stream_frame(
    payload: &[u8],
    out: &mut EmbeddingBatch,
) -> io::Result<Option<Json>> {
    if decode_batch(payload, out).is_some() {
        return Ok(None);
    }
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let frame = Json::parse(frame_text(payload)?).map_err(|e| invalid(e.to_string()))?;
    match frame.get("batch") {
        Some(rows) => batch_from_json(rows, out).map(|()| None).map_err(invalid),
        None => Ok(Some(frame)),
    }
}

/// The fast path of [`decode_stream_frame`]: decodes a payload in exactly
/// [`encode_batch`]'s form into `out` and returns its query id. `None`
/// means any other input — other spacing or key order, a non-canonical
/// number, ragged rows, or malformed JSON.
fn decode_batch(payload: &[u8], out: &mut EmbeddingBatch) -> Option<u64> {
    let mut c = Cursor {
        bytes: payload,
        at: 0,
    };
    c.eat(b"{\"id\": ")?;
    let id = c.decimal(u64::MAX)?;
    c.eat(b", \"batch\": [")?;
    out.clear();
    if c.eat(b"]}").is_none() {
        loop {
            c.eat(b"[")?;
            if c.eat(b"]").is_none() {
                loop {
                    out.push_id(u32::try_from(c.decimal(u64::from(u32::MAX))?).ok()?);
                    if c.eat(b", ").is_none() {
                        c.eat(b"]")?;
                        break;
                    }
                }
            }
            if !out.close_row() {
                return None;
            }
            if c.eat(b", ").is_none() {
                c.eat(b"]}")?;
                break;
            }
        }
    }
    (c.at == payload.len()).then_some(id)
}

/// Decodes the `batch` member of any parsed batch frame into `out`.
fn batch_from_json(rows: &Json, out: &mut EmbeddingBatch) -> Result<(), String> {
    let rows = rows.as_arr().ok_or("batch is not an array")?;
    out.clear();
    for row in rows {
        for v in row.as_arr().ok_or("embedding is not an array")? {
            let v = v
                .as_u64()
                .and_then(|x| u32::try_from(x).ok())
                .ok_or("vertex id is not a u32")?;
            out.push_id(v);
        }
        if !out.close_row() {
            return Err("batch rows differ in length".to_string());
        }
    }
    Ok(())
}

/// A forward-only reader over a payload for [`decode_batch`].
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn eat(&mut self, literal: &[u8]) -> Option<()> {
        self.bytes[self.at..].starts_with(literal).then(|| {
            self.at += literal.len();
        })
    }

    /// A canonical decimal (`0`, or no leading zero) no larger than `max`.
    fn decimal(&mut self, max: u64) -> Option<u64> {
        let digits = self.bytes[self.at..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        let text = &self.bytes[self.at..self.at + digits];
        if digits == 0 || (digits > 1 && text[0] == b'0') {
            return None;
        }
        let mut n: u64 = 0;
        for &d in text {
            n = n.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
        }
        self.at += digits;
        (n <= max).then_some(n)
    }
}

/// Terminal success frame for query `id`.
#[must_use]
pub fn encode_done(id: u64, done: &QueryDone) -> String {
    format!(
        "{{\"id\": {id}, \"done\": {{\"outcome\": \"{}\", \"embeddings\": {}, \
         \"truncated\": {}, \"checksum\": \"0x{:016x}\", \"search_nodes\": {}, \
         \"elapsed_ms\": {:.3}}}}}",
        done.outcome.as_tag(),
        done.embeddings,
        done.truncated,
        done.checksum,
        done.search_nodes,
        done.elapsed.as_secs_f64() * 1e3,
    )
}

/// Terminal failure frame for query `id`.
#[must_use]
pub fn encode_query_error(id: u64, msg: &str) -> String {
    format!("{{\"id\": {id}, \"error\": \"{}\"}}", escape(msg))
}

/// Request-level failure frame; `retry` marks transient conditions.
#[must_use]
pub fn encode_error(msg: &str, retry: bool) -> String {
    format!(
        "{{\"ok\": false, \"error\": \"{}\", \"retry\": {retry}}}",
        escape(msg)
    )
}

/// `cancel` response; `cancelled` is whether the id was live.
#[must_use]
pub fn encode_cancelled(cancelled: bool) -> String {
    format!("{{\"ok\": true, \"cancelled\": {cancelled}}}")
}

/// `apply-delta` success response.
#[must_use]
pub fn encode_delta_applied(epoch: u64, plans_refreshed: u64) -> String {
    format!("{{\"ok\": true, \"epoch\": {epoch}, \"plans_refreshed\": {plans_refreshed}}}")
}

/// `stats` response wrapping the counter snapshot.
#[must_use]
pub fn encode_stats(trace: &ServeTrace) -> String {
    format!("{{\"ok\": true, \"stats\": {}}}", trace.to_json())
}

/// `shutdown` acknowledgement.
#[must_use]
pub fn encode_ok() -> String {
    "{\"ok\": true}".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::MatchOutcome;
    use proptest::prelude::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\": \"stats\"}").unwrap();
        write_frame(&mut buf, "second").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("{\"op\": \"stats\"}")
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("second"));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean eof");
    }

    #[test]
    fn truncated_frames_are_errors() {
        // EOF inside the header.
        let mut r = io::Cursor::new(vec![0u8, 0]);
        assert!(read_frame(&mut r).is_err());
        // EOF inside the payload.
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn declared_length_is_not_allocated_up_front() {
        // A header claiming MAX_FRAME bytes, then EOF: the reader must fail
        // without having reserved the declared length.
        let header = Vec::from((MAX_FRAME as u32).to_be_bytes());
        let mut buf = Vec::new();
        let err = read_frame_into(&mut io::Cursor::new(header.clone()), &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(buf.capacity() <= 64 * 1024, "capacity {}", buf.capacity());
        let err = read_frame(&mut io::Cursor::new(header)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn reused_buffer_reads_successive_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "a much longer first payload").unwrap();
        write_frame(&mut wire, "short").unwrap();
        write_frame(&mut wire, "").unwrap();
        let mut r = io::Cursor::new(wire);
        let mut buf = Vec::new();
        for want in ["a much longer first payload", "short", ""] {
            assert!(read_frame_into(&mut r, &mut buf).unwrap());
            assert_eq!(buf, want.as_bytes());
        }
        assert!(!read_frame_into(&mut r, &mut buf).unwrap(), "clean eof");
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut header = Vec::from(((MAX_FRAME + 1) as u32).to_be_bytes());
        header.extend_from_slice(b"x");
        let mut r = io::Cursor::new(header);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn parses_submit_with_strategies() {
        let req = parse_request(
            r#"{"op":"submit","graph":"g","query":{"labels":[0,1,2],"edges":[[0,1],[1,2],[2,0]]},
                "limit":10,"deadline_ms":250,"order":"adaptive","pruning":"failing-set",
                "label_pair":true,"count_only":false}"#,
        )
        .unwrap();
        let Request::Submit(spec) = req else {
            panic!("expected submit")
        };
        assert_eq!(spec.graph, "g");
        assert_eq!(spec.query.num_vertices(), 3);
        assert_eq!(spec.limit, Some(10));
        assert_eq!(spec.deadline, Some(Duration::from_millis(250)));
        assert!(!spec.count_only);
        assert_eq!(spec.config.ordering, OrderingKind::Adaptive);
        assert_eq!(spec.config.pruning, PruningKind::FailingSet);
        assert!(spec.config.filters.use_label_pair);
    }

    #[test]
    fn submit_defaults_are_conservative() {
        let req =
            parse_request(r#"{"op":"submit","query":{"labels":[0,0],"edges":[[0,1]]}}"#).unwrap();
        let Request::Submit(spec) = req else {
            panic!("expected submit")
        };
        assert_eq!(spec.graph, "default");
        assert_eq!(spec.limit, None);
        assert_eq!(spec.deadline, None);
        assert_eq!(spec.config.ordering, OrderingKind::StaticPath);
        assert_eq!(spec.config.pruning, PruningKind::Plain);
    }

    #[test]
    fn parses_cancel_delta_stats_shutdown() {
        assert!(matches!(
            parse_request(r#"{"op":"cancel","id":7}"#).unwrap(),
            Request::Cancel { id: 7 }
        ));
        let Request::ApplyDelta { graph, delta } =
            parse_request(r#"{"op":"apply-delta","insert":[[0,3]],"delete":[[1,2]]}"#).unwrap()
        else {
            panic!("expected apply-delta")
        };
        assert_eq!(graph, "default");
        assert_eq!(delta.inserts(), &[(0, 3)]);
        assert_eq!(delta.deletes(), &[(1, 2)]);
        assert!(matches!(
            parse_request(r#"{"op":"stats"}"#).unwrap(),
            Request::Stats
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        ));
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "not json",
            r#"{"op":"nope"}"#,
            r#"{"no_op":1}"#,
            r#"{"op":"cancel"}"#,
            r#"{"op":"submit"}"#,
            r#"{"op":"submit","query":{"labels":[0],"edges":[[0,1,2]]}}"#,
            r#"{"op":"submit","query":{"labels":[0,1],"edges":[[0,1]]},"order":"fancy"}"#,
            r#"{"op":"apply-delta"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn encoders_emit_parseable_json() {
        let done = QueryDone {
            outcome: MatchOutcome::LimitReached,
            embeddings: 10,
            truncated: true,
            checksum: 0xdead_beef_0000_0001,
            search_nodes: 123,
            elapsed: Duration::from_micros(1500),
        };
        for payload in [
            encode_submitted(3),
            encode_batch(3, &[vec![0, 1], vec![2, 3]]),
            encode_done(3, &done),
            encode_query_error(3, "bad \"query\""),
            encode_error("queue full", true),
            encode_cancelled(true),
            encode_delta_applied(2, 5),
            encode_stats(&ServeTrace::default()),
            encode_ok(),
        ] {
            let v = Json::parse(&payload).unwrap_or_else(|e| panic!("{payload}: {e}"));
            assert!(matches!(v, Json::Obj(_)));
        }
        let v = Json::parse(&encode_done(3, &done)).unwrap();
        assert_eq!(
            v.get("done")
                .and_then(|d| d.get("checksum"))
                .and_then(Json::as_str),
            Some("0xdeadbeef00000001")
        );
        let v = Json::parse(&encode_batch(3, &[vec![0, 1]])).unwrap();
        assert_eq!(
            v.get("batch").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
    }

    /// The batch encoder as first written (one `to_string` per vertex):
    /// the golden reference for the wire bytes.
    fn reference_batch(id: u64, batch: &[Vec<VertexId>]) -> String {
        let mut out = format!("{{\"id\": {id}, \"batch\": [");
        for (i, emb) in batch.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('[');
            for (j, v) in emb.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&v.to_string());
            }
            out.push(']');
        }
        out.push_str("]}");
        out
    }

    fn flat(rows: &[Vec<VertexId>]) -> EmbeddingBatch {
        let width = rows.first().map_or(0, Vec::len);
        let mut batch = EmbeddingBatch::with_capacity(width, rows.len());
        rows.iter().for_each(|r| batch.push(r));
        batch
    }

    fn rows_of(batch: &EmbeddingBatch) -> Vec<Vec<VertexId>> {
        batch.iter().map(<[VertexId]>::to_vec).collect()
    }

    fn checksum_of(batch: &EmbeddingBatch) -> u64 {
        let mut c = crate::result::EmbeddingChecksum::new();
        batch.iter().for_each(|r| c.update(r));
        c.digest()
    }

    /// Decodes through the general path only: `Json::parse`, then the
    /// tree walk.
    fn decode_via_json(payload: &str) -> Result<EmbeddingBatch, String> {
        let v = Json::parse(payload).map_err(|e| e.to_string())?;
        let mut out = EmbeddingBatch::default();
        batch_from_json(v.get("batch").ok_or("no batch")?, &mut out)?;
        Ok(out)
    }

    fn golden_cases() -> Vec<(u64, Vec<Vec<VertexId>>)> {
        vec![
            (0, vec![]),
            (u64::MAX, vec![]),
            (7, vec![vec![0]]),
            (7, vec![vec![u32::MAX]]),
            (8, vec![vec![0], vec![u32::MAX], vec![10]]),
            (9, vec![vec![0, u32::MAX, 1, 10, 99, 100]]),
            (1 << 53, vec![vec![3, 4], vec![5, 6], vec![u32::MAX, 0]]),
            (2, vec![vec![]]),
        ]
    }

    #[test]
    fn batch_encoder_matches_the_reference_bytes() {
        for (id, rows) in golden_cases() {
            let want = reference_batch(id, &rows);
            assert_eq!(encode_batch(id, &rows), want);
            let mut wire = Vec::new();
            FrameWriter::new(&mut wire)
                .send_batch(id, &flat(&rows))
                .unwrap();
            assert_eq!(&wire[..4], &(want.len() as u32).to_be_bytes());
            assert_eq!(&wire[4..], want.as_bytes(), "{want}");
        }
    }

    #[test]
    fn fast_decoder_reads_every_golden_frame() {
        for (id, rows) in golden_cases() {
            let payload = reference_batch(id, &rows);
            let mut out = EmbeddingBatch::default();
            assert_eq!(decode_batch(payload.as_bytes(), &mut out), Some(id));
            assert_eq!(rows_of(&out), rows, "{payload}");
            assert_eq!(out, decode_via_json(&payload).unwrap(), "{payload}");
        }
    }

    #[test]
    fn non_canonical_batches_fall_back_and_decode_identically() {
        let canonical = r#"{"id": 4, "batch": [[1, 2], [3, 4]]}"#;
        let mut want = EmbeddingBatch::default();
        assert_eq!(
            decode_stream_frame(canonical.as_bytes(), &mut want).unwrap(),
            None
        );
        for variant in [
            r#"{"id":4,"batch":[[1,2],[3,4]]}"#,
            "{ \"id\" : 4 ,\n \"batch\" : [ [ 1 , 2 ] ,\t[3, 4] ] }",
            r#"{"batch": [[1, 2], [3, 4]], "id": 4}"#,
            r#"{"id": 4, "batch": [[1.0, 2], [3, 4e0]]}"#,
            r#"{"id": 4, "extra": null, "batch": [[1, 2], [3, 4]]}"#,
        ] {
            let mut out = EmbeddingBatch::default();
            assert_eq!(
                decode_batch(variant.as_bytes(), &mut out),
                None,
                "{variant}"
            );
            let other = decode_stream_frame(variant.as_bytes(), &mut out).unwrap();
            assert_eq!(other, None, "{variant}");
            assert_eq!(out, want, "{variant}");
        }
    }

    #[test]
    fn malformed_batches_never_panic() {
        let mut out = EmbeddingBatch::default();
        for (bad, fast_ok) in [
            (r#"{"id": 1, "batch": [[01, 2]]}"#, false),
            (r#"{"id": 1, "batch": [[00]]}"#, false),
            (r#"{"id": 1, "batch": [[4294967296]]}"#, false),
            (r#"{"id": 1, "batch": [[99999999999999999999999]]}"#, false),
            (r#"{"id": 99999999999999999999999, "batch": [[1]]}"#, false),
            (r#"{"id": 1, "batch": [[1, 2], [3]]}"#, false),
            (r#"{"id": 1, "batch": [[1], [2, 3]]}"#, false),
            (r#"{"id": 1, "batch": [[-1]]}"#, false),
            (r#"{"id": 1, "batch": [[1], ]}"#, false),
            (r#"{"id": 1, "batch": [[1]]} "#, false),
            (r#"{"id": 1, "batch": [[1]]}"#, true),
        ] {
            assert_eq!(
                decode_batch(bad.as_bytes(), &mut out).is_some(),
                fast_ok,
                "{bad}"
            );
            let _ = decode_stream_frame(bad.as_bytes(), &mut out);
        }
        for bad in [
            r#"{"id": 1, "batch": [[4294967296]]}"#,
            r#"{"id": 1, "batch": [[1, 2], [3]]}"#,
            r#"{"id": 1, "batch": [[-1]]}"#,
            r#"{"id": 1, "batch": [1, 2]}"#,
            r#"{"id": 1, "batch": 3}"#,
        ] {
            assert!(
                decode_stream_frame(bad.as_bytes(), &mut out).is_err(),
                "{bad}"
            );
        }
        // Every truncation of a valid frame is an error, never a panic.
        let whole = reference_batch(12, &[vec![0, 4_000_000_000], vec![7, 8]]);
        for cut in 0..whole.len() {
            let part = &whole.as_bytes()[..cut];
            assert_eq!(decode_batch(part, &mut out), None);
            assert!(decode_stream_frame(part, &mut out).is_err(), "{cut}");
        }
        assert!(decode_stream_frame(&[0xff, 0xfe], &mut out).is_err());
    }

    fn vertex() -> impl Strategy<Value = VertexId> {
        (0u32..6).prop_flat_map(|k| match k {
            0 => Just(0).boxed(),
            1 => Just(u32::MAX).boxed(),
            2 => (0u32..10).boxed(),
            _ => (0u32..=u32::MAX).boxed(),
        })
    }

    proptest! {
        /// The client's fast path and the general `Json::parse` path decode
        /// every encoder-produced batch to the same rows and checksum.
        #[test]
        fn fast_path_agrees_with_json_parse(
            id in 0u64..=u64::MAX,
            rows in (1usize..6, 0usize..12).prop_flat_map(|(width, n)| {
                proptest::collection::vec(proptest::collection::vec(vertex(), width), n)
            }),
        ) {
            let payload = encode_batch(id, &rows);
            prop_assert_eq!(payload.clone(), reference_batch(id, &rows));
            let mut fast = EmbeddingBatch::default();
            prop_assert_eq!(decode_batch(payload.as_bytes(), &mut fast), Some(id));
            let slow = decode_via_json(&payload).unwrap();
            prop_assert_eq!(rows_of(&fast), rows.clone());
            prop_assert_eq!(rows_of(&slow), rows);
            prop_assert_eq!(checksum_of(&fast), checksum_of(&slow));
        }
    }
}
