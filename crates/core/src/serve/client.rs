//! A small blocking client for the serving protocol, used by the CLI,
//! the load generator, and the integration tests. One [`Client`] wraps
//! one TCP connection and mirrors the protocol's synchronous,
//! one-request-at-a-time shape.

use std::fmt::Write as _;
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use cfl_graph::Graph;

use super::engine::EmbeddingBatch;
use super::json::{escape, Json};
use super::proto::{decode_stream_frame, frame_text, read_frame_into, write_frame};
use crate::result::EmbeddingChecksum;

/// Serializes a `submit` request for `query` against the named graph.
/// `limit`/`deadline_ms` override the engine defaults; `count_only`
/// suppresses batch streaming. Strategy fields are left at the protocol
/// defaults (static ordering, plain pruning) — callers needing them can
/// build the payload by hand.
#[must_use]
pub fn submit_payload(
    graph: &str,
    query: &Graph,
    limit: Option<u64>,
    deadline_ms: Option<u64>,
    count_only: bool,
) -> String {
    let mut s = format!("{{\"op\":\"submit\",\"graph\":\"{}\",", escape(graph));
    s.push_str("\"query\":{\"labels\":[");
    for (i, &l) in query.labels().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{l}");
    }
    s.push_str("],\"edges\":[");
    for (i, (u, v)) in query.edges().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "[{u},{v}]");
    }
    s.push_str("]}");
    if let Some(n) = limit {
        let _ = write!(s, ",\"limit\":{n}");
    }
    if let Some(ms) = deadline_ms {
        let _ = write!(s, ",\"deadline_ms\":{ms}");
    }
    if count_only {
        s.push_str(",\"count_only\":true");
    }
    s.push('}');
    s
}

/// Client-side summary of one streamed query.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Engine-assigned query id.
    pub id: u64,
    /// Outcome tag from the terminal frame (`"complete"`, `"limit"`,
    /// `"deadline"`, `"cancelled"`).
    pub outcome: String,
    /// Embedding count reported by the server.
    pub embeddings: u64,
    /// Whether the run stopped before exhausting the search.
    pub truncated: bool,
    /// Server-computed checksum (hex string, e.g. `"0x00ab…"`).
    pub checksum: String,
    /// Checksum recomputed client-side over the received batches; equals
    /// `checksum` whenever the full stream arrived (it stays at the
    /// empty-digest value for `count_only` queries, which stream nothing).
    pub received_checksum: String,
    /// Embeddings actually received in batches (≤ `embeddings`; 0 for
    /// `count_only` queries).
    pub received: u64,
    /// Search-tree nodes explored, from the terminal frame.
    pub search_nodes: u64,
    /// Server-side execution time in milliseconds.
    pub elapsed_ms: f64,
}

/// One connection to a serving endpoint.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Reused receive buffer (one frame payload).
    frame: Vec<u8>,
    /// Reused decoded batch.
    batch: EmbeddingBatch,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Client {
    /// Connects to `addr` with `TCP_NODELAY` set (every frame is written
    /// whole, so Nagle's coalescing only adds delay).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            frame: Vec::new(),
            batch: EmbeddingBatch::default(),
        })
    }

    /// Sets a read timeout on the underlying socket (useful in tests so a
    /// wedged server fails fast instead of hanging the suite).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Sends one raw JSON payload as a frame.
    pub fn send(&mut self, payload: &str) -> io::Result<()> {
        write_frame(&mut self.writer, payload)
    }

    /// Receives one frame and parses it; `None` on clean server close.
    pub fn recv(&mut self) -> io::Result<Option<Json>> {
        if !read_frame_into(&mut self.reader, &mut self.frame)? {
            return Ok(None);
        }
        Json::parse(frame_text(&self.frame)?)
            .map(Some)
            .map_err(|e| bad(e.to_string()))
    }

    /// One non-streaming round trip (cancel / apply-delta / stats /
    /// shutdown): sends `payload`, returns the single response frame.
    pub fn request(&mut self, payload: &str) -> io::Result<Json> {
        self.send(payload)?;
        self.recv()?.ok_or_else(|| bad("server closed connection"))
    }

    /// Runs one `submit` to its terminal frame, invoking `on_batch` for
    /// every received embedding batch. Returns `Ok(Err(msg))` when the
    /// server rejected or failed the query.
    pub fn run_query_with(
        &mut self,
        payload: &str,
        mut on_batch: impl FnMut(&EmbeddingBatch),
    ) -> io::Result<Result<QueryResult, String>> {
        let ack = self.request(payload)?;
        if ack.get("ok").and_then(Json::as_bool) != Some(true) {
            let msg = ack
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("malformed rejection")
                .to_string();
            return Ok(Err(msg));
        }
        let id = ack
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("submit ack without id"))?;
        let mut checksum = EmbeddingChecksum::new();
        loop {
            if !read_frame_into(&mut self.reader, &mut self.frame)? {
                return Err(bad("server closed mid-stream"));
            }
            let Some(frame) = decode_stream_frame(&self.frame, &mut self.batch)? else {
                self.batch.iter().for_each(|row| checksum.update(row));
                on_batch(&self.batch);
                continue;
            };
            if let Some(msg) = frame.get("error").and_then(Json::as_str) {
                return Ok(Err(msg.to_string()));
            }
            let Some(done) = frame.get("done") else {
                return Err(bad("unexpected frame in query stream"));
            };
            let field_u64 = |k: &str| {
                done.get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad(format!("done frame missing {k}")))
            };
            return Ok(Ok(QueryResult {
                id,
                outcome: done
                    .get("outcome")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("done frame missing outcome"))?
                    .to_string(),
                embeddings: field_u64("embeddings")?,
                truncated: done
                    .get("truncated")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| bad("done frame missing truncated"))?,
                checksum: done
                    .get("checksum")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("done frame missing checksum"))?
                    .to_string(),
                received_checksum: format!("0x{:016x}", checksum.digest()),
                received: checksum.count(),
                search_nodes: field_u64("search_nodes")?,
                elapsed_ms: match done.get("elapsed_ms") {
                    Some(Json::Num(n)) => *n,
                    _ => return Err(bad("done frame missing elapsed_ms")),
                },
            }));
        }
    }

    /// [`run_query_with`](Self::run_query_with), discarding batch
    /// contents (the checksums still cover them).
    pub fn run_query(&mut self, payload: &str) -> io::Result<Result<QueryResult, String>> {
        self.run_query_with(payload, |_| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn client_sockets_set_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap()).unwrap();
        assert!(client.writer.nodelay().unwrap());
    }
}
