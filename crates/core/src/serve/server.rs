//! TCP front end: one listener, one connection thread per client, the
//! framed protocol from [`super::proto`].
//!
//! The protocol is **synchronous per connection**: a connection processes
//! one request at a time, and a `submit` occupies it until the terminal
//! frame has been written. To cancel a query mid-stream, send the
//! `cancel` op from a *second* connection (or drop the submitting
//! connection — the engine notices the vanished client on its next batch
//! and aborts the query).

use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

use super::engine::{Engine, SubmitError};
use super::proto::{
    encode_cancelled, encode_delta_applied, encode_done, encode_error, encode_ok,
    encode_query_error, encode_stats, encode_submitted, frame_text, parse_request, read_frame_into,
    FrameWriter, Request,
};
use super::QueryEvent;
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::{thread, Arc};

/// A running serving endpoint. Dropping it stops the accept loop;
/// established connections run until their client disconnects.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:7878"`, port `0` for an ephemeral
    /// port) and starts accepting connections against `engine`.
    pub fn start(engine: Arc<Engine>, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept = thread::Builder::new()
            .name("cfl-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &engine, &accept_stop))?;
        Ok(Server {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins it. Equivalent to dropping the
    /// server, but explicit at call sites that care about ordering.
    pub fn shutdown(self) {}

    /// Blocks until the accept loop exits — i.e. until a client sends the
    /// `shutdown` op (or the loop dies). This is how `cfl serve` parks its
    /// main thread.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Drop still runs `stop_accepting`; with `accept` taken it only
        // sets the (already moot) stop flag.
    }

    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

fn accept_loop(listener: &TcpListener, engine: &Arc<Engine>, stop: &Arc<AtomicBool>) {
    loop {
        let conn = accept_stream(listener);
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else {
            continue; // transient accept error; keep serving
        };
        let engine = Arc::clone(engine);
        let stop = Arc::clone(stop);
        let spawned = thread::Builder::new()
            .name("cfl-serve-conn".to_string())
            .spawn(move || {
                let _ = serve_stream(stream, &engine, &stop);
            });
        if spawned.is_err() {
            // Out of threads: drop the connection; the client sees a
            // clean close and can retry.
            continue;
        }
    }
}

/// Accepts one connection with `TCP_NODELAY` set: every frame is already
/// written whole, so Nagle's coalescing only adds delay.
fn accept_stream(listener: &TcpListener) -> io::Result<TcpStream> {
    let (stream, _) = listener.accept()?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn serve_stream(stream: TcpStream, engine: &Engine, stop: &AtomicBool) -> io::Result<bool> {
    let local = stream.local_addr()?;
    let reader = BufReader::new(stream.try_clone()?);
    serve_connection(reader, stream, engine, stop, local)
}

/// Runs one connection to completion. Returns `Ok(true)` iff the client
/// requested a server shutdown; `local` is the listening address, poked
/// so the accept loop observes the stop flag.
fn serve_connection(
    mut reader: impl Read,
    writer: impl Write,
    engine: &Engine,
    stop: &AtomicBool,
    local: SocketAddr,
) -> io::Result<bool> {
    let mut out = FrameWriter::new(writer);
    let mut frame = Vec::new();
    while read_frame_into(&mut reader, &mut frame)? {
        let request = match parse_request(frame_text(&frame)?) {
            Ok(r) => r,
            Err(msg) => {
                out.send(&encode_error(&msg, false))?;
                continue;
            }
        };
        match request {
            Request::Submit(spec) => match engine.submit(spec) {
                Ok(handle) => {
                    let id = handle.id();
                    out.send(&encode_submitted(id))?;
                    // If a write fails the client is gone; dropping the
                    // handle aborts the query, and the `?` ends the
                    // connection thread.
                    loop {
                        match handle.recv() {
                            Some(QueryEvent::Batch(batch)) => out.send_batch(id, &batch)?,
                            Some(QueryEvent::Done(done)) => {
                                out.send(&encode_done(id, &done))?;
                                break;
                            }
                            Some(QueryEvent::Failed(msg)) => {
                                out.send(&encode_query_error(id, &msg))?;
                                break;
                            }
                            None => break, // engine shut down mid-query
                        }
                    }
                }
                Err(e) => {
                    let retry = matches!(e, SubmitError::QueueFull);
                    out.send(&encode_error(&e.to_string(), retry))?;
                }
            },
            Request::Cancel { id } => out.send(&encode_cancelled(engine.cancel(id)))?,
            Request::ApplyDelta { graph, delta } => match engine.apply_delta(&graph, &delta) {
                Ok(applied) => out.send(&encode_delta_applied(
                    applied.epoch,
                    applied.plans_refreshed,
                ))?,
                Err(e) => out.send(&encode_error(&e.to_string(), false))?,
            },
            Request::Stats => out.send(&encode_stats(&engine.stats()))?,
            Request::Shutdown => {
                out.send(&encode_ok())?;
                stop.store(true, Ordering::SeqCst);
                // Poke the accept loop so it observes the flag.
                let _ = TcpStream::connect(local);
                return Ok(true);
            }
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::json::Json;
    use crate::serve::proto::write_frame;
    use crate::serve::EngineConfig;
    use cfl_graph::graph_from_edges;
    use std::io::Cursor;

    /// Records every `write` call it receives, accepting all bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The frame kind of a response payload, for coverage accounting.
    fn kind(frame: &Json) -> &'static str {
        let has = |k| frame.get(k).is_some();
        if has("batch") {
            "batch"
        } else if has("done") {
            "done"
        } else if has("stats") {
            "stats"
        } else if has("error") {
            "error"
        } else if has("id") {
            "ack"
        } else {
            "ok"
        }
    }

    #[test]
    fn every_frame_is_one_write() {
        let engine = Engine::new(EngineConfig {
            batch_size: 1,
            ..EngineConfig::default()
        });
        let g = graph_from_edges(
            &[0, 1, 2, 1, 2, 0],
            &[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (2, 5)],
        )
        .unwrap();
        engine.add_graph("default", g);
        let mut requests = Vec::new();
        for payload in [
            r#"{"op":"submit","query":{"labels":[0,1,2],"edges":[[0,1],[1,2],[2,0]]}}"#,
            r#"{"op":"submit","query":{"labels":[0,1],"edges":[]}}"#,
            r#"{"op":"warp"}"#,
            r#"{"op":"stats"}"#,
            r#"{"op":"cancel","id":999}"#,
            r#"{"op":"apply-delta","delete":[[0,1]]}"#,
            r#"{"op":"shutdown"}"#,
        ] {
            write_frame(&mut requests, payload).unwrap();
        }
        let mut client_side = CountingWriter::default();
        write_frame(&mut client_side, r#"{"op":"stats"}"#).unwrap();
        assert_eq!(client_side.writes.len(), 1, "write_frame");

        // A listener stands in for the accept loop the shutdown op pokes.
        let poke = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut out = CountingWriter::default();
        let stop = AtomicBool::new(false);
        let shut = serve_connection(
            Cursor::new(requests),
            &mut out,
            &engine,
            &stop,
            poke.local_addr().unwrap(),
        )
        .unwrap();
        assert!(shut && stop.load(Ordering::SeqCst));

        let mut kinds = Vec::new();
        for write in &out.writes {
            let (len, payload) = write.split_at(4);
            let len = u32::from_be_bytes(len.try_into().unwrap()) as usize;
            assert_eq!(len, payload.len(), "a write holds exactly one frame");
            let frame = Json::parse(std::str::from_utf8(payload).unwrap()).unwrap();
            kinds.push(kind(&frame));
        }
        // triangle: ack, 2 single-row batches, done; disconnected query:
        // ack, query error; bad op: error; then stats, cancel, delta and
        // shutdown answers.
        assert_eq!(
            kinds,
            ["ack", "batch", "batch", "done", "ack", "error", "error", "stats", "ok", "ok", "ok"]
        );
    }

    #[test]
    fn accepted_sockets_set_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let accepted = accept_stream(&listener).unwrap();
        assert!(accepted.nodelay().unwrap());
    }
}
