//! Serving load generator: drives a serving endpoint (an external
//! `cfl serve`, or an in-process engine the binary self-hosts) with a
//! deterministic query mix from N concurrent client connections, and
//! reports throughput (qps) plus latency percentiles (p50/p95/p99).
//!
//! Every completed query is also a correctness probe: the client
//! recomputes the embedding checksum over the batches it received and
//! compares it against the digest in the server's terminal frame, so a
//! load run doubles as an end-to-end stream-integrity check.
//!
//! Each completed query also yields a **wire residual**: client latency
//! minus the server's execution time from the `done` frame
//! (`elapsed_ms`). It is what the socket, the codec and the admission
//! queue add on top of the matching itself; a transport stall shows up
//! here and nowhere else.

use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cfl_match::serve::Client;

/// Knobs for one load run.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Concurrent client connections (each runs one query at a time, so
    /// this is also the offered concurrency).
    pub clients: usize,
    /// Total requests issued across all clients.
    pub requests: usize,
    /// Whether results stream back (`false`) or only counts (`true`);
    /// checksum verification needs streaming.
    pub count_only: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            clients: 4,
            requests: 240,
            count_only: false,
        }
    }
}

/// Outcome of one load run. Latencies are stored sorted, one sample per
/// successfully completed request.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// Requests that reached a terminal `done` frame.
    pub completed: u64,
    /// Requests the server rejected or failed, plus client I/O errors.
    pub errors: u64,
    /// Completed streaming requests whose client-side digest disagreed
    /// with the server's (always 0 on a healthy build).
    pub checksum_mismatches: u64,
    /// Total embeddings reported by the server across completed requests.
    pub embeddings: u64,
    /// Wall-clock span of the whole run (first submit to last terminal).
    pub wall: Duration,
    latencies_ns: Vec<u64>,
    /// Client latency minus server execution time, sorted, one per
    /// completed request.
    residuals_ms: Vec<f64>,
}

impl LoadgenReport {
    /// Completed requests per wall-clock second.
    #[must_use]
    pub fn qps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / secs
    }

    /// Nearest-rank latency percentile in milliseconds (`p` in 0..=100).
    #[must_use]
    pub fn percentile_ms(&self, p: f64) -> f64 {
        nearest_rank(&self.latencies_ns, p).map_or(0.0, |&ns| ns as f64 / 1e6)
    }

    /// Nearest-rank percentile of the wire residual in milliseconds (see
    /// the module docs).
    #[must_use]
    pub fn wire_residual_ms(&self, p: f64) -> f64 {
        nearest_rank(&self.residuals_ms, p).copied().unwrap_or(0.0)
    }

    /// Slowest completed request in milliseconds.
    #[must_use]
    pub fn max_ms(&self) -> f64 {
        self.latencies_ns.last().map_or(0.0, |&ns| ns as f64 / 1e6)
    }
}

/// The nearest-rank `p`-th percentile (`p` in 0..=100) of sorted samples.
fn nearest_rank<T>(sorted: &[T], p: f64) -> Option<&T> {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len().max(1)) - 1)
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `cfg.requests` queries against the endpoint at `addr`, cycling
/// through `payloads` (pre-serialized `submit` frames, e.g. from
/// [`cfl_match::serve::submit_payload`]) in round-robin order shared
/// across all clients. Returns an error only if no client could connect;
/// per-request failures are counted in the report instead.
pub fn run(addr: &str, payloads: &[String], cfg: &LoadgenConfig) -> io::Result<LoadgenReport> {
    assert!(!payloads.is_empty(), "loadgen needs at least one payload");
    let next = AtomicUsize::new(0);
    let errors = AtomicU64::new(0);
    let mismatches = AtomicU64::new(0);
    let embeddings = AtomicU64::new(0);
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(cfg.requests));
    let residuals: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(cfg.requests));
    let connect_failures: Mutex<Vec<io::Error>> = Mutex::new(Vec::new());

    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..cfg.clients.max(1) {
            s.spawn(|| {
                let mut client = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        lock(&connect_failures).push(e);
                        return;
                    }
                };
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= cfg.requests {
                        return;
                    }
                    let payload = &payloads[i % payloads.len()];
                    let t = Instant::now();
                    match client.run_query(payload) {
                        Ok(Ok(r)) => {
                            let ns = t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                            lock(&latencies).push(ns);
                            lock(&residuals).push(ns as f64 / 1e6 - r.elapsed_ms);
                            embeddings.fetch_add(r.embeddings, Ordering::SeqCst);
                            if !cfg.count_only && r.checksum != r.received_checksum {
                                mismatches.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        Ok(Err(_server_msg)) => {
                            errors.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(_io) => {
                            // Connection is unusable; count the request
                            // and stop this client.
                            errors.fetch_add(1, Ordering::SeqCst);
                            return;
                        }
                    }
                }
            });
        }
    });
    let wall = start.elapsed();

    let failures = lock(&connect_failures);
    let mut latencies = std::mem::take(&mut *lock(&latencies));
    if latencies.is_empty() {
        if let Some(first) = failures.first() {
            return Err(io::Error::new(first.kind(), first.to_string()));
        }
    }
    latencies.sort_unstable();
    let mut residuals = std::mem::take(&mut *lock(&residuals));
    residuals.sort_unstable_by(f64::total_cmp);
    Ok(LoadgenReport {
        completed: latencies.len() as u64,
        errors: errors.into_inner() + failures.len() as u64,
        checksum_mismatches: mismatches.into_inner(),
        embeddings: embeddings.into_inner(),
        wall,
        latencies_ns: latencies,
        residuals_ms: residuals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfl_datasets::{Dataset, QueryMixSpec};
    use cfl_match::serve::submit_payload;
    use cfl_match::{Engine, EngineConfig, Server};
    use std::sync::Arc;

    #[test]
    fn self_hosted_smoke_run_is_clean() {
        let g = Dataset::SyntheticDefault.build_scaled(200);
        let mix = QueryMixSpec {
            sizes: vec![4, 5],
            per_class: 2,
            seed: 11,
        };
        let queries = mix.generate(&g);
        assert!(!queries.is_empty());
        let payloads: Vec<String> = queries
            .iter()
            .map(|q| submit_payload("default", q, Some(2_000), None, false))
            .collect();

        let engine = Engine::new(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
        engine.add_graph("default", g);
        let server = Server::start(Arc::new(engine), "127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();

        let cfg = LoadgenConfig {
            clients: 2,
            requests: 12,
            count_only: false,
        };
        let report = run(&addr, &payloads, &cfg).unwrap();
        assert_eq!(report.completed, 12);
        assert_eq!(report.errors, 0);
        assert_eq!(report.checksum_mismatches, 0);
        assert!(report.qps() > 0.0);
        assert!(report.percentile_ms(50.0) <= report.percentile_ms(99.0));
        assert!(report.percentile_ms(99.0) <= report.max_ms());
        let (r50, r99) = (report.wire_residual_ms(50.0), report.wire_residual_ms(99.0));
        assert!(r50 <= r99 && r99 <= report.max_ms(), "{r50} {r99}");
        server.shutdown();
    }
}
