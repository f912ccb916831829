//! Host-speed probe for the one-shot workloads.
//!
//! The machine's cores are shared with other tenants. Their load comes
//! and goes over seconds to minutes, and while it lasts the one-shot
//! workloads (CPU-bound, working set in cache) run up to twice as slowly,
//! so two sets of runs of the same code made minutes apart can differ by
//! more than any useful bound. The probe measures that speed with a fixed
//! kernel of the benchmark's own code: short chunks run between queries
//! all through the measured region, their time excluded from it, and
//! each query is scaled by the chunks run around it. The kernel advances
//! eight independent xorshift streams with a data-dependent branch each:
//! of the kernels tried, its pace followed the queries' pace run against
//! run with log-log slopes closest to 1 (see `perfbench/README.md`).
//! The probe never calls the library, so a change to the program does
//! not move it.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Workload time between two chunks (about 1.5% of it goes to the probe).
const EVERY: Duration = Duration::from_millis(20);
/// Chunks on each side of a query that give its local speed (about half a
/// second of workload; the host's slow stretches last seconds).
const WINDOW: usize = 25;
/// Mean chunk time, in ms, at the reference speed, to which the one-shot
/// end-to-end figures are scaled: about the median chunk time on the
/// 2-vCPU Xeon VM the benchmark was written on, so that scaled figures
/// read close to measured ones there.
pub const REFERENCE_CHUNK_MS: f64 = 0.3;
/// Independent streams, and steps of each per chunk.
const STREAMS: usize = 8;
const STEPS: usize = 20_000;

pub struct SpeedProbe {
    last: Instant,
    /// Time of every chunk run so far, in ms.
    chunk_ms: Vec<f64>,
}

impl SpeedProbe {
    pub fn new() -> Self {
        SpeedProbe {
            last: Instant::now(),
            chunk_ms: Vec::new(),
        }
    }

    fn chunk() -> u64 {
        let mut streams: [u64; STREAMS] = black_box(std::array::from_fn(|k| 7 + k as u64));
        let mut acc = 0u64;
        for _ in 0..STEPS {
            for s in &mut streams {
                *s ^= *s << 13;
                *s ^= *s >> 7;
                *s ^= *s << 17;
                if *s & 3 == 1 {
                    acc = acc.wrapping_add(*s);
                } else {
                    acc ^= *s >> 3;
                }
            }
        }
        acc
    }

    /// Runs one chunk if `EVERY` has passed since the last one ended, and
    /// returns the time it took, for the caller to leave out of its
    /// measured region.
    pub fn tick(&mut self) -> Duration {
        if self.last.elapsed() < EVERY {
            return Duration::ZERO;
        }
        let t = Instant::now();
        black_box(Self::chunk());
        let took = t.elapsed();
        self.chunk_ms.push(took.as_secs_f64() * 1e3);
        self.last = Instant::now();
        took
    }

    /// Chunks run so far: where in the probe's record a query ran.
    pub fn mark(&self) -> usize {
        self.chunk_ms.len()
    }

    /// The probe's record, to scale the figures measured beside it. With
    /// no chunk run yet, one runs now.
    pub fn finish(mut self) -> Speed {
        if self.chunk_ms.is_empty() {
            self.last = Instant::now() - EVERY;
            self.tick();
        }
        let mut prefix = vec![0.0];
        for ms in &self.chunk_ms {
            prefix.push(prefix.last().copied().unwrap_or(0.0) + ms);
        }
        Speed { prefix }
    }
}

/// How much slower than the reference speed the host ran, over a run and
/// around each point of it.
pub struct Speed {
    /// `prefix[k]` = total time of the first `k` chunks, in ms.
    prefix: Vec<f64>,
}

impl Speed {
    fn over(&self, lo: usize, hi: usize) -> f64 {
        (self.prefix[hi] - self.prefix[lo]) / (hi - lo) as f64 / REFERENCE_CHUNK_MS
    }

    pub fn chunks(&self) -> usize {
        self.prefix.len() - 1
    }

    /// Mean chunk time over [`REFERENCE_CHUNK_MS`], whole run.
    pub fn mean(&self) -> f64 {
        self.over(0, self.chunks())
    }

    /// The same over the `2 * WINDOW` chunks around `mark`.
    pub fn at(&self, mark: usize) -> f64 {
        let n = self.chunks();
        let hi = (mark + WINDOW).min(n).max(n.min(2 * WINDOW));
        let lo = hi.saturating_sub(2 * WINDOW);
        self.over(lo, hi)
    }
}
