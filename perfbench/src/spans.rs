//! In-memory span recording for the traced run.
//!
//! One span per layer call: name, start, end, parent span and query id.
//! Spans are appended to a `Vec` while the run executes and written out
//! as JSON lines once it ends; untraced runs never construct a recorder.

use std::fmt::Write as _;
use std::io;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub query: u64,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished call; returns its id for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        query: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            query,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Records a stage whose duration a layer reports about itself
    /// (e.g. `MatchStats::enumeration_time`), placed at the end of the
    /// enclosing call.
    pub fn record_reported(
        &mut self,
        name: &'static str,
        call_end: Instant,
        reported: Duration,
        parent: usize,
        query: u64,
    ) {
        let end = self.ns(call_end);
        self.spans.push(Span {
            name,
            start_ns: end.saturating_sub(reported.as_nanos() as u64),
            end_ns: end,
            parent: Some(parent),
            query,
        });
    }

    /// Opens a span whose end is set later with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, query: u64) -> usize {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            query,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"query\":{}}}",
                s.name, s.start_ns, s.end_ns, s.query
            );
        }
        std::fs::write(path, text)
    }
}

/// One stage of the accounting: its mean self time per query and, where
/// per-query samples exist, their median.
pub struct Stage {
    pub name: &'static str,
    pub mean_ms: f64,
    pub p50_ms: Option<f64>,
}

impl Stage {
    pub fn of(name: &'static str, samples: &[f64]) -> Self {
        Stage {
            name,
            mean_ms: crate::stats::mean(samples),
            p50_ms: crate::stats::Samples::new(samples.to_vec()).quantile(0.5),
        }
    }

    pub fn mean(name: &'static str, mean_ms: f64) -> Self {
        Stage {
            name,
            mean_ms,
            p50_ms: None,
        }
    }
}

/// Per-request stage means of one traced workload, summed against the
/// traced end-to-end mean.
pub struct StageTable {
    pub e2e_ms: f64,
    pub stages: Vec<Stage>,
    /// Traced minus untraced `latency_p50_ms`.
    pub overhead_ms: f64,
    /// How the residual is to be read on this workload.
    pub note: &'static str,
}

impl StageTable {
    pub fn sum_ms(&self) -> f64 {
        self.stages.iter().map(|s| s.mean_ms).sum()
    }

    pub fn residual_ms(&self) -> f64 {
        self.e2e_ms - self.sum_ms()
    }

    /// The stage with the largest mean self time.
    pub fn dominant(&self) -> &'static str {
        self.stages
            .iter()
            .max_by(|a, b| a.mean_ms.total_cmp(&b.mean_ms))
            .map_or("none", |s| s.name)
    }

    /// The stage with the largest median self time, when every stage
    /// has per-query samples.
    fn dominant_at_median(&self) -> Option<&'static str> {
        let medians: Option<Vec<f64>> = self.stages.iter().map(|s| s.p50_ms).collect();
        let medians = medians?;
        let (i, _) = medians
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))?;
        Some(self.stages[i].name)
    }

    pub fn render(&self) -> String {
        let mut s =
            String::from("stage accounting (self time per query: mean, share of mean, median):\n");
        for st in &self.stages {
            let share = if self.e2e_ms > 0.0 {
                100.0 * st.mean_ms / self.e2e_ms
            } else {
                0.0
            };
            let p50 = st.p50_ms.map_or("-".to_string(), |p| format!("{p:.6} ms"));
            let _ = writeln!(
                s,
                "  {:<22} {:>12.6} ms  {share:>6.2}%  {p50:>14}",
                st.name, st.mean_ms
            );
        }
        let _ = writeln!(s, "  {:<22} {:>12.6} ms", "sum of stages", self.sum_ms());
        let _ = writeln!(s, "  {:<22} {:>12.6} ms", "traced end-to-end", self.e2e_ms);
        let _ = writeln!(
            s,
            "  {:<22} {:>12.6} ms  ({})",
            "residual",
            self.residual_ms(),
            self.note
        );
        let _ = writeln!(s, "  dominant stage: {}", self.dominant());
        if let Some(name) = self.dominant_at_median() {
            let _ = writeln!(s, "  dominant stage at the median query: {name}");
        }
        let _ = write!(
            s,
            "  tracing overhead (traced - untraced latency_p50_ms): {:.6} ms",
            self.overhead_ms
        );
        s
    }
}
