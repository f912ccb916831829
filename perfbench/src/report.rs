//! Metric registry, run outcome, correctness gate and output.

use std::fmt::Write as _;

use cfl_match::serve::json::Json;

use crate::stats::{median, Samples};

/// A metric as declared in `BENCHMARK.json`.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// Printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s"),
    def("qps", "1/s"),
    def("latency_p50_ms", "ms"),
    def("latency_p99_ms", "ms"),
    def("peak_rss_mb", "MB"),
];

/// Printed by traced runs (`--trace 1`). Every workload prints every
/// metric; a layer that is not on a workload's request path reads 0.
pub const PER_LAYER: &[Def] = &[
    def("graph.generate_ms", "ms"),
    def("graph.stat_tables_ms", "ms"),
    def("filters.context_us", "us"),
    def("root.select_us", "us"),
    def("decompose.us", "us"),
    def("order.us", "us"),
    def("cpi.build_us", "us"),
    def("cpi.candidates", "count"),
    def("cpi.edges", "count"),
    def("cpi.bytes", "B"),
    def("cpi.checksum", "hash"),
    def("exec.enumerate_us", "us"),
    def("exec.search_nodes", "count"),
    def("exec.nt_checks", "count"),
    def("exec.embeddings", "count"),
    def("exec.embeddings_per_node", "ratio"),
    def("engine.exec_ms", "ms"),
    def("engine.queue_wait_ms", "ms"),
    def("engine.rejected", "count"),
    def("engine.batches", "count"),
    def("proto.encode_us", "us"),
    def("json.parse_us", "us"),
    def("proto.bytes_per_embedding", "B"),
    def("wire.residual_ms", "ms"),
    def("write_p50_ms", "ms"),
    def("cache.hit_ratio", "ratio"),
    def("cache.hit_us", "us"),
    def("refresh.apply_ms", "ms"),
    def("refresh.plans_refreshed", "count"),
    def("trace.e2e_ms", "ms"),
    def("trace.residual_ms", "ms"),
    def("trace.overhead_ms", "ms"),
];

/// The exact work counters (`cpi.*`, `exec.search_nodes`, `exec.nt_checks`,
/// `proto.bytes_per_embedding`) must repeat bit for bit between passes of
/// one run, but a correct change that does less work moves them. Only
/// these counters, fixed by the answers alone (capped embedding counts),
/// are gated with the fold against `expected.json`.
pub const GATED: &[&str] = &["exec.embeddings"];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map_or("?", |d| d.unit)
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations issued in the measured region (queries and writes).
    pub attempted: u64,
    /// Errors, rejections and every correctness mismatch.
    pub failed: u64,
    /// One line per failure kind, for the report.
    pub problems: Vec<String>,
    /// Metrics the run could not resolve (a p99 short of its sample floor
    /// at the hard stop). They print as `null`; they are not failures,
    /// since the answers may all be right, but the exit code is nonzero.
    pub unresolved: Vec<String>,
    /// `(name, value, sample note)` for every metric the run measured.
    pub values: Vec<(&'static str, f64, String)>,
    /// Correctness fold over every (count, digest) pair of the workload.
    pub fold: u64,
    pub stages: Option<crate::spans::StageTable>,
    /// Extra report lines (per-set breakdowns, span file location).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        debug_assert!(unit_of(name) != "?", "undeclared metric {name}");
        self.values.retain(|v| v.0 != name);
        self.values.push((name, value, note.into()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|v| v.0 == name).map(|v| v.1)
    }

    pub fn fail(&mut self, count: u64, why: impl Into<String>) {
        self.failed += count;
        self.problems.push(why.into());
    }

    /// Records the set-up medians over repeated set-ups.
    pub fn set_setup(&mut self, setup_s: &[f64], generate_ms: &[f64], stat_tables_ms: &[f64]) {
        let note = format!("(median of {} set-ups)", setup_s.len());
        let each: Vec<String> = setup_s.iter().map(|s| format!("{s:.4}")).collect();
        self.notes
            .push(format!("set-up times (s): {}", each.join(" ")));
        self.set("setup_s", median(setup_s), note.clone());
        self.set("graph.generate_ms", median(generate_ms), note.clone());
        self.set("graph.stat_tables_ms", median(stat_tables_ms), note);
    }

    /// Records `qps` and the latency percentiles of one measured region.
    /// A p99 with fewer than ten samples beyond it is refused and left
    /// unresolved, except in quick mode, where it is printed and marked.
    pub fn set_latencies(&mut self, lat: &Samples, wall_s: f64, quick: bool, detail: &str) {
        let n = lat.len();
        self.set(
            "qps",
            n as f64 / wall_s,
            format!("(n={n} queries in {wall_s:.3} s, {detail})"),
        );
        self.set(
            "latency_p50_ms",
            lat.quantile(0.5).unwrap_or(0.0),
            format!("(n={n})"),
        );
        match lat.tail(0.99) {
            Ok(p99) => self.set(
                "latency_p99_ms",
                p99,
                format!("(n={n}, {} beyond)", n / 100),
            ),
            Err(e) if quick => self.set(
                "latency_p99_ms",
                lat.quantile(0.99).unwrap_or(0.0),
                format!("(quick mode, {e})"),
            ),
            Err(e) => self.unresolved.push(format!("latency_p99_ms refused: {e}")),
        }
    }

    /// Reads `count` mismatches of one kind into the failure tally.
    pub fn check(&mut self, mismatches: u64, what: &str) {
        if mismatches > 0 {
            self.fail(mismatches, format!("{mismatches} {what}"));
        }
    }
}

/// Recorded reference values for one (seed, workload).
pub struct Expected {
    pub fold: Option<u64>,
    pub counters: Vec<(String, f64)>,
}

/// Loads the entry for `seed`/`workload` from the expected-values file.
pub fn load_expected(text: &str, seed: u64, workload: &str) -> Result<Option<Expected>, String> {
    let doc = Json::parse(text).map_err(|e| format!("expected values: {e}"))?;
    let Some(entry) = doc
        .get("seeds")
        .and_then(|s| s.get(&seed.to_string()))
        .and_then(|s| s.get(workload))
    else {
        return Ok(None);
    };
    let fold = match entry.get("fold").and_then(Json::as_str) {
        Some(hex) => Some(parse_hex(hex)?),
        None => None,
    };
    let mut counters = Vec::new();
    for &name in GATED {
        if let Some(Json::Num(v)) = entry.get(name) {
            counters.push((name.to_string(), *v));
        }
    }
    Ok(Some(Expected { fold, counters }))
}

pub fn parse_hex(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s.trim_start_matches("0x"), 16).map_err(|e| format!("bad hex {s:?}: {e}"))
}

/// Compares a run's answers against the recorded values; every mismatch
/// counts as one failure.
pub fn gate(out: &mut Outcome, expected: &Expected) {
    if let Some(want) = expected.fold {
        if want != out.fold {
            out.fail(
                1,
                format!(
                    "correctness fold 0x{:016x} != recorded 0x{want:016x}",
                    out.fold
                ),
            );
        }
    }
    for (name, want) in &expected.counters {
        match out.get(name) {
            Some(got) if got.to_bits() == want.to_bits() => {}
            got => out.fail(1, format!("counter {name} = {got:?}, recorded {want}")),
        }
    }
}

/// The `seeds.<seed>.<workload>` entry to record for this run.
pub fn expected_entry(out: &Outcome) -> String {
    let mut s = format!("{{\"fold\": \"0x{:016x}\"", out.fold);
    for &name in GATED {
        if let Some(v) = out.get(name) {
            let _ = write!(s, ", \"{name}\": {v:?}");
        }
    }
    s.push('}');
    s
}

/// Human-readable lines followed by the one-line JSON result.
pub fn render(workload: &str, seed: u64, trace: bool, out: &Outcome) -> String {
    let mut s = String::new();
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let _ = writeln!(
        s,
        "perfbench {workload} seed={seed} trace={} available_parallelism={cores}",
        u8::from(trace)
    );
    for note in &out.notes {
        let _ = writeln!(s, "  {note}");
    }
    for (name, value, note) in &out.values {
        let _ = writeln!(s, "  {name:<26} {value:>16.6} {:<6} {note}", unit_of(name));
    }
    let frac = out.failed as f64 / out.attempted.max(1) as f64;
    let _ = writeln!(
        s,
        "  {:<26} {frac:>16.6} {:<6} ({} of {} attempted)",
        "failed_frac", "", out.failed, out.attempted
    );
    let _ = writeln!(s, "  correctness fold 0x{:016x}", out.fold);
    for p in &out.problems {
        let _ = writeln!(s, "  FAILED: {p}");
    }
    for u in &out.unresolved {
        let _ = writeln!(s, "  UNRESOLVED: {u}");
    }
    if let Some(st) = &out.stages {
        let _ = writeln!(s, "{}", st.render());
    }
    let list = if trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = list
        .iter()
        .map(|d| {
            let v = out.get(d.name).unwrap_or(f64::NAN);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                num(v),
                d.unit
            )
        })
        .collect();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    s
}

/// A JSON number with every digit Rust prints for round-tripping.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
