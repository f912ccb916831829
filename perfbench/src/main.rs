//! Layered benchmark for one-shot CFL-Match queries and `cfl serve`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --selftest
//! perfbench --workload NAME --seed N --record
//! ```
//!
//! Workloads: `oneshot_build`, `oneshot_enum`, `serve_mix` (see
//! `perfbench/README.md`). Every input derives from `--seed`. The last
//! stdout line is one JSON object: with `--trace 0` it carries the
//! end-to-end metrics, with `--trace 1` the per-layer ones. The exit code
//! is 0 only if every answer checked out and every metric was resolved:
//! 1 means a wrong answer or error, 2 a usage error, 3 a metric left
//! unresolved (a p99 short of its sample floor at the hard stop).

mod inputs;
mod oneshot;
mod report;
mod serve;
mod spans;
mod speed;
mod stats;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use cfl_match::serve::json::Json;

use report::{Expected, Outcome, END_TO_END, GATED, PER_LAYER};

pub const WORKLOADS: [&str; 3] = ["oneshot_build", "oneshot_enum", "serve_mix"];
/// Recorded folds and embedding counts for the default and held-out seeds.
const EXPECTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");
/// Where traced runs write their spans, relative to the working directory.
const SPAN_DIR: &str = ".perfbench_out";
/// Ends a measured region that has not yet met its sample floor, well
/// inside the 180 s a run may take.
pub const HARD_STOP: Duration = Duration::from_secs(140);

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Reduced inputs and no sample floor (self-test only).
    pub quick: bool,
}

/// Maps `f` over `items` on two threads, keeping input order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut parts: Vec<(usize, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(item) = items.get(i) else {
                            return mine;
                        };
                        mine.push((i, f(item)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    parts.sort_by_key(|p| p.0);
    parts.into_iter().map(|p| p.1).collect()
}

pub fn write_spans(rec: &spans::Recorder, opts: &Opts, out: &mut Outcome) {
    let path =
        PathBuf::from(SPAN_DIR).join(format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed));
    match rec.write_jsonl(&path) {
        Ok(()) => out
            .notes
            .push(format!("{} spans written to {}", rec.len(), path.display())),
        Err(e) => out.notes.push(format!("spans not written: {e}")),
    }
}

fn run_workload(opts: &Opts) -> Outcome {
    let mut out = match opts.workload.as_str() {
        "oneshot_build" => oneshot::run(&oneshot::BUILD, opts),
        "oneshot_enum" => oneshot::run(&oneshot::ENUM, opts),
        _ => serve::run(opts),
    };
    // In a traced run, layers off this workload's request path read 0.
    for d in PER_LAYER.iter().filter(|_| opts.trace) {
        if out.get(d.name).is_none() {
            out.set(d.name, 0.0, "(not on this workload's path)");
        }
    }
    out
}

struct Args {
    opts: Opts,
    selftest: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        opts: Opts {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            quick: false,
        },
        selftest: false,
        record: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.opts.workload = value()?.clone(),
            "--seed" => args.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--selftest" => args.selftest = true,
            "--record" => args.record = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.selftest && !WORKLOADS.contains(&args.opts.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.opts.seconds > 0.0 && args.opts.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(args)
}

fn main() {
    let code = match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn real_main() -> Result<i32, String> {
    let args = parse_args()?;
    if args.selftest {
        return selftest();
    }
    let expected_text =
        std::fs::read_to_string(EXPECTED).map_err(|e| format!("{EXPECTED}: {e}"))?;
    let opts = &args.opts;
    let mut out = run_workload(opts);
    if args.record {
        println!(
            "seeds.\"{}\".{} = {}",
            opts.seed,
            opts.workload,
            report::expected_entry(&out)
        );
    } else if let Some(expected) = report::load_expected(
        &expected_text,
        gate_seed(opts, &expected_text)?,
        &opts.workload,
    )? {
        report::gate(&mut out, &expected);
        out.notes
            .push("fold and embedding count gated against expected.json".to_string());
    } else {
        out.notes.push(
            "no recorded values for this seed: fold and counters printed, not gated".to_string(),
        );
    }
    println!(
        "{}",
        report::render(&opts.workload, opts.seed, opts.trace, &out)
    );
    Ok(if out.failed > 0 {
        1
    } else if !out.unresolved.is_empty() {
        3
    } else {
        0
    })
}

/// The `expected.json` entry a run is gated against. One-shot inputs do
/// not depend on the seed (it only orders the queries), so every seed is
/// gated against the default seed's entry; `serve_mix` draws its mix from
/// the seed, so only recorded seeds are gated.
fn gate_seed(opts: &Opts, expected: &str) -> Result<u64, String> {
    if opts.workload == "serve_mix" {
        return Ok(opts.seed);
    }
    let doc = Json::parse(expected).map_err(|e| format!("expected values: {e}"))?;
    doc.get("default_seed")
        .and_then(Json::as_u64)
        .ok_or_else(|| "expected values: no default_seed".to_string())
}

/// Quick mode: every workload on reduced inputs, traced and untraced.
/// Checks that each metric of `BENCHMARK.json` is printed with its unit
/// and a value, that the quick answers are correct, and that a corrupted
/// expected fold trips the gate.
fn selftest() -> Result<i32, String> {
    let bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&bench).map_err(|e| format!("{}: {e}", bench.display()))?;
    let doc = Json::parse(&text).map_err(|e| e.to_string())?;
    let mut problems = Vec::new();
    for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared: Vec<(String, String)> = doc
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect();
        let ours: Vec<(String, String)> = list
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect();
        if declared != ours {
            problems.push(format!(
                "BENCHMARK.json {key} differs from the metric registry"
            ));
        }
    }
    for workload in WORKLOADS {
        for trace in [false, true] {
            let opts = Opts {
                workload: workload.to_string(),
                seed: 1,
                seconds: 1.0,
                trace,
                quick: true,
            };
            let out = run_workload(&opts);
            let printed = report::render(workload, 1, trace, &out);
            let json = printed.lines().last().and_then(|l| Json::parse(l).ok());
            let list = if trace { PER_LAYER } else { END_TO_END };
            for d in list {
                let m = json
                    .as_ref()
                    .and_then(|j| j.get("metrics"))
                    .and_then(|m| m.get(d.name));
                let unit = m.and_then(|m| m.get("unit")).and_then(Json::as_str);
                let has_value = matches!(m.and_then(|m| m.get("value")), Some(Json::Num(_)));
                if unit != Some(d.unit) || !has_value {
                    problems.push(format!(
                        "{workload} trace={trace}: {} not printed with unit {}",
                        d.name, d.unit
                    ));
                }
            }
            if out.failed > 0 {
                problems.push(format!(
                    "{workload} trace={trace}: quick run failed: {:?}",
                    out.problems
                ));
            }
            let recorded = Expected {
                fold: Some(out.fold),
                counters: GATED
                    .iter()
                    .filter_map(|&n| out.get(n).map(|v| (n.to_string(), v)))
                    .collect(),
            };
            let replay = |expected: &Expected| {
                let mut copy = Outcome {
                    fold: out.fold,
                    values: out.values.clone(),
                    ..Outcome::default()
                };
                report::gate(&mut copy, expected);
                copy.failed
            };
            if replay(&recorded) != 0 {
                problems.push(format!("{workload}: gate rejects the run's own values"));
            }
            let corrupted = Expected {
                fold: recorded.fold.map(|f| f ^ 1),
                counters: recorded.counters.clone(),
            };
            if replay(&corrupted) == 0 {
                problems.push(format!(
                    "{workload}: a corrupted expected fold passed the gate"
                ));
            }
            println!(
                "selftest {workload} trace={}: {} metrics checked",
                u8::from(trace),
                list.len()
            );
        }
    }
    for p in &problems {
        println!("SELFTEST FAILED: {p}");
    }
    println!(
        "selftest {}",
        if problems.is_empty() { "ok" } else { "failed" }
    );
    Ok(i32::from(!problems.is_empty()))
}
