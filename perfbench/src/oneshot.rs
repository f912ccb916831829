//! One-shot workloads: sequential `count_embeddings` calls with the
//! paper's 10^5 cap, the way `cfl match` runs a query.

use std::time::{Duration, Instant};

use cfl_baselines::{Matcher, Vf2};
use cfl_datasets::Dataset;
use cfl_graph::{two_core, Graph, VertexId};
use cfl_match::{
    compute_order, count_embeddings, find_embeddings, prepare, select_root_with_candidates, Budget,
    CflDecomposition, Cpi, DecompositionMode, EmbeddingChecksum, FilterContext, GraphStats,
    MatchConfig, MatchReport,
};

use crate::inputs::{build_graph, query_sets, shuffled};
use crate::report::Outcome;
use crate::spans::{Recorder, Stage, StageTable};
use crate::speed::SpeedProbe;
use crate::stats::{mean, peak_rss_mb, Fold, Samples};
use crate::{par_map, Opts, HARD_STOP};

/// The inputs of one one-shot workload.
pub struct Plan {
    /// Data graphs with the Table 3 query sizes drawn against each.
    pub datasets: &'static [(Dataset, &'static [usize])],
    /// Query size whose sets are cross-checked against VF2.
    pub vf2_size: usize,
    /// Embedding cap of that cross-check (both matchers).
    pub vf2_cap: u64,
}

/// CPI build plus ordering dominate a median query.
pub const BUILD: Plan = Plan {
    datasets: &[(Dataset::Hprd, &[25, 50]), (Dataset::Yeast, &[25, 50])],
    vf2_size: 25,
    vf2_cap: 100_000,
};

/// Enumeration dominates. VF2 needs seconds per q25 query on Human even
/// at a 1,000 cap, so its cross-check uses the q10 sets.
pub const ENUM: Plan = Plan {
    datasets: &[(Dataset::Human, &[10, 15, 20, 25])],
    vf2_size: 10,
    vf2_cap: 1_000,
};

const SETUP_REPS: usize = 11;
const QUERIES_PER_SET: usize = 100;
/// The replayed build stages, in pipeline order.
pub const REPLAY_STAGES: [&str; 5] = [
    "filters.context",
    "root.select",
    "decompose",
    "cpi.build",
    "order",
];

struct Item {
    graph: usize,
    set: usize,
    size: usize,
    query: Graph,
}

/// What the untimed correctness pass learns about one query.
struct Check {
    count: u64,
    digest: u64,
    cpi_checksum: u64,
    vf2: Option<(u64, u64)>,
}

/// Work counters of one pass over the query list; equal for every pass.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct Counters {
    search_nodes: u64,
    nt_checks: u64,
    embeddings: u64,
    cpi_candidates: u64,
    cpi_edges: u64,
    cpi_bytes: u64,
}

impl Counters {
    fn add(&mut self, r: &MatchReport) {
        self.search_nodes += r.stats.search_nodes;
        self.nt_checks += r.stats.nt_checks;
        self.embeddings += r.embeddings;
        self.cpi_candidates += r.stats.cpi_candidates;
        self.cpi_edges += r.stats.cpi_edges;
        self.cpi_bytes += r.stats.cpi_bytes;
    }
}

fn check_item(item: &Item, g: &Graph, cfg: &MatchConfig, plan: &Plan) -> Result<Check, String> {
    let mut digest = EmbeddingChecksum::new();
    let found = find_embeddings(&item.query, g, cfg, |m| {
        digest.update(m);
        true
    })
    .map_err(|e| e.to_string())?;
    let prepared = prepare(&item.query, g, cfg).map_err(|e| e.to_string())?;
    let again = prepare(&item.query, g, cfg).map_err(|e| e.to_string())?;
    if again.cpi.checksum() != prepared.cpi.checksum() {
        return Err("a second prepare() built a different CPI".to_string());
    }
    let vf2 = if item.size == plan.vf2_size {
        let capped = cfg.clone().with_budget(Budget::first(plan.vf2_cap));
        let cfl = count_embeddings(&item.query, g, &capped).map_err(|e| e.to_string())?;
        let oracle = Vf2
            .count(&item.query, g, Budget::first(plan.vf2_cap))
            .map_err(|e| e.to_string())?;
        Some((cfl.embeddings, oracle.embeddings))
    } else {
        None
    };
    Ok(Check {
        count: found.embeddings,
        digest: digest.digest(),
        cpi_checksum: prepared.cpi.checksum(),
        vf2,
    })
}

/// The root-selection pool `prepare` uses: the 2-core when it is
/// nonempty, every vertex otherwise.
fn root_pool(q: &Graph, mode: DecompositionMode) -> Vec<VertexId> {
    let core = two_core(q);
    let all = (0..q.num_vertices() as VertexId).collect::<Vec<_>>();
    if mode != DecompositionMode::None && core.iter().any(|&b| b) {
        all.into_iter().filter(|&v| core[v as usize]).collect()
    } else {
        all
    }
}

/// Runs the preparation layers one public call at a time, one span each;
/// returns the CPI checksum and each layer's time in ms.
pub fn replay(
    rec: &mut Recorder,
    parent: usize,
    qid: u64,
    q: &Graph,
    g: &Graph,
    g_stats: &GraphStats,
    cfg: &MatchConfig,
) -> (u64, [f64; 5]) {
    let t0 = Instant::now();
    let q_stats = GraphStats::build(q);
    let ctx = FilterContext::with_options(q, g, &q_stats, g_stats, cfg.filters);
    let t1 = Instant::now();
    let (root, cands) = select_root_with_candidates(&ctx, &root_pool(q, cfg.decomposition));
    let t2 = Instant::now();
    let decomposition = CflDecomposition::compute(q, root, cfg.decomposition);
    let t3 = Instant::now();
    let cpi = Cpi::build_seeded(&ctx, root, cands, cfg.cpi, cfg.build_threads);
    let t4 = Instant::now();
    if !cpi.has_empty_candidate_set() {
        drop(compute_order(q, &cpi, &decomposition));
    }
    let t5 = Instant::now();
    let mut ms = [0.0; 5];
    for ((name, (a, b)), slot) in REPLAY_STAGES
        .iter()
        .zip([(t0, t1), (t1, t2), (t2, t3), (t3, t4), (t4, t5)])
        .zip(&mut ms)
    {
        rec.record(name, a, b, Some(parent), qid);
        *slot = (b - a).as_secs_f64() * 1e3;
    }
    (cpi.checksum(), ms)
}

/// One timed set-up of a workload's inputs.
struct SetUp {
    graphs: Vec<Graph>,
    items: Vec<Item>,
    set_names: Vec<String>,
    /// Seconds for the whole set-up, then ms for generation and for the
    /// stat tables.
    times: (f64, f64, f64),
}

fn set_up(plan: &Plan, per_set: usize) -> SetUp {
    let t = Instant::now();
    let built: Vec<_> = plan
        .datasets
        .iter()
        .map(|&(d, _)| build_graph(d, 1))
        .collect();
    let generate_ms = built.iter().map(|b| b.generate_ms).sum::<f64>();
    let stat_tables_ms = built.iter().map(|b| b.stat_tables_ms).sum::<f64>();
    let graphs: Vec<Graph> = built.into_iter().map(|b| b.graph).collect();
    let (mut items, mut set_names) = (Vec::new(), Vec::new());
    for (gi, &(d, sizes)) in plan.datasets.iter().enumerate() {
        for spec in query_sets(d, sizes, per_set) {
            let set = set_names.len();
            set_names.push(format!("{}/{}", d.name(), spec.name()));
            for query in spec.generate(&graphs[gi]) {
                items.push(Item {
                    graph: gi,
                    set,
                    size: spec.size,
                    query,
                });
            }
        }
    }
    SetUp {
        graphs,
        items,
        set_names,
        times: (t.elapsed().as_secs_f64(), generate_ms, stat_tables_ms),
    }
}

pub fn run(plan: &Plan, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let per_set = if opts.quick { 4 } else { QUERIES_PER_SET };
    let reps = if opts.quick { 1 } else { SETUP_REPS };

    // Set-up: generate every data graph, build its stat tables and draw
    // the query sets. The first set-up supplies the inputs; the others are
    // spread over the measured region, their time excluded from it, so
    // that the median `setup_s` sees the machine the queries see.
    let first = set_up(plan, per_set);
    let mut times = vec![first.times];
    let SetUp {
        graphs,
        items,
        set_names,
        ..
    } = first;

    out.notes.push(format!(
        "{} queries in {} sets; graphs {}",
        items.len(),
        set_names.len(),
        graphs
            .iter()
            .map(|g| format!("{}v/{}e", g.num_vertices(), g.num_edges()))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    // Untimed correctness pass (two threads): digests, CPI checksums and
    // the VF2 cross-check.
    let cfg = MatchConfig::default();
    let checks = par_map(&items, |it| check_item(it, &graphs[it.graph], &cfg, plan));
    let mut fold = Fold::default();
    let mut cpi_fold = Fold::default();
    let (mut errors, mut vf2_checked, mut vf2_mismatch) = (0u64, 0u64, 0u64);
    for (i, c) in checks.iter().enumerate() {
        match c {
            Ok(c) => {
                fold.push(i as u64);
                fold.push(c.count);
                fold.push(c.digest);
                cpi_fold.push(c.cpi_checksum);
                if let Some((cfl, vf2)) = c.vf2 {
                    vf2_checked += 1;
                    vf2_mismatch += u64::from(cfl != vf2);
                }
            }
            Err(e) => {
                errors += 1;
                out.problems.push(format!("query {i}: {e}"));
            }
        }
    }
    out.fold = fold.value();
    out.check(errors, "queries failed in the correctness pass");
    out.check(vf2_mismatch, "CFL counts differ from VF2");
    out.notes.push(format!(
        "VF2 cross-check: {vf2_checked} q{} queries at cap {}, {vf2_mismatch} mismatches",
        plan.vf2_size, plan.vf2_cap
    ));
    out.set(
        "cpi.checksum",
        cpi_fold.as_json_exact(),
        "(fold over queries)",
    );

    // Measured region: passes over the query list until time is up and
    // the p99 sample floor is met, or the hard stop. The first two passes
    // always complete, so their work counters are whole and compared.
    // The seed fixes the order in which the queries run.
    let order = shuffled(items.len(), opts.seed);
    let g_stats: Vec<GraphStats> = graphs.iter().map(GraphStats::build).collect();
    let mut rec = opts.trace.then(Recorder::new);
    let mut lat = Vec::new();
    let mut traced_lat = Vec::new();
    let mut by_set = vec![Vec::new(); set_names.len()];
    let mut enum_ms = Vec::new();
    let mut stage_samples: [Vec<f64>; 5] = Default::default();
    let (mut first, mut count_mismatch, mut replay_mismatch, mut drift) = (None, 0, 0, 0);
    let (mut call_errors, mut passes) = (0u64, 0u64);
    let seconds = Duration::from_secs_f64(opts.seconds);
    let floor = if opts.quick {
        0
    } else {
        Samples::floor_for(0.99)
    };
    let mut probe = SpeedProbe::new();
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let mut pass_s = Vec::new();
    // Where in the probe's record each sample and each set-up fell.
    let mut lat_marks = Vec::new();
    let mut setup_marks = vec![0];
    'passes: for pass in 0u64.. {
        let pass_start = Instant::now();
        let mut pass_probe = Duration::ZERO;
        let mut counters = Counters::default();
        for &i in &order {
            let it = &items[i];
            if pass >= 2 && start.elapsed() - paused >= seconds && lat.len() >= floor {
                break 'passes;
            }
            if pass >= 1 && start.elapsed() >= HARD_STOP {
                break 'passes;
            }
            let g = &graphs[it.graph];
            let t = Instant::now();
            let result = count_embeddings(&it.query, g, &cfg);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let Ok(r) = result else {
                call_errors += 1;
                continue;
            };
            lat.push(ms);
            lat_marks.push(probe.mark());
            by_set[it.set].push(ms);
            counters.add(&r);
            if pass == 0 && checks[i].as_ref().is_ok_and(|c| c.count != r.embeddings) {
                count_mismatch += 1;
            }
            if let Some(rec) = rec.as_mut() {
                let qid = pass * items.len() as u64 + i as u64;
                let root = rec.open("query", None, qid);
                let (cpi, ms) = replay(rec, root, qid, &it.query, g, &g_stats[it.graph], &cfg);
                for (samples, v) in stage_samples.iter_mut().zip(ms) {
                    samples.push(v);
                }
                if checks[i].as_ref().is_ok_and(|c| c.cpi_checksum != cpi) {
                    replay_mismatch += 1;
                }
                let t = Instant::now();
                if let Ok(r) = count_embeddings(&it.query, g, &cfg) {
                    let end = Instant::now();
                    let call = rec.record("count_embeddings", t, end, Some(root), qid);
                    rec.record_reported("exec.enumerate", end, r.stats.enumeration_time, call, qid);
                    traced_lat.push((end - t).as_secs_f64() * 1e3);
                    enum_ms.push(r.stats.enumeration_time.as_secs_f64() * 1e3);
                }
                rec.close(root);
            }
            let took = probe.tick();
            paused += took;
            pass_probe += took;
        }
        passes += 1;
        pass_s.push((pass_start.elapsed() - pass_probe).as_secs_f64());
        match first {
            None => first = Some(counters),
            Some(f) if f != counters => drift += 1,
            Some(_) => {}
        }
        // Set-up k of `reps` falls after k/reps of the measured region.
        while times.len() < reps
            && start.elapsed() - paused >= seconds.mul_f64(times.len() as f64 / reps as f64)
        {
            let t = Instant::now();
            times.push(set_up(plan, per_set).times);
            setup_marks.push(probe.mark());
            paused += t.elapsed();
        }
    }
    let wall = (start.elapsed() - paused).as_secs_f64();
    while times.len() < reps {
        times.push(set_up(plan, per_set).times);
        setup_marks.push(probe.mark());
    }
    // The end-to-end figures are scaled to the probe's reference speed,
    // each by the speed measured around it; the per-layer figures and the
    // notes keep the measured times.
    let speed = probe.finish();
    let column = |f: fn(&(f64, f64, f64)) -> f64| times.iter().map(f).collect::<Vec<f64>>();
    let setup_s = column(|t| t.0);
    let scaled_setup: Vec<f64> = setup_s
        .iter()
        .zip(&setup_marks)
        .map(|(s, &m)| s / speed.at(m))
        .collect();
    out.set_setup(&scaled_setup, &column(|t| t.1), &column(|t| t.2));
    let pass_times = Samples::new(pass_s);
    out.notes.push(format!(
        "{passes} full passes; pass time min/median/max {:.3}/{:.3}/{:.3} s",
        pass_times.quantile(0.0).unwrap_or(0.0),
        pass_times.quantile(0.5).unwrap_or(0.0),
        pass_times.quantile(1.0).unwrap_or(0.0)
    ));
    out.attempted = lat.len() as u64 + call_errors;
    out.check(call_errors, "count_embeddings calls failed");
    out.check(
        count_mismatch,
        "count_embeddings counts differ from find_embeddings",
    );
    out.check(
        replay_mismatch,
        "replayed CPI checksums differ from prepare()",
    );
    out.check(drift, "passes changed the exact work counters");

    let scaled: Vec<f64> = lat
        .iter()
        .zip(&lat_marks)
        .map(|(ms, &m)| ms / speed.at(m))
        .collect();
    let scaled_wall =
        wall * scaled.iter().sum::<f64>() / lat.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    let samples = Samples::new(lat);
    out.set_latencies(
        &Samples::new(scaled),
        scaled_wall,
        opts.quick,
        &format!("{passes} passes, at reference speed"),
    );
    out.notes.push(format!(
        "host slowdown {:.4} (mean of {} probe chunks over the reference {} ms); \
         unscaled: qps {:.2}, p50 {:.4} ms, p99 {:.4} ms, setup_s {:.4} s",
        speed.mean(),
        speed.chunks(),
        crate::speed::REFERENCE_CHUNK_MS,
        samples.len() as f64 / wall,
        samples.quantile(0.5).unwrap_or(0.0),
        samples.quantile(0.99).unwrap_or(0.0),
        crate::stats::median(&setup_s),
    ));
    out.set("peak_rss_mb", peak_rss_mb(), "(VmHWM)");
    for (name, s) in set_names.iter().zip(by_set) {
        let s = Samples::new(s);
        out.notes.push(format!(
            "{name:<12} n={:<6} p50 {:.4} ms  mean {:.4} ms",
            s.len(),
            s.quantile(0.5).unwrap_or(0.0),
            s.mean()
        ));
    }

    let c = first.unwrap_or_default();
    out.set("cpi.candidates", c.cpi_candidates as f64, "(one pass)");
    out.set("cpi.edges", c.cpi_edges as f64, "(one pass)");
    out.set("cpi.bytes", c.cpi_bytes as f64, "(one pass)");
    out.set("exec.search_nodes", c.search_nodes as f64, "(one pass)");
    out.set("exec.nt_checks", c.nt_checks as f64, "(one pass)");
    out.set("exec.embeddings", c.embeddings as f64, "(one pass)");
    out.set(
        "exec.embeddings_per_node",
        c.embeddings as f64 / c.search_nodes.max(1) as f64,
        "(one pass)",
    );

    if let Some(rec) = rec {
        let calls = format!("(mean of {} calls)", traced_lat.len());
        let metric = [
            "filters.context_us",
            "root.select_us",
            "decompose.us",
            "cpi.build_us",
            "order.us",
        ];
        let mut stages = Vec::new();
        for ((&stage, name), samples) in REPLAY_STAGES.iter().zip(metric).zip(&stage_samples) {
            out.set(name, mean(samples) * 1e3, calls.clone());
            stages.push(Stage::of(stage, samples));
        }
        out.set(
            "exec.enumerate_us",
            mean(&enum_ms) * 1e3,
            "(MatchStats::enumeration_time)",
        );
        stages.push(Stage::of("exec.enumerate", &enum_ms));
        let traced_p50 = Samples::new(traced_lat.clone())
            .quantile(0.5)
            .unwrap_or(0.0);
        let table = StageTable {
            e2e_ms: mean(&traced_lat),
            stages,
            overhead_ms: traced_p50 - samples.quantile(0.5).unwrap_or(0.0),
            note: "count_embeddings wall minus the replayed layers and its own enumeration time",
        };
        out.set(
            "trace.e2e_ms",
            table.e2e_ms,
            format!("(n={})", traced_lat.len()),
        );
        out.set("trace.residual_ms", table.residual_ms(), "");
        out.set("trace.overhead_ms", table.overhead_ms, "");
        out.stages = Some(table);
        crate::write_spans(&rec, opts, &mut out);
    }
    out
}
