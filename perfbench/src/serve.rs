//! `serve_mix`: what a `cfl serve` client sees. A self-hosted `Engine`
//! and `Server` on loopback TCP, driven by a closed loop of two
//! connections; one of them toggles a fixed edge batch in and out.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cfl_datasets::Dataset;
use cfl_graph::{Graph, GraphDelta, Label, VertexId};
use cfl_match::serve::json::Json;
use cfl_match::serve::{proto, submit_payload, Client};
use cfl_match::{
    count_embeddings, find_embeddings, prepare, Budget, DataGraph, EmbeddingChecksum, Engine,
    EngineConfig, GraphStats, MatchConfig, QueryEvent, QuerySpec, Server,
};

use crate::inputs::{build_graph, mix, query_mix, shuffled};
use crate::oneshot::replay;
use crate::report::{parse_hex, Outcome};
use crate::spans::{Recorder, Stage, StageTable};
use crate::stats::{mean, peak_rss_mb, Fold, Samples};
use crate::{par_map, Opts, HARD_STOP};

const GRAPH: &str = "default";
/// `SyntheticDefault` divided by this (10k vertices, 40k edges).
const SCALE: usize = 10;
/// Per-query embedding cap of the mix.
const LIMIT: u64 = 10_000;
const SETUP_REPS: usize = 3;
/// Request `i` is `count_only` when `i % COUNT_ONLY_EVERY` is the last
/// residue (a 20% share that rotates over the 24 queries).
const COUNT_ONLY_EVERY: usize = 5;
/// On connection 0, every `DELTA_EVERY`-th request is an `apply-delta`.
const DELTA_EVERY: usize = 8;
/// Edges in the toggled batch.
const DELTA_EDGES: usize = 4;
/// Completed queries every timed phase must hold (p99 with 10 beyond).
const MIN_QUERIES: u64 = 1_000;
/// Repetitions of the (cheap) codec and replay probes in a traced run.
const PROBE_REPS: usize = 3;

fn is_count_only(i: usize) -> bool {
    i % COUNT_ONLY_EVERY == COUNT_ONLY_EVERY - 1
}

/// One-shot answer for one query on one graph version.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct Ref {
    found: u64,
    digest: u64,
    counted: u64,
}

struct Mix {
    queries: Vec<Graph>,
    streamed: Vec<String>,
    count_only: Vec<String>,
    insert: GraphDelta,
    delete: GraphDelta,
    insert_payload: String,
    delete_payload: String,
    /// `refs[q]` = answers on the base version and on base + batch.
    refs: Vec<[Ref; 2]>,
}

impl Mix {
    fn payload(&self, i: usize) -> &str {
        let q = i % self.queries.len();
        if is_count_only(i) {
            &self.count_only[q]
        } else {
            &self.streamed[q]
        }
    }

    /// Whether a served answer equals the one-shot answer on either
    /// graph version.
    fn matches(&self, q: usize, count_only: bool, embeddings: u64, digest: u64) -> bool {
        self.refs[q].iter().any(|r| {
            if count_only {
                r.counted == embeddings
            } else {
                r.found == embeddings && r.digest == digest
            }
        })
    }

    /// Requests of one full schedule cycle (every query in both modes).
    fn cycle(&self) -> usize {
        self.queries.len() * COUNT_ONLY_EVERY
    }
}

fn reference_config() -> MatchConfig {
    MatchConfig::exhaustive().with_budget(Budget::first(LIMIT))
}

/// `DELTA_EDGES` absent edges whose endpoints both carry query labels,
/// drawn from the run seed.
fn delta_batch(g: &Graph, queries: &[Graph], seed: u64) -> Vec<(VertexId, VertexId)> {
    let labels: BTreeSet<Label> = queries
        .iter()
        .flat_map(|q| q.labels().iter().copied())
        .collect();
    let n = g.num_vertices() as u64;
    let mut picked = BTreeSet::new();
    for k in 0u64.. {
        if picked.len() == DELTA_EDGES || k > 1_000_000 {
            break;
        }
        let r = mix(seed, 0xde17a + k);
        let (u, v) = ((r % n) as VertexId, ((r >> 32) % n) as VertexId);
        let (u, v) = (u.min(v), u.max(v));
        if u != v
            && !g.has_edge(u, v)
            && labels.contains(&g.label(u))
            && labels.contains(&g.label(v))
        {
            picked.insert((u, v));
        }
    }
    picked.into_iter().collect()
}

fn delta_payload(op: &str, edges: &[(VertexId, VertexId)]) -> String {
    let list: Vec<String> = edges.iter().map(|(u, v)| format!("[{u},{v}]")).collect();
    format!(
        "{{\"op\":\"apply-delta\",\"graph\":\"{GRAPH}\",\"{op}\":[{}]}}",
        list.join(",")
    )
}

fn build_mix(g_a: &Graph, seed: u64, quick: bool) -> Result<Mix, String> {
    let standard = query_mix(quick).generate(g_a);
    let queries: Vec<Graph> = shuffled(standard.len(), seed)
        .into_iter()
        .map(|i| standard[i].clone())
        .collect();
    if queries.is_empty() {
        return Err("query mix is empty".to_string());
    }
    let edges = delta_batch(g_a, &queries, seed);
    let (mut insert, mut delete) = (GraphDelta::new(), GraphDelta::new());
    for &(u, v) in &edges {
        insert.insert(u, v);
        delete.delete(u, v);
    }
    let g_b = insert.apply(g_a).map_err(|e| e.to_string())?.graph;
    let cfg = reference_config();
    let jobs: Vec<(usize, &Graph)> = (0..queries.len())
        .flat_map(|q| [(q, g_a), (q, &g_b)])
        .collect();
    let answers = par_map(&jobs, |&(q, g)| -> Result<Ref, String> {
        let mut digest = EmbeddingChecksum::new();
        let found = find_embeddings(&queries[q], g, &cfg, |m| {
            digest.update(m);
            true
        })
        .map_err(|e| e.to_string())?;
        let counted = count_embeddings(&queries[q], g, &cfg).map_err(|e| e.to_string())?;
        Ok(Ref {
            found: found.embeddings,
            digest: digest.digest(),
            counted: counted.embeddings,
        })
    });
    let mut refs = Vec::with_capacity(queries.len());
    for pair in answers.chunks(2) {
        refs.push([pair[0].clone()?, pair[1].clone()?]);
    }
    Ok(Mix {
        streamed: queries
            .iter()
            .map(|q| submit_payload(GRAPH, q, Some(LIMIT), None, false))
            .collect(),
        count_only: queries
            .iter()
            .map(|q| submit_payload(GRAPH, q, Some(LIMIT), None, true))
            .collect(),
        queries,
        insert,
        delete,
        insert_payload: delta_payload("insert", &edges),
        delete_payload: delta_payload("delete", &edges),
        refs,
    })
}

struct Stack {
    engine: Arc<Engine>,
    server: Server,
}

/// One timed set-up: graph, stat tables, engine, server, and a warm pass
/// that fills the plan cache. Returns (stack, generate ms, stat ms).
fn start_stack(opts: &Opts, mix: &Mix) -> Result<(Stack, f64, f64), String> {
    let built = build_graph(Dataset::SyntheticDefault, scale(opts));
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: 2,
        plan_cache: true,
        ..EngineConfig::default()
    }));
    engine.add_graph(GRAPH, built.graph);
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    for (q, payload) in mix.streamed.iter().enumerate() {
        let r = client
            .run_query(payload)
            .map_err(|e| e.to_string())?
            .map_err(|e| format!("warm pass: {e}"))?;
        if !mix.matches(q, false, r.embeddings, parse_hex(&r.checksum)?) {
            return Err(format!(
                "warm pass: query {q} differs from its one-shot answer"
            ));
        }
    }
    Ok((
        Stack { engine, server },
        built.generate_ms,
        built.stat_tables_ms,
    ))
}

fn scale(opts: &Opts) -> usize {
    if opts.quick {
        SCALE * 10
    } else {
        SCALE
    }
}

/// What one client connection observed in the TCP phase.
#[derive(Default)]
struct Conn {
    lat: Vec<f64>,
    traced: Vec<f64>,
    untraced: Vec<f64>,
    writes: Vec<f64>,
    errors: u64,
    mismatches: u64,
}

/// The closed loop: two connections, each waiting for its reply before
/// the next request, until time is up and the sample floor is met.
fn tcp_phase(
    stack: &Stack,
    mix: &Mix,
    opts: &Opts,
    inserted: &AtomicBool,
    rec: Option<&Mutex<Recorder>>,
) -> (Vec<Conn>, f64) {
    let next = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let floor = if opts.quick { 0 } else { MIN_QUERIES };
    let seconds = Duration::from_secs_f64(opts.seconds);
    let addr = stack.server.addr();
    let start = Instant::now();
    let conns = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|conn| {
                let (next, completed) = (&next, &completed);
                s.spawn(move || {
                    let mut st = Conn::default();
                    let Ok(mut client) = Client::connect(addr) else {
                        st.errors += 1;
                        return st;
                    };
                    let _ = client.set_read_timeout(Some(Duration::from_secs(60)));
                    for k in 0usize.. {
                        let elapsed = start.elapsed();
                        if (elapsed >= seconds && completed.load(Ordering::SeqCst) >= floor)
                            || elapsed >= HARD_STOP
                        {
                            break;
                        }
                        if conn == 0 && k % DELTA_EVERY == DELTA_EVERY - 1 {
                            let insert = !inserted.load(Ordering::SeqCst);
                            let payload = if insert {
                                &mix.insert_payload
                            } else {
                                &mix.delete_payload
                            };
                            let t = Instant::now();
                            match client.request(payload) {
                                Ok(r) if r.get("ok").and_then(Json::as_bool) == Some(true) => {
                                    st.writes.push(t.elapsed().as_secs_f64() * 1e3);
                                    inserted.store(insert, Ordering::SeqCst);
                                }
                                Ok(_) => st.errors += 1,
                                Err(_) => {
                                    st.errors += 1;
                                    break;
                                }
                            }
                            continue;
                        }
                        let i = next.fetch_add(1, Ordering::SeqCst) as usize;
                        let t = Instant::now();
                        let result = client.run_query(mix.payload(i));
                        let end = Instant::now();
                        let ms = (end - t).as_secs_f64() * 1e3;
                        match result {
                            Ok(Ok(r)) => {
                                st.lat.push(ms);
                                completed.fetch_add(1, Ordering::SeqCst);
                                match rec.filter(|_| i & 1 == 0) {
                                    Some(rec) => {
                                        let mut rec = rec.lock().unwrap_or_else(|p| p.into_inner());
                                        rec.record("wire.request", t, end, None, i as u64);
                                        st.traced.push(ms);
                                    }
                                    None => st.untraced.push(ms),
                                }
                                let co = is_count_only(i);
                                let digest = parse_hex(&r.checksum).unwrap_or(!0);
                                let whole = co
                                    || (r.checksum == r.received_checksum
                                        && r.received == r.embeddings);
                                if !whole
                                    || !mix.matches(i % mix.queries.len(), co, r.embeddings, digest)
                                {
                                    st.mismatches += 1;
                                }
                            }
                            Ok(Err(_rejected)) => st.errors += 1,
                            Err(_) => {
                                st.errors += 1;
                                break;
                            }
                        }
                    }
                    st
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect::<Vec<_>>()
    });
    (conns, start.elapsed().as_secs_f64())
}

/// The same request sequence submitted in-process (no socket, no codec).
#[derive(Default)]
struct InProc {
    total: Vec<f64>,
    exec: Vec<f64>,
    apply: Vec<f64>,
    refreshed: Vec<f64>,
    errors: u64,
    mismatches: u64,
}

fn inproc_phase(
    engine: &Engine,
    mix: &Mix,
    budget: Duration,
    inserted: &AtomicBool,
    rec: &Mutex<Recorder>,
) -> InProc {
    let next = AtomicU64::new(0);
    let min = mix.cycle() as u64;
    let start = Instant::now();
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|conn| {
                let next = &next;
                s.spawn(move || {
                    let mut st = InProc::default();
                    for k in 0usize.. {
                        if start.elapsed() >= budget && next.load(Ordering::SeqCst) >= min {
                            break;
                        }
                        if conn == 0 && k % DELTA_EVERY == DELTA_EVERY - 1 {
                            let insert = !inserted.load(Ordering::SeqCst);
                            let delta = if insert { &mix.insert } else { &mix.delete };
                            let t = Instant::now();
                            match engine.apply_delta(GRAPH, delta) {
                                Ok(applied) => {
                                    let end = Instant::now();
                                    st.apply.push((end - t).as_secs_f64() * 1e3);
                                    st.refreshed.push(applied.plans_refreshed as f64);
                                    let mut rec = rec.lock().unwrap_or_else(|p| p.into_inner());
                                    rec.record("refresh.apply", t, end, None, k as u64);
                                    inserted.store(insert, Ordering::SeqCst);
                                }
                                Err(_) => st.errors += 1,
                            }
                            continue;
                        }
                        let i = next.fetch_add(1, Ordering::SeqCst) as usize;
                        let q = i % mix.queries.len();
                        let co = is_count_only(i);
                        let spec = QuerySpec {
                            limit: Some(LIMIT),
                            count_only: co,
                            ..QuerySpec::new(GRAPH, mix.queries[q].clone())
                        };
                        let t = Instant::now();
                        let Ok(handle) = engine.submit(spec) else {
                            st.errors += 1;
                            continue;
                        };
                        let mut digest = EmbeddingChecksum::new();
                        loop {
                            match handle.recv() {
                                Some(QueryEvent::Batch(batch)) => {
                                    batch.iter().for_each(|e| digest.update(e))
                                }
                                Some(QueryEvent::Done(done)) => {
                                    let end = Instant::now();
                                    st.total.push((end - t).as_secs_f64() * 1e3);
                                    st.exec.push(done.elapsed.as_secs_f64() * 1e3);
                                    let mut rec = rec.lock().unwrap_or_else(|p| p.into_inner());
                                    let id = rec.record("engine.request", t, end, None, i as u64);
                                    rec.record_reported(
                                        "engine.exec",
                                        end,
                                        done.elapsed,
                                        id,
                                        i as u64,
                                    );
                                    let streamed_ok = co
                                        || (digest.digest() == done.checksum
                                            && digest.count() == done.embeddings);
                                    if !streamed_ok
                                        || !mix.matches(q, co, done.embeddings, done.checksum)
                                    {
                                        st.mismatches += 1;
                                    }
                                    break;
                                }
                                Some(QueryEvent::Failed(_)) | None => {
                                    st.errors += 1;
                                    break;
                                }
                            }
                        }
                    }
                    st
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect::<Vec<_>>()
    });
    let mut all = InProc::default();
    for p in parts {
        all.total.extend(p.total);
        all.exec.extend(p.exec);
        all.apply.extend(p.apply);
        all.refreshed.extend(p.refreshed);
        all.errors += p.errors;
        all.mismatches += p.mismatches;
    }
    all
}

/// Encodes every base-version answer stream in engine-sized batches and
/// parses it back, at least twice. Returns (bytes, embeddings, per-query
/// encode ms, per-query parse ms, round-trip mismatches); a repetition
/// that encodes a different number of bytes counts as a mismatch.
fn codec(
    mix: &Mix,
    g_a: &Graph,
    rec: Option<&mut Recorder>,
) -> (u64, u64, Vec<f64>, Vec<f64>, u64) {
    let batch = EngineConfig::default().batch_size;
    let cfg = reference_config();
    let (mut bytes, mut embeddings, mut bad) = (0u64, 0u64, 0u64);
    let reps = if rec.is_some() { PROBE_REPS } else { 2 };
    let mut rec = rec;
    let mut enc = vec![0.0; mix.queries.len()];
    let mut par = vec![0.0; mix.queries.len()];
    for (q, query) in mix.queries.iter().enumerate() {
        let mut stream: Vec<Vec<VertexId>> = Vec::new();
        if find_embeddings(query, g_a, &cfg, |m| {
            stream.push(m.to_vec());
            true
        })
        .is_err()
        {
            bad += 1;
            continue;
        }
        embeddings += stream.len() as u64;
        let mut rep_bytes = vec![0u64; reps];
        for (rep, rep_bytes) in rep_bytes.iter_mut().enumerate() {
            for chunk in stream.chunks(batch) {
                let t0 = Instant::now();
                let frame = proto::encode_batch(q as u64, chunk);
                let t1 = Instant::now();
                let parsed = Json::parse(&frame);
                let t2 = Instant::now();
                *rep_bytes += frame.len() as u64;
                if rep == 0 {
                    let rows = parsed
                        .ok()
                        .and_then(|j| j.get("batch").and_then(|b| b.as_arr().map(<[Json]>::len)));
                    bad += u64::from(rows != Some(chunk.len()));
                }
                enc[q] += (t1 - t0).as_secs_f64() * 1e3 / reps as f64;
                par[q] += (t2 - t1).as_secs_f64() * 1e3 / reps as f64;
                if let Some(rec) = rec.as_deref_mut() {
                    rec.record("proto.encode", t0, t1, None, q as u64);
                    rec.record("json.parse", t1, t2, None, q as u64);
                }
            }
        }
        bytes += rep_bytes[0];
        bad += rep_bytes.iter().filter(|&&b| b != rep_bytes[0]).count() as u64;
    }
    (bytes, embeddings, enc, par, bad)
}

/// The exact work counters of one cold pass over the mix on `g`.
fn cold_counters(mix: &Mix, g: &Graph) -> Result<Vec<(&'static str, f64)>, String> {
    let cfg = reference_config();
    let (mut cpi_fold, mut cands, mut edges, mut bytes) = (Fold::default(), 0u64, 0u64, 0u64);
    let (mut nodes, mut nt, mut embs) = (0u64, 0u64, 0u64);
    for q in &mix.queries {
        let p = prepare(q, g, &cfg).map_err(|e| e.to_string())?;
        cpi_fold.push(p.cpi.checksum());
        cands += p.cpi.total_candidates();
        edges += p.cpi.total_edges();
        bytes += p.cpi.memory_bytes();
        let r = count_embeddings(q, g, &cfg).map_err(|e| e.to_string())?;
        nodes += r.stats.search_nodes;
        nt += r.stats.nt_checks;
        embs += r.embeddings;
    }
    Ok(vec![
        ("cpi.candidates", cands as f64),
        ("cpi.edges", edges as f64),
        ("cpi.bytes", bytes as f64),
        ("cpi.checksum", cpi_fold.as_json_exact()),
        ("exec.search_nodes", nodes as f64),
        ("exec.nt_checks", nt as f64),
        ("exec.embeddings", embs as f64),
    ])
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(opts, &mut out) {
        out.fail(1, e);
    }
    out
}

fn run_inner(opts: &Opts, out: &mut Outcome) -> Result<(), String> {
    let g_a = Dataset::SyntheticDefault.build_scaled(scale(opts));
    let mix = build_mix(&g_a, opts.seed, opts.quick)?;
    let mut fold = Fold::default();
    for (q, pair) in mix.refs.iter().enumerate() {
        for (version, r) in pair.iter().enumerate() {
            for word in [q as u64, version as u64, r.found, r.digest, r.counted] {
                fold.push(word);
            }
        }
    }
    out.fold = fold.value();
    out.notes.push(format!(
        "graph {}v/{}e, {} distinct queries, limit {LIMIT}, delta batch {} edges",
        g_a.num_vertices(),
        g_a.num_edges(),
        mix.queries.len(),
        mix.insert.len()
    ));

    // Exact counters of the mix on the base version, from a cold pass; a
    // second cold pass must reproduce them bit for bit.
    let counters = cold_counters(&mix, &g_a)?;
    if cold_counters(&mix, &g_a)? != counters {
        out.fail(1, "a second cold pass changed the exact work counters");
    }
    for (name, v) in counters {
        out.set(name, v, "(cold pass over the mix, base version)");
    }
    out.set(
        "exec.embeddings_per_node",
        out.get("exec.embeddings").unwrap_or(0.0)
            / out.get("exec.search_nodes").unwrap_or(0.0).max(1.0),
        "",
    );

    let mut rec = opts.trace.then(Recorder::new);
    let (wire_bytes, wire_embs, enc, par, codec_bad) = codec(&mix, &g_a, rec.as_mut());
    out.check(
        codec_bad,
        "batch frames failed to round-trip or changed size between encodings",
    );
    out.set(
        "proto.bytes_per_embedding",
        wire_bytes as f64 / wire_embs.max(1) as f64,
        format!("({wire_bytes} B over {wire_embs} embeddings)"),
    );

    // Set-up, repeated; the last stack stays up for the measured region.
    let reps = if opts.quick { 1 } else { SETUP_REPS };
    let (mut setup_s, mut gen_ms, mut stat_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut stack = None;
    for _ in 0..reps {
        drop(stack.take());
        let t = Instant::now();
        let (s, gen, stat) = start_stack(opts, &mix)?;
        setup_s.push(t.elapsed().as_secs_f64());
        gen_ms.push(gen);
        stat_ms.push(stat);
        stack = Some(s);
    }
    let stack = stack.ok_or("no set-up ran")?;
    out.set_setup(&setup_s, &gen_ms, &stat_ms);

    let inserted = AtomicBool::new(false);
    let shared = rec.take().map(Mutex::new);
    let (conns, wall) = tcp_phase(&stack, &mix, opts, &inserted, shared.as_ref());
    let mut rec = shared.map(|m| m.into_inner().unwrap_or_else(|p| p.into_inner()));
    let merge = |f: fn(&Conn) -> &Vec<f64>| {
        conns
            .iter()
            .flat_map(|c| f(c).iter().copied())
            .collect::<Vec<f64>>()
    };
    let (lat, traced, untraced, writes) = (
        Samples::new(merge(|c| &c.lat)),
        merge(|c| &c.traced),
        merge(|c| &c.untraced),
        Samples::new(merge(|c| &c.writes)),
    );
    let errors: u64 = conns.iter().map(|c| c.errors).sum();
    let mismatches: u64 = conns.iter().map(|c| c.mismatches).sum();
    out.attempted = (lat.len() + writes.len()) as u64 + errors;
    out.check(errors, "requests errored or were rejected");
    out.check(
        mismatches,
        "served answers differ from the one-shot answers",
    );

    out.set_latencies(&lat, wall, opts.quick, "2 connections");
    out.set(
        "write_p50_ms",
        writes.quantile(0.5).unwrap_or(0.0),
        format!("(n={} apply-delta round trips)", writes.len()),
    );

    if let Some(rec) = rec.as_mut() {
        traced_layers(
            opts,
            out,
            rec,
            &stack,
            &mix,
            &g_a,
            &inserted,
            &enc,
            &par,
            (&traced, &untraced),
        )?;
    }
    let stats = stack.engine.stats();
    out.set(
        "engine.rejected",
        stats.rejected as f64,
        "(Engine::stats, whole run)",
    );
    out.set(
        "engine.batches",
        stats.batches as f64,
        "(Engine::stats, whole run)",
    );
    let report = cfl_verify::check_serve_trace(&stats);
    if !report.is_clean() {
        out.fail(1, "Engine::stats accounting identities violated");
    }
    out.set("peak_rss_mb", peak_rss_mb(), "(VmHWM)");
    if let Some(rec) = rec {
        crate::write_spans(&rec, opts, out);
    }
    let Stack { engine, server } = stack;
    server.shutdown();
    drop(engine);
    Ok(())
}

/// The traced run's extra probes: the in-process replay of the request
/// sequence, the codec, the plan cache and the cold build layers.
#[allow(clippy::too_many_arguments)]
fn traced_layers(
    opts: &Opts,
    out: &mut Outcome,
    rec: &mut Recorder,
    stack: &Stack,
    mix: &Mix,
    g_a: &Graph,
    inserted: &AtomicBool,
    enc: &[f64],
    par: &[f64],
    (traced, untraced): (&[f64], &[f64]),
) -> Result<(), String> {
    let shared = Mutex::new(std::mem::replace(rec, Recorder::new()));
    let budget = Duration::from_secs_f64((opts.seconds * 0.2).max(1.0));
    let inproc = inproc_phase(&stack.engine, mix, budget, inserted, &shared);
    *rec = shared.into_inner().unwrap_or_else(|p| p.into_inner());
    out.check(
        inproc.errors,
        "in-process requests errored or were rejected",
    );
    out.check(
        inproc.mismatches,
        "in-process answers differ from the one-shot answers",
    );
    let queue: Vec<f64> = inproc
        .total
        .iter()
        .zip(&inproc.exec)
        .map(|(t, e)| t - e)
        .collect();
    let (exec_ms, queue_ms) = (mean(&inproc.exec), mean(&queue));
    let n_in = inproc.total.len();
    out.set(
        "engine.exec_ms",
        exec_ms,
        format!("(n={n_in} in-process, QueryDone::elapsed)"),
    );
    out.set(
        "engine.queue_wait_ms",
        queue_ms,
        format!("(n={n_in}, submit-to-done minus elapsed)"),
    );
    out.set(
        "refresh.apply_ms",
        mean(&inproc.apply),
        format!("(n={} Engine::apply_delta)", inproc.apply.len()),
    );
    out.set(
        "refresh.plans_refreshed",
        mean(&inproc.refreshed),
        "(mean per delta)",
    );

    // Codec cost per request of the schedule (count-only requests encode
    // nothing).
    let cycle = mix.cycle();
    let per_request = |cost: &[f64]| {
        (0..cycle)
            .filter(|&i| !is_count_only(i))
            .map(|i| cost[i % mix.queries.len()])
            .sum::<f64>()
            / cycle as f64
    };
    let (enc_ms, parse_ms) = (per_request(enc), per_request(par));
    out.set(
        "proto.encode_us",
        enc_ms * 1e3,
        "(mean per request, proto::encode_batch)",
    );
    out.set(
        "json.parse_us",
        parse_ms * 1e3,
        "(mean per request, Json::parse)",
    );

    // Plan cache: replay one schedule cycle through a cached session.
    let session = DataGraph::with_cache(g_a);
    let cache = session
        .plan_cache()
        .cloned()
        .ok_or("session without plan cache")?;
    let cfg = reference_config();
    let (mut hit_us, mut bad) = (Vec::new(), 0u64);
    for i in 0..cycle {
        let q = i % mix.queries.len();
        let before = cache.snapshot().hits;
        let t = Instant::now();
        let (report, digest) = if is_count_only(i) {
            (session.count_embeddings(&mix.queries[q], &cfg), 0)
        } else {
            let mut d = EmbeddingChecksum::new();
            let r = session.find_embeddings(&mix.queries[q], &cfg, |m| {
                d.update(m);
                true
            });
            (r, d.digest())
        };
        rec.record("cache.session_query", t, Instant::now(), None, i as u64);
        let report = report.map_err(|e| e.to_string())?;
        let want = mix.refs[q][0];
        let ok = if is_count_only(i) {
            report.embeddings == want.counted
        } else {
            report.embeddings == want.found && digest == want.digest
        };
        bad += u64::from(!ok);
        if cache.snapshot().hits > before {
            hit_us.push(report.stats.build_time.as_secs_f64() * 1e6);
        }
    }
    out.check(bad, "plan-cache answers differ from the one-shot answers");
    let snap = cache.snapshot();
    out.set(
        "cache.hit_ratio",
        snap.hits as f64 / snap.lookups.max(1) as f64,
        format!("({} of {} lookups)", snap.hits, snap.lookups),
    );
    out.set(
        "cache.hit_us",
        mean(&hit_us),
        format!("(n={} hits, lookup time)", hit_us.len()),
    );

    // The cold build layers a plan-cache miss pays, one call at a time.
    let g_stats = GraphStats::build(g_a);
    let mut layer_ms: [Vec<f64>; 5] = Default::default();
    let mut enum_ms = Vec::new();
    let mut probe = Recorder::new();
    for rep in 0..PROBE_REPS {
        for (q, query) in mix.queries.iter().enumerate() {
            let root = probe.open("query", None, (rep * mix.queries.len() + q) as u64);
            let (_, ms) = replay(&mut probe, root, q as u64, query, g_a, &g_stats, &cfg);
            for (samples, v) in layer_ms.iter_mut().zip(ms) {
                samples.push(v);
            }
            let r = count_embeddings(query, g_a, &cfg).map_err(|e| e.to_string())?;
            enum_ms.push(r.stats.enumeration_time.as_secs_f64() * 1e3);
        }
    }
    let calls = enum_ms.len();
    let names = [
        "filters.context_us",
        "root.select_us",
        "decompose.us",
        "cpi.build_us",
        "order.us",
    ];
    for (name, samples) in names.into_iter().zip(&layer_ms) {
        out.set(
            name,
            mean(samples) * 1e3,
            format!("(cold, mean of {calls} calls; cache hits skip it)"),
        );
    }
    out.set(
        "exec.enumerate_us",
        mean(&enum_ms) * 1e3,
        format!("(one-shot, mean of {calls} calls)"),
    );

    // Stage accounting: the wire is what TCP latency adds beyond the
    // in-process engine time and the codec.
    let e2e = mean(traced);
    let wire = e2e - queue_ms - exec_ms - enc_ms - parse_ms;
    out.set(
        "wire.residual_ms",
        wire,
        format!("(n={} traced TCP requests)", traced.len()),
    );
    let p50 = |v: &[f64]| Samples::new(v.to_vec()).quantile(0.5).unwrap_or(0.0);
    let table = StageTable {
        e2e_ms: e2e,
        stages: vec![
            Stage::of("engine.queue_wait", &queue),
            Stage::of("engine.exec", &inproc.exec),
            Stage::mean("proto.encode", enc_ms),
            Stage::mean("json.parse", parse_ms),
            Stage::mean("wire.residual", wire),
        ],
        overhead_ms: p50(traced) - p50(untraced),
        note: "0 by construction: wire.residual is the remainder",
    };
    out.set("trace.e2e_ms", e2e, format!("(n={})", traced.len()));
    out.set("trace.residual_ms", table.residual_ms(), "");
    out.set("trace.overhead_ms", table.overhead_ms, "");
    out.stages = Some(table);
    Ok(())
}
