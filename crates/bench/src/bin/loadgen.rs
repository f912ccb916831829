//! Serving load-generator driver: measures qps and latency percentiles
//! against a serving endpoint and writes the results as JSON.
//!
//! ```text
//! loadgen [--connect ADDR --graph-file FILE] [--name GRAPH]
//!         [--clients N] [--requests N] [--workers N] [--plan-cache]
//!         [--limit N] [--count-only] [--quick] [--scale N] [--seed S]
//!         [--max-wire-residual-ms MS] [--out FILE] [--merge-into FILE]
//!
//!   (default)            self-host: build a synthetic data graph, start an
//!                        in-process engine + TCP server on a loopback
//!                        ephemeral port, and drive it — the full serving
//!                        stack with no external setup
//!   --connect ADDR       drive an already-running `cfl serve` instead;
//!                        requires --graph-file (the served data graph, for
//!                        generating the query mix against)
//!   --name GRAPH         graph name on the server (default "default")
//!   --clients N          concurrent client connections (default 4)
//!   --requests N         total requests across all clients (default 240)
//!   --workers N          self-host engine worker threads (default 4)
//!   --plan-cache         self-host: enable the shared plan cache
//!   --limit N            per-query embedding cap (default 10000)
//!   --count-only         request counts only (no batch streaming)
//!   --quick              CI smoke mode: smaller graph, 24 requests
//!   --scale N            synthetic graph divisor for self-host (default 10)
//!   --seed S             query-mix seed (default 0xC41)
//!   --max-wire-residual-ms MS
//!                        fail the run when the median wire residual
//!                        (client latency minus the server's `elapsed_ms`)
//!                        exceeds MS; a transport stall trips it
//!   --out FILE           write the JSON report here (default: stdout)
//!   --merge-into FILE    splice the report as a `"serve"` member into an
//!                        existing hotpath JSON document (BENCH_PR*.json)
//! ```
//!
//! Exit status is non-zero if any request errored, any completed
//! stream's client-side checksum disagreed with the server's digest, or
//! the `--max-wire-residual-ms` bound was exceeded, so CI can use a bare
//! run as a gate.

use std::fmt::Write as _;

use cfl_bench::loadgen::{run, LoadgenConfig, LoadgenReport};
use cfl_datasets::{Dataset, QueryMixSpec};
use cfl_graph::read_graph_file;
use cfl_match::serve::submit_payload;
use cfl_match::{Engine, EngineConfig, Server};

struct Args {
    connect: Option<String>,
    graph_file: Option<String>,
    name: String,
    clients: usize,
    requests: usize,
    workers: usize,
    plan_cache: bool,
    limit: Option<u64>,
    count_only: bool,
    quick: bool,
    scale: usize,
    seed: u64,
    max_wire_residual_ms: Option<u64>,
    out: Option<String>,
    merge_into: Option<String>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        connect: None,
        graph_file: None,
        name: "default".to_string(),
        clients: 4,
        requests: 240,
        workers: 4,
        plan_cache: false,
        limit: Some(10_000),
        count_only: false,
        quick: false,
        scale: 10,
        seed: 0xC41,
        max_wire_residual_ms: None,
        out: None,
        merge_into: None,
    };
    let mut i = 0;
    let mut explicit_requests = false;
    while i < argv.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).cloned().unwrap_or_else(|| {
                eprintln!("{} needs a value", argv[*i - 1]);
                std::process::exit(2);
            })
        };
        let numeric = |i: &mut usize| -> u64 {
            let flag = argv[*i].clone();
            let v = value(i);
            v.parse().unwrap_or_else(|_| {
                eprintln!("{flag} needs a non-negative integer (got {v:?})");
                std::process::exit(2);
            })
        };
        match argv[i].as_str() {
            "--connect" => a.connect = Some(value(&mut i)),
            "--graph-file" => a.graph_file = Some(value(&mut i)),
            "--name" => a.name = value(&mut i),
            "--clients" => a.clients = numeric(&mut i).max(1) as usize,
            "--requests" => {
                a.requests = numeric(&mut i).max(1) as usize;
                explicit_requests = true;
            }
            "--workers" => a.workers = numeric(&mut i).max(1) as usize,
            "--plan-cache" => a.plan_cache = true,
            "--limit" => a.limit = Some(numeric(&mut i)),
            "--count-only" => a.count_only = true,
            "--quick" => a.quick = true,
            "--scale" => a.scale = numeric(&mut i).max(1) as usize,
            "--seed" => a.seed = numeric(&mut i),
            "--max-wire-residual-ms" => a.max_wire_residual_ms = Some(numeric(&mut i)),
            "--out" => a.out = Some(value(&mut i)),
            "--merge-into" => a.merge_into = Some(value(&mut i)),
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if a.quick {
        a.scale = a.scale.max(50);
        if !explicit_requests {
            a.requests = 24;
        }
    }
    if a.connect.is_some() && a.graph_file.is_none() {
        eprintln!("--connect requires --graph-file (the served data graph)");
        std::process::exit(2);
    }
    a
}

fn main() {
    let a = parse_args();

    // The data graph the query mix is generated against: the served file
    // under --connect, a deterministic synthetic graph when self-hosting.
    let g = match &a.graph_file {
        Some(path) => read_graph_file(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }),
        None => Dataset::SyntheticDefault.build_scaled(a.scale),
    };
    let mix = if a.quick {
        QueryMixSpec {
            sizes: vec![4, 6],
            per_class: 2,
            seed: a.seed,
        }
    } else {
        QueryMixSpec {
            seed: a.seed,
            ..QueryMixSpec::standard()
        }
    };
    let queries = mix.generate(&g);
    if queries.is_empty() {
        eprintln!("query mix is unsatisfiable on this data graph");
        std::process::exit(2);
    }
    let payloads: Vec<String> = queries
        .iter()
        .map(|q| submit_payload(&a.name, q, a.limit, None, a.count_only))
        .collect();

    // Self-host unless --connect: in-process engine + TCP server on an
    // ephemeral loopback port, torn down after the run.
    let hosted = if a.connect.is_some() {
        None
    } else {
        let engine = Engine::new(EngineConfig {
            workers: a.workers,
            plan_cache: a.plan_cache,
            ..EngineConfig::default()
        });
        engine.add_graph(a.name.clone(), g);
        let server =
            Server::start(std::sync::Arc::new(engine), "127.0.0.1:0").unwrap_or_else(|e| {
                eprintln!("cannot start self-hosted server: {e}");
                std::process::exit(2);
            });
        Some(server)
    };
    let addr = match (&a.connect, &hosted) {
        (Some(addr), _) => addr.clone(),
        (None, Some(server)) => server.addr().to_string(),
        (None, None) => unreachable!("either --connect or self-host"),
    };

    let cfg = LoadgenConfig {
        clients: a.clients,
        requests: a.requests,
        count_only: a.count_only,
    };
    let report = run(&addr, &payloads, &cfg).unwrap_or_else(|e| {
        eprintln!("load run failed: {e}");
        std::process::exit(1);
    });
    if let Some(server) = hosted {
        server.shutdown();
    }

    eprintln!(
        "{} completed, {} errors, {} checksum mismatches; {:.1} qps; \
         p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  max {:.3} ms; \
         wire residual p50 {:.3} ms  p99 {:.3} ms",
        report.completed,
        report.errors,
        report.checksum_mismatches,
        report.qps(),
        report.percentile_ms(50.0),
        report.percentile_ms(95.0),
        report.percentile_ms(99.0),
        report.max_ms(),
        report.wire_residual_ms(50.0),
        report.wire_residual_ms(99.0)
    );

    let json = render(&a, &mix, payloads.len(), &report);
    match (&a.merge_into, &a.out) {
        (Some(path), _) => merge_into(path, &json),
        (None, Some(path)) => {
            std::fs::write(path, format!("{json}\n"))
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {path}");
        }
        (None, None) => println!("{json}"),
    }

    if report.errors > 0 || report.checksum_mismatches > 0 {
        std::process::exit(1);
    }
    if let Some(bound) = a.max_wire_residual_ms {
        let residual = report.wire_residual_ms(50.0);
        if residual > bound as f64 {
            eprintln!("median wire residual {residual:.3} ms exceeds {bound} ms");
            std::process::exit(1);
        }
    }
}

/// Renders the report as a stable, human-diffable JSON object.
fn render(a: &Args, mix: &QueryMixSpec, distinct_payloads: usize, r: &LoadgenReport) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"suite\": \"serve_loadgen\",");
    let _ = writeln!(s, "  \"quick\": {},", a.quick);
    s.push_str("  \"meta\": {\n");
    let _ = writeln!(s, "    \"commit\": \"{}\",", env!("CFL_BUILD_COMMIT"));
    let _ = writeln!(
        s,
        "    \"mode\": \"{}\",",
        if a.connect.is_some() {
            "external"
        } else {
            "self-host"
        }
    );
    let _ = writeln!(s, "    \"clients\": {},", a.clients);
    let _ = writeln!(
        s,
        "    \"workers\": {},",
        if a.connect.is_some() {
            "null".to_string()
        } else {
            a.workers.to_string()
        }
    );
    let _ = writeln!(s, "    \"plan_cache\": {},", a.plan_cache);
    let _ = writeln!(s, "    \"mix\": \"{}\",", mix.name());
    let _ = writeln!(s, "    \"distinct_queries\": {distinct_payloads},");
    let _ = writeln!(s, "    \"seed\": {},", a.seed);
    let _ = writeln!(
        s,
        "    \"limit\": {},",
        a.limit.map_or("null".to_string(), |n| n.to_string())
    );
    let _ = writeln!(s, "    \"count_only\": {}", a.count_only);
    s.push_str("  },\n");
    let _ = writeln!(s, "  \"requests\": {},", a.requests);
    let _ = writeln!(s, "  \"completed\": {},", r.completed);
    let _ = writeln!(s, "  \"errors\": {},", r.errors);
    let _ = writeln!(s, "  \"checksum_mismatches\": {},", r.checksum_mismatches);
    let _ = writeln!(s, "  \"embeddings\": {},", r.embeddings);
    let _ = writeln!(s, "  \"wall_ms\": {:.3},", r.wall.as_secs_f64() * 1e3);
    let _ = writeln!(s, "  \"qps\": {:.1},", r.qps());
    s.push_str("  \"latency_ms\": {\n");
    let _ = writeln!(s, "    \"p50\": {:.3},", r.percentile_ms(50.0));
    let _ = writeln!(s, "    \"p95\": {:.3},", r.percentile_ms(95.0));
    let _ = writeln!(s, "    \"p99\": {:.3},", r.percentile_ms(99.0));
    let _ = writeln!(s, "    \"max\": {:.3}", r.max_ms());
    s.push_str("  },\n");
    let _ = writeln!(
        s,
        "  \"wire_residual_p50_ms\": {:.3},",
        r.wire_residual_ms(50.0)
    );
    let _ = writeln!(
        s,
        "  \"wire_residual_p99_ms\": {:.3}",
        r.wire_residual_ms(99.0)
    );
    s.push('}');
    s
}

/// Splices the report into an existing hotpath JSON document as a
/// top-level `"serve"` member (replacing a previous one if present), so
/// one BENCH_PR*.json file carries both the hot-path series and the
/// serving numbers.
fn merge_into(path: &str, report_json: &str) {
    let doc = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let trimmed = doc.trim_end();
    let body = trimmed.strip_suffix('}').unwrap_or_else(|| {
        panic!("{path} does not end with a JSON object");
    });
    // Drop any previous "serve" member (idempotent regeneration).
    let body = match body.find("  \"serve\": {") {
        Some(pos) => body[..pos].trim_end().trim_end_matches(','),
        None => body.trim_end(),
    };
    let indented = report_json.replace('\n', "\n  ");
    let merged = format!("{body},\n  \"serve\": {indented}\n}}\n");
    std::fs::write(path, merged).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("merged serve report into {path}");
}
