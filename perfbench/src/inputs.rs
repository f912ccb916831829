//! Input generation. The data graphs and the one-shot query sets are the
//! registry's fixed stand-ins, as the paper's graphs and Table 3 sets are
//! fixed; the run seed orders the one-shot queries and the serving mix,
//! and draws the serving delta batch.

use std::time::Instant;

use cfl_datasets::{Dataset, QueryMixSpec, QuerySetSpec, Workload};
use cfl_graph::Graph;
use cfl_match::GraphStats;

/// SplitMix64 step: decorrelates the sub-seeds drawn from one run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The Table 3 query sets of `d` restricted to `sizes`, drawn with the
/// registry's own set seeds (the sets `cfl-bench` experiments use).
pub fn query_sets(d: Dataset, sizes: &[usize], per_set: usize) -> Vec<QuerySetSpec> {
    Workload::for_dataset(d)
        .query_sets(per_set)
        .into_iter()
        .filter(|s| sizes.contains(&s.size))
        .collect()
}

/// A seed-determined permutation of `0..n` (Fisher-Yates).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// The serving mix: `QueryMixSpec::standard()` (one query per class in
/// quick mode).
pub fn query_mix(quick: bool) -> QueryMixSpec {
    let standard = QueryMixSpec::standard();
    QueryMixSpec {
        per_class: if quick { 1 } else { standard.per_class },
        ..standard
    }
}

/// One timed graph set-up: generation plus stat-table construction.
pub struct Built {
    pub graph: Graph,
    pub generate_ms: f64,
    pub stat_tables_ms: f64,
}

/// `d` scaled down by `scale` (`scale = 1` is the full-size stand-in).
pub fn build_graph(d: Dataset, scale: usize) -> Built {
    let t0 = Instant::now();
    let graph = d.build_scaled(scale);
    let t1 = Instant::now();
    drop(GraphStats::build(&graph)); // memoized on the graph from here on
    let t2 = Instant::now();
    Built {
        graph,
        generate_ms: (t1 - t0).as_secs_f64() * 1e3,
        stat_tables_ms: (t2 - t1).as_secs_f64() * 1e3,
    }
}
