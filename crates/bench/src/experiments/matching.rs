//! Matching experiments: Figs. 17–19, Table 8, the worst-case-partition
//! claim, and the sub-problem-count ablation.

use cachegraph_graph::{generators, AdjacencyArray};
use cachegraph_matching::instrumented::{sim_find_matching, sim_find_matching_partitioned};
use cachegraph_matching::{
    find_matching, find_matching_partitioned, verify, Matching, PartitionScheme,
};
use cachegraph_sim::profiles;

use crate::workloads::matching_graph;
use crate::{time_once, Scale, Table};

/// Baseline vs partitioned wall-clock on one instance; validates both
/// results are maximum. Returns `(t_base, t_opt, size)`.
fn run_pair(
    n: usize,
    edges: &[cachegraph_graph::Edge],
    scheme: PartitionScheme,
) -> (f64, f64, usize) {
    let g = AdjacencyArray::from_edges(n, edges);
    let (tb, base) = time_once(|| find_matching(&g, n / 2, Matching::empty(n)));
    let (to, (opt, _)) = time_once(|| find_matching_partitioned(&g, n / 2, scheme));
    assert_eq!(base.size, opt.size, "both must be maximum");
    verify::assert_maximum(&g, n / 2, &opt);
    (tb.as_secs_f64(), to.as_secs_f64(), opt.size)
}

/// Fig. 17: speedup vs density, random bipartite graphs.
pub fn fig17(scale: Scale) -> Table {
    let n = scale.pick(8192, 16384);
    let parts = scale.pick(16, 32);
    let densities = [0.05, 0.1, 0.2, 0.3];
    let mut t = Table::new(
        format!("Fig. 17: matching speedup vs density, N={n}, contiguous {parts}-way parts"),
        &["density", "baseline (s)", "partitioned (s)", "speedup", "|M|"],
    );
    for d in densities {
        let b = matching_graph(n, d, 21);
        let (tb, to, size) = run_pair(n, b.edges(), PartitionScheme::Contiguous(parts));
        t.row(vec![
            format!("{:.0}%", d * 100.0),
            format!("{tb:.4}"),
            format!("{to:.4}"),
            format!("{:.2}x", tb / to.max(1e-12)),
            size.to_string(),
        ]);
    }
    t.note("paper (8K nodes): just over 2x at 10% density, over 4x at 30%");
    t
}

/// Fig. 18: best-case inputs — the local phase finds the maximum matching.
pub fn fig18(scale: Scale) -> Table {
    let sizes = scale.pick(vec![2048, 4096, 8192], vec![4096, 8192, 16384]);
    let parts = 8;
    let mut t = Table::new(
        format!("Fig. 18: best-case matching speedup (aligned instances), {parts} parts"),
        &["N", "baseline (s)", "partitioned (s)", "speedup"],
    );
    for n in sizes {
        let b = generators::matching_best_case(n, parts, 0.05, 3);
        let (tb, to, size) = run_pair(n, b.edges(), PartitionScheme::Contiguous(parts));
        assert_eq!(size, n / 2, "best-case instance has a perfect matching");
        t.row(vec![
            n.to_string(),
            format!("{tb:.4}"),
            format!("{to:.4}"),
            format!("{:.2}x", tb / to.max(1e-12)),
        ]);
    }
    t.note("paper: 3x up to 10x when the local phase finds the maximum matching");
    t
}

/// Fig. 19: average speedup over random graphs using the two-way
/// partitioner, across problem sizes.
pub fn fig19(scale: Scale) -> Table {
    let sizes = scale.pick(vec![2048, 4096, 8192], vec![4096, 8192, 16384]);
    let seeds = scale.pick(3u64, 10);
    let mut t = Table::new(
        format!("Fig. 19: average matching speedup (two-way partitioner, {seeds} random graphs)"),
        &["N", "avg baseline (s)", "avg partitioned (s)", "avg speedup"],
    );
    for n in sizes {
        let (mut sb, mut so) = (0.0f64, 0.0f64);
        for seed in 0..seeds {
            let b = matching_graph(n, 0.1, 100 + seed);
            let (tb, to, _) = run_pair(n, b.edges(), PartitionScheme::TwoWay);
            sb += tb;
            so += to;
        }
        let k = seeds as f64;
        t.row(vec![
            n.to_string(),
            format!("{:.4}", sb / k),
            format!("{:.4}", so / k),
            format!("{:.2}x", sb / so.max(1e-12)),
        ]);
    }
    t.note("paper: roughly 2x for all problem sizes (average of 10 random graphs)");
    t
}

/// §4.4 worst case: a partition finding zero local matches should cost
/// only ~10% over the baseline.
pub fn worstcase(scale: Scale) -> Table {
    let n = scale.pick(8192, 16384);
    let parts = 8;
    let b = generators::matching_worst_case(n, parts, 0.1, 4);
    let (tb, to, _) = run_pair(n, b.edges(), PartitionScheme::Contiguous(parts));
    let mut t = Table::new(
        format!("Worst-case partitioning (no local matches), N={n}, {parts} parts"),
        &["baseline (s)", "partitioned (s)", "overhead"],
    );
    t.row(vec![
        format!("{tb:.4}"),
        format!("{to:.4}"),
        format!("{:+.1}%", (to / tb.max(1e-12) - 1.0) * 100.0),
    ]);
    t.note("paper: only ~10% performance degradation in the worst case");
    t
}

/// Table 8: simulated DL1 accesses / misses / miss rate, baseline vs
/// partitioned implementation.
pub fn table8(scale: Scale) -> Table {
    let (n, d) = scale.pick((4096, 0.02), (8192, 0.1));
    let parts = scale.pick(8, 16);
    let b = matching_graph(n, d, 5);
    let base = sim_find_matching(n, n / 2, b.edges(), profiles::simplescalar());
    let opt = sim_find_matching_partitioned(
        n,
        n / 2,
        b.edges(),
        PartitionScheme::Contiguous(parts),
        profiles::simplescalar(),
    );
    assert_eq!(base.size, opt.size, "both must find the maximum matching");
    let mut t = Table::new(
        format!("Table 8: matching DL1 performance, N={n}, density={d}, {parts} parts"),
        &["metric", "baseline", "optimized"],
    );
    let (ba, oa) = (base.stats.levels[0].accesses, opt.stats.levels[0].accesses);
    let (bm, om) = (base.stats.levels[0].misses, opt.stats.levels[0].misses);
    t.row(vec![
        "accesses (M)".into(),
        format!("{:.1}", ba as f64 / 1e6),
        format!("{:.1}", oa as f64 / 1e6),
    ]);
    t.row(vec![
        "misses (M)".into(),
        format!("{:.2}", bm as f64 / 1e6),
        format!("{:.2}", om as f64 / 1e6),
    ]);
    t.row(vec![
        "miss rate".into(),
        format!("{:.2}%", base.stats.levels[0].miss_rate * 100.0),
        format!("{:.2}%", opt.stats.levels[0].miss_rate * 100.0),
    ]);
    t.note("paper (8K nodes, 0.1 density): accesses 853M -> 578M, misses 127M -> 32M, rate 14.9% -> 5.6%");
    t
}

/// Ablation: number of contiguous parts (sub-problem size is the paper's
/// tuning knob, §3.3).
pub fn parts(scale: Scale) -> Table {
    let n = scale.pick(8192, 16384);
    let b = matching_graph(n, 0.1, 6);
    let g = AdjacencyArray::from_edges(n, b.edges());
    let (tb, base) = time_once(|| find_matching(&g, n / 2, Matching::empty(n)));
    let mut t = Table::new(
        format!("Ablation: partition count for partitioned matching, N={n}, density=10%"),
        &["parts", "time (s)", "speedup", "local matched"],
    );
    t.row(vec![
        "1 (baseline)".into(),
        format!("{:.4}", tb.as_secs_f64()),
        "1.00x".into(),
        "-".into(),
    ]);
    for p in [2usize, 4, 8, 16, 32] {
        let (to, (m, stats)) =
            time_once(|| find_matching_partitioned(&g, n / 2, PartitionScheme::Contiguous(p)));
        assert_eq!(m.size, base.size);
        t.row(vec![
            p.to_string(),
            format!("{:.4}", to.as_secs_f64()),
            format!("{:.2}x", tb.as_secs_f64() / to.as_secs_f64().max(1e-12)),
            stats.local_matched.to_string(),
        ]);
    }
    t.note("sub-problems sized to the cache maximise the local phase's contribution");
    t
}
