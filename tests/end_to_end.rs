//! Cross-crate integration tests: the algorithms must agree with each
//! other across crates, representations, layouts, and the instrumented
//! (cache-simulated) code paths.

use cachegraph::fw::instrumented::{
    sim_iterative, sim_recursive_morton, sim_tiled_bdl, sim_tiled_parallel_profiled,
};
use cachegraph::fw::{
    fw_iterative_slice, fw_recursive, fw_tiled, parallel::fw_tiled_parallel, FwMatrix,
};
use cachegraph::graph::{generators, INF};
use cachegraph::layout::{BlockLayout, ZMorton};
use cachegraph::matching::instrumented::{
    sim_find_matching, sim_find_matching_partitioned, sim_find_matching_partitioned_profiled,
    sim_find_matching_profiled,
};
use cachegraph::matching::{
    find_matching, find_matching_fast, find_matching_partitioned, hopcroft_karp, maxflow,
    verify, Matching, PartitionScheme,
};
use cachegraph::pq::{FibonacciHeap, PairingHeap};
use cachegraph::sim::{profiles, ProfilerOptions};
use cachegraph::sssp::instrumented::{
    sim_dijkstra_adj_array, sim_dijkstra_adj_array_observed, sim_dijkstra_adj_list,
    sim_dijkstra_adj_list_observed, sim_prim_adj_array, sim_prim_adj_list,
};
use cachegraph::sssp::{
    apsp_dijkstra, bellman_ford, dijkstra, dijkstra_binary_heap, kruskal, prim_binary_heap,
};
use cachegraph_obs::Registry;

/// Floyd-Warshall (all variants and layouts) and Dijkstra-APSP must
/// compute the same all-pairs distances on the same graph.
#[test]
fn apsp_all_roads_lead_to_the_same_matrix() {
    let n = 96;
    let b = generators::random_directed(n, 0.15, 50, 1);
    let costs = b.build_matrix().costs().to_vec();

    let mut baseline = costs.clone();
    fw_iterative_slice(&mut baseline, n);

    let mut tiled = FwMatrix::from_costs(BlockLayout::new(n, 16), &costs);
    fw_tiled(&mut tiled, 16);
    assert_eq!(tiled.to_row_major(), baseline);

    let mut rec = FwMatrix::from_costs(ZMorton::new(n, 16), &costs);
    fw_recursive(&mut rec, 16);
    assert_eq!(rec.to_row_major(), baseline);

    let mut par = FwMatrix::from_costs(BlockLayout::new(n, 16), &costs);
    fw_tiled_parallel(&mut par, 16, 4);
    assert_eq!(par.to_row_major(), baseline);

    let dj = apsp_dijkstra(&b.build_array());
    assert_eq!(dj, baseline, "Dijkstra-APSP must equal Floyd-Warshall");
}

/// The instrumented (simulated) runs compute the same answers as the
/// plain ones — the miss counts describe the real computation.
#[test]
fn simulated_runs_are_faithful() {
    let n = 48;
    let b = generators::random_directed(n, 0.25, 50, 2);
    let costs = b.build_matrix().costs().to_vec();
    let mut expect = costs.clone();
    fw_iterative_slice(&mut expect, n);

    let cfg = profiles::simplescalar;
    assert_eq!(sim_iterative(&costs, n, cfg()).dist, expect);
    assert_eq!(sim_recursive_morton(&costs, n, 8, cfg()).dist, expect);
    assert_eq!(sim_tiled_bdl(&costs, n, 8, cfg()).dist, expect);

    let sp = dijkstra_binary_heap(&b.build_array(), 0);
    let sim = sim_dijkstra_adj_array(&b.build_array(), 0, cfg());
    assert_eq!(sim.keys, sp.dist);
}

/// The simulated FW runs replay the paper's cell-by-cell order through
/// the trait-default kernel, whatever the timed slice kernel does. Their
/// counts are pinned to the values of the version before the slice
/// kernel was vectorised, and the parallel simulation's to those of the
/// version before it ran on borrowed tiles, so a drift in that order or
/// in the parallel phase loop fails here, not only in a traced benchmark
/// run. Per level: (accesses, misses, writebacks).
#[test]
fn simulated_fw_counts_are_pinned() {
    let n = 96;
    let costs = generators::random_directed(n, 0.3, 100, 64).build_matrix().costs().to_vec();
    let mut expect = costs.clone();
    fw_iterative_slice(&mut expect, n);
    let runs = [
        (
            "sim_recursive_morton",
            sim_recursive_morton(&costs, n, 8, profiles::simplescalar()),
            [(1_959_628, 4_730, 2_080), (6_810, 1_536, 0)],
            1_536,
        ),
        (
            "sim_tiled_bdl",
            sim_tiled_bdl(&costs, n, 8, profiles::simplescalar()),
            [(1_929_303, 13_863, 10_338), (24_201, 1_152, 0)],
            1_152,
        ),
    ];
    for (name, run, levels, memory_lines) in runs {
        assert_eq!(run.dist, expect, "{name}: distances");
        let got: Vec<(u64, u64, u64)> =
            run.stats.levels.iter().map(|l| (l.accesses, l.misses, l.writebacks)).collect();
        assert_eq!(got, levels, "{name}: per-level (accesses, misses, writebacks)");
        assert_eq!(run.stats.memory_lines_fetched, memory_lines, "{name}: memory lines");
    }
    // The parallel simulation: private per-worker hierarchies, merged.
    // Pinned per level, and per span as the self L1 accesses of the
    // sequential `diag` phase and of each `thread[w]`.
    let parallel = [
        (1, [(1_929_303, 13_863, 10_338), (24_201, 1_152, 0)], vec![13_016, 1_916_287]),
        (2, [(1_929_303, 13_280, 9_293), (22_573, 2_304, 0)], vec![13_016, 965_017, 951_270]),
        (
            4,
            [(1_929_303, 5_717, 1_793), (7_510, 4_608, 0)],
            vec![13_016, 494_699, 496_824, 495_577, 429_187],
        ),
    ];
    for (threads, levels, span_accesses) in parallel {
        let run = sim_tiled_parallel_profiled(
            &costs,
            n,
            8,
            threads,
            profiles::simplescalar(),
            ProfilerOptions::exact(),
            &Registry::disabled(),
        );
        assert_eq!(run.dist, expect, "threads={threads}: distances");
        let got: Vec<(u64, u64, u64)> =
            run.stats.levels.iter().map(|l| (l.accesses, l.misses, l.writebacks)).collect();
        assert_eq!(got, levels, "threads={threads}: per-level (accesses, misses, writebacks)");
        let want: Vec<(String, u64)> = std::iter::once("fw.tiled.parallel/diag".to_string())
            .chain((0..threads).map(|w| format!("fw.tiled.parallel/thread[{w}]")))
            .zip(span_accesses)
            .collect();
        let spans: Vec<(String, u64)> = run
            .profile
            .spans
            .iter()
            .filter(|s| s.path != "fw.tiled.parallel")
            .map(|s| (s.path.clone(), s.self_stats.levels[0].accesses))
            .collect();
        assert_eq!(spans, want, "threads={threads}: self L1 accesses per span");
    }
}

/// The simulated matching runs (Table 8) on `repro --quick`'s input,
/// pinned per level as (accesses, misses, writebacks) with the memory
/// lines, and per run as the `matching.searches` and
/// `matching.augmenting_paths` counters of the profiled entry. The
/// values predate the simulation's move onto the shipped Fig. 8 round
/// (it simulated a hand-written copy of the round before), so a drift
/// in the round's access order, in the carve or in the simulated
/// address map fails here.
#[test]
fn simulated_matching_counts_are_pinned() {
    let n = 256;
    let b = generators::random_bipartite(n, 0.1, 5);
    use PartitionScheme::{Contiguous, TwoWay};
    let (cfg, exact) = (profiles::simplescalar, ProfilerOptions::exact());
    // (scheme, per level, memory lines, (searches, augmenting paths));
    // no scheme is the baseline.
    let runs = [
        (None, [(82_283, 317, 12), (329, 278, 0)], 278, (129, 128)),
        (Some(Contiguous(8)), [(32_484, 509, 156), (665, 285, 0)], 285, (137, 128)),
        (Some(TwoWay), [(42_294, 364, 79), (443, 323, 0)], 323, (131, 128)),
    ];
    for (scheme, levels, memory_lines, (searches, augmenting_paths)) in runs {
        let registry = Registry::new();
        let (run, profiled) = match scheme {
            None => (
                sim_find_matching(n, n / 2, b.edges(), cfg()),
                sim_find_matching_profiled(n, n / 2, b.edges(), cfg(), exact, &registry),
            ),
            Some(s) => (
                sim_find_matching_partitioned(n, n / 2, b.edges(), s, cfg()),
                sim_find_matching_partitioned_profiled(
                    n,
                    n / 2,
                    b.edges(),
                    s,
                    cfg(),
                    exact,
                    &registry,
                ),
            ),
        };
        assert_eq!(run.size, 128, "{scheme:?}: matching size");
        let got: Vec<(u64, u64, u64)> =
            run.stats.levels.iter().map(|l| (l.accesses, l.misses, l.writebacks)).collect();
        assert_eq!(got, levels, "{scheme:?}: per-level (accesses, misses, writebacks)");
        assert_eq!(run.stats.memory_lines_fetched, memory_lines, "{scheme:?}: memory lines");
        assert_eq!(profiled.stats, run.stats, "{scheme:?}: profiling changed the counts");
        let counters = registry.snapshot().counters;
        assert_eq!(counters.get("matching.searches"), Some(&searches), "{scheme:?}: searches");
        assert_eq!(
            counters.get("matching.augmenting_paths"),
            Some(&augmenting_paths),
            "{scheme:?}: augmenting paths"
        );
    }
}

/// The simulated Dijkstra and Prim runs (Tables 6 and 7) on the bench
/// workloads' generators at n = 512 from vertex 0, pinned per level as
/// (accesses, misses, writebacks) with the memory lines; Dijkstra also
/// by the `sssp.relaxations` / `sssp.decrease_keys` /
/// `sssp.extract_mins` counters of its observed entry, Prim by its tree
/// weight. A drift in the traced heap, the traced relaxation loop or the
/// simulated address map fails here.
#[test]
fn simulated_sssp_counts_are_pinned() {
    let n = 512;
    let cfg = profiles::simplescalar;
    let mut dj = generators::random_directed(n, 0.05, 100, 42);
    dj.shuffle(42);
    let mut pr = generators::random_undirected(n, 0.05, 100, 42);
    generators::connect(&mut pr, 100, 42);
    pr.shuffle(42);
    assert_eq!((dj.edges().len(), pr.edges().len()), (13_198, 14_250), "arcs");

    // (run, per level, memory lines, (relaxations, decrease-keys,
    // extract-mins)).
    let (arr, list) = (dj.build_array(), dj.build_list());
    let dijkstra_runs = [
        (
            "sim_dijkstra_adj_array",
            sim_dijkstra_adj_array(&arr, 0, cfg()),
            [(81_302, 6_118, 1_901), (8_019, 3_685, 0)],
            3_685,
            (13_198, 1_389, 512),
        ),
        (
            "sim_dijkstra_adj_list",
            sim_dijkstra_adj_list(&list, 0, cfg()),
            [(84_107, 20_340, 3_873), (24_213, 5_334, 0)],
            5_334,
            (13_198, 1_387, 512),
        ),
    ];
    for (name, run, levels, memory_lines, (relaxations, decrease_keys, extract_mins)) in
        dijkstra_runs
    {
        let got: Vec<(u64, u64, u64)> =
            run.stats.levels.iter().map(|l| (l.accesses, l.misses, l.writebacks)).collect();
        assert_eq!(got, levels, "{name}: per-level (accesses, misses, writebacks)");
        assert_eq!(run.stats.memory_lines_fetched, memory_lines, "{name}: memory lines");
        let registry = Registry::new();
        let observed = if name.ends_with("array") {
            sim_dijkstra_adj_array_observed(&arr, 0, cfg(), &registry)
        } else {
            sim_dijkstra_adj_list_observed(&list, 0, cfg(), &registry)
        };
        assert_eq!(observed.stats, run.stats, "{name}: observing changed the counts");
        let counters = registry.snapshot().counters;
        for (counter, want) in [
            ("sssp.relaxations", relaxations),
            ("sssp.decrease_keys", decrease_keys),
            ("sssp.extract_mins", extract_mins),
        ] {
            assert_eq!(counters.get(counter), Some(&want), "{name}: {counter}");
        }
    }

    // (run, per level, memory lines, tree weight).
    let prim_runs = [
        (
            "sim_prim_adj_array",
            sim_prim_adj_array(&pr.build_array(), 0, cfg()),
            [(98_233, 6_923, 2_393), (9_316, 3_948, 0)],
            3_948,
        ),
        (
            "sim_prim_adj_list",
            sim_prim_adj_list(&pr.build_list(), 0, cfg()),
            [(101_507, 22_439, 4_478), (26_917, 5_728, 0)],
            5_728,
        ),
    ];
    for (name, run, levels, memory_lines) in prim_runs {
        let got: Vec<(u64, u64, u64)> =
            run.stats.levels.iter().map(|l| (l.accesses, l.misses, l.writebacks)).collect();
        assert_eq!(got, levels, "{name}: per-level (accesses, misses, writebacks)");
        assert_eq!(run.stats.memory_lines_fetched, memory_lines, "{name}: memory lines");
        assert_eq!(run.total, 2_381, "{name}: tree weight");
    }
}

/// Dijkstra agrees with Bellman-Ford over every representation and queue.
#[test]
fn sssp_consensus() {
    let n = 200;
    let b = generators::random_directed(n, 0.05, 80, 3);
    let arr = b.build_array();
    let list = b.build_list();
    let mat = b.build_matrix();
    let expect = bellman_ford(&arr, 0).dist;
    assert_eq!(dijkstra_binary_heap(&arr, 0).dist, expect);
    assert_eq!(dijkstra_binary_heap(&list, 0).dist, expect);
    assert_eq!(dijkstra_binary_heap(&mat, 0).dist, expect);
    assert_eq!(dijkstra::<_, FibonacciHeap>(&arr, 0).dist, expect);
    assert_eq!(dijkstra::<_, PairingHeap>(&arr, 0).dist, expect);
}

/// Prim (all representations) and Kruskal agree; the simulated Prim too.
#[test]
fn mst_consensus() {
    let n = 300;
    let mut b = generators::random_undirected(n, 0.04, 100, 4);
    generators::connect(&mut b, 100, 4);
    let arr = b.build_array();
    let (kw, _) = kruskal(n, b.edges());
    assert_eq!(prim_binary_heap(&arr, 0).total_weight, kw);
    assert_eq!(prim_binary_heap(&b.build_list(), 0).total_weight, kw);
    assert_eq!(prim_binary_heap(&b.build_matrix(), 0).total_weight, kw);
    let sim = sim_prim_adj_list(&b.build_list(), 0, profiles::simplescalar());
    assert_eq!(sim.total, kw);
}

/// Matching: baseline, fast variant, partitioned (both schemes),
/// Hopcroft-Karp, and the max-flow reduction all find the same size, and
/// the result carries a König maximality certificate.
#[test]
fn matching_consensus() {
    let n = 160;
    let b = generators::random_bipartite(n, 0.08, 5);
    let g = b.build_array();
    let base = find_matching(&g, n / 2, Matching::empty(n));
    verify::assert_maximum(&g, n / 2, &base);
    assert_eq!(find_matching_fast(&g, n / 2, Matching::empty(n)).size, base.size);
    assert_eq!(hopcroft_karp(&g, n / 2).size, base.size);
    assert_eq!(maxflow::matching_by_flow(n, n / 2, b.edges()), base.size as u64);
    for scheme in [PartitionScheme::Contiguous(4), PartitionScheme::TwoWay] {
        let (m, _) = find_matching_partitioned(&g, n / 2, scheme);
        assert_eq!(m.size, base.size);
    }
}

/// Unreachable structure is preserved end to end: isolated islands stay
/// at INF in FW, Dijkstra, and Bellman-Ford alike.
#[test]
fn disconnected_graphs_stay_disconnected() {
    let n = 40;
    // Two islands: 0..20 and 20..40, no edges between them.
    let mut b = cachegraph::graph::EdgeListBuilder::new(n);
    for v in 0..19u32 {
        b.add_undirected(v, v + 1, 1);
    }
    for v in 20..39u32 {
        b.add_undirected(v, v + 1, 1);
    }
    let arr = b.build_array();
    let sp = dijkstra_binary_heap(&arr, 0);
    assert_eq!(sp.dist[25], INF);
    assert_eq!(bellman_ford(&arr, 0).dist[25], INF);
    let costs = b.build_matrix().costs().to_vec();
    let mut m = FwMatrix::from_costs(ZMorton::new(n, 8), &costs);
    fw_recursive(&mut m, 8);
    assert_eq!(m.dist(0, 25), INF);
    assert_eq!(m.dist(0, 19), 19);
}

/// Determinism: the whole pipeline is reproducible from the seed.
#[test]
fn seeded_runs_are_deterministic() {
    let mk = || {
        let b = generators::random_directed(128, 0.1, 60, 42);
        let g = b.build_array();
        (b.edges().to_vec(), dijkstra_binary_heap(&g, 0).dist)
    };
    let (e1, d1) = mk();
    let (e2, d2) = mk();
    assert_eq!(e1, e2);
    assert_eq!(d1, d2);
}

/// Record-once / replay-everywhere: capture an instrumented FW run's
/// address trace, then replay it against a different machine profile and
/// get exactly the stats of a live run under that profile.
#[test]
fn trace_replay_matches_live_runs_across_machines() {
    use cachegraph::sim::{replay, AddressSpace, MemoryHierarchy};

    let n = 32;
    let b = generators::random_directed(n, 0.3, 50, 12);
    let costs = b.build_matrix().costs().to_vec();

    // Live instrumented run on SimpleScalar, with a recorder attached.
    // (Re-implements the thin instrumented driver here because the
    // public sim_* helpers own their hierarchy.)
    let layout = cachegraph::layout::RowMajor::new(n);
    let mut rec_hier = MemoryHierarchy::new(profiles::simplescalar());
    rec_hier.attach_recorder();
    let mut space = AddressSpace::new();
    let mut buf = space.adopt({
        let mut d = costs.clone();
        for v in 0..n {
            d[v * n + v] = 0;
        }
        d
    });
    // The iterative triple loop through the traced buffer.
    for k in 0..n {
        for i in 0..n {
            let bik = buf.read(&mut rec_hier, i * n + k);
            if bik == INF {
                continue;
            }
            for j in 0..n {
                let via = bik.saturating_add(buf.read(&mut rec_hier, k * n + j));
                let cur = buf.read(&mut rec_hier, i * n + j);
                if via < cur {
                    buf.write(&mut rec_hier, i * n + j, via);
                }
            }
        }
    }
    let _ = layout;
    let trace = rec_hier.take_trace().expect("recorder attached");

    // Replays must match live runs exactly, on every machine profile.
    for cfg in [profiles::simplescalar(), profiles::alpha_21264(), profiles::mips_r12000()] {
        let mut live = MemoryHierarchy::new(cfg.clone());
        cachegraph::sim::tracefile::replay(&trace, &mut live).expect("replay");
        // A second replay through the public alias for coverage.
        let mut again = MemoryHierarchy::new(cfg);
        replay(&trace, &mut again).expect("replay alias");
        assert_eq!(live.stats(), again.stats());
        assert!(live.stats().levels[0].accesses > 0);
    }
}

/// A graph too big for the simulated L1 shows the paper's L2 story:
/// blocked FW beats the baseline; adjacency array beats the list.
#[test]
fn cache_story_holds_end_to_end() {
    let n = 128;
    let b = generators::random_directed(n, 0.3, 50, 6);
    let costs = b.build_matrix().costs().to_vec();
    let cfg = profiles::simplescalar;
    let base = sim_iterative(&costs, n, cfg());
    let rec = sim_recursive_morton(&costs, n, 32, cfg());
    assert!(
        rec.stats.levels[0].misses < base.stats.levels[0].misses,
        "recursive FW must reduce L1 misses"
    );

    let gb = generators::random_directed(1500, 0.05, 50, 7);
    let arr = sim_dijkstra_adj_array(&gb.build_array(), 0, cfg());
    let mut shuffled = gb.clone();
    shuffled.shuffle(7);
    let list = cachegraph::sssp::instrumented::sim_dijkstra_adj_list(
        &shuffled.build_list(),
        0,
        cfg(),
    );
    assert_eq!(arr.keys, list.keys);
    assert!(
        arr.stats.levels[1].misses < list.stats.levels[1].misses,
        "adjacency array must reduce L2 misses vs the shuffled list"
    );
}
