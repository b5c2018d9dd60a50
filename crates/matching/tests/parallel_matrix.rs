//! Seeded property matrix for the parallel partitioned matching driver:
//! every (threads, scheme, shape) cell must produce a `mate` array and
//! statistics bit-identical to the serial partitioned driver, and reach
//! the Hopcroft-Karp maximum. Every assertion prints the seed so a
//! failure replays deterministically.

use cachegraph_graph::{generators, AdjacencyArray, Edge};
use cachegraph_matching::{
    find_matching_partitioned, find_matching_partitioned_parallel, hopcroft_karp, PartitionScheme,
};

const THREADS: &[usize] = &[1, 2, 4];

/// Assert the full matrix property for one graph under one seed label.
fn assert_matrix(n: usize, edges: &[Edge], schemes: &[PartitionScheme], seed: u64, label: &str) {
    let g = AdjacencyArray::from_edges(n, edges);
    let n_left = n / 2;
    let oracle = hopcroft_karp(&g, n_left);
    for &scheme in schemes {
        let (serial, sstats) = find_matching_partitioned(&g, n_left, scheme);
        assert_eq!(
            serial.size, oracle.size,
            "seed {seed:#x} {label} {scheme:?}: serial driver is not maximum"
        );
        for &threads in THREADS {
            let (par, pstats) =
                find_matching_partitioned_parallel(&g, n_left, edges, scheme, threads);
            assert_eq!(
                par.mate, serial.mate,
                "seed {seed:#x} {label} {scheme:?} threads {threads}: mate diverged"
            );
            assert_eq!(
                par.size, serial.size,
                "seed {seed:#x} {label} {scheme:?} threads {threads}: size diverged"
            );
            assert_eq!(
                pstats, sstats,
                "seed {seed:#x} {label} {scheme:?} threads {threads}: stats diverged"
            );
        }
    }
}

#[test]
fn two_vertices() {
    // The smallest bipartite graph: one left, one right, one edge.
    let edges = [Edge::new(0, 1, 1), Edge::new(1, 0, 1)];
    assert_matrix(2, &edges, &[PartitionScheme::Contiguous(1)], 0, "n=2");
}

#[test]
fn empty_edge_list() {
    for parts in [1, 2, 4] {
        assert_matrix(8, &[], &[PartitionScheme::Contiguous(parts)], 0, "empty");
    }
}

#[test]
fn ragged_partitions() {
    // Part counts that do not divide the sides evenly, including more
    // parts than left vertices (so some parts are empty).
    for seed in [0x5eed, 0xace0, 0xbeef] {
        let b = generators::random_bipartite(14, 0.25, seed);
        let schemes: Vec<PartitionScheme> =
            [3, 5, 6, 11].into_iter().map(PartitionScheme::Contiguous).collect();
        assert_matrix(14, b.edges(), &schemes, seed, "ragged");
    }
}

#[test]
fn disconnected_components() {
    for seed in [0x5eed, 0xace0] {
        // Left 0..8 pairs with right 16..24 only; left 8..16 with right
        // 24..32 only. Partitions cut across the component boundary.
        let mut edges = Vec::new();
        let half = generators::random_bipartite(16, 0.3, seed);
        for e in half.edges() {
            let (f, t) = (e.from, e.to);
            // Remap 0..8 left / 8..16 right into the two components.
            let shift = |v: u32| if v < 8 { v } else { v + 8 };
            edges.push(Edge::new(shift(f), shift(t), 1));
            edges.push(Edge::new(shift(f) + 8, shift(t) + 8, 1));
        }
        let schemes =
            [PartitionScheme::Contiguous(2), PartitionScheme::Contiguous(3), PartitionScheme::TwoWay];
        assert_matrix(32, &edges, &schemes, seed, "disconnected");
    }
}

#[test]
fn random_graph_sweep() {
    for seed in [0x5eed, 0xace0, 0xbeef, 0xcafe] {
        let b = generators::random_bipartite(32, 0.12, seed);
        let schemes = [
            PartitionScheme::Contiguous(1),
            PartitionScheme::Contiguous(4),
            PartitionScheme::TwoWay,
        ];
        assert_matrix(32, b.edges(), &schemes, seed, "random");
    }
}

#[test]
fn best_and_worst_case_structures() {
    for seed in [0x5eed, 0xace0] {
        let best = generators::matching_best_case(24, 4, 0.1, seed);
        assert_matrix(24, best.edges(), &[PartitionScheme::Contiguous(4)], seed, "best-case");
        let worst = generators::matching_worst_case(24, 4, 0.5, seed);
        assert_matrix(24, worst.edges(), &[PartitionScheme::Contiguous(4)], seed, "worst-case");
    }
}

#[test]
fn more_threads_than_parts() {
    for seed in [0x5eed] {
        let b = generators::random_bipartite(16, 0.2, seed);
        let g = AdjacencyArray::from_edges(16, b.edges());
        let (serial, _) = find_matching_partitioned(&g, 8, PartitionScheme::Contiguous(2));
        for threads in [8, 16] {
            let (par, _) = find_matching_partitioned_parallel(
                &g,
                8,
                b.edges(),
                PartitionScheme::Contiguous(2),
                threads,
            );
            assert_eq!(
                par.mate, serial.mate,
                "seed {seed:#x} threads {threads}: oversubscribed run diverged"
            );
        }
    }
}
