//! Randomized property tests: the three graph representations built from
//! one edge list must present identical adjacency, and shuffling the
//! build order must not change it. Cases come from a seeded PRNG.

use cachegraph_graph::{generators, Graph, VertexId};
use cachegraph_rng::StdRng;

fn sorted_adjacency<G: Graph>(g: &G) -> Vec<Vec<(VertexId, u32)>> {
    (0..g.num_vertices() as VertexId)
        .map(|v| {
            let mut n: Vec<_> = g.neighbors(v).collect();
            n.sort_unstable();
            n
        })
        .collect()
}

#[test]
fn representations_agree() {
    let mut rng = StdRng::seed_from_u64(0x4e95);
    for _ in 0..64 {
        let n = rng.gen_range(1usize..60);
        let density = rng.gen_range(0.0f64..0.6);
        let seed = rng.next_u64();
        let b = generators::random_directed(n.max(2), density, 50, seed);
        let arr = sorted_adjacency(&b.build_array());
        let list = sorted_adjacency(&b.build_list());
        let mat = sorted_adjacency(&b.build_matrix());
        assert_eq!(arr, list, "n={n} density={density} seed={seed}");
        assert_eq!(arr, mat, "n={n} density={density} seed={seed}");
    }
}

#[test]
fn shuffle_is_representation_invariant() {
    let mut rng = StdRng::seed_from_u64(0x5476);
    for _ in 0..64 {
        let n = rng.gen_range(2usize..60);
        let density = rng.gen_range(0.0f64..0.6);
        let seed = rng.next_u64();
        let mut b = generators::random_directed(n, density, 50, seed);
        let before = sorted_adjacency(&b.build_array());
        b.shuffle(seed.wrapping_add(1));
        let after_arr = sorted_adjacency(&b.build_array());
        let after_list = sorted_adjacency(&b.build_list());
        assert_eq!(before, after_arr, "n={n} density={density} seed={seed}");
        assert_eq!(before, after_list, "n={n} density={density} seed={seed}");
    }
}

#[test]
fn degrees_sum_to_edge_count() {
    let mut rng = StdRng::seed_from_u64(0xde64);
    for _ in 0..64 {
        let n = rng.gen_range(2usize..60);
        let density = rng.gen_range(0.0f64..0.6);
        let seed = rng.next_u64();
        let b = generators::random_directed(n, density, 50, seed);
        let g = b.build_array();
        let total: usize = (0..n as VertexId).map(|v| g.degree(v)).sum();
        assert_eq!(total, g.num_edges());
        assert_eq!(total, b.edges().len());
    }
}

#[test]
fn undirected_generator_is_symmetric() {
    let mut rng = StdRng::seed_from_u64(0x59e7);
    for _ in 0..64 {
        let n = rng.gen_range(2usize..50);
        let density = rng.gen_range(0.0f64..0.5);
        let seed = rng.next_u64();
        let b = generators::random_undirected(n, density, 50, seed);
        let g = b.build_array();
        for u in 0..n as VertexId {
            for (v, w) in g.neighbors(u) {
                assert!(
                    g.neighbors(v).any(|(x, xw)| x == u && xw == w),
                    "missing reverse arc ({v}, {u})"
                );
            }
        }
    }
}

#[test]
fn streamed_bipartite_equals_the_builders_left_arcs() {
    for n in [0usize, 2, 4, 48, 200, 2000] {
        for density in [0.0, 0.02, 0.3, 1.0] {
            for seed in [1u64, 5, 2101] {
                let at = format!("n={n} density={density} seed={seed}");
                let full = generators::random_bipartite(n, density, seed).build_array();
                let left = generators::random_bipartite_left(n, density, seed);
                assert_eq!(left.num_vertices(), n, "{at}");
                assert_eq!(2 * left.num_edges(), full.num_edges(), "{at}");
                for v in 0..(n / 2) as VertexId {
                    assert_eq!(left.arcs_of(v), full.arcs_of(v), "{at}: left vertex {v}");
                }
                for v in (n / 2) as VertexId..n as VertexId {
                    assert_eq!(left.degree(v), 0, "{at}: right vertex {v} has arcs");
                }
            }
        }
    }
}
