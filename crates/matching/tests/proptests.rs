//! Randomized property tests: all matching implementations agree and
//! every result carries a König maximality certificate. Instances are
//! drawn from a seeded PRNG so runs are deterministic and offline.

use cachegraph_graph::{generators, AdjacencyArray};
use cachegraph_matching::{
    find_matching, find_matching_partitioned, hopcroft_karp, maxflow, verify, Matching,
    PartitionScheme,
};
use cachegraph_rng::StdRng;

#[test]
fn all_implementations_agree() {
    let mut rng = StdRng::seed_from_u64(0x4a11);
    for _ in 0..48 {
        let half = rng.gen_range(2usize..40);
        let density = rng.gen_range(0.02f64..0.4);
        let seed = rng.next_u64();
        let n = 2 * half;
        let b = generators::random_bipartite(n, density, seed);
        let g = AdjacencyArray::from_edges(n, b.edges());
        let ap = find_matching(&g, half, Matching::empty(n));
        let hk = hopcroft_karp(&g, half);
        let flow = maxflow::matching_by_flow(n, half, b.edges());
        assert_eq!(ap.size, hk.size, "half={half} density={density} seed={seed}");
        assert_eq!(ap.size as u64, flow, "half={half} density={density} seed={seed}");
    }
}

#[test]
fn partitioned_is_maximum_with_konig_certificate() {
    let mut rng = StdRng::seed_from_u64(0x9a97);
    for _ in 0..48 {
        let half = rng.gen_range(2usize..32);
        let density = rng.gen_range(0.02f64..0.4);
        let parts = rng.gen_range(1usize..5);
        let seed = rng.next_u64();
        let n = 2 * half;
        let b = generators::random_bipartite(n, density, seed);
        let g = AdjacencyArray::from_edges(n, b.edges());
        let (m, _) = find_matching_partitioned(&g, half, PartitionScheme::Contiguous(parts));
        verify::assert_maximum(&g, half, &m);
    }
}

#[test]
fn two_way_scheme_is_maximum() {
    let mut rng = StdRng::seed_from_u64(0x2307);
    for _ in 0..48 {
        let half = rng.gen_range(2usize..32);
        let density = rng.gen_range(0.02f64..0.4);
        let seed = rng.next_u64();
        let n = 2 * half;
        let b = generators::random_bipartite(n, density, seed);
        let g = AdjacencyArray::from_edges(n, b.edges());
        let (m, _) = find_matching_partitioned(&g, half, PartitionScheme::TwoWay);
        verify::assert_maximum(&g, half, &m);
    }
}

#[test]
fn local_phase_never_exceeds_maximum() {
    let mut rng = StdRng::seed_from_u64(0x10c4);
    for _ in 0..48 {
        let half = rng.gen_range(2usize..24);
        let density = rng.gen_range(0.05f64..0.4);
        let seed = rng.next_u64();
        let n = 2 * half;
        let b = generators::random_bipartite(n, density, seed);
        let g = AdjacencyArray::from_edges(n, b.edges());
        let oracle = hopcroft_karp(&g, half).size;
        let (m, stats) = find_matching_partitioned(&g, half, PartitionScheme::Contiguous(2));
        assert!(stats.local_matched <= oracle, "half={half} density={density} seed={seed}");
        assert_eq!(m.size, oracle, "half={half} density={density} seed={seed}");
    }
}
