//! Seeded differential corpus for the bidirectional point-to-point
//! search: for every (source, target) pair of every graph, `distance_to`
//! over the graph and its transpose must equal
//! `dijkstra_binary_heap(..).dist[target]` bit for bit. The inputs are
//! seeded digraphs plus hostile shapes: n = 1, disconnected halves,
//! sinks and sources, self-loops and parallel edges, zero-weight edges
//! and cycles, and weights near `INF` whose two-hop sums saturate. Every
//! assertion prints the seed so a failure replays deterministically.

use cachegraph_graph::{generators, EdgeListBuilder, VertexId, Weight, INF};
use cachegraph_rng::StdRng;
use cachegraph_sssp::{bfs, dijkstra_binary_heap, distance_to, SsspResult};

/// Assert the property for every pair of one graph under one seed label,
/// and hand back each source's oracle for shape-specific checks.
fn assert_all_pairs(b: &EdgeListBuilder, seed: u64, label: &str) -> Vec<SsspResult> {
    let g = b.build_array();
    let r = b.reversed().build_array();
    let n = b.num_vertices() as VertexId;
    (0..n)
        .map(|s| {
            let oracle = dijkstra_binary_heap(&g, s);
            for t in 0..n {
                let d = distance_to(&g, &r, s, t, &mut || false);
                assert_eq!(
                    d,
                    Ok(oracle.dist[t as usize]),
                    "seed {seed:#x} {label}: {s} -> {t} diverged from dijkstra"
                );
            }
            oracle
        })
        .collect()
}

/// `n` and a density for one seed: small enough to run every pair.
fn shape(rng: &mut StdRng) -> (usize, f64) {
    (rng.gen_range(2..=40usize), rng.gen_range(0.02..0.4))
}

/// A random digraph whose weights are drawn from `weights`.
fn with_weights(n: usize, density: f64, weights: &[Weight], rng: &mut StdRng) -> EdgeListBuilder {
    let mut b = EdgeListBuilder::new(n);
    for e in generators::random_directed(n, density, 1, rng.next_u64()).edges() {
        b.add(e.from, e.to, weights[rng.gen_range(0..weights.len())]);
    }
    b
}

#[test]
fn single_vertex() {
    assert_all_pairs(&EdgeListBuilder::new(1), 0, "n=1");
    let mut looped = EdgeListBuilder::new(1);
    looped.add(0, 0, 5).add(0, 0, 0);
    assert_all_pairs(&looped, 0, "n=1 self-loops");
}

#[test]
fn seeded_digraphs() {
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (n, density) = shape(&mut rng);
        let max_weight = [1, 10, 1000][rng.gen_range(0..3usize)];
        let b = generators::random_directed(n, density, max_weight, seed);
        assert_all_pairs(&b, seed, "random");
    }
}

#[test]
fn disconnected_halves() {
    for seed in 1000..1040u64 {
        // Two random halves with no cross edges, then the same pair with
        // one one-way bridge: the far half stays INF from the near one,
        // and the bridge is reachable in one direction only.
        let mut rng = StdRng::seed_from_u64(seed);
        let (half, density) = shape(&mut rng);
        let h = half as VertexId;
        let edges = generators::random_directed(half, density, 20, seed);
        let mut b = EdgeListBuilder::new(2 * half);
        for e in edges.edges() {
            b.add(e.from, e.to, e.weight);
            b.add(e.from + h, e.to + h, e.weight);
        }
        let oracles = assert_all_pairs(&b, seed, "disconnected");
        assert!(
            oracles[0].dist[half..].iter().all(|&d| d == INF),
            "seed {seed:#x}: the far half got a finite distance"
        );
        b.add(rng.gen_range(0..h), h + rng.gen_range(0..h), 7);
        assert_all_pairs(&b, seed, "one-way bridge");
    }
}

#[test]
fn sinks_and_sources() {
    for seed in 2000..2040u64 {
        // Every fifth vertex keeps no out-arc (a sink), the next one no
        // in-arc (a source); a vertex can be both, i.e. isolated.
        let mut rng = StdRng::seed_from_u64(seed);
        let (n, density) = shape(&mut rng);
        let mut b = EdgeListBuilder::new(n);
        for e in generators::random_directed(n, density.max(0.2), 30, seed).edges() {
            if e.from % 5 != 0 && e.to % 5 != 1 {
                b.add(e.from, e.to, e.weight);
            }
        }
        assert_all_pairs(&b, seed, "sinks/sources");
    }
}

#[test]
fn self_loops_and_parallel_edges() {
    for seed in 3000..3040u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (n, density) = shape(&mut rng);
        let mut b = EdgeListBuilder::new(n);
        for e in generators::random_directed(n, density, 50, seed).edges() {
            b.add(e.from, e.to, e.weight);
            // A parallel arc, heavier or lighter than the first.
            b.add(e.from, e.to, rng.gen_range(0..=100u32));
        }
        for v in 0..n as VertexId {
            b.add(v, v, rng.gen_range(0..=10u32));
        }
        b.shuffle(seed);
        assert_all_pairs(&b, seed, "self-loops/parallel");
    }
}

#[test]
fn zero_weight_edges_and_cycles() {
    for seed in 4000..4040u64 {
        // A zero-weight cycle through every vertex of the first half,
        // zero-weight two-cycles, and random chords weighing 0..=3.
        let mut rng = StdRng::seed_from_u64(seed);
        let (n, density) = shape(&mut rng);
        let mut b = with_weights(n, density, &[0, 0, 1, 2, 3], &mut rng);
        let ring = (n / 2).max(1) as VertexId;
        for v in 0..ring {
            b.add(v, (v + 1) % ring, 0);
        }
        for _ in 0..n / 4 {
            let (u, v) = (rng.gen_range(0..n as VertexId), rng.gen_range(0..n as VertexId));
            b.add(u, v, 0).add(v, u, 0);
        }
        assert_all_pairs(&b, seed, "zero-weight");
    }
}

#[test]
fn weights_near_inf_saturate_like_the_oracle() {
    // Two hops of INF/2 + 1 saturate to INF, two of INF/2 stay finite at
    // INF - 1, and INF - 1 plus anything saturates.
    let half = INF / 2;
    let weights = [1, 2, half - 1, half, half + 1, INF - 2, INF - 1];
    let (mut near_inf, mut saturated) = (0usize, 0usize);
    for seed in 5000..5040u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (n, density) = shape(&mut rng);
        let b = with_weights(n, density.max(0.1), &weights, &mut rng);
        let g = b.build_array();
        for (s, oracle) in assert_all_pairs(&b, seed, "near-INF").iter().enumerate() {
            let hops = bfs(&g, s as VertexId).hops;
            for (d, h) in oracle.dist.iter().zip(hops) {
                near_inf += usize::from(*d != INF && *d >= half);
                saturated += usize::from(*d == INF && h != u32::MAX);
            }
        }
    }
    assert!(near_inf > 0, "no distance landed in [INF/2, INF)");
    assert!(saturated > 0, "no reachable pair saturated to INF");
}
