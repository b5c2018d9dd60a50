//! One seeded corpus of hostile shapes for every Fig. 7 entry. Every
//! Dijkstra (each queue, each representation, the target-pruned search
//! and the cache-simulated runs) must give Bellman-Ford's distances, and
//! every Prim (each queue, each representation and the simulated runs)
//! must give Kruskal's weight over the root's component and span exactly
//! that component. The shapes are the ones random graphs never produce:
//! a single vertex, zero weights, weights whose two-hop sums saturate at
//! `INF`, disconnected halves, self-loops and parallel edges. Every
//! message names the shape and the seed that built the instance.

use cachegraph_graph::{EdgeListBuilder, Graph, VertexId, Weight, INF};
use cachegraph_pq::{DAryHeap, FibonacciHeap, IndexedBinaryHeap, PairingHeap, RadixHeap};
use cachegraph_rng::StdRng;
use cachegraph_sim::profiles;
use cachegraph_sssp::instrumented::{
    sim_dijkstra_adj_array, sim_dijkstra_adj_list, sim_prim_adj_array, sim_prim_adj_list,
};
use cachegraph_sssp::{bellman_ford, dijkstra, dijkstra_to, kruskal, prim, UnionFind};

/// Seeds per shape.
const SEEDS: u64 = 120;

/// Weights whose two-hop sums saturate: `INF / 2 + (INF / 2 + 1)` is
/// exactly `INF`, `INF / 2 + INF / 2` is `INF - 1`, and `INF - 1` or
/// `INF - 2` plus any other of them overflows.
const NEAR_INF: [Weight; 4] = [INF - 1, INF - 2, INF / 2, INF / 2 + 1];

#[derive(Clone, Copy, Debug)]
enum Shape {
    /// One vertex, no edges.
    Single,
    /// One vertex carrying self-loops.
    SingleWithLoops,
    /// Random edges, most of them weighing zero (zero-weight cycles).
    ZeroWeights,
    /// Random edges weighing [`NEAR_INF`] values, with a few small ones.
    NearInf,
    /// Two halves with no edge between them.
    Halves,
    /// Two halves joined by one arc from the first into the second.
    HalvesOneWayBridge,
    /// Random edges plus self-loops and parallel copies of edges.
    LoopsAndParallel,
    /// All of the above at once: halves with a bridge, zero and near-INF
    /// weights, self-loops and parallel edges.
    Mixed,
}

const SHAPES: [Shape; 8] = [
    Shape::Single,
    Shape::SingleWithLoops,
    Shape::ZeroWeights,
    Shape::NearInf,
    Shape::Halves,
    Shape::HalvesOneWayBridge,
    Shape::LoopsAndParallel,
    Shape::Mixed,
];

/// One corpus instance: the vertex count and its edges as `(u, v, w)`.
struct Instance {
    n: usize,
    edges: Vec<(VertexId, VertexId, Weight)>,
}

impl Instance {
    /// The instance for `shape` and `seed`.
    fn new(shape: Shape, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9) ^ shape as u64);
        let n = match shape {
            Shape::Single | Shape::SingleWithLoops => 1,
            _ => rng.gen_range(2usize..=24),
        };
        let mut inst = Self { n, edges: Vec::new() };
        let half = (n / 2).max(1) as VertexId;
        match shape {
            Shape::Single => {}
            Shape::SingleWithLoops => {
                for _ in 0..rng.gen_range(1..=3) {
                    inst.edges.push((0, 0, rng.gen_range(0..=5)));
                }
            }
            Shape::ZeroWeights => inst.random_edges(&mut rng, 0..n as VertexId, |r| {
                if r.gen_bool(0.7) {
                    0
                } else {
                    r.gen_range(1..=3)
                }
            }),
            Shape::NearInf => inst.random_edges(&mut rng, 0..n as VertexId, |r| {
                if r.gen_bool(0.8) {
                    NEAR_INF[r.gen_range(0..NEAR_INF.len())]
                } else {
                    r.gen_range(0..=3)
                }
            }),
            Shape::Halves | Shape::HalvesOneWayBridge => {
                inst.random_edges(&mut rng, 0..half, |r| r.gen_range(1..=9));
                inst.random_edges(&mut rng, half..n as VertexId, |r| r.gen_range(1..=9));
                if matches!(shape, Shape::HalvesOneWayBridge) && half < n as VertexId {
                    let u = rng.gen_range(0..half);
                    let v = rng.gen_range(half..n as VertexId);
                    inst.edges.push((u, v, rng.gen_range(0..=9)));
                }
            }
            Shape::LoopsAndParallel => {
                inst.random_edges(&mut rng, 0..n as VertexId, |r| r.gen_range(1..=9));
                inst.loops_and_copies(&mut rng, |r| r.gen_range(0..=9));
            }
            Shape::Mixed => {
                let weight = |r: &mut StdRng| match r.gen_range(0..3) {
                    0 => 0,
                    1 => NEAR_INF[r.gen_range(0..NEAR_INF.len())],
                    _ => r.gen_range(1..=9),
                };
                inst.random_edges(&mut rng, 0..half, weight);
                inst.random_edges(&mut rng, half..n as VertexId, weight);
                if half < n as VertexId {
                    let u = rng.gen_range(0..half);
                    let v = rng.gen_range(half..n as VertexId);
                    inst.edges.push((u, v, weight(&mut rng)));
                }
                inst.loops_and_copies(&mut rng, weight);
            }
        }
        inst
    }

    /// Random edges between distinct vertices of `range`, about two per
    /// vertex, weighed by `weight`.
    fn random_edges(
        &mut self,
        rng: &mut StdRng,
        range: std::ops::Range<VertexId>,
        weight: impl Fn(&mut StdRng) -> Weight,
    ) {
        if range.len() < 2 {
            return;
        }
        for _ in 0..2 * range.len() {
            let u = rng.gen_range(range.clone());
            let v = rng.gen_range(range.clone());
            if u != v {
                let w = weight(rng);
                self.edges.push((u, v, w));
            }
        }
    }

    /// Self-loops on random vertices and parallel copies of random edges
    /// under fresh weights.
    fn loops_and_copies(&mut self, rng: &mut StdRng, weight: impl Fn(&mut StdRng) -> Weight) {
        for _ in 0..self.n.div_ceil(2) {
            let v = rng.gen_range(0..self.n as VertexId);
            let w = weight(rng);
            self.edges.push((v, v, w));
        }
        for _ in 0..self.edges.len() / 2 {
            let (u, v, _) = self.edges[rng.gen_range(0..self.edges.len())];
            let w = weight(rng);
            self.edges.push((u, v, w));
        }
    }

    fn directed(&self) -> EdgeListBuilder {
        let mut b = EdgeListBuilder::new(self.n);
        for &(u, v, w) in &self.edges {
            b.add(u, v, w);
        }
        b
    }

    fn undirected(&self) -> EdgeListBuilder {
        let mut b = EdgeListBuilder::new(self.n);
        for &(u, v, w) in &self.edges {
            b.add_undirected(u, v, w);
        }
        b
    }
}

/// Every corpus instance with the tag its messages carry.
fn corpus() -> impl Iterator<Item = (String, Instance)> {
    SHAPES.into_iter().flat_map(|shape| {
        (0..SEEDS).map(move |seed| (format!("{shape:?} seed={seed}"), Instance::new(shape, seed)))
    })
}

#[test]
fn every_dijkstra_matches_bellman_ford_on_hostile_shapes() {
    for (tag, inst) in corpus() {
        let b = inst.directed();
        let (arr, list, mat) = (b.build_array(), b.build_list(), b.build_matrix());
        for source in [0, inst.n as VertexId - 1] {
            let expect = bellman_ford(&arr, source).dist;
            let at = format!("{tag} source={source}");
            assert_eq!(dijkstra::<_, IndexedBinaryHeap>(&arr, source).dist, expect, "{at}: binary");
            assert_eq!(dijkstra::<_, DAryHeap<4>>(&arr, source).dist, expect, "{at}: 4-ary");
            assert_eq!(dijkstra::<_, FibonacciHeap>(&arr, source).dist, expect, "{at}: fibonacci");
            assert_eq!(dijkstra::<_, PairingHeap>(&arr, source).dist, expect, "{at}: pairing");
            assert_eq!(dijkstra::<_, RadixHeap>(&arr, source).dist, expect, "{at}: radix");
            assert_eq!(dijkstra::<_, IndexedBinaryHeap>(&list, source).dist, expect, "{at}: list");
            assert_eq!(dijkstra::<_, IndexedBinaryHeap>(&mat, source).dist, expect, "{at}: matrix");
            let sim_a = sim_dijkstra_adj_array(&arr, source, profiles::simplescalar());
            assert_eq!(sim_a.keys, expect, "{at}: simulated array");
            let sim_l = sim_dijkstra_adj_list(&list, source, profiles::simplescalar());
            assert_eq!(sim_l.keys, expect, "{at}: simulated list");
            for t in 0..inst.n as VertexId {
                let pruned = dijkstra_to(&arr, source, Some(t), &mut || false)
                    .unwrap_or_else(|_| panic!("{at}: a poll that never fires cancelled"));
                assert_eq!(pruned.dist[t as usize], expect[t as usize], "{at} target={t}");
            }
        }
    }
}

/// Kruskal's weight over `root`'s component, and that component's size.
fn kruskal_over_component(inst: &Instance, b: &EdgeListBuilder, root: VertexId) -> (u64, usize) {
    let mut uf = UnionFind::new(inst.n);
    for e in b.edges() {
        uf.union(e.from, e.to);
    }
    let r = uf.find(root);
    let inside: Vec<_> = b.edges().iter().filter(|e| uf.find(e.from) == r).copied().collect();
    let size = (0..inst.n as VertexId).filter(|&v| uf.find(v) == r).count();
    (kruskal(inst.n, &inside).0, size)
}

#[test]
fn every_prim_matches_kruskal_on_hostile_shapes() {
    for (tag, inst) in corpus() {
        let b = inst.undirected();
        let (arr, list, mat) = (b.build_array(), b.build_list(), b.build_matrix());
        assert_eq!(arr.num_vertices(), inst.n, "{tag}");
        for root in [0, inst.n as VertexId - 1] {
            let at = format!("{tag} root={root}");
            let want = kruskal_over_component(&inst, &b, root);
            let runs = [
                ("binary", prim::<_, IndexedBinaryHeap>(&arr, root)),
                ("4-ary", prim::<_, DAryHeap<4>>(&arr, root)),
                ("fibonacci", prim::<_, FibonacciHeap>(&arr, root)),
                ("pairing", prim::<_, PairingHeap>(&arr, root)),
                ("list", prim::<_, IndexedBinaryHeap>(&list, root)),
                ("matrix", prim::<_, IndexedBinaryHeap>(&mat, root)),
            ];
            for (name, mst) in runs {
                assert_eq!((mst.total_weight, mst.tree_size), want, "{at}: {name}");
            }
            let sims = [
                ("simulated array", sim_prim_adj_array(&arr, root, profiles::simplescalar())),
                ("simulated list", sim_prim_adj_list(&list, root, profiles::simplescalar())),
            ];
            for (name, sim) in sims {
                let tree_size = sim.keys.iter().filter(|&&k| k != INF).count();
                assert_eq!((sim.total, tree_size), want, "{at}: {name}");
            }
        }
    }
}
