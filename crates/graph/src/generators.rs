//! Workload generators for the paper's experiments (§4).
//!
//! Random graphs are parameterised by *edge density* exactly as in the
//! paper: density `d` means each admissible vertex pair carries an edge
//! with probability `d`. Sampling uses geometric gap-skipping, so cost is
//! `O(E)` rather than `O(N²)` — necessary for the 64 K-vertex runs.
//!
//! All generators are deterministic in `seed`, so the adjacency-list and
//! adjacency-array sides of every comparison see identical graphs.

use cachegraph_rng::StdRng;

use crate::adj_array::{AdjacencyArray, Arc};
use crate::builder::EdgeListBuilder;
use crate::traits::{VertexId, Weight};

/// Iterate the indices of a Bernoulli(`density`) subset of `0..space`,
/// calling `f` for each selected index. Geometric gap-skipping: expected
/// work is `density * space`.
fn sample_indices(
    space: u64,
    density: f64,
    rng: &mut StdRng,
    mut f: impl FnMut(&mut StdRng, u64),
) {
    assert!((0.0..=1.0).contains(&density), "density must be in [0, 1]");
    if density <= 0.0 || space == 0 {
        return;
    }
    if density >= 1.0 {
        for i in 0..space {
            f(rng, i);
        }
        return;
    }
    let ln_q = (1.0 - density).ln();
    let mut pos: u64 = 0;
    loop {
        // Gap ~ Geometric(density): floor(ln(U) / ln(1 - density)).
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let gap = (u.ln() / ln_q).floor() as u64;
        pos = match pos.checked_add(gap) {
            Some(p) => p,
            None => return,
        };
        if pos >= space {
            return;
        }
        f(rng, pos);
        pos += 1;
    }
}

/// Uniform weight in `1..=max_weight`.
fn rand_weight(rng: &mut StdRng, max_weight: Weight) -> Weight {
    rng.gen_range(1..=max_weight.max(1))
}

/// Random directed graph: each ordered pair `(u, v)`, `u != v`, carries an
/// edge with probability `density`; weights uniform in `1..=max_weight`.
pub fn random_directed(n: usize, density: f64, max_weight: Weight, seed: u64) -> EdgeListBuilder {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = EdgeListBuilder::new(n);
    // Targets per source; an empty graph has no pairs to sample.
    let span = n.saturating_sub(1) as u64;
    sample_indices((n as u64) * span, density, &mut rng, |rng, idx| {
        let u = (idx / span) as VertexId;
        let mut v = (idx % span) as VertexId;
        if v >= u {
            v += 1; // skip the diagonal
        }
        let w = rand_weight(rng, max_weight);
        b.add(u, v, w);
    });
    b
}

/// Random undirected graph: each unordered pair `{u, v}` carries an edge
/// with probability `density`; both arcs are added with the same weight.
pub fn random_undirected(n: usize, density: f64, max_weight: Weight, seed: u64) -> EdgeListBuilder {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = EdgeListBuilder::new(n);
    let space = (n as u64) * (n as u64).saturating_sub(1) / 2;
    sample_indices(space, density, &mut rng, |rng, idx| {
        let (u, v) = unrank_pair(idx, n as u64);
        let w = rand_weight(rng, max_weight);
        b.add_undirected(u as VertexId, v as VertexId, w);
    });
    b
}

/// Invert the ranking of unordered pairs: rank `idx` -> `(u, v)`, `u < v`,
/// where pairs are ordered `(0,1), (0,2), ..., (0,n-1), (1,2), ...`.
fn unrank_pair(idx: u64, n: u64) -> (u64, u64) {
    // Find the largest u with S(u) = u*n - u*(u+1)/2 <= idx via the
    // quadratic formula, then fix up boundary cases.
    let fi = idx as f64;
    let fn_ = n as f64;
    let mut u = ((2.0 * fn_ - 1.0 - ((2.0 * fn_ - 1.0).powi(2) - 8.0 * fi).max(0.0).sqrt()) / 2.0)
        .floor() as u64;
    let s = |u: u64| u * n - u * (u + 1) / 2;
    while u > 0 && s(u) > idx {
        u -= 1;
    }
    while s(u + 1) <= idx {
        u += 1;
    }
    let v = u + 1 + (idx - s(u));
    (u, v)
}

/// Ensure an undirected graph is connected by threading a random-weight
/// Hamiltonian path through a random permutation of the vertices. Used for
/// Prim/MST workloads where a spanning tree must exist.
pub fn connect(b: &mut EdgeListBuilder, max_weight: Weight, seed: u64) {
    let n = b.num_vertices();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ffee);
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    // Fisher-Yates.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    for w in perm.windows(2) {
        let weight = rand_weight(&mut rng, max_weight);
        b.add_undirected(w[0], w[1], weight);
    }
}

/// The one sampling loop behind both bipartite generators: call `f(l, r)`
/// for each left-right pair drawn, in ascending `(l, r)` order (so left
/// vertices arrive in order).
fn bipartite_pairs(n: usize, density: f64, seed: u64, mut f: impl FnMut(VertexId, VertexId)) {
    assert!(n.is_multiple_of(2), "bipartite generator needs an even vertex count");
    let half = (n / 2) as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    sample_indices(half * half, density, &mut rng, |_, idx| {
        f((idx / half) as VertexId, (half + idx % half) as VertexId);
    });
}

/// Random bipartite graph exactly as in §4.4: `n` vertices, the first
/// `n/2` form the left side; each left-right pair carries an (undirected)
/// edge with probability `density`. Weights are 1 (matching is unweighted).
pub fn random_bipartite(n: usize, density: f64, seed: u64) -> EdgeListBuilder {
    let mut b = EdgeListBuilder::new(n);
    bipartite_pairs(n, density, seed, |l, r| {
        b.add_undirected(l, r, 1);
    });
    b
}

/// The left → right arcs of [`random_bipartite`]`(n, density, seed)`,
/// streamed straight into a CSR over all `n` vertices: the same arcs in
/// the same order, weight 1, and an empty arc range for every right
/// vertex. No edge list is built, and the matching solvers read only
/// these arcs.
pub fn random_bipartite_left(n: usize, density: f64, seed: u64) -> AdjacencyArray {
    let pairs = ((n / 2) * (n / 2)) as f64;
    // The mean arc count plus ample slack, so the arc array is allocated
    // once (an invalid density reserves nothing; the sampler rejects it).
    let mean = if (0.0..=1.0).contains(&density) { density * pairs } else { 0.0 };
    let mut arcs = Vec::with_capacity((mean + 8.0 * mean.sqrt() + 16.0).min(pairs) as usize);
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    bipartite_pairs(n, density, seed, |l, r| {
        while offsets.len() <= l as usize {
            offsets.push(arcs.len() as u32);
        }
        arcs.push(Arc { to: r, weight: 1 });
    });
    offsets.resize(n + 1, arcs.len() as u32);
    AdjacencyArray::from_parts(offsets, arcs)
}

/// Best-case matching instance (Fig. 18): a perfect matching aligned with
/// contiguous `p`-way partitioning (left block `k` pairs with right block
/// `k`), plus intra-block random noise edges. The local phase finds the
/// maximum matching, so almost no work remains at the global level.
pub fn matching_best_case(n: usize, parts: usize, noise_density: f64, seed: u64) -> EdgeListBuilder {
    assert!(n.is_multiple_of(2) && parts >= 1);
    let half = n / 2;
    assert!(half.is_multiple_of(parts), "left side must split evenly into parts");
    let block = half / parts;
    let mut b = EdgeListBuilder::new(n);
    // The aligned perfect matching.
    for i in 0..half {
        b.add_undirected(i as VertexId, (half + i) as VertexId, 1);
    }
    // Intra-block noise (kept inside each partition so it cannot mislead
    // the local phase into cross-block augmenting paths).
    let mut rng = StdRng::seed_from_u64(seed);
    for p in 0..parts {
        let lo = p * block;
        sample_indices((block * block) as u64, noise_density, &mut rng, |_, idx| {
            let l = lo + (idx as usize) / block;
            let r = half + lo + (idx as usize) % block;
            if r != half + l {
                b.add_undirected(l as VertexId, r as VertexId, 1);
            }
        });
    }
    b
}

/// Worst-case partition instance (§4.4): every edge joins left block `k`
/// to right block `k+1 (mod parts)`, so a contiguous `p`-way partition
/// finds **zero** internal edges and the local phase accomplishes nothing.
pub fn matching_worst_case(n: usize, parts: usize, density: f64, seed: u64) -> EdgeListBuilder {
    assert!(n.is_multiple_of(2) && parts >= 2);
    let half = n / 2;
    assert!(half.is_multiple_of(parts), "left side must split evenly into parts");
    let block = half / parts;
    let mut b = EdgeListBuilder::new(n);
    let mut rng = StdRng::seed_from_u64(seed);
    for p in 0..parts {
        let llo = p * block;
        let rlo = ((p + 1) % parts) * block;
        sample_indices((block * block) as u64, density, &mut rng, |_, idx| {
            let l = llo + (idx as usize) / block;
            let r = half + rlo + (idx as usize) % block;
            b.add_undirected(l as VertexId, r as VertexId, 1);
        });
    }
    b
}

/// Simple path `0 - 1 - ... - n-1` with constant weight (undirected).
pub fn path_graph(n: usize, weight: Weight) -> EdgeListBuilder {
    let mut b = EdgeListBuilder::new(n);
    for v in 1..n {
        b.add_undirected((v - 1) as VertexId, v as VertexId, weight);
    }
    b
}

/// Complete directed graph with uniform random weights.
pub fn complete_directed(n: usize, max_weight: Weight, seed: u64) -> EdgeListBuilder {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = EdgeListBuilder::new(n);
    for u in 0..n as VertexId {
        for v in 0..n as VertexId {
            if u != v {
                let w = rand_weight(&mut rng, max_weight);
                b.add(u, v, w);
            }
        }
    }
    b
}

/// 4-connected grid of `rows x cols` vertices, unit weights — a structured
/// sparse workload (e.g. the sensor-network use case from the paper's §1).
pub fn grid_graph(rows: usize, cols: usize) -> EdgeListBuilder {
    let mut b = EdgeListBuilder::new(rows * cols);
    let id = |r: usize, c: usize| (r * cols + c) as VertexId;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_undirected(id(r, c), id(r, c + 1), 1);
            }
            if r + 1 < rows {
                b.add_undirected(id(r, c), id(r + 1, c), 1);
            }
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Graph;

    #[test]
    fn density_is_respected_directed() {
        let n = 200;
        let b = random_directed(n, 0.1, 100, 42);
        let expect = 0.1 * (n * (n - 1)) as f64;
        let got = b.edges().len() as f64;
        assert!((got - expect).abs() < expect * 0.25, "expected ~{expect}, got {got}");
    }

    #[test]
    fn density_is_respected_undirected() {
        let n = 200;
        let b = random_undirected(n, 0.2, 100, 7);
        let expect = 0.2 * (n * (n - 1) / 2) as f64 * 2.0; // both arcs stored
        let got = b.edges().len() as f64;
        assert!((got - expect).abs() < expect * 0.25, "expected ~{expect}, got {got}");
    }

    #[test]
    fn deterministic_in_seed() {
        let a = random_directed(50, 0.3, 10, 99);
        let b = random_directed(50, 0.3, 10, 99);
        assert_eq!(a.edges(), b.edges());
        let c = random_directed(50, 0.3, 10, 100);
        assert_ne!(a.edges(), c.edges());
    }

    #[test]
    fn no_self_loops() {
        let b = random_directed(64, 0.5, 10, 3);
        assert!(b.edges().iter().all(|e| e.from != e.to));
    }

    #[test]
    fn unrank_pair_covers_all_pairs() {
        let n = 10u64;
        let mut seen = std::collections::HashSet::new();
        for idx in 0..n * (n - 1) / 2 {
            let (u, v) = unrank_pair(idx, n);
            assert!(u < v && v < n, "bad pair ({u},{v}) at {idx}");
            assert!(seen.insert((u, v)));
        }
        assert_eq!(seen.len(), 45);
    }

    #[test]
    fn bipartite_edges_cross_sides_only() {
        let b = random_bipartite(40, 0.3, 5);
        for e in b.edges() {
            let lu = (e.from as usize) < 20;
            let lv = (e.to as usize) < 20;
            assert_ne!(lu, lv, "edge inside one side: {e:?}");
        }
    }

    #[test]
    fn best_case_contains_perfect_matching() {
        let b = matching_best_case(16, 2, 0.2, 1);
        let g = b.build_array();
        for i in 0..8u32 {
            assert!(g.neighbors(i).any(|(v, _)| v == 8 + i), "pair edge missing for {i}");
        }
    }

    #[test]
    fn worst_case_has_no_aligned_block_edges() {
        let parts = 4;
        let n = 32;
        let b = matching_worst_case(n, parts, 0.8, 2);
        let block = n / 2 / parts;
        for e in b.edges() {
            let (l, r) = if (e.from as usize) < n / 2 { (e.from, e.to) } else { (e.to, e.from) };
            let lblock = (l as usize) / block;
            let rblock = (r as usize - n / 2) / block;
            assert_ne!(lblock, rblock, "aligned edge {e:?} defeats the worst case");
        }
    }

    #[test]
    fn connect_makes_graph_connected() {
        let mut b = EdgeListBuilder::new(50);
        connect(&mut b, 10, 8);
        let g = b.build_array();
        // BFS from 0 must reach everything.
        let mut seen = [false; 50];
        let mut stack = vec![0u32];
        seen[0] = true;
        while let Some(v) = stack.pop() {
            for (u, _) in g.neighbors(v) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    stack.push(u);
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn grid_has_expected_edge_count() {
        let b = grid_graph(3, 4);
        // 3*3 horizontal + 2*4 vertical = 17 undirected = 34 arcs.
        assert_eq!(b.edges().len(), 34);
    }

    #[test]
    fn complete_directed_has_all_arcs() {
        let b = complete_directed(5, 10, 0);
        assert_eq!(b.edges().len(), 20);
        let g = b.build_matrix();
        assert_eq!(g.num_edges(), 20);
    }

    #[test]
    fn density_zero_and_one() {
        // n = 0 and n = 1 have no pairs: empty graphs, in every build.
        for (n, pairs) in [(0, 0), (1, 0), (10, 90)] {
            assert_eq!(random_directed(n, 0.0, 5, 1).edges().len(), 0, "n={n}");
            assert_eq!(random_directed(n, 1.0, 5, 1).edges().len(), pairs, "n={n}");
            assert_eq!(random_undirected(n, 1.0, 5, 1).edges().len(), pairs, "n={n}");
            assert_eq!(random_directed(n, 1.0, 5, 1).num_vertices(), n, "n={n}");
        }
    }
}
