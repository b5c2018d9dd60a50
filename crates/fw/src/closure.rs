//! Transitive closure — the boolean-semiring Floyd-Warshall.
//!
//! The paper introduces Floyd-Warshall as solving "the all-pairs shortest
//! paths problem, also referred to as transitive closure problem" (§1),
//! and cites the companion study \[34\] (*Cache-Friendly Implementations of
//! Transitive Closure*). Over the boolean (OR-AND) semiring the distance
//! matrix becomes a reachability matrix, and rows pack 64 vertices per
//! machine word: the inner `j` loop turns into word-wide ORs, giving a
//! 64x denser working set than the `u32` distance kernels — the layout
//! lessons apply unchanged, the constants just shift.
//!
//! Two implementations are provided: the straightforward iterative one
//! and a tiled one with the same Fig. 4 phase structure as
//! [`fw_tiled`](crate::fw_tiled), both on bit-packed rows.

use cachegraph_graph::{Graph, VertexId};

/// A bit-packed `n x n` boolean matrix: row `i`, bit `j` set means "j is
/// reachable from i".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitMatrix {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// An all-false matrix.
    pub fn new(n: usize) -> Self {
        let words_per_row = n.div_ceil(64);
        Self { n, words_per_row, bits: vec![0; n * words_per_row] }
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Read bit `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        self.bits[i * self.words_per_row + j / 64] >> (j % 64) & 1 == 1
    }

    /// Set bit `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize) {
        self.bits[i * self.words_per_row + j / 64] |= 1 << (j % 64);
    }

    /// Words per bit-packed row (the word stride of the footprint
    /// units used by the parallel closure driver).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The raw bit words, row-major — row `i` is
    /// `bits()[i * words_per_row()..][..words_per_row()]`. Exposed for
    /// the parallel closure driver's checker, which replays row tasks
    /// against shadow memory at word granularity.
    pub fn bits(&self) -> &[u64] {
        &self.bits
    }

    /// Mutable raw bit words, row-major.
    pub fn bits_mut(&mut self) -> &mut [u64] {
        &mut self.bits
    }

    /// `row(dst) |= row(src)`; returns true if `dst` changed.
    pub(crate) fn or_row_into(&mut self, src: usize, dst: usize) -> bool {
        debug_assert_ne!(src, dst);
        let w = self.words_per_row;
        let (s, d) = (src * w, dst * w);
        let mut changed = false;
        // Split-borrow the two disjoint rows.
        if s < d {
            let (lo, hi) = self.bits.split_at_mut(d);
            for (dw, &sw) in hi[..w].iter_mut().zip(&lo[s..s + w]) {
                let new = *dw | sw;
                changed |= new != *dw;
                *dw = new;
            }
        } else {
            let (lo, hi) = self.bits.split_at_mut(s);
            for (dw, &sw) in lo[d..d + w].iter_mut().zip(&hi[..w]) {
                let new = *dw | sw;
                changed |= new != *dw;
                *dw = new;
            }
        }
        changed
    }

    /// Build the adjacency relation of `g` with a reflexive diagonal.
    pub fn from_graph<G: Graph>(g: &G) -> Self {
        let n = g.num_vertices();
        let mut m = Self::new(n);
        for v in 0..n {
            m.set(v, v);
            for (u, _) in g.neighbors(v as VertexId) {
                m.set(v, u as usize);
            }
        }
        m
    }
}

/// Transitive closure by the iterative boolean Floyd-Warshall:
/// for each `k`, every row with bit `k` set ORs in row `k`.
pub fn transitive_closure(mut reach: BitMatrix) -> BitMatrix {
    let n = reach.n;
    for k in 0..n {
        for i in 0..n {
            if i != k && reach.get(i, k) {
                reach.or_row_into(k, i);
            }
        }
    }
    reach
}

/// Transitive closure of a graph (adjacency + reflexivity), iteratively.
pub fn transitive_closure_of<G: Graph>(g: &G) -> BitMatrix {
    transitive_closure(BitMatrix::from_graph(g))
}

/// Tiled transitive closure with the Fig. 4 phase structure: tiles are
/// `b` *rows* x `b` *column-words* of 64 bits; each block iteration
/// closes the diagonal row-band first, then propagates it. Equivalent to
/// the iterative version (the boolean semiring satisfies Claim 1 like
/// min-plus: extra ORs of already-reachable sets are idempotent).
pub fn transitive_closure_tiled(mut reach: BitMatrix, b: usize) -> BitMatrix {
    assert!(b >= 1, "band height must be at least 1");
    let n = reach.n;
    let bands = n.div_ceil(b);
    for band in 0..bands {
        let lo = band * b;
        let hi = (lo + b).min(n);
        // Phase 1: close the band against itself.
        for k in lo..hi {
            for i in lo..hi {
                if i != k && reach.get(i, k) {
                    reach.or_row_into(k, i);
                }
            }
        }
        // Phase 2: propagate the closed band into every other row.
        for k in lo..hi {
            for i in 0..n {
                if (i < lo || i >= hi) && reach.get(i, k) {
                    reach.or_row_into(k, i);
                }
            }
        }
        // No further phase is needed: for every k the band rows use
        // intermediates up to the band end and outside rows use the fully
        // closed band row — both are the `k' >= k - 1` relaxation Claim 1
        // licenses, so one pass computes the exact closure just as the
        // plain iteration does.
    }
    reach
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegraph_graph::{generators, EdgeListBuilder};

    /// Reference: BFS reachability from every vertex.
    fn closure_by_bfs<G: Graph>(g: &G) -> BitMatrix {
        let n = g.num_vertices();
        let mut m = BitMatrix::new(n);
        for s in 0..n as VertexId {
            let mut stack = vec![s];
            m.set(s as usize, s as usize);
            while let Some(u) = stack.pop() {
                for (v, _) in g.neighbors(u) {
                    if !m.get(s as usize, v as usize) {
                        m.set(s as usize, v as usize);
                        stack.push(v);
                    }
                }
            }
        }
        m
    }

    #[test]
    fn matches_bfs_on_random_graphs() {
        for seed in 0..6 {
            let g = generators::random_directed(80, 0.03, 1, seed).build_array();
            let expect = closure_by_bfs(&g);
            assert_eq!(transitive_closure_of(&g), expect, "seed {seed}");
        }
    }

    #[test]
    fn tiled_matches_iterative() {
        for seed in 0..6 {
            let g = generators::random_directed(70, 0.04, 1, 100 + seed).build_array();
            let base = transitive_closure_of(&g);
            for b in [1usize, 7, 16, 64, 100] {
                let tiled = transitive_closure_tiled(BitMatrix::from_graph(&g), b);
                assert_eq!(tiled, base, "seed {seed} b {b}");
            }
        }
    }

    #[test]
    fn chain_is_upper_triangular() {
        let mut b = EdgeListBuilder::new(5);
        for v in 0..4u32 {
            b.add(v, v + 1, 1);
        }
        let c = transitive_closure_of(&b.build_array());
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(c.get(i, j), j >= i, "({i},{j})");
            }
        }
    }

    #[test]
    fn cycle_reaches_everything() {
        let mut b = EdgeListBuilder::new(4);
        for v in 0..4u32 {
            b.add(v, (v + 1) % 4, 1);
        }
        let c = transitive_closure_of(&b.build_array());
        for i in 0..4 {
            for j in 0..4 {
                assert!(c.get(i, j));
            }
        }
    }

    #[test]
    fn word_boundary_sizes() {
        // n = 64, 65: exercise the packing edge.
        for n in [64usize, 65, 129] {
            let mut b = EdgeListBuilder::new(n);
            for v in 0..(n - 1) as u32 {
                b.add(v, v + 1, 1);
            }
            let c = transitive_closure_of(&b.build_array());
            assert!(c.get(0, n - 1));
            assert!(!c.get(n - 1, 0));
        }
    }

    #[test]
    fn closure_agrees_with_finite_fw_distances() {
        use crate::{fw_iterative_slice, INF};
        let g = generators::random_directed(40, 0.08, 9, 3);
        let mut dist = g.build_matrix().costs().to_vec();
        fw_iterative_slice(&mut dist, 40);
        let c = transitive_closure_of(&g.build_array());
        for i in 0..40 {
            for j in 0..40 {
                assert_eq!(c.get(i, j), dist[i * 40 + j] != INF, "({i},{j})");
            }
        }
    }
}
