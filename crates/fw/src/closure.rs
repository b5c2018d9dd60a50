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
//! One implementation is provided: the straightforward iterative one on
//! bit-packed rows. The query daemon builds no closure: it answers
//! reachability from its distances, where a finite distance is a path.

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
