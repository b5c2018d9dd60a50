//! Edge-list builder producing any representation.

use crate::adj_array::AdjacencyArray;
use crate::adj_list::AdjacencyList;
use crate::adj_matrix::AdjacencyMatrix;
use crate::traits::{VertexId, Weight};
use crate::Edge;

/// Accumulates edges, then materialises them as any representation —
/// guaranteeing the representations under comparison contain *identical*
/// edge sets in identical insertion order.
#[derive(Clone, Debug, Default)]
pub struct EdgeListBuilder {
    n: usize,
    edges: Vec<Edge>,
}

impl EdgeListBuilder {
    /// Builder for a graph of `n` vertices.
    pub fn new(n: usize) -> Self {
        Self { n, edges: Vec::new() }
    }

    /// Append a directed edge.
    pub fn add(&mut self, from: VertexId, to: VertexId, weight: Weight) -> &mut Self {
        self.edges.push(Edge::new(from, to, weight));
        self
    }

    /// Append both directions of an undirected edge.
    pub fn add_undirected(&mut self, u: VertexId, v: VertexId, weight: Weight) -> &mut Self {
        self.edges.push(Edge::new(u, v, weight));
        self.edges.push(Edge::new(v, u, weight));
        self
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// The accumulated edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The transpose: every edge `u -> v` as `v -> u`, with the same
    /// weight, in the same order.
    pub fn reversed(&self) -> Self {
        let edges = self.edges.iter().map(|e| Edge::new(e.to, e.from, e.weight)).collect();
        Self { n: self.n, edges }
    }

    /// Shuffle the edge insertion order (Fisher-Yates, deterministic in
    /// `seed`). Adjacency-array contents are unaffected apart from
    /// within-vertex order, but the arena adjacency list's nodes become
    /// scattered in allocation order — modeling a program that builds its
    /// graph edge-by-edge with heap-allocated list nodes, which is the
    /// pointer-chasing baseline of §3.2. Call before `build_*`.
    pub fn shuffle(&mut self, seed: u64) -> &mut Self {
        let mut rng = cachegraph_rng::StdRng::seed_from_u64(seed ^ 0x5f3759df);
        for i in (1..self.edges.len()).rev() {
            let j = rng.gen_range(0..=i);
            self.edges.swap(i, j);
        }
        self
    }

    /// Materialise as an adjacency array (CSR).
    pub fn build_array(&self) -> AdjacencyArray {
        AdjacencyArray::from_edges(self.n, &self.edges)
    }

    /// Materialise as an arena adjacency list.
    pub fn build_list(&self) -> AdjacencyList {
        AdjacencyList::from_edges(self.n, &self.edges)
    }

    /// Materialise as a dense matrix.
    pub fn build_matrix(&self) -> AdjacencyMatrix {
        AdjacencyMatrix::from_edges(self.n, &self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Graph;

    #[test]
    fn representations_agree() {
        let mut b = EdgeListBuilder::new(5);
        b.add(0, 1, 3).add(1, 2, 4).add(4, 0, 9).add(1, 3, 2);
        let arr = b.build_array();
        let list = b.build_list();
        let mat = b.build_matrix();
        for v in 0..5u32 {
            let mut a: Vec<_> = arr.neighbors(v).collect();
            let mut l: Vec<_> = list.neighbors(v).collect();
            let mut m: Vec<_> = mat.neighbors(v).collect();
            a.sort_unstable();
            l.sort_unstable();
            m.sort_unstable();
            assert_eq!(a, l, "array vs list at {v}");
            assert_eq!(a, m, "array vs matrix at {v}");
        }
    }

    #[test]
    fn shuffle_preserves_edge_multiset() {
        let mut a = EdgeListBuilder::new(30);
        for v in 0..29u32 {
            a.add(v, v + 1, v + 1);
        }
        let mut before: Vec<_> = a.edges().to_vec();
        a.shuffle(7);
        let mut after: Vec<_> = a.edges().to_vec();
        assert_ne!(before, after, "order should change");
        before.sort_by_key(|e| (e.from, e.to));
        after.sort_by_key(|e| (e.from, e.to));
        assert_eq!(before, after, "multiset must be preserved");
    }

    #[test]
    fn reversed_flips_every_edge_in_order() {
        let mut b = EdgeListBuilder::new(3);
        b.add(0, 1, 3).add(2, 1, 4).add(1, 1, 5);
        let r = b.reversed();
        assert_eq!(r.num_vertices(), 3);
        assert_eq!(r.edges(), &[Edge::new(1, 0, 3), Edge::new(1, 2, 4), Edge::new(1, 1, 5)]);
    }

    #[test]
    fn undirected_adds_both_arcs() {
        let mut b = EdgeListBuilder::new(2);
        b.add_undirected(0, 1, 7);
        let g = b.build_array();
        assert_eq!(g.neighbors(0).next(), Some((1, 7)));
        assert_eq!(g.neighbors(1).next(), Some((0, 7)));
    }
}
