//! The adjacency-array representation (paper §3.2).
//!
//! For each vertex there is an array whose size is exactly the vertex's
//! out-degree; each element stores the cost of the edge and the index of
//! the adjacent node. All per-vertex arrays are packed back-to-back, so the
//! structure is `O(N + E)` (optimal) *and* contiguous: traversal is a
//! streaming scan, minimising cache pollution and maximising hardware
//! prefetching. This is a compressed-sparse-row structure.

use crate::traits::{Graph, VertexId, Weight};
use crate::Edge;

/// One packed arc: target vertex plus weight (8 bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arc {
    /// Target vertex.
    pub to: VertexId,
    /// Edge weight.
    pub weight: Weight,
}

/// CSR-style adjacency array.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdjacencyArray {
    /// `offsets[v] .. offsets[v + 1]` indexes `arcs` for vertex `v`.
    offsets: Vec<u32>,
    arcs: Vec<Arc>,
}

impl AdjacencyArray {
    /// Build from an edge list. Arcs of each vertex end up contiguous,
    /// in the order the edges appear in `edges`.
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        let mut degree = vec![0u32; n + 1];
        for e in edges {
            assert!((e.from as usize) < n && (e.to as usize) < n, "edge endpoint out of range");
            degree[e.from as usize + 1] += 1;
        }
        let mut offsets = degree;
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets.clone();
        let mut arcs = vec![Arc { to: 0, weight: 0 }; edges.len()];
        for e in edges {
            let c = &mut cursor[e.from as usize];
            arcs[*c as usize] = Arc { to: e.to, weight: e.weight };
            *c += 1;
        }
        Self { offsets, arcs }
    }

    /// Build from CSR parts: `offsets[v] .. offsets[v + 1]` indexes
    /// `arcs` for vertex `v`, so the graph has `offsets.len() - 1`
    /// vertices. Panics unless `offsets` starts at 0, never decreases
    /// and ends at `arcs.len()`, and every arc targets a vertex of the
    /// graph.
    pub fn from_parts(offsets: Vec<u32>, arcs: Vec<Arc>) -> Self {
        assert_eq!(offsets.first(), Some(&0), "offsets must start at 0");
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offsets must not decrease");
        assert_eq!(
            offsets.last().map(|&o| o as usize),
            Some(arcs.len()),
            "offsets must end at the arc count"
        );
        let n = offsets.len() - 1;
        assert!(arcs.iter().all(|a| (a.to as usize) < n), "arc target out of range");
        Self { offsets, arcs }
    }

    /// The offset array (exposed for instrumented traversal).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The packed arc array (exposed for instrumented traversal).
    pub fn arcs(&self) -> &[Arc] {
        &self.arcs
    }

    /// The arcs of one vertex as a slice.
    #[inline]
    pub fn arcs_of(&self, v: VertexId) -> &[Arc] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.arcs[lo..hi]
    }
}

/// Iterator over one vertex's packed arcs, as `(target, weight)`.
#[derive(Clone, Debug)]
pub struct ArcNeighbors<'a> {
    arcs: std::slice::Iter<'a, Arc>,
}

impl Iterator for ArcNeighbors<'_> {
    type Item = (VertexId, Weight);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        self.arcs.next().map(|a| (a.to, a.weight))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.arcs.size_hint()
    }
}

impl ExactSizeIterator for ArcNeighbors<'_> {}

impl Graph for AdjacencyArray {
    type Neighbors<'a> = ArcNeighbors<'a>;

    fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    fn num_edges(&self) -> usize {
        self.arcs.len()
    }

    fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> Self::Neighbors<'_> {
        ArcNeighbors { arcs: self.arcs_of(v).iter() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AdjacencyArray {
        AdjacencyArray::from_edges(
            4,
            &[Edge::new(0, 1, 5), Edge::new(0, 2, 7), Edge::new(2, 3, 1), Edge::new(3, 0, 2)],
        )
    }

    #[test]
    fn degrees_and_counts() {
        let g = sample();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 0);
        assert_eq!(g.degree(2), 1);
    }

    #[test]
    fn neighbors_in_insertion_order() {
        let g = sample();
        let n: Vec<_> = g.neighbors(0).collect();
        assert_eq!(n, vec![(1, 5), (2, 7)]);
    }

    #[test]
    fn empty_graph() {
        let g = AdjacencyArray::from_edges(3, &[]);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.neighbors(1).count(), 0);
    }

    #[test]
    fn arcs_are_contiguous_per_vertex() {
        let g = sample();
        assert_eq!(g.offsets(), &[0, 2, 2, 3, 4]);
    }

    #[test]
    fn from_parts_equals_from_edges() {
        let g = sample();
        assert_eq!(AdjacencyArray::from_parts(g.offsets().to_vec(), g.arcs().to_vec()), g);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_parts_rejects_out_of_range_arc() {
        AdjacencyArray::from_parts(vec![0, 1, 1], vec![Arc { to: 2, weight: 1 }]);
    }

    #[test]
    #[should_panic(expected = "arc count")]
    fn from_parts_rejects_short_offsets() {
        AdjacencyArray::from_parts(vec![0, 0], vec![Arc { to: 0, weight: 1 }]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edge() {
        AdjacencyArray::from_edges(2, &[Edge::new(0, 5, 1)]);
    }
}
