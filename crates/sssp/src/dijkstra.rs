//! Dijkstra's algorithm (Fig. 7), generic over representation and queue.

use cachegraph_graph::{Graph, VertexId, Weight};
use cachegraph_pq::{DecreaseKeyQueue, IndexedBinaryHeap};

use crate::cancel::{dijkstra_cancellable, Cancelled};

/// Distances and shortest-path tree from one source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SsspResult {
    /// `dist[v]` = weight of the shortest path from the source, `INF` if
    /// unreachable.
    pub dist: Vec<Weight>,
    /// `pred[v]` = predecessor on that path, [`NO_VERTEX`](crate::NO_VERTEX)
    /// for the source and unreachable vertices.
    pub pred: Vec<VertexId>,
}

/// Dijkstra exactly as in the paper's Fig. 7: every vertex starts in the
/// queue (`Q = V[G]`), then `N` Extract-Mins and up to `E` Updates
/// (decrease-keys) are performed. The graph representation is streamed
/// once — each adjacency is touched exactly one time. This is the loop
/// of [`dijkstra_cancellable`] with no target and a poll that never
/// fires.
pub fn dijkstra<G: Graph, Q: DecreaseKeyQueue>(g: &G, source: VertexId) -> SsspResult {
    dijkstra_cancellable::<G, Q>(g, source, None, &mut || false)
        .unwrap_or_else(|Cancelled| unreachable!("the poll never fires"))
}

/// [`dijkstra`] with the standard indexed binary heap.
pub fn dijkstra_binary_heap<G: Graph>(g: &G, source: VertexId) -> SsspResult {
    dijkstra::<G, IndexedBinaryHeap>(g, source)
}

/// All-pairs shortest paths by running Dijkstra from every source —
/// the contender against Floyd-Warshall for sparse graphs in Fig. 14.
/// Returns the row-major `n x n` distance matrix.
pub fn apsp_dijkstra<G: Graph>(g: &G) -> Vec<Weight> {
    let n = g.num_vertices();
    let mut out = Vec::with_capacity(n * n);
    for s in 0..n as VertexId {
        out.extend_from_slice(&dijkstra_binary_heap(g, s).dist);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NO_VERTEX;
    use cachegraph_graph::{EdgeListBuilder, INF};
    use cachegraph_pq::{DAryHeap, FibonacciHeap, PairingHeap};

    fn diamond() -> EdgeListBuilder {
        // 0 -> 1 (1), 0 -> 2 (4), 1 -> 2 (2), 2 -> 3 (1), 1 -> 3 (5).
        let mut b = EdgeListBuilder::new(4);
        b.add(0, 1, 1).add(0, 2, 4).add(1, 2, 2).add(2, 3, 1).add(1, 3, 5);
        b
    }

    #[test]
    fn shortest_paths_on_diamond() {
        let g = diamond().build_array();
        let r = dijkstra_binary_heap(&g, 0);
        assert_eq!(r.dist, vec![0, 1, 3, 4]);
        assert_eq!(r.pred[3], 2);
        assert_eq!(r.pred[2], 1);
        assert_eq!(r.pred[0], NO_VERTEX);
    }

    #[test]
    fn all_queues_agree() {
        let g = diamond().build_array();
        let a = dijkstra::<_, IndexedBinaryHeap>(&g, 0);
        let b = dijkstra::<_, DAryHeap<4>>(&g, 0);
        let c = dijkstra::<_, FibonacciHeap>(&g, 0);
        let d = dijkstra::<_, PairingHeap>(&g, 0);
        assert_eq!(a.dist, b.dist);
        assert_eq!(a.dist, c.dist);
        assert_eq!(a.dist, d.dist);
    }

    #[test]
    fn all_representations_agree() {
        let b = diamond();
        let arr = dijkstra_binary_heap(&b.build_array(), 0);
        let list = dijkstra_binary_heap(&b.build_list(), 0);
        let mat = dijkstra_binary_heap(&b.build_matrix(), 0);
        assert_eq!(arr.dist, list.dist);
        assert_eq!(arr.dist, mat.dist);
    }

    #[test]
    fn unreachable_vertices_stay_inf() {
        let mut b = EdgeListBuilder::new(3);
        b.add(0, 1, 1);
        let r = dijkstra_binary_heap(&b.build_array(), 0);
        assert_eq!(r.dist, vec![0, 1, INF]);
        assert_eq!(r.pred[2], NO_VERTEX);
    }

    #[test]
    fn apsp_matrix_diagonal_is_zero() {
        let g = diamond().build_array();
        let d = apsp_dijkstra(&g);
        for v in 0..4 {
            assert_eq!(d[v * 4 + v], 0);
        }
        assert_eq!(d[3], 4); // 0 -> 3
    }

    #[test]
    fn source_only_graph() {
        let b = EdgeListBuilder::new(1);
        let r = dijkstra_binary_heap(&b.build_array(), 0);
        assert_eq!(r.dist, vec![0]);
    }
}
