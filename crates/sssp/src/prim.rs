//! Prim's algorithm for minimum spanning trees (§3.2).
//!
//! Identical access pattern to Dijkstra — `N` Extract-Mins, `E` Updates,
//! one streaming pass over the representation — differing only in the key
//! used by Update: the weight of the connecting edge rather than the
//! distance from the source. Hence the same representation optimization
//! applies, which is precisely the paper's point.

use cachegraph_graph::{Graph, VertexId, INF};
use cachegraph_pq::{DecreaseKeyQueue, IndexedBinaryHeap};

use crate::NO_VERTEX;

/// A minimum spanning tree (of the root's component).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MstResult {
    /// `parent[v]` = tree parent, [`NO_VERTEX`] for the root and for
    /// vertices outside the root's component.
    pub parent: Vec<VertexId>,
    /// Sum of tree edge weights.
    pub total_weight: u64,
    /// Number of vertices in the tree (root included).
    pub tree_size: usize,
}

/// Prim's algorithm from `root` over an undirected graph (both arcs of
/// every edge present, as
/// [`EdgeListBuilder::add_undirected`](cachegraph_graph::EdgeListBuilder::add_undirected)
/// produces).
pub fn prim<G: Graph, Q: DecreaseKeyQueue>(g: &G, root: VertexId) -> MstResult {
    let n = g.num_vertices();
    assert!((root as usize) < n, "root out of range");
    let mut parent = vec![NO_VERTEX; n];
    let mut q = Q::with_capacity(n);
    for v in 0..n as VertexId {
        q.insert(v, if v == root { 0 } else { INF });
    }
    let mut total = 0u64;
    let mut tree_size = 0usize;
    while let Some((u, key)) = q.extract_min() {
        if key == INF {
            break; // rest of the graph is disconnected from the root
        }
        total += key as u64;
        tree_size += 1;
        for (v, w) in g.neighbors(u) {
            if q.decrease_key(v, w) {
                parent[v as usize] = u;
            }
        }
    }
    MstResult { parent, total_weight: total, tree_size }
}

/// [`prim`] with the standard indexed binary heap.
pub fn prim_binary_heap<G: Graph>(g: &G, root: VertexId) -> MstResult {
    prim::<G, IndexedBinaryHeap>(g, root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegraph_graph::EdgeListBuilder;
    use cachegraph_pq::{FibonacciHeap, PairingHeap};

    fn square_with_diagonal() -> EdgeListBuilder {
        // 4-cycle with weights 1,2,3,4 plus diagonal 0-2 weight 5.
        let mut b = EdgeListBuilder::new(4);
        b.add_undirected(0, 1, 1)
            .add_undirected(1, 2, 2)
            .add_undirected(2, 3, 3)
            .add_undirected(3, 0, 4)
            .add_undirected(0, 2, 5);
        b
    }

    #[test]
    fn mst_weight_of_square() {
        let g = square_with_diagonal().build_array();
        let mst = prim_binary_heap(&g, 0);
        // MST: 1 + 2 + 3 = 6 (drop the 4-edge and the 5-diagonal).
        assert_eq!(mst.total_weight, 6);
        assert_eq!(mst.tree_size, 4);
    }

    #[test]
    fn root_choice_does_not_change_weight() {
        let g = square_with_diagonal().build_array();
        for root in 0..4 {
            assert_eq!(prim_binary_heap(&g, root).total_weight, 6);
        }
    }

    #[test]
    fn queues_agree() {
        let g = square_with_diagonal().build_array();
        let a = prim::<_, IndexedBinaryHeap>(&g, 0).total_weight;
        let b = prim::<_, FibonacciHeap>(&g, 0).total_weight;
        let c = prim::<_, PairingHeap>(&g, 0).total_weight;
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn representations_agree() {
        let b = square_with_diagonal();
        assert_eq!(
            prim_binary_heap(&b.build_array(), 0).total_weight,
            prim_binary_heap(&b.build_list(), 0).total_weight,
        );
        assert_eq!(
            prim_binary_heap(&b.build_array(), 0).total_weight,
            prim_binary_heap(&b.build_matrix(), 0).total_weight,
        );
    }

    #[test]
    fn disconnected_component_excluded() {
        let mut b = EdgeListBuilder::new(4);
        b.add_undirected(0, 1, 7); // vertices 2, 3 isolated
        let mst = prim_binary_heap(&b.build_array(), 0);
        assert_eq!(mst.total_weight, 7);
        assert_eq!(mst.tree_size, 2);
        assert_eq!(mst.parent[2], NO_VERTEX);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn radix_heap_is_rejected_by_contract() {
        // Prim's keys are raw edge weights, which are NOT monotone in
        // extraction order; the radix heap's contract assert must fire
        // rather than silently compute a wrong tree.
        let mut b = EdgeListBuilder::new(4);
        // Extract 0 (key 0), then 1 via weight 5; relaxing 1-2 with
        // weight 2 dips below the floor of 5.
        b.add_undirected(0, 1, 5).add_undirected(1, 2, 2).add_undirected(2, 3, 9);
        let _ = prim::<_, cachegraph_pq::RadixHeap>(&b.build_array(), 0);
    }

    #[test]
    fn parent_edges_form_tree() {
        let g = square_with_diagonal().build_array();
        let mst = prim_binary_heap(&g, 0);
        // n-1 parent links for a connected graph.
        let links = mst.parent.iter().filter(|&&p| p != NO_VERTEX).count();
        assert_eq!(links, 3);
    }
}
