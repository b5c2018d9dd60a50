//! The paper's simple linear-time two-way partitioning algorithm (§3.3).
//!
//! "Arbitrarily partition the vertices into 4 equal partitions. Count the
//! number of edges between each pair of partitions. Combine partitions
//! into two partitions such that as many internal edges are created as
//! possible."
//!
//! For the bipartite convention (left `0..n_left`, right `n_left..n`) the
//! four arbitrary groups are the two halves of each side — `L0, L1, R0,
//! R1` — and the two useful combinations pair each left half with a right
//! half (a partition with no right vertices can hold no edges at all).
//! The algorithm counts the four cross-group edge totals in one pass and
//! picks the pairing with more internal edges.

use cachegraph_graph::{AdjacencyArray, Graph, VertexId};

/// Result of two-way partitioning: `side[v]` is 0 or 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TwoWayPartition {
    /// Partition id (0/1) per vertex.
    pub side: Vec<u8>,
    /// Edges whose endpoints landed in the same partition.
    pub internal_edges: usize,
    /// Edges crossing the cut.
    pub external_edges: usize,
}

/// Partition a bipartite graph's vertices into two groups maximising
/// internal edges, per the paper's 4-group scheme. Each undirected edge
/// is counted once, from its left arc, so `g` may hold both arcs of
/// every edge or only the left → right ones.
pub fn two_way_partition(g: &AdjacencyArray, n_left: usize) -> TwoWayPartition {
    let n = g.num_vertices();
    assert!(n_left <= n);
    let l_half = n_left / 2;
    let r_half = (n - n_left) / 2;
    // e[i][j] = edges between left group i and right group j.
    let mut e = [[0usize; 2]; 2];
    for l in 0..n_left {
        let li = usize::from(l >= l_half);
        for a in g.arcs_of(l as VertexId) {
            let rj = usize::from(a.to as usize - n_left >= r_half);
            e[li][rj] += 1;
        }
    }
    // Pairing A: {L0 + R0, L1 + R1}; pairing B: {L0 + R1, L1 + R0}.
    let internal_a = e[0][0] + e[1][1];
    let internal_b = e[0][1] + e[1][0];
    let swap = internal_b > internal_a;
    let internal = internal_a.max(internal_b);
    let total = e[0][0] + e[0][1] + e[1][0] + e[1][1];

    let mut side = vec![0u8; n];
    for (v, s) in side.iter_mut().enumerate() {
        *s = if v < n_left {
            u8::from(v >= l_half)
        } else {
            let right_group = u8::from(v - n_left >= r_half);
            if swap {
                1 - right_group
            } else {
                right_group
            }
        };
    }
    TwoWayPartition { side, internal_edges: internal, external_edges: total - internal }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegraph_graph::generators;

    #[test]
    fn aligned_graph_keeps_all_edges_internal() {
        // Perfect matching i <-> n/2 + i: L0 pairs with R0, L1 with R1.
        let b = generators::matching_best_case(16, 2, 0.0, 1);
        let p = two_way_partition(&b.build_array(), 8);
        assert_eq!(p.external_edges, 0);
        assert_eq!(p.internal_edges, 8);
    }

    #[test]
    fn crossed_graph_is_detected_and_swapped() {
        // Edges only L0 <-> R1 and L1 <-> R0: the swapped pairing makes
        // every edge internal.
        let mut b = cachegraph_graph::EdgeListBuilder::new(8);
        // Left = {0..4}, right = {4..8}; L0 = {0,1}, R1 = {6,7}.
        b.add_undirected(0, 6, 1).add_undirected(1, 7, 1);
        b.add_undirected(2, 4, 1).add_undirected(3, 5, 1);
        let p = two_way_partition(&b.build_array(), 4);
        assert_eq!(p.external_edges, 0);
        assert_eq!(p.internal_edges, 4);
        // Vertices 0 and 6 end up on the same side.
        assert_eq!(p.side[0], p.side[6]);
        assert_eq!(p.side[2], p.side[4]);
        assert_ne!(p.side[0], p.side[2]);
    }

    #[test]
    fn side_covers_all_vertices() {
        let b = generators::random_bipartite(40, 0.2, 3);
        let p = two_way_partition(&b.build_array(), 20);
        assert_eq!(p.side.len(), 40);
        let zeros = p.side.iter().filter(|&&s| s == 0).count();
        assert_eq!(zeros, 20, "balanced halves");
    }

    #[test]
    fn edge_counts_are_conserved() {
        let b = generators::random_bipartite(60, 0.15, 7);
        let p = two_way_partition(&b.build_array(), 30);
        // Each undirected edge appears as two arcs; counted once.
        assert_eq!(p.internal_edges + p.external_edges, b.edges().len() / 2);
    }
}
