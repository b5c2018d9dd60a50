//! König certificates: prove a bipartite matching is maximum.
//!
//! König's theorem: in a bipartite graph, the size of a maximum matching
//! equals the size of a minimum vertex cover. Given a matching, the
//! standard alternating-reachability construction yields a vertex cover of
//! exactly the matching's size **iff** the matching is maximum — a
//! certificate checkable in linear time, used by the test suite to verify
//! results without trusting a second matching implementation.

use cachegraph_graph::{Graph, VertexId};

use crate::augmenting::Matching;
use crate::FREE;

/// Compute the König vertex cover for `m`: let `Z` be the set of vertices
/// reachable from free left vertices by alternating paths (unmatched
/// edges leftward, matched edges rightward); the cover is
/// `(L \ Z) ∪ (R ∩ Z)`. Returns the cover as a vertex list.
pub fn minimum_vertex_cover<G: Graph>(g: &G, n_left: usize, m: &Matching) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut in_z = vec![false; n];
    let mut stack: Vec<VertexId> = Vec::new();
    for (u, &mate) in m.mate.iter().enumerate().take(n_left) {
        if mate == FREE {
            in_z[u] = true;
            stack.push(u as VertexId);
        }
    }
    while let Some(u) = stack.pop() {
        // u is a left vertex: move along *unmatched* edges to the right.
        for (r, _) in g.neighbors(u) {
            if in_z[r as usize] || m.mate[u as usize] == r {
                continue;
            }
            in_z[r as usize] = true;
            // From a right vertex the only alternating continuation is its
            // matched edge.
            let rm = m.mate[r as usize];
            if rm != FREE && !in_z[rm as usize] {
                in_z[rm as usize] = true;
                stack.push(rm);
            }
        }
    }
    let mut cover = Vec::new();
    for (v, &z) in in_z.iter().enumerate() {
        let is_left = v < n_left;
        if (is_left && !z) || (!is_left && z) {
            cover.push(v as VertexId);
        }
    }
    cover
}

/// Verify that `m` is a maximum matching of `g` via a König certificate:
/// the constructed cover must (a) touch every edge and (b) have exactly
/// `m.size` vertices. Only left arcs are read, so `g` may be a left-only
/// CSR. Panics with a description on failure.
pub fn assert_maximum<G: Graph>(g: &G, n_left: usize, m: &Matching) {
    m.assert_valid(g);
    let cover = minimum_vertex_cover(g, n_left, m);
    assert_eq!(
        cover.len(),
        m.size,
        "cover size {} != matching size {} — matching is not maximum",
        cover.len(),
        m.size
    );
    let mut covered = vec![false; g.num_vertices()];
    for &v in &cover {
        covered[v as usize] = true;
    }
    for u in 0..n_left as VertexId {
        for (v, _) in g.neighbors(u) {
            assert!(
                covered[u as usize] || covered[v as usize],
                "edge ({u}, {v}) not covered — certificate invalid"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augmenting::find_matching;
    use cachegraph_graph::{generators, AdjacencyArray, EdgeListBuilder};

    #[test]
    fn certifies_maximum_on_random_graphs() {
        for seed in 0..8 {
            let b = generators::random_bipartite(60, 0.1, seed);
            let g = b.build_array();
            let m = find_matching(&g, 30, Matching::empty(60));
            assert_maximum(&g, 30, &m);
            // The same certificate holds on the left-only CSR.
            assert_maximum(&generators::random_bipartite_left(60, 0.1, seed), 30, &m);
        }
    }

    #[test]
    #[should_panic(expected = "not maximum")]
    fn rejects_non_maximum_matching() {
        // Perfect matching exists (0-2, 1-3) but we certify an empty one.
        let mut b = EdgeListBuilder::new(4);
        b.add_undirected(0, 2, 1).add_undirected(1, 3, 1);
        let g = b.build_array();
        assert_maximum(&g, 2, &Matching::empty(4));
    }

    #[test]
    fn star_cover_is_the_center() {
        let mut b = EdgeListBuilder::new(4);
        b.add_undirected(0, 3, 1).add_undirected(1, 3, 1).add_undirected(2, 3, 1);
        let g: AdjacencyArray = b.build_array();
        let m = find_matching(&g, 3, Matching::empty(4));
        let cover = minimum_vertex_cover(&g, 3, &m);
        assert_eq!(cover, vec![3]);
    }

    #[test]
    #[should_panic(expected = "not an edge")]
    fn left_only_csr_still_rejects_a_non_edge() {
        let g = generators::random_bipartite_left(4, 0.0, 1);
        let mut m = Matching::empty(4);
        m.mate[0] = 2;
        m.mate[2] = 0;
        m.size = 1;
        m.assert_valid(&g);
    }

    #[test]
    fn empty_graph_empty_cover() {
        let b = EdgeListBuilder::new(4);
        let g = b.build_array();
        let m = Matching::empty(4);
        assert_maximum(&g, 2, &m);
    }
}
