//! The cache-friendly matching implementation (Fig. 9):
//! partition → solve locally → union → finish globally.
//!
//! The carve ([`build_local_parts`]) and merge ([`merge_local`]) here
//! are the only ones: the parallel driver, the cache simulation and
//! `cachegraph-check` run them too, and the serial
//! [`find_matching_partitioned`] is the reference they compare against.

use cachegraph_graph::{AdjacencyArray, Arc, Graph, VertexId};

use crate::augmenting::{find_matching, Matching};
use crate::partition::two_way_partition;
use crate::FREE;

/// How the input graph is split into sub-problems.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionScheme {
    /// `p` contiguous blocks: left block `k` with right block `k`. Cheap
    /// and effective when the graph has block-local structure; the number
    /// of parts is the tuning knob (§3.3: size each part to the cache).
    Contiguous(usize),
    /// The paper's linear-time two-way partitioner (4 arbitrary groups,
    /// paired to maximise internal edges).
    TwoWay,
}

/// Statistics from the partitioned run, useful for the experiments.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartitionedStats {
    /// Matching size after the local phase (before the global pass).
    pub local_matched: usize,
    /// Edges internal to some part (processed in the local phase).
    pub internal_edges: usize,
    /// Number of parts used.
    pub parts: usize,
}

/// `CacheFriendlyFindMatching` (Fig. 9): solve each sub-graph locally,
/// union the local matchings, then run the augmenting-path algorithm on
/// the whole graph starting from the union. Returns the maximum matching
/// and the phase statistics.
///
/// `g` is the already-built representation of the whole graph (the same
/// object the baseline traverses); the sub-problems are carved from its
/// left → right arcs, the only arcs any solver reads, so a left-only
/// CSR serves as well as one with both arcs of every edge. Partitioning
/// and sub-graph construction happen inside this function — they are
/// part of the optimization's cost, exactly as in the paper's
/// measurements.
pub fn find_matching_partitioned(
    g: &AdjacencyArray,
    n_left: usize,
    scheme: PartitionScheme,
) -> (Matching, PartitionedStats) {
    let n = g.num_vertices();
    let (parts, internal) = build_local_parts(g, n_left, scheme);

    // Phase 1: local matchings (working sets sized to the cache).
    let mut union = Matching::empty(n);
    for part in &parts {
        if let Some(local) = part.solve() {
            merge_local(part, &local, &mut union);
        }
    }
    let stats = PartitionedStats {
        local_matched: union.size,
        internal_edges: internal,
        parts: parts.len(),
    };

    // Phase 2: finish on the whole graph from the union.
    let m = find_matching(g, n_left, union);
    (m, stats)
}

/// One sub-problem of the Fig. 9 decomposition: the vertices of a part
/// (locals numbered left-first, so `members[local] = global`) and its
/// internal edges as a left-only CSR in local ids.
#[derive(Clone, Debug)]
pub struct LocalPart {
    /// Global vertex id per local id, left vertices first.
    pub members: Vec<VertexId>,
    /// Number of left vertices in this part (locals `0..left_count`).
    pub left_count: usize,
    /// The part's internal edges in local ids: each left local's arcs
    /// in the order the whole graph lists them, weight 1, and an empty
    /// arc range for every right local.
    pub graph: AdjacencyArray,
}

impl LocalPart {
    /// A part contributes a local solve only if it has vertices and
    /// internal edges; otherwise it is skipped (the serial driver's
    /// `continue`).
    pub fn is_trivial(&self) -> bool {
        self.members.is_empty() || self.graph.num_edges() == 0
    }

    /// Solve this sub-problem with the Fig. 8 algorithm; `None` for
    /// trivial parts.
    pub fn solve(&self) -> Option<Matching> {
        if self.is_trivial() {
            return None;
        }
        Some(find_matching(&self.graph, self.left_count, Matching::empty(self.members.len())))
    }
}

/// Carve `g` into per-part sub-problems under `scheme`: the shared
/// front half of [`find_matching_partitioned`] and its parallel
/// counterpart
/// ([`find_matching_partitioned_parallel`](crate::find_matching_partitioned_parallel)).
/// Each part's CSR is built once, in part order, from the left arcs of
/// its left members. Returns the parts and the internal-edge count.
pub fn build_local_parts(
    g: &AdjacencyArray,
    n_left: usize,
    scheme: PartitionScheme,
) -> (Vec<LocalPart>, usize) {
    let n = g.num_vertices();
    let (part, p): (Vec<u32>, usize) = match scheme {
        PartitionScheme::Contiguous(p) => {
            assert!(p >= 1, "need at least one part");
            let n_right = n - n_left;
            let mut part = vec![0u32; n];
            for (v, pt) in part.iter_mut().enumerate() {
                *pt = if v < n_left {
                    ((v * p) / n_left.max(1)) as u32
                } else {
                    (((v - n_left) * p) / n_right.max(1)) as u32
                };
            }
            (part, p)
        }
        PartitionScheme::TwoWay => {
            let tw = two_way_partition(g, n_left);
            (tw.side.iter().map(|&s| s as u32).collect(), 2)
        }
    };

    // Split vertices per part, locals numbered left-first.
    let mut local_id = vec![FREE; n];
    let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); p];
    let mut left_count = vec![0usize; p];
    for v in 0..n_left {
        let k = part[v] as usize;
        local_id[v] = left_count[k] as u32;
        left_count[k] += 1;
        members[k].push(v as VertexId);
    }
    for v in n_left..n {
        let k = part[v] as usize;
        local_id[v] = members[k].len() as u32;
        members[k].push(v as VertexId);
    }

    // Internal arcs per part: a left member's arcs whose target lies in
    // the same part.
    let mut parts = Vec::with_capacity(p);
    let mut internal = 0usize;
    for (k, (members, left_count)) in members.into_iter().zip(left_count).enumerate() {
        let mut offsets = Vec::with_capacity(members.len() + 1);
        let mut arcs = Vec::new();
        offsets.push(0);
        for &u in &members[..left_count] {
            arcs.extend(
                g.arcs_of(u)
                    .iter()
                    .filter(|a| part[a.to as usize] as usize == k)
                    .map(|a| Arc { to: local_id[a.to as usize], weight: 1 }),
            );
            offsets.push(arcs.len() as u32);
        }
        offsets.resize(members.len() + 1, arcs.len() as u32);
        internal += arcs.len();
        let graph = AdjacencyArray::from_parts(offsets, arcs);
        parts.push(LocalPart { members, left_count, graph });
    }
    (parts, internal)
}

/// Write a solved part's matching into the global union: the merge of
/// [`find_matching_partitioned`], shared by the parallel driver, the
/// cache simulation and `cachegraph-check`'s re-execution.
pub fn merge_local(part: &LocalPart, local: &Matching, union: &mut Matching) {
    for (lv, &gv) in part.members.iter().enumerate() {
        let lm = local.mate[lv];
        if lm != FREE {
            union.mate[gv as usize] = part.members[lm as usize];
        }
    }
    union.size += local.size;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hopcroft_karp;
    use cachegraph_graph::{generators, Edge};

    fn check_equals_oracle(n: usize, edges: &[Edge], scheme: PartitionScheme) {
        let g = AdjacencyArray::from_edges(n, edges);
        let oracle = hopcroft_karp(&g, n / 2);
        let (m, _) = find_matching_partitioned(&g, n / 2, scheme);
        assert_eq!(m.size, oracle.size);
        m.assert_valid(&g);
    }

    #[test]
    fn random_graphs_all_schemes() {
        for seed in 0..5 {
            let b = generators::random_bipartite(48, 0.12, seed);
            check_equals_oracle(48, b.edges(), PartitionScheme::Contiguous(4));
            check_equals_oracle(48, b.edges(), PartitionScheme::Contiguous(1));
            check_equals_oracle(48, b.edges(), PartitionScheme::TwoWay);
        }
    }

    #[test]
    fn best_case_local_phase_finds_maximum() {
        let b = generators::matching_best_case(32, 4, 0.1, 2);
        let g = AdjacencyArray::from_edges(32, b.edges());
        let (m, stats) = find_matching_partitioned(&g, 16, PartitionScheme::Contiguous(4));
        assert_eq!(m.size, 16, "perfect matching expected");
        assert_eq!(stats.local_matched, 16, "local phase should already be maximum");
    }

    #[test]
    fn worst_case_local_phase_finds_nothing() {
        let b = generators::matching_worst_case(32, 4, 0.5, 3);
        let g = AdjacencyArray::from_edges(32, b.edges());
        let (m, stats) = find_matching_partitioned(&g, 16, PartitionScheme::Contiguous(4));
        assert_eq!(stats.local_matched, 0, "no internal edges by construction");
        assert_eq!(stats.internal_edges, 0);
        let oracle = hopcroft_karp(&g, 16);
        assert_eq!(m.size, oracle.size, "global phase must still reach maximum");
    }

    #[test]
    fn two_way_rescues_crossed_structure() {
        // Edges cross contiguous halves, so Contiguous(2) finds nothing
        // locally but TwoWay re-pairs the groups and captures everything.
        let b = generators::matching_worst_case(32, 2, 0.4, 4);
        let g = AdjacencyArray::from_edges(32, b.edges());
        let (_, contiguous) = find_matching_partitioned(&g, 16, PartitionScheme::Contiguous(2));
        let (_, two_way) = find_matching_partitioned(&g, 16, PartitionScheme::TwoWay);
        assert_eq!(contiguous.internal_edges, 0);
        assert!(
            two_way.internal_edges > 0,
            "partitioner should recover internal edges: {two_way:?}"
        );
    }

    #[test]
    fn left_only_csr_gives_the_same_matching() {
        for seed in [1u64, 5, 2101] {
            let full = generators::random_bipartite(64, 0.1, seed).build_array();
            let left = generators::random_bipartite_left(64, 0.1, seed);
            for scheme in
                [PartitionScheme::Contiguous(1), PartitionScheme::Contiguous(3), PartitionScheme::TwoWay]
            {
                let (a, astats) = find_matching_partitioned(&full, 32, scheme);
                let (b, bstats) = find_matching_partitioned(&left, 32, scheme);
                assert_eq!(a, b, "seed {seed} {scheme:?}: matching diverged");
                assert_eq!(astats, bstats, "seed {seed} {scheme:?}: stats diverged");
                crate::verify::assert_maximum(&left, 32, &b);
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = AdjacencyArray::from_edges(8, &[]);
        let (m, stats) = find_matching_partitioned(&g, 4, PartitionScheme::Contiguous(2));
        assert_eq!(m.size, 0);
        assert_eq!(stats.local_matched, 0);
    }
}
