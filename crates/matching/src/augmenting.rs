//! The augmenting-path matching algorithm (Fig. 8).
//!
//! [`find_matching`] is the faithful `FindMatching(G, M)` of the paper:
//! *while an augmenting path exists, increase `|M|` by one using it* —
//! each iteration performs one breadth-first search over the alternating
//! structure (from every free left vertex) and flips the single path it
//! finds, giving the stated `O(N·E)` running time. This is both the
//! baseline of §4.4 and the subroutine the cache-friendly implementation
//! (Fig. 9) calls on sub-problems and on the final global pass.
//!
//! [`find_matching_fast`] is a modern single-pass variant (one attempt
//! per free left vertex, stamp-cleared visit marks). It computes the same
//! maximum matching with far less work; it is *not* the paper's baseline
//! — it exists as an extension and as a differential-testing oracle.
//!
//! One private loop runs Fig. 8 for three entry points: the plain
//! [`find_matching`], [`find_matching_recorded`] (every `mate` access
//! reported to a [`UnitSink`]), and [`find_matching_cancellable`] for
//! deadline-propagating callers. The cancellable one polls a plain
//! `FnMut() -> bool` *between* augmentation rounds — the natural
//! boundary: each round is one whole-graph BFS plus one path flip, so
//! the matching is structurally consistent (just not yet maximum)
//! whenever the poll fires, and the partial matching is returned
//! alongside the marker. This crate never references the observability
//! layer (obs-purity — see the `obs_*_cancel.rs` fixture pair in
//! `cachegraph-tidy`); the per-round poll is also the unit of the serve
//! layer's `cancel_polls` trace tag.

use cachegraph_graph::{Graph, VertexId};
use cachegraph_plan::{NoSink, UnitSink};

use crate::FREE;

/// A matching over `n` vertices: `mate[v]` is `v`'s partner or [`FREE`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Matching {
    /// Partner per vertex.
    pub mate: Vec<VertexId>,
    /// Number of matched edges.
    pub size: usize,
}

impl Matching {
    /// An empty matching over `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self { mate: vec![FREE; n], size: 0 }
    }

    /// True if `v` is not matched.
    pub fn is_free(&self, v: VertexId) -> bool {
        self.mate[v as usize] == FREE
    }

    /// Check structural consistency (symmetry, size) against a graph;
    /// panics on violation. A matched pair is an edge when either
    /// endpoint lists the other, so a left-only CSR checks as well as
    /// one with both arcs. Used by tests and debug assertions.
    pub fn assert_valid<G: Graph>(&self, g: &G) {
        let mut count = 0;
        for v in 0..self.mate.len() {
            let m = self.mate[v];
            if m == FREE {
                continue;
            }
            assert_eq!(self.mate[m as usize], v as u32, "mate not symmetric at {v}");
            assert!(
                g.neighbors(v as u32).any(|(u, _)| u == m)
                    || g.neighbors(m).any(|(u, _)| u == v as u32),
                "matched pair ({v}, {m}) is not an edge"
            );
            count += 1;
        }
        assert_eq!(count, self.size * 2, "size does not match mate array");
    }
}

/// Reusable scratch for the whole-graph augmentation step.
struct AugmentScratch {
    parent: Vec<VertexId>,
    visited: Vec<bool>,
    queue: Vec<VertexId>,
}

impl AugmentScratch {
    fn new(n: usize, n_left: usize) -> Self {
        Self { parent: vec![FREE; n], visited: vec![false; n], queue: Vec::with_capacity(n_left) }
    }
}

/// One iteration of Fig. 8's loop: BFS from ALL free left vertices over
/// alternating paths (unmatched edges left -> right, matched edges
/// right -> left); if an augmenting path exists, flip it and grow `m`
/// by one. Returns `false` when no augmenting path exists (`m` is
/// maximum).
///
/// Every access to the `mate` array is reported to `sink` (unit =
/// vertex id). `cachegraph-check`'s matching driver records these
/// scripts to replay augmentation rounds against shadow memory, and the
/// differential footprint test compares them with the declared per-part
/// footprints. The sink is observational only: with [`NoSink`] this
/// compiles to exactly the un-instrumented round.
fn augment_once<G: Graph, S: UnitSink>(
    g: &G,
    n_left: usize,
    m: &mut Matching,
    s: &mut AugmentScratch,
    sink: &mut S,
) -> bool {
    s.visited.fill(false);
    s.queue.clear();
    for (u, &mate) in m.mate.iter().enumerate().take(n_left) {
        sink.read(u as u64);
        if mate == FREE {
            s.visited[u] = true;
            s.queue.push(u as VertexId);
        }
    }
    let mut head = 0;
    let mut endpoint = None;
    'search: while head < s.queue.len() {
        let u = s.queue[head];
        head += 1;
        for (r, _) in g.neighbors(u) {
            if s.visited[r as usize] {
                continue;
            }
            s.visited[r as usize] = true;
            s.parent[r as usize] = u;
            sink.read(r as u64);
            let rm = m.mate[r as usize];
            if rm == FREE {
                endpoint = Some(r);
                break 'search;
            }
            if !s.visited[rm as usize] {
                s.visited[rm as usize] = true;
                s.queue.push(rm);
            }
        }
    }
    let Some(mut right) = endpoint else {
        return false; // no augmenting path: m is maximum
    };
    // Flip the alternating path back to its free left origin.
    loop {
        let left = s.parent[right as usize];
        sink.read(left as u64);
        let next_right = m.mate[left as usize];
        sink.write(right as u64);
        sink.write(left as u64);
        m.mate[right as usize] = left;
        m.mate[left as usize] = right;
        if next_right == FREE {
            break; // reached the free left endpoint
        }
        right = next_right;
    }
    m.size += 1;
    true
}

/// The search was cancelled between augmentation rounds; the carried
/// matching is valid but may not be maximum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatchCancelled {
    /// The structurally consistent partial matching at cancellation.
    pub partial: Matching,
}

impl std::fmt::Display for MatchCancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matching cancelled after {} augmentations", self.partial.size)
    }
}

impl std::error::Error for MatchCancelled {}

/// The Fig. 8 loop behind every entry point: poll `cancel`, then run one
/// augmentation round reporting to `sink`, until no augmenting path is
/// left. The last round is the failed search that proves maximality.
fn fig8<G: Graph, S: UnitSink>(
    g: &G,
    n_left: usize,
    initial: Matching,
    sink: &mut S,
    cancel: &mut impl FnMut() -> bool,
) -> Result<Matching, MatchCancelled> {
    let n = g.num_vertices();
    assert!(n_left <= n, "left side larger than the graph");
    assert_eq!(initial.mate.len(), n, "initial matching has wrong size");
    let mut m = initial;
    let mut scratch = AugmentScratch::new(n, n_left);
    loop {
        if cancel() {
            return Err(MatchCancelled { partial: m });
        }
        if !augment_once(g, n_left, &mut m, &mut scratch, sink) {
            return Ok(m);
        }
    }
}

/// `FindMatching(G, M)` of Fig. 8: repeat a whole-graph BFS for one
/// augmenting path and flip it, until no augmenting path exists. Left
/// vertices are `0..n_left`. Returns the (maximum) matching.
pub fn find_matching<G: Graph>(g: &G, n_left: usize, initial: Matching) -> Matching {
    fig8(g, n_left, initial, &mut NoSink, &mut || false).unwrap_or_else(|c| c.partial)
}

/// [`find_matching`] with every `mate` access reported to a
/// [`UnitSink`] (unit = vertex id): the Fig. 8 loop, plus one trailing
/// no-op round (the failed search that proves maximality), exactly as
/// the plain driver executes it.
pub fn find_matching_recorded<G: Graph, S: UnitSink>(
    g: &G,
    n_left: usize,
    initial: Matching,
    sink: &mut S,
) -> Matching {
    fig8(g, n_left, initial, sink, &mut || false).unwrap_or_else(|c| c.partial)
}

/// [`find_matching`] with a cancellation poll between augmentation
/// rounds.
pub fn find_matching_cancellable<G: Graph>(
    g: &G,
    n_left: usize,
    initial: Matching,
    cancel: &mut impl FnMut() -> bool,
) -> Result<Matching, MatchCancelled> {
    fig8(g, n_left, initial, &mut NoSink, cancel)
}

/// Scratch space for [`find_matching_fast`], reused across searches.
struct Scratch {
    queue: Vec<VertexId>,
    parent: Vec<VertexId>,
    stamp_of: Vec<u32>,
    stamp: u32,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Self { queue: Vec::new(), parent: vec![FREE; n], stamp_of: vec![0; n], stamp: 0 }
    }
}

/// Single-BFS augmentation attempt from `start` for the fast variant.
fn augment_from<G: Graph>(g: &G, start: VertexId, m: &mut Matching, s: &mut Scratch) -> bool {
    s.stamp += 1;
    s.queue.clear();
    s.queue.push(start);
    let mut head = 0;
    while head < s.queue.len() {
        let u = s.queue[head];
        head += 1;
        for (r, _) in g.neighbors(u) {
            if s.stamp_of[r as usize] == s.stamp {
                continue;
            }
            s.stamp_of[r as usize] = s.stamp;
            s.parent[r as usize] = u;
            let rm = m.mate[r as usize];
            if rm == FREE {
                let mut right = r;
                loop {
                    let left = s.parent[right as usize];
                    let next_right = m.mate[left as usize];
                    m.mate[right as usize] = left;
                    m.mate[left as usize] = right;
                    if left == start {
                        break;
                    }
                    right = next_right;
                }
                m.size += 1;
                return true;
            }
            s.queue.push(rm);
        }
    }
    false
}

/// Modern one-pass variant: one augmentation attempt per free left vertex
/// with stamp-cleared marks. One attempt each suffices for maximality
/// (if no augmenting path exists from a free vertex, later augmentations
/// cannot create one). Same result as [`find_matching`], much faster —
/// an extension beyond the paper, also used as a test oracle.
pub fn find_matching_fast<G: Graph>(g: &G, n_left: usize, initial: Matching) -> Matching {
    let n = g.num_vertices();
    assert!(n_left <= n, "left side larger than the graph");
    assert_eq!(initial.mate.len(), n, "initial matching has wrong size");
    let mut m = initial;
    let mut scratch = Scratch::new(n);
    for u in 0..n_left as VertexId {
        if m.is_free(u) {
            augment_from(g, u, &mut m, &mut scratch);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegraph_graph::{generators, EdgeListBuilder};

    #[test]
    fn perfect_matching_on_pairs() {
        // 0-2, 1-3: a perfect matching exists trivially.
        let mut b = EdgeListBuilder::new(4);
        b.add_undirected(0, 2, 1).add_undirected(1, 3, 1);
        let m = find_matching(&b.build_array(), 2, Matching::empty(4));
        assert_eq!(m.size, 2);
        m.assert_valid(&b.build_array());
    }

    #[test]
    fn augmenting_path_is_found() {
        // 0-2, 1-2, 1-3: a greedy pass could match (1,2) and strand 0;
        // augmentation must reach size 2.
        let mut b = EdgeListBuilder::new(4);
        b.add_undirected(1, 2, 1).add_undirected(0, 2, 1).add_undirected(1, 3, 1);
        let g = b.build_array();
        let m = find_matching(&g, 2, Matching::empty(4));
        assert_eq!(m.size, 2);
        m.assert_valid(&g);
    }

    #[test]
    fn star_matches_once() {
        // Left {0,1,2} all connect only to right 3.
        let mut b = EdgeListBuilder::new(4);
        b.add_undirected(0, 3, 1).add_undirected(1, 3, 1).add_undirected(2, 3, 1);
        let m = find_matching(&b.build_array(), 3, Matching::empty(4));
        assert_eq!(m.size, 1);
    }

    #[test]
    fn empty_graph_empty_matching() {
        let b = EdgeListBuilder::new(6);
        let m = find_matching(&b.build_array(), 3, Matching::empty(6));
        assert_eq!(m.size, 0);
    }

    #[test]
    fn starting_matching_is_respected_and_extended() {
        let mut b = EdgeListBuilder::new(4);
        b.add_undirected(0, 2, 1).add_undirected(1, 3, 1);
        let g = b.build_array();
        // Seed with (0, 2) already matched.
        let mut seed = Matching::empty(4);
        seed.mate[0] = 2;
        seed.mate[2] = 0;
        seed.size = 1;
        let m = find_matching(&g, 2, seed);
        assert_eq!(m.size, 2);
        assert_eq!(m.mate[0], 2, "seeded pair kept");
    }

    #[test]
    fn fast_variant_matches_baseline() {
        for seed in 0..8 {
            let b = generators::random_bipartite(60, 0.1, seed);
            let g = b.build_array();
            let slow = find_matching(&g, 30, Matching::empty(60));
            let fast = find_matching_fast(&g, 30, Matching::empty(60));
            assert_eq!(slow.size, fast.size, "seed {seed}");
            slow.assert_valid(&g);
            fast.assert_valid(&g);
        }
    }

    #[test]
    fn random_bipartite_matching_is_maximal() {
        let b = generators::random_bipartite(40, 0.15, 9);
        let g = b.build_array();
        let m = find_matching(&g, 20, Matching::empty(40));
        m.assert_valid(&g);
        // Maximality (weaker than maximum): no edge joins two free vertices.
        for e in b.edges() {
            assert!(
                !(m.is_free(e.from) && m.is_free(e.to)),
                "edge {e:?} joins two free vertices"
            );
        }
    }

    #[test]
    fn uncancelled_matches_find_matching() {
        for seed in 0..6 {
            let b = generators::random_bipartite(60, 0.1, seed);
            let g = b.build_array();
            let plain = find_matching(&g, 30, Matching::empty(60));
            let c = find_matching_cancellable(&g, 30, Matching::empty(60), &mut || false)
                .expect("never cancelled");
            assert_eq!(plain.size, c.size, "seed {seed}");
            c.assert_valid(&g);
        }
    }

    #[test]
    fn cancellation_returns_a_consistent_partial_matching() {
        let b = generators::random_bipartite(80, 0.15, 3);
        let g = b.build_array();
        let full = find_matching(&g, 40, Matching::empty(80));
        // Allow exactly 2 augmentation rounds, then cancel.
        let mut rounds = 0usize;
        let err = find_matching_cancellable(&g, 40, Matching::empty(80), &mut || {
            rounds += 1;
            rounds > 2
        })
        .expect_err("must cancel");
        assert_eq!(err.partial.size, 2, "two granted rounds, one augmentation each");
        assert!(err.partial.size <= full.size);
        err.partial.assert_valid(&g);
        // Resuming from the partial matching completes to the maximum.
        let resumed = find_matching(&g, 40, err.partial);
        assert_eq!(resumed.size, full.size);
    }

    #[test]
    fn immediate_cancellation_returns_the_initial_matching() {
        let b = generators::random_bipartite(20, 0.2, 1);
        let g = b.build_array();
        let err = find_matching_cancellable(&g, 10, Matching::empty(20), &mut || true)
            .expect_err("cancelled before the first round");
        assert_eq!(err.partial.size, 0);
        assert!(err.to_string().contains("after 0 augmentations"));
    }
}
