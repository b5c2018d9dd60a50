//! Cancellable shortest paths for deadline-propagating callers.
//!
//! The serve daemon must never let a long query hang a worker past its
//! deadline. Two searches take a caller's cancellation hook:
//!
//! * [`dijkstra_cancellable`] (and [`dijkstra_to`] over the standard
//!   heap) is the paper-faithful Fig. 7 loop — [`dijkstra`](crate::dijkstra)
//!   runs it with no target and a poll that never fires — with an
//!   optional *target* vertex: it stops as soon as the target is
//!   settled, since every later extraction is farther away. It polls
//!   every [`CANCEL_CHECK_INTERVAL`] extract-mins (the "bucket boundary"
//!   — checking per relaxation would put a branch in the hot loop for
//!   nothing, since a deadline is milliseconds and a bucket is
//!   microseconds).
//! * [`distance_to`] is the crate's point-to-point entry: an exact
//!   bidirectional Dijkstra. A forward search from the source over the
//!   graph and a backward search from the target over its transpose
//!   always advance the side with the smaller queue head, and stop once
//!   the two heads sum to at least the best meeting distance μ. So each
//!   side settles only vertices within about half the answer of its own
//!   end: a point query pulls two small balls of the graph through the
//!   cache (§3.2) instead of one ball of radius d(source, target). It
//!   polls once before its first settle, so an already expired deadline
//!   is honoured even by a search shorter than the interval, and then
//!   every [`CANCEL_CHECK_INTERVAL`] settles, counted over both sides.
//!
//! The check is a plain `FnMut() -> bool` closure, so this crate never
//! references the observability layer (the obs-purity fixture pair
//! `obs_pos_cancel.rs` / `obs_neg_cancel.rs` in `cachegraph-tidy`
//! documents exactly this seam); callers build the closure from a
//! deadline, an `AtomicBool`, or anything else. The poll cadence is
//! also the unit of the serve layer's `cancel_polls` trace tag: for a
//! `path` or `reach` query, the entry poll plus one count per
//! [`CANCEL_CHECK_INTERVAL`] settles over both sides, so a request
//! trace exposes how often a query could have been abandoned.

use cachegraph_graph::{Graph, VertexId, Weight, INF};
use cachegraph_pq::{DecreaseKeyQueue, IndexedBinaryHeap};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::dijkstra::SsspResult;
use crate::NO_VERTEX;

/// Extract-mins between cancellation polls.
pub const CANCEL_CHECK_INTERVAL: usize = 64;

/// The query was cancelled before it finished; partial results are
/// discarded (a half-filled distance array is not an answer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query cancelled at a bucket boundary")
    }
}

impl std::error::Error for Cancelled {}

/// [`dijkstra`](crate::dijkstra) with cancellation and optional early
/// exit at `target`. `cancel` is polled every
/// [`CANCEL_CHECK_INTERVAL`] extract-mins; returning `true` abandons
/// the search with [`Cancelled`]. With a target, distances of vertices
/// settled *after* the target are left `INF` — `dist[target]` and
/// everything nearer are exact.
pub fn dijkstra_cancellable<G: Graph, Q: DecreaseKeyQueue>(
    g: &G,
    source: VertexId,
    target: Option<VertexId>,
    cancel: &mut impl FnMut() -> bool,
) -> Result<SsspResult, Cancelled> {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source out of range");
    if let Some(t) = target {
        assert!((t as usize) < n, "target out of range");
    }
    let mut dist = vec![INF; n];
    let mut pred = vec![NO_VERTEX; n];
    let mut q = Q::with_capacity(n);
    for v in 0..n as VertexId {
        q.insert(v, if v == source { 0 } else { INF });
    }
    dist[source as usize] = 0;
    let mut since_check = 0usize;
    while let Some((u, du)) = q.extract_min() {
        if du == INF {
            break; // remaining vertices unreachable
        }
        since_check += 1;
        if since_check >= CANCEL_CHECK_INTERVAL {
            since_check = 0;
            if cancel() {
                return Err(Cancelled);
            }
        }
        dist[u as usize] = du;
        if target == Some(u) {
            break; // target settled: its distance is final
        }
        for (v, w) in g.neighbors(u) {
            let nd = du.saturating_add(w);
            if q.decrease_key(v, nd) {
                pred[v as usize] = u;
            }
        }
    }
    Ok(SsspResult { dist, pred })
}

/// [`dijkstra_cancellable`] with the standard indexed binary heap.
pub fn dijkstra_to<G: Graph>(
    g: &G,
    source: VertexId,
    target: Option<VertexId>,
    cancel: &mut impl FnMut() -> bool,
) -> Result<SsspResult, Cancelled> {
    dijkstra_cancellable::<G, IndexedBinaryHeap>(g, source, target, cancel)
}

/// Exact shortest `source -> target` distance (`INF` when unreachable)
/// by bidirectional Dijkstra. `reverse` must be the transpose of `g`:
/// every arc `u -> v` of `g` as `v -> u`, with the same weight.
///
/// `cancel` is polled once before the first settle and then every
/// [`CANCEL_CHECK_INTERVAL`] settles, counted over both searches;
/// returning `true` abandons the search with [`Cancelled`].
pub fn distance_to<G: Graph>(
    g: &G,
    reverse: &G,
    source: VertexId,
    target: VertexId,
    cancel: &mut impl FnMut() -> bool,
) -> Result<Weight, Cancelled> {
    let n = g.num_vertices();
    assert_eq!(reverse.num_vertices(), n, "reverse graph size differs");
    assert!((source as usize) < n, "source out of range");
    assert!((target as usize) < n, "target out of range");
    if cancel() {
        return Err(Cancelled);
    }
    let mut forward = Frontier::new(n, source);
    let mut backward = Frontier::new(n, target);
    // μ: the shortest source -> target walk seen so far. A walk through
    // the arc a scan just relaxed is its endpoints' labels plus the arc.
    let mut best = if source == target { 0 } else { INF };
    let mut since_check = 0usize;
    while let (Some(df), Some(db)) = (forward.head(), backward.head()) {
        // Every walk not yet seen is at least `df + db` long.
        if df.saturating_add(db) >= best {
            break;
        }
        since_check += 1;
        if since_check >= CANCEL_CHECK_INTERVAL {
            since_check = 0;
            if cancel() {
                return Err(Cancelled);
            }
        }
        best = if df <= db {
            forward.settle(g, &backward.dist, best)
        } else {
            backward.settle(reverse, &forward.dist, best)
        };
    }
    Ok(best)
}

/// One side of [`distance_to`]: a lazy-deletion Dijkstra frontier, as
/// in [`dijkstra_lazy`](crate::dijkstra_lazy). A vertex is pushed only
/// when its label strictly drops, so a queued entry is stale exactly
/// when it is larger than the vertex's label.
struct Frontier {
    dist: Vec<Weight>,
    heap: BinaryHeap<Reverse<(Weight, VertexId)>>,
}

impl Frontier {
    fn new(n: usize, root: VertexId) -> Self {
        let mut dist = vec![INF; n];
        dist[root as usize] = 0;
        Self { dist, heap: BinaryHeap::from(vec![Reverse((0, root))]) }
    }

    /// The smallest label still queued, after dropping stale entries.
    fn head(&mut self) -> Option<Weight> {
        while let Some(&Reverse((d, u))) = self.heap.peek() {
            if d == self.dist[u as usize] {
                return Some(d);
            }
            self.heap.pop();
        }
        None
    }

    /// Settle the head vertex and relax its arcs in `g`. Returns `best`
    /// lowered by every walk through a relaxed arc whose far end the
    /// other side has labelled (`other`).
    fn settle<G: Graph>(&mut self, g: &G, other: &[Weight], mut best: Weight) -> Weight {
        let Some(Reverse((du, u))) = self.heap.pop() else {
            return best;
        };
        for (v, w) in g.neighbors(u) {
            let nd = du.saturating_add(w);
            best = best.min(nd.saturating_add(other[v as usize]));
            if nd < self.dist[v as usize] {
                self.dist[v as usize] = nd;
                self.heap.push(Reverse((nd, v)));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra_binary_heap;
    use cachegraph_graph::{generators, AdjacencyArray, EdgeListBuilder};

    /// A directed path `0 -> 1 -> ... -> edges` of unit weights, and its
    /// transpose.
    fn directed_path(edges: usize) -> (AdjacencyArray, AdjacencyArray) {
        let mut b = EdgeListBuilder::new(edges + 1);
        for v in 0..edges as VertexId {
            b.add(v, v + 1, 1);
        }
        (b.build_array(), b.reversed().build_array())
    }

    #[test]
    fn uncancelled_matches_plain_dijkstra() {
        for seed in 0..4 {
            let g = generators::random_directed(80, 0.08, 50, seed).build_array();
            let plain = dijkstra_binary_heap(&g, 0);
            let cancellable =
                dijkstra_to(&g, 0, None, &mut || false).expect("never cancelled");
            assert_eq!(plain.dist, cancellable.dist, "seed {seed}");
            assert_eq!(plain.pred, cancellable.pred, "seed {seed}");
        }
    }

    #[test]
    fn early_exit_settles_the_target_exactly() {
        let g = generators::random_directed(120, 0.06, 50, 9).build_array();
        let plain = dijkstra_binary_heap(&g, 3);
        for t in [0u32, 17, 64, 119] {
            let d =
                dijkstra_to(&g, 3, Some(t), &mut || false).expect("not cancelled").dist[t as usize];
            assert_eq!(d, plain.dist[t as usize], "target {t}");
        }
    }

    #[test]
    fn cancellation_fires_at_a_bucket_boundary() {
        // A graph big enough to cross the check interval at least once.
        let g = generators::random_directed(300, 0.05, 50, 2).build_array();
        let mut polls = 0usize;
        let result = dijkstra_to(&g, 0, None, &mut || {
            polls += 1;
            true // cancel at the first poll
        });
        assert_eq!(result, Err(Cancelled));
        assert_eq!(polls, 1, "first poll must already abandon the search");
    }

    #[test]
    fn small_searches_never_poll() {
        // Fewer extract-mins than the interval: the closure is not
        // consulted at all, so trivial queries pay zero overhead.
        let g = generators::random_directed(16, 0.3, 10, 1).build_array();
        let mut polls = 0usize;
        let r = dijkstra_to(&g, 0, None, &mut || {
            polls += 1;
            true
        });
        assert!(r.is_ok());
        assert_eq!(polls, 0);
    }

    #[test]
    fn always_true_hook_cancels_a_search_shorter_than_the_interval() {
        // Two settles would answer this query; the entry poll still
        // honours a deadline that expired before the search began.
        let (g, r) = directed_path(1);
        let mut polls = 0usize;
        let result = distance_to(&g, &r, 0, 1, &mut || {
            polls += 1;
            true
        });
        assert_eq!(result, Err(Cancelled));
        assert_eq!(polls, 1);
        assert_eq!(distance_to(&g, &r, 1, 1, &mut || true), Err(Cancelled), "source == target");
    }

    #[test]
    fn first_true_poll_abandons_a_long_search_after_one_poll() {
        let (g, r) = directed_path(40 * CANCEL_CHECK_INTERVAL);
        let mut polls = 0usize;
        let result = distance_to(&g, &r, 0, g.num_vertices() as VertexId - 1, &mut || {
            polls += 1;
            true
        });
        assert_eq!(result, Err(Cancelled));
        assert_eq!(polls, 1, "first poll must already abandon the search");
    }

    #[test]
    fn never_true_hook_returns_the_exact_distance() {
        // On a path of 2k edges the two sides alternate and meet in the
        // middle after k settles each: 2k settles in all, so the hook is
        // polled on entry and then once per interval over both sides.
        let edges = 10 * CANCEL_CHECK_INTERVAL;
        let (g, r) = directed_path(edges);
        let mut polls = 0usize;
        let d = distance_to(&g, &r, 0, edges as VertexId, &mut || {
            polls += 1;
            false
        });
        assert_eq!(d, Ok(edges as Weight));
        assert_eq!(polls, 1 + edges / CANCEL_CHECK_INTERVAL);
    }

    #[test]
    fn cancelled_error_displays() {
        assert!(Cancelled.to_string().contains("bucket boundary"));
    }
}
