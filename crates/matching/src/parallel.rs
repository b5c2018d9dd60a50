//! Parallel partitioned matching on the shared TaskGraph runtime.
//!
//! The Fig. 9 decomposition is embarrassingly parallel in its local
//! phase: each part's sub-problem touches only its own members' `mate`
//! entries, so the per-part solves are independent tasks with disjoint
//! declared footprints (unit `v` = `mate[v]`). This driver runs them on
//! [`cachegraph_plan::run_tasks_mut`] scoped workers, merges the local
//! matchings **serially in part order** (the exact statements of
//! [`find_matching_partitioned`](crate::find_matching_partitioned)), and
//! finishes with the same serial global pass — so the result, `mate`
//! array included, is bit-identical to the serial partitioned driver for
//! every thread count.
//!
//! The global pass is a single task whose footprint is the whole `mate`
//! array; it must sit in its own phase. `cachegraph-check`'s matching
//! driver proves the per-part footprints disjoint, replays recorded
//! access scripts of both phases against shadow memory over many
//! interleavings, and detects the seeded mutation that merges the global
//! pass into the local phase.

use std::sync::atomic::{AtomicBool, Ordering};

use cachegraph_graph::{AdjacencyArray, Edge, Graph, VertexId};
use cachegraph_plan::{run_tasks_mut, TaskFootprint, TaskGraph};

use crate::augmenting::{find_matching_cancellable, MatchCancelled, Matching};
use crate::partitioned::{
    build_local_parts, merge_local, LocalPart, PartitionScheme, PartitionedStats,
};

/// The task plan of a partitioned matching run: the sub-problems of the
/// local phase plus the whole-graph global pass.
#[derive(Clone, Debug)]
pub struct MatchingPartPlan {
    /// Number of vertices (`mate` units are `0..n`).
    pub n: usize,
    /// The sub-problems, in part order.
    pub parts: Vec<LocalPart>,
}

impl MatchingPartPlan {
    /// Build the plan (and internal-edge count) for `scheme` from the
    /// left arcs of `g`.
    pub fn new(g: &AdjacencyArray, n_left: usize, scheme: PartitionScheme) -> (Self, usize) {
        let (parts, internal) = build_local_parts(g, n_left, scheme);
        (Self { n: g.num_vertices(), parts }, internal)
    }

    /// Declared footprint of local task `k`: it reads and writes exactly
    /// its members' `mate` entries.
    pub fn part_footprint(&self, k: usize) -> TaskFootprint {
        let mut fp = TaskFootprint::default();
        for &gv in &self.parts[k].members {
            fp.reads.insert(gv as u64);
            fp.writes.insert(gv as u64);
        }
        fp
    }

    /// The two-phase [`TaskGraph`]: per-part local solves, then the
    /// single global pass over the whole `mate` array.
    pub fn task_graph(&self) -> TaskGraph {
        let mut tg = TaskGraph::new("matching");
        tg.push_phase(
            "local",
            (0..self.parts.len()).map(|k| self.part_footprint(k)).collect(),
        );
        let mut global = TaskFootprint::default();
        for v in 0..self.n as u64 {
            global.reads.insert(v);
            global.writes.insert(v);
        }
        tg.push_phase("global", vec![global]);
        tg
    }
}

/// [`find_matching_partitioned`](crate::find_matching_partitioned) with
/// the local solves on `threads` scoped workers; bit-identical result
/// and statistics.
///
/// `edges` is not read: the parts are carved from `g`'s left arcs. The
/// parameter exists only so the benchmark package (`perfbench/`), which
/// passes the edge list `g` was built from, keeps compiling unchanged;
/// debug builds check that its left arcs equal `g`'s.
pub fn find_matching_partitioned_parallel(
    g: &AdjacencyArray,
    n_left: usize,
    edges: &[Edge],
    scheme: PartitionScheme,
    threads: usize,
) -> (Matching, PartitionedStats) {
    debug_assert!(left_arcs_agree(g, n_left, edges), "edges disagree with g's left arcs");
    match find_matching_partitioned_parallel_cancellable(g, n_left, scheme, threads, &|| false) {
        Ok(r) => r,
        // tidy: allow(panic-policy) — the never-cancelling hook makes Err unreachable.
        Err(_) => unreachable!("matching cancelled without a cancel hook"),
    }
}

/// True when the left → right arcs of `edges` are `g`'s, vertex by
/// vertex and in order.
fn left_arcs_agree(g: &AdjacencyArray, n_left: usize, edges: &[Edge]) -> bool {
    let from_edges = AdjacencyArray::from_edges(g.num_vertices(), edges);
    (0..n_left as VertexId)
        .all(|u| from_edges.neighbors(u).map(|(v, _)| v).eq(g.neighbors(u).map(|(v, _)| v)))
}

/// [`find_matching_partitioned_parallel`] with deadline propagation:
/// `cancel` is polled by the coordinator before each phase, by every
/// local-phase worker before its solve, and between global augmentation
/// rounds. Cancellation during the local phase surrenders the (empty)
/// union; during the global pass, the partial matching built so far.
pub fn find_matching_partitioned_parallel_cancellable(
    g: &AdjacencyArray,
    n_left: usize,
    scheme: PartitionScheme,
    threads: usize,
    cancel: &(impl Fn() -> bool + Sync),
) -> Result<(Matching, PartitionedStats), MatchCancelled> {
    assert!(threads >= 1, "need at least one thread");
    let n = g.num_vertices();
    let (plan, internal) = MatchingPartPlan::new(g, n_left, scheme);
    if cancel() {
        return Err(MatchCancelled { partial: Matching::empty(n) });
    }

    // Phase 1: independent local solves, one task per part.
    let cancelled = AtomicBool::new(false);
    let mut solves: Vec<(usize, Option<Matching>)> =
        (0..plan.parts.len()).map(|k| (k, None)).collect();
    {
        let parts = &plan.parts;
        run_tasks_mut(&mut solves, threads, |_, (k, out)| {
            if cancel() {
                cancelled.store(true, Ordering::Relaxed);
                return;
            }
            *out = parts[*k].solve();
        });
    }
    if cancelled.load(Ordering::Relaxed) {
        return Err(MatchCancelled { partial: Matching::empty(n) });
    }

    // Serial merge in part order: same statements, same result as the
    // serial driver.
    let mut union = Matching::empty(n);
    for (k, solved) in &solves {
        if let Some(local) = solved {
            merge_local(&plan.parts[*k], local, &mut union);
        }
    }
    let stats = PartitionedStats {
        local_matched: union.size,
        internal_edges: internal,
        parts: plan.parts.len(),
    };

    // Phase 2: the serial global pass, polling between rounds.
    let mut poll = || cancel();
    let m = find_matching_cancellable(g, n_left, union, &mut poll)?;
    Ok((m, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{find_matching_partitioned, hopcroft_karp};
    use cachegraph_graph::generators;

    #[test]
    fn parallel_is_bit_identical_to_serial_partitioned() {
        for seed in 0..4 {
            let b = generators::random_bipartite(48, 0.12, seed);
            let g = AdjacencyArray::from_edges(48, b.edges());
            for scheme in
                [PartitionScheme::Contiguous(4), PartitionScheme::Contiguous(1), PartitionScheme::TwoWay]
            {
                let (serial, sstats) = find_matching_partitioned(&g, 24, scheme);
                for threads in [1, 2, 4, 7] {
                    let (par, pstats) =
                        find_matching_partitioned_parallel(&g, 24, b.edges(), scheme, threads);
                    assert_eq!(par.mate, serial.mate, "seed {seed} threads {threads}");
                    assert_eq!(par.size, serial.size, "seed {seed} threads {threads}");
                    assert_eq!(pstats, sstats, "seed {seed} threads {threads}");
                }
            }
        }
    }

    #[test]
    fn parallel_reaches_the_maximum() {
        for seed in 0..3 {
            let b = generators::random_bipartite(64, 0.09, 70 + seed);
            let g = AdjacencyArray::from_edges(64, b.edges());
            let oracle = hopcroft_karp(&g, 32);
            let (m, _) = find_matching_partitioned_parallel(
                &g,
                32,
                b.edges(),
                PartitionScheme::Contiguous(4),
                4,
            );
            assert_eq!(m.size, oracle.size, "seed {seed}");
            m.assert_valid(&g);
        }
    }

    #[test]
    fn plan_footprints_are_disjoint() {
        let b = generators::random_bipartite(40, 0.2, 5);
        for scheme in [PartitionScheme::Contiguous(4), PartitionScheme::TwoWay] {
            let (plan, _) = MatchingPartPlan::new(&b.build_array(), 20, scheme);
            let tg = plan.task_graph();
            let v = tg.check_disjoint();
            assert!(v.is_empty(), "{scheme:?}: {}", v[0]);
        }
    }

    #[test]
    fn cancellation_returns_err_and_all_workers_poll() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let b = generators::random_bipartite(160, 0.08, 9);
        let g = AdjacencyArray::from_edges(160, b.edges());
        let seen = Mutex::new(HashSet::new());
        let threads = 4;
        let r = find_matching_partitioned_parallel_cancellable(
            &g,
            80,
            PartitionScheme::Contiguous(8),
            threads,
            &|| {
                let mut ids = match seen.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                ids.insert(std::thread::current().id());
                ids.len() > threads // cancel once every worker has polled
            },
        );
        assert!(r.is_err(), "late cancellation must still surface");
        let ids = match seen.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        assert!(ids.len() > threads, "coordinator + {threads} workers must all poll");
    }

    #[test]
    fn empty_graph_and_single_part() {
        let g = AdjacencyArray::from_edges(8, &[]);
        let (m, stats) =
            find_matching_partitioned_parallel(&g, 4, &[], PartitionScheme::Contiguous(2), 4);
        assert_eq!(m.size, 0);
        assert_eq!(stats.local_matched, 0);
    }
}
