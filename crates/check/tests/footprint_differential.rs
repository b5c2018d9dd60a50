//! Differential footprint tests for the TaskGraph drivers: the same
//! three-way evidence the FW driver has (statically inferred ⊆ declared
//! ⊇ dynamically recorded), applied to one delta-stepping phase pair
//! and one matching partition phase.
//!
//! * **declared** — the plan's [`TaskFootprint`]s, the thing the oracle
//!   proves disjoint;
//! * **recorded** — the units the *real task body* touches, captured by
//!   running it with a [`UnitRecorder`] sink;
//! * **inferred** — static analysis of the kernel source
//!   (`cachegraph-analyze`); see the `#[ignore]` test for why this leg
//!   does not exist for these drivers yet.

use std::collections::BTreeSet;

use cachegraph_graph::{generators, AdjacencyArray, INF};
use cachegraph_matching::{find_matching_recorded, Matching, MatchingPartPlan, PartitionScheme};
use cachegraph_plan::{TaskFootprint, UnitRecorder};
use cachegraph_sssp::delta::{gather_task, scatter_task, Proposal};
use cachegraph_sssp::{DeltaPhasePlan, NO_VERTEX};

/// A mid-run delta-stepping state with a multi-vertex frontier: the
/// frontier vertices have finite distances, everything else is INF.
fn delta_state(seed: u64) -> (AdjacencyArray, DeltaPhasePlan, Vec<u32>, Vec<u32>) {
    let n = 14;
    let g = generators::random_directed(n, 0.3, 9, seed).build_array();
    let frontier: Vec<u32> = vec![1, 4, 7, 10];
    let mut dist = vec![INF; n];
    for (i, &u) in frontier.iter().enumerate() {
        dist[u as usize] = 3 + i as u32;
    }
    let pred = vec![NO_VERTEX; n];
    let plan = DeltaPhasePlan::new(&g, frontier, 3);
    (g, plan, dist, pred)
}

#[test]
fn delta_gather_recorded_equals_declared_reads() {
    for seed in [0x5eed, 0xace0, 0xbeef] {
        let (g, plan, dist, _) = delta_state(seed);
        for t in 0..plan.gather_chunks.len() {
            let declared = plan.gather_footprint(&g, t);
            let mut rec = UnitRecorder::new();
            let mut out: Vec<Proposal> = Vec::new();
            gather_task(&g, &plan, t, &dist, &mut out, &mut rec);
            // Gather reads every frontier dist entry and every edge
            // target unconditionally: recorded reads are EXACTLY the
            // declared reads, not merely a subset.
            assert_eq!(
                rec.reads, declared.reads,
                "seed {seed:#x} gather task {t}: recorded reads != declared"
            );
            // Writes happen only for improving proposals: a subset of
            // the declared slot range, never outside it.
            assert!(
                rec.writes.is_subset(&declared.writes),
                "seed {seed:#x} gather task {t}: write outside declared slots"
            );
        }
    }
}

#[test]
fn delta_scatter_recorded_within_declared() {
    for seed in [0x5eed, 0xace0, 0xbeef] {
        let (g, plan, mut dist, mut pred) = delta_state(seed);
        let mut gathers: Vec<Vec<Proposal>> = vec![Vec::new(); plan.gather_chunks.len()];
        for (t, out) in gathers.iter_mut().enumerate() {
            gather_task(&g, &plan, t, &dist, out, &mut cachegraph_plan::NoSink);
        }
        let proposals: Vec<&[Proposal]> = gathers.iter().map(|v| v.as_slice()).collect();
        // Gather emits a proposal only for improving edges, so the slots
        // every scatter task scans are the produced ones, a subset of
        // the declared slot space.
        let produced_slots: BTreeSet<u64> = gathers
            .iter()
            .flatten()
            .map(|p| plan.slot_unit(p.slot as usize))
            .collect();
        let mut drest: &mut [u32] = &mut dist;
        let mut prest: &mut [u32] = &mut pred;
        for (t, r) in plan.owned.iter().enumerate() {
            let declared = plan.scatter_footprint(t);
            let len = r.end - r.start;
            let (d, dnext) = drest.split_at_mut(len);
            let (p, pnext) = prest.split_at_mut(len);
            drest = dnext;
            prest = pnext;
            let mut improved = vec![false; len];
            let mut rec = UnitRecorder::new();
            scatter_task(&plan, t, &proposals, d, p, &mut improved, &mut rec);
            assert!(
                rec.within(&declared),
                "seed {seed:#x} scatter task {t}: access outside declared footprint"
            );
            // Every scatter task scans ALL produced proposals, so the
            // slot portion of its recorded reads is exactly the
            // produced-slot set — identical across tasks.
            let slot_reads: BTreeSet<u64> =
                rec.reads.iter().copied().filter(|&u| u as usize >= plan.n).collect();
            assert_eq!(
                slot_reads, produced_slots,
                "seed {seed:#x} scatter task {t}: slot scan incomplete"
            );
            // Writes stay inside the owned vertex range.
            assert!(
                rec.writes.iter().all(|&u| (u as usize) >= r.start && (u as usize) < r.end),
                "seed {seed:#x} scatter task {t}: write outside owned range"
            );
        }
    }
}

#[test]
fn matching_part_recorded_within_declared() {
    for seed in [0x5eed, 0xace0, 0xbeef] {
        let b = generators::random_bipartite(24, 0.2, seed);
        let (plan, _) =
            MatchingPartPlan::new(&b.build_array(), 12, PartitionScheme::Contiguous(4));
        for (k, part) in plan.parts.iter().enumerate() {
            if part.is_trivial() {
                continue;
            }
            let declared = plan.part_footprint(k);
            let mut rec = UnitRecorder::new();
            find_matching_recorded(
                &part.graph,
                part.left_count,
                Matching::empty(part.members.len()),
                &mut rec,
            );
            // Lift the local-id recording into global units, the space
            // the declared footprint lives in.
            let lift = |s: &BTreeSet<u64>| -> BTreeSet<u64> {
                s.iter().map(|&u| part.members[u as usize] as u64).collect()
            };
            let recorded =
                TaskFootprint { reads: lift(&rec.reads), writes: lift(&rec.writes) };
            assert!(
                recorded.reads.is_subset(&declared.reads),
                "seed {seed:#x} part {k}: read outside declared members"
            );
            assert!(
                recorded.writes.is_subset(&declared.writes),
                "seed {seed:#x} part {k}: write outside declared members"
            );
            // The free-left scan touches every left member each round,
            // so all left members must appear in the recording.
            for lv in 0..part.left_count {
                let gv = part.members[lv] as u64;
                assert!(
                    recorded.reads.contains(&gv),
                    "seed {seed:#x} part {k}: left member {gv} never read"
                );
            }
        }
    }
}

/// The third leg — statically inferred footprints — exists only for the
/// FW tile kernels, whose subscripts are affine in loop induction
/// variables, so `cachegraph-analyze` can enumerate them symbolically
/// and prove inferred ⊆ declared without running anything. The delta
/// and matching task bodies are *data-dependent*: gather's footprint
/// follows the frontier's adjacency lists, scatter's follows the
/// proposals gather produced, and a matching part's follows the
/// partition assignment — none of which is visible in the source. A
/// static leg for these drivers needs `cachegraph-analyze` to grow a
/// summary form ("reads `dist[target(e)]` for `e` in `edges(u)`")
/// instantiated against a concrete graph, which is future work tracked
/// in ROADMAP.md. Until then this test is a loud placeholder: if it is
/// ever un-ignored without that machinery, it fails rather than
/// silently passing.
#[test]
#[ignore = "static-inference gap: analyze models affine FwMatrix kernels only; \
            delta/matching footprints are data-dependent (frontier adjacency, \
            partition assignment) — see test doc comment and ROADMAP.md"]
fn static_inference_covers_taskgraph_drivers() {
    panic!(
        "no static footprint inference exists for data-dependent TaskGraph drivers; \
         grow cachegraph-analyze before un-ignoring (see doc comment)"
    );
}
