//! The footprint oracle: per-phase disjointness, proven from the plan.
//!
//! For a given `(n, b)` tiling this builds the exact task plan the
//! parallel driver executes (`cachegraph_fw::plan::Planner`) and checks,
//! for every block iteration and each of its two parallel phases, the
//! precondition of `fw::parallel`'s tile split (each task borrows its A
//! tile mutably and the tiles it reads shared):
//!
//! 1. write footprints are pairwise disjoint (each tile is written by
//!    exactly one task per phase), and
//! 2. no task's read footprint intersects any other task's write
//!    footprint (everything a task reads is stable for the whole phase).
//!
//! The set arithmetic itself is the generic oracle in
//! [`cachegraph_plan::footprint`] (shared with every driver checker); the
//! companion test in `cachegraph-fw` (`phase_tasks_access_disjoint_cells`)
//! proves the declared ranges cover every access the real kernel makes,
//! so together they show every plan of the sweep splits into borrows.

use std::collections::BTreeSet;
use std::fmt;

use cachegraph_fw::plan::{Planner, TileTask};
use cachegraph_layout::BlockLayout;

pub use cachegraph_plan::OverlapKind;

/// One footprint-disjointness violation found by the oracle.
#[derive(Clone, Debug)]
pub struct FootprintViolation {
    /// Logical matrix dimension of the offending configuration.
    pub n: usize,
    /// Tile size of the offending configuration.
    pub b: usize,
    /// Block iteration.
    pub t: usize,
    /// Phase name (`"phase2"` / `"phase3"`).
    pub phase: &'static str,
    /// Index of the writing task within the phase's task list.
    pub writer: usize,
    /// Index of the other (writing or reading) task.
    pub other: usize,
    /// One witness cell in the overlap (flat storage index).
    pub cell: usize,
    /// Which disjointness claim is broken.
    pub kind: OverlapKind,
}

impl fmt::Display for FootprintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} b={} t={} {}: {} overlap between tasks {} and {} at cell {}",
            self.n, self.b, self.t, self.phase, self.kind, self.writer, self.other, self.cell
        )
    }
}

/// The declared write footprint of a task as a cell set.
fn write_cells(task: &TileTask, b: usize) -> BTreeSet<usize> {
    task.write_rows(b).flatten().collect()
}

/// The declared read footprint of a task as a cell set.
fn read_cells(task: &TileTask, b: usize) -> BTreeSet<usize> {
    task.read_rows(b).flatten().collect()
}

/// Check one phase given each task's footprint as bare `(reads, writes)`
/// cell sets; push any overlap into `out`.
///
/// This is the oracle's set arithmetic with the footprint *source*
/// abstracted away: [`check_footprints`] feeds it the plan-declared
/// ranges, while `cachegraph-analyze` feeds it footprints statically
/// inferred from the kernel source, re-proving the same disjointness
/// claims without running anything.
pub fn check_phase_footprints(
    n: usize,
    b: usize,
    t: usize,
    phase: &'static str,
    footprints: &[(BTreeSet<usize>, BTreeSet<usize>)],
    out: &mut Vec<FootprintViolation>,
) {
    for o in cachegraph_plan::phase_overlaps(footprints) {
        out.push(FootprintViolation {
            n,
            b,
            t,
            phase,
            writer: o.writer,
            other: o.other,
            cell: o.unit,
            kind: o.kind,
        });
    }
}

/// Check one phase's task list against its *declared* footprints; push
/// any overlap into `out`.
fn check_phase(
    n: usize,
    b: usize,
    t: usize,
    phase: &'static str,
    tasks: &[TileTask],
    out: &mut Vec<FootprintViolation>,
) {
    let footprints: Vec<(BTreeSet<usize>, BTreeSet<usize>)> =
        tasks.iter().map(|task| (read_cells(task, b), write_cells(task, b))).collect();
    check_phase_footprints(n, b, t, phase, &footprints, out);
}

/// Prove (or refute) the per-phase disjointness claims for one `(n, b)`
/// configuration over the Block Data Layout — the layout the parallel
/// driver is benchmarked on. Returns every overlap found (empty =
/// proven for this configuration).
pub fn check_footprints(n: usize, b: usize) -> Vec<FootprintViolation> {
    let layout = BlockLayout::new(n, b);
    let planner = Planner::new(&layout, n, b);
    let mut out = Vec::new();
    let mut tasks = Vec::new();
    for t in 0..planner.real_tiles() {
        planner.phase2(t, &mut tasks);
        check_phase(n, b, t, "phase2", &tasks, &mut out);
        planner.phase3(t, &mut tasks);
        check_phase(n, b, t, "phase3", &tasks, &mut out);
    }
    out
}

/// Sweep every `(n, b)` with `1 <= n <= max_n`, `1 <= b <= max_b`.
/// Returns the number of configurations checked and all violations.
pub fn sweep_footprints(max_n: usize, max_b: usize) -> (usize, Vec<FootprintViolation>) {
    let mut configs = 0;
    let mut violations = Vec::new();
    for n in 1..=max_n {
        for b in 1..=max_b {
            configs += 1;
            violations.extend(check_footprints(n, b));
        }
    }
    (configs, violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegraph_fw::View;

    #[test]
    fn overlapping_hand_built_tasks_are_caught() {
        // Two tasks writing the same tile: the oracle must refuse.
        let tile = View { offset: 0, stride: 4 };
        let other = View { offset: 16, stride: 4 };
        let tasks = [
            TileTask { a: tile, b: other, c: other },
            TileTask { a: tile, b: other, c: other },
        ];
        let mut out = Vec::new();
        check_phase(8, 4, 0, "phase2", &tasks, &mut out);
        assert!(out.iter().any(|v| v.kind == OverlapKind::WriteWrite));

        // One task reading what the other writes: also refused.
        let tasks = [
            TileTask { a: tile, b: other, c: other },
            TileTask { a: other, b: tile, c: other },
        ];
        out.clear();
        check_phase(8, 4, 0, "phase2", &tasks, &mut out);
        assert!(out.iter().any(|v| v.kind == OverlapKind::ReadWrite));
        assert!(!out.iter().any(|v| v.kind == OverlapKind::WriteWrite));
    }

    #[test]
    fn real_plans_are_disjoint() {
        for (n, b) in [(1, 1), (4, 4), (8, 4), (9, 3), (12, 4), (17, 5)] {
            let v = check_footprints(n, b);
            assert!(v.is_empty(), "n={n} b={b}: {:?}", v.first());
        }
    }
}
