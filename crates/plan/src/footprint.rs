//! Declared footprints and the generic disjointness oracle.
//!
//! A *footprint domain* is whatever a solver's tasks contend over: flat
//! matrix cells for tiled FW, vertex ids and proposal slots for
//! delta-stepping, mate-array entries for matching. The oracle does not
//! care — [`phase_overlaps`] is set arithmetic over any ordered unit
//! type, and [`TaskGraph`] fixes the concrete domain to opaque `u64`
//! units so whole plans can be shipped to `cachegraph-check` uniformly.
//!
//! The claims proven per phase are exactly the PR 5 ones:
//!
//! 1. write footprints are pairwise disjoint (each unit is written by at
//!    most one task per phase), and
//! 2. no task's read footprint intersects another task's write footprint
//!    (everything a task reads is stable for the whole phase).

use std::collections::BTreeSet;
use std::fmt;

/// Opaque footprint unit: each solver defines its own encoding (cell
/// index, vertex id, `n + slot`, row word, ...).
pub type Unit = u64;

/// One task's declared read/write footprint.
#[derive(Clone, Debug, Default)]
pub struct TaskFootprint {
    /// Units the task may read.
    pub reads: BTreeSet<Unit>,
    /// Units the task may write.
    pub writes: BTreeSet<Unit>,
}

/// One barrier-delimited phase: tasks that may run concurrently.
#[derive(Clone, Debug)]
pub struct PhasePlan {
    /// Phase name, e.g. `"phase2"`, `"gather"`, `"local"`.
    pub name: String,
    /// Declared footprints, indexed by task id within the phase.
    pub tasks: Vec<TaskFootprint>,
}

/// An ordered sequence of phases with declared footprints — the pure
/// data a parallel driver executes and the checkers reason about.
#[derive(Clone, Debug)]
pub struct TaskGraph {
    /// The solver the plan belongs to, e.g. `"delta-dijkstra"`.
    pub solver: String,
    /// Phases in barrier order.
    pub phases: Vec<PhasePlan>,
}

/// How two task footprints illegally overlap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverlapKind {
    /// Two tasks of one phase may write a common unit.
    WriteWrite,
    /// One task may read a unit another task of the same phase writes.
    ReadWrite,
}

impl fmt::Display for OverlapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OverlapKind::WriteWrite => write!(f, "write/write"),
            OverlapKind::ReadWrite => write!(f, "read/write"),
        }
    }
}

/// One overlap between two tasks of a phase, with a witness unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overlap<T> {
    /// Which disjointness claim is broken.
    pub kind: OverlapKind,
    /// Index of the writing task within the phase's task list.
    pub writer: usize,
    /// Index of the other (writing or reading) task.
    pub other: usize,
    /// One witness unit in the overlap.
    pub unit: T,
}

/// Check one phase given each task's footprint as bare `(reads, writes)`
/// unit sets; returns every overlap found (empty = disjointness proven
/// for this phase).
///
/// At most one witness is reported per ordered task pair and claim: a
/// write/write overlap for each unordered pair `{x, y}` (reported with
/// `writer < other`), and a read/write overlap for each ordered pair
/// `(writer, reader)`.
pub fn phase_overlaps<T: Ord + Copy>(
    footprints: &[(BTreeSet<T>, BTreeSet<T>)],
) -> Vec<Overlap<T>> {
    let reads: Vec<&BTreeSet<T>> = footprints.iter().map(|(r, _)| r).collect();
    let writes: Vec<&BTreeSet<T>> = footprints.iter().map(|(_, w)| w).collect();
    let mut out = Vec::new();
    for x in 0..footprints.len() {
        for y in 0..footprints.len() {
            if x == y {
                continue;
            }
            if x < y {
                if let Some(&unit) = writes[x].intersection(writes[y]).next() {
                    out.push(Overlap { kind: OverlapKind::WriteWrite, writer: x, other: y, unit });
                }
            }
            if let Some(&unit) = writes[x].intersection(reads[y]).next() {
                out.push(Overlap { kind: OverlapKind::ReadWrite, writer: x, other: y, unit });
            }
        }
    }
    out
}

/// One disjointness violation in a [`TaskGraph`].
#[derive(Clone, Debug)]
pub struct TaskGraphViolation {
    /// The owning solver.
    pub solver: String,
    /// Phase name.
    pub phase: String,
    /// Phase index within the graph.
    pub phase_index: usize,
    /// The offending overlap.
    pub overlap: Overlap<Unit>,
}

impl fmt::Display for TaskGraphViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} (phase {}): {} overlap between tasks {} and {} at unit {}",
            self.solver,
            self.phase,
            self.phase_index,
            self.overlap.kind,
            self.overlap.writer,
            self.overlap.other,
            self.overlap.unit
        )
    }
}

impl TaskGraph {
    /// An empty plan for `solver`.
    pub fn new(solver: impl Into<String>) -> Self {
        Self { solver: solver.into(), phases: Vec::new() }
    }

    /// Append a phase.
    pub fn push_phase(&mut self, name: impl Into<String>, tasks: Vec<TaskFootprint>) {
        self.phases.push(PhasePlan { name: name.into(), tasks });
    }

    /// Total task count across phases.
    pub fn task_count(&self) -> usize {
        self.phases.iter().map(|p| p.tasks.len()).sum()
    }

    /// Prove (or refute) both per-phase disjointness claims for every
    /// phase. Empty result = the whole plan is conflict-free under the
    /// barriers it declares.
    pub fn check_disjoint(&self) -> Vec<TaskGraphViolation> {
        let mut out = Vec::new();
        for (phase_index, phase) in self.phases.iter().enumerate() {
            let footprints: Vec<(BTreeSet<Unit>, BTreeSet<Unit>)> = phase
                .tasks
                .iter()
                .map(|t| (t.reads.clone(), t.writes.clone()))
                .collect();
            for overlap in phase_overlaps(&footprints) {
                out.push(TaskGraphViolation {
                    solver: self.solver.clone(),
                    phase: phase.name.clone(),
                    phase_index,
                    overlap,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(units: &[u64]) -> BTreeSet<u64> {
        units.iter().copied().collect()
    }

    #[test]
    fn disjoint_phase_is_clean() {
        let fp = vec![
            (set(&[0, 1]), set(&[10, 11])),
            (set(&[0, 1]), set(&[12, 13])),
        ];
        assert!(phase_overlaps(&fp).is_empty());
    }

    #[test]
    fn write_write_overlap_is_reported_once_per_pair() {
        let fp = vec![(set(&[]), set(&[5, 6])), (set(&[]), set(&[6, 7]))];
        let v = phase_overlaps(&fp);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, OverlapKind::WriteWrite);
        assert_eq!((v[0].writer, v[0].other, v[0].unit), (0, 1, 6));
    }

    #[test]
    fn read_write_overlap_names_the_writer() {
        let fp = vec![(set(&[9]), set(&[1])), (set(&[2]), set(&[9]))];
        let v = phase_overlaps(&fp);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, OverlapKind::ReadWrite);
        // Task 1 writes unit 9, task 0 reads it.
        assert_eq!((v[0].writer, v[0].other, v[0].unit), (1, 0, 9));
    }

    #[test]
    fn task_graph_check_walks_every_phase() {
        let mut g = TaskGraph::new("toy");
        g.push_phase(
            "clean",
            vec![
                TaskFootprint { reads: set(&[0]), writes: set(&[1]) },
                TaskFootprint { reads: set(&[0]), writes: set(&[2]) },
            ],
        );
        g.push_phase(
            "broken",
            vec![
                TaskFootprint { reads: set(&[]), writes: set(&[3]) },
                TaskFootprint { reads: set(&[3]), writes: set(&[4]) },
            ],
        );
        assert_eq!(g.task_count(), 4);
        let v = g.check_disjoint();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].phase, "broken");
        assert_eq!(v[0].phase_index, 1);
        assert_eq!(v[0].overlap.kind, OverlapKind::ReadWrite);
        assert!(v[0].to_string().contains("toy broken"));
    }
}
