//! The `TaskGraph` runtime: the parallel-FW model-checking shape,
//! generalized.
//!
//! `fw::parallel` established a discipline the rest of the repo now
//! reuses: a *pure planner* emits phases of tasks, each task declares a
//! read and a write *footprint*, and three independent machines check the
//! same disjointness argument every driver's split borrows rely on:
//!
//! 1. [`footprint`] — set arithmetic over the declared footprints: within
//!    one phase, write sets are pairwise disjoint and no read set meets
//!    another task's write set ([`TaskGraph::check_disjoint`]);
//! 2. [`shadow`] — an epoch-stamped shadow memory that re-executes the
//!    driver's semantics and flags every same-phase conflicting access
//!    pair, on *any* schedule that runs the pair in one phase;
//! 3. [`schedule`] — a deterministic scheduler that enumerates (or
//!    seeded-samples) worker interleavings of a phase, checking each for
//!    races and for schedule-dependent results.
//!
//! The FW driver's footprints are flat matrix-cell ranges; delta-stepping
//! Dijkstra uses vertex and proposal-slot ids; partitioned matching uses
//! mate-array entries.
//! Everything here is generic over that choice: a footprint is just an
//! ordered set of opaque units, and the shadow memory is generic over the
//! stored value type.
//!
//! [`runtime`] is the execution half: the exact scoped-thread chunking
//! the checkers model (`threads.min(tasks).max(1)` workers, contiguous
//! chunks of `len.div_ceil(threads)` tasks), shared by every parallel
//! driver so the modeled schedule space and the executed schedule space
//! cannot drift apart.

pub mod footprint;
pub mod record;
pub mod runtime;
pub mod schedule;
pub mod shadow;

pub use footprint::{
    phase_overlaps, Overlap, OverlapKind, PhasePlan, TaskFootprint, TaskGraph,
    TaskGraphViolation, Unit,
};
pub use record::{NoSink, UnitRecorder, UnitSink};
pub use runtime::{run_tasks, run_tasks_mut, worker_count};
pub use schedule::{
    explore_phase, for_each_interleaving, interleaving_count, run_schedule, sample_schedule,
    worker_steps, PhaseOutcome, ScheduleOptions,
};
pub use shadow::{Race, RaceKind, ShadowMem};
