//! `cachegraph-check`: a vendored, zero-dependency mini-loom for the
//! parallel drivers built on the `cachegraph-plan` TaskGraph runtime.
//!
//! Each driver rests on one claim: *within each parallel phase, no
//! task writes a unit another task of that phase reads or writes*. The
//! drivers state it in their plans — every task declares a read and a
//! write footprint — and tiled FW also in borrows: once per phase it
//! splits the storage into tiles, each task owning its A tile as `&mut`
//! and reading its other tiles as `&`, so a plan that broke the claim
//! fails the split instead of racing. This crate proves the claim, and
//! that every schedule computes the serial result, before anything runs,
//! in the spirit of loom/CDSChecker-style exhaustive interleaving
//! exploration but vendored and deterministic (the sandbox has no
//! registry access and no Miri).
//!
//! Every driver goes through one engine, the script-replay engine in
//! [`driver`]: the real algorithm runs *serially* through its
//! sink-generic task bodies, recording each task's ordered unit-access
//! script, and the scripts are replayed against
//! `cachegraph_plan::ShadowMem` over enumerated/sampled interleavings,
//! one recorded access per step. Per-driver checkers (footprint oracle
//! over the declared `TaskGraph` + replay + seeded barrier-omission
//! mutation + drift guard against a serial reference):
//!
//! * [`fw`] — parallel tiled Floyd-Warshall
//!   (`cachegraph_fw::parallel`), recorded through the driver's own
//!   phase loop and tile split; [`fw::sweep_footprints`] runs its
//!   oracle over the full `(n, b)` grid;
//! * [`delta`] — delta-stepping SSSP (`cachegraph_sssp::delta`);
//! * [`matching`] — parallel partitioned matching
//!   (`cachegraph_matching::parallel`).
//!
//! **Mutation mode** ([`ExploreOptions::merge_phases`]) replays two
//! barrier-separated phases as one and asserts the checker *detects*
//! the resulting race, so the checker is tested for sensitivity, not
//! just for silence.
//!
//! What is *not* modeled: weak memory (the drivers' phases are
//! separated by full `std::thread::scope` joins, which are seq-cst
//! synchronization points, so reordering across barriers cannot be
//! observed). See DESIGN.md §10.
//!
//! Run the full pass (footprint sweep + bounded exploration + mutation
//! sensitivity, for all three drivers) with
//! `cargo run -p cachegraph-check`; the same checks run under
//! `cargo test -p cachegraph-check` as tier-1 tests.

pub mod delta;
pub mod driver;
pub mod fw;
pub mod matching;

pub use delta::{check_delta, check_delta_mutation, DeltaConfig};
pub use driver::{
    DriverReport, DriverViolation, ExploreOptions, PhaseScripts, Script, ScriptSink,
    ScriptedShadow,
};
pub use fw::{check_fw, check_fw_mutation, sweep_footprints, FwConfig};
pub use matching::{check_matching, check_matching_mutation, MatchingConfig};
