//! Shared script-replay engine for the driver checkers (tiled FW,
//! delta-stepping SSSP, partitioned matching, parallel closure).
//!
//! Each parallel driver executes its task bodies through a
//! [`UnitSink`], so the checker can run the real algorithm *serially*
//! while recording, per task, the ordered unit-access [`Script`] that
//! task performs. The scripts of one phase are then replayed against
//! epoch-stamped shadow memory ([`ShadowMem`]) under every (or a
//! seeded-sampled set of) worker interleavings via the generic
//! [`explore_phase`] engine, with workers mirroring the runtime's
//! chunking. One step of a schedule is one recorded access.
//!
//! Race detection depends only on the access pattern — per-unit
//! reader/writer sets within a phase — which for these drivers is fixed
//! by the recorded scripts, not by the schedule. Shadow values are
//! `(task, op)` write *tokens*: the end-of-phase token array must match
//! the canonical schedule's on every race-free interleaving, proving
//! last-writer stability. Value-level correctness of the parallel
//! drivers is pinned separately by their bit-identical-to-serial tests
//! and by each checker's final drift guard against a serial reference.

use std::collections::BTreeMap;

use cachegraph_plan::schedule::{explore_phase, worker_steps, PhaseOutcome, ScheduleOptions};
use cachegraph_plan::{ShadowMem, TaskGraph, UnitSink};
use cachegraph_rng::StdRng;

/// Knobs for schedule exploration, shared by every driver checker.
#[derive(Clone, Copy, Debug)]
pub struct ExploreOptions {
    /// Enumerate every interleaving of a phase when their count is at
    /// most this; otherwise fall back to seeded-random sampling.
    pub exhaustive_bound: u64,
    /// Sampled schedules per phase in random mode.
    pub samples: usize,
    /// Barrier-omission mutation: replay two barrier-separated phases as
    /// one merged phase. The checker must detect a race — used to test
    /// the checker's sensitivity, not the driver.
    pub merge_phases: bool,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        Self { exhaustive_bound: 20_000, samples: 48, merge_phases: false }
    }
}

/// Shadow value: which task wrote a unit last, and which of its ops.
pub type Token = (u16, u32);

/// Token of a unit no task has written.
pub const NO_TOKEN: Token = (u16::MAX, u32::MAX);

/// An ordered unit-access script recorded from one real task body.
#[derive(Clone, Debug, Default)]
pub struct Script {
    /// `(is_write, unit)` in execution order.
    pub ops: Vec<(bool, u64)>,
}

impl Script {
    /// Rewrite every unit through `f` — lifts a script recorded in a
    /// local id space (e.g. a matching sub-problem) into global units.
    pub fn translate(&mut self, f: impl Fn(u64) -> u64) {
        for op in &mut self.ops {
            op.1 = f(op.1);
        }
    }
}

/// A [`UnitSink`] that appends to a [`Script`].
pub struct ScriptSink<'a> {
    /// Destination script.
    pub script: &'a mut Script,
}

impl UnitSink for ScriptSink<'_> {
    fn read(&mut self, unit: u64) {
        self.script.ops.push((false, unit));
    }

    fn write(&mut self, unit: u64) {
        self.script.ops.push((true, unit));
    }
}

/// The per-task scripts of one barrier-delimited phase.
#[derive(Clone, Debug)]
pub struct PhaseScripts {
    /// Phase label for reports.
    pub name: &'static str,
    /// One script per task, in task order.
    pub scripts: Vec<Script>,
}

impl PhaseScripts {
    /// A phase of `tasks` empty scripts named `name`.
    pub fn empty(name: &'static str, tasks: usize) -> Self {
        Self { name, scripts: vec![Script::default(); tasks] }
    }

    /// The barrier-omission mutation: both phases' tasks thrown into a
    /// single phase (one epoch), exactly what omitting the join between
    /// them would mean. The checker must detect the resulting conflict.
    pub fn merged(a: &PhaseScripts, b: &PhaseScripts) -> Self {
        let mut scripts = a.scripts.clone();
        scripts.extend(b.scripts.iter().cloned());
        Self { name: "merged", scripts }
    }
}

/// Shadow memory plus the dense index of every unit the scripts touch.
pub struct ScriptedShadow {
    shadow: ShadowMem<Token>,
    units: BTreeMap<u64, usize>,
    rev: Vec<u64>,
}

impl ScriptedShadow {
    /// Allocate a shadow covering every unit any given phase touches.
    pub fn new(phases: &[&PhaseScripts]) -> Self {
        let mut rev: Vec<u64> = phases
            .iter()
            .flat_map(|p| p.scripts.iter())
            .flat_map(|s| s.ops.iter().map(|&(_, u)| u))
            .collect();
        rev.sort_unstable();
        rev.dedup();
        let units = rev.iter().enumerate().map(|(i, &u)| (u, i)).collect();
        Self { shadow: ShadowMem::new(vec![NO_TOKEN; rev.len()]), units, rev }
    }

    /// The original unit of a dense shadow index.
    pub fn unit(&self, dense: usize) -> u64 {
        self.rev[dense]
    }

    /// Begin a phase barrier and explore every/sampled interleaving of
    /// the phase's scripts; the canonical end state is kept as the
    /// phase result.
    pub fn explore(
        &mut self,
        phase: &PhaseScripts,
        threads: usize,
        opts: &ScheduleOptions,
        rng: &mut StdRng,
    ) -> PhaseOutcome {
        self.shadow.begin_phase();
        let counts: Vec<usize> = phase.scripts.iter().map(|s| s.ops.len()).collect();
        let workers = worker_steps(&counts, threads);
        let scripts = &phase.scripts;
        let units = &self.units;
        let (canonical, outcome) = explore_phase(
            &self.shadow,
            &workers,
            opts,
            rng,
            &mut |s: &mut ShadowMem<Token>, ti, k| {
                let (is_write, unit) = scripts[ti].ops[k];
                let idx = units[&unit];
                if is_write {
                    s.write(idx, ti as u16, (ti as u16, k as u32))
                } else {
                    s.read(idx, ti as u16).1
                }
            },
            &mut |a, b| a.values().iter().zip(b.values()).position(|(x, y)| x != y),
        );
        self.shadow = canonical;
        outcome
    }
}

/// One reported problem: a race or a schedule-dependent end state.
#[derive(Clone, Debug)]
pub struct DriverViolation {
    /// Which phase of which iteration (e.g. `iter 2 gather`).
    pub phase: String,
    /// The worker sequence that exhibited it.
    pub schedule: Vec<u16>,
    /// Human-readable description (race kind + tasks, or the unit).
    pub detail: String,
}

impl std::fmt::Display for DriverViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {} on schedule {:?}", self.phase, self.detail, self.schedule)
    }
}

/// Aggregated result of checking one driver configuration.
#[derive(Clone, Debug)]
pub struct DriverReport {
    /// Which solver was checked.
    pub solver: &'static str,
    /// Footprint-oracle violations (declared footprints not disjoint).
    pub footprint_violations: Vec<String>,
    /// Total schedules executed across all phases.
    pub schedules: u64,
    /// True when every phase was enumerated exhaustively.
    pub exhaustive: bool,
    /// Shadow races observed.
    pub races: Vec<DriverViolation>,
    /// Race-free schedules whose end state diverged from canonical.
    pub mismatches: Vec<DriverViolation>,
    /// The checker's serial re-execution reproduced the reference
    /// solver's answer (drift guard for the replay itself).
    pub final_matches_reference: bool,
}

impl DriverReport {
    /// An empty (clean so far) report.
    pub fn new(solver: &'static str) -> Self {
        Self {
            solver,
            footprint_violations: Vec::new(),
            schedules: 0,
            exhaustive: true,
            races: Vec::new(),
            mismatches: Vec::new(),
            final_matches_reference: true,
        }
    }

    /// No violations of any kind.
    pub fn is_clean(&self) -> bool {
        self.footprint_violations.is_empty()
            && self.races.is_empty()
            && self.mismatches.is_empty()
            && self.final_matches_reference
    }

    /// Run the footprint oracle over a declared task graph.
    pub fn absorb_oracle(&mut self, tg: &TaskGraph) {
        for v in tg.check_disjoint() {
            self.footprint_violations.push(v.to_string());
        }
    }

    /// Fold one phase exploration into the totals.
    pub fn absorb(&mut self, label: String, outcome: &PhaseOutcome, shadow: &ScriptedShadow) {
        self.schedules += outcome.schedules;
        if outcome.sampled {
            self.exhaustive = false;
        }
        if let Some((schedule, race)) = &outcome.race {
            self.races.push(DriverViolation {
                phase: label.clone(),
                schedule: schedule.clone(),
                detail: format!(
                    "{} at unit {} (tasks {} and {})",
                    race.kind,
                    shadow.unit(race.unit),
                    race.task,
                    race.other
                ),
            });
        }
        if let Some((schedule, unit)) = &outcome.mismatch {
            self.mismatches.push(DriverViolation {
                phase: label,
                schedule: schedule.clone(),
                detail: format!("end state diverges at unit {}", shadow.unit(*unit)),
            });
        }
    }
}

/// Convert the check-wide options into the plan engine's knobs.
pub fn schedule_options(opts: &ExploreOptions) -> ScheduleOptions {
    ScheduleOptions { exhaustive_bound: opts.exhaustive_bound, samples: opts.samples }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(name: &'static str, scripts: Vec<Vec<(bool, u64)>>) -> PhaseScripts {
        PhaseScripts { name, scripts: scripts.into_iter().map(|ops| Script { ops }).collect() }
    }

    #[test]
    fn disjoint_scripts_replay_clean() {
        let p = phase("w", vec![vec![(false, 10), (true, 10)], vec![(false, 20), (true, 20)]]);
        let mut ss = ScriptedShadow::new(&[&p]);
        let mut rng = StdRng::seed_from_u64(1);
        let out = ss.explore(&p, 2, &ScheduleOptions::default(), &mut rng);
        assert!(out.is_clean(), "{out:?}");
        assert_eq!(out.schedules, 6); // C(4, 2)
        assert!(!out.sampled);
    }

    #[test]
    fn merged_phases_race_on_the_canonical_schedule() {
        let a = phase("a", vec![vec![(true, 7)]]);
        let b = phase("b", vec![vec![(false, 7)]]);
        // Properly barriered: clean.
        let mut ss = ScriptedShadow::new(&[&a, &b]);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(ss.explore(&a, 2, &ScheduleOptions::default(), &mut rng).is_clean());
        assert!(ss.explore(&b, 2, &ScheduleOptions::default(), &mut rng).is_clean());
        // Merged: the read sees a same-phase write even serially.
        let m = PhaseScripts::merged(&a, &b);
        let mut ss = ScriptedShadow::new(&[&m]);
        let out = ss.explore(&m, 2, &ScheduleOptions::default(), &mut rng);
        let (_, race) = out.race.expect("must race");
        assert_eq!(race.kind.to_string(), "read of concurrently written cell");
    }

    #[test]
    fn report_rolls_up_phase_outcomes() {
        let p = phase("x", vec![vec![(true, 3)], vec![(true, 3)]]);
        let mut ss = ScriptedShadow::new(&[&p]);
        let mut rng = StdRng::seed_from_u64(3);
        let out = ss.explore(&p, 2, &ScheduleOptions::default(), &mut rng);
        let mut report = DriverReport::new("test");
        report.absorb("iter 0 x".into(), &out, &ss);
        assert!(!report.is_clean());
        assert_eq!(report.races.len(), 1);
        assert!(report.races[0].detail.contains("unit 3"), "{}", report.races[0]);
    }

    #[test]
    fn script_translation_rewrites_units() {
        let mut s = Script { ops: vec![(false, 0), (true, 2)] };
        s.translate(|u| 100 + u);
        assert_eq!(s.ops, vec![(false, 100), (true, 102)]);
    }
}
