//! Model checker for the parallel tiled Floyd-Warshall driver
//! (`cachegraph_fw::parallel`).
//!
//! Re-executes the driver's own phase loop and tile split
//! ([`for_each_phase`]) serially on the real matrix, and for every block
//! iteration `t`: proves the declared footprints of its three phases
//! disjoint (oracle, [`Planner::task_graph`]), records each task's
//! access script by running its trait-default kernel on its borrowed
//! tiles ([`TileBorrow::fwi_traced`](cachegraph_fw::parallel::TileBorrow::fwi_traced);
//! units are flat cell indices), and replays the diagonal phase on one
//! worker and the row/column and remaining phases on the configured
//! workers against shadow memory over enumerated/sampled
//! interleavings. In mutation mode the barrier between phases 2 and 3
//! is omitted — phase-3 tasks then read tiles that phase-2 tasks write
//! in the same phase, which the shadow must flag on every schedule.
//!
//! Drift guard: the serially re-executed matrix must be bit-identical
//! to the sequential tiled solve and to the real parallel driver at the
//! configured thread count.

use cachegraph_fw::parallel::{for_each_phase, fw_tiled_parallel, Phase};
use cachegraph_fw::plan::Planner;
use cachegraph_fw::{fw_tiled, FwMatrix, Weight, INF};
use cachegraph_layout::BlockLayout;
use cachegraph_rng::StdRng;

use crate::driver::{
    schedule_options, DriverReport, ExploreOptions, PhaseScripts, ScriptSink, ScriptedShadow,
};

/// One FW checking configuration: a seeded random graph plus the tiling
/// and thread count to explore.
#[derive(Clone, Copy, Debug)]
pub struct FwConfig {
    /// Logical matrix dimension.
    pub n: usize,
    /// Tile size (Block Data Layout block).
    pub b: usize,
    /// Modeled worker count.
    pub threads: usize,
    /// Graph and schedule-sampling seed.
    pub seed: u64,
}

impl std::fmt::Display for FwConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fw n={} b={} threads={} seed={:#x}", self.n, self.b, self.threads, self.seed)
    }
}

/// Seeded random cost matrix, same idiom as the fw test generators.
fn random_costs(n: usize, seed: u64) -> Vec<Weight> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut costs = vec![INF; n * n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                costs[i * n + j] = 0;
            } else if rng.gen_bool(0.4) {
                costs[i * n + j] = rng.gen_range(1..100);
            }
        }
    }
    costs
}

/// Check one configuration on its seeded random graph.
pub fn check_fw(cfg: &FwConfig, opts: &ExploreOptions) -> DriverReport {
    check_fw_on(&random_costs(cfg.n, cfg.seed), cfg, opts)
}

/// [`check_fw`] on an explicit row-major cost matrix (used by the
/// mutation fixture, whose cycle guarantees phase-2 writes that phase 3
/// reads).
fn check_fw_on(costs: &[Weight], cfg: &FwConfig, opts: &ExploreOptions) -> DriverReport {
    assert!(cfg.threads >= 1, "need at least one thread");
    let mut report = DriverReport::new("fw");
    let sched = schedule_options(opts);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let layout = BlockLayout::new(cfg.n, cfg.b);
    let planner = Planner::new(&layout, cfg.n, cfg.b);
    let mut m = FwMatrix::from_costs(layout, costs);

    // Record each task's script through the driver's phase loop and
    // split, while the tasks update the real matrix.
    let mut recorded = Vec::new();
    for_each_phase(&layout, cfg.n, cfg.b, m.storage_mut(), |phase, tasks| {
        let name = match phase {
            Phase::Diagonal => "phase1",
            Phase::RowCol => "phase2",
            Phase::Rest => "phase3",
        };
        let mut scripts = PhaseScripts::empty(name, tasks.len());
        for (task, script) in tasks.iter_mut().zip(&mut scripts.scripts) {
            task.fwi_traced(cfg.b, &mut ScriptSink { script });
        }
        recorded.push(scripts);
    });

    for (t, block) in recorded.chunks_exact(3).enumerate() {
        let [diag, rowcol, rest] = block else { unreachable!("chunks of three phases") };
        // Oracle: declared footprints of this block iteration.
        report.absorb_oracle(&planner.task_graph(t));

        // Shadow replay: the diagonal on one worker, then the barriered
        // phases 2 and 3, or the merged mutation, on the workers.
        let merged;
        let parallel = if opts.merge_phases {
            merged = PhaseScripts::merged(rowcol, rest);
            vec![&merged]
        } else {
            vec![rowcol, rest]
        };
        let mut ss = ScriptedShadow::new(&[&[diag], parallel.as_slice()].concat());
        let out = ss.explore(diag, 1, &sched, &mut rng);
        report.absorb(format!("block {t} {}", diag.name), &out, &ss);
        for phase in parallel {
            let out = ss.explore(phase, cfg.threads, &sched, &mut rng);
            report.absorb(format!("block {t} {}", phase.name), &out, &ss);
        }
    }

    // Drift guards: bit-identity with the sequential tiled solve and the
    // real parallel driver at the configured thread count.
    let mut serial = FwMatrix::from_costs(layout, costs);
    fw_tiled(&mut serial, cfg.b);
    let mut driver = FwMatrix::from_costs(layout, costs);
    fw_tiled_parallel(&mut driver, cfg.b, cfg.threads);
    report.final_matches_reference =
        m.storage() == serial.storage() && m.storage() == driver.storage();
    report
}

/// The seeded mutation check: on a directed unit-weight cycle with
/// n = 12, b = 4, omit the barrier between phases 2 and 3 and report
/// whether the checker detected it. At block 0 the row task of tile
/// (0, 1) writes `d(0, 4)` (through vertex 3), and the phase-3 task of
/// tile (2, 1) reads it as its C operand, because the arc 11 → 0 makes
/// its B operand `d(11, 0)` finite.
pub fn check_fw_mutation(threads: usize, seed: u64, opts: &ExploreOptions) -> DriverReport {
    let n = 12;
    let mut costs = vec![INF; n * n];
    for v in 0..n {
        costs[v * n + v] = 0;
        costs[v * n + (v + 1) % n] = 1;
    }
    let cfg = FwConfig { n, b: 4, threads, seed };
    let mutated = ExploreOptions { merge_phases: true, ..*opts };
    check_fw_on(&costs, &cfg, &mutated)
}

/// The footprint oracle over every `(n, b)` with `1 <= n <= max_n` and
/// `1 <= b <= max_b`: every block iteration's declared phases must pass
/// [`TaskGraph::check_disjoint`](cachegraph_plan::TaskGraph::check_disjoint),
/// the precondition of the driver's tile split. Returns the number of
/// configurations checked and every violation found.
pub fn sweep_footprints(max_n: usize, max_b: usize) -> (usize, Vec<String>) {
    let mut configs = 0;
    let mut violations = Vec::new();
    for n in 1..=max_n {
        for b in 1..=max_b {
            configs += 1;
            let layout = BlockLayout::new(n, b);
            let planner = Planner::new(&layout, n, b);
            for t in 0..planner.real_tiles() {
                for v in planner.task_graph(t).check_disjoint() {
                    violations.push(format!("n={n} b={b} block {t}: {v}"));
                }
            }
        }
    }
    (configs, violations)
}
