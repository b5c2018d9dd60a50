//! Model checker for the parallel tiled boolean closure driver
//! (`cachegraph_fw::closure_parallel`).
//!
//! Re-executes the band loop serially on the real bit matrix, and for
//! every band: proves the declared band/propagate footprints disjoint
//! (oracle), records the band self-closure as one task and each
//! propagate chunk as one task through the driver's own sink-generic
//! bodies ([`close_band`], [`propagate_row`]; units are row *words*),
//! and replays both phases against shadow memory over
//! enumerated/sampled interleavings. In mutation mode the barrier
//! between the band and propagate phases is omitted — the propagate
//! tasks' band-row reads then collide with the band task's same-phase
//! writes, which the shadow must flag on every schedule.
//!
//! Drift guard: the serially re-executed matrix must be bit-identical
//! to the serial tiled closure and to the real parallel driver at the
//! configured thread count.

use cachegraph_fw::{
    close_band, closure_band_plan, propagate_row, transitive_closure_tiled,
    transitive_closure_tiled_parallel, BitMatrix,
};
use cachegraph_graph::{generators, AdjacencyArray};
use cachegraph_rng::StdRng;

use crate::driver::{
    schedule_options, DriverReport, ExploreOptions, PhaseScripts, ScriptSink, ScriptedShadow,
};

/// One closure checking configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClosureConfig {
    /// Vertices of the random directed graph.
    pub n: usize,
    /// Edge probability.
    pub density: f64,
    /// Band height.
    pub b: usize,
    /// Modeled worker count.
    pub threads: usize,
    /// Graph and schedule-sampling seed.
    pub seed: u64,
}

impl std::fmt::Display for ClosureConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "closure n={} b={} threads={} seed={:#x}",
            self.n, self.b, self.threads, self.seed
        )
    }
}

/// Check one configuration on its seeded random graph.
pub fn check_closure(cfg: &ClosureConfig, opts: &ExploreOptions) -> DriverReport {
    let g = generators::random_directed(cfg.n, cfg.density, 1, cfg.seed).build_array();
    check_closure_on(&g, cfg, opts)
}

/// [`check_closure`] on an explicit graph (used by the mutation
/// fixture, whose cycle guarantees band-word conflicts when merged).
pub fn check_closure_on(
    g: &AdjacencyArray,
    cfg: &ClosureConfig,
    opts: &ExploreOptions,
) -> DriverReport {
    let mut report = DriverReport::new("closure");
    let sched = schedule_options(opts);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let n = cfg.n;
    let mut reach = BitMatrix::from_graph(g);
    let w = reach.words_per_row();
    let bands = n.div_ceil(cfg.b);
    for band in 0..bands {
        let plan = closure_band_plan(n, cfg.b, band, cfg.threads);

        // Oracle: declared footprints of this band iteration.
        report.absorb_oracle(&plan.task_graph(w));

        // Phase 1: record the serial band self-closure as one task
        // while applying it to the real matrix.
        let mut band_phase = PhaseScripts::empty("band", 1);
        {
            let mut sink = ScriptSink { script: &mut band_phase.scripts[0] };
            close_band(&mut reach, plan.lo, plan.hi, &mut sink);
        }

        // Phase 2: snapshot the closed band (as the driver does) and
        // record each chunk's row propagation while mutating the rows.
        let band_rows: Vec<u64> = reach.bits()[plan.lo * w..plan.hi * w].to_vec();
        let mut prop_phase = PhaseScripts::empty("propagate", plan.chunks.len());
        for (t, chunk) in plan.chunks.iter().enumerate() {
            for &i in &plan.out_rows[chunk.clone()] {
                let mut sink = ScriptSink { script: &mut prop_phase.scripts[t] };
                let row = &mut reach.bits_mut()[i * w..(i + 1) * w];
                propagate_row(row, i, &band_rows, plan.lo, plan.hi, w, &mut sink);
            }
        }

        // Shadow replay: barriered phases, or the merged mutation.
        if opts.merge_phases {
            let merged = PhaseScripts::merged(&band_phase, &prop_phase);
            let mut ss = ScriptedShadow::new(&[&merged]);
            let out = ss.explore(&merged, cfg.threads, &sched, &mut rng);
            report.absorb(format!("band {band} merged"), &out, &ss);
        } else {
            let mut ss = ScriptedShadow::new(&[&band_phase, &prop_phase]);
            let out = ss.explore(&band_phase, 1, &sched, &mut rng);
            report.absorb(format!("band {band} band"), &out, &ss);
            let out = ss.explore(&prop_phase, cfg.threads, &sched, &mut rng);
            report.absorb(format!("band {band} propagate"), &out, &ss);
        }
    }

    // Drift guards: bit-identity with the serial tiled closure and the
    // real parallel driver at the configured thread count.
    let serial = transitive_closure_tiled(BitMatrix::from_graph(g), cfg.b);
    let driver = transitive_closure_tiled_parallel(BitMatrix::from_graph(g), cfg.b, cfg.threads);
    report.final_matches_reference = reach == serial && reach == driver;
    report
}

/// The seeded mutation check: on a directed cycle with band height 2
/// (row `n-1` has bit 0, so its propagation reads band-0 words the band
/// task wrote after `or_row_into(1, 0)`), omit the band/propagate
/// barrier and report whether the checker detected it.
pub fn check_closure_mutation(threads: usize, seed: u64, opts: &ExploreOptions) -> DriverReport {
    let n = 8;
    let mut b = cachegraph_graph::EdgeListBuilder::new(n);
    for v in 0..n as u32 {
        b.add(v, (v + 1) % n as u32, 1);
    }
    let g = b.build_array();
    let cfg = ClosureConfig { n, density: 0.0, b: 2, threads, seed };
    let mutated = ExploreOptions { merge_phases: true, ..*opts };
    check_closure_on(&g, &cfg, &mutated)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize, b: usize, threads: usize, seed: u64) -> ClosureConfig {
        ClosureConfig { n, density: 0.12, b, threads, seed }
    }

    #[test]
    fn clean_configs_replay_clean() {
        for (n, b, threads) in [(10, 3, 2), (12, 4, 4), (7, 7, 3)] {
            let report = check_closure(&cfg(n, b, threads, 0x5eed), &ExploreOptions::default());
            assert!(report.is_clean(), "n {n} b {b} threads {threads}: {report:?}");
            assert!(report.schedules > 0);
            assert!(report.final_matches_reference);
        }
    }

    #[test]
    fn merged_phases_are_detected() {
        for threads in [2, 4] {
            let report = check_closure_mutation(threads, 0x5eed, &ExploreOptions::default());
            assert!(!report.races.is_empty(), "threads {threads}: mutation must be detected");
            assert!(report.races[0].detail.contains("read of concurrently written cell"));
        }
    }
}
