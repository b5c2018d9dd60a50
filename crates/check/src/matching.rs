//! Model checker for the parallel partitioned matching driver
//! (`cachegraph_matching::parallel`).
//!
//! Re-executes the Fig. 9 pipeline serially: per-part local solves
//! (recorded through [`find_matching_recorded`] on each sub-graph, the
//! scripts lifted from local to global vertex ids), the serial merge,
//! and the whole-graph global pass (recorded as the single task of its
//! own phase). The declared [`MatchingPartPlan`] footprints are proven
//! disjoint (oracle) and both phases are replayed against shadow memory
//! over enumerated/sampled interleavings. In mutation mode the barrier
//! between the local and global phases is omitted — the global pass's
//! free-left scan then reads `mate` entries the local solves wrote in
//! the same epoch, which the shadow must flag on every schedule.
//!
//! Drift guard: the serially re-executed matching must be bit-identical
//! (`mate` array included) to both the serial partitioned driver and
//! the real parallel driver at the configured thread count.

use cachegraph_graph::{generators, AdjacencyArray, Edge};
use cachegraph_matching::{
    find_matching_partitioned, find_matching_partitioned_parallel, find_matching_recorded,
    Matching, MatchingPartPlan, PartitionScheme, FREE,
};
use cachegraph_rng::StdRng;

use crate::driver::{
    schedule_options, DriverReport, ExploreOptions, PhaseScripts, ScriptSink, ScriptedShadow,
};

/// One matching checking configuration.
#[derive(Clone, Copy, Debug)]
pub struct MatchingConfig {
    /// Vertices of the random bipartite graph (left side `0..n/2`).
    pub n: usize,
    /// Edge probability.
    pub density: f64,
    /// Contiguous parts of the decomposition.
    pub parts: usize,
    /// Modeled worker count.
    pub threads: usize,
    /// Graph and schedule-sampling seed.
    pub seed: u64,
}

impl std::fmt::Display for MatchingConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matching n={} parts={} threads={} seed={:#x}",
            self.n, self.parts, self.threads, self.seed
        )
    }
}

/// Check one configuration on its seeded random bipartite graph.
pub fn check_matching(cfg: &MatchingConfig, opts: &ExploreOptions) -> DriverReport {
    let b = generators::random_bipartite(cfg.n, cfg.density, cfg.seed);
    check_matching_on(b.edges(), cfg, opts)
}

/// [`check_matching`] on an explicit edge list (used by the mutation
/// fixture, whose best-case graph guarantees local-phase writes).
pub fn check_matching_on(
    edges: &[Edge],
    cfg: &MatchingConfig,
    opts: &ExploreOptions,
) -> DriverReport {
    let mut report = DriverReport::new("matching");
    let sched = schedule_options(opts);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let n = cfg.n;
    let n_left = n / 2;
    let g = AdjacencyArray::from_edges(n, edges);
    let scheme = PartitionScheme::Contiguous(cfg.parts);
    let (plan, _internal) = MatchingPartPlan::new(&g, n_left, scheme);

    // Oracle: per-part footprints disjoint; global pass in its own phase.
    report.absorb_oracle(&plan.task_graph());

    // Local phase: record each part's solve on its sub-graph, then lift
    // the script into global vertex units. Trivial parts (the serial
    // driver's `continue`) leave an empty script.
    let mut local_phase = PhaseScripts::empty("local", plan.parts.len());
    let mut solves: Vec<Option<Matching>> = vec![None; plan.parts.len()];
    for (k, part) in plan.parts.iter().enumerate() {
        if part.is_trivial() {
            continue;
        }
        let mut sink = ScriptSink { script: &mut local_phase.scripts[k] };
        let local = find_matching_recorded(
            &part.graph,
            part.left_count,
            Matching::empty(part.members.len()),
            &mut sink,
        );
        local_phase.scripts[k].translate(|u| part.members[u as usize] as u64);
        solves[k] = Some(local);
    }

    // Serial merge in part order — the drivers' exact statements
    // (`merge_local` is crate-private to `cachegraph-matching`; the
    // drift guard below pins this copy against divergence).
    let mut union = Matching::empty(n);
    for (part, solved) in plan.parts.iter().zip(&solves) {
        if let Some(local) = solved {
            for (lv, &gv) in part.members.iter().enumerate() {
                let lm = local.mate[lv];
                if lm != FREE {
                    union.mate[gv as usize] = part.members[lm as usize];
                }
            }
            union.size += local.size;
        }
    }

    // Global phase: the whole-graph pass as one recorded task.
    let mut global_phase = PhaseScripts::empty("global", 1);
    let mut sink = ScriptSink { script: &mut global_phase.scripts[0] };
    let m = find_matching_recorded(&g, n_left, union, &mut sink);

    // Shadow replay: barriered phases, or the merged mutation.
    if opts.merge_phases {
        let merged = PhaseScripts::merged(&local_phase, &global_phase);
        let mut ss = ScriptedShadow::new(&[&merged]);
        let out = ss.explore(&merged, cfg.threads, &sched, &mut rng);
        report.absorb("merged".into(), &out, &ss);
    } else {
        let mut ss = ScriptedShadow::new(&[&local_phase, &global_phase]);
        let out = ss.explore(&local_phase, cfg.threads, &sched, &mut rng);
        report.absorb("local".into(), &out, &ss);
        let out = ss.explore(&global_phase, 1, &sched, &mut rng);
        report.absorb("global".into(), &out, &ss);
    }

    // Drift guards: bit-identity with the serial partitioned driver and
    // with the real parallel driver at the configured thread count.
    let (serial, _) = find_matching_partitioned(&g, n_left, scheme);
    let (driver, _) = find_matching_partitioned_parallel(&g, n_left, edges, scheme, cfg.threads);
    report.final_matches_reference =
        m.mate == serial.mate && m.size == serial.size && m.mate == driver.mate;
    report
}

/// The seeded mutation check: on a best-case bipartite graph (every
/// part finds local matches, so the local phase is guaranteed to write
/// `mate` entries the global scan reads), omit the local/global barrier
/// and report whether the checker detected it.
pub fn check_matching_mutation(threads: usize, seed: u64, opts: &ExploreOptions) -> DriverReport {
    let n = 16;
    let parts = 4;
    let b = generators::matching_best_case(n, parts, 0.1, seed);
    let cfg = MatchingConfig { n, density: 0.0, parts, threads, seed };
    let mutated = ExploreOptions { merge_phases: true, ..*opts };
    check_matching_on(b.edges(), &cfg, &mutated)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize, parts: usize, threads: usize, seed: u64) -> MatchingConfig {
        MatchingConfig { n, density: 0.15, parts, threads, seed }
    }

    #[test]
    fn clean_configs_replay_clean() {
        for threads in [2, 4] {
            let report = check_matching(&cfg(16, 4, threads, 0x5eed), &ExploreOptions::default());
            assert!(report.is_clean(), "threads {threads}: {report:?}");
            assert!(report.schedules > 0);
            assert!(report.final_matches_reference);
        }
    }

    #[test]
    fn merged_phases_are_detected() {
        for threads in [2, 4] {
            let report = check_matching_mutation(threads, 0x5eed, &ExploreOptions::default());
            assert!(!report.races.is_empty(), "threads {threads}: mutation must be detected");
            assert!(report.races[0].detail.contains("read of concurrently written cell"));
        }
    }
}
