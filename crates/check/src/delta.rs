//! Model checker for the delta-stepping SSSP driver
//! (`cachegraph_sssp::delta`).
//!
//! Re-executes the driver's bucket loop serially, and for every inner
//! iteration: proves the declared gather/scatter footprints disjoint
//! (oracle), records each task's real access script through the
//! driver's own sink-generic task bodies, and replays both phases
//! against shadow memory over enumerated/sampled interleavings. In
//! mutation mode ([`ExploreOptions::merge_phases`]) the barrier between
//! gather and scatter is omitted — scatter's proposal-slot reads then
//! collide with gather's same-phase writes, which the shadow must
//! report on every schedule including the canonical one.
//!
//! Drift guard: the serially re-executed distances must equal
//! Dijkstra's, and `dist`/`pred` must be bit-identical to the real
//! parallel driver at the configured thread count.

use cachegraph_graph::{generators, VertexId, Weight, INF};
use cachegraph_rng::StdRng;
use cachegraph_sssp::delta::{gather_task, scatter_task, Proposal};
use cachegraph_sssp::{
    delta_stepping_parallel, dijkstra_binary_heap, DeltaPhasePlan, NO_VERTEX,
};

use crate::driver::{
    schedule_options, DriverReport, ExploreOptions, PhaseScripts, ScriptSink, ScriptedShadow,
};

/// One delta-stepping checking configuration.
#[derive(Clone, Copy, Debug)]
pub struct DeltaConfig {
    /// Vertices of the random graph.
    pub n: usize,
    /// Edge probability.
    pub density: f64,
    /// Maximum edge weight.
    pub max_weight: Weight,
    /// Bucket width.
    pub delta: Weight,
    /// Modeled worker count.
    pub threads: usize,
    /// Graph and schedule-sampling seed.
    pub seed: u64,
}

impl std::fmt::Display for DeltaConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "delta n={} delta={} threads={} seed={:#x}",
            self.n, self.delta, self.threads, self.seed
        )
    }
}

/// Check one configuration on its seeded random graph: oracle + shadow
/// replay per inner iteration, plus the final drift guard.
pub fn check_delta(cfg: &DeltaConfig, opts: &ExploreOptions) -> DriverReport {
    let g = generators::random_directed(cfg.n, cfg.density, cfg.max_weight, cfg.seed)
        .build_array();
    check_delta_on(&g, cfg, opts)
}

/// [`check_delta`] on an explicit graph (used by the mutation fixture,
/// whose path graph guarantees proposals in every iteration).
pub fn check_delta_on(
    g: &cachegraph_graph::AdjacencyArray,
    cfg: &DeltaConfig,
    opts: &ExploreOptions,
) -> DriverReport {
    let mut report = DriverReport::new("delta");
    let sched = schedule_options(opts);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let n = cfg.n;
    let source: VertexId = 0;
    let mut dist = vec![INF; n];
    let mut pred = vec![NO_VERTEX; n];
    dist[source as usize] = 0;
    let mut buckets: Vec<Vec<VertexId>> = vec![vec![source]];
    let mut in_frontier = vec![false; n];
    let mut cur = 0usize;
    let mut iter = 0usize;
    while cur < buckets.len() {
        while !buckets[cur].is_empty() {
            let raw = std::mem::take(&mut buckets[cur]);
            let mut frontier: Vec<VertexId> = Vec::with_capacity(raw.len());
            for v in raw {
                let vi = v as usize;
                if !in_frontier[vi] && dist[vi] != INF && (dist[vi] / cfg.delta) as usize == cur {
                    in_frontier[vi] = true;
                    frontier.push(v);
                }
            }
            for &v in &frontier {
                in_frontier[v as usize] = false;
            }
            if frontier.is_empty() {
                continue;
            }
            let plan = DeltaPhasePlan::new(g, frontier, cfg.threads);

            // Oracle: declared footprints of this iteration.
            report.absorb_oracle(&plan.task_graph(g));

            // Record the gather phase (serial execution = canonical).
            let gn = plan.gather_chunks.len();
            let mut gathers: Vec<Vec<Proposal>> = vec![Vec::new(); gn];
            let mut gather_phase = PhaseScripts::empty("gather", gn);
            for (t, out) in gathers.iter_mut().enumerate() {
                let mut sink = ScriptSink { script: &mut gather_phase.scripts[t] };
                gather_task(g, &plan, t, &dist, out, &mut sink);
            }
            let proposals: Vec<&[Proposal]> = gathers.iter().map(|v| v.as_slice()).collect();

            // Record the scatter phase while applying the real updates.
            let sn = plan.owned.len();
            let mut scatter_phase = PhaseScripts::empty("scatter", sn);
            let mut improved: Vec<Vec<bool>> =
                plan.owned.iter().map(|r| vec![false; r.end - r.start]).collect();
            {
                let mut drest: &mut [Weight] = &mut dist;
                let mut prest: &mut [VertexId] = &mut pred;
                for (t, r) in plan.owned.iter().enumerate() {
                    let len = r.end - r.start;
                    let (d, dnext) = drest.split_at_mut(len);
                    let (p, pnext) = prest.split_at_mut(len);
                    drest = dnext;
                    prest = pnext;
                    let mut sink = ScriptSink { script: &mut scatter_phase.scripts[t] };
                    scatter_task(&plan, t, &proposals, d, p, &mut improved[t], &mut sink);
                }
            }

            // Shadow replay: barriered phases, or the merged mutation.
            if opts.merge_phases {
                let merged = PhaseScripts::merged(&gather_phase, &scatter_phase);
                let mut ss = ScriptedShadow::new(&[&merged]);
                let out = ss.explore(&merged, cfg.threads, &sched, &mut rng);
                report.absorb(format!("iter {iter} merged"), &out, &ss);
            } else {
                let mut ss = ScriptedShadow::new(&[&gather_phase, &scatter_phase]);
                let out = ss.explore(&gather_phase, cfg.threads, &sched, &mut rng);
                report.absorb(format!("iter {iter} gather"), &out, &ss);
                let out = ss.explore(&scatter_phase, cfg.threads, &sched, &mut rng);
                report.absorb(format!("iter {iter} scatter"), &out, &ss);
            }

            // Merge bucket pushes in owned-range order.
            for (imp, r) in improved.iter().zip(&plan.owned) {
                for (i, &f) in imp.iter().enumerate() {
                    if f {
                        let v = r.start + i;
                        let b = (dist[v] / cfg.delta) as usize;
                        if b >= buckets.len() {
                            buckets.resize(b + 1, Vec::new());
                        }
                        buckets[b].push(v as VertexId);
                    }
                }
            }
            iter += 1;
        }
        cur += 1;
    }

    // Drift guards: Dijkstra distances, and bit-identity with the real
    // parallel driver.
    let reference = dijkstra_binary_heap(g, source);
    let driver = delta_stepping_parallel(g, source, cfg.delta, cfg.threads);
    report.final_matches_reference =
        dist == reference.dist && dist == driver.dist && pred == driver.pred;
    report
}

/// The seeded mutation check: on a directed path `0 -> 1 -> ... -> 7`
/// (every iteration produces a proposal, so the merged phase must
/// race), omit the gather/scatter barrier and report whether the
/// checker detected it.
pub fn check_delta_mutation(threads: usize, seed: u64, opts: &ExploreOptions) -> DriverReport {
    let n = 8;
    let mut b = cachegraph_graph::EdgeListBuilder::new(n);
    for v in 0..(n - 1) as u32 {
        b.add(v, v + 1, 2);
    }
    let g = b.build_array();
    let cfg = DeltaConfig { n, density: 0.0, max_weight: 2, delta: 3, threads, seed };
    let mutated = ExploreOptions { merge_phases: true, ..*opts };
    check_delta_on(&g, &cfg, &mutated)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize, threads: usize, seed: u64) -> DeltaConfig {
        DeltaConfig { n, density: 0.12, max_weight: 20, delta: 6, threads, seed }
    }

    #[test]
    fn clean_configs_replay_clean() {
        for threads in [2, 4] {
            let report = check_delta(&cfg(12, threads, 0x5eed), &ExploreOptions::default());
            assert!(report.is_clean(), "threads {threads}: {report:?}");
            assert!(report.schedules > 0);
            assert!(report.final_matches_reference);
        }
    }

    #[test]
    fn merged_phases_are_detected() {
        for threads in [2, 4] {
            let report = check_delta_mutation(threads, 0x5eed, &ExploreOptions::default());
            assert!(!report.races.is_empty(), "threads {threads}: mutation must be detected");
            // The race is schedule-independent: flagged on the canonical
            // (serial) schedule, proposal-slot read after same-phase write.
            assert!(report.races[0].detail.contains("read of concurrently written cell"));
        }
    }
}
