//! The traced run: the workload's own traffic with spans recorded
//! around every call into a layer, and a short pass over the layers
//! the workload does not reach, so every traced run reports every
//! per-layer metric.
//!
//! Timings run on inputs derived from the workload seed. The count
//! metrics (unit `count`: `sim.*` and `sssp.settled_per_query`) run on
//! a fixed reference input instead, so they repeat exactly across runs
//! and seeds: a changed count is the noise-free alarm that a layout or
//! kernel changed.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use cachegraph_fw::{instrumented::sim_recursive_morton, DEFAULT_L1_ASSOC, DEFAULT_L1_BYTES};
use cachegraph_graph::{generators, AdjacencyArray, EdgeListBuilder, VertexId, Weight, INF};
use cachegraph_layout::select_block_size;
use cachegraph_matching::{find_matching_partitioned_parallel, hopcroft_karp, PartitionScheme};
use cachegraph_plan::run_tasks;
use cachegraph_rng::StdRng;
use cachegraph_serve::{Op, QueryEngine};
use cachegraph_sim::{CacheConfig, HierarchyConfig, HierarchyStats, TlbConfig};
use cachegraph_sssp::{delta_stepping_parallel, dijkstra_to, instrumented::sim_dijkstra_adj_array};

use crate::report::{RunReport, Tally};
use crate::spans::Recorder;
use crate::{apsp, host, serve, stats, Workload};

/// The workload's blocks in a traced run: untraced, traced, traced,
/// untraced, so drift over the run cancels out of `obs.trace_overhead`.
const ABBA: [bool; 4] = [false, true, true, false];
/// Repeats of each set-up probe; the metric is their median.
const PROBE_REPEATS: usize = 3;
/// serve-point pairs timed through `dijkstra_to`: enough for a p99 with
/// ten samples beyond it.
const DIJKSTRA_PAIRS: usize = 1_100;
/// serve-sssp sources timed through delta-stepping at 1 and 2 threads.
const DELTA_SOURCES: usize = 48;
/// Empty two-task phases timed through `run_tasks`.
const DISPATCH_PHASES: usize = 2_000;
/// Traced APSP solves in a serve workload's traced run.
const APSP_BURST: usize = 8;
/// Minimum serve-point traffic in apsp-batch's traced run.
const SERVE_BURST: Duration = Duration::from_secs(2);

/// Seed of the fixed reference input the count metrics run on.
const REFERENCE_SEED: u64 = 0x5EED_CAFE;
/// Reference pairs whose settled vertices are counted.
const REFERENCE_PAIRS: usize = 256;
/// Reference FW matrix size: above the simulated L1, within the L2,
/// like apsp-batch's n = 512, at an eighth of the simulation cost.
const REFERENCE_FW_N: usize = 256;

/// The host's hierarchy as the simulator models it. The simulator needs
/// power-of-two sizes, so the 48 KiB 12-way L1d is modelled as 32 KiB
/// 8-way, the L1 `solve_apsp` itself assumes; the L2 is the host's
/// private 2 MiB.
fn host_hierarchy() -> HierarchyConfig {
    HierarchyConfig {
        name: "host".into(),
        levels: vec![
            CacheConfig::new("L1d", 32 * 1024, 64, 8),
            CacheConfig::new("L2", 2 * 1024 * 1024, 64, 16),
        ],
        tlb: Some(TlbConfig::fully_associative(64, 4096)),
    }
}

/// One traced run of `workload`: returns the report with every
/// per-layer metric, and writes the spans to `.bench_spans/`.
pub fn run(workload: Workload, seed: u64, seconds: u64) -> Result<RunReport, String> {
    let block = Duration::from_secs_f64(seconds as f64 / ABBA.len() as f64);
    let mut rec = Recorder::new(Instant::now());
    let mut r = RunReport::default();
    let (tw, _) = host::settle_time_wait().map_err(|e| e.to_string())?;
    let steal0 = host::CpuTicks::now().map_err(|e| e.to_string())?;
    let (mut tally, traced_p50, untraced_p50) = match workload {
        Workload::ApspBatch => apsp::traced(seed, &ABBA, block, 0, &mut rec)?,
        _ => serve::traced(workload, seed, &ABBA, block, &mut rec, &mut r)?,
    };
    let steal = steal0.steal_share_until(&host::CpuTicks::now().map_err(|e| e.to_string())?);
    let untraced_p50 = untraced_p50.ok_or("the untraced phase completed no operation")?;
    r.set("obs.trace_overhead", traced_p50 / untraced_p50);
    r.set("host.steal_share", steal);
    r.set("host.tcp_time_wait", tw as f64);

    // The layers this workload does not reach, briefly.
    let other = match workload {
        Workload::ApspBatch => {
            serve::traced(
                Workload::ServePoint,
                seed,
                &[true],
                SERVE_BURST,
                &mut rec,
                &mut r,
            )?
            .0
        }
        _ => apsp::traced(seed, &[true], Duration::ZERO, APSP_BURST, &mut rec)?.0,
    };
    tally.merge(other);
    let fw_ms = median_span(&rec, "fw.recursive")?;
    r.set("fw.recursive_ms", fw_ms);
    r.set(
        "fw.gupdates_per_s",
        (apsp::N as f64).powi(3) / (fw_ms / 1e3) / 1e9,
    );
    r.set(
        "layout.morton_in_ms",
        median_span(&rec, "layout.morton_in")?,
    );
    r.set(
        "layout.morton_out_ms",
        median_span(&rec, "layout.morton_out")?,
    );

    probes(seed, &mut rec, &mut r, &mut tally)?;
    counts(&mut r, &Reference::FULL)?;

    let path = PathBuf::from(".bench_spans").join(format!("{}-seed{seed}.jsonl", workload.name()));
    rec.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "{}: {} spans written to {}",
        workload.name(),
        rec.spans().len(),
        path.display()
    );
    let mut out = RunReport::from_tally(&tally);
    out.metrics = r.metrics;
    Ok(out)
}

fn median_span(rec: &Recorder, name: &str) -> Result<f64, String> {
    stats::median_of(&rec.durations_ms(name), name)
}

/// Time `f` `PROBE_REPEATS` times inside spans named `name`; returns
/// the median in milliseconds and the last result.
fn probe<T>(
    rec: &mut Recorder,
    name: &'static str,
    mut f: impl FnMut() -> T,
) -> Result<(f64, T), String> {
    let mut ms = Vec::with_capacity(PROBE_REPEATS);
    let mut timed = |rec: &mut Recorder| {
        let t = Instant::now();
        let out = rec.time(name, None, 0, &mut f);
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        out
    };
    for _ in 1..PROBE_REPEATS {
        std::hint::black_box(timed(rec));
    }
    let last = timed(rec);
    Ok((stats::median_of(&ms, name)?, last))
}

/// `dijkstra_to` under a cancel hook that never fires.
fn dijkstra_uncancelled(
    g: &AdjacencyArray,
    src: VertexId,
    dst: Option<VertexId>,
) -> Result<Vec<Weight>, String> {
    dijkstra_to(g, src, dst, &mut || false)
        .map(|r| r.dist)
        .map_err(|e| format!("dijkstra_to without a deadline: {e}"))
}

/// Direct calls into the graph, matching, sssp, serve-engine and plan
/// layers on the workload seed's inputs. Output checks land in `tally`.
fn probes(
    seed: u64,
    rec: &mut Recorder,
    r: &mut RunReport,
    tally: &mut Tally,
) -> Result<(), String> {
    let cfg = serve::engine_config(seed);
    let (ms, builder) = probe(rec, "graph.generate", || {
        generators::random_directed(cfg.n, cfg.density, cfg.max_weight, cfg.seed)
    })?;
    r.set("graph.generate_ms", ms);
    let (ms, graph) = probe(rec, "graph.csr_build", || builder.build_array())?;
    r.set("graph.csr_build_ms", ms);
    let (ms, (bip_edges, bip)) = probe(rec, "graph.bipartite", || {
        let b = generators::random_bipartite(cfg.n, cfg.density.max(0.02), cfg.seed + 1);
        let g = b.build_array();
        (b.edges().to_vec(), g)
    })?;
    r.set("graph.bipartite_ms", ms);
    let threads = cfg.threads.max(1);
    let (ms, (m, _)) = probe(rec, "matching.partitioned", || {
        let scheme = PartitionScheme::Contiguous(threads.max(2));
        find_matching_partitioned_parallel(&bip, cfg.n / 2, &bip_edges, scheme, threads)
    })?;
    r.set("matching.partitioned_ms", ms);
    check(
        tally,
        m.size == hopcroft_karp(&bip, cfg.n / 2).size,
        "partitioned matching size",
    );

    let reversed = reverse(&builder);
    let landmarks = cfg.landmarks.clamp(1, cfg.n);
    let (ms, trees) = probe(rec, "sssp.landmarks", || -> Result<(), String> {
        for i in 0..landmarks {
            let l = (i * cfg.n / landmarks) as VertexId;
            for g in [&graph, &reversed] {
                std::hint::black_box(dijkstra_uncancelled(g, l, None)?);
            }
        }
        Ok(())
    })?;
    trees?;
    r.set("sssp.landmarks_ms", ms);
    let (ms, engine) = probe(rec, "serve.engine_build", || QueryEngine::build(&cfg))?;
    r.set("serve.engine_build_ms", ms);
    drop(engine);

    // serve-point's pairs, straight into the target-pruned Dijkstra.
    let mut stream = serve::client_rng(seed, 0);
    let mut times = Vec::with_capacity(DIJKSTRA_PAIRS);
    while times.len() < DIJKSTRA_PAIRS {
        let req = serve::next_request(&mut stream, Workload::ServePoint);
        if req.op == Op::Match {
            continue;
        }
        let t = Instant::now();
        let d = rec.time("sssp.dijkstra_to", None, times.len() as u64, || {
            dijkstra_uncancelled(&graph, req.src, Some(req.dst))
        });
        times.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(d?);
    }
    r.set(
        "sssp.dijkstra_to_ms",
        stats::median_of(&times, "sssp.dijkstra_to")?,
    );
    r.set(
        "sssp.dijkstra_to_p99_ms",
        stats::tail(&times, 99, "sssp.dijkstra_to_p99_ms")?,
    );

    // serve-sssp's sources through delta-stepping at 1 and 2 threads.
    let mut stream = serve::client_rng(seed, 0);
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    for i in 0..DELTA_SOURCES as u64 {
        let src = serve::next_request(&mut stream, Workload::ServeSssp).src;
        let mut timed = |threads: usize, out: &mut Vec<f64>, name| {
            let t = Instant::now();
            let d = rec.time(name, None, i, || {
                delta_stepping_parallel(&graph, src, cfg.delta, threads).dist
            });
            out.push(t.elapsed().as_secs_f64() * 1e3);
            d
        };
        let one = timed(1, &mut t1, "sssp.delta_t1");
        let two = timed(2, &mut t2, "sssp.delta_t2");
        check(
            tally,
            one == two,
            "delta-stepping at 2 threads equals 1 thread",
        );
    }
    r.set("sssp.delta_t1_ms", stats::median_of(&t1, "sssp.delta_t1")?);
    r.set("sssp.delta_t2_ms", stats::median_of(&t2, "sssp.delta_t2")?);

    // Per-phase executor dispatch: two empty tasks on two threads.
    let tasks = [(), ()];
    let mut us = Vec::with_capacity(DISPATCH_PHASES);
    for i in 0..DISPATCH_PHASES as u64 {
        let t = Instant::now();
        rec.time("plan.run_tasks", None, i, || run_tasks(&tasks, 2, |_| {}));
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    r.set("plan.dispatch_us", stats::median_of(&us, "plan.run_tasks")?);
    Ok(())
}

fn check(tally: &mut Tally, ok: bool, what: &str) {
    if !ok {
        eprintln!("perfbench: check failed: {what}");
    }
    tally.checked(ok);
}

fn reverse(builder: &EdgeListBuilder) -> AdjacencyArray {
    let mut reversed = EdgeListBuilder::new(builder.num_vertices());
    for e in builder.edges() {
        reversed.add(e.to, e.from, e.weight);
    }
    reversed.build_array()
}

/// Sizes of the fixed reference input for the count metrics.
pub struct Reference {
    graph_n: usize,
    pairs: usize,
    fw_n: usize,
}

impl Reference {
    /// The sizes every traced run uses.
    pub const FULL: Reference = Reference {
        graph_n: serve::N,
        pairs: REFERENCE_PAIRS,
        fw_n: REFERENCE_FW_N,
    };
}

/// The exact count metrics, on the fixed reference input.
pub fn counts(r: &mut RunReport, size: &Reference) -> Result<(), String> {
    let cfg = serve::engine_config(REFERENCE_SEED);
    let density = cfg.density * (serve::N - 1) as f64 / (size.graph_n - 1) as f64;
    let graph = generators::random_directed(size.graph_n, density, cfg.max_weight, REFERENCE_SEED)
        .build_array();
    let mut rng = StdRng::seed_from_u64(REFERENCE_SEED);
    let n = size.graph_n as VertexId;
    let mut settled = 0;
    for _ in 0..size.pairs {
        let (src, dst) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let d = dijkstra_uncancelled(&graph, src, Some(dst))?;
        settled += d.iter().filter(|&&x| x != INF).count();
    }
    r.set("sssp.settled_per_query", settled as f64 / size.pairs as f64);

    let sim = sim_dijkstra_adj_array(&graph, 0, host_hierarchy());
    set_misses(
        r,
        [
            "sim.dijkstra.l1_miss_per_access",
            "sim.dijkstra.l2_miss_per_access",
            "sim.dijkstra.tlb_miss_per_access",
        ],
        &sim.stats,
    );

    let mut rng = StdRng::seed_from_u64(REFERENCE_SEED);
    let fw_n = size.fw_n;
    let costs: Vec<u32> = (0..fw_n * fw_n)
        .map(|i| {
            if i / fw_n == i % fw_n {
                0
            } else {
                rng.gen_range(1..=1_000)
            }
        })
        .collect();
    let base = select_block_size(DEFAULT_L1_BYTES, DEFAULT_L1_ASSOC, 4)
        .estimate
        .min(fw_n.next_power_of_two());
    let sim = sim_recursive_morton(&costs, fw_n, base, host_hierarchy());
    set_misses(
        r,
        [
            "sim.fw_recursive.l1_miss_per_access",
            "sim.fw_recursive.l2_miss_per_access",
            "sim.fw_recursive.tlb_miss_per_access",
        ],
        &sim.stats,
    );
    Ok(())
}

/// L1, L2 and TLB misses, each per L1 demand access, into `names`.
fn set_misses(r: &mut RunReport, names: [&'static str; 3], s: &HierarchyStats) {
    let accesses = s.levels[0].accesses.max(1) as f64;
    let tlb = s.tlb.as_ref().map_or(0, |t| t.misses);
    r.set(names[0], s.levels[0].misses as f64 / accesses);
    r.set(names[1], s.levels[1].misses as f64 / accesses);
    r.set(names[2], tlb as f64 / accesses);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_metrics_repeat_exactly() {
        let small = Reference {
            graph_n: 2_000,
            pairs: 16,
            fw_n: 64,
        };
        let mut a = RunReport::default();
        let mut b = RunReport::default();
        counts(&mut a, &small).expect("reference counts");
        counts(&mut b, &small).expect("reference counts");
        assert_eq!(a.metrics, b.metrics);
        let counted: Vec<&str> = crate::report::PER_LAYER
            .iter()
            .filter(|(_, u)| *u == "count")
            .map(|(n, _)| *n)
            .collect();
        let mut got: Vec<&str> = a.metrics.keys().copied().collect();
        got.sort_unstable();
        let mut want = counted.clone();
        want.sort_unstable();
        assert_eq!(got, want, "counts() sets exactly the count metrics");
        assert!(a.metrics.values().all(|v| v.is_finite() && *v > 0.0));
    }
}
