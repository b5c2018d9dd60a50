//! Instrumentation overhead check: tiled FW through the observed entry
//! point with a *disabled* registry versus the plain entry point, and
//! the cache simulation with versus without the attribution profiler.
//!
//! The observed driver is the same monomorphized code plus a branch per
//! tile-level event (never per cell), so the two runs should be within
//! measurement noise (<2%, see EXPERIMENTS.md). The same contract holds
//! for the simulator: with no profiler attached every attribution hook
//! is one `Option` branch, so `sim_no_profiler` must stay within noise
//! of the pre-profiler simulation path.
//!
//! The enabled-path suite prices attribution when it is actually on,
//! against the fair baseline `sim_classified_baseline` (the profiler
//! always classifies L1 misses, so the comparison is
//! classifying-vs-classifying): `sim_profiler_exact` records one event
//! callback per probe (budget ≤ 1.15x the baseline).
//!
//! The serve-path suite prices request tracing: a round of sequential
//! queries against an in-process daemon with tracing enabled versus
//! disabled (budget ≤ 1.10x — tracing is a handful of `Instant::now`
//! reads and one small record per request, against a request path that
//! includes two socket round-trips). `--gate` runs every comparison in
//! blocks that interleave its sides, prints each block's ratio with CPU
//! time beside wall-clock, gates on the median block ratio, and exits
//! nonzero on a budget breach — CI runs it in release (see ci.sh). Run
//! with:
//!
//! ```text
//! cargo bench -p cachegraph-bench --bench obs_overhead [-- --gate]
//! ```

use cachegraph_bench::{bench_report, black_box, speedup};
use cachegraph_fw::instrumented::{
    sim_tiled_bdl, sim_tiled_bdl_classified, sim_tiled_bdl_profiled,
};
use cachegraph_fw::parallel::{fw_tiled_parallel, fw_tiled_parallel_handrolled};
use cachegraph_fw::{fw_tiled, fw_tiled_observed, FwMatrix, INF};
use cachegraph_layout::BlockLayout;
use cachegraph_obs::{Registry, TraceConfig};
use cachegraph_rng::StdRng;
use cachegraph_serve::{request_once, start, EngineConfig, FaultPlan, Request, ServerConfig};
use cachegraph_sim::{profiles, ProfilerOptions};
use std::time::{Duration, Instant};

/// Overhead budgets asserted by `--gate`: enabled-path profiled runs
/// versus the classifying no-profiler baseline, median block ratio.
const EXACT_BUDGET: f64 = 1.15;
/// Traced serve path versus the same round with tracing disabled.
const TRACED_SERVE_BUDGET: f64 = 1.10;
/// Parallel FW through the shared TaskGraph executor versus the
/// hand-rolled spawn loop it replaced, both on the same phase loop,
/// tile split and kernel: the generic dispatch
/// (`cachegraph_plan::run_tasks_mut`) must stay within noise of the
/// bespoke loop.
const TASKGRAPH_DISPATCH_BUDGET: f64 = 1.05;

/// Parallel FW shape for the dispatch budget: large enough that each
/// phase spawns real work per worker, small enough for a quick gate.
const PAR_N: usize = 256;
const PAR_B: usize = 16;
const PAR_THREADS: usize = 4;

/// One parallel FW solve, timed. Both entry points run the identical
/// monomorphized kernel over the identical task plan; the only
/// difference is who walks the task list.
fn parallel_fw_round(costs: &[u32], handrolled: bool) -> Duration {
    let mut m = FwMatrix::from_costs(BlockLayout::new(PAR_N, PAR_B), costs);
    let t = Instant::now();
    if handrolled {
        fw_tiled_parallel_handrolled(&mut m, PAR_B, PAR_THREADS);
    } else {
        fw_tiled_parallel(&mut m, PAR_B, PAR_THREADS);
    }
    let wall = t.elapsed();
    black_box(m.dist(0, PAR_N - 1));
    wall
}

/// Best-of-3 parallel solve: scheduler noise is one-sided (a preempted
/// solve can only be slower, never faster), so the min compares the two
/// dispatchers' clean paths instead of whichever got descheduled.
fn parallel_fw_best(costs: &[u32], handrolled: bool) -> Duration {
    (0..3).map(|_| parallel_fw_round(costs, handrolled)).min().expect("nonempty range")
}

/// FW tiled unit the enabled-path suite simulates (quick repro scale).
const SIM_N: usize = 96;
const SIM_B: usize = 16;

fn random_costs(n: usize, density: f64, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut costs = vec![INF; n * n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                costs[i * n + j] = 0;
            } else if rng.gen_bool(density) {
                costs[i * n + j] = rng.gen_range(1..100);
            }
        }
    }
    costs
}

/// One simulated tiled-FW run: the classifying baseline without a
/// profiler (`None`) or a profiled run under `options`. Returns the
/// wall-clock and this thread's CPU time.
fn sim_round(
    costs: &[u32],
    options: Option<ProfilerOptions>,
    registry: &Registry,
) -> (Duration, Duration) {
    let (wall, cpu) = (Instant::now(), thread_cpu());
    let misses = match options {
        None => sim_tiled_bdl_classified(costs, SIM_N, SIM_B, profiles::simplescalar())
            .stats
            .levels[0]
            .misses,
        Some(options) => {
            sim_tiled_bdl_profiled(costs, SIM_N, SIM_B, profiles::simplescalar(), options, registry)
                .profile
                .sum_self()
                .levels[0]
                .misses
        }
    };
    black_box(misses);
    (wall.elapsed(), thread_cpu().saturating_sub(cpu))
}

/// CPU time of the calling thread: the first field of
/// `/proc/thread-self/schedstat`, in nanoseconds (zero where the file is
/// missing).
fn thread_cpu() -> Duration {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .map_or(Duration::ZERO, Duration::from_nanos)
}

/// User plus system CPU time of the whole process, exited threads
/// included: fields 14 and 15 of `/proc/self/stat`, in clock ticks of
/// 10 ms (zero where the file is missing).
fn process_cpu() -> Duration {
    let ticks = std::fs::read_to_string("/proc/self/stat").ok().and_then(|s| {
        // After the command name, index 0 is field 3 (the state), so
        // utime (field 14) and stime (field 15) sit at 11 and 12.
        let fields: Vec<&str> = s.rsplit_once(')')?.1.split_whitespace().collect();
        let tick = |i: usize| fields.get(i)?.parse::<u64>().ok();
        Some(tick(11)? + tick(12)?)
    });
    Duration::from_millis(10 * ticks.unwrap_or(0))
}

/// `f`'s wall-clock and process CPU time.
fn timed(f: impl FnOnce() -> Duration) -> (Duration, Duration) {
    let cpu = process_cpu();
    let wall = f();
    (wall, process_cpu().saturating_sub(cpu))
}

/// The middle of `xs` (the upper middle for an even count).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn exact_options() -> ProfilerOptions {
    ProfilerOptions { timeline_interval: 4096 }
}

/// One serve round: start an in-process daemon (small engine, built
/// once per trial), fire `requests` sequential path queries (mostly
/// result-cache hits after the first sweep — the worst case for
/// tracing overhead, since fixed per-request costs dominate), then
/// drain. Returns the wall time of the request loop alone: bind,
/// engine build, shutdown, and the end-of-life report flush are
/// once-per-process costs, not the per-request hot path the budget
/// prices, and their millisecond-scale variance would otherwise
/// swamp a sub-microsecond per-request effect.
fn serve_round(traced: bool, requests: usize) -> Duration {
    let cfg = ServerConfig {
        engine: EngineConfig { n: 48, density: 0.1, seed: 5, ..EngineConfig::default() },
        workers: 2,
        trace: TraceConfig { enabled: traced, ..TraceConfig::default() },
        ..ServerConfig::default()
    };
    let handle = start(cfg, FaultPlan::none(), Registry::new()).expect("serve bind");
    let t = Instant::now();
    for i in 0..requests {
        let dst = (i % 8) as u32;
        let resp = request_once(handle.port(), &Request::path(0, dst), 2_000).expect("responds");
        black_box(resp.status());
    }
    let loop_wall = t.elapsed();
    let _ = request_once(
        handle.port(),
        &Request::plain(cachegraph_serve::Op::Shutdown),
        2_000,
    );
    black_box(handle.join().counters.len());
    loop_wall
}

/// The CI gate: every comparison runs in blocks that interleave its
/// sides, so host drift between blocks cancels in each block's ratio;
/// the gate takes the median block ratio and exits nonzero when one
/// breaches its budget. On a shared 2-vCPU host single block ratios
/// spread from 0.85x to 1.2x (the CPU time moves with the wall-clock,
/// so it is the core's speed that drifts, not steal); the block counts
/// keep the median within a few percent.
fn run_gate() {
    let costs = random_costs(SIM_N, 0.3, 43);
    let disabled = Registry::disabled();

    // Enabled-path simulation: each block runs the baseline and the
    // profiled run once, in an order rotated from block to block, so
    // neither always runs first within its block.
    let sim_blocks = 9;
    let modes = [None, Some(exact_options())];
    for mode in modes {
        sim_round(&costs, mode, &disabled); // warmup
    }
    println!("obs_overhead gate (FW tiled n={SIM_N} b={SIM_B}, {sim_blocks} rotated blocks):");
    let mut exact_ratios = Vec::new();
    for block in 0..sim_blocks {
        let mut wall = [Duration::ZERO; 2];
        let mut cpu = [Duration::ZERO; 2];
        for step in 0..modes.len() {
            let m = (block + step) % modes.len();
            (wall[m], cpu[m]) = sim_round(&costs, modes[m], &disabled);
        }
        exact_ratios.push(speedup(wall[1], wall[0]));
        println!(
            "  block {block}: baseline {:?} wall / {:?} cpu; exact {:.3}x wall / {:.3}x cpu",
            wall[0],
            cpu[0],
            speedup(wall[1], wall[0]),
            speedup(cpu[1], cpu[0]),
        );
    }

    // Traced serve path: the same request round with the tracer on and
    // off. 160 sequential queries over 8 distinct keys — after the
    // first sweep every request is a cache hit, so per-request fixed
    // costs (where tracing lives) dominate the measurement. Only the
    // request loop is timed (see `serve_round`). The loop is socket-
    // and scheduler-bound: whole-machine noise epochs dwarf the effect
    // under test, and back-to-back rounds drift (TIME_WAIT accumulation
    // penalizes whichever side runs later). So each sample is an
    // order-balanced ABBA block — plain, traced, traced, plain — whose
    // ratio cancels both the epoch and the drift, and the gate takes
    // the median block ratio. CPU time is the whole process's (client
    // loop, admission threads and workers), in 10 ms ticks.
    let serve_requests = 160;
    let serve_blocks = 15;
    serve_round(false, 16); // warmup: bind, engine build, page cache
    serve_round(true, 16);
    let mut serve_ratios = Vec::with_capacity(serve_blocks);
    for block in 0..serve_blocks {
        let p1 = timed(|| serve_round(false, serve_requests));
        let t1 = timed(|| serve_round(true, serve_requests));
        let t2 = timed(|| serve_round(true, serve_requests));
        let p2 = timed(|| serve_round(false, serve_requests));
        let (plain, traced) = ((p1.0 + p2.0, p1.1 + p2.1), (t1.0 + t2.0, t1.1 + t2.1));
        serve_ratios.push(speedup(traced.0, plain.0));
        println!(
            "  serve block {block}: untraced {:?} wall / {:?} cpu; traced {:.3}x wall / {:.3}x cpu",
            plain.0,
            plain.1,
            speedup(traced.0, plain.0),
            speedup(traced.1, plain.1),
        );
    }

    // TaskGraph dispatch budget: the same ABBA discipline (hand-rolled,
    // taskgraph, taskgraph, hand-rolled per block) because both sides
    // spawn scoped threads and whole-machine noise epochs would
    // otherwise decide the ratio.
    let par_costs = random_costs(PAR_N, 0.3, 47);
    let par_blocks = 15;
    parallel_fw_round(&par_costs, true); // warmup both paths
    parallel_fw_round(&par_costs, false);
    let mut par_ratios = Vec::with_capacity(par_blocks);
    for block in 0..par_blocks {
        let h1 = timed(|| parallel_fw_best(&par_costs, true));
        let g1 = timed(|| parallel_fw_best(&par_costs, false));
        let g2 = timed(|| parallel_fw_best(&par_costs, false));
        let h2 = timed(|| parallel_fw_best(&par_costs, true));
        let (hand, graph) = ((h1.0 + h2.0, h1.1 + h2.1), (g1.0 + g2.0, g1.1 + g2.1));
        par_ratios.push(speedup(graph.0, hand.0));
        println!(
            "  dispatch block {block}: hand-rolled {:?} wall / {:?} cpu; taskgraph {:.3}x wall / {:.3}x cpu",
            hand.0,
            hand.1,
            speedup(graph.0, hand.0),
            speedup(graph.1, hand.1),
        );
    }

    let exact_ratio = median(exact_ratios);
    let traced_ratio = median(serve_ratios);
    let dispatch_ratio = median(par_ratios);
    println!("median block ratios (wall-clock):");
    println!("  exact-event profiled:   {exact_ratio:.3}x  (budget {EXACT_BUDGET}x)");
    println!(
        "  traced serve:           {traced_ratio:.3}x  ({serve_requests} requests per round, \
         budget {TRACED_SERVE_BUDGET}x)"
    );
    println!(
        "  taskgraph dispatch:     {dispatch_ratio:.3}x  (parallel FW n={PAR_N} b={PAR_B} \
         threads={PAR_THREADS} vs hand-rolled, budget {TASKGRAPH_DISPATCH_BUDGET}x)"
    );
    let mut breached = false;
    if exact_ratio > EXACT_BUDGET {
        eprintln!("BUDGET BREACH: exact-event mode {exact_ratio:.3}x > {EXACT_BUDGET}x");
        breached = true;
    }
    if traced_ratio > TRACED_SERVE_BUDGET {
        eprintln!("BUDGET BREACH: traced serve {traced_ratio:.3}x > {TRACED_SERVE_BUDGET}x");
        breached = true;
    }
    if dispatch_ratio > TASKGRAPH_DISPATCH_BUDGET {
        eprintln!(
            "BUDGET BREACH: taskgraph dispatch {dispatch_ratio:.3}x > {TASKGRAPH_DISPATCH_BUDGET}x"
        );
        breached = true;
    }
    if breached {
        std::process::exit(1);
    }
    println!("obs_overhead gate: within budget");
}

fn main() {
    if std::env::args().any(|a| a == "--gate") {
        run_gate();
        return;
    }

    let n = 512;
    let b = 32;
    let costs = random_costs(n, 0.3, 42);
    let samples = 5;

    bench_report("obs_overhead", "fw_tiled_plain", samples, || {
        let mut m = FwMatrix::from_costs(BlockLayout::new(n, b), &costs);
        fw_tiled(&mut m, b);
        black_box(m.dist(0, n - 1));
    });

    let disabled = Registry::disabled();
    bench_report("obs_overhead", "fw_tiled_observed_disabled", samples, || {
        let mut m = FwMatrix::from_costs(BlockLayout::new(n, b), &costs);
        fw_tiled_observed(&mut m, b, &disabled);
        black_box(m.dist(0, n - 1));
    });

    let enabled = Registry::new();
    bench_report("obs_overhead", "fw_tiled_observed_enabled", samples, || {
        let mut m = FwMatrix::from_costs(BlockLayout::new(n, b), &costs);
        fw_tiled_observed(&mut m, b, &enabled);
        black_box(m.dist(0, n - 1));
    });

    // Simulation path. `sim_no_profiler` exercises exactly the code the
    // simulator ran before attribution existed (profiler == None, one
    // branch per hook); the enabled-path suite below prices attribution
    // that is actually recording, against the classifying baseline the
    // gate uses.
    let scosts = random_costs(SIM_N, 0.3, 43);
    bench_report("obs_overhead", "sim_no_profiler", samples, || {
        let r = sim_tiled_bdl(&scosts, SIM_N, SIM_B, profiles::simplescalar());
        black_box(r.stats.levels[0].misses);
    });

    bench_report("obs_overhead", "sim_classified_baseline", samples, || {
        let r = sim_tiled_bdl_classified(&scosts, SIM_N, SIM_B, profiles::simplescalar());
        black_box(r.stats.levels[0].misses);
    });

    let disabled = Registry::disabled();
    bench_report("obs_overhead", "sim_profiler_exact", samples, || {
        let r = sim_tiled_bdl_profiled(
            &scosts,
            SIM_N,
            SIM_B,
            profiles::simplescalar(),
            exact_options(),
            &disabled,
        );
        black_box(r.profile.sum_self().levels[0].misses);
    });

    // Serve path: request tracing on vs off, same request round.
    bench_report("obs_overhead", "serve_round_untraced", samples, || {
        black_box(serve_round(false, 60));
    });
    bench_report("obs_overhead", "serve_round_traced", samples, || {
        black_box(serve_round(true, 60));
    });

    // TaskGraph dispatch: parallel FW through the shared executor vs
    // the hand-rolled phase loop it replaced.
    let par_costs = random_costs(PAR_N, 0.3, 47);
    bench_report("obs_overhead", "fw_parallel_handrolled", samples, || {
        black_box(parallel_fw_round(&par_costs, true));
    });
    bench_report("obs_overhead", "fw_parallel_taskgraph", samples, || {
        black_box(parallel_fw_round(&par_costs, false));
    });
}
