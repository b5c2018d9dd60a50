//! The serve workloads: the shipped daemon in a process of its own,
//! driven by a closed loop of two client connections from this one.
//!
//! serve-point sends the shipped `loadgen` mix (70% `path`, 20%
//! `reach`, 10% `match` over uniformly random pairs); serve-sssp sends
//! only `sssp` from uniformly random sources. The daemon gets nothing
//! but its engine config.

use std::io::{self, BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cachegraph_graph::{generators, AdjacencyArray, INF};
use cachegraph_matching::hopcroft_karp;
use cachegraph_obs::{Json, Registry, TraceRecord};
use cachegraph_rng::StdRng;
use cachegraph_serve::{
    request_once, start, EngineConfig, FaultPlan, Op, Request, Response, ServerConfig, WireError,
};
use cachegraph_sssp::{delta_stepping, dijkstra_binary_heap};

use crate::report::{RunReport, Tally};
use crate::spans::Recorder;
use crate::{host, stats, Workload};

/// First argument that turns this binary into the daemon process.
pub const DAEMON_ARG: &str = "serve-daemon";

/// Vertices of the served graph: above `apsp_threshold`, so `path` and
/// `reach` run the target-pruned Dijkstra over the CSR graph.
pub const N: usize = 20_000;
/// Average out-degree of the served graph.
const OUT_DEGREE: f64 = 8.0;
/// Concurrent client connections: one per vCPU of the host.
pub const CLIENTS: u64 = 2;
/// Deadline every timed request carries (the shipped `loadgen` default).
const DEADLINE_MS: u64 = 1_000;
/// Deadline of the warm-up `match`, which computes the memoised matching.
const WARMUP_DEADLINE_MS: u64 = 60_000;
/// Client socket timeout per request.
const TIMEOUT_MS: u64 = 5_000;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Every `SAMPLE_STRIDE`-th answer of each client in a phase is sampled,
/// up to `SAMPLE_CAP` per client; the oracle checks `SAMPLE_CAP` per
/// client in all.
const SAMPLE_STRIDE: u64 = 32;
const SAMPLE_CAP: usize = 64;
/// A traced client drains the server's flight recorder (64 traces)
/// after every this many of its requests, so no trace is overwritten.
const DRAIN_EVERY: u64 = 16;
/// The traced phase runs until the server traces hold this many compute
/// segments, so `serve.compute_p99_ms` has ten samples beyond it ...
const TRACE_MIN_COMPUTE: usize = 1_100;
/// ... but no longer than this.
const TRACE_MAX: Duration = Duration::from_secs(90);

/// The engine config of both serve workloads; only the seed varies.
pub fn engine_config(seed: u64) -> EngineConfig {
    EngineConfig {
        n: N,
        density: OUT_DEGREE / (N - 1) as f64,
        seed,
        ..EngineConfig::default()
    }
}

/// The daemon process: the shipped `ServerConfig` defaults with the
/// benchmark's engine config. Prints `ready <port>` once it accepts
/// queries, serves until a `shutdown` request drains it, and exits
/// early if the benchmark that started it goes away (stdin closes).
pub fn daemon_main(args: &[String]) -> ExitCode {
    let seed = match args {
        [flag, seed] if flag == "--graph-seed" => seed.parse::<u64>().ok(),
        _ => None,
    };
    let Some(seed) = seed else {
        eprintln!("usage: perfbench {DAEMON_ARG} --graph-seed <n>");
        return ExitCode::from(2);
    };
    let cfg = ServerConfig {
        engine: engine_config(seed),
        ..ServerConfig::default()
    };
    let handle = match start(cfg, FaultPlan::none(), Registry::new()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("perfbench {DAEMON_ARG}: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("ready {}", handle.port());
    if io::stdout().flush().is_err() {
        return ExitCode::FAILURE;
    }
    // Detached on purpose: it blocks on stdin for the daemon's whole
    // life, and the process ends when `join` returns.
    let port = handle.port();
    std::thread::spawn(move || {
        let _ = io::copy(&mut io::stdin(), &mut io::sink());
        let _ = request_once(port, &Request::plain(Op::Shutdown), TIMEOUT_MS);
    });
    handle.join();
    ExitCode::SUCCESS
}

/// A daemon child process. Dropping it kills and reaps the child.
pub struct ServerProcess {
    child: Child,
    /// Held open for the child's lifetime: its EOF tells the daemon
    /// that the benchmark is gone.
    _stdin: ChildStdin,
    /// The daemon's listening port on 127.0.0.1.
    pub port: u16,
}

impl ServerProcess {
    /// Start the daemon on graph seed `seed`; returns once it serves.
    pub fn spawn(seed: u64) -> io::Result<Self> {
        let mut child = Command::new(std::env::current_exe()?)
            .args([DAEMON_ARG, "--graph-seed", &seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other("daemon started without its pipes"));
        };
        let mut server = Self {
            child,
            _stdin: stdin,
            port: 0,
        };
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        server.port = line
            .strip_prefix("ready ")
            .and_then(|p| p.trim().parse().ok())
            .ok_or_else(|| io::Error::other(format!("daemon did not start: {line:?}")))?;
        Ok(server)
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drain the daemon with a `shutdown` request and wait for it to
    /// exit (killing it after ten seconds).
    pub fn stop(mut self) -> io::Result<()> {
        let _ = request_once(self.port, &Request::plain(Op::Shutdown), TIMEOUT_MS);
        let end = Instant::now() + Duration::from_secs(10);
        while Instant::now() < end {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err(io::Error::other("daemon did not drain within 10 s"))
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The request stream of client `client` under workload seed `seed`.
pub fn client_rng(seed: u64, client: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (client + 1))
}

/// The next request of a client's stream.
pub fn next_request(rng: &mut StdRng, workload: Workload) -> Request {
    let n = N as u32;
    let req = match workload {
        Workload::ServeSssp => Request::sssp(rng.gen_range(0..n)),
        _ => {
            // The shipped loadgen mix, drawn in loadgen's order.
            let src = rng.gen_range(0..n);
            let dst = rng.gen_range(0..n);
            match rng.gen_range(0u32..10) {
                0..=6 => Request::path(src, dst),
                7..=8 => Request::reach(src, dst),
                _ => Request::plain(Op::Match),
            }
        }
    };
    req.with_deadline_ms(DEADLINE_MS)
}

/// Count one request's outcome. Everything but `OK` — BUSY, deadline,
/// internal error, bad request, shutdown, a torn frame or any other
/// socket error — is one failed operation. Returns the answer payload
/// of an OK.
pub fn record(tally: &mut Tally, result: Result<Response, WireError>, ms: f64) -> Option<Json> {
    match result {
        Ok(Response::Ok(data)) => {
            tally.ok(ms);
            Some(data)
        }
        _ => {
            tally.fail();
            None
        }
    }
}

/// Phase settings shared by the clients of one closed loop.
struct Phase<'a> {
    port: u16,
    workload: Workload,
    epoch: Instant,
    /// Run at least until here ...
    until: Instant,
    /// ... and on until `computes` reaches `min_computes`, but not past
    /// here.
    cap: Instant,
    traced: bool,
    min_computes: usize,
    /// Compute segments drained so far in this traced run.
    computes: &'a AtomicUsize,
}

impl Phase<'_> {
    fn running(&self) -> bool {
        let now = Instant::now();
        now < self.until
            || (now < self.cap && self.computes.load(Ordering::Relaxed) < self.min_computes)
    }
}

/// One client's closed loop.
fn client_loop(phase: &Phase<'_>, client: u64, rng: &mut StdRng) -> PhaseResult {
    let mut log = PhaseResult::default();
    let mut spans = Recorder::new(phase.epoch);
    let mut idx = 0u64;
    while phase.running() {
        let req = next_request(rng, phase.workload);
        let started = Instant::now();
        let result = request_once(phase.port, &req, TIMEOUT_MS);
        let ended = Instant::now();
        let ms = (ended - started).as_secs_f64() * 1e3;
        if phase.traced {
            spans.push("serve.request_once", started, ended, (client << 32) | idx);
        }
        if let Some(data) = record(&mut log.tally, result, ms) {
            if idx.is_multiple_of(SAMPLE_STRIDE) && log.sampled.len() < SAMPLE_CAP {
                log.sampled.push((req, data));
            }
        }
        idx += 1;
        if phase.traced && idx.is_multiple_of(DRAIN_EVERY) {
            let drained = spans.time("serve.trace", None, (client << 32) | idx, || {
                drain_traces(phase.port)
            });
            let computes = drained.iter().filter(|t| has_segment(t, "compute")).count();
            phase.computes.fetch_add(computes, Ordering::Relaxed);
            log.traces.extend(drained);
        }
    }
    log.spans.push(spans);
    log
}

fn drain_traces(port: u16) -> Vec<TraceRecord> {
    match request_once(port, &Request::plain(Op::Trace), TIMEOUT_MS) {
        Ok(Response::Ok(data)) => data
            .get("traces")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|t| TraceRecord::from_json(t).ok())
            .collect(),
        _ => Vec::new(),
    }
}

fn has_segment(t: &TraceRecord, name: &str) -> bool {
    t.outcome == "OK" && t.segments.iter().any(|(s, _)| s == name)
}

/// The result of one or more closed-loop phases.
#[derive(Default)]
struct PhaseResult {
    tally: Tally,
    sampled: Vec<(Request, Json)>,
    spans: Vec<Recorder>,
    /// Server traces, one per request.
    traces: Vec<TraceRecord>,
    wall_s: f64,
}

impl PhaseResult {
    fn absorb(&mut self, other: PhaseResult) {
        self.tally.merge(other.tally);
        self.sampled.extend(other.sampled);
        self.spans.extend(other.spans);
        self.traces.extend(other.traces);
        self.wall_s += other.wall_s;
    }
}

/// One untraced closed-loop phase of `length`.
fn closed_loop(
    port: u16,
    workload: Workload,
    rngs: &mut [StdRng],
    length: Duration,
) -> PhaseResult {
    let computes = AtomicUsize::new(0);
    let start = Instant::now();
    let phase = Phase {
        port,
        workload,
        epoch: start,
        until: start + length,
        cap: start + length,
        traced: false,
        min_computes: 0,
        computes: &computes,
    };
    run_clients(&phase, rngs)
}

/// Run the closed loop: [`CLIENTS`] clients, each sending its next
/// request as soon as the previous one is answered. The client streams
/// continue across phases (`rngs`), so no phase repeats another's
/// requests and the result cache sees fresh pairs.
fn run_clients(phase: &Phase<'_>, rngs: &mut [StdRng]) -> PhaseResult {
    let start = Instant::now();
    let logs: Vec<PhaseResult> = std::thread::scope(|s| {
        let handles: Vec<_> = rngs
            .iter_mut()
            .enumerate()
            .map(|(c, rng)| s.spawn(move || client_loop(phase, c as u64, rng)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let mut out = PhaseResult {
        wall_s: start.elapsed().as_secs_f64(),
        ..PhaseResult::default()
    };
    for log in logs {
        out.absorb(log);
    }
    if phase.traced {
        out.traces.extend(drain_traces(phase.port));
    }
    out
}

/// Start a daemon and bring it to the point where the first timed
/// request can run: engine built, listening, and the memoised matching
/// computed by a warm-up `match`. Returns the server and the seconds
/// that took.
fn set_up(seed: u64, workload: Workload) -> Result<(ServerProcess, f64), String> {
    let started = Instant::now();
    let server = ServerProcess::spawn(seed).map_err(|e| format!("starting the daemon: {e}"))?;
    let mut warm = vec![Request::plain(Op::Match).with_deadline_ms(WARMUP_DEADLINE_MS)];
    warm.push(match workload {
        Workload::ServeSssp => Request::sssp(0),
        _ => Request::path(0, 1),
    });
    for req in warm {
        match request_once(server.port, &req, WARMUP_DEADLINE_MS) {
            Ok(Response::Ok(_)) => {}
            other => return Err(format!("warm-up {} failed: {other:?}", req.op.name())),
        }
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

/// Check sampled answers against independent oracles on the
/// regenerated inputs: `path`/`reach` against a plain binary-heap
/// Dijkstra, `match` against Hopcroft-Karp, `sssp` against serial
/// delta-stepping. Returns the number of wrong answers.
fn check_answers(seed: u64, sampled: &[(Request, Json)]) -> u64 {
    let cfg = engine_config(seed);
    let graph =
        generators::random_directed(cfg.n, cfg.density, cfg.max_weight, cfg.seed).build_array();
    let mut matching_size = None;
    let mut wrong = 0;
    let mut by_src: Vec<&(Request, Json)> = sampled.iter().collect();
    by_src.sort_by_key(|(r, _)| (r.op != Op::Match, r.src));
    let mut dist: Option<(u32, Vec<u32>)> = None;
    for (req, data) in by_src {
        let ok = match req.op {
            Op::Path | Op::Reach => {
                if dist.as_ref().is_none_or(|(s, _)| *s != req.src) {
                    dist = Some((req.src, dijkstra_binary_heap(&graph, req.src).dist));
                }
                let d = dist.as_ref().map_or(INF, |(_, d)| d[req.dst as usize]);
                path_answer_ok(req.op, d, data)
            }
            Op::Match => {
                let size = *matching_size.get_or_insert_with(|| companion_matching_size(&cfg));
                data.get("matching_size").and_then(Json::as_u64) == Some(size as u64)
            }
            Op::Sssp => sssp_answer_ok(&graph, cfg.delta, req.src, data),
            _ => false,
        };
        if !ok {
            eprintln!("perfbench: wrong answer to {:?}: {}", req, data.render());
            wrong += 1;
        }
    }
    wrong
}

fn companion_matching_size(cfg: &EngineConfig) -> usize {
    let bip =
        generators::random_bipartite(cfg.n, cfg.density.max(0.02), cfg.seed + 1).build_array();
    hopcroft_karp(&bip, cfg.n / 2).size
}

/// A `path` answer carries the exact distance (or null), reachability,
/// and a sketch estimate no smaller than the distance; a `reach` answer
/// carries reachability.
fn path_answer_ok(op: Op, d: u32, data: &Json) -> bool {
    let reachable = data.get("reachable") == Some(&Json::Bool(d != INF));
    if op == Op::Reach {
        return reachable;
    }
    let dist_ok = match data.get("dist") {
        Some(Json::Null) => d == INF,
        Some(v) => d != INF && v.as_u64() == Some(u64::from(d)),
        None => false,
    };
    let estimate_ok = match data.get("estimate").and_then(Json::as_u64) {
        Some(est) => d != INF && est >= u64::from(d),
        None => true,
    };
    reachable && dist_ok && estimate_ok
}

fn sssp_answer_ok(graph: &AdjacencyArray, delta: u32, src: u32, data: &Json) -> bool {
    let oracle = delta_stepping(graph, src, delta).dist;
    let reached = oracle.iter().filter(|&&d| d != INF).count() as u64;
    let ecc = oracle
        .iter()
        .filter(|&&d| d != INF)
        .max()
        .copied()
        .map_or(0, u64::from);
    data.get("reached").and_then(Json::as_u64) == Some(reached)
        && data.get("eccentricity").and_then(Json::as_u64) == Some(ecc)
}

/// The tail percentile each serve workload reports as `tail_ms`.
fn tail_pct(workload: Workload) -> u32 {
    match workload {
        Workload::ServePoint => 99,
        _ => 90,
    }
}

/// An untraced run: median set-up of [`SETUP_REPEATS`] cold starts,
/// then a closed loop of `seconds` in [`host::sliced`] slices, then the
/// oracle checks.
pub fn run(workload: Workload, seed: u64, seconds: u64) -> Result<RunReport, String> {
    let (tw, waited) = host::settle_time_wait().map_err(|e| e.to_string())?;
    let (mut server, secs) = set_up(seed, workload)?;
    let mut setups = vec![secs];
    while setups.len() < SETUP_REPEATS {
        server.stop().map_err(|e| e.to_string())?;
        let (next, secs) = set_up(seed, workload)?;
        server = next;
        setups.push(secs);
    }
    let mut rngs: Vec<StdRng> = (0..CLIENTS).map(|c| client_rng(seed, c)).collect();
    let mut phase = PhaseResult::default();
    let (cpu_ms, steal) = host::sliced(seconds, server.pid(), |len| {
        phase.absorb(closed_loop(server.port, workload, &mut rngs, len));
    })
    .map_err(|e| e.to_string())?;
    let rss = host::peak_rss_mib(server.pid()).map_err(|e| e.to_string())?;
    server.stop().map_err(|e| e.to_string())?;

    // Each slice samples afresh; the oracle checks the first of them.
    phase.sampled.truncate(SAMPLE_CAP * CLIENTS as usize);
    let mut tally = phase.tally;
    tally.wrong += check_answers(seed, &phase.sampled);
    let ops = tally.ok_ms.len();
    let name = workload.name();
    let mut r = RunReport::from_tally(&tally);
    r.set("setup_s", stats::median_of(&setups, "setup_s")?);
    r.set("p50_ms", stats::median_of(&tally.ok_ms, name)?);
    r.set(
        "tail_ms",
        stats::tail(&tally.ok_ms, tail_pct(workload), name)?,
    );
    r.set("ops_per_s", ops as f64 / phase.wall_s);
    r.set("cpu_ms_per_op", cpu_ms / ops as f64);
    r.set("peak_rss_mb", rss);
    println!(
        "{name:<12} host: steal {steal:.4} of CPU; {tw} TIME_WAIT sockets at start, waited {:.1} s; {} answers checked",
        waited.as_secs_f64(),
        phase.sampled.len()
    );
    Ok(r)
}

/// The serve part of a traced run: one set-up, then one closed-loop
/// block of `block_len` per entry of `blocks`, traced where the entry
/// is true. Traced blocks drain the server's traces; the last one runs
/// on until they hold [`TRACE_MIN_COMPUTE`] compute segments. Sets the
/// `serve.*` metrics from the traced blocks and returns the checked
/// tally, the traced p50 and the untraced p50 (`None` without an
/// untraced block).
pub fn traced(
    workload: Workload,
    seed: u64,
    blocks: &[bool],
    block_len: Duration,
    rec: &mut Recorder,
    r: &mut RunReport,
) -> Result<(Tally, f64, Option<f64>), String> {
    let (server, _) = set_up(seed, workload)?;
    let mut rngs: Vec<StdRng> = (0..CLIENTS).map(|c| client_rng(seed, c)).collect();
    let computes = AtomicUsize::new(0);
    let last_traced = blocks.iter().rposition(|&t| t);
    let (mut plain, mut traced) = (PhaseResult::default(), PhaseResult::default());
    for (i, &t) in blocks.iter().enumerate() {
        let start = Instant::now();
        let phase = Phase {
            port: server.port,
            workload,
            epoch: rec.epoch(),
            until: start + block_len,
            cap: start + block_len.max(TRACE_MAX),
            traced: t,
            min_computes: if Some(i) == last_traced {
                TRACE_MIN_COMPUTE
            } else {
                0
            },
            computes: &computes,
        };
        if t {
            // Empty the flight recorder, so the traces drained in this
            // block belong to this block's requests and no others.
            drain_traces(server.port);
        }
        let block = run_clients(&phase, &mut rngs);
        if t {
            traced.absorb(block)
        } else {
            plain.absorb(block)
        }
    }
    let hit_ratio = match request_once(server.port, &Request::plain(Op::Stats), TIMEOUT_MS) {
        Ok(Response::Ok(s)) => s.get("cache_hit_ratio").and_then(Json::as_f64),
        _ => None,
    }
    .ok_or("the stats op did not answer")?;
    server.stop().map_err(|e| e.to_string())?;

    let name = workload.name();
    traced.traces.sort_by_key(|t| t.seq);
    traced.traces.dedup_by_key(|t| t.seq);
    let ok: Vec<&TraceRecord> = traced.traces.iter().filter(|t| t.outcome == "OK").collect();
    for (segment, metric) in [
        ("admission", "serve.admission_ms"),
        ("queue", "serve.queue_ms"),
        ("cache", "serve.cache_ms"),
        ("compute", "serve.compute_ms"),
        ("serialize", "serve.serialize_ms"),
        ("write", "serve.write_ms"),
    ] {
        let ms = segment_ms(&ok, segment);
        r.set(metric, stats::median_of(&ms, metric)?);
        if segment == "compute" {
            r.set(
                "serve.compute_p99_ms",
                stats::tail(&ms, 99, "serve.compute_p99_ms")?,
            );
        }
    }
    // Client latency minus the server's own wall time, at the median:
    // connect, accept, and the bytes on the loopback wire. Both samples
    // cover the same requests, and each request's client latency holds
    // its server wall time, so the difference of medians is not negative.
    let wall: Vec<f64> = ok.iter().map(|t| t.wall_ns as f64 / 1e6).collect();
    let traced_p50 = stats::median_of(&traced.tally.ok_ms, "traced requests")?;
    r.set(
        "serve.transport_ms",
        traced_p50 - stats::median_of(&wall, "server traces")?,
    );
    r.set("serve.cache_hit_ratio", hit_ratio);

    let untraced_p50 = stats::median(&plain.tally.ok_ms);
    eprintln!(
        "{name}: traced blocks {:.1} s, {} server traces ({} OK)",
        traced.wall_s,
        traced.traces.len(),
        ok.len()
    );
    for spans in traced.spans {
        rec.absorb(spans);
    }
    plain.absorb(PhaseResult {
        tally: traced.tally,
        sampled: traced.sampled,
        ..PhaseResult::default()
    });
    plain.tally.wrong += check_answers(seed, &plain.sampled);
    Ok((plain.tally, traced_p50, untraced_p50))
}

fn segment_ms(traces: &[&TraceRecord], name: &str) -> Vec<f64> {
    traces
        .iter()
        .flat_map(|t| {
            t.segments
                .iter()
                .filter(|(s, _)| s == name)
                .map(|(_, ns)| *ns as f64 / 1e6)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_request_sequence() {
        for workload in [Workload::ServePoint, Workload::ServeSssp] {
            for client in 0..CLIENTS {
                let a: Vec<Request> = {
                    let mut r = client_rng(7, client);
                    (0..500).map(|_| next_request(&mut r, workload)).collect()
                };
                let b: Vec<Request> = {
                    let mut r = client_rng(7, client);
                    (0..500).map(|_| next_request(&mut r, workload)).collect()
                };
                assert_eq!(a, b);
                let mut other = client_rng(8, client);
                assert_ne!(
                    a[0..8],
                    (0..8)
                        .map(|_| next_request(&mut other, workload))
                        .collect::<Vec<_>>()
                );
            }
        }
        let mut rng = client_rng(1, 0);
        let ops: Vec<Op> = (0..2000)
            .map(|_| next_request(&mut rng, Workload::ServePoint).op)
            .collect();
        let share = |op| ops.iter().filter(|&&o| o == op).count() as f64 / ops.len() as f64;
        assert!((share(Op::Path) - 0.7).abs() < 0.05);
        assert!((share(Op::Reach) - 0.2).abs() < 0.05);
        assert!((share(Op::Match) - 0.1).abs() < 0.05);
    }

    #[test]
    fn same_seed_same_graph() {
        let a = engine_config(3);
        let b = engine_config(3);
        let ga = generators::random_directed(2_000, a.density * 10.0, a.max_weight, a.seed);
        let gb = generators::random_directed(2_000, b.density * 10.0, b.max_weight, b.seed);
        assert_eq!(ga.edges(), gb.edges());
        assert_eq!(a.n, N);
        let mean_degree = a.density * (N - 1) as f64;
        assert!((mean_degree - OUT_DEGREE).abs() < 1e-9);
    }

    #[test]
    fn each_failure_kind_counts_once() {
        let mut t = Tally::default();
        assert!(record(&mut t, Ok(Response::Ok(Json::obj())), 1.0).is_some());
        assert!(record(&mut t, Ok(Response::Busy { retry_after_ms: 5 }), 0.1).is_none());
        assert!(record(&mut t, Ok(Response::DeadlineExceeded), 2.0).is_none());
        assert!(record(&mut t, Ok(Response::Internal("boom".into())), 0.3).is_none());
        assert!(record(&mut t, Err(WireError::Torn { got: 2, want: 64 }), 0.3).is_none());
        assert_eq!((t.attempted, t.failed, t.ok_ms.len()), (5, 4, 1));
        // A wrong answer is an OK response the oracle rejects.
        let right = Json::obj()
            .field("reachable", true)
            .field("dist", 7u64)
            .field("estimate", 9u64);
        let wrong = Json::obj()
            .field("reachable", true)
            .field("dist", 8u64)
            .field("estimate", 9u64);
        assert!(path_answer_ok(Op::Path, 7, &right));
        assert!(!path_answer_ok(Op::Path, 7, &wrong));
        assert!(!path_answer_ok(Op::Path, INF, &right));
        t.wrong += 1;
        let r = RunReport::from_tally(&t);
        assert_eq!((r.attempted, r.failed, r.correct), (5, 5, false));
    }

    /// The real daemon's failure paths, driven by its own fault plan:
    /// INTERNAL from a panic, a torn frame from a kill, and
    /// DEADLINE_EXCEEDED from a hang, each one failed operation.
    #[test]
    fn daemon_faults_count_once_each() {
        let cfg = ServerConfig {
            engine: EngineConfig {
                n: 64,
                density: 0.1,
                ..EngineConfig::default()
            },
            hang_ms: 50,
            ..ServerConfig::default()
        };
        let plan = FaultPlan::parse("panic:path,kill:reach,hang:match").expect("plan parses");
        let server = start(cfg, plan, Registry::new()).expect("server starts");
        let port = server.port();
        let mut t = Tally::default();
        for req in [
            Request::path(0, 1),
            Request::reach(0, 1),
            Request::plain(Op::Match).with_deadline_ms(10),
            Request::path(0, 1),
        ] {
            record(&mut t, request_once(port, &req, 2_000), 1.0);
        }
        assert_eq!((t.attempted, t.failed), (4, 3));
        let _ = request_once(port, &Request::plain(Op::Shutdown), 2_000);
        server.join();
    }
}
