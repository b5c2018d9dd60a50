//! Chaos end-to-end through the real `cachegraph` binary: a serve
//! daemon under injected panic/hang/kill faults and a 4x closed-loop
//! overload burst must never crash, must shed `BUSY` past the high
//! watermark, must answer correctly (cross-checked against direct
//! solver calls) once faults clear, and must drain within the drain
//! deadline on shutdown — leaving valid schema-v5 reports on both
//! sides of the wire, with the flight recorder's post-mortem traces
//! (including the panicked request's partial trace) in the server's
//! final report.

use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use cachegraph_graph::generators;
use cachegraph_obs::{Json, Report, TraceRecord};
use cachegraph_serve::{request_once, Op, Request, Response};
use cachegraph_sssp::dijkstra_binary_heap;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_cachegraph")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cachegraph-cli-serve-chaos-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn run(args: &[&str]) -> Output {
    Command::new(bin()).args(args).output().expect("spawn cachegraph")
}

/// Spawn `cachegraph serve` and wait for its port file.
fn spawn_server(port_file: &PathBuf, metrics: &PathBuf, extra: &[&str]) -> (Child, u16) {
    std::fs::remove_file(port_file).ok();
    std::fs::remove_file(metrics).ok();
    let mut args = vec![
        "serve".to_string(),
        "--gen-n".to_string(),
        "48".to_string(),
        "--density".to_string(),
        "0.1".to_string(),
        "--seed".to_string(),
        "5".to_string(),
        "--port-file".to_string(),
        port_file.display().to_string(),
        "--metrics".to_string(),
        metrics.display().to_string(),
    ];
    args.extend(extra.iter().map(|s| s.to_string()));
    let child = Command::new(bin())
        .args(&args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let deadline = Instant::now() + Duration::from_secs(20);
    let port = loop {
        if let Ok(text) = std::fs::read_to_string(port_file) {
            if let Ok(p) = text.trim().parse::<u16>() {
                break p;
            }
        }
        assert!(Instant::now() < deadline, "serve never wrote its port file");
        std::thread::sleep(Duration::from_millis(20));
    };
    (child, port)
}

/// Send `shutdown` and assert the server process drains and exits 0
/// within the drain deadline (plus slack).
fn shutdown_and_reap(mut child: Child, port: u16) {
    let resp = request_once(port, &Request::plain(Op::Shutdown), 5_000).expect("shutdown answered");
    assert_eq!(resp.status(), "OK");
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            assert!(status.success(), "serve must exit 0 after graceful drain, got {status:?}");
            return;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            unreachable!("serve did not drain within the deadline");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn chaos_burst_sheds_recovers_and_drains() {
    let port_file = tmp("chaos.port");
    let metrics = tmp("chaos-final.json");
    let loadgen_report = tmp("chaos-loadgen.json");
    std::fs::remove_file(&loadgen_report).ok();
    // 2 workers, queue of 3, all three fault kinds armed: an 8-client
    // closed-loop burst is a 4x overload.
    let (child, port) = spawn_server(
        &port_file,
        &metrics,
        &[
            "--workers",
            "2",
            "--queue-high",
            "3",
            "--queue-low",
            "1",
            "--hang-ms",
            "200",
            "--fault-plan",
            "panic:path,hang:reach,kill:match",
        ],
    );

    // The overload burst, retrying through every injected fault.
    let lg = run(&[
        "loadgen",
        "--port-file",
        port_file.to_str().expect("path"),
        "--clients",
        "8",
        "--requests",
        "25",
        "--seed",
        "42",
        "--max-retries",
        "40",
        "--backoff-ms",
        "1",
        "--metrics",
        loadgen_report.to_str().expect("path"),
    ]);
    let lg_out = String::from_utf8_lossy(&lg.stdout).into_owned();
    assert_eq!(
        lg.status.code(),
        Some(0),
        "retry-with-backoff must converge under chaos\nstdout: {lg_out}\nstderr: {}",
        String::from_utf8_lossy(&lg.stderr)
    );

    // The loadgen report is a valid current-schema document with nonzero shed and
    // retry counters (the burst was real) and latency percentiles.
    let report = Report::load(&loadgen_report).expect("loadgen report parses");
    let exp = report
        .experiments
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("serve.loadgen"))
        .expect("serve.loadgen experiment present");
    let field = |k: &str| exp.get(k).and_then(Json::as_u64).unwrap_or(0);
    assert_eq!(field("ok"), 200, "every request resolved: {exp:?}");
    assert!(field("shed") > 0, "4x overload must shed: {exp:?}");
    assert!(field("retries") > 0, "sheds force retries: {exp:?}");
    assert!(field("p99_ns") >= field("p50_ns"), "{exp:?}");

    // After the burst the faults have fired and cleared: answers are
    // correct, cross-checked against a direct Dijkstra on the same
    // generated graph (n 48, density 0.1, seed 5).
    let g = generators::random_directed(48, 0.1, 100, 5).build_array();
    let truth = dijkstra_binary_heap(&g, 7);
    for dst in [0u32, 13, 29, 47] {
        let resp = request_once(port, &Request::path(7, dst), 5_000).expect("post-chaos answer");
        let Response::Ok(data) = resp else { unreachable!("expected OK, got {resp:?}") };
        let got = data.get("dist").and_then(Json::as_u64);
        let want = truth.dist[dst as usize];
        if want == cachegraph_graph::INF {
            assert_eq!(got, None, "7 -> {dst}");
        } else {
            assert_eq!(got, Some(u64::from(want)), "7 -> {dst}");
        }
    }

    // The server-side report confirms each fault actually fired.
    shutdown_and_reap(child, port);
    let final_report = Report::load(&metrics).expect("final serve report parses as v5");
    let counters = final_report
        .metrics
        .as_ref()
        .and_then(|m| m.get("counters"))
        .cloned()
        .expect("counters section");
    let counter = |k: &str| counters.get(k).and_then(Json::as_u64).unwrap_or(0);
    assert!(counter("serve.ok") >= 200, "ok = {}", counter("serve.ok"));
    assert!(counter("serve.shed") > 0, "server-side shed counter must tick");
    assert_eq!(counter("serve.panics"), 1, "panic fault fires exactly once");
    assert_eq!(counter("serve.torn_writes"), 1, "kill fault fires exactly once");

    // The flight recorder survived the panic: the poisoned request's
    // partial trace is in the final report with outcome INTERNAL, a
    // measured queue wait, and the segment-sum invariant intact.
    let traces: Vec<TraceRecord> = final_report
        .traces
        .iter()
        .map(|j| TraceRecord::from_json(j).expect("post-mortem trace parses"))
        .collect();
    assert!(!traces.is_empty(), "the final report carries the flight recorder");
    let panicked = traces
        .iter()
        .find(|t| t.outcome == "INTERNAL" && t.tag("panic") == Some(&Json::Bool(true)))
        .expect("the panicked request leaves a partial trace in the error ring");
    assert_eq!(panicked.op, "path", "panic:path poisons the first path query");
    assert!(panicked.segment_ns("queue") > 0, "queue wait is measured: {panicked:?}");
    let sum: u64 = panicked.segments.iter().map(|&(_, d)| d).sum();
    assert_eq!(sum, panicked.wall_ns, "partial traces still partition their wall time");

    // `cachegraph trace` renders that same report: a block-character
    // waterfall per trace plus the per-segment percentile table.
    let tr = run(&["trace", metrics.to_str().expect("path")]);
    assert_eq!(
        tr.status.code(),
        Some(0),
        "trace subcommand renders the chaos report\nstderr: {}",
        String::from_utf8_lossy(&tr.stderr)
    );
    let rendered = String::from_utf8_lossy(&tr.stdout).into_owned();
    assert!(rendered.contains("waterfall"), "{rendered}");
    assert!(rendered.contains("INTERNAL"), "the panicked trace is listed: {rendered}");
    assert!(
        rendered.chars().any(|c| ('\u{2581}'..='\u{2588}').contains(&c)),
        "waterfall uses block characters: {rendered}"
    );
    assert!(rendered.contains("segment percentiles over"), "{rendered}");
}

#[test]
fn query_subcommand_honours_the_exit_code_contract() {
    let port_file = tmp("query.port");
    let metrics = tmp("query-final.json");
    let (child, port) = spawn_server(&port_file, &metrics, &[]);

    // OK answer: exit 0, JSON on stdout.
    let ok = run(&["query", "--port-file", port_file.to_str().expect("path"), "--op", "path", "--src", "0", "--dst", "5"]);
    assert_eq!(ok.status.code(), Some(0), "{}", String::from_utf8_lossy(&ok.stderr));
    let line = String::from_utf8_lossy(&ok.stdout);
    assert!(line.contains("\"status\":\"OK\""), "{line}");

    // Health probe exits 0 too.
    let health = run(&["query", "--port", &port.to_string(), "--op", "health"]);
    assert_eq!(health.status.code(), Some(0));

    // A non-OK response (out-of-range vertex -> BAD_REQUEST) exits 1.
    let bad = run(&["query", "--port", &port.to_string(), "--op", "path", "--src", "0", "--dst", "9999"]);
    assert_eq!(bad.status.code(), Some(1), "non-OK response is a runtime failure");

    // Usage errors exit 2 (unknown op needs no server round-trip).
    let usage = run(&["query", "--port", &port.to_string(), "--op", "frobnicate"]);
    assert_eq!(usage.status.code(), Some(1), "bad op value is a runtime Invalid");
    let missing = run(&["query", "--op", "health"]);
    assert_eq!(missing.status.code(), Some(1), "missing port is Invalid");
    let unparsed = run(&["query", "--port"]);
    assert_eq!(unparsed.status.code(), Some(2), "dangling flag is a usage error");

    shutdown_and_reap(child, port);
}

#[test]
fn serve_rejects_an_invalid_engine_config_as_a_usage_error() {
    for (flag, value, names) in
        [("--gen-n", "201", "n = 201"), ("--density", "1.5", "density = 1.5")]
    {
        let out = run(&["serve", flag, value, "--no-trace"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "serve {flag} {value}: {stderr}");
        assert!(stderr.contains(names), "serve {flag} {value}: {stderr}");
    }
}

#[test]
fn help_documents_the_serve_commands_and_exit_codes() {
    let help = run(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    let text = String::from_utf8_lossy(&help.stdout);
    for needle in ["serve", "query", "loadgen", "--fault-plan", "exit codes:", "--port-file"] {
        assert!(text.contains(needle), "--help must mention {needle}");
    }
}
