//! In-process end-to-end tests for the daemon: correctness against
//! direct solver calls, deadline propagation, watermark shedding,
//! panic isolation, torn-frame kills, and graceful drain.

use std::time::{Duration, Instant};

use cachegraph_graph::{generators, INF};
use cachegraph_obs::{Json, Registry};
use cachegraph_serve::{
    report_from_response, request_once, start, EngineConfig, FaultPlan, Op, Request, Response,
    ServerConfig, ServerHandle, WireError,
};
use cachegraph_sssp::dijkstra_binary_heap;

fn small_config() -> ServerConfig {
    ServerConfig {
        engine: EngineConfig { n: 48, density: 0.1, seed: 5, ..EngineConfig::default() },
        workers: 2,
        hang_ms: 150,
        default_deadline_ms: 500,
        ..ServerConfig::default()
    }
}

fn shutdown_and_join(handle: ServerHandle) -> cachegraph_obs::Snapshot {
    let resp = request_once(handle.port(), &Request::plain(Op::Shutdown), 2_000)
        .expect("shutdown round-trips");
    assert_eq!(resp.status(), "OK");
    handle.join()
}

#[test]
fn invalid_engine_configs_fail_start_with_invalid_input() {
    let with = |engine: EngineConfig| ServerConfig { engine, ..small_config() };
    let base = small_config().engine;
    let mut cases: Vec<(ServerConfig, String)> = [0usize, 1, 47, 201]
        .into_iter()
        .map(|n| (with(EngineConfig { n, ..base.clone() }), format!("n = {n}")))
        .collect();
    for density in [1.5, f64::NAN] {
        cases.push((with(EngineConfig { density, ..base.clone() }), format!("density = {density}")));
    }
    // The first weight at which a simple path of n - 1 arcs could sum to
    // INF, and INF itself.
    let first_saturating = (INF - 1) / (base.n as u32 - 1) + 1;
    for max_weight in [first_saturating, INF] {
        let cfg = with(EngineConfig { max_weight, ..base.clone() });
        cases.push((cfg, format!("max_weight = {max_weight}")));
    }
    cases.push((with(EngineConfig { tile: 0, ..base.clone() }), "tile = 0".to_string()));
    for (cfg, names) in cases {
        match start(cfg, FaultPlan::none(), Registry::new()) {
            Ok(handle) => {
                shutdown_and_join(handle);
                unreachable!("{names}: an invalid engine config started a server");
            }
            Err(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{names}: {e}");
                assert!(e.to_string().contains(&names), "{names}: {e}");
            }
        }
    }
}

#[test]
fn answers_match_direct_dijkstra() {
    let cfg = small_config();
    let g = generators::random_directed(48, 0.1, 100, 5).build_array();
    let handle = start(cfg, FaultPlan::none(), Registry::new()).expect("binds");
    let truth = dijkstra_binary_heap(&g, 7);
    for dst in [0u32, 11, 30, 47] {
        let resp = request_once(handle.port(), &Request::path(7, dst), 2_000).expect("responds");
        let Response::Ok(data) = resp else { unreachable!("expected OK, got {resp:?}") };
        let want = truth.dist[dst as usize];
        if want == cachegraph_graph::INF {
            assert_eq!(data.get("dist"), Some(&Json::Null), "7 -> {dst}");
            assert_eq!(data.get("reachable"), Some(&Json::Bool(false)));
        } else {
            assert_eq!(data.get("dist").and_then(Json::as_u64), Some(u64::from(want)), "7 -> {dst}");
        }
    }
    shutdown_and_join(handle);
}

#[test]
fn bad_requests_get_structured_answers_and_server_survives() {
    let handle = start(small_config(), FaultPlan::none(), Registry::new()).expect("binds");
    // Out-of-range vertex.
    let resp = request_once(handle.port(), &Request::path(0, 9_999), 2_000).expect("responds");
    assert_eq!(resp.status(), "BAD_REQUEST");
    // Raw junk frame: not even a request shape.
    let mut stream = std::net::TcpStream::connect(("127.0.0.1", handle.port())).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(2))).expect("timeout");
    cachegraph_serve::write_frame(&mut stream, &Json::obj().field("nonsense", true))
        .expect("writes");
    let answer = cachegraph_serve::read_frame(&mut stream).expect("answered");
    assert_eq!(
        Response::from_json(&answer).expect("parses").status(),
        "BAD_REQUEST",
        "junk must be answered, not dropped"
    );
    // The server still works afterwards.
    let ok = request_once(handle.port(), &Request::path(0, 1), 2_000).expect("responds");
    assert_eq!(ok.status(), "OK");
    shutdown_and_join(handle);
}

#[test]
fn tiny_deadline_returns_deadline_exceeded_not_a_hang() {
    // A graph big enough that a cold path query crosses the Dijkstra
    // cancellation interval; deadline 1 ms is unmeetable on first touch.
    let cfg = ServerConfig {
        engine: EngineConfig { n: 2_000, density: 0.01, seed: 3, ..EngineConfig::default() },
        workers: 1,
        ..ServerConfig::default()
    };
    let handle = start(cfg, FaultPlan::none(), Registry::new()).expect("binds");
    let started = Instant::now();
    let resp = request_once(handle.port(), &Request::path(0, 1_999).with_deadline_ms(1), 3_000)
        .expect("responds");
    assert!(
        matches!(resp, Response::DeadlineExceeded | Response::Ok(_)),
        "got {resp:?}"
    );
    assert!(started.elapsed() < Duration::from_secs(2), "deadline did not bound the wait");
    // Without the crushing deadline the same query succeeds.
    let resp = request_once(handle.port(), &Request::path(0, 1_999).with_deadline_ms(5_000), 6_000)
        .expect("responds");
    assert_eq!(resp.status(), "OK");
    shutdown_and_join(handle);
}

#[test]
fn panic_fault_is_isolated_and_clears() {
    let plan = FaultPlan::parse("panic:path").expect("parses");
    let reg = Registry::new();
    let handle = start(small_config(), plan, reg).expect("binds");
    let first = request_once(handle.port(), &Request::path(1, 2), 2_000).expect("responds");
    assert_eq!(first.status(), "INTERNAL", "armed fault must fire");
    // One-shot: the identical retry succeeds, served by a live worker.
    let second = request_once(handle.port(), &Request::path(1, 2), 2_000).expect("responds");
    assert_eq!(second.status(), "OK");
    let snap = shutdown_and_join(handle);
    assert_eq!(snap.counters.get("serve.panics"), Some(&1));
}

#[test]
fn kill_fault_tears_the_frame_and_clears() {
    let plan = FaultPlan::parse("kill:reach").expect("parses");
    let handle = start(small_config(), plan, Registry::new()).expect("binds");
    let err = request_once(handle.port(), &Request::reach(0, 3), 2_000)
        .expect_err("torn frame must not parse as a response");
    assert!(err.is_retryable(), "torn frames are retryable, got {err:?}");
    assert!(matches!(err, WireError::Torn { .. } | WireError::Io(_)), "got {err:?}");
    let retry = request_once(handle.port(), &Request::reach(0, 3), 2_000).expect("responds");
    assert_eq!(retry.status(), "OK", "fault cleared after firing once");
    shutdown_and_join(handle);
}

#[test]
fn hang_fault_converts_to_deadline_exceeded() {
    let mut cfg = small_config();
    cfg.hang_ms = 300;
    cfg.default_deadline_ms = 60;
    let plan = FaultPlan::parse("hang:path").expect("parses");
    let handle = start(cfg, plan, Registry::new()).expect("binds");
    let resp = request_once(handle.port(), &Request::path(2, 3), 3_000).expect("responds");
    assert_eq!(resp.status(), "DEADLINE_EXCEEDED", "the stalled worker must notice the deadline");
    let retry = request_once(handle.port(), &Request::path(2, 3), 3_000).expect("responds");
    assert_eq!(retry.status(), "OK");
    shutdown_and_join(handle);
}

#[test]
fn overload_sheds_busy_and_recovers() {
    // 1 worker stalled by a hang fault + a queue of 2: concurrent
    // clients must see BUSY, and the server must answer again after.
    let cfg = ServerConfig {
        engine: EngineConfig { n: 48, density: 0.1, seed: 5, ..EngineConfig::default() },
        workers: 1,
        queue_high: 2,
        queue_low: 1,
        hang_ms: 400,
        default_deadline_ms: 2_000,
        ..ServerConfig::default()
    };
    let plan = FaultPlan::parse("hang:path").expect("parses");
    let reg = Registry::new();
    let handle = start(cfg, plan, reg).expect("binds");
    let port = handle.port();
    // First request arms the stall; fire it and, while the worker
    // sleeps, flood the queue.
    let mut statuses: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..12u32)
            .map(|i| {
                scope.spawn(move || {
                    // Stagger slightly so the hang request lands first.
                    std::thread::sleep(Duration::from_millis(u64::from(i) * 5));
                    match request_once(port, &Request::path(i % 48, (i + 1) % 48), 4_000) {
                        Ok(r) => r.status().to_string(),
                        Err(e) => format!("wire:{e}"),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    statuses.sort();
    assert!(
        statuses.iter().any(|s| s == "BUSY"),
        "queue_high=2 with a stalled worker must shed: {statuses:?}"
    );
    // After the burst the fault has fired and cleared: plain answers.
    let resp = request_once(port, &Request::path(4, 5), 3_000).expect("responds");
    assert_eq!(resp.status(), "OK");
    let snap = shutdown_and_join(handle);
    assert!(snap.counters.get("serve.shed").copied().unwrap_or(0) > 0);
}

#[test]
fn health_and_metrics_answer_inline_and_parse_as_v4() {
    let handle = start(small_config(), FaultPlan::none(), Registry::new()).expect("binds");
    let health = request_once(handle.port(), &Request::plain(Op::Health), 2_000).expect("responds");
    let Response::Ok(data) = &health else { unreachable!("health not OK: {health:?}") };
    assert_eq!(data.get("status").and_then(Json::as_str), Some("up"));
    assert_eq!(data.get("n").and_then(Json::as_u64), Some(48));
    // Generate some traffic so the metrics have content.
    for i in 0..5u32 {
        let _ = request_once(handle.port(), &Request::path(i, i + 1), 2_000).expect("responds");
    }
    let metrics = request_once(handle.port(), &Request::plain(Op::Metrics), 2_000).expect("responds");
    let report = report_from_response(&metrics).expect("metrics payload is a schema-v4 report");
    let metrics_json = report.metrics.as_ref().expect("metrics section present");
    assert_eq!(
        metrics_json.get("counters").and_then(|c| c.get("serve.ok")).and_then(Json::as_u64),
        Some(5)
    );
    shutdown_and_join(handle);
}

#[test]
fn graceful_shutdown_drains_and_rejects_new_work() {
    let handle = start(small_config(), FaultPlan::none(), Registry::new()).expect("binds");
    let port = handle.port();
    let _ = request_once(port, &Request::path(0, 1), 2_000).expect("responds");
    let drained_by = Instant::now();
    let snap = shutdown_and_join(handle);
    assert!(
        drained_by.elapsed() < Duration::from_secs(5),
        "drain must finish within the drain deadline"
    );
    assert!(snap.counters.get("serve.ok").copied().unwrap_or(0) >= 1);
    // The listener is gone (or answers SHUTTING_DOWN if a race keeps it
    // alive one accept longer): either way, no new work is served.
    match request_once(port, &Request::path(0, 1), 500) {
        Err(_) => {}
        Ok(resp) => assert_eq!(resp.status(), "SHUTTING_DOWN"),
    }
}

#[test]
fn result_cache_serves_repeats_and_reports_shard_stats() {
    let reg = Registry::new();
    let handle = start(small_config(), FaultPlan::none(), reg).expect("binds");
    for _ in 0..3 {
        let resp = request_once(handle.port(), &Request::path(9, 10), 2_000).expect("responds");
        assert_eq!(resp.status(), "OK");
    }
    let snap = shutdown_and_join(handle);
    let hits: i64 = snap
        .gauges
        .iter()
        .filter(|(k, _)| k.starts_with("serve.cache.shard") && k.ends_with(".hits"))
        .map(|(_, &v)| v)
        .sum();
    assert!(hits >= 2, "two repeat queries must hit the result cache (hits = {hits})");
}
