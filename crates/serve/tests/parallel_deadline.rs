//! Deadline propagation into the parallel TaskGraph drivers: a `sssp`
//! query (parallel delta-stepping) on a 2000-vertex graph must come
//! back `DEADLINE_EXCEEDED` — never hang — and the cancellation hook
//! must be observed by *every* worker thread the driver spawns, not
//! just the coordinator.

use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use cachegraph_obs::{Json, Registry};
use cachegraph_serve::{
    request_once, start, EngineConfig, FaultPlan, Op, QueryEngine, QueryError, Request, Response,
    ServerConfig,
};

const THREADS: usize = 4;

/// A 2000-vertex engine: above the APSP threshold, so `sssp` really
/// runs the parallel delta-stepping driver at query time.
fn big_engine_config() -> EngineConfig {
    EngineConfig {
        n: 2_000,
        density: 0.005,
        seed: 9,
        threads: THREADS,
        delta: 8,
        ..EngineConfig::default()
    }
}

#[test]
fn every_worker_observes_the_cancel_hook() {
    let engine = QueryEngine::build(&big_engine_config());
    // The hook records which thread polled it and fires only once
    // strictly more threads than the coordinator alone have been seen:
    // the driver cannot produce this Err without every spawned worker
    // actually polling the shared hook.
    let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
    let cancel = || {
        let mut ids = seen.lock().expect("no poisoning: closure never panics");
        ids.insert(std::thread::current().id());
        ids.len() > THREADS
    };
    let started = Instant::now();
    let r = engine.sssp(0, &cancel);
    assert_eq!(r, Err(QueryError::Cancelled), "hook fired, driver must bail");
    let ids = seen.lock().expect("no poisoning").len();
    assert!(
        ids > THREADS,
        "cancel hook seen by {ids} threads; need coordinator + {THREADS} workers"
    );
    // "Never hangs": bailing out is prompt, not after finishing the
    // whole tree. Generous bound — this is an anti-hang tripwire, not
    // a performance assertion.
    assert!(started.elapsed() < Duration::from_secs(30), "cancel did not bail promptly");
}

#[test]
fn already_expired_hook_cancels_before_any_work_sticks() {
    let engine = QueryEngine::build(&big_engine_config());
    assert_eq!(engine.sssp(0, &|| true), Err(QueryError::Cancelled));
    // The engine is still healthy afterwards: the cancelled run left
    // nothing behind.
    let ok = engine.sssp(0, &|| false).expect("uncancelled run completes");
    assert!(ok.get("reached").and_then(Json::as_u64).unwrap_or(0) >= 1, "source reaches itself");
}

#[test]
fn sssp_deadline_exceeded_end_to_end_never_hangs() {
    // hang:sssp stalls the worker past the 50 ms deadline before the
    // driver starts, so the outcome is deterministic in any build
    // profile: the compute-boundary deadline check fires and the
    // parallel driver is never entered with time left.
    let cfg = ServerConfig {
        engine: big_engine_config(),
        workers: 2,
        hang_ms: 200,
        ..ServerConfig::default()
    };
    let handle = start(cfg, FaultPlan::parse("hang:sssp").expect("parses"), Registry::new())
        .expect("binds");
    let started = Instant::now();
    let req = Request::sssp(0).with_deadline_ms(50);
    // The 10 s client timeout is the hang tripwire: a wedged worker
    // would surface here as a WireError, failing the expect.
    let resp = request_once(handle.port(), &req, 10_000).expect("answered, not hung");
    assert_eq!(resp.status(), "DEADLINE_EXCEEDED", "got {resp:?}");
    assert!(started.elapsed() < Duration::from_secs(10), "deadline reply was not prompt");

    // With the fault spent and a sane deadline, the same query now
    // completes through the parallel driver and is cached.
    let ok = request_once(handle.port(), &Request::sssp(0).with_deadline_ms(30_000), 30_000)
        .expect("responds");
    let Response::Ok(data) = ok else { panic!("expected OK, got {ok:?}") };
    assert!(data.get("reached").and_then(Json::as_u64).unwrap_or(0) >= 1);
    assert_eq!(data.get("threads").and_then(Json::as_u64), Some(THREADS as u64));

    // The per-op demand counter saw both requests.
    let stats = request_once(handle.port(), &Request::plain(Op::Stats), 5_000).expect("stats");
    let Response::Ok(stats) = stats else { panic!("expected OK stats, got {stats:?}") };
    assert_eq!(stats.get("op_sssp").and_then(Json::as_u64), Some(2));

    let resp = request_once(handle.port(), &Request::plain(Op::Shutdown), 5_000).expect("drains");
    assert_eq!(resp.status(), "OK");
    handle.join();
}
