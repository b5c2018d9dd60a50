//! The crash-only query daemon: admission control, a fixed worker
//! pool, deadline propagation, panic isolation, and graceful drain.
//!
//! # Threading model
//!
//! One *acceptor* thread blocks in `accept`. Each accepted connection
//! is handed to a short-lived *admission* thread that reads exactly one
//! request frame (under the socket read timeout, so a silent peer can
//! never wedge it) and then either answers inline (`health`, `metrics`,
//! `shutdown`, all shed-proof by construction), sheds (`BUSY` past the
//! high watermark), or enqueues a job for the fixed *worker pool*.
//! Workers pop jobs, re-check the deadline, run the query through the
//! engine with a deadline-derived cancellation closure, and write the
//! response frame. One request per connection: shedding is then a
//! per-request decision and a torn connection poisons exactly one
//! request.
//!
//! # Crash-only invariants
//!
//! * a panicking handler is caught per-request (`catch_unwind`); the
//!   client gets `INTERNAL`, the worker survives, the counter
//!   `serve.panics` ticks;
//! * deadlines are measured from *admission* and re-checked at dequeue
//!   and inside long queries (Dijkstra bucket boundaries) — an
//!   overloaded queue converts waiting into `DEADLINE_EXCEEDED`, never
//!   into a hang;
//! * the admission queue sheds `BUSY { retry_after_ms }` above the high
//!   watermark and re-admits below the low watermark (hysteresis, so
//!   the server does not flap at the boundary);
//! * graceful shutdown stops accepting, drains in-flight work under the
//!   drain deadline, and leaves a final metrics snapshot.
//!
//! # Fault injection
//!
//! [`FaultPlan`] reuses the supervisor grammar of PR 3
//! (`panic:OP,hang:OP,kill:OP`) keyed by [`Op::name`]. Each fault is
//! *one-shot*: it fires on the first matching request and clears, so a
//! retrying client observes the full arc — fault, structured error (or
//! torn frame), then a correct answer.

use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cachegraph_obs::{Json, Registry, Report, Snapshot, TraceBuilder, TraceConfig, Tracer};

use crate::cache::ShardedLru;
use crate::engine::{EngineConfig, QueryEngine, QueryError};
use crate::protocol::{encode_frame, read_frame, write_frame, Op, Request, Response, WireError};

/// Survive poisoned locks: a panicking thread must not wedge the queue.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fault to inject at a named point: the next request of an op in
/// the daemon, or an experiment under the bench supervisor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the handler or experiment (exercises `catch_unwind`
    /// isolation).
    Panic,
    /// Sleep through the deadline (exercises `DEADLINE_EXCEEDED` and
    /// queue backpressure, or the supervisor's watchdog).
    Hang,
    /// Tear the output and stop: a torn response frame and a dropped
    /// connection (client-side torn-frame retry), or a torn journal line
    /// and a killed process (supervisor resume).
    Kill,
}

/// One-shot fault injections keyed by id (an op name for the daemon,
/// an experiment id for the bench supervisor), parsed from
/// `panic:ID,hang:ID,kill:ID`. Each entry fires once, then clears.
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Mutex<BTreeMap<String, Fault>>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> Self {
        Self::default()
    }

    /// Parse `panic:path,hang:reach,kill:match`, ignoring whitespace
    /// around each entry. Ids are not validated here — a fault keyed on
    /// an id that never arrives simply never fires.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut faults = BTreeMap::new();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (kind, op) = part
                .trim()
                .split_once(':')
                .ok_or_else(|| format!("fault `{part}` is not KIND:ID"))?;
            let fault = match kind {
                "panic" => Fault::Panic,
                "hang" => Fault::Hang,
                "kill" => Fault::Kill,
                other => return Err(format!("unknown fault kind `{other}`")),
            };
            faults.insert(op.to_string(), fault);
        }
        Ok(Self { faults: Mutex::new(faults) })
    }

    /// Take (and clear) the fault armed for `op`, if any.
    pub fn take(&self, op: &str) -> Option<Fault> {
        lock(&self.faults).remove(op)
    }

    /// Number of faults still armed.
    pub fn armed(&self) -> usize {
        lock(&self.faults).len()
    }
}

/// Everything tunable about the server.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// How to build the query engine.
    pub engine: EngineConfig,
    /// Worker pool size.
    pub workers: usize,
    /// Queue length at or above which new queries are shed.
    pub queue_high: usize,
    /// Queue length at or below which shedding stops (hysteresis).
    pub queue_low: usize,
    /// Deadline for requests that do not carry their own.
    pub default_deadline_ms: u64,
    /// Backoff hint attached to `BUSY` responses.
    pub retry_after_ms: u64,
    /// Socket read timeout for request frames.
    pub read_timeout_ms: u64,
    /// How long graceful shutdown may spend draining in-flight work.
    pub drain_deadline_ms: u64,
    /// Sleep injected by a `hang:` fault.
    pub hang_ms: u64,
    /// Result cache shape.
    pub cache_shards: usize,
    /// Result cache per-shard capacity.
    pub cache_per_shard: usize,
    /// Request-scoped tracing: flight-recorder depth, JSONL sampling,
    /// trace-id seed. Tracing is on by default; disabling it makes
    /// every trace call a branch on `None` (the overhead baseline).
    pub trace: TraceConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            workers: 4,
            queue_high: 64,
            queue_low: 32,
            default_deadline_ms: 1_000,
            retry_after_ms: 5,
            read_timeout_ms: 2_000,
            drain_deadline_ms: 5_000,
            hang_ms: 400,
            cache_shards: 8,
            cache_per_shard: 128,
            trace: TraceConfig::default(),
        }
    }
}

/// One admitted query waiting for (or held by) a worker. The trace
/// builder rides along: its monotonic cursor was started on the
/// admission thread, so the worker's first mark measures queue wait
/// without any cross-thread clock handoff.
struct Job {
    stream: TcpStream,
    req: Request,
    enqueued: Instant,
    deadline: Instant,
    tb: TraceBuilder,
}

struct Metrics {
    ok: cachegraph_obs::Counter,
    shed: cachegraph_obs::Counter,
    panics: cachegraph_obs::Counter,
    deadline_exceeded: cachegraph_obs::Counter,
    bad_request: cachegraph_obs::Counter,
    torn_writes: cachegraph_obs::Counter,
    op_path: cachegraph_obs::Counter,
    op_reach: cachegraph_obs::Counter,
    op_sssp: cachegraph_obs::Counter,
    op_match: cachegraph_obs::Counter,
    queue_depth: cachegraph_obs::Gauge,
    queue_high_watermark: cachegraph_obs::Gauge,
    workers_busy: cachegraph_obs::Gauge,
    latency_ns: cachegraph_obs::Histogram,
}

struct Shared {
    cfg: ServerConfig,
    engine: QueryEngine,
    cache: ShardedLru<Json>,
    fault_plan: FaultPlan,
    tracer: Tracer,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutting_down: AtomicBool,
    shedding: AtomicBool,
    in_flight: AtomicUsize,
    high_watermark: AtomicUsize,
    registry: Registry,
    m: Metrics,
    port: u16,
}

impl Shared {
    fn queue_depth(&self) -> usize {
        lock(&self.queue).len()
    }

    /// Copy the sharded cache's internal atomics into registry gauges,
    /// so metrics snapshots and the final report carry per-shard cache
    /// stats without the cache itself referencing the registry.
    fn sync_cache_gauges(&self) {
        for (i, s) in self.cache.stats().iter().enumerate() {
            self.registry.gauge(&format!("serve.cache.shard{i}.hits")).set(s.hits as i64);
            self.registry.gauge(&format!("serve.cache.shard{i}.misses")).set(s.misses as i64);
            self.registry.gauge(&format!("serve.cache.shard{i}.evictions")).set(s.evictions as i64);
            self.registry.gauge(&format!("serve.cache.shard{i}.len")).set(s.len as i64);
        }
    }

    /// Count one arriving query request against its per-op counter
    /// (sheds included: the counters audit demand, not completions).
    fn count_op(&self, op: Op) {
        match op {
            Op::Path => self.m.op_path.incr(),
            Op::Reach => self.m.op_reach.incr(),
            Op::Sssp => self.m.op_sssp.incr(),
            Op::Match => self.m.op_match.incr(),
            _ => {}
        }
    }

    /// The `stats` answer payload: a small live snapshot, answered
    /// inline on the admission thread so it works even while the queue
    /// is shedding — that is the moment it is most needed.
    fn stats_payload(&self) -> Json {
        let snapshot = self.registry.snapshot();
        let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
        let mut latency = Json::obj();
        if let Some(h) = snapshot.histograms.get("serve.latency_ns") {
            for (label, q) in [("p50_ns", 0.50), ("p90_ns", 0.90), ("p99_ns", 0.99)] {
                latency = latency.field(label, h.percentile(q).unwrap_or(0));
            }
        }
        Json::obj()
            .field("queue_depth", self.queue_depth())
            .field("queue_high_watermark", self.high_watermark.load(Ordering::Relaxed))
            .field("shedding", self.shedding.load(Ordering::Relaxed))
            .field("workers", self.cfg.workers.max(1))
            .field("workers_busy", self.in_flight.load(Ordering::Relaxed))
            .field("cache_hit_ratio", self.cache.hit_ratio())
            .field("ok", counter("serve.ok"))
            .field("shed", counter("serve.shed"))
            .field("deadline_exceeded", counter("serve.deadline_exceeded"))
            .field("panics", counter("serve.panics"))
            .field("bad_request", counter("serve.bad_request"))
            .field("torn_writes", counter("serve.torn_writes"))
            .field("op_path", counter("serve.op.path"))
            .field("op_reach", counter("serve.op.reach"))
            .field("op_sssp", counter("serve.op.sssp"))
            .field("op_match", counter("serve.op.match"))
            .field("latency", latency)
    }

    /// The `trace` answer payload: drain the flight recorder's recent
    /// ring. The error ring is untouched, so live introspection cannot
    /// rob the final report's post-mortem section.
    fn trace_payload(&self) -> Json {
        let traces: Vec<Json> =
            self.tracer.drain_recent().iter().map(cachegraph_obs::TraceRecord::to_json).collect();
        Json::obj().field("count", traces.len()).field("traces", Json::Arr(traces))
    }

    /// The `metrics` answer payload: a full schema-versioned report
    /// document (traces excluded — use `trace` / the final report).
    fn metrics_report(&self) -> Json {
        self.sync_cache_gauges();
        let mut report = Report::new("cachegraph-serve");
        report.set_metrics(&self.registry.snapshot());
        report.push_experiment(
            Json::obj()
                .field("name", "serve.state")
                .field("queue_depth", self.queue_depth())
                .field("queue_high_watermark", self.high_watermark.load(Ordering::Relaxed))
                .field("shedding", self.shedding.load(Ordering::Relaxed))
                .field("in_flight", self.in_flight.load(Ordering::Relaxed))
                .field("cache_hit_ratio", self.cache.hit_ratio())
                .field("faults_armed", self.fault_plan.armed()),
        );
        report.to_json()
    }

    fn health_payload(&self) -> Json {
        Json::obj()
            .field("status", if self.shutting_down.load(Ordering::Relaxed) { "draining" } else { "up" })
            .field("queue_depth", self.queue_depth())
            .field("shedding", self.shedding.load(Ordering::Relaxed))
            .field("n", self.engine.num_vertices())
            .field("apsp", self.engine.has_apsp())
    }

    /// Admission decision for a query op. `Ok(())` admits; `Err` is the
    /// response to send instead.
    fn admit(&self) -> Result<(), Response> {
        if self.shutting_down.load(Ordering::Acquire) {
            return Err(Response::ShuttingDown);
        }
        let depth = self.queue_depth();
        if depth >= self.cfg.queue_high {
            self.shedding.store(true, Ordering::Relaxed);
        } else if depth <= self.cfg.queue_low {
            self.shedding.store(false, Ordering::Relaxed);
        }
        if self.shedding.load(Ordering::Relaxed) && depth > self.cfg.queue_low {
            self.m.shed.incr();
            return Err(Response::Busy { retry_after_ms: self.cfg.retry_after_ms });
        }
        Ok(())
    }

    /// Run one admitted query, marking trace segments as it goes:
    /// `cache` after the result-cache probe, `compute` after the engine
    /// returns (tagged with the cancellation closure's poll count).
    /// Called inside `catch_unwind`; panics (injected or real) are the
    /// caller's to absorb — the builder keeps whatever marks landed
    /// before the panic, which is exactly what the post-mortem wants.
    fn handle_query(&self, req: &Request, deadline: Instant, tb: &mut TraceBuilder) -> Response {
        // Compute-boundary deadline check: queries short enough to
        // finish under the in-kernel poll interval (or stalled by a
        // hang fault before compute began) still honour the deadline.
        if Instant::now() >= deadline {
            self.m.deadline_exceeded.incr();
            return Response::DeadlineExceeded;
        }
        let n = self.engine.num_vertices() as u32;
        let bad_vertex = match req.op {
            Op::Path | Op::Reach => req.src >= n || req.dst >= n,
            Op::Sssp => req.src >= n,
            _ => false,
        };
        if bad_vertex {
            self.m.bad_request.incr();
            return Response::BadRequest(format!(
                "vertex out of range (n = {n}, src = {}, dst = {})",
                req.src, req.dst
            ));
        }
        let key = cache_key(req.op, req.src, req.dst);
        let probe = self.cache.get(key);
        tb.mark("cache");
        tb.tag("cache", if probe.is_some() { "hit" } else { "miss" });
        tb.tag("cache_shard", self.cache.shard_of(key) as u64);
        if let Some(hit) = probe {
            self.m.ok.incr();
            return Response::Ok(hit);
        }
        // Count the solver's deadline polls: one closure call per
        // kernel-side cancellation check (path/reach search on entry
        // and every 64 settles over both sides, FW per tile kernel
        // call, matching per augmentation round — see each crate's
        // `cancel` module).
        // An atomic, because the parallel TaskGraph drivers (`sssp`,
        // `match`) poll the same hook from every worker thread.
        let polls = AtomicU64::new(0);
        let cancel = || {
            polls.fetch_add(1, Ordering::Relaxed);
            Instant::now() >= deadline
        };
        let computed = match req.op {
            Op::Path => self.engine.path(req.src, req.dst, &cancel),
            Op::Reach => self.engine.reach(req.src, req.dst, &cancel),
            Op::Sssp => self.engine.sssp(req.src, &cancel),
            Op::Match => self.engine.matching(&cancel),
            // Inline ops never reach the queue; answer anyway so a
            // hand-crafted frame cannot crash a worker.
            Op::Metrics => return Response::Ok(self.metrics_report()),
            Op::Health => return Response::Ok(self.health_payload()),
            Op::Stats => return Response::Ok(self.stats_payload()),
            Op::Trace => return Response::Ok(self.trace_payload()),
            Op::Shutdown => return Response::Ok(Json::obj().field("draining", true)),
        };
        tb.mark("compute");
        tb.tag("cancel_polls", polls.into_inner());
        match computed {
            Ok(data) => {
                self.cache.put(key, data.clone());
                self.m.ok.incr();
                Response::Ok(data)
            }
            Err(QueryError::Cancelled) => {
                self.m.deadline_exceeded.incr();
                Response::DeadlineExceeded
            }
            Err(e @ QueryError::BadVertex { .. }) => {
                self.m.bad_request.incr();
                Response::BadRequest(e.to_string())
            }
        }
    }
}

/// Injective cache key: 2 op bits, then `src`/`dst` (both below the
/// graph size, which is far under 2^31 — validated before lookup).
fn cache_key(op: Op, src: u32, dst: u32) -> u64 {
    let tag: u64 = match op {
        Op::Path => 0,
        Op::Reach => 1,
        Op::Sssp => 2,
        _ => 3,
    };
    (tag << 62) | (u64::from(src) << 31) | u64::from(dst)
}

/// A running server: its port and the threads behind it.
pub struct ServerHandle {
    port: u16,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The bound port (useful with port 0 for ephemeral binds).
    pub fn port(&self) -> u16 {
        self.port
    }

    /// True once `shutdown` was received (the server is draining or
    /// finished).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down.load(Ordering::Acquire)
    }

    /// Attach the JSONL sink the tracer writes sampled traces to. Call
    /// before serving traffic (traces completed earlier are not
    /// rewritten).
    pub fn attach_trace_sink(&self, sink: Box<dyn Write + Send>) {
        self.shared.tracer.attach_jsonl_sink(sink);
    }

    /// Wait for the server to finish (after a `shutdown` request
    /// drains it) and return the final metrics snapshot, with cache
    /// gauges synced.
    pub fn join(self) -> Snapshot {
        self.join_report().0
    }

    /// [`join`](Self::join), plus the final report: metrics, the
    /// `serve.state` experiment, and the flushed flight recorder (both
    /// rings — the post-mortem section). This is the v5 document the
    /// chaos suite parses back.
    pub fn join_report(mut self) -> (Snapshot, Report) {
        for h in self.acceptor.take().into_iter().chain(self.workers.drain(..)) {
            // A panicked service thread already isolated the damage;
            // the final snapshot is still valid.
            let _ = h.join();
        }
        self.shared.sync_cache_gauges();
        let snapshot = self.shared.registry.snapshot();
        let report = match Report::from_json(&self.shared.metrics_report()) {
            Ok(r) => r,
            Err(_) => Report::new("cachegraph-serve"),
        };
        let mut report = report;
        for trace in self.shared.tracer.flush() {
            report.push_trace(trace.to_json());
        }
        (snapshot, report)
    }

    /// The final report document for the current state (metrics only;
    /// [`join_report`](Self::join_report) adds the flight recorder).
    pub fn report_json(&self) -> Json {
        self.shared.metrics_report()
    }
}

/// Validate the engine config, bind `127.0.0.1:port` (0 = ephemeral),
/// build the engine, start the acceptor and worker pool, and return the
/// handle. An engine config with a zero or odd `n`, a `density`
/// outside `[0, 1]`, a zero `tile`, or a `max_weight` with
/// `max_weight.max(1) · (n − 1) ≥ INF` fails with
/// [`std::io::ErrorKind::InvalidInput`], naming the field, before
/// anything is bound or built.
pub fn start(
    cfg: ServerConfig,
    fault_plan: FaultPlan,
    registry: Registry,
) -> std::io::Result<ServerHandle> {
    start_on(cfg, fault_plan, registry, 0)
}

/// [`start`] on an explicit port.
pub fn start_on(
    cfg: ServerConfig,
    fault_plan: FaultPlan,
    registry: Registry,
    port: u16,
) -> std::io::Result<ServerHandle> {
    cfg.engine.validate()?;
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let port = listener.local_addr()?.port();
    let engine = QueryEngine::build(&cfg.engine);
    let m = Metrics {
        ok: registry.counter("serve.ok"),
        shed: registry.counter("serve.shed"),
        panics: registry.counter("serve.panics"),
        deadline_exceeded: registry.counter("serve.deadline_exceeded"),
        bad_request: registry.counter("serve.bad_request"),
        torn_writes: registry.counter("serve.torn_writes"),
        op_path: registry.counter("serve.op.path"),
        op_reach: registry.counter("serve.op.reach"),
        op_sssp: registry.counter("serve.op.sssp"),
        op_match: registry.counter("serve.op.match"),
        queue_depth: registry.gauge("serve.queue_depth"),
        queue_high_watermark: registry.gauge("serve.queue_high_watermark"),
        workers_busy: registry.gauge("serve.workers_busy"),
        latency_ns: registry.histogram("serve.latency_ns"),
    };
    let cache = ShardedLru::new(cfg.cache_shards, cfg.cache_per_shard);
    let workers = cfg.workers.max(1);
    let tracer = Tracer::new(cfg.trace.clone());
    let shared = Arc::new(Shared {
        cfg,
        engine,
        cache,
        fault_plan,
        tracer,
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        shutting_down: AtomicBool::new(false),
        shedding: AtomicBool::new(false),
        in_flight: AtomicUsize::new(0),
        high_watermark: AtomicUsize::new(0),
        registry,
        m,
        port,
    });
    let worker_handles = (0..workers)
        .map(|_| {
            let s = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&s))
        })
        .collect();
    let acceptor = {
        let s = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&listener, &s))
    };
    Ok(ServerHandle { port, acceptor: Some(acceptor), workers: worker_handles, shared })
}

/// Accept connections until shutdown, handing each to an admission
/// thread so a slow or silent client never blocks `accept`.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shared.shutting_down.load(Ordering::Acquire) {
                break;
            }
            continue;
        };
        if shared.shutting_down.load(Ordering::Acquire) {
            let mut stream = stream;
            let _ = write_frame(&mut stream, &Response::ShuttingDown.to_json());
            break;
        }
        let s = Arc::clone(shared);
        std::thread::spawn(move || admit_connection(stream, &s));
    }
    drain(shared);
}

/// Read one request frame and route it: inline op, shed, or enqueue.
///
/// The trace clock starts *before* the frame read, so the `admission`
/// segment covers everything the request waited on up front: socket
/// read, parse, the admission decision, and the enqueue itself.
fn admit_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let arrived = Instant::now();
    let timeout = Duration::from_millis(shared.cfg.read_timeout_ms.max(1));
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_nodelay(true);
    let req = match read_frame(&mut stream).and_then(|j| Request::from_json(&j)) {
        Ok(req) => req,
        Err(e @ (WireError::BadShape(_) | WireError::BadJson(_) | WireError::BadUtf8
            | WireError::FrameTooLarge { .. })) => {
            // The peer spoke, badly: tell it so, structured.
            shared.m.bad_request.incr();
            let _ = write_frame(&mut stream, &Response::BadRequest(e.to_string()).to_json());
            return;
        }
        Err(_) => return, // torn / timed out / vanished: nothing to answer
    };
    match req.op {
        Op::Health => {
            let _ = write_frame(&mut stream, &Response::Ok(shared.health_payload()).to_json());
        }
        Op::Metrics => {
            let _ = write_frame(&mut stream, &Response::Ok(shared.metrics_report()).to_json());
        }
        Op::Stats => {
            let _ = write_frame(&mut stream, &Response::Ok(shared.stats_payload()).to_json());
        }
        Op::Trace => {
            let _ = write_frame(&mut stream, &Response::Ok(shared.trace_payload()).to_json());
        }
        Op::Shutdown => {
            shared.shutting_down.store(true, Ordering::Release);
            shared.available.notify_all();
            let _ = write_frame(&mut stream, &Response::Ok(Json::obj().field("draining", true)).to_json());
            // Wake the acceptor out of its blocking accept.
            let _ = TcpStream::connect(("127.0.0.1", shared.port));
        }
        Op::Path | Op::Reach | Op::Sssp | Op::Match => {
            shared.count_op(req.op);
            let mut tb = shared.tracer.begin_at(arrived, req.op.name());
            if let Err(resp) = shared.admit() {
                // Shed and drain refusals are traced too: every BUSY /
                // SHUTTING_DOWN is a non-OK outcome, so the sampler
                // always captures it.
                tb.mark("admission");
                let _ = write_frame(&mut stream, &resp.to_json());
                tb.mark("write");
                if let Some(rec) = tb.finish(resp.status()) {
                    shared.tracer.record(rec);
                }
                return;
            }
            let now = Instant::now();
            let ms = req.deadline_ms.unwrap_or(shared.cfg.default_deadline_ms).max(1);
            tb.mark("admission");
            let job = Job {
                stream,
                req,
                enqueued: now,
                deadline: now + Duration::from_millis(ms),
                tb,
            };
            let depth = {
                let mut q = lock(&shared.queue);
                q.push_back(job);
                q.len()
            };
            shared.high_watermark.fetch_max(depth, Ordering::Relaxed);
            shared.m.queue_high_watermark.set(shared.high_watermark.load(Ordering::Relaxed) as i64);
            shared.m.queue_depth.set(depth as i64);
            shared.available.notify_one();
        }
    }
}

/// Pop jobs until shutdown-and-empty; isolate each request's panics.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(j) = q.pop_front() {
                    break Some(j);
                }
                if shared.shutting_down.load(Ordering::Acquire) {
                    break None;
                }
                let (guard, _) = shared
                    .available
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner);
                q = guard;
            }
        };
        let Some(mut job) = job else {
            return;
        };
        let busy = shared.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        shared.m.workers_busy.set(busy as i64);
        shared.m.queue_depth.set(shared.queue_depth() as i64);
        serve_job(shared, &mut job);
        shared.m.latency_ns.record(job.enqueued.elapsed().as_nanos() as u64);
        let busy = shared.in_flight.fetch_sub(1, Ordering::SeqCst) - 1;
        shared.m.workers_busy.set(busy as i64);
    }
}

/// Handle one dequeued job: deadline re-check, fault injection, the
/// query itself under `catch_unwind`, and the response write.
///
/// The first mark closes the `queue` segment (time from enqueue to the
/// worker claiming the job). The trace builder stays *outside* the
/// `catch_unwind` closure's panic path — whatever marks and tags
/// landed before a panic survive into the `INTERNAL` partial trace,
/// which is the whole point of the flight recorder.
fn serve_job(shared: &Arc<Shared>, job: &mut Job) {
    job.tb.mark("queue");
    if Instant::now() >= job.deadline {
        shared.m.deadline_exceeded.incr();
        let _ = write_frame(&mut job.stream, &Response::DeadlineExceeded.to_json());
        job.tb.mark("write");
        job.tb.tag("expired_in_queue", true);
        finish_trace(shared, job, "DEADLINE_EXCEEDED");
        return;
    }
    let fault = shared.fault_plan.take(job.req.op.name());
    if fault == Some(Fault::Kill) {
        // A prefix promising 64 payload bytes, then 2 bytes and a dead
        // socket: the client's decoder must classify this as torn.
        let _ = job.stream.write_all(&[0, 0, 0, 64, b'{', b'"']);
        let _ = job.stream.flush();
        shared.m.torn_writes.incr();
        job.tb.mark("write");
        job.tb.tag("fault", "kill");
        job.tb.tag("torn_write", true);
        finish_trace(shared, job, "INTERNAL");
        return; // dropping the stream cuts the connection
    }
    let outcome = {
        let shared = Arc::clone(shared);
        let req = job.req.clone();
        let deadline = job.deadline;
        let tb = &mut job.tb;
        catch_unwind(AssertUnwindSafe(move || {
            match fault {
                Some(Fault::Panic) => {
                    // tidy: allow(panic-policy) -- injected fault; absorbed by catch_unwind below
                    panic!("injected fault: panic on `{}`", req.op.name());
                }
                Some(Fault::Hang) => {
                    // Injected stall: long enough to blow most deadlines,
                    // short enough to keep chaos tests fast.
                    std::thread::sleep(Duration::from_millis(shared.cfg.hang_ms));
                    // Attribute the stall to compute (merged with any
                    // real compute time that follows).
                    tb.mark("compute");
                    tb.tag("fault", "hang");
                }
                _ => {}
            }
            shared.handle_query(&req, deadline, tb)
        }))
    };
    let response = match outcome {
        Ok(resp) => resp,
        Err(_) => {
            shared.m.panics.incr();
            // Close the open interval: the time up to the panic is
            // compute time the request actually spent.
            job.tb.mark("compute");
            job.tb.tag("panic", true);
            Response::Internal("handler panicked; request poisoned, server alive".to_string())
        }
    };
    let bytes = encode_frame(&response.to_json());
    job.tb.mark("serialize");
    let _ = job.stream.write_all(&bytes).and_then(|()| job.stream.flush());
    job.tb.mark("write");
    finish_trace(shared, job, response.status());
}

/// Seal the job's trace and file it with the tracer.
fn finish_trace(shared: &Arc<Shared>, job: &mut Job, outcome: &str) {
    let tb = std::mem::replace(&mut job.tb, TraceBuilder::inert());
    if let Some(rec) = tb.finish(outcome) {
        shared.tracer.record(rec);
    }
}

/// Drain after shutdown: wait (bounded by the drain deadline) for the
/// queue to empty and in-flight work to finish.
fn drain(shared: &Arc<Shared>) {
    let deadline = Instant::now() + Duration::from_millis(shared.cfg.drain_deadline_ms);
    shared.available.notify_all();
    while Instant::now() < deadline {
        if shared.queue_depth() == 0 && shared.in_flight.load(Ordering::SeqCst) == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    shared.m.queue_depth.set(shared.queue_depth() as i64);
}

/// Round-trip helper used by tests and the CLI `query` subcommand: one
/// connection, one request, one response.
pub fn request_once(port: u16, req: &Request, timeout_ms: u64) -> Result<Response, WireError> {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).map_err(|e| WireError::Io(e.kind()))?;
    let timeout = Some(Duration::from_millis(timeout_ms.max(1)));
    let _ = stream.set_read_timeout(timeout);
    let _ = stream.set_write_timeout(timeout);
    let _ = stream.set_nodelay(true);
    write_frame(&mut stream, &req.to_json())?;
    let json = read_frame(&mut stream)?;
    Response::from_json(&json)
}

/// Parse a `metrics` response payload back into a [`Report`] — used by
/// tests asserting the snapshot is a valid schema-v4 document.
pub fn report_from_response(resp: &Response) -> Option<Report> {
    match resp {
        Response::Ok(data) => Report::from_json(data).ok(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_parses_and_fires_once() {
        let plan = FaultPlan::parse("panic:path, hang:reach,kill:match").expect("parses");
        assert_eq!(plan.armed(), 3);
        assert_eq!(plan.take("path"), Some(Fault::Panic));
        assert_eq!(plan.take("path"), None, "one-shot");
        assert_eq!(plan.take("reach"), Some(Fault::Hang));
        assert_eq!(plan.take("match"), Some(Fault::Kill));
        assert_eq!(plan.armed(), 0);
    }

    #[test]
    fn fault_plan_rejects_junk() {
        assert!(FaultPlan::parse("explode:path").is_err());
        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("").expect("empty is fine").armed() == 0);
    }

    #[test]
    fn cache_key_is_injective_over_ops_and_vertices() {
        let mut seen = std::collections::BTreeSet::new();
        for op in [Op::Path, Op::Reach, Op::Sssp, Op::Match] {
            for src in [0u32, 1, 77, 1_000_000] {
                for dst in [0u32, 2, 78, 999_999] {
                    let k = cache_key(op, src, dst);
                    assert!(seen.insert(k), "collision at {op:?} {src} {dst}");
                }
            }
        }
    }
}
