//! # cachegraph-serve
//!
//! A crash-only graph-query daemon over plain `std::net`: load a
//! graph, precompute cache-friendly artifacts (the tiled-APSP table of
//! paper §3.1 for small instances, the reverse CSR for an exact
//! bidirectional search otherwise, and the `match` companion streamed
//! straight into a left-only CSR that the partitioned Fig. 9 matcher
//! carves its parts from), and answer point-to-point `path` / `reach` /
//! `match` queries through a fixed worker pool fronted by a sharded,
//! cache-line-aligned LRU result cache. A config the engine cannot be
//! built from, or would answer wrongly from (an odd `n`, a `density`
//! outside `[0, 1]`, a zero `tile`, a `max_weight` at which a shortest
//! path could saturate to `INF`), fails [`start`] with a typed
//! `InvalidInput` error before anything is bound.
//!
//! The robustness layer is the point (this is where "optimised for
//! cache" meets "keeps running"):
//!
//! * **wire protocol** ([`protocol`]) — 4-byte length-prefixed JSON
//!   frames, size-capped before allocation; every corruption decodes to
//!   a structured [`WireError`], never a panic or a hang;
//! * **deadlines** — per-request, measured from admission, propagated
//!   into the query engine as a plain `FnMut() -> bool` closure checked
//!   at Dijkstra bucket boundaries / FW tile boundaries / matching
//!   augmentation rounds; an expired query answers
//!   `DEADLINE_EXCEEDED`, never hangs a worker;
//! * **load shedding** — a bounded admission queue with high/low
//!   watermark hysteresis answering `BUSY { retry_after_ms }` under
//!   overload;
//! * **panic isolation** — `catch_unwind` per request: a poisoned
//!   request answers `INTERNAL` and the server lives;
//! * **graceful shutdown** — stop accepting, drain in-flight work under
//!   a drain deadline, leave a final schema-v5 metrics report;
//! * **chaos** ([`FaultPlan`]) — one-shot `panic:OP,hang:OP,kill:OP`
//!   injections (the PR 3 supervisor grammar) so the whole taxonomy is
//!   testable from a real client;
//! * **request tracing** — every admitted request carries a
//!   `cachegraph_obs::trace` wide event across threads (admission →
//!   queue → cache → compute → serialize → write; segment durations sum
//!   to wall latency by construction), landing in a flight recorder
//!   drained by the in-band `trace` op and flushed into the final
//!   report; the `stats` op answers a live load snapshot inline, so it
//!   works even while the queue sheds.
//!
//! ```no_run
//! use cachegraph_serve::{start, request_once, FaultPlan, Request, Response, ServerConfig};
//! use cachegraph_obs::Registry;
//!
//! let handle = start(ServerConfig::default(), FaultPlan::none(), Registry::new()).unwrap();
//! let resp = request_once(handle.port(), &Request::path(0, 5), 1_000).unwrap();
//! assert_eq!(resp.status(), "OK");
//! let _ = request_once(handle.port(), &Request::plain(cachegraph_serve::Op::Shutdown), 1_000);
//! let snapshot = handle.join();
//! assert!(snapshot.counters["serve.ok"] >= 1);
//! ```

pub mod cache;
pub mod engine;
pub mod protocol;
pub mod server;

pub use cache::{ShardStats, ShardedLru};
pub use engine::{EngineConfig, QueryEngine, QueryError};
pub use protocol::{
    decode_frame, encode_frame, read_frame, write_frame, Op, Request, Response, WireError,
    MAX_FRAME,
};
pub use server::{
    report_from_response, request_once, start, start_on, Fault, FaultPlan, ServerConfig,
    ServerHandle,
};
