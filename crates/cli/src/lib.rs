//! Command implementations behind the `cachegraph` binary.
//!
//! ```text
//! cachegraph gen    --kind random --n 1024 --density 0.1 --seed 7 -o g.gr
//! cachegraph sssp   -i g.gr --source 0 [--rep array|list|matrix] [--algo binary|dary|lazy|dense]
//! cachegraph apsp   -i g.gr [--algo recursive|tiled|iterative] [--block B]
//! cachegraph mst    -i g.gr [--root 0]
//! cachegraph match  -i g.gr [--parts 8]
//! cachegraph closure -i g.gr
//! cachegraph simulate -i g.gr --machine simplescalar|p3|sparc|alpha|mips [--rep array|list]
//! cachegraph repro [--quick|--full] [--metrics out.json]
//! cachegraph compare a.json b.json [--threshold 0.1]
//! cachegraph profile a.json [--label fw.tiled.bdl]
//! cachegraph trace a.json [--op path] [--limit 32]
//! ```
//!
//! Graphs are exchanged in the DIMACS `sp` format
//! (`cachegraph_graph::io`). Every command prints a short plain-text
//! report; exit status is non-zero on any error. The `sssp`, `apsp`,
//! `match`, `simulate`, and `repro` commands additionally accept
//! `--metrics FILE` to write a machine-readable run report
//! (`cachegraph_obs::Report`, see EXPERIMENTS.md for the schema);
//! `compare` diffs two such reports, `profile` renders the span-scoped
//! cache attribution sections of one, and `trace` renders the
//! request-trace section a `serve` run leaves behind.

mod args;
mod commands;

pub use args::{Args, ArgsError};
pub use commands::{run, CliError};

/// Usage text for the binary.
pub const USAGE: &str = "\
usage: cachegraph <command> [options]

commands:
  gen       generate a graph        --kind random|undirected|bipartite|grid
                                    --n N [--density D] [--seed S] [--max-weight W]
                                    [--rows R --cols C]  -o FILE
  sssp      shortest paths          -i FILE [--source V] [--rep array|list|matrix]
                                    [--algo binary|dary|lazy|sequence|dense]
  apsp      all-pairs distances     -i FILE [--algo recursive|tiled|iterative]
                                    [--block B]
  mst       minimum spanning tree   -i FILE [--root V]
  match     bipartite matching      -i FILE [--parts P] (left side = first half)
  closure   transitive closure      -i FILE
  simulate  cache simulation        -i FILE [--machine simplescalar|p3|sparc|alpha|mips]
                                    [--rep array|list] [--source V]
  repro     supervised repro run    [--quick|--full] [--metrics FILE]
                                    [--journal FILE] [--resume FILE]
                                    [--timeout-secs N] [--strict]
                                    [--fault-plan panic:ID,hang:ID,kill:ID]
  compare   diff two metrics files  A.json B.json [--threshold T]
  profile   render cache profiles   A.json [--label L]
  trace     render request traces   A.json [--op OP] [--limit N]
  serve     crash-only query daemon [--port P] [--port-file FILE]
                                    [--gen-n N --density D --seed S --max-weight W]
                                    [--apsp-threshold N] [--tile B]
                                    [--threads T] [--delta D]
                                    [--workers W --queue-high H --queue-low L]
                                    [--deadline-ms MS] [--drain-ms MS] [--hang-ms MS]
                                    [--retry-after-ms MS] [--read-timeout-ms MS]
                                    [--cache-shards S --cache-per-shard C]
                                    [--fault-plan panic:OP,hang:OP,kill:OP]
                                    [--metrics FILE] [--trace-log FILE] [--no-trace]
                                    [--flight-len N] [--trace-sample-log2 K]
                                    [--trace-seed S]
  query     one request             --port P | --port-file FILE
                                    [--op path|reach|sssp|match|metrics|health|stats|trace|shutdown]
                                    [--src V] [--dst V] [--deadline-ms MS]
  loadgen   drive a running daemon  --port P | --port-file FILE
                                    [--clients C --requests R --seed S]
                                    [--max-retries N --backoff-ms MS --think-ms MS]
                                    [--deadline-ms MS] [--metrics FILE]

sssp, apsp, match, simulate, and repro accept --metrics FILE to write a
machine-readable run report (spans, counters, cache statistics).

repro's simulations run with the span-scoped cache attribution profiler
attached; profile renders the resulting span trees (self/total misses,
miss rate, dominant three-Cs class per scope) and each run's sampled
miss-rate timeline as a sparkline.

repro runs each experiment (fw, dijkstra, matching) supervised: panics
and --timeout-secs overruns become structured outcomes in the report,
--journal streams one checkpoint record per experiment, and --resume
skips experiments a previous journal already completed.

serve precomputes the tiled-FW distance table when --gen-n N is at most
--apsp-threshold (default 128) and otherwise answers path and reach by a
bidirectional search. reach is a finite distance either way, so serve
requires max(W, 1) * (N - 1) < 2^32 - 1 for --max-weight W: no shortest
path may saturate to 2^32 - 1, the distance that means no path. query's
path and reach take --src and --dst; sssp takes --src.

serve answers length-prefixed JSON frames on loopback with per-request
deadlines, BUSY load shedding past --queue-high, per-request panic
isolation, and graceful drain on the shutdown op; --fault-plan arms
one-shot chaos faults keyed by op name. Every admitted request is
traced across threads (admission/queue/cache/compute/serialize/write
segments summing to wall latency): the in-band stats op answers a live
load snapshot, the trace op drains the recent flight-recorder ring,
--trace-log streams sampled trace records as JSONL, and the final
--metrics report carries the flight recorder (schema v5) for the trace
subcommand to render as per-request waterfalls with per-segment
p50/p90/p99. query exits 0 only on an OK
response; loadgen exits 0 only when every request resolved (retrying
BUSY, DEADLINE_EXCEEDED, INTERNAL, and torn frames with exponential
backoff plus jitter) and reports p50/p90/p99 from pow2 histograms, per
outcome class (ok / shed / deadline) and overall.

exit codes: 0 success; 1 runtime failure (bad input file, corrupt
report, repro run with no completed experiment, any non-completion
under --strict, a query answered with a non-OK status, a loadgen run
with unresolved requests); 2 usage error (unknown command, flag, or
argument; a gen input it rejects: a --density outside [0, 1], an odd
--n for --kind bipartite; or a serve engine config it rejects: an odd
--gen-n, a --density outside [0, 1], --tile 0, a --max-weight past the
bound above).
";
