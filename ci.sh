#!/usr/bin/env bash
# Tier-1 gate plus static analysis — everything CI runs, runnable locally.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> fw + layout tests, release build"
# The workspace tests above are a debug build, but the AVX2/fused FW
# kernel and the run-copy layout conversions ship optimised: run their
# tests (kernel differential, variant matrix, round trips) as shipped.
cargo test -q --release -p cachegraph-fw -p cachegraph-layout

echo "==> perfbench tests (the benchmark's own package)"
# perfbench is a package of its own, outside the workspace, that calls
# sssp::dijkstra_to and the serve API: building it here surfaces an API
# break before the benchmark does.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cachegraph-tidy"
cargo run -q -p cachegraph-tidy

echo "==> cachegraph-analyze (static footprint proof, full sweep)"
# Golden-parse the kernel files, AST lint rules, inferred-footprint /
# plan-conformance sweep over the full (n <= 20, b <= 6) grid, plus
# off-by-one mutation sensitivity. Report kept with the CI metrics.
mkdir -p target/ci-metrics
cargo run -q --release -p cachegraph-analyze -- --sweep \
  | tee target/ci-metrics/analyze.txt

echo "==> cachegraph-check (model-check all TaskGraph drivers)"
# Extended check matrix: footprint oracle sweep + bounded schedule
# exploration for fw::parallel AND the three TaskGraph drivers
# (delta-stepping sssp, partitioned matching, tiled boolean closure),
# then barrier-omission mutation sensitivity per driver — every seeded
# mutation must be DETECTED. Failures print the schedule and replay seed.
cargo run -q --release -p cachegraph-check

echo "==> clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> obs overhead gate (enabled-path budgets, release, 3-trial median)"
# Profiled simulation vs the classifying no-profiler baseline on the FW
# tiled unit: exact-event mode must stay within 1.15x, sampled 1/64
# mode within 1.05x. The traced serve path (request tracing on vs off,
# order-balanced ABBA blocks over the request loop) must stay within
# 1.10x, and parallel FW through the shared TaskGraph executor within
# 1.05x of the hand-rolled phase loop. The bench exits nonzero on a
# breach.
cargo bench -q -p cachegraph-bench --bench obs_overhead -- --gate

echo "==> repro --quick perf smoke (metrics -> target/ci-metrics)"
mkdir -p target/ci-metrics
cargo run -q --release -p cachegraph-cli --bin cachegraph -- \
  repro --quick --metrics target/ci-metrics/repro_quick.json \
  > target/ci-metrics/repro_quick.txt
grep -q '"schema_version":5' target/ci-metrics/repro_quick.json

echo "==> resume smoke (kill mid-run, resume from journal)"
rm -f target/ci-metrics/resume.jsonl
# Fault plan kills the process mid-journal-write at the last experiment:
# exit 124 expected, journal left with a torn final line.
cargo run -q --release -p cachegraph-cli --bin cachegraph -- \
  repro --quick --journal target/ci-metrics/resume.jsonl \
  --fault-plan kill:matching > target/ci-metrics/resume_killed.txt \
  && { echo "ci: kill fault did not kill the run"; exit 1; } \
  || test $? -eq 124
# Resume must finish the run, restore the two completed experiments,
# and write a parseable merged report.
cargo run -q --release -p cachegraph-cli --bin cachegraph -- \
  repro --quick --resume target/ci-metrics/resume.jsonl \
  --metrics target/ci-metrics/resume_merged.json \
  > target/ci-metrics/resume_resumed.txt
grep -q '"schema_version":5' target/ci-metrics/resume_merged.json
grep -q 'restored from journal' target/ci-metrics/resume_resumed.txt
cargo run -q --release -p cachegraph-cli --bin cachegraph -- \
  compare target/ci-metrics/resume_merged.json target/ci-metrics/repro_quick.json \
  > /dev/null

echo "==> serve chaos smoke (faults + 4x overload burst, graceful drain)"
# A real serve daemon with one-shot panic/hang/kill faults armed and a
# small queue, hammered by a 4x closed-loop burst: loadgen must converge
# (exit 0) with nonzero shed and retry counters in its report, and the
# shutdown op must drain the server to exit 0 with a parseable v5 report
# whose flight recorder survived the injected panic.
rm -f target/ci-metrics/serve.port
cargo run -q --release -p cachegraph-cli --bin cachegraph -- \
  serve --gen-n 48 --density 0.1 --seed 5 \
  --workers 2 --queue-high 3 --queue-low 1 --hang-ms 200 \
  --fault-plan panic:path,hang:reach,kill:match \
  --port-file target/ci-metrics/serve.port \
  --metrics target/ci-metrics/serve_final.json \
  > target/ci-metrics/serve.txt &
serve_pid=$!
for _ in $(seq 1 100); do
  test -s target/ci-metrics/serve.port && break
  sleep 0.1
done
test -s target/ci-metrics/serve.port
cargo run -q --release -p cachegraph-cli --bin cachegraph -- \
  loadgen --port-file target/ci-metrics/serve.port \
  --clients 8 --requests 25 --seed 42 --max-retries 40 --backoff-ms 1 \
  --metrics target/ci-metrics/loadgen.json \
  > target/ci-metrics/loadgen.txt
grep -q '"schema_version":5' target/ci-metrics/loadgen.json
grep -q '"ok":200' target/ci-metrics/loadgen.json
grep -q '"shed":0' target/ci-metrics/loadgen.json \
  && { echo "ci: 4x overload burst did not shed"; exit 1; } || true
grep -q '"retries":0' target/ci-metrics/loadgen.json \
  && { echo "ci: sheds did not force retries"; exit 1; } || true
cargo run -q --release -p cachegraph-cli --bin cachegraph -- \
  query --port-file target/ci-metrics/serve.port --op shutdown > /dev/null
wait "$serve_pid"
grep -q '"schema_version":5' target/ci-metrics/serve_final.json
grep -q 'drained: ok' target/ci-metrics/serve.txt
# The panicked request's partial trace is in the final report's flight
# recorder, and the trace subcommand renders it to a waterfall.
grep -q '"outcome":"INTERNAL"' target/ci-metrics/serve_final.json
cargo run -q --release -p cachegraph-cli --bin cachegraph -- \
  trace target/ci-metrics/serve_final.json > target/ci-metrics/trace.txt
grep -q 'segment percentiles over' target/ci-metrics/trace.txt
grep -q 'waterfall' target/ci-metrics/trace.txt

echo "ci: all green"
