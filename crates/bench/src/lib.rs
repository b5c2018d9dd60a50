//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§4). Each experiment is a plain function returning a
//! [`Table`], so the `repro` binary, the integration tests, and the
//! criterion benches all drive the same code.
//!
//! Experiments run at two scales: the default quick scale finishes on a
//! laptop in minutes; `Scale::full()` uses the paper's problem sizes
//! (N up to 4096 for Floyd-Warshall, 64 K vertices for Dijkstra/Prim).
//! Absolute numbers differ from the paper's 2002 hardware; the *shape* —
//! who wins, by what factor, where crossovers fall — is what each table
//! reproduces, and the `paper` column records the corresponding claim.

pub mod experiments;
pub mod loadgen;
pub mod supervisor;
mod table;
#[cfg(test)]
mod tests;
pub mod workloads;

pub use table::Table;

use std::time::{Duration, Instant};

/// Experiment scale.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Use the paper's full problem sizes.
    pub full: bool,
}

impl Scale {
    /// Laptop-friendly sizes (default).
    pub fn quick() -> Self {
        Self { full: false }
    }

    /// The paper's sizes. Budget tens of minutes and several GB of RAM.
    pub fn full() -> Self {
        Self { full: true }
    }

    /// Pick `q` or `f` depending on the scale.
    pub fn pick<T>(&self, q: T, f: T) -> T {
        if self.full {
            f
        } else {
            q
        }
    }
}

/// Wall-clock one invocation of `f`, returning (duration, result).
pub fn time_once<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// Format a speedup ratio.
pub fn speedup(baseline: Duration, optimized: Duration) -> f64 {
    baseline.as_secs_f64() / optimized.as_secs_f64().max(1e-12)
}

/// Minimal bench runner for the `[[bench]]` targets (`harness = false`):
/// runs `f` for `samples` timed samples after one warmup and prints the
/// best and median wall-clock time. Criterion is unavailable offline;
/// this keeps the bench binaries useful without it.
pub fn bench_report(group: &str, name: &str, samples: usize, mut f: impl FnMut()) {
    f(); // warmup
    let mut times: Vec<Duration> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    let best = times[0];
    let median = times[times.len() / 2];
    println!("{group}/{name}: best {best:?}  median {median:?}  ({} samples)", times.len());
}

/// Defeat the optimizer without `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}
