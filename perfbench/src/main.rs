//! `perfbench`: the cachegraph benchmark.
//!
//! ```text
//! perfbench --workload <serve-point|serve-sssp|apsp-batch|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics of one
//! workload; a traced run (`--trace 1`) prints the per-layer metrics
//! and writes its spans to `.bench_spans/`. Either ends with one JSON
//! line: `correct`, `attempted`, `failed` and `metrics`. `--workload
//! all` runs every benchmarked workload, each in a process of its own.
//! The exit code is non-zero when any output check fails. See
//! `README.md` in this directory for the workloads and what each metric
//! explains.

mod apsp;
mod host;
mod layers;
mod report;
mod serve;
mod spans;
mod stats;

use std::process::{Command, ExitCode, Stdio};

use cachegraph_obs::Json;

use report::{RunReport, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: perfbench --workload <serve-point|serve-sssp|apsp-batch|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// One set of inputs the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The daemon under the shipped `loadgen` mix.
    ServePoint,
    /// The daemon under full single-source `sssp` requests.
    ServeSssp,
    /// In-process `fw::solve_apsp` on dense n = 512 matrices.
    ApspBatch,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ServePoint,
        Workload::ServeSssp,
        Workload::ApspBatch,
    ];
    /// The workloads `BENCHMARK.json` gates on. serve-sssp stays
    /// runnable but is left out: its tail and throughput move with CPU
    /// steal by more than any bound allows (see `README.md`).
    pub const BENCHMARKED: [Workload; 2] = [Workload::ServePoint, Workload::ApspBatch];

    /// The name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePoint => "serve-point",
            Workload::ServeSssp => "serve-sssp",
            Workload::ApspBatch => "apsp-batch",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

struct Options {
    /// `None` runs every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
            };
            match flag.as_str() {
                "--workload" if value == "all" => workload = Some(None),
                "--workload" => {
                    workload = Some(Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    ))
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace: {value:?} is not 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }

    fn metrics(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(serve::DAEMON_ARG) {
        return serve::daemon_main(&args[1..]);
    }
    let opts = match Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match opts.workload {
        Some(w) => {
            run_one(w, &opts).and_then(|r| r.print(w.name(), opts.metrics()).map(|()| r.correct))
        }
        None => run_all(&opts),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: output checks failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_one(w: Workload, opts: &Options) -> Result<RunReport, String> {
    match (w, opts.trace) {
        (_, true) => layers::run(w, opts.seed, opts.seconds),
        (Workload::ApspBatch, false) => apsp::run(opts.seed, opts.seconds),
        (_, false) => serve::run(w, opts.seed, opts.seconds),
    }
}

/// Run every benchmarked workload in a process of its own, relay what
/// each prints, and end with one JSON line whose metrics are
/// `<workload>.<metric>`.
fn run_all(opts: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut metrics = Json::obj();
    for w in Workload::BENCHMARKED {
        let out = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &opts.seed.to_string()])
            .args([
                "--seconds",
                &opts.seconds.to_string(),
                "--trace",
                if opts.trace { "1" } else { "0" },
            ])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running {}: {e}", w.name()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines = text.lines().collect::<Vec<_>>();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        let result = cachegraph_obs::parse_json(last)
            .map_err(|_| format!("{} printed no result", w.name()))?;
        let count = |k: &str| result.get(k).and_then(Json::as_u64).unwrap_or(0);
        attempted += count("attempted");
        failed += count("failed");
        correct &= out.status.success() && result.get("correct") == Some(&Json::Bool(true));
        for (name, value) in result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            metrics = metrics.field(&format!("{}.{name}", w.name()), value.clone());
        }
    }
    let summary = Json::obj()
        .field("correct", correct)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("metrics", metrics);
    println!("{}", summary.render());
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn options_parse_the_benchmark_command_line() {
        let o = Options::parse(&args(
            "--workload apsp-batch --seed 7 --seconds 20 --trace 1",
        ))
        .expect("parses");
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Some(Workload::ApspBatch), 7, 20, true)
        );
        assert_eq!(
            Options::parse(&args("--workload all --seed 1 --seconds 5 --trace 0"))
                .expect("all")
                .workload,
            None
        );
        for bad in [
            "--workload nope --seed 1 --seconds 5 --trace 0",
            "--workload apsp-batch --seed x --seconds 5 --trace 0",
            "--workload apsp-batch --seed 1 --seconds 5 --trace 2",
            "--workload apsp-batch --seed 1 --seconds 5",
            "--workload apsp-batch --seed 1 --seconds 5 --trace",
        ] {
            assert!(Options::parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
