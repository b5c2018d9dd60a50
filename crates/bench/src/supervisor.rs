//! Supervised, resumable experiment runs.
//!
//! A long `repro --full` sweep is hours of work; one panicking
//! experiment or a killed process must not lose everything finished so
//! far. The supervisor runs each experiment as an isolated unit:
//!
//! * the unit executes on its own worker thread under `catch_unwind`,
//!   with the supervisor thread acting as watchdog — a per-experiment
//!   deadline (`--timeout-secs`, monotonic clock) turns a hung
//!   experiment into a [`ExperimentOutcome::TimedOut`] record while the
//!   runaway thread is detached, never joined;
//! * every finished unit streams one checkpoint record to a JSONL
//!   journal ([`cachegraph_obs::journal`]), flushed line-atomically, so
//!   a kill at any instant leaves at most one torn final line — which
//!   the journal reader recovers from;
//! * failures degrade: a panic or an `Err` from the unit becomes a
//!   structured [`ExperimentOutcome::Failed`] entry in the final report
//!   instead of aborting the run. The run exits nonzero only when *all*
//!   experiments fail, or when `--strict` is set (strict mode also
//!   fail-fasts: units after the first failure are recorded as
//!   [`ExperimentOutcome::Skipped`]);
//! * `--resume <journal>` replays the journal and skips every unit whose
//!   checkpoint is complete, schema-compatible, and from a run with the
//!   same context label, restoring its payload into the final report so
//!   nothing completed is ever re-run.
//!
//! The [`FaultPlan`] hook exists for the robustness suites and the CI
//! resume smoke: it forces a synthetic panic, a deadline overrun, or a
//! mid-write process kill at a named experiment, proving every
//! degradation path ends in a recorded outcome and a resumable journal.
//! It is the serve daemon's plan, with the same
//! `panic:ID,hang:ID,kill:ID` grammar; here the ids name experiments.

use std::collections::BTreeMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use cachegraph_obs::journal::{read_journal, JournalWriter};
use cachegraph_obs::{Json, SCHEMA_VERSION};
pub use cachegraph_serve::{Fault, FaultPlan};

/// How one supervised experiment ended.
#[derive(Clone, Debug, PartialEq)]
pub enum ExperimentOutcome {
    /// Ran to completion (this session, or `restored` from a journal
    /// checkpoint of an earlier one).
    Completed {
        /// The experiment's report fragment (e.g. `{"tables": [...]}`).
        data: Json,
        /// Human-readable output captured from the unit.
        text: String,
        /// Wall-clock duration in nanoseconds (monotonic clock).
        dur_ns: u64,
        /// True when replayed from a journal instead of re-run.
        restored: bool,
    },
    /// Panicked or returned an error; the run continued without it.
    Failed {
        /// Panic message or the unit's error.
        reason: String,
    },
    /// Exceeded the per-experiment deadline; the worker was detached.
    TimedOut {
        /// The deadline that was exceeded, in seconds.
        limit_secs: u64,
    },
    /// Never attempted (strict mode stops scheduling after a failure).
    Skipped {
        /// Why the unit was not attempted.
        reason: String,
    },
}

impl ExperimentOutcome {
    /// The taxonomy label used in journals, reports, and run tables.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Completed { .. } => "completed",
            Self::Failed { .. } => "failed",
            Self::TimedOut { .. } => "timed_out",
            Self::Skipped { .. } => "skipped",
        }
    }

    /// One human-readable status cell for the outcome table.
    pub fn describe(&self) -> String {
        match self {
            Self::Completed { dur_ns, restored: false, .. } => {
                format!("completed in {:.1} ms", *dur_ns as f64 / 1e6)
            }
            Self::Completed { restored: true, .. } => "completed (restored from journal)".into(),
            Self::Failed { reason } => format!("failed: {reason}"),
            Self::TimedOut { limit_secs } => format!("timed out after {limit_secs} s"),
            Self::Skipped { reason } => format!("skipped: {reason}"),
        }
    }

    /// The outcome as a report `experiments` section entry.
    pub fn to_section(&self, id: &str) -> Json {
        let base = Json::obj().field("id", id).field("outcome", self.kind());
        match self {
            Self::Completed { data, text, dur_ns, restored } => base
                .field("dur_ns", *dur_ns)
                .field("restored", *restored)
                .field("text", text.as_str())
                .field("data", data.clone()),
            Self::Failed { reason } => base.field("reason", reason.as_str()),
            Self::TimedOut { limit_secs } => base.field("limit_secs", *limit_secs),
            Self::Skipped { reason } => base.field("reason", reason.as_str()),
        }
    }

    /// The outcome as a journal checkpoint record (a report section plus
    /// the record framing the journal reader filters on).
    pub fn to_record(&self, id: &str) -> Json {
        let mut framed = Json::obj()
            .field("type", "experiment")
            .field("schema_version", SCHEMA_VERSION);
        if let Json::Obj(fields) = &mut framed {
            if let Json::Obj(section) = self.to_section(id) {
                fields.extend(section);
            }
        }
        framed
    }

    /// Parse a section or journal record back. Returns `None` for
    /// records that are not experiment outcomes (or are malformed — a
    /// corrupt checkpoint re-runs the experiment rather than crashing).
    pub fn from_json(json: &Json) -> Option<(String, Self)> {
        let id = json.get("id")?.as_str()?.to_string();
        let outcome = match json.get("outcome")?.as_str()? {
            "completed" => Self::Completed {
                data: json.get("data")?.clone(),
                text: json.get("text").and_then(Json::as_str).unwrap_or_default().to_string(),
                dur_ns: json.get("dur_ns").and_then(Json::as_u64).unwrap_or(0),
                restored: matches!(json.get("restored"), Some(Json::Bool(true))),
            },
            "failed" => Self::Failed {
                reason: json.get("reason")?.as_str()?.to_string(),
            },
            "timed_out" => Self::TimedOut {
                limit_secs: json.get("limit_secs").and_then(Json::as_u64).unwrap_or(0),
            },
            "skipped" => Self::Skipped {
                reason: json.get("reason")?.as_str()?.to_string(),
            },
            _ => return None,
        };
        Some((id, outcome))
    }
}

/// Supervisor policy for one run.
#[derive(Debug, Default)]
pub struct SupervisorConfig {
    /// Label identifying what this run computes (e.g. `repro-quick`).
    /// Checkpoints restore only across runs with the same context, so a
    /// quick-scale journal can never poison a full-scale resume.
    pub context: String,
    /// Per-experiment deadline; `None` waits forever.
    pub timeout: Option<Duration>,
    /// Fail-fast and exit nonzero on any non-completed experiment.
    pub strict: bool,
    /// Journal to append checkpoint records to.
    pub journal: Option<PathBuf>,
    /// Journal to replay completed checkpoints from (implies appending
    /// new records there too, unless `journal` says otherwise).
    pub resume: Option<PathBuf>,
    /// Synthetic faults for the robustness suites.
    pub fault_plan: FaultPlan,
}

/// A unit's successful result.
#[derive(Clone, Debug)]
pub struct UnitOutput {
    /// Report fragment stored in the checkpoint and final report.
    pub data: Json,
    /// Human-readable output, printed live and on restore.
    pub text: String,
}

type UnitFn = Box<dyn FnOnce() -> Result<UnitOutput, String> + Send + 'static>;

/// One supervised experiment: an id plus the closure that computes it.
pub struct Unit {
    /// Experiment id (journal checkpoint key).
    pub id: String,
    run: UnitFn,
}

impl Unit {
    /// Wrap a closure as a supervised unit.
    pub fn new(
        id: &str,
        run: impl FnOnce() -> Result<UnitOutput, String> + Send + 'static,
    ) -> Self {
        Self { id: id.to_string(), run: Box::new(run) }
    }
}

/// Everything a supervised run produced.
#[derive(Debug, Default)]
pub struct RunSummary {
    /// Outcome per unit, in scheduling order.
    pub outcomes: Vec<(String, ExperimentOutcome)>,
    /// Diagnostics from journal recovery (torn tails, context
    /// mismatches, unreadable journals).
    pub notes: Vec<String>,
}

impl RunSummary {
    /// Units that completed (fresh or restored).
    pub fn completed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, o)| matches!(o, ExperimentOutcome::Completed { .. }))
            .count()
    }

    /// Exit-code policy: success unless every experiment failed, or
    /// strict mode saw anything other than completions.
    pub fn succeeded(&self, strict: bool) -> bool {
        if strict {
            self.completed() == self.outcomes.len()
        } else {
            self.outcomes.is_empty() || self.completed() > 0
        }
    }

    /// The outcome table, one line per experiment.
    pub fn render_table(&self) -> String {
        let width =
            self.outcomes.iter().map(|(id, _)| id.len()).max().unwrap_or(10).max("experiment".len());
        let mut out = format!("{:width$}  outcome\n", "experiment");
        for (id, outcome) in &self.outcomes {
            out.push_str(&format!("{id:width$}  {}\n", outcome.describe()));
        }
        out
    }
}

/// Completed checkpoints restored from a resume journal.
fn load_checkpoints(
    config: &SupervisorConfig,
    notes: &mut Vec<String>,
) -> BTreeMap<String, ExperimentOutcome> {
    let Some(path) = &config.resume else {
        return BTreeMap::new();
    };
    let contents = match read_journal(path) {
        Ok(c) => c,
        Err(e) => {
            notes.push(format!("resume journal unusable ({e}); re-running everything"));
            return BTreeMap::new();
        }
    };
    if contents.torn_tail.is_some() {
        notes.push(
            "journal ends in a torn record (writer was killed mid-write); \
             that experiment will re-run"
                .to_string(),
        );
    }
    let mut checkpoints = BTreeMap::new();
    for record in &contents.records {
        if record.get("type").and_then(Json::as_str) == Some("run") {
            let ctx = record.get("context").and_then(Json::as_str).unwrap_or("");
            if ctx != config.context {
                notes.push(format!(
                    "journal context '{ctx}' does not match this run ('{}'); \
                     ignoring its checkpoints",
                    config.context
                ));
                return BTreeMap::new();
            }
            continue;
        }
        if record.get("type").and_then(Json::as_str) != Some("experiment") {
            continue;
        }
        if record.get("schema_version").and_then(Json::as_u64) != Some(SCHEMA_VERSION) {
            notes.push("journal record with foreign schema_version ignored".to_string());
            continue;
        }
        if let Some((id, outcome)) = ExperimentOutcome::from_json(record) {
            // Only completed checkpoints skip work; failures re-run. The
            // last record per id wins (later resumes overwrite).
            if let ExperimentOutcome::Completed { data, text, dur_ns, .. } = outcome {
                checkpoints.insert(
                    id,
                    ExperimentOutcome::Completed { data, text, dur_ns, restored: true },
                );
            } else {
                checkpoints.remove(&id);
            }
        }
    }
    checkpoints
}

/// Best-effort description of a panic payload.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked: (non-string payload)".to_string()
    }
}

/// Run one unit on a worker thread with the supervisor as watchdog.
fn run_unit(id: &str, run: UnitFn, timeout: Option<Duration>) -> ExperimentOutcome {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::Builder::new()
        .name(format!("experiment-{id}"))
        .spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(run));
            let _ = tx.send(result);
        });
    let worker = match worker {
        Ok(handle) => handle,
        Err(e) => return ExperimentOutcome::Failed { reason: format!("cannot spawn worker: {e}") },
    };
    let started = Instant::now();
    let received = match timeout {
        Some(limit) => match rx.recv_timeout(limit) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Deadline exceeded on the monotonic clock: record the
                // overrun and *detach* the worker — a hung thread cannot
                // be killed, but it no longer blocks the run. Its sends
                // go to a dropped receiver.
                drop(rx);
                drop(worker);
                return ExperimentOutcome::TimedOut { limit_secs: limit.as_secs() };
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let _ = worker.join();
                return ExperimentOutcome::Failed {
                    reason: "worker thread vanished without a result".to_string(),
                };
            }
        },
        None => match rx.recv() {
            Ok(result) => result,
            Err(_) => {
                let _ = worker.join();
                return ExperimentOutcome::Failed {
                    reason: "worker thread vanished without a result".to_string(),
                };
            }
        },
    };
    let dur_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let _ = worker.join();
    match received {
        Ok(Ok(output)) => ExperimentOutcome::Completed {
            data: output.data,
            text: output.text,
            dur_ns,
            restored: false,
        },
        Ok(Err(reason)) => ExperimentOutcome::Failed { reason },
        Err(payload) => ExperimentOutcome::Failed { reason: panic_reason(payload.as_ref()) },
    }
}

/// Run `units` in order under the supervisor. Per-unit progress (unit
/// text plus an outcome line) streams to `out` as each finishes; the
/// caller renders the final table from the returned summary. Journal
/// write failures degrade to notes — observability must never fail the
/// run — and `Err` is returned only when `out` itself cannot be written.
pub fn run_supervised(
    units: Vec<Unit>,
    config: &SupervisorConfig,
    out: &mut dyn Write,
) -> std::io::Result<RunSummary> {
    let mut summary = RunSummary::default();
    let checkpoints = load_checkpoints(config, &mut summary.notes);
    for note in &summary.notes {
        writeln!(out, "note: {note}")?;
    }

    let journal_path = config.journal.as_ref().or(config.resume.as_ref());
    let mut journal = match journal_path {
        None => None,
        Some(path) => match JournalWriter::append(path) {
            Ok(w) => Some(w),
            Err(e) => {
                let note = format!("cannot open journal {} ({e}); continuing without", path.display());
                writeln!(out, "note: {note}")?;
                summary.notes.push(note);
                None
            }
        },
    };
    if let Some(j) = &mut journal {
        let header = Json::obj()
            .field("type", "run")
            .field("schema_version", SCHEMA_VERSION)
            .field("context", config.context.as_str());
        if j.write(&header).is_err() {
            summary.notes.push("journal header write failed; journaling disabled".to_string());
            journal = None;
        }
    }

    let total = units.len();
    let mut halted: Option<String> = None;
    for (index, unit) in units.into_iter().enumerate() {
        let id = unit.id;
        let outcome = if let Some(reason) = &halted {
            ExperimentOutcome::Skipped { reason: reason.clone() }
        } else if let Some(restored) = checkpoints.get(&id) {
            restored.clone()
        } else {
            match config.fault_plan.take(&id) {
                Some(Fault::Kill) => {
                    // Simulate a process killed mid-checkpoint-write: a
                    // torn half-record, then immediate death. The CI
                    // resume smoke asserts `--resume` recovers from
                    // exactly this state.
                    let record = ExperimentOutcome::Completed {
                        data: Json::obj(),
                        text: String::new(),
                        dur_ns: 0,
                        restored: false,
                    }
                    .to_record(&id);
                    if let Some(j) = &mut journal {
                        let _ = j.write_torn(&record);
                    }
                    writeln!(out, "fault-injection: killing process mid-write at '{id}'")?;
                    out.flush()?;
                    // tidy: allow(error-policy) -- fault injection simulates a mid-run kill; real library code never exits
                    std::process::exit(124);
                }
                Some(Fault::Panic) => run_unit(
                    &id,
                    Box::new(move || panic!("fault-injection: forced panic")),
                    config.timeout,
                ),
                Some(Fault::Hang) => run_unit(
                    &id,
                    Box::new(|| {
                        std::thread::sleep(Duration::from_secs(3600));
                        Err("fault-injection hang woke up".to_string())
                    }),
                    config.timeout,
                ),
                None => run_unit(&id, unit.run, config.timeout),
            }
        };

        if let Some(j) = &mut journal {
            if j.write(&outcome.to_record(&id)).is_err() {
                summary.notes.push(format!("journal write for '{id}' failed"));
            }
        }
        if let ExperimentOutcome::Completed { text, .. } = &outcome {
            if !text.is_empty() {
                write!(out, "{text}")?;
                if !text.ends_with('\n') {
                    writeln!(out)?;
                }
            }
        }
        writeln!(out, "## [{}/{total}] {id}: {}", index + 1, outcome.describe())?;
        if config.strict
            && halted.is_none()
            && !matches!(outcome, ExperimentOutcome::Completed { .. })
        {
            halted = Some(format!("strict mode: '{id}' did not complete"));
        }
        summary.outcomes.push((id, outcome));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("cachegraph-bench-supervisor-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn ok_unit(id: &str, value: u64) -> Unit {
        let label = id.to_string();
        Unit::new(id, move || {
            Ok(UnitOutput {
                data: Json::obj().field("value", value),
                text: format!("{label} ran\n"),
            })
        })
    }

    fn run_to_string(
        units: Vec<Unit>,
        config: &SupervisorConfig,
    ) -> (RunSummary, String) {
        let mut out = Vec::new();
        let summary = run_supervised(units, config, &mut out).expect("run");
        (summary, String::from_utf8(out).expect("utf8"))
    }

    #[test]
    fn fault_plan_parses_and_rejects() {
        let plan = FaultPlan::parse("panic:fw,hang:dijkstra,kill:matching").expect("parse");
        assert_eq!(plan.take("fw"), Some(Fault::Panic));
        assert_eq!(plan.take("dijkstra"), Some(Fault::Hang));
        assert_eq!(plan.take("matching"), Some(Fault::Kill));
        assert_eq!(plan.take("other"), None);
        assert!(FaultPlan::parse("explode:fw").is_err());
        assert!(FaultPlan::parse("no-colon").is_err());
        assert!(FaultPlan::parse("").expect("empty spec").take("x").is_none());
    }

    #[test]
    fn outcome_record_round_trips() {
        let outcomes = [
            ExperimentOutcome::Completed {
                data: Json::obj().field("tables", Json::Arr(vec![])),
                text: "hello\n".to_string(),
                dur_ns: 123,
                restored: false,
            },
            ExperimentOutcome::Failed { reason: "panicked: boom".to_string() },
            ExperimentOutcome::TimedOut { limit_secs: 5 },
            ExperimentOutcome::Skipped { reason: "strict".to_string() },
        ];
        for outcome in outcomes {
            let record = outcome.to_record("exp1");
            assert_eq!(record.get("type").and_then(Json::as_str), Some("experiment"));
            assert_eq!(
                record.get("schema_version").and_then(Json::as_u64),
                Some(SCHEMA_VERSION)
            );
            // Through text, like a real journal line.
            let reparsed =
                cachegraph_obs::parse_json(&record.render()).expect("record parses");
            let (id, back) = ExperimentOutcome::from_json(&reparsed).expect("outcome");
            assert_eq!(id, "exp1");
            assert_eq!(back, outcome);
        }
    }

    #[test]
    fn panic_and_error_units_degrade_to_outcomes() {
        let units = vec![
            ok_unit("good", 1),
            Unit::new("boom", || panic!("synthetic {}", 42)),
            Unit::new("bad", || Err("not today".to_string())),
        ];
        let (summary, printed) = run_to_string(units, &SupervisorConfig::default());
        assert_eq!(summary.outcomes.len(), 3);
        assert!(matches!(summary.outcomes[0].1, ExperimentOutcome::Completed { .. }));
        match &summary.outcomes[1].1 {
            ExperimentOutcome::Failed { reason } => {
                assert!(reason.contains("synthetic 42"), "{reason}")
            }
            other => unreachable!("expected Failed, got {other:?}"),
        }
        assert!(matches!(&summary.outcomes[2].1, ExperimentOutcome::Failed { reason } if reason == "not today"));
        assert!(printed.contains("good ran"));
        assert!(summary.succeeded(false), "one completion keeps the run green");
        assert!(!summary.succeeded(true), "strict flags any failure");
    }

    #[test]
    fn watchdog_times_out_hung_unit() {
        let config = SupervisorConfig {
            timeout: Some(Duration::from_millis(50)),
            fault_plan: FaultPlan::parse("hang:stuck").expect("plan"),
            ..SupervisorConfig::default()
        };
        let (summary, printed) = run_to_string(vec![Unit::new("stuck", || unreachable!())], &config);
        assert!(matches!(
            summary.outcomes[0].1,
            ExperimentOutcome::TimedOut { limit_secs: 0 }
        ));
        assert!(printed.contains("timed out"), "{printed}");
        assert!(!summary.succeeded(false), "all experiments timed out");
    }

    #[test]
    fn journal_then_resume_skips_completed_units() {
        let path = tmp("resume.jsonl");
        std::fs::remove_file(&path).ok();
        let config = SupervisorConfig {
            context: "unit-test".to_string(),
            journal: Some(path.clone()),
            fault_plan: FaultPlan::parse("panic:b").expect("plan"),
            ..SupervisorConfig::default()
        };
        let (first, _) = run_to_string(vec![ok_unit("a", 1), Unit::new("b", || unreachable!()), ok_unit("c", 3)], &config);
        assert_eq!(first.completed(), 2);

        // Resume: a and c restore, b re-runs (and succeeds this time).
        let resume_config = SupervisorConfig {
            context: "unit-test".to_string(),
            resume: Some(path.clone()),
            ..SupervisorConfig::default()
        };
        let (second, printed) = run_to_string(
            vec![
                Unit::new("a", || Err("must not re-run".to_string())),
                ok_unit("b", 2),
                Unit::new("c", || Err("must not re-run".to_string())),
            ],
            &resume_config,
        );
        assert_eq!(second.completed(), 3, "{printed}");
        for (id, expect_restored) in [("a", true), ("b", false), ("c", true)] {
            let (_, outcome) =
                second.outcomes.iter().find(|(i, _)| i == id).expect("outcome present");
            match outcome {
                ExperimentOutcome::Completed { restored, .. } => {
                    assert_eq!(*restored, expect_restored, "experiment {id}")
                }
                other => unreachable!("{id}: expected Completed, got {other:?}"),
            }
        }
        assert!(printed.contains("restored from journal"), "{printed}");
    }

    #[test]
    fn torn_tail_reruns_only_the_torn_experiment() {
        let path = tmp("torn.jsonl");
        std::fs::remove_file(&path).ok();
        {
            let mut w = JournalWriter::create(&path).expect("create");
            let header = Json::obj()
                .field("type", "run")
                .field("schema_version", SCHEMA_VERSION)
                .field("context", "unit-test");
            w.write(&header).expect("header");
            let done = ExperimentOutcome::Completed {
                data: Json::obj().field("value", 1u64),
                text: String::new(),
                dur_ns: 7,
                restored: false,
            };
            w.write(&done.to_record("a")).expect("record");
            w.write_torn(&done.to_record("b")).expect("torn record");
        }
        let config = SupervisorConfig {
            context: "unit-test".to_string(),
            resume: Some(path),
            ..SupervisorConfig::default()
        };
        let (summary, printed) =
            run_to_string(vec![Unit::new("a", || Err("must not re-run".to_string())), ok_unit("b", 2)], &config);
        assert!(summary.notes.iter().any(|n| n.contains("torn")), "{:?}", summary.notes);
        assert!(printed.contains("torn"), "{printed}");
        assert!(matches!(
            summary.outcomes[0].1,
            ExperimentOutcome::Completed { restored: true, .. }
        ));
        assert!(matches!(
            summary.outcomes[1].1,
            ExperimentOutcome::Completed { restored: false, .. }
        ));
    }

    #[test]
    fn context_mismatch_ignores_checkpoints() {
        let path = tmp("context.jsonl");
        std::fs::remove_file(&path).ok();
        let quick = SupervisorConfig {
            context: "repro-quick".to_string(),
            journal: Some(path.clone()),
            ..SupervisorConfig::default()
        };
        run_to_string(vec![ok_unit("a", 1)], &quick);
        let full = SupervisorConfig {
            context: "repro-full".to_string(),
            resume: Some(path),
            ..SupervisorConfig::default()
        };
        let (summary, _) = run_to_string(vec![ok_unit("a", 10)], &full);
        assert!(summary.notes.iter().any(|n| n.contains("context")), "{:?}", summary.notes);
        assert!(matches!(
            summary.outcomes[0].1,
            ExperimentOutcome::Completed { restored: false, .. }
        ));
    }

    #[test]
    fn strict_mode_fail_fasts_with_skipped_outcomes() {
        let config = SupervisorConfig {
            strict: true,
            fault_plan: FaultPlan::parse("panic:b").expect("plan"),
            ..SupervisorConfig::default()
        };
        let (summary, _) = run_to_string(
            vec![ok_unit("a", 1), Unit::new("b", || unreachable!()), ok_unit("c", 3)],
            &config,
        );
        assert!(matches!(summary.outcomes[0].1, ExperimentOutcome::Completed { .. }));
        assert!(matches!(summary.outcomes[1].1, ExperimentOutcome::Failed { .. }));
        assert!(matches!(summary.outcomes[2].1, ExperimentOutcome::Skipped { .. }));
        assert!(!summary.succeeded(true));
    }

    #[test]
    fn unreadable_resume_journal_reruns_everything() {
        let path = tmp("garbage.jsonl");
        std::fs::write(&path, b"{\"a\": 1}\ntotal garbage\n{\"b\": 2}\n").expect("write");
        let config = SupervisorConfig {
            resume: Some(path.clone()),
            journal: Some(tmp("garbage-out.jsonl")),
            ..SupervisorConfig::default()
        };
        let (summary, _) = run_to_string(vec![ok_unit("a", 1)], &config);
        assert!(summary.notes.iter().any(|n| n.contains("re-running everything")));
        assert!(matches!(
            summary.outcomes[0].1,
            ExperimentOutcome::Completed { restored: false, .. }
        ));
    }

    #[test]
    fn render_table_lists_every_outcome() {
        let (summary, _) = run_to_string(
            vec![ok_unit("alpha", 1), Unit::new("beta", || Err("nope".to_string()))],
            &SupervisorConfig::default(),
        );
        let table = summary.render_table();
        assert!(table.contains("alpha") && table.contains("completed in"));
        assert!(table.contains("beta") && table.contains("failed: nope"));
    }
}
