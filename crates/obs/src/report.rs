//! End-of-run reports with a stable, versioned schema.
//!
//! A [`Report`] is the machine-readable artifact of one run: the tool
//! name, a report name, a [`Snapshot`] of the metrics registry
//! (counters, gauges, histograms, finished spans), any number of
//! cache-simulation sections (built by `cachegraph-cache-sim`'s report
//! module), and any number of experiment sections (built by
//! `cachegraph-bench`). The full schema is documented in
//! EXPERIMENTS.md; [`SCHEMA_VERSION`] is bumped on any breaking change
//! so downstream diff tooling can refuse mixed versions.

use std::io::Write;
use std::path::Path;

use crate::json::{self, Json, JsonError};
use crate::registry::Snapshot;

/// Version of the report document layout. Bump on breaking changes.
///
/// * v1 — initial schema: `metrics` / `cache_sims` / `experiments`
///   (experiment sections were bare `{id, tables, dur_ns}` objects).
/// * v2 — supervised runs: every experiment section carries an
///   `outcome` field (`completed` / `failed` / `timed_out` / `skipped`)
///   with outcome-specific fields (`reason`, `limit_secs`, `restored`)
///   and its payload under `data`; the same objects double as journal
///   checkpoint records (see `cachegraph-bench`'s supervisor).
/// * v3 — cache attribution: a top-level `profiles` array of
///   span-scoped cache profiles (one object per profiled simulation,
///   built by `cachegraph-cache-sim`'s report module: per-span self and
///   subtree-total hierarchy stats plus a delta-encoded miss-rate
///   timeline).
/// * v4 — attribution mode: every profile object carries a
///   `sample_period` (accesses per recorded attribution event) and an
///   `exact` flag. Builds that sampled wrote `exact: false` profiles
///   with scaled-up estimates; attribution is now always exact, so
///   profiles are written with 1 / `true` and a sampled profile is
///   refused on load. v3 documents load fine (the fields default to
///   exact), so [`MIN_SCHEMA_VERSION`] stays at 3.
/// * v5 — request traces: a top-level `traces` array of wide-event
///   request traces (one object per flight-recorder entry, built by
///   [`crate::trace`]: trace id, op, outcome, per-segment durations
///   whose sum is the wall latency, and free-form tags). v3/v4
///   documents load fine (the section defaults to empty), so
///   [`MIN_SCHEMA_VERSION`] stays at 3.
pub const SCHEMA_VERSION: u64 = 5;

/// Oldest schema version this build still reads. v3 profiles lack the
/// attribution mode fields, which default to `sample_period = 1` /
/// `exact` on load; everything else is layout-identical.
pub const MIN_SCHEMA_VERSION: u64 = 3;

/// Name stamped into every report's `tool` field.
pub const TOOL_NAME: &str = "cachegraph";

/// A run report under construction (or re-loaded from disk).
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Report name, e.g. `repro-quick` or `fw_layouts`.
    pub name: String,
    /// Registry snapshot serialized into the `metrics` section.
    pub metrics: Option<Json>,
    /// Cache-simulation sections (one JSON object per simulated run).
    pub cache_sims: Vec<Json>,
    /// Experiment sections (one JSON object per bench table).
    pub experiments: Vec<Json>,
    /// Span-scoped cache profile sections (one JSON object per profiled
    /// simulation; schema v3).
    pub profiles: Vec<Json>,
    /// Request-trace sections (one JSON object per flight-recorder
    /// trace; schema v5).
    pub traces: Vec<Json>,
}

impl Report {
    /// Start an empty report named `name`.
    pub fn new(name: &str) -> Self {
        Self { name: name.to_string(), ..Self::default() }
    }

    /// Attach the registry snapshot as the `metrics` section.
    pub fn set_metrics(&mut self, snapshot: &Snapshot) {
        self.metrics = Some(snapshot.to_json());
    }

    /// Append one cache-simulation section.
    pub fn push_cache_sim(&mut self, sim: Json) {
        self.cache_sims.push(sim);
    }

    /// Append one experiment section.
    pub fn push_experiment(&mut self, experiment: Json) {
        self.experiments.push(experiment);
    }

    /// Append one span-scoped cache profile section.
    pub fn push_profile(&mut self, profile: Json) {
        self.profiles.push(profile);
    }

    /// Append one request-trace section.
    pub fn push_trace(&mut self, trace: Json) {
        self.traces.push(trace);
    }

    /// The complete, schema-versioned document.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("schema_version", SCHEMA_VERSION)
            .field("tool", TOOL_NAME)
            .field("report", self.name.as_str())
            .field("metrics", self.metrics.clone().unwrap_or_else(|| Json::Obj(Vec::new())))
            .field("cache_sims", Json::Arr(self.cache_sims.clone()))
            .field("experiments", Json::Arr(self.experiments.clone()))
            .field("profiles", Json::Arr(self.profiles.clone()))
            .field("traces", Json::Arr(self.traces.clone()))
    }

    /// Render the document as pretty-stable single-line JSON text.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Write the document to `path` (with a trailing newline).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        writeln!(file, "{}", self.render())
    }

    /// Parse a report document back from JSON text, checking the
    /// schema version.
    pub fn load_str(text: &str) -> Result<Self, ReportError> {
        let json = json::parse(text).map_err(ReportError::Json)?;
        Self::from_json(&json)
    }

    /// Read and parse a report document from `path`.
    pub fn load(path: &Path) -> Result<Self, ReportError> {
        let text = std::fs::read_to_string(path).map_err(ReportError::Io)?;
        Self::load_str(&text)
    }

    /// Reconstruct a report from its [`to_json`](Self::to_json) form.
    pub fn from_json(json: &Json) -> Result<Self, ReportError> {
        let version = json.get("schema_version").and_then(Json::as_u64);
        match version {
            Some(v) if (MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&v) => {}
            _ => return Err(ReportError::SchemaVersion { found: version, want: SCHEMA_VERSION }),
        }
        let name = json
            .get("report")
            .and_then(Json::as_str)
            .ok_or(ReportError::MissingField("report"))?
            .to_string();
        let metrics = json.get("metrics").cloned();
        let cache_sims = match json.get("cache_sims") {
            Some(Json::Arr(items)) => items.clone(),
            _ => Vec::new(),
        };
        let experiments = match json.get("experiments") {
            Some(Json::Arr(items)) => items.clone(),
            _ => Vec::new(),
        };
        let profiles = match json.get("profiles") {
            Some(Json::Arr(items)) => items.clone(),
            _ => Vec::new(),
        };
        let traces = match json.get("traces") {
            Some(Json::Arr(items)) => items.clone(),
            _ => Vec::new(),
        };
        Ok(Self { name, metrics, cache_sims, experiments, profiles, traces })
    }
}

/// Why a report document could not be loaded.
#[derive(Debug)]
pub enum ReportError {
    /// Underlying file read failed.
    Io(std::io::Error),
    /// The text was not valid JSON.
    Json(JsonError),
    /// The document's `schema_version` is missing or unsupported.
    SchemaVersion {
        /// Version found in the document, if any.
        found: Option<u64>,
        /// Version this build understands.
        want: u64,
    },
    /// A required field was absent.
    MissingField(&'static str),
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "cannot read report: {e}"),
            Self::Json(e) => write!(f, "invalid report JSON: {e}"),
            Self::SchemaVersion { found: Some(v), want } => {
                write!(f, "unsupported report schema_version {v} (this build reads {want})")
            }
            Self::SchemaVersion { found: None, want } => {
                write!(f, "report is missing schema_version (this build reads {want})")
            }
            Self::MissingField(name) => write!(f, "report is missing field `{name}`"),
        }
    }
}

impl std::error::Error for ReportError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn report_round_trips_through_text() {
        let reg = Registry::new();
        reg.counter("fw.kernel_calls").add(64);
        {
            let _span = reg.span("fw.tiled");
        }
        let mut report = Report::new("unit-test");
        report.set_metrics(&reg.snapshot());
        report.push_cache_sim(Json::obj().field("label", "fw.tiled").field("machine", "ss"));
        report.push_experiment(Json::obj().field("id", "fw_layouts"));
        report.push_profile(
            Json::obj().field("label", "fw.tiled").field("spans", Json::Arr(Vec::new())),
        );

        let text = report.render();
        let loaded = Report::load_str(&text).expect("report loads");
        assert_eq!(loaded.name, "unit-test");
        assert_eq!(loaded.to_json(), report.to_json());
    }

    #[test]
    fn missing_profiles_section_parses_as_empty() {
        let text = format!(
            r#"{{"schema_version": {SCHEMA_VERSION}, "tool": "cachegraph", "report": "x"}}"#
        );
        let loaded = Report::load_str(&text).expect("report loads");
        assert!(loaded.profiles.is_empty());
        // Re-rendering always emits the section.
        assert!(loaded.render().contains("\"profiles\":[]"));
    }

    #[test]
    fn missing_traces_section_parses_as_empty() {
        // A v4 document (no `traces` section) loads with empty traces.
        let text = r#"{"schema_version": 4, "tool": "cachegraph", "report": "pr8"}"#;
        let loaded = Report::load_str(text).expect("v4 report loads");
        assert!(loaded.traces.is_empty());
        assert!(loaded.render().contains("\"traces\":[]"));
    }

    #[test]
    fn traces_section_round_trips() {
        let mut report = Report::new("traced");
        report.push_trace(Json::obj().field("trace_id", "00000000000000ff").field("wall_ns", 9u64));
        let loaded = Report::load_str(&report.render()).expect("loads");
        assert_eq!(loaded.traces.len(), 1);
        assert_eq!(loaded.to_json(), report.to_json());
    }

    #[test]
    fn previous_schema_version_still_loads() {
        let text = format!(
            r#"{{"schema_version": {MIN_SCHEMA_VERSION}, "tool": "cachegraph", "report": "old"}}"#
        );
        let loaded = Report::load_str(&text).expect("v3 report loads");
        assert_eq!(loaded.name, "old");
        // Re-rendering upgrades the document to the current version.
        assert!(loaded.render().contains(&format!("\"schema_version\":{SCHEMA_VERSION}")));
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let text = r#"{"schema_version": 999, "tool": "cachegraph", "report": "x"}"#;
        match Report::load_str(text) {
            Err(ReportError::SchemaVersion { found: Some(999), want }) => {
                assert_eq!(want, SCHEMA_VERSION);
            }
            other => unreachable!("expected schema version error, got {other:?}"),
        }
    }

    #[test]
    fn missing_version_is_rejected() {
        assert!(matches!(
            Report::load_str(r#"{"report": "x"}"#),
            Err(ReportError::SchemaVersion { found: None, .. })
        ));
    }

    #[test]
    fn save_and_load_file() {
        let dir = std::env::temp_dir().join("cachegraph-obs-report-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("report.json");
        let mut report = Report::new("file-test");
        report.set_metrics(&Registry::new().snapshot());
        report.save(&path).expect("save");
        let loaded = Report::load(&path).expect("load");
        assert_eq!(loaded.name, "file-test");
        std::fs::remove_file(&path).ok();
    }
}
