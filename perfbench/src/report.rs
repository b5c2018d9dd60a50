//! Metric names and units, the operation tally, and the one-line JSON
//! result every run ends with.

use std::collections::BTreeMap;

use cachegraph_obs::Json;

/// End-to-end metrics, printed by every untraced run, in this order.
/// `tail_ms` is p99 on serve-point and p90 on serve-sssp and
/// apsp-batch: the highest percentile each workload's sample supports
/// with ten samples beyond it.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run, in this order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.admission_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.cache_ms", "ms"),
    ("serve.compute_ms", "ms"),
    ("serve.serialize_ms", "ms"),
    ("serve.write_ms", "ms"),
    ("serve.compute_p99_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.engine_build_ms", "ms"),
    ("sssp.dijkstra_to_ms", "ms"),
    ("sssp.dijkstra_to_p99_ms", "ms"),
    ("sssp.settled_per_query", "count"),
    ("sssp.delta_t1_ms", "ms"),
    ("sssp.delta_t2_ms", "ms"),
    ("sssp.landmarks_ms", "ms"),
    ("plan.dispatch_us", "us"),
    ("graph.generate_ms", "ms"),
    ("graph.csr_build_ms", "ms"),
    ("graph.bipartite_ms", "ms"),
    ("matching.partitioned_ms", "ms"),
    ("layout.morton_in_ms", "ms"),
    ("layout.morton_out_ms", "ms"),
    ("fw.recursive_ms", "ms"),
    ("fw.gupdates_per_s", "Gupdates/s"),
    ("sim.fw_recursive.l1_miss_per_access", "count"),
    ("sim.fw_recursive.l2_miss_per_access", "count"),
    ("sim.fw_recursive.tlb_miss_per_access", "count"),
    ("sim.dijkstra.l1_miss_per_access", "count"),
    ("sim.dijkstra.l2_miss_per_access", "count"),
    ("sim.dijkstra.tlb_miss_per_access", "count"),
    ("obs.trace_overhead", "ratio"),
    ("host.steal_share", "ratio"),
    ("host.tcp_time_wait", "sockets"),
];

/// Attempted and failed operations, and the latency of each OK one.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations sent or started.
    pub attempted: u64,
    /// Operations that did not end OK.
    pub failed: u64,
    /// OK answers an oracle later found wrong.
    pub wrong: u64,
    /// Latency of every OK operation, in milliseconds.
    pub ok_ms: Vec<f64>,
}

impl Tally {
    /// One operation that ended OK after `ms`.
    pub fn ok(&mut self, ms: f64) {
        self.attempted += 1;
        self.ok_ms.push(ms);
    }

    /// One operation that did not end OK.
    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// One untimed operation whose output an oracle checked.
    pub fn checked(&mut self, ok: bool) {
        self.attempted += 1;
        self.wrong += u64::from(!ok);
    }

    /// Add another tally's operations.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.ok_ms.extend(other.ok_ms);
    }
}

/// A finished run: correctness, operation counts, and its metrics.
#[derive(Debug, Default)]
pub struct RunReport {
    /// False when any output check failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, wrong answers included.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl RunReport {
    /// A report for `tally`: correct unless an answer was wrong.
    pub fn from_tally(tally: &Tally) -> Self {
        Self {
            correct: tally.wrong == 0,
            attempted: tally.attempted,
            failed: tally.failed + tally.wrong,
            metrics: BTreeMap::new(),
        }
    }

    /// Set metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: exactly the metrics of `expected`, in order.
    /// A missing, extra or non-finite metric is a bug in this program.
    pub fn to_json(&self, expected: &[(&str, &str)]) -> Result<Json, String> {
        let mut metrics = Json::obj();
        for &(name, unit) in expected {
            let value = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            metrics = metrics.field(name, Json::obj().field("value", value).field("unit", unit));
        }
        if let Some(extra) = self
            .metrics
            .keys()
            .find(|k| !expected.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {extra} is not in this run's metric list"));
        }
        Ok(Json::obj()
            .field("correct", self.correct)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics))
    }

    /// Print one line per metric, the operation counts, and then the
    /// JSON result as the last line of standard output.
    pub fn print(&self, label: &str, expected: &[(&str, &str)]) -> Result<(), String> {
        let json = self.to_json(expected)?;
        for &(name, unit) in expected {
            println!("{label:<12} {name:<40} {:>14.4} {unit}", self.metrics[name]);
        }
        println!(
            "{label:<12} attempted {} failed {} correct {}",
            self.attempted, self.failed, self.correct
        );
        println!("{}", json.render());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_name(name), "bad metric name {name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let doc = cachegraph_obs::parse_json(&text).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = crate::Workload::BENCHMARKED
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours, "workloads differ from BENCHMARK.json");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn result_line_has_exactly_the_listed_metrics() {
        let mut r = RunReport {
            correct: true,
            attempted: 3,
            ..RunReport::default()
        };
        for &(name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let json = r.to_json(END_TO_END).expect("complete");
        let keys: Vec<&str> = json
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys.len(), END_TO_END.len());
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(3));
        r.metrics.remove("p50_ms");
        assert!(r.to_json(END_TO_END).is_err());
        r.set("p50_ms", 1.0);
        r.set("serve.queue_ms", 1.0);
        assert!(r.to_json(END_TO_END).is_err());
    }
}
