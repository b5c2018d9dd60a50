//! JSON serialization of simulation statistics for run reports.
//!
//! Converts [`HierarchyStats`] (levels, TLB, three-Cs classification,
//! memory traffic) to and from the `cache_sims` section of a
//! `cachegraph-obs` report document, and [`CacheProfile`]s (span-scoped
//! attribution plus miss-rate timelines) to and from the `profiles`
//! section introduced with schema v3. The JSON layout is part of the
//! versioned report schema (see EXPERIMENTS.md); [`stats_from_json`]
//! and [`profile_from_json`] are the inverses of [`stats_to_json`] and
//! [`profile_to_json`], which the schema round-trip test in
//! `tests/report_roundtrip.rs` guards field-for-field.

use cachegraph_obs::Json;

use crate::classify::MissClasses;
use crate::hierarchy::{HierarchyStats, LevelStats};
use crate::profile::{CacheProfile, SpanCacheStats, TimelineSample};
use crate::tlb::TlbStats;

/// Serialize `stats` as one `cache_sims` section, tagged with a run
/// `label` (e.g. `fw.tiled`) and the `machine` profile name.
pub fn stats_to_json(label: &str, machine: &str, stats: &HierarchyStats) -> Json {
    merge_fields(
        Json::obj().field("label", label).field("machine", machine),
        stats_body(stats),
    )
}

/// The label-free body shared by `cache_sims` sections and per-span
/// profile stats: `levels` / `tlb` / `l1_classes` /
/// `memory_lines_fetched`.
fn stats_body(stats: &HierarchyStats) -> Json {
    let levels = Json::Arr(stats.levels.iter().map(level_to_json).collect());
    let tlb = stats.tlb.as_ref().map_or(Json::Null, |t| {
        Json::obj().field("accesses", t.accesses).field("misses", t.misses)
    });
    let l1_classes = stats.l1_classes.as_ref().map_or(Json::Null, |c| {
        Json::obj()
            .field("compulsory", c.compulsory)
            .field("capacity", c.capacity)
            .field("conflict", c.conflict)
    });
    Json::obj()
        .field("levels", levels)
        .field("tlb", tlb)
        .field("l1_classes", l1_classes)
        .field("memory_lines_fetched", stats.memory_lines_fetched)
}

/// Append `extra`'s fields onto `base` (both must be objects).
fn merge_fields(base: Json, extra: Json) -> Json {
    let mut out = base;
    if let (Json::Obj(fields), Json::Obj(extra_fields)) = (&mut out, extra) {
        fields.extend(extra_fields);
    }
    out
}

fn level_to_json(level: &LevelStats) -> Json {
    Json::obj()
        .field("level", level.level as u64 + 1)
        .field("accesses", level.accesses)
        .field("hits", level.hits)
        .field("misses", level.misses)
        .field("writebacks", level.writebacks)
        .field("prefetches", level.prefetches)
        .field("miss_rate", level.miss_rate)
}

/// Parse a `cache_sims` section back into `(label, machine, stats)`.
/// Returns `None` when any required field is missing or ill-typed.
pub fn stats_from_json(json: &Json) -> Option<(String, String, HierarchyStats)> {
    let label = json.get("label")?.as_str()?.to_string();
    let machine = json.get("machine")?.as_str()?.to_string();
    Some((label, machine, stats_body_from_json(json)?))
}

fn stats_body_from_json(json: &Json) -> Option<HierarchyStats> {
    let levels = json
        .get("levels")?
        .as_arr()?
        .iter()
        .map(level_from_json)
        .collect::<Option<Vec<_>>>()?;
    let tlb = match json.get("tlb") {
        None | Some(Json::Null) => None,
        Some(t) => Some(TlbStats {
            accesses: t.get("accesses")?.as_u64()?,
            misses: t.get("misses")?.as_u64()?,
        }),
    };
    let l1_classes = match json.get("l1_classes") {
        None | Some(Json::Null) => None,
        Some(c) => Some(MissClasses {
            compulsory: c.get("compulsory")?.as_u64()?,
            capacity: c.get("capacity")?.as_u64()?,
            conflict: c.get("conflict")?.as_u64()?,
        }),
    };
    let memory_lines_fetched = json.get("memory_lines_fetched")?.as_u64()?;
    Some(HierarchyStats { levels, tlb, memory_lines_fetched, l1_classes })
}

fn level_from_json(json: &Json) -> Option<LevelStats> {
    let level_1based = json.get("level")?.as_u64()?;
    Some(LevelStats {
        level: usize::try_from(level_1based.checked_sub(1)?).ok()?,
        accesses: json.get("accesses")?.as_u64()?,
        hits: json.get("hits")?.as_u64()?,
        misses: json.get("misses")?.as_u64()?,
        writebacks: json.get("writebacks")?.as_u64()?,
        prefetches: json.get("prefetches")?.as_u64()?,
        miss_rate: json.get("miss_rate")?.as_f64()?,
    })
}

/// Serialize a [`CacheProfile`] as one `profiles` section (schema v4):
/// `label` / `machine` / `interval`, the attribution mode fields
/// `sample_period` / `exact` (new in v4; always 1 / `true`, because
/// attribution is exact), a `spans` array of
/// `{path, self, total}` objects (each stats body shaped like a
/// `cache_sims` section, minus the label), and a `timeline` array of
/// delta-encoded `{seq, accesses, l1_misses}` samples.
pub fn profile_to_json(profile: &CacheProfile) -> Json {
    let spans = Json::Arr(
        profile
            .spans
            .iter()
            .map(|s| {
                Json::obj()
                    .field("path", s.path.as_str())
                    .field("self", stats_body(&s.self_stats))
                    .field("total", stats_body(&s.total_stats))
            })
            .collect(),
    );
    let timeline = Json::Arr(
        profile
            .timeline
            .iter()
            .map(|t| {
                Json::obj()
                    .field("seq", t.seq)
                    .field("accesses", t.accesses)
                    .field("l1_misses", t.l1_misses)
            })
            .collect(),
    );
    Json::obj()
        .field("label", profile.label.as_str())
        .field("machine", profile.machine.as_str())
        .field("interval", profile.interval)
        .field("sample_period", 1_u64)
        .field("exact", true)
        .field("spans", spans)
        .field("timeline", timeline)
}

/// Parse a `profiles` section back into a [`CacheProfile`]. Returns
/// `None` when any required field is missing or ill-typed, and for a
/// sampled profile (`exact: false` or a `sample_period` other than 1,
/// written by older builds), whose counters are scaled estimates. v3
/// profiles lack both fields and load as the exact profiles they are.
pub fn profile_from_json(json: &Json) -> Option<CacheProfile> {
    let label = json.get("label")?.as_str()?.to_string();
    let machine = json.get("machine")?.as_str()?.to_string();
    let interval = json.get("interval")?.as_u64()?;
    let exact = json.get("exact").is_none_or(|e| *e == Json::Bool(true))
        && json.get("sample_period").is_none_or(|p| p.as_u64() == Some(1));
    if !exact {
        return None;
    }
    let spans = json
        .get("spans")?
        .as_arr()?
        .iter()
        .map(|s| {
            Some(SpanCacheStats {
                path: s.get("path")?.as_str()?.to_string(),
                self_stats: stats_body_from_json(s.get("self")?)?,
                total_stats: stats_body_from_json(s.get("total")?)?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let timeline = json
        .get("timeline")?
        .as_arr()?
        .iter()
        .map(|t| {
            Some(TimelineSample {
                seq: t.get("seq")?.as_u64()?,
                accesses: t.get("accesses")?.as_u64()?,
                l1_misses: t.get("l1_misses")?.as_u64()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(CacheProfile { label, machine, interval, spans, timeline })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> HierarchyStats {
        HierarchyStats {
            levels: vec![
                LevelStats {
                    level: 0,
                    accesses: 10_000,
                    hits: 9_000,
                    misses: 1_000,
                    writebacks: 120,
                    prefetches: 0,
                    miss_rate: 0.1,
                },
                LevelStats {
                    level: 1,
                    accesses: 1_000,
                    hits: 900,
                    misses: 100,
                    writebacks: 10,
                    prefetches: 0,
                    miss_rate: 0.1,
                },
            ],
            tlb: Some(TlbStats { accesses: 10_000, misses: 42 }),
            memory_lines_fetched: 100,
            l1_classes: Some(MissClasses { compulsory: 600, capacity: 300, conflict: 100 }),
        }
    }

    fn sample_profile() -> CacheProfile {
        let leaf = HierarchyStats {
            levels: vec![LevelStats {
                level: 0,
                accesses: 4_000,
                hits: 3_600,
                misses: 400,
                writebacks: 50,
                prefetches: 0,
                miss_rate: 0.1,
            }],
            tlb: None,
            memory_lines_fetched: 40,
            l1_classes: None,
        };
        CacheProfile {
            label: "fw.tiled.bdl".to_string(),
            machine: "simplescalar".to_string(),
            interval: 4_096,
            spans: vec![
                SpanCacheStats {
                    path: "fw.tiled.bdl".to_string(),
                    self_stats: sample_stats(),
                    total_stats: sample_stats(),
                },
                SpanCacheStats {
                    path: "fw.tiled.bdl/tile[0]".to_string(),
                    self_stats: leaf.clone(),
                    total_stats: leaf,
                },
            ],
            timeline: vec![
                TimelineSample { seq: 0, accesses: 4_096, l1_misses: 512 },
                TimelineSample { seq: 1, accesses: 1_904, l1_misses: 93 },
            ],
        }
    }

    #[test]
    fn stats_round_trip_field_for_field() {
        let stats = sample_stats();
        let json = stats_to_json("fw.tiled", "simplescalar", &stats);
        let text = json.render();
        let reparsed = cachegraph_obs::parse_json(&text).expect("valid JSON");
        let (label, machine, back) = stats_from_json(&reparsed).expect("parses back");
        assert_eq!(label, "fw.tiled");
        assert_eq!(machine, "simplescalar");
        assert_eq!(back, stats);
    }

    #[test]
    fn absent_tlb_and_classes_round_trip_as_null() {
        let stats = HierarchyStats {
            tlb: None,
            l1_classes: None,
            ..sample_stats()
        };
        let json = stats_to_json("dijkstra.list", "alpha", &stats);
        assert_eq!(json.get("tlb"), Some(&Json::Null));
        assert_eq!(json.get("l1_classes"), Some(&Json::Null));
        let (_, _, back) = stats_from_json(&json).expect("parses back");
        assert_eq!(back, stats);
    }

    #[test]
    fn levels_are_one_based_in_json() {
        let json = stats_to_json("x", "m", &sample_stats());
        let levels = json.get("levels").and_then(Json::as_arr).expect("levels");
        assert_eq!(levels[0].get("level").and_then(Json::as_u64), Some(1));
        assert_eq!(levels[1].get("level").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn malformed_sections_are_rejected() {
        assert!(stats_from_json(&Json::obj().field("label", "x")).is_none());
        let missing_misses = Json::obj()
            .field("label", "x")
            .field("machine", "m")
            .field("levels", Json::Arr(vec![Json::obj().field("level", 1_u64)]))
            .field("memory_lines_fetched", 0_u64);
        assert!(stats_from_json(&missing_misses).is_none());
    }

    #[test]
    fn profile_round_trips_field_for_field() {
        let profile = sample_profile();
        let json = profile_to_json(&profile);
        let text = json.render();
        let reparsed = cachegraph_obs::parse_json(&text).expect("valid JSON");
        assert_eq!(profile_from_json(&reparsed), Some(profile));
    }

    #[test]
    fn profile_span_bodies_share_the_cache_sims_layout() {
        let json = profile_to_json(&sample_profile());
        let span = json.get("spans").and_then(Json::as_arr).expect("spans")[0].clone();
        let body = span.get("self").expect("self stats");
        // Same field names as a cache_sims section, so the compare
        // engine's level walker works on both.
        let levels = body.get("levels").and_then(Json::as_arr).expect("levels");
        assert_eq!(levels[0].get("level").and_then(Json::as_u64), Some(1));
        assert!(body.get("memory_lines_fetched").is_some());
        assert!(body.get("tlb").is_some());
    }

    #[test]
    fn v3_profiles_without_sampling_fields_load_as_exact() {
        // A v3 profile (written before the sampling fields existed)
        // must parse with the exact-mode defaults: period 1, exact.
        let profile = sample_profile();
        let v4 = profile_to_json(&profile);
        let v3 = match v4 {
            Json::Obj(fields) => Json::Obj(
                fields
                    .into_iter()
                    .filter(|(k, _)| k != "sample_period" && k != "exact")
                    .collect(),
            ),
            other => other,
        };
        assert!(v3.get("sample_period").is_none());
        assert_eq!(profile_from_json(&v3), Some(profile));
    }

    #[test]
    fn sampled_profiles_are_refused() {
        // Older builds wrote sampled profiles, whose counters are scaled
        // estimates; they must not load as exact ones.
        for (key, value) in [("exact", Json::Bool(false)), ("sample_period", Json::UInt(64))] {
            let Json::Obj(mut fields) = profile_to_json(&sample_profile()) else {
                panic!("a profile section is an object");
            };
            for (k, v) in &mut fields {
                if k == key {
                    *v = value.clone();
                }
            }
            assert!(profile_from_json(&Json::Obj(fields)).is_none(), "{key}");
        }
    }

    #[test]
    fn malformed_profiles_are_rejected() {
        assert!(profile_from_json(&Json::obj().field("label", "x")).is_none());
        let bad_span = Json::obj()
            .field("label", "x")
            .field("machine", "m")
            .field("interval", 0_u64)
            .field("spans", Json::Arr(vec![Json::obj().field("path", "p")]))
            .field("timeline", Json::Arr(Vec::new()));
        assert!(profile_from_json(&bad_span).is_none());
    }
}
