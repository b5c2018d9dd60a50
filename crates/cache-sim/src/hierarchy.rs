//! The multi-level hierarchy: chains cache levels, propagating misses,
//! write-backs, and prefetch requests outward.

use std::collections::HashSet;

use cachegraph_obs::Registry;

use crate::cache::{AccessKind, SetAssocCache};
use crate::classify::{MissClass, MissClasses};
use crate::config::{CacheConfig, HierarchyConfig};
use crate::profile::{
    CacheEvent, CacheProfile, CacheProfiler, IntervalSampler, ProfilerOptions, ScopeHandle,
};
use crate::tlb::{Tlb, TlbStats};
use crate::tracefile::TraceRecorder;

/// Per-level snapshot of hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LevelStats {
    /// Level label index (0 = L1).
    pub level: usize,
    /// Demand accesses at this level.
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Write-backs issued from this level.
    pub writebacks: u64,
    /// Lines prefetched into this level.
    pub prefetches: u64,
    /// Miss rate in `[0, 1]`.
    pub miss_rate: f64,
}

/// Snapshot of the whole hierarchy's counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HierarchyStats {
    /// One entry per cache level, L1 first.
    pub levels: Vec<LevelStats>,
    /// TLB counters, if a TLB is configured.
    pub tlb: Option<TlbStats>,
    /// Lines fetched from memory (misses at the outermost level), a proxy
    /// for the paper's "processor-memory traffic" (§3, in units of lines).
    pub memory_lines_fetched: u64,
    /// Three-Cs classification of L1 demand misses, when the hierarchy
    /// was built with [`MemoryHierarchy::new_classifying`].
    pub l1_classes: Option<MissClasses>,
}

impl HierarchyStats {
    /// Add `other`'s counters into `self` field by field, recomputing
    /// miss rates over the sums. Levels/TLB/classes present in either
    /// operand are present in the result — the reduction used to merge
    /// per-thread stats at join.
    pub fn merge_from(&mut self, other: &HierarchyStats) {
        if self.levels.len() < other.levels.len() {
            self.levels.extend(other.levels[self.levels.len()..].iter().map(|l| LevelStats {
                level: l.level,
                ..LevelStats::default()
            }));
        }
        for (a, b) in self.levels.iter_mut().zip(&other.levels) {
            a.accesses += b.accesses;
            a.hits += b.hits;
            a.misses += b.misses;
            a.writebacks += b.writebacks;
            a.prefetches += b.prefetches;
            a.miss_rate =
                if a.accesses == 0 { 0.0 } else { a.misses as f64 / a.accesses as f64 };
        }
        match (&mut self.tlb, &other.tlb) {
            (Some(a), Some(b)) => {
                a.accesses += b.accesses;
                a.misses += b.misses;
            }
            (None, Some(b)) => self.tlb = Some(*b),
            _ => {}
        }
        self.memory_lines_fetched += other.memory_lines_fetched;
        match (&mut self.l1_classes, &other.l1_classes) {
            (Some(a), Some(b)) => {
                a.compulsory += b.compulsory;
                a.capacity += b.capacity;
                a.conflict += b.conflict;
            }
            (None, Some(b)) => self.l1_classes = Some(*b),
            _ => {}
        }
    }

    /// A zeroed copy with the same shape (level count, TLB/classes
    /// presence) — the identity element for [`merge_from`](Self::merge_from).
    pub fn zeroed_like(&self) -> HierarchyStats {
        HierarchyStats {
            levels: self
                .levels
                .iter()
                .map(|l| LevelStats { level: l.level, ..LevelStats::default() })
                .collect(),
            tlb: self.tlb.map(|_| TlbStats::default()),
            memory_lines_fetched: 0,
            l1_classes: self.l1_classes.map(|_| MissClasses::default()),
        }
    }
}

/// A chain of set-associative caches plus an optional TLB.
///
/// Every [`access`](MemoryHierarchy::access) is split into the lines it
/// touches; each line probes L1, and on a miss the request descends to the
/// next level. Write-backs from level *i* are writes at level *i+1*;
/// prefetch fills at level *i* are reads at level *i+1* when absent there.
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    levels: Vec<SetAssocCache>,
    tlb: Option<Tlb>,
    name: String,
    memory_lines_fetched: u64,
    classifier: Option<L1Classifier>,
    recorder: Option<TraceRecorder>,
    profiler: Option<CacheProfiler>,
}

/// Shadow state for classifying L1 misses into the three Cs.
#[derive(Clone, Debug)]
struct L1Classifier {
    /// Fully-associative LRU cache of L1's capacity.
    shadow: SetAssocCache,
    seen: HashSet<u64>,
    classes: MissClasses,
}

impl MemoryHierarchy {
    /// Build an empty hierarchy for `config`.
    pub fn new(config: HierarchyConfig) -> Self {
        config.validate();
        let levels = config.levels.iter().cloned().map(SetAssocCache::new).collect();
        let tlb = config.tlb.as_ref().map(Tlb::new);
        Self {
            levels,
            tlb,
            name: config.name,
            memory_lines_fetched: 0,
            classifier: None,
            recorder: None,
            profiler: None,
        }
    }

    /// Start capturing the demand-access stream into a compact trace
    /// (see [`crate::tracefile`]). Replaces any recording in progress.
    pub fn attach_recorder(&mut self) {
        self.recorder = Some(TraceRecorder::new());
    }

    /// Stop recording and return the captured trace, if any.
    pub fn take_trace(&mut self) -> Option<Vec<u8>> {
        self.recorder.take().map(TraceRecorder::finish)
    }

    /// Attach a span-scoped attribution profiler (see [`crate::profile`]).
    ///
    /// Every counter updated from here on is charged to the scope the
    /// returned [`ScopeHandle`] has entered (or `"(unattributed)"`).
    /// Replaces any profiler already attached. `label` names the run in
    /// the resulting [`CacheProfile`] (and should match the run's
    /// `cache_sims` report label).
    pub fn attach_profiler(&mut self, label: &str) -> ScopeHandle {
        self.attach_profiler_with(label, ProfilerOptions::exact(), &Registry::disabled())
    }

    /// Like [`attach_profiler`](Self::attach_profiler) under explicit
    /// [`ProfilerOptions`]: a nonzero `timeline_interval` additionally
    /// samples a miss-rate timeline, one delta-encoded `TimelineRecord`
    /// every `timeline_interval` L1 accesses, emitted through
    /// `registry`'s JSONL sink (if attached) and retained in the
    /// profile.
    pub fn attach_profiler_with(
        &mut self,
        label: &str,
        options: ProfilerOptions,
        registry: &Registry,
    ) -> ScopeHandle {
        let sampler = (options.timeline_interval > 0)
            .then(|| IntervalSampler::new(label, options.timeline_interval, registry.clone()));
        let profiler = CacheProfiler::new(
            label,
            self.levels.len(),
            self.tlb.is_some(),
            self.classifier.is_some(),
            sampler,
        );
        let handle = profiler.handle();
        self.profiler = Some(profiler);
        handle
    }

    /// Detach the profiler and freeze its profile, if one was attached.
    pub fn take_profile(&mut self) -> Option<CacheProfile> {
        let machine = self.name.clone();
        self.profiler.take().map(|p| p.finish(&machine))
    }

    /// Like [`new`](Self::new), additionally classifying every L1 demand
    /// miss as compulsory / capacity / conflict (see
    /// [`crate::classify`]). Costs an extra shadow-cache probe per access.
    pub fn new_classifying(config: HierarchyConfig) -> Self {
        let l1 = &config.levels[0];
        let shadow_cfg = CacheConfig::new(
            "shadow-FA",
            l1.size_bytes,
            l1.line_bytes,
            l1.size_bytes / l1.line_bytes,
        );
        let mut h = Self::new(config);
        h.classifier = Some(L1Classifier {
            shadow: SetAssocCache::new(shadow_cfg),
            seen: HashSet::new(),
            classes: MissClasses::default(),
        });
        h
    }

    /// Label of the configuration (e.g. `"SimpleScalar default"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cache levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Simulate one access of `size` bytes at `addr`. Accesses spanning a
    /// line boundary touch each line once (matching how hardware splits
    /// unaligned or multi-word accesses).
    pub fn access(&mut self, addr: u64, size: usize, kind: AccessKind) {
        debug_assert!(size > 0, "zero-sized access");
        if let Some(rec) = &mut self.recorder {
            rec.record(addr, size, kind);
        }
        if let Some(p) = &mut self.profiler {
            // The scope cannot change mid-access; one relaxed load here
            // covers every hook below.
            p.sync_scope();
        }
        if let Some(tlb) = &mut self.tlb {
            let hit = tlb.access(addr);
            if let Some(p) = &mut self.profiler {
                p.on_event(CacheEvent::Tlb { hit });
            }
            let page = tlb.page_bytes() as u64;
            let last = addr + size as u64 - 1;
            if last / page != addr / page {
                let hit = tlb.access(last);
                if let Some(p) = &mut self.profiler {
                    p.on_event(CacheEvent::Tlb { hit });
                }
            }
        }
        let line = self.levels[0].config().line_bytes as u64;
        let first_line = addr / line;
        let last_line = (addr + size as u64 - 1) / line;
        for l in first_line..=last_line {
            self.access_line(0, l * line, kind);
        }
    }

    /// Convenience wrappers.
    pub fn read(&mut self, addr: u64, size: usize) {
        self.access(addr, size, AccessKind::Read);
    }

    /// See [`access`](Self::access).
    pub fn write(&mut self, addr: u64, size: usize) {
        self.access(addr, size, AccessKind::Write);
    }

    /// Recursive descent: probe `level`; on miss (or for propagated traffic)
    /// continue outward. Past the last level is memory.
    fn access_line(&mut self, level: usize, addr: u64, kind: AccessKind) {
        if level >= self.levels.len() {
            self.memory_lines_fetched += 1;
            if let Some(p) = &mut self.profiler {
                p.on_event(CacheEvent::MemoryLine);
            }
            return;
        }
        let write_through =
            self.levels[level].config().write_policy == crate::config::WritePolicy::WriteThrough;
        let result = self.levels[level].access(addr, kind);
        if let Some(p) = &mut self.profiler {
            // One event per probe, carrying everything the probe moved —
            // `writeback_count` includes the absorbed write-back a
            // prefetch fill can trigger, which `result.writeback` alone
            // does not report.
            p.on_event(CacheEvent::Probe {
                level,
                hit: result.hit,
                victim_hit: result.victim_hit,
                writebacks: result.writeback_count(),
                prefetched: result.prefetch.is_some(),
            });
        }
        if level == 0 {
            if let Some(cl) = &mut self.classifier {
                let shadow_hit = cl.shadow.access(addr, kind).hit;
                if !result.hit {
                    let class = if cl.seen.insert(addr) {
                        MissClass::Compulsory
                    } else if !shadow_hit {
                        MissClass::Capacity
                    } else {
                        MissClass::Conflict
                    };
                    cl.classes.add(class);
                    if let Some(p) = &mut self.profiler {
                        p.on_event(CacheEvent::Class(class));
                    }
                }
            }
        }
        if let Some(wb) = result.writeback {
            self.access_line(level + 1, wb, AccessKind::Write);
        }
        if !result.hit {
            // The fill comes from the next level.
            self.access_line(level + 1, addr, AccessKind::Read);
        }
        if let Some(pf) = result.prefetch {
            self.access_line(level + 1, pf, AccessKind::Read);
        }
        if write_through && kind == AccessKind::Write {
            self.access_line(level + 1, addr, AccessKind::Write);
        }
    }

    /// Snapshot all counters.
    pub fn stats(&self) -> HierarchyStats {
        let levels = self
            .levels
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let s = c.stats();
                LevelStats {
                    level: i,
                    accesses: s.accesses,
                    hits: s.hits,
                    misses: s.misses,
                    writebacks: s.writebacks,
                    prefetches: s.prefetches,
                    miss_rate: s.miss_rate(),
                }
            })
            .collect();
        HierarchyStats {
            levels,
            tlb: self.tlb.as_ref().map(|t| t.stats()),
            memory_lines_fetched: self.memory_lines_fetched,
            l1_classes: self.classifier.as_ref().map(|c| c.classes),
        }
    }

    /// Reset counters, keeping cache contents (useful to exclude warmup).
    pub fn reset_stats(&mut self) {
        for l in &mut self.levels {
            l.reset_stats();
        }
        self.memory_lines_fetched = 0;
        // TLB contents kept; its counters are embedded in its cache, so
        // flushing stats requires flushing contents. Accept that the TLB
        // keeps counting across resets — tests that need clean TLB numbers
        // build a fresh hierarchy.
    }

    /// Invalidate everything and zero all counters.
    pub fn flush(&mut self) {
        for l in &mut self.levels {
            l.flush();
        }
        if let Some(t) = &mut self.tlb {
            t.flush();
        }
        self.memory_lines_fetched = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, HierarchyConfig, TlbConfig};

    fn two_level() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig {
            name: "test".into(),
            levels: vec![
                CacheConfig::new("L1", 256, 16, 2),
                CacheConfig::new("L2", 1024, 16, 4),
            ],
            tlb: None,
        })
    }

    #[test]
    fn l2_sees_only_l1_misses() {
        let mut h = two_level();
        for addr in 0..512u64 {
            h.read(addr, 1);
        }
        let s = h.stats();
        assert_eq!(s.levels[0].accesses, 512);
        assert_eq!(s.levels[0].misses, 32); // 512 B / 16 B
        assert_eq!(s.levels[1].accesses, 32);
        assert_eq!(s.levels[1].misses, 32); // cold
        assert_eq!(s.memory_lines_fetched, 32);
    }

    #[test]
    fn working_set_in_l2_but_not_l1() {
        let mut h = two_level();
        // 512 B working set: fits in L2 (1024 B), not in L1 (256 B).
        for _ in 0..4 {
            for addr in (0..512u64).step_by(16) {
                h.read(addr, 1);
            }
        }
        let s = h.stats();
        assert_eq!(s.levels[0].misses, 4 * 32); // L1 thrashes every pass
        assert_eq!(s.levels[1].misses, 32); // L2 compulsory only
        assert_eq!(s.memory_lines_fetched, 32);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut h = two_level();
        h.read(14, 4); // crosses the 16-byte boundary
        let s = h.stats();
        assert_eq!(s.levels[0].accesses, 2);
        assert_eq!(s.levels[0].misses, 2);
    }

    #[test]
    fn writeback_propagates_to_l2_as_write() {
        let mut h = MemoryHierarchy::new(HierarchyConfig {
            name: "t".into(),
            levels: vec![
                CacheConfig::new("L1", 32, 16, 2), // one set, two ways
                CacheConfig::new("L2", 1024, 16, 4),
            ],
            tlb: None,
        });
        h.write(0, 4);
        h.read(16, 4);
        h.read(32, 4); // evicts dirty line 0 -> L2 write
        let s = h.stats();
        // L2 sees: 3 demand fills + 1 writeback = 4 accesses.
        assert_eq!(s.levels[1].accesses, 4);
    }

    #[test]
    fn tlb_counts_pages() {
        let mut h = MemoryHierarchy::new(HierarchyConfig {
            name: "t".into(),
            levels: vec![CacheConfig::new("L1", 256, 16, 2)],
            tlb: Some(TlbConfig::fully_associative(8, 4096)),
        });
        for p in 0..4u64 {
            h.read(p * 4096, 4);
        }
        let s = h.stats();
        assert_eq!(s.tlb.expect("tlb configured").misses, 4);
    }

    #[test]
    fn write_through_forwards_every_store() {
        let mut h = MemoryHierarchy::new(HierarchyConfig {
            name: "t".into(),
            levels: vec![
                CacheConfig::new("L1", 256, 16, 2)
                    .with_write_policy(crate::config::WritePolicy::WriteThrough),
                CacheConfig::new("L2", 1024, 16, 4),
            ],
            tlb: None,
        });
        h.write(0, 4);
        h.write(0, 4); // L1 hit, but write-through still reaches L2
        let s = h.stats();
        assert_eq!(s.levels[0].accesses, 2);
        // L2 sees the demand fill plus two write-through stores.
        assert_eq!(s.levels[1].accesses, 3);
    }

    #[test]
    fn prefetch_requests_propagate_to_next_level() {
        let mut h = MemoryHierarchy::new(HierarchyConfig {
            name: "t".into(),
            levels: vec![
                CacheConfig::new("L1", 256, 16, 2).with_prefetch(),
                CacheConfig::new("L2", 1024, 16, 4),
            ],
            tlb: None,
        });
        h.read(0, 4); // miss line 0, prefetch line 16
        let s = h.stats();
        assert_eq!(s.levels[0].prefetches, 1);
        // L2 serves both the demand fill and the prefetch fill.
        assert_eq!(s.levels[1].accesses, 2);
        // The prefetched line now hits without further L2 traffic.
        h.read(16, 4);
        let s = h.stats();
        assert_eq!(s.levels[0].misses, 1);
    }

    #[test]
    fn sequential_scan_with_prefetch_halves_nothing_but_hides_misses() {
        // With next-line prefetch a sequential scan's demand misses drop
        // to ~1 per two lines... actually to ~1 total after the first,
        // since each miss prefetches the next line.
        let mut with = MemoryHierarchy::new(HierarchyConfig {
            name: "p".into(),
            levels: vec![CacheConfig::new("L1", 256, 16, 2).with_prefetch()],
            tlb: None,
        });
        let mut without = MemoryHierarchy::new(HierarchyConfig {
            name: "np".into(),
            levels: vec![CacheConfig::new("L1", 256, 16, 2)],
            tlb: None,
        });
        for addr in (0..1024u64).step_by(4) {
            with.read(addr, 4);
            without.read(addr, 4);
        }
        let (w, wo) = (with.stats().levels[0].misses, without.stats().levels[0].misses);
        assert!(w < wo, "prefetching must reduce demand misses: {w} vs {wo}");
    }

    #[test]
    fn classification_totals_match_l1_misses() {
        let mut h = MemoryHierarchy::new_classifying(HierarchyConfig {
            name: "t".into(),
            levels: vec![CacheConfig::new("L1", 64, 16, 1), CacheConfig::new("L2", 1024, 16, 4)],
            tlb: None,
        });
        // Conflict pattern: lines 0 and 64 collide in the 4-set DM cache?
        // (64 B, 16 B lines, direct mapped -> 4 sets; stride 64 collides.)
        for _ in 0..6 {
            h.read(0, 4);
            h.read(64, 4);
        }
        let s = h.stats();
        let cl = s.l1_classes.expect("classifying hierarchy");
        assert_eq!(cl.total(), s.levels[0].misses);
        assert_eq!(cl.compulsory, 2);
        assert_eq!(cl.conflict, 10, "ping-pong while both fit the FA shadow");
        assert_eq!(cl.capacity, 0);
    }

    #[test]
    fn plain_hierarchy_has_no_classification() {
        let h = two_level();
        assert!(h.stats().l1_classes.is_none());
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut h = two_level();
        h.read(0, 4);
        h.reset_stats();
        h.read(0, 4); // still resident
        let s = h.stats();
        assert_eq!(s.levels[0].accesses, 1);
        assert_eq!(s.levels[0].misses, 0);
    }
}
