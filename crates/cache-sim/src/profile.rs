//! Span-scoped cache attribution: the simulator's flight recorder.
//!
//! A `CacheProfiler` attaches to a [`MemoryHierarchy`] (see
//! [`MemoryHierarchy::attach_profiler`]) and charges every counter the
//! hierarchy updates — per-level accesses/hits/misses/write-backs/
//! prefetches, TLB translations, memory lines, three-Cs classes — to
//! the *scope* that was current when the access was issued. Scopes are
//! `/`-separated paths mirroring the `cachegraph-obs` span naming
//! convention (`fw.tiled.bdl/tile[3]`), so a profiled run yields a
//! hierarchical cache profile: which tile, phase, or recursion level
//! the misses came from, not just the end-of-run aggregate.
//!
//! Attribution is **event-driven**: the hierarchy emits one
//! `CacheEvent` per counter-moving occurrence (a probe, a TLB lookup,
//! a memory-line fetch, a miss classification) at exactly the sites
//! where its own counters change. One enum dispatch per event replaces
//! the earlier design's two full `CacheStats` snapshots per access, and
//! the per-probe event carries everything the probe moved — including
//! write-backs triggered by prefetch fills, which the propagated probe
//! result alone would hide.
//!
//! Attribution is **exact**: every event is applied to its scope's
//! tally as it arrives, so the per-scope *self* stats sum to the
//! hierarchy's aggregate [`HierarchyStats`] exactly — the conservation
//! invariant asserted by tests here and an integration test in
//! `cachegraph-cli`.
//!
//! Drivers set scopes through a cloneable [`ScopeHandle`] — an `Arc`
//! around an atomic scope id plus a guard stack and path interner — so
//! the handle can be used while a `TracedBuffer` mutably borrows the
//! hierarchy. [`ScopeHandle::enter`] returns an RAII [`ScopeGuard`];
//! guards may drop in any order (each removes its own stack entry), and
//! the current scope is always the youngest still-live guard. Traffic
//! issued while no scope is entered lands in the reserved
//! `"(unattributed)"` scope.
//!
//! An optional interval sampler ([`ProfilerOptions::timeline_interval`])
//! additionally emits a delta-encoded miss-rate timeline: one
//! [`TimelineRecord`] every `interval` L1 accesses through the
//! registry's JSONL sink (for watching long runs live), retained as
//! [`TimelineSample`]s in the final [`CacheProfile`].
//!
//! Attribution is zero-cost when no profiler is attached: every hook in
//! the hierarchy is a branch on an `Option` that is `None` by default
//! (the same pattern as the trace recorder; proven by the
//! `obs_overhead` bench in `cachegraph-bench`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use cachegraph_obs::{Registry, TimelineRecord};

use crate::cache::CacheStats;
use crate::classify::{MissClass, MissClasses};
use crate::hierarchy::HierarchyStats;
use crate::hierarchy::LevelStats;
#[cfg(doc)]
use crate::hierarchy::MemoryHierarchy;
use crate::tlb::TlbStats;

/// Scope id 0: traffic issued while no [`ScopeGuard`] was live.
pub const UNATTRIBUTED: &str = "(unattributed)";

/// How a profiler attaches — see
/// [`MemoryHierarchy::attach_profiler_with`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfilerOptions {
    /// Miss-rate timeline interval in L1 accesses; `0` disables the
    /// timeline.
    pub timeline_interval: u64,
}

impl ProfilerOptions {
    /// Attribution with no timeline — what
    /// [`MemoryHierarchy::attach_profiler`] uses.
    pub fn exact() -> Self {
        Self::default()
    }
}

/// One counter-moving occurrence inside the hierarchy, emitted to the
/// profiler at the site where the hierarchy's own counter changes.
#[derive(Clone, Copy, Debug)]
pub(crate) enum CacheEvent {
    /// One demand probe at a cache level, carrying everything the probe
    /// moved (mirrors [`crate::cache::ProbeResult`]).
    Probe {
        /// Cache level index (0 = L1).
        level: usize,
        /// The probe hit (victim-cache hits included).
        hit: bool,
        /// The hit was served by the victim cache.
        victim_hit: bool,
        /// How many write-backs this probe generated (0–2: the
        /// propagated one plus an absorbed prefetch-fill eviction).
        writebacks: u8,
        /// The probe triggered a next-line prefetch fill.
        prefetched: bool,
    },
    /// One TLB lookup.
    Tlb {
        /// The translation was resident.
        hit: bool,
    },
    /// One line fetched from memory (a miss past the last level).
    MemoryLine,
    /// One L1 demand miss classified by the three-Cs shadow.
    Class(MissClass),
}

/// Lock helper that survives poisoning (attribution must never take a
/// panicking run down with it).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Interns scope paths to dense ids; id 0 is [`UNATTRIBUTED`].
#[derive(Debug, Default)]
struct PathTable {
    paths: Vec<String>,
    ids: HashMap<String, usize>,
}

impl PathTable {
    fn intern(&mut self, path: &str) -> usize {
        if let Some(&id) = self.ids.get(path) {
            return id;
        }
        let id = self.paths.len();
        self.paths.push(path.to_string());
        self.ids.insert(path.to_string(), id);
        id
    }
}

/// Mutable scope state: the interner plus the stack of live guards.
#[derive(Debug, Default)]
struct ScopeState {
    table: PathTable,
    /// Live guards as `(token, scope id)`, oldest first. Guards may
    /// drop out of LIFO order (the `Option<ScopeGuard>` replacement
    /// pattern drops the sibling *after* entering its successor); each
    /// removes its own entry wherever it sits, and the current scope is
    /// always the youngest survivor.
    stack: Vec<(u64, usize)>,
    next_token: u64,
}

/// State shared between the profiler (inside the hierarchy) and the
/// driver's [`ScopeHandle`]s.
#[derive(Debug)]
struct ScopeShared {
    /// Id of the scope new traffic is charged to: the top of the guard
    /// stack, or 0 when no guard is live. Relaxed ordering is enough:
    /// scope changes and accesses are issued by the same driver thread,
    /// in program order.
    current: AtomicUsize,
    state: Mutex<ScopeState>,
}

impl ScopeShared {
    fn new() -> Self {
        let mut state = ScopeState::default();
        state.table.intern(UNATTRIBUTED);
        Self { current: AtomicUsize::new(0), state: Mutex::new(state) }
    }
}

/// A cloneable handle for setting the current attribution scope.
///
/// Obtained from [`MemoryHierarchy::attach_profiler`]. The handle is
/// independent of the hierarchy borrow, so a driver can hold it while a
/// `TracedBuffer` mutably borrows the hierarchy. Entering a scope costs
/// one interner lookup (amortized: paths repeat) plus a stack push;
/// per-access cost inside the hierarchy is a single relaxed load.
#[derive(Clone, Debug)]
pub struct ScopeHandle {
    shared: Arc<ScopeShared>,
}

impl ScopeHandle {
    /// Make `path` the current scope until the returned guard drops.
    ///
    /// Scopes nest like spans, but guards are tracked on a stack keyed
    /// by guard identity, so drop order does not matter: replacing a
    /// guard stored in an `Option` works in either order, and traffic
    /// issued between a sibling's drop and its successor's creation is
    /// charged to the parent scope (never to `"(unattributed)"`).
    pub fn enter(&self, path: &str) -> ScopeGuard {
        let mut st = lock(&self.shared.state);
        let id = st.table.intern(path);
        let token = st.next_token;
        st.next_token += 1;
        st.stack.push((token, id));
        self.shared.current.store(id, Ordering::Relaxed);
        drop(st);
        ScopeGuard { shared: Arc::clone(&self.shared), token }
    }
}

/// RAII guard from [`ScopeHandle::enter`]; on drop it removes itself
/// from the guard stack (wherever it sits) and the youngest surviving
/// guard's scope becomes current again.
#[derive(Debug)]
pub struct ScopeGuard {
    shared: Arc<ScopeShared>,
    token: u64,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let mut st = lock(&self.shared.state);
        if let Some(pos) = st.stack.iter().rposition(|&(t, _)| t == self.token) {
            st.stack.remove(pos);
        }
        let top = st.stack.last().map_or(0, |&(_, id)| id);
        self.shared.current.store(top, Ordering::Relaxed);
    }
}

/// Per-scope raw tallies, mirroring what the hierarchy itself counts.
#[derive(Clone, Debug, Default)]
struct ScopeTally {
    /// Per-level counter deltas (grown on first touch of each level).
    levels: Vec<CacheStats>,
    tlb: TlbStats,
    memory_lines: u64,
    classes: MissClasses,
}

/// The attribution engine owned by a profiling [`MemoryHierarchy`].
///
/// The hierarchy emits one [`CacheEvent`] per counter-moving occurrence
/// through [`on_event`](Self::on_event), which applies it to the current
/// scope's tally immediately.
#[derive(Clone, Debug)]
pub(crate) struct CacheProfiler {
    shared: Arc<ScopeShared>,
    label: String,
    num_levels: usize,
    has_tlb: bool,
    has_classes: bool,
    /// Scope id cached at the start of the current access.
    current: usize,
    scopes: Vec<ScopeTally>,
    sampler: Option<IntervalSampler>,
}

impl CacheProfiler {
    pub(crate) fn new(
        label: &str,
        num_levels: usize,
        has_tlb: bool,
        has_classes: bool,
        sampler: Option<IntervalSampler>,
    ) -> Self {
        Self {
            shared: Arc::new(ScopeShared::new()),
            label: label.to_string(),
            num_levels,
            has_tlb,
            has_classes,
            current: 0,
            scopes: Vec::new(),
            sampler,
        }
    }

    pub(crate) fn handle(&self) -> ScopeHandle {
        ScopeHandle { shared: Arc::clone(&self.shared) }
    }

    /// Refresh the cached scope id; called once per hierarchy access
    /// (the scope cannot change mid-access).
    #[inline]
    pub(crate) fn sync_scope(&mut self) {
        self.current = self.shared.current.load(Ordering::Relaxed);
    }

    /// Record one counter-moving event against the current scope.
    #[inline]
    pub(crate) fn on_event(&mut self, ev: CacheEvent) {
        let id = self.current;
        self.apply(id, ev);
    }

    /// Apply one event to scope `id`'s raw tally, mirroring the
    /// hierarchy's own counter updates field for field.
    fn apply(&mut self, id: usize, ev: CacheEvent) {
        if self.scopes.len() <= id {
            self.scopes.resize_with(id + 1, ScopeTally::default);
        }
        let t = &mut self.scopes[id];
        match ev {
            CacheEvent::Probe { level, hit, victim_hit, writebacks, prefetched } => {
                if t.levels.len() <= level {
                    t.levels.resize_with(level + 1, CacheStats::default);
                }
                let l = &mut t.levels[level];
                l.accesses += 1;
                if hit {
                    l.hits += 1;
                } else {
                    l.misses += 1;
                }
                if victim_hit {
                    l.victim_hits += 1;
                }
                l.writebacks += u64::from(writebacks);
                if prefetched {
                    l.prefetches += 1;
                }
                if level == 0 {
                    if let Some(s) = &mut self.sampler {
                        s.on_l1(hit);
                    }
                }
            }
            CacheEvent::Tlb { hit } => {
                t.tlb.accesses += 1;
                if !hit {
                    t.tlb.misses += 1;
                }
            }
            CacheEvent::MemoryLine => t.memory_lines += 1,
            CacheEvent::Class(class) => t.classes.add(class),
        }
    }

    fn self_stats(&self, tally: &ScopeTally) -> HierarchyStats {
        let levels = (0..self.num_levels)
            .map(|i| {
                let s = tally.levels.get(i).copied().unwrap_or_default();
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
            tlb: self.has_tlb.then_some(tally.tlb),
            memory_lines_fetched: tally.memory_lines,
            l1_classes: self.has_classes.then_some(tally.classes),
        }
    }

    /// Freeze the profile: per-scope self stats, subtree totals (path
    /// prefix aggregation), and the timeline (final partial interval
    /// flushed). `machine` is the hierarchy's configuration label.
    pub(crate) fn finish(mut self, machine: &str) -> CacheProfile {
        let (interval, timeline) = match self.sampler.take() {
            Some(mut s) => {
                s.flush();
                (s.interval, s.samples)
            }
            None => (0, Vec::new()),
        };
        let paths: Vec<String> = lock(&self.shared.state).table.paths.clone();
        // Scope-id order is first-entry order; drivers enter parents
        // before children, so this doubles as pre-order for rendering.
        let selves: Vec<(String, HierarchyStats)> = self
            .scopes
            .iter()
            .enumerate()
            .map(|(id, tally)| {
                let path = paths.get(id).cloned().unwrap_or_else(|| format!("scope[{id}]"));
                (path, self.self_stats(tally))
            })
            .collect();
        CacheProfile {
            label: self.label,
            machine: machine.to_string(),
            interval,
            spans: build_spans(&selves),
            timeline,
        }
    }
}

/// Build the span list from per-scope self stats: subtree totals by
/// path-prefix aggregation, zero-traffic spans dropped unless some
/// descendant was charged (a tiled run's root scope has zero self
/// stats but its subtree total is the whole run).
fn build_spans(selves: &[(String, HierarchyStats)]) -> Vec<SpanCacheStats> {
    selves
        .iter()
        .filter_map(|(path, self_stats)| {
            let prefix = format!("{path}/");
            let mut total = self_stats.zeroed_like();
            for (q, s) in selves {
                if q == path || q.starts_with(&prefix) {
                    total.merge_from(s);
                }
            }
            if is_zero_stats(self_stats) && is_zero_stats(&total) {
                return None;
            }
            Some(SpanCacheStats {
                path: path.clone(),
                self_stats: self_stats.clone(),
                total_stats: total,
            })
        })
        .collect()
}

/// The delta-encoded miss-rate timeline sampler (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct IntervalSampler {
    interval: u64,
    label: String,
    registry: Registry,
    accesses: u64,
    misses: u64,
    emitted_accesses: u64,
    emitted_misses: u64,
    seq: u64,
    samples: Vec<TimelineSample>,
}

impl IntervalSampler {
    /// `interval` is in L1 demand accesses and must be at least 1.
    pub(crate) fn new(label: &str, interval: u64, registry: Registry) -> Self {
        assert!(interval > 0, "sampling interval must be at least 1 access");
        Self {
            interval,
            label: label.to_string(),
            registry,
            accesses: 0,
            misses: 0,
            emitted_accesses: 0,
            emitted_misses: 0,
            seq: 0,
            samples: Vec::new(),
        }
    }

    #[inline]
    fn on_l1(&mut self, hit: bool) {
        self.accesses += 1;
        self.misses += u64::from(!hit);
        if self.accesses - self.emitted_accesses >= self.interval {
            self.emit_sample();
        }
    }

    fn emit_sample(&mut self) {
        let record = TimelineRecord {
            label: self.label.clone(),
            seq: self.seq,
            accesses: self.accesses - self.emitted_accesses,
            l1_misses: self.misses - self.emitted_misses,
        };
        self.registry.emit(&record.to_json());
        self.samples.push(TimelineSample {
            seq: record.seq,
            accesses: record.accesses,
            l1_misses: record.l1_misses,
        });
        self.emitted_accesses = self.accesses;
        self.emitted_misses = self.misses;
        self.seq += 1;
    }

    /// Emit the final partial interval, if any accesses are pending —
    /// a trace shorter than one interval still yields one sample.
    fn flush(&mut self) {
        if self.accesses > self.emitted_accesses {
            self.emit_sample();
        }
    }
}

/// One retained timeline sample; `accesses` / `l1_misses` are deltas
/// over the interval (matching the JSONL `TimelineRecord` encoding).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimelineSample {
    /// Sample index, starting at 0.
    pub seq: u64,
    /// L1 demand accesses in this interval.
    pub accesses: u64,
    /// L1 demand misses in this interval.
    pub l1_misses: u64,
}

impl TimelineSample {
    /// Miss rate over this interval in `[0, 1]`; 0 when empty.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.accesses as f64
        }
    }
}

/// One scope's slice of the hierarchy counters.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanCacheStats {
    /// `/`-separated scope path, e.g. `fw.tiled.bdl/tile[3]`.
    pub path: String,
    /// Traffic charged to exactly this scope (children excluded).
    pub self_stats: HierarchyStats,
    /// Traffic of this scope plus every descendant scope (path-prefix
    /// subtree sum; `self` for leaves).
    pub total_stats: HierarchyStats,
}

/// A frozen span-scoped cache profile for one simulated run.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheProfile {
    /// Run label, matching the `cache_sims` section label (e.g.
    /// `fw.tiled.bdl`).
    pub label: String,
    /// Hierarchy configuration name the run was simulated on.
    pub machine: String,
    /// Timeline sampling interval in L1 accesses; 0 when no sampler
    /// was attached.
    pub interval: u64,
    /// Per-scope stats in first-entry (pre-)order; scopes with no
    /// traffic are omitted.
    pub spans: Vec<SpanCacheStats>,
    /// The miss-rate timeline (empty when `interval` is 0).
    pub timeline: Vec<TimelineSample>,
}

impl CacheProfile {
    /// Sum of all per-scope *self* stats: the run's aggregate
    /// [`HierarchyStats`] field for field (miss rates recomputed over
    /// the sums).
    pub fn sum_self(&self) -> HierarchyStats {
        let mut acc = match self.spans.first() {
            Some(s) => s.self_stats.zeroed_like(),
            None => HierarchyStats::default(),
        };
        for span in &self.spans {
            acc.merge_from(&span.self_stats);
        }
        acc
    }

    /// Look up a span by exact path.
    pub fn find(&self, path: &str) -> Option<&SpanCacheStats> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Merge per-thread profiles into one, the profile-level analogue
    /// of summing per-thread [`HierarchyStats`]: self stats of
    /// same-path spans are added, subtree totals are rebuilt over the
    /// union, and span order is first appearance across the parts (so
    /// shared parents keep their pre-order position). Timelines do not
    /// interleave meaningfully across
    /// threads, so the merged timeline is kept only when exactly one
    /// part has one. Returns `None` for an empty input.
    pub fn merge(parts: Vec<CacheProfile>) -> Option<CacheProfile> {
        let mut it = parts.into_iter();
        let first = it.next()?;
        let label = first.label.clone();
        let machine = first.machine.clone();
        let mut order: Vec<String> = Vec::new();
        let mut selves: HashMap<String, HierarchyStats> = HashMap::new();
        let mut timelines: Vec<(u64, Vec<TimelineSample>)> = Vec::new();
        for part in std::iter::once(first).chain(it) {
            if !part.timeline.is_empty() {
                timelines.push((part.interval, part.timeline));
            }
            for span in part.spans {
                match selves.get_mut(&span.path) {
                    Some(acc) => acc.merge_from(&span.self_stats),
                    None => {
                        order.push(span.path.clone());
                        selves.insert(span.path, span.self_stats);
                    }
                }
            }
        }
        let merged: Vec<(String, HierarchyStats)> = order
            .into_iter()
            .filter_map(|p| {
                let s = selves.remove(&p)?;
                Some((p, s))
            })
            .collect();
        let (interval, timeline) = match timelines.len() {
            1 => {
                let (iv, tl) = timelines.remove(0);
                (iv, tl)
            }
            _ => (0, Vec::new()),
        };
        Some(CacheProfile {
            label,
            machine,
            interval,
            spans: build_spans(&merged),
            timeline,
        })
    }
}

/// True when no counter in `stats` ever ticked.
fn is_zero_stats(stats: &HierarchyStats) -> bool {
    stats.levels.iter().all(|l| l.accesses == 0 && l.writebacks == 0 && l.prefetches == 0)
        && stats.tlb.is_none_or(|t| t.accesses == 0)
        && stats.memory_lines_fetched == 0
        && stats.l1_classes.is_none_or(|c| c.total() == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, HierarchyConfig, TlbConfig};
    use crate::hierarchy::MemoryHierarchy;

    fn two_level_tlb(classify: bool) -> MemoryHierarchy {
        let config = HierarchyConfig {
            name: "profile-test".into(),
            levels: vec![
                CacheConfig::new("L1", 256, 16, 2),
                CacheConfig::new("L2", 1024, 16, 4),
            ],
            tlb: Some(TlbConfig::fully_associative(8, 4096)),
        };
        if classify {
            MemoryHierarchy::new_classifying(config)
        } else {
            MemoryHierarchy::new(config)
        }
    }

    fn assert_stats_eq(a: &HierarchyStats, b: &HierarchyStats) {
        assert_eq!(a.levels.len(), b.levels.len());
        for (x, y) in a.levels.iter().zip(&b.levels) {
            assert_eq!(x.level, y.level);
            assert_eq!(x.accesses, y.accesses, "L{} accesses", x.level + 1);
            assert_eq!(x.hits, y.hits, "L{} hits", x.level + 1);
            assert_eq!(x.misses, y.misses, "L{} misses", x.level + 1);
            assert_eq!(x.writebacks, y.writebacks, "L{} writebacks", x.level + 1);
            assert_eq!(x.prefetches, y.prefetches, "L{} prefetches", x.level + 1);
            assert!((x.miss_rate - y.miss_rate).abs() < 1e-12);
        }
        assert_eq!(a.tlb, b.tlb);
        assert_eq!(a.memory_lines_fetched, b.memory_lines_fetched);
        assert_eq!(a.l1_classes, b.l1_classes);
    }

    #[test]
    fn per_scope_self_stats_sum_to_aggregate_exactly() {
        let mut h = two_level_tlb(true);
        let handle = h.attach_profiler("test.run");
        {
            let _root = handle.enter("test.run");
            for addr in 0..256u64 {
                h.read(addr, 1);
            }
            {
                let _phase = handle.enter("test.run/phase[0]");
                for addr in (0..4096u64).step_by(16) {
                    h.write(addr, 4);
                }
            }
            {
                let _phase = handle.enter("test.run/phase[1]");
                for addr in (0..512u64).rev() {
                    h.read(addr, 2);
                }
            }
        }
        let aggregate = h.stats();
        let profile = h.take_profile().expect("profiler attached");
        assert_stats_eq(&profile.sum_self(), &aggregate);
        let paths: Vec<&str> = profile.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["test.run", "test.run/phase[0]", "test.run/phase[1]"]);
        // Subtree totals: the root's total is the whole run.
        let root = profile.find("test.run").expect("root span");
        assert_stats_eq(&root.total_stats, &aggregate);
        // Leaf totals equal their self stats.
        let leaf = profile.find("test.run/phase[1]").expect("leaf span");
        assert_stats_eq(&leaf.total_stats, &leaf.self_stats);
        // The run had real traffic in every section.
        assert!(aggregate.levels[0].misses > 0);
        assert!(aggregate.tlb.expect("tlb").misses > 0);
        assert!(aggregate.l1_classes.expect("classes").total() > 0);
    }

    #[test]
    fn unattributed_traffic_lands_in_reserved_scope() {
        let mut h = two_level_tlb(false);
        h.attach_profiler("test.run");
        h.read(0, 4); // no scope entered
        let profile = h.take_profile().expect("profiler attached");
        assert_eq!(profile.spans.len(), 1);
        assert_eq!(profile.spans[0].path, UNATTRIBUTED);
        assert_stats_eq(&profile.sum_self(), &profile.spans[0].self_stats);
    }

    #[test]
    fn guards_restore_previous_scope() {
        let mut h = two_level_tlb(false);
        let handle = h.attach_profiler("t");
        let outer = handle.enter("t");
        {
            let _inner = handle.enter("t/inner");
            h.read(0, 4);
        }
        h.read(4096, 4); // back in the outer scope
        drop(outer);
        h.read(8192, 4); // unattributed again
        let profile = h.take_profile().expect("profiler attached");
        let paths: Vec<&str> = profile.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, [UNATTRIBUTED, "t", "t/inner"]);
        assert_eq!(profile.find("t/inner").expect("inner").self_stats.levels[0].accesses, 1);
        assert_eq!(profile.find("t").expect("outer").self_stats.levels[0].accesses, 1);
        // The outer span's subtree total covers the inner one.
        assert_eq!(profile.find("t").expect("outer").total_stats.levels[0].accesses, 2);
    }

    #[test]
    fn option_guard_replacement_pattern_keeps_chain_consistent() {
        // The pattern instrumented drivers use: one Option<ScopeGuard>
        // replaced per tile, cleared before reassignment.
        let mut h = two_level_tlb(false);
        let handle = h.attach_profiler("t");
        let _root = handle.enter("t");
        let mut tile: Option<ScopeGuard> = None;
        for i in 0..3 {
            drop(tile.take()); // restore the root scope before re-entering
            tile = Some(handle.enter(&format!("t/tile[{i}]")));
            h.read(i * 4096, 4);
        }
        drop(tile);
        h.read(1 << 20, 4); // must land back on the root scope
        drop(_root);
        let profile = h.take_profile().expect("profiler attached");
        assert_eq!(profile.find("t").expect("root").self_stats.levels[0].accesses, 1);
        for i in 0..3 {
            let path = format!("t/tile[{i}]");
            assert_eq!(
                profile.find(&path).expect("tile").self_stats.levels[0].accesses,
                1,
                "{path}"
            );
        }
        assert_eq!(profile.find("t").expect("root").total_stats.levels[0].accesses, 4);
    }

    #[test]
    fn out_of_order_guard_replacement_charges_parent_not_unattributed() {
        // Regression (the `(unattributed)` catch-all bug): replacing an
        // Option<ScopeGuard> by assigning the successor FIRST and
        // dropping the sibling after used to restore the sibling's
        // stale "previous" scope — worst case scope id 0. With the
        // guard stack, drop order is irrelevant and nothing lands in
        // the reserved scope during a fully-scoped run.
        let mut h = two_level_tlb(false);
        let handle = h.attach_profiler("t");
        let root = handle.enter("t");
        let mut tile: Option<ScopeGuard> = None;
        for i in 0..3u64 {
            // Wrong-order replacement: enter the successor, then drop
            // the sibling (Option assignment drops the old value last).
            tile = Some(handle.enter(&format!("t/tile[{i}]")));
            h.read(i * 4096, 4);
        }
        drop(tile);
        h.read(1 << 20, 4); // back on the root scope
        drop(root);
        let profile = h.take_profile().expect("profiler attached");
        assert!(
            profile.find(UNATTRIBUTED).is_none(),
            "fully-scoped run must have zero unattributed traffic"
        );
        for i in 0..3 {
            let path = format!("t/tile[{i}]");
            assert_eq!(
                profile.find(&path).expect("tile").self_stats.levels[0].accesses,
                1,
                "{path}"
            );
        }
        assert_eq!(profile.find("t").expect("root").self_stats.levels[0].accesses, 1);
        assert_eq!(profile.find("t").expect("root").total_stats.levels[0].accesses, 4);
        assert_stats_eq(&profile.sum_self(), &h.stats());
    }

    #[test]
    fn sampler_emits_full_intervals_and_flushes_partial_tail() {
        let mut h = two_level_tlb(false);
        let reg = Registry::disabled();
        let opts = ProfilerOptions { timeline_interval: 4 };
        h.attach_profiler_with("t", opts, &reg);
        for addr in 0..10u64 {
            h.read(addr * 16, 1); // 10 L1 accesses, one line each
        }
        let profile = h.take_profile().expect("profiler attached");
        assert_eq!(profile.interval, 4);
        let seqs: Vec<u64> = profile.timeline.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, [0, 1, 2]);
        let accesses: Vec<u64> = profile.timeline.iter().map(|s| s.accesses).collect();
        assert_eq!(accesses, [4, 4, 2], "two full intervals plus the flushed tail");
        let total_misses: u64 = profile.timeline.iter().map(|s| s.l1_misses).sum();
        assert_eq!(total_misses, h.stats().levels[0].misses);
    }

    #[test]
    fn sampler_interval_of_one_samples_every_access() {
        let mut h = two_level_tlb(false);
        let opts = ProfilerOptions { timeline_interval: 1 };
        h.attach_profiler_with("t", opts, &Registry::disabled());
        for addr in 0..5u64 {
            h.read(addr, 1);
        }
        let profile = h.take_profile().expect("profiler attached");
        assert_eq!(profile.timeline.len(), 5);
        assert!(profile.timeline.iter().all(|s| s.accesses == 1));
        assert!(profile.timeline.iter().all(|s| s.l1_misses <= 1));
    }

    #[test]
    fn sampler_trace_shorter_than_interval_yields_one_sample() {
        let mut h = two_level_tlb(false);
        let opts = ProfilerOptions { timeline_interval: 1_000 };
        h.attach_profiler_with("t", opts, &Registry::disabled());
        h.read(0, 4);
        h.read(16, 4);
        h.read(32, 4);
        let profile = h.take_profile().expect("profiler attached");
        assert_eq!(profile.timeline.len(), 1);
        assert_eq!(profile.timeline[0].accesses, 3);
        assert_eq!(profile.timeline[0].l1_misses, 3); // all cold
    }

    #[test]
    fn sampler_with_no_traffic_emits_nothing() {
        let mut h = two_level_tlb(false);
        let opts = ProfilerOptions { timeline_interval: 8 };
        h.attach_profiler_with("t", opts, &Registry::disabled());
        let profile = h.take_profile().expect("profiler attached");
        assert!(profile.timeline.is_empty());
        assert!(profile.spans.is_empty());
    }

    #[test]
    fn sampler_streams_timeline_records_through_jsonl_sink() {
        use std::sync::{Arc as StdArc, Mutex as StdMutex};

        #[derive(Clone, Default)]
        struct Shared(StdArc<StdMutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().expect("sink lock").extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let reg = Registry::new();
        let sink = Shared::default();
        reg.attach_jsonl_sink(Box::new(sink.clone()));
        let mut h = two_level_tlb(false);
        let opts = ProfilerOptions { timeline_interval: 2 };
        h.attach_profiler_with("live.run", opts, &reg);
        for addr in 0..6u64 {
            h.read(addr * 16, 1);
        }
        let profile = h.take_profile().expect("profiler attached");
        let text = String::from_utf8(sink.0.lock().expect("sink lock").clone()).expect("utf8");
        let records: Vec<TimelineRecord> = text
            .lines()
            .filter_map(|l| cachegraph_obs::parse_json(l).ok())
            .filter_map(|j| TimelineRecord::from_json(&j))
            .collect();
        assert_eq!(records.len(), profile.timeline.len());
        for (r, s) in records.iter().zip(&profile.timeline) {
            assert_eq!(r.label, "live.run");
            assert_eq!((r.seq, r.accesses, r.l1_misses), (s.seq, s.accesses, s.l1_misses));
        }
    }

    #[test]
    fn take_profile_without_attach_is_none() {
        let mut h = two_level_tlb(false);
        assert!(h.take_profile().is_none());
    }

    #[test]
    fn exact_options_equal_plain_attach() {
        let mut ha = two_level_tlb(true);
        let a_handle = ha.attach_profiler("t");
        let mut hb = two_level_tlb(true);
        let b_handle =
            hb.attach_profiler_with("t", ProfilerOptions::exact(), &Registry::disabled());
        {
            let _ga = a_handle.enter("t");
            let _gb = b_handle.enter("t");
            for i in 0..200u64 {
                ha.read(i * 8, 4);
                hb.read(i * 8, 4);
            }
        }
        let pa = ha.take_profile().expect("profiler");
        let pb = hb.take_profile().expect("profiler");
        assert_eq!(pa, pb);
    }

    // ---- per-thread merge ---------------------------------------------

    /// Tiny deterministic LCG so the merge sweep needs no RNG dep.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    /// Drive `h` through a seeded access pattern under nested scopes,
    /// returning nothing; identical calls produce identical traces.
    fn seeded_scoped_trace(h: &mut MemoryHierarchy, handle: &ScopeHandle, seed: u64, len: u64) {
        let mut rng = Lcg(seed);
        let _root = handle.enter("m");
        for chunk in 0..4u64 {
            let _phase = handle.enter(&format!("m/phase[{chunk}]"));
            for _ in 0..len / 4 {
                let addr = (rng.next() % 8192) * 4;
                if rng.next().is_multiple_of(3) {
                    h.write(addr, 4);
                } else {
                    h.read(addr, 4);
                }
            }
        }
    }

    #[test]
    fn merged_per_thread_profiles_equal_single_thread_run() {
        // Property (threads 1/2/4, seeded sweep): running each thread's
        // share of the work on its own hierarchy+profiler and merging
        // gives exactly the single-run profile when the shares tile the
        // trace — here each thread re-runs the same deterministic trace
        // on a private hierarchy, so t merged parts must equal t times
        // one part, and sum_self must equal the merged aggregate.
        for seed in [1u64, 7, 42] {
            // Reference: one hierarchy, one profiler, whole trace.
            let mut h1 = two_level_tlb(true);
            let handle1 = h1.attach_profiler("m");
            seeded_scoped_trace(&mut h1, &handle1, seed, 4096);
            let single_stats = h1.stats();
            let single = h1.take_profile().expect("profiler");
            assert_stats_eq(&single.sum_self(), &single_stats);

            for threads in [1usize, 2, 4] {
                let mut parts = Vec::new();
                let mut aggregate: Option<HierarchyStats> = None;
                for _ in 0..threads {
                    let mut h = two_level_tlb(true);
                    let handle = h.attach_profiler("m");
                    seeded_scoped_trace(&mut h, &handle, seed, 4096);
                    let stats = h.stats();
                    match &mut aggregate {
                        Some(a) => a.merge_from(&stats),
                        None => aggregate = Some(stats),
                    }
                    parts.push(h.take_profile().expect("profiler"));
                }
                let merged = CacheProfile::merge(parts).expect("non-empty parts");
                let aggregate = aggregate.expect("at least one part");
                // Conservation across the merge, exactly.
                assert_stats_eq(&merged.sum_self(), &aggregate);
                // The merged profile is the single-thread profile with
                // every counter multiplied by the thread count.
                assert_eq!(merged.spans.len(), single.spans.len(), "threads={threads}");
                for (m, s) in merged.spans.iter().zip(&single.spans) {
                    assert_eq!(m.path, s.path);
                    for (ml, sl) in m.self_stats.levels.iter().zip(&s.self_stats.levels) {
                        assert_eq!(ml.accesses, sl.accesses * threads as u64, "{}", m.path);
                        assert_eq!(ml.misses, sl.misses * threads as u64, "{}", m.path);
                    }
                }
            }
        }
    }

    #[test]
    fn merge_of_single_profile_is_identity_modulo_totals() {
        let mut h = two_level_tlb(false);
        let handle = h.attach_profiler("t");
        {
            let _root = handle.enter("t");
            for i in 0..32u64 {
                h.read(i * 16, 4);
            }
        }
        let profile = h.take_profile().expect("profiler");
        let merged = CacheProfile::merge(vec![profile.clone()]).expect("one part");
        assert_eq!(merged, profile);
    }

    #[test]
    fn merge_of_empty_parts_is_none() {
        assert!(CacheProfile::merge(Vec::new()).is_none());
    }
}
