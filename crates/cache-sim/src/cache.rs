//! A single set-associative cache level with true-LRU replacement.

use crate::config::CacheConfig;

/// Whether an access reads or writes the touched line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Hit/miss counters for one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses (prefetches are not counted as accesses).
    pub accesses: u64,
    /// Demand hits, including hits served by the victim cache.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Misses that were satisfied by swapping a line back from the victim
    /// cache (a subset of `hits`: a victim hit is counted as a hit because
    /// it does not travel to the next level).
    pub victim_hits: u64,
    /// Dirty lines written back to the next level on eviction.
    pub writebacks: u64,
    /// Lines brought in by the next-line prefetcher.
    pub prefetches: u64,
}

impl CacheStats {
    /// Demand miss rate in `[0, 1]`; `0` when there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// One cache way: a tag plus its state.
#[derive(Clone, Copy, Debug)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotonic timestamp of last touch; smallest = LRU victim.
    stamp: u64,
}

const INVALID: Way = Way { tag: 0, valid: false, dirty: false, stamp: 0 };

/// The outcome of a single cache probe, reported to the caller so the
/// hierarchy can propagate misses and write-backs outward — and, since
/// the event-driven attribution rework, rich enough that every counter
/// this probe moved can be reconstructed from it alone (no before/after
/// stats snapshots needed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct ProbeResult {
    /// True if the line was present (including in the victim cache).
    pub hit: bool,
    /// True if the hit was served by swapping the line back from the
    /// victim cache (implies `hit`).
    pub victim_hit: bool,
    /// Address of a dirty line evicted by this fill, if any. The hierarchy
    /// forwards it to the next level as a write access.
    pub writeback: Option<u64>,
    /// Line address the prefetcher wants from the next level, if any.
    pub prefetch: Option<u64>,
    /// The prefetch fill evicted a dirty line. That write-back is counted
    /// in [`CacheStats::writebacks`] but absorbed here (never propagated
    /// to the next level) — prefetches are opportunistic and must not
    /// generate demand traffic beyond the prefetch read itself.
    pub silent_writeback: bool,
}

impl ProbeResult {
    /// How many times this probe incremented [`CacheStats::writebacks`]
    /// (the propagated write-back plus the absorbed prefetch-fill one).
    #[inline]
    pub fn writeback_count(&self) -> u8 {
        u8::from(self.writeback.is_some()) + u8::from(self.silent_writeback)
    }
}

/// A set-associative, true-LRU cache with optional victim cache and
/// next-line prefetcher. Operates purely on addresses; no data is stored.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// `num_sets * associativity` ways, set-major.
    ways: Vec<Way>,
    /// Fully-associative victim buffer (line addresses), LRU order:
    /// index 0 is the most recently inserted.
    victim: Vec<(u64, bool)>,
    stats: CacheStats,
    clock: u64,
    line_shift: u32,
    set_mask: u64,
}

impl SetAssocCache {
    /// Build an empty (all-invalid) cache for `config`.
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        let sets = config.num_sets();
        let ways = vec![INVALID; sets * config.associativity];
        let line_shift = config.line_bytes.trailing_zeros();
        let set_mask = (sets - 1) as u64;
        Self {
            config,
            ways,
            victim: Vec::new(),
            stats: CacheStats::default(),
            clock: 0,
            line_shift,
            set_mask,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Reset counters (contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Invalidate all lines and reset counters.
    pub fn flush(&mut self) {
        self.ways.fill(INVALID);
        self.victim.clear();
        self.stats = CacheStats::default();
        self.clock = 0;
    }

    /// Line address (address with the offset bits cleared).
    #[inline]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    #[inline]
    fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) & self.set_mask) as usize
    }

    #[inline]
    fn tag(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Probe the cache with a demand access. Returns hit/miss plus any
    /// write-back or prefetch request the caller must forward outward.
    pub(crate) fn access(&mut self, addr: u64, kind: AccessKind) -> ProbeResult {
        self.stats.accesses += 1;
        self.clock += 1;
        let tag = self.tag(addr);
        let set = self.set_index(addr);
        let assoc = self.config.associativity;
        let base = set * assoc;

        // Hit path.
        for w in &mut self.ways[base..base + assoc] {
            if w.valid && w.tag == tag {
                w.stamp = self.clock;
                if kind == AccessKind::Write {
                    w.dirty = true;
                }
                self.stats.hits += 1;
                return ProbeResult { hit: true, ..ProbeResult::default() };
            }
        }

        // Victim-cache path: swap the line back in if present there.
        if self.config.victim_entries > 0 {
            if let Some(pos) = self.victim.iter().position(|&(a, _)| self.tag(a) == tag) {
                let (_, was_dirty) = self.victim.remove(pos);
                self.stats.hits += 1;
                self.stats.victim_hits += 1;
                let wb = self.fill(addr, kind == AccessKind::Write || was_dirty);
                return ProbeResult {
                    hit: true,
                    victim_hit: true,
                    writeback: wb,
                    ..ProbeResult::default()
                };
            }
        }

        // Miss: fill, possibly evicting.
        self.stats.misses += 1;
        let wb = self.fill(addr, kind == AccessKind::Write);
        let prefetch = if self.config.next_line_prefetch {
            let next = self.line_addr(addr) + self.config.line_bytes as u64;
            if !self.contains_line(next) { Some(next) } else { None }
        } else {
            None
        };
        let mut silent_writeback = false;
        if let Some(p) = prefetch {
            silent_writeback = self.insert_prefetch(p);
        }
        ProbeResult { hit: false, victim_hit: false, writeback: wb, prefetch, silent_writeback }
    }

    /// Public single-cache probe: simulate one access, returning whether
    /// it hit. (The richer `ProbeResult` plumbing — write-backs,
    /// prefetch requests — is internal to
    /// [`MemoryHierarchy`](crate::MemoryHierarchy), which owns
    /// inter-level traffic.)
    pub fn probe(&mut self, addr: u64, kind: AccessKind) -> bool {
        self.access(addr, kind).hit
    }

    /// True if the line containing `addr` is resident (victim cache included).
    pub fn contains_line(&self, addr: u64) -> bool {
        let tag = self.tag(addr);
        let set = self.set_index(addr);
        let assoc = self.config.associativity;
        let resident = self.ways[set * assoc..(set + 1) * assoc]
            .iter()
            .any(|w| w.valid && w.tag == tag);
        resident || self.victim.iter().any(|&(a, _)| self.tag(a) == tag)
    }

    /// Bring the line for `addr` into its set, evicting the LRU way.
    /// Returns the address of an evicted dirty line, if any.
    fn fill(&mut self, addr: u64, dirty: bool) -> Option<u64> {
        let tag = self.tag(addr);
        let set = self.set_index(addr);
        let assoc = self.config.associativity;
        let base = set * assoc;

        let victim_way = {
            let mut idx = 0;
            let mut best = u64::MAX;
            for (i, w) in self.ways[base..base + assoc].iter().enumerate() {
                if !w.valid {
                    idx = i;
                    break;
                }
                if w.stamp < best {
                    best = w.stamp;
                    idx = i;
                }
            }
            base + idx
        };

        let evicted = self.ways[victim_way];
        self.ways[victim_way] =
            Way { tag, valid: true, dirty, stamp: self.clock };

        if !evicted.valid {
            return None;
        }
        let evicted_addr = evicted.tag << self.line_shift;
        if self.config.victim_entries > 0 {
            // Displaced lines park in the victim cache; a dirty line pushed
            // out of the victim cache becomes the write-back.
            self.victim.insert(0, (evicted_addr, evicted.dirty));
            if self.victim.len() > self.config.victim_entries {
                if let Some((old_addr, old_dirty)) = self.victim.pop() {
                    if old_dirty {
                        self.stats.writebacks += 1;
                        return Some(old_addr);
                    }
                }
            }
            None
        } else if evicted.dirty {
            self.stats.writebacks += 1;
            Some(evicted_addr)
        } else {
            None
        }
    }

    /// Insert a prefetched line (clean, not counted as a demand access).
    /// Returns true when the fill evicted a dirty line — that write-back
    /// is already counted in `stats.writebacks` but is absorbed, never
    /// propagated (see [`ProbeResult::silent_writeback`]).
    fn insert_prefetch(&mut self, addr: u64) -> bool {
        self.stats.prefetches += 1;
        self.fill(addr, false).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways x 16B lines = 128 B.
        SetAssocCache::new(CacheConfig::new("t", 128, 16, 2))
    }

    #[test]
    fn sequential_scan_misses_once_per_line() {
        let mut c = tiny();
        for addr in 0..256u64 {
            c.access(addr, AccessKind::Read);
        }
        assert_eq!(c.stats().accesses, 256);
        assert_eq!(c.stats().misses, 16); // 256 B / 16 B lines
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = tiny();
        c.access(0, AccessKind::Read);
        for _ in 0..10 {
            let r = c.access(4, AccessKind::Read);
            assert!(r.hit);
        }
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to set 0 of a 2-way cache: stride = sets*line = 64.
        c.access(0, AccessKind::Read);
        c.access(64, AccessKind::Read);
        c.access(0, AccessKind::Read); // touch 0 so 64 is LRU
        c.access(128, AccessKind::Read); // evicts 64
        assert!(c.contains_line(0));
        assert!(!c.contains_line(64));
        assert!(c.contains_line(128));
    }

    #[test]
    fn assoc_plus_one_thrash() {
        let mut c = tiny();
        // 3 conflicting lines round-robin in a 2-way set always miss.
        for _ in 0..10 {
            for a in [0u64, 64, 128] {
                c.access(a, AccessKind::Read);
            }
        }
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().misses, 30);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0, AccessKind::Write);
        c.access(64, AccessKind::Read);
        let r = c.access(128, AccessKind::Read); // evicts line 0 (dirty, LRU)
        assert_eq!(r.writeback, Some(0));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0, AccessKind::Read);
        c.access(64, AccessKind::Read);
        let r = c.access(128, AccessKind::Read);
        assert_eq!(r.writeback, None);
    }

    #[test]
    fn victim_cache_rescues_conflicts() {
        let cfg = CacheConfig::new("t", 128, 16, 2).with_victim(4);
        let mut c = SetAssocCache::new(cfg);
        // The 3-way round-robin conflict now hits in the victim cache
        // after the first round.
        for _ in 0..10 {
            for a in [0u64, 64, 128] {
                c.access(a, AccessKind::Read);
            }
        }
        assert_eq!(c.stats().misses, 3);
        assert!(c.stats().victim_hits > 0);
    }

    #[test]
    fn prefetch_brings_next_line() {
        let cfg = CacheConfig::new("t", 128, 16, 2).with_prefetch();
        let mut c = SetAssocCache::new(cfg);
        let r = c.access(0, AccessKind::Read);
        assert_eq!(r.prefetch, Some(16));
        assert!(c.contains_line(16));
        let r2 = c.access(16, AccessKind::Read);
        assert!(r2.hit);
        assert_eq!(c.stats().prefetches, 1);
    }

    #[test]
    fn flush_clears_contents_and_stats() {
        let mut c = tiny();
        c.access(0, AccessKind::Write);
        c.flush();
        assert!(!c.contains_line(0));
        assert_eq!(c.stats().accesses, 0);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Write); // hit, now dirty
        c.access(64, AccessKind::Read);
        let r = c.access(128, AccessKind::Read); // evicts 0
        assert_eq!(r.writeback, Some(0));
    }
}
