//! A sharded, cache-line-aligned LRU result cache.
//!
//! Queries hash to one of `shards` independent shards, so concurrent
//! workers rarely contend on the same lock. Each `Shard` is
//! `#[repr(align(64))]` — one shard per cache line, so a worker
//! hammering shard 3's lock never invalidates the line holding shard
//! 4's, and the per-shard hit/miss counters are padded apart the same
//! way (the `PaddedAtomicUsize` idea: stats that are written from
//! different threads must not share a line).
//!
//! Within a shard, entries are kept in most-recently-used-first order in
//! a small vector: per-shard capacities are tens of entries, where a
//! move-to-front vector beats a linked structure on every metric that
//! matters here (it *is* the cache-friendly representation). Eviction
//! drops the true LRU tail, which `tests/cache_stress.rs` asserts under
//! `std::thread::scope` contention.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock helper that survives poisoning: a panicking request handler
/// must not take the shared cache down with it (crash-only discipline —
/// the entry it was writing is simply absent).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One shard: an LRU list behind its own lock, plus padded stats.
/// The 64-byte alignment keeps neighbouring shards off this line.
#[repr(align(64))]
struct Shard<V> {
    /// MRU-first entry list.
    entries: Mutex<Vec<(u64, V)>>,
    /// Lookups that found the key.
    hits: AtomicU64,
    /// Lookups that missed.
    misses: AtomicU64,
    /// Entries evicted to respect the capacity.
    evictions: AtomicU64,
}

impl<V> Shard<V> {
    fn new() -> Self {
        Self {
            entries: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }
}

/// Per-shard statistics snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Lookups that found the key.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted at capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
}

/// The sharded LRU cache. Values are cloned out on hit, so `V` is
/// typically a small answer struct or a `Json` payload.
pub struct ShardedLru<V> {
    shards: Vec<Shard<V>>,
    per_shard_capacity: usize,
}

impl<V: Clone> ShardedLru<V> {
    /// A cache with `shards` shards of `per_shard_capacity` entries
    /// each. Both are clamped to at least 1.
    pub fn new(shards: usize, per_shard_capacity: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards).map(|_| Shard::new()).collect(),
            per_shard_capacity: per_shard_capacity.max(1),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard capacity.
    pub fn per_shard_capacity(&self) -> usize {
        self.per_shard_capacity
    }

    /// Which shard a key lives in (Fibonacci multiplicative hash: keys
    /// are often sequential `(src, dst)` packs, and low bits alone
    /// would pile them into one shard).
    pub fn shard_of(&self, key: u64) -> usize {
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // Map the high bits onto the shard count without modulo bias
        // mattering (shard count is small).
        ((mixed >> 32) as usize) % self.shards.len()
    }

    /// Look `key` up, refreshing its recency on hit.
    pub fn get(&self, key: u64) -> Option<V> {
        let shard = &self.shards[self.shard_of(key)];
        let mut entries = lock(&shard.entries);
        match entries.iter().position(|(k, _)| *k == key) {
            Some(pos) => {
                // Move to front: O(pos) shift over a few dozen entries.
                let entry = entries.remove(pos);
                let value = entry.1.clone();
                entries.insert(0, entry);
                drop(entries);
                shard.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                drop(entries);
                shard.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or refresh) `key`, evicting the shard's LRU tail when at
    /// capacity.
    pub fn put(&self, key: u64, value: V) {
        let shard = &self.shards[self.shard_of(key)];
        let mut entries = lock(&shard.entries);
        if let Some(pos) = entries.iter().position(|(k, _)| *k == key) {
            entries.remove(pos);
        }
        let mut evicted = 0u64;
        while entries.len() >= self.per_shard_capacity {
            entries.pop();
            evicted += 1;
        }
        entries.insert(0, (key, value));
        drop(entries);
        if evicted > 0 {
            shard.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Stats for one shard.
    pub fn shard_stats(&self, shard: usize) -> ShardStats {
        let s = &self.shards[shard];
        ShardStats {
            hits: s.hits.load(Ordering::Relaxed),
            misses: s.misses.load(Ordering::Relaxed),
            evictions: s.evictions.load(Ordering::Relaxed),
            len: lock(&s.entries).len(),
        }
    }

    /// Stats for every shard, in shard order.
    pub fn stats(&self) -> Vec<ShardStats> {
        (0..self.shards.len()).map(|i| self.shard_stats(i)).collect()
    }

    /// Aggregate hit ratio over all shards (0.0 when nothing was asked).
    pub fn hit_ratio(&self) -> f64 {
        let (mut hits, mut total) = (0u64, 0u64);
        for s in self.stats() {
            hits += s.hits;
            total += s.hits + s.misses;
        }
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Keys of one shard in MRU-to-LRU order (for the eviction-order
    /// assertions of the stress suite).
    pub fn shard_keys(&self, shard: usize) -> Vec<u64> {
        lock(&self.shards[shard].entries).iter().map(|(k, _)| *k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_and_hit_miss_accounting() {
        let cache: ShardedLru<u64> = ShardedLru::new(4, 8);
        assert_eq!(cache.get(1), None);
        cache.put(1, 100);
        assert_eq!(cache.get(1), Some(100));
        let total: u64 = cache.stats().iter().map(|s| s.hits + s.misses).sum();
        assert_eq!(total, 2);
        assert!((cache.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_is_lru_per_shard() {
        // One shard isolates the order logic from hashing.
        let cache: ShardedLru<u64> = ShardedLru::new(1, 3);
        for k in [1, 2, 3] {
            cache.put(k, k * 10);
        }
        // Touch 1 so 2 becomes the LRU tail.
        assert_eq!(cache.get(1), Some(10));
        cache.put(4, 40);
        assert_eq!(cache.get(2), None, "LRU entry 2 must have been evicted");
        assert_eq!(cache.get(1), Some(10));
        assert_eq!(cache.get(3), Some(30));
        assert_eq!(cache.get(4), Some(40));
        assert_eq!(cache.shard_stats(0).evictions, 1);
    }

    #[test]
    fn put_refreshes_existing_key_without_growth() {
        let cache: ShardedLru<u64> = ShardedLru::new(1, 2);
        cache.put(7, 1);
        cache.put(7, 2);
        assert_eq!(cache.shard_stats(0).len, 1);
        assert_eq!(cache.get(7), Some(2));
    }

    #[test]
    fn shard_selection_is_stable_and_in_range() {
        let cache: ShardedLru<u64> = ShardedLru::new(8, 4);
        for key in 0..1000u64 {
            let s = cache.shard_of(key);
            assert!(s < 8);
            assert_eq!(s, cache.shard_of(key), "stable per key");
        }
        // Sequential keys spread across shards rather than piling up.
        let mut seen = [false; 8];
        for key in 0..64u64 {
            seen[cache.shard_of(key)] = true;
        }
        assert!(seen.iter().filter(|&&s| s).count() >= 4, "{seen:?}");
    }

    #[test]
    fn shard_alignment_is_a_cache_line() {
        assert_eq!(std::mem::align_of::<Shard<u64>>(), 64);
        assert!(std::mem::size_of::<Shard<u64>>() >= 64);
    }
}
