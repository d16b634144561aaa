//! Byte-capacity LRU object store with TTL expiry — the storage engine of
//! one cache partition.
//!
//! Entries live in a slot `Vec`, threaded by index into an intrusive
//! doubly linked recency list; freed slots wait on a free list, and a
//! hash index maps each key to its slot. Every operation is O(1), with
//! no unsafe code and deterministic iteration.

use std::hash::Hash;
use std::time::Duration;

use sns_sim::hash::FastMap;

/// Objects stored in an [`LruCache`] report their size for byte-capacity
/// accounting.
pub trait Weighted {
    /// Size in bytes this value occupies.
    fn weight(&self) -> u64;
}

impl Weighted for Vec<u8> {
    fn weight(&self) -> u64 {
        self.len() as u64
    }
}

impl Weighted for String {
    fn weight(&self) -> u64 {
        self.len() as u64
    }
}

impl Weighted for u64 {
    fn weight(&self) -> u64 {
        8
    }
}

struct Entry<K, V> {
    key: K,
    value: V,
    size: u64,
    /// Absolute expiry in nanoseconds-of-simulation (or any monotonic
    /// clock the caller uses); `u64::MAX` = never.
    expires_at_ns: u64,
}

/// One slot: a listed entry, or `None` on the free list or as the
/// sentinel.
struct Slot<K, V> {
    entry: Option<Entry<K, V>>,
    prev: usize,
    next: usize,
}

/// The recency list's sentinel slot: its `next` is the least recently
/// used entry and its `prev` the most recent. Index 0 also ends the free
/// list.
const SENTINEL: usize = 0;

/// Hit/miss/eviction counters for one cache store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LruStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing (or only an expired entry).
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries dropped because their TTL lapsed.
    pub expirations: u64,
}

impl LruStats {
    /// Hit ratio in `[0, 1]` (0 if no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A least-recently-used object cache bounded by total bytes.
///
/// # Examples
///
/// ```
/// use sns_cache::lru::LruCache;
///
/// let mut c: LruCache<&str, Vec<u8>> = LruCache::new(100);
/// c.put("a", vec![0u8; 60], 0, None);
/// c.put("b", vec![0u8; 60], 0, None); // evicts "a": 120 > 100
/// assert!(c.get(&"a", 0).is_none());
/// assert!(c.get(&"b", 0).is_some());
/// ```
pub struct LruCache<K, V> {
    capacity: u64,
    used: u64,
    /// Key → slot of its entry.
    index: FastMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    /// First free slot; free slots chain through `next`.
    free: usize,
    stats: LruStats,
}

impl<K: Eq + Hash + Clone, V: Weighted> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        LruCache {
            capacity,
            used: 0,
            index: FastMap::default(),
            slots: vec![Slot {
                entry: None,
                prev: SENTINEL,
                next: SENTINEL,
            }],
            free: SENTINEL,
            stats: LruStats::default(),
        }
    }

    /// Total byte capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently stored.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LruStats {
        self.stats
    }

    /// Looks up `key` at time `now_ns`; refreshes recency on hit. Expired
    /// entries are removed and count as misses.
    ///
    /// A hit is one hash probe, then relinks the entry's slot at the
    /// tail.
    pub fn get(&mut self, key: &K, now_ns: u64) -> Option<&V> {
        let Some(&i) = self.index.get(key) else {
            self.stats.misses += 1;
            return None;
        };
        if self.entry(i).expires_at_ns <= now_ns {
            self.remove(key);
            self.stats.expirations += 1;
            self.stats.misses += 1;
            return None;
        }
        self.stats.hits += 1;
        self.unlink(i);
        self.push_tail(i);
        Some(&self.entry(i).value)
    }

    /// Checks for a live entry without counting a lookup or refreshing
    /// recency.
    pub fn peek(&self, key: &K, now_ns: u64) -> Option<&V> {
        let e = self.entry(*self.index.get(key)?);
        (e.expires_at_ns > now_ns).then_some(&e.value)
    }

    /// Inserts (or replaces) an object, evicting LRU entries as needed.
    /// Objects larger than the whole capacity are not cached. `ttl = None`
    /// means the entry never expires.
    pub fn put(&mut self, key: K, value: V, now_ns: u64, ttl: Option<Duration>) {
        let size = value.weight();
        if size > self.capacity {
            return;
        }
        self.remove(&key);
        while self.used + size > self.capacity && self.slots[SENTINEL].next != SENTINEL {
            let victim = self.release(self.slots[SENTINEL].next);
            self.index.remove(&victim.key);
            self.used -= victim.size;
            self.stats.evictions += 1;
        }
        let expires_at_ns = match ttl {
            None => u64::MAX,
            Some(d) => now_ns.saturating_add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)),
        };
        let slot = Slot {
            entry: Some(Entry {
                key: key.clone(),
                value,
                size,
                expires_at_ns,
            }),
            prev: SENTINEL,
            next: SENTINEL,
        };
        let i = match self.free {
            SENTINEL => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
            f => {
                self.free = self.slots[f].next;
                self.slots[f] = slot;
                f
            }
        };
        self.push_tail(i);
        self.index.insert(key, i);
        self.used += size;
    }

    /// Removes an entry; returns its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.index.remove(key)?;
        let e = self.release(i);
        self.used -= e.size;
        Some(e.value)
    }

    /// Discards everything (BASE: throwing the cache away is always safe).
    pub fn clear(&mut self) {
        self.index.clear();
        self.slots.truncate(1);
        (self.slots[SENTINEL].prev, self.slots[SENTINEL].next) = (SENTINEL, SENTINEL);
        self.free = SENTINEL;
        self.used = 0;
    }

    /// Iterates keys from least to most recently used.
    pub fn keys_lru_order(&self) -> impl Iterator<Item = &K> {
        let listed = |i: usize| Some(i).filter(|&i| i != SENTINEL);
        std::iter::successors(listed(self.slots[SENTINEL].next), move |&i| {
            listed(self.slots[i].next)
        })
        .map(|i| &self.entry(i).key)
    }

    fn entry(&self, i: usize) -> &Entry<K, V> {
        self.slots[i]
            .entry
            .as_ref()
            .expect("a listed slot holds an entry")
    }

    fn unlink(&mut self, i: usize) {
        let Slot { prev, next, .. } = self.slots[i];
        self.slots[prev].next = next;
        self.slots[next].prev = prev;
    }

    fn push_tail(&mut self, i: usize) {
        let tail = self.slots[SENTINEL].prev;
        (self.slots[i].prev, self.slots[i].next) = (tail, SENTINEL);
        self.slots[tail].next = i;
        self.slots[SENTINEL].prev = i;
    }

    /// Unlists slot `i` onto the free list; returns its entry.
    fn release(&mut self, i: usize) -> Entry<K, V> {
        self.unlink(i);
        self.slots[i].next = self.free;
        self.free = i;
        self.slots[i]
            .entry
            .take()
            .expect("a listed slot holds an entry")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_put_get() {
        let mut c: LruCache<String, Vec<u8>> = LruCache::new(1000);
        c.put("k".into(), vec![1, 2, 3], 0, None);
        assert_eq!(c.get(&"k".to_string(), 0), Some(&vec![1, 2, 3]));
        assert_eq!(c.used(), 3);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn eviction_is_lru() {
        let mut c: LruCache<&str, Vec<u8>> = LruCache::new(100);
        c.put("a", vec![0; 40], 0, None);
        c.put("b", vec![0; 40], 0, None);
        // Touch "a" so "b" becomes LRU.
        assert!(c.get(&"a", 0).is_some());
        c.put("c", vec![0; 40], 0, None);
        assert!(c.get(&"b", 0).is_none(), "b was LRU and must be evicted");
        assert!(c.get(&"a", 0).is_some());
        assert!(c.get(&"c", 0).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn oversized_objects_are_not_cached() {
        let mut c: LruCache<&str, Vec<u8>> = LruCache::new(10);
        c.put("big", vec![0; 11], 0, None);
        assert!(c.get(&"big", 0).is_none());
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn replace_updates_size() {
        let mut c: LruCache<&str, Vec<u8>> = LruCache::new(100);
        c.put("k", vec![0; 60], 0, None);
        c.put("k", vec![0; 10], 0, None);
        assert_eq!(c.used(), 10);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn ttl_expiry() {
        let mut c: LruCache<&str, Vec<u8>> = LruCache::new(100);
        c.put("k", vec![0; 10], 0, Some(Duration::from_secs(1)));
        assert!(c.get(&"k", 999_999_999).is_some());
        assert!(
            c.get(&"k", 1_000_000_000).is_none(),
            "expired at exactly ttl"
        );
        assert_eq!(c.stats().expirations, 1);
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn peek_does_not_touch() {
        let mut c: LruCache<&str, Vec<u8>> = LruCache::new(80);
        c.put("a", vec![0; 40], 0, None);
        c.put("b", vec![0; 40], 0, None);
        let _ = c.peek(&"a", 0); // must NOT refresh recency
        c.put("c", vec![0; 40], 0, None);
        assert!(c.peek(&"a", 0).is_none(), "a stayed LRU and was evicted");
    }

    #[test]
    fn clear_resets() {
        let mut c: LruCache<&str, Vec<u8>> = LruCache::new(100);
        c.put("a", vec![0; 10], 0, None);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used(), 0);
        assert!(c.get(&"a", 0).is_none());
    }

    #[test]
    fn lru_order_iteration() {
        let mut c: LruCache<&str, u64> = LruCache::new(1000);
        c.put("a", 1, 0, None);
        c.put("b", 2, 0, None);
        c.put("c", 3, 0, None);
        let _ = c.get(&"a", 0);
        let order: Vec<&&str> = c.keys_lru_order().collect();
        assert_eq!(order, vec![&"b", &"c", &"a"]);
    }
}
