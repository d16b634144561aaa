//! Byte-capacity LRU object store with TTL expiry — the storage engine of
//! one cache partition.
//!
//! Uses an ordered recency index (monotonic sequence numbers in a
//! `BTreeMap`) rather than an intrusive list: O(log n) operations, no
//! unsafe code, deterministic iteration.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::time::Duration;

/// The key index's hasher: one multiply per 8-byte word (FxHash's step)
/// instead of SipHash's rounds. Nothing iterates the index (recency
/// order lives in the `BTreeMap`), so the hash changes no order. It
/// gives up SipHash's resistance to crafted collisions, which keys
/// drawn from the service's own workload do not need.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            self.add(tail.iter().fold(0, |w, &b| w << 8 | u64::from(b)));
        }
    }

    fn finish(&self) -> u64 {
        // The table indexes by the low bits; the multiply mixes upward.
        self.0.rotate_left(26)
    }
}

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

struct Entry<V> {
    value: V,
    size: u64,
    seq: u64,
    /// Absolute expiry in nanoseconds-of-simulation (or any monotonic
    /// clock the caller uses); `u64::MAX` = never.
    expires_at_ns: u64,
}

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
    seq: u64,
    map: HashMap<K, Entry<V>, BuildHasherDefault<WordHasher>>,
    /// Recency index: seq → key. Smallest seq = least recently used.
    order: BTreeMap<u64, K>,
    stats: LruStats,
}

impl<K: Eq + Hash + Clone + Ord, V: Weighted> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        LruCache {
            capacity,
            used: 0,
            seq: 0,
            map: HashMap::default(),
            order: BTreeMap::new(),
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
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LruStats {
        self.stats
    }

    /// Looks up `key` at time `now_ns`; refreshes recency on hit. Expired
    /// entries are removed and count as misses.
    ///
    /// A hit re-indexes the entry by moving the key `order` already owns
    /// to the new sequence number: two hash probes and no key clone.
    pub fn get(&mut self, key: &K, now_ns: u64) -> Option<&V> {
        let (old_seq, expired) = match self.map.get(key) {
            None => {
                self.stats.misses += 1;
                return None;
            }
            Some(e) => (e.seq, e.expires_at_ns <= now_ns),
        };
        if expired {
            self.remove(key);
            self.stats.expirations += 1;
            self.stats.misses += 1;
            return None;
        }
        self.stats.hits += 1;
        self.seq += 1;
        let owned = self
            .order
            .remove(&old_seq)
            .expect("every entry is indexed in order");
        self.order.insert(self.seq, owned);
        let e = self.map.get_mut(key).expect("probed above");
        e.seq = self.seq;
        Some(&e.value)
    }

    /// Checks for a live entry without counting a lookup or refreshing
    /// recency.
    pub fn peek(&self, key: &K, now_ns: u64) -> Option<&V> {
        self.map
            .get(key)
            .filter(|e| e.expires_at_ns > now_ns)
            .map(|e| &e.value)
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
        while self.used + size > self.capacity {
            let Some((&oldest_seq, _)) = self.order.iter().next() else {
                break;
            };
            let victim = self.order[&oldest_seq].clone();
            self.remove(&victim);
            self.stats.evictions += 1;
        }
        self.seq += 1;
        let expires_at_ns = match ttl {
            None => u64::MAX,
            Some(d) => now_ns.saturating_add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)),
        };
        self.order.insert(self.seq, key.clone());
        self.map.insert(
            key,
            Entry {
                value,
                size,
                seq: self.seq,
                expires_at_ns,
            },
        );
        self.used += size;
    }

    /// Removes an entry; returns its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let e = self.map.remove(key)?;
        self.order.remove(&e.seq);
        self.used -= e.size;
        Some(e.value)
    }

    /// Discards everything (BASE: throwing the cache away is always safe).
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
        self.used = 0;
    }

    /// Iterates keys from least to most recently used.
    pub fn keys_lru_order(&self) -> impl Iterator<Item = &K> {
        self.order.values()
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
