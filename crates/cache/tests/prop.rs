//! Property tests for the cache structures: LRU behaviour (hits,
//! recency order and TTL expiry) is checked against a naive reference
//! model; the consistent-hash ring against its minimal-remapping
//! contract.

use std::time::Duration;

use sns_testkit::{gens, props, tk_assert, tk_assert_eq, tk_assert_ne, Gen};

use sns_cache::lru::LruCache;
use sns_cache::ring::HashRing;
use sns_cache::{fnv1a, CacheKey};

/// Naive reference model of a byte-capacity LRU with TTL expiry.
struct ModelLru {
    cap: u64,
    /// (key, size, expires_at), most recently used last.
    entries: Vec<(u8, u64, u64)>,
}

impl ModelLru {
    fn get(&mut self, k: u8, now: u64) -> bool {
        let Some(i) = self.entries.iter().position(|&(key, ..)| key == k) else {
            return false;
        };
        let e = self.entries.remove(i);
        if e.2 <= now {
            return false; // expired: dropped, a miss
        }
        self.entries.push(e);
        true
    }
    fn put(&mut self, k: u8, size: u64, now: u64, ttl: Option<u64>) {
        if size > self.cap {
            return;
        }
        self.entries.retain(|&(key, ..)| key != k);
        let mut used: u64 = self.entries.iter().map(|&(_, s, _)| s).sum();
        while used + size > self.cap {
            let (_, s, _) = self.entries.remove(0);
            used -= s;
        }
        let expires_at = ttl.map_or(u64::MAX, |t| now + t);
        self.entries.push((k, size, expires_at));
    }
}

#[derive(Debug, Clone)]
enum Op {
    Get(u8),
    /// Key, size, TTL in ns (`None` = never expires).
    Put(u8, u64, Option<u64>),
    /// Advance the clock by this many ns.
    Advance(u64),
}

fn op_gen() -> Gen<Op> {
    let ttl = gens::one_of(vec![gens::just(None), gens::u64_in(1..60).map(Some)]);
    gens::weighted_of(vec![
        (4, gens::u8_in(0..24).map(Op::Get)),
        (
            3,
            gens::u8_in(0..24).flat_map(move |k| {
                let ttl = ttl.clone();
                gens::u64_in(1..400).flat_map(move |s| ttl.clone().map(move |t| Op::Put(k, s, t)))
            }),
        ),
        (1, gens::u64_in(1..30).map(Op::Advance)),
    ])
}

props! {
    fn lru_matches_reference_model(ops in gens::vec(op_gen(), 1..200)) {
        let mut real: LruCache<u8, Vec<u8>> = LruCache::new(1000);
        let mut model = ModelLru { cap: 1000, entries: Vec::new() };
        let mut now = 0u64;
        for op in ops {
            match op {
                Op::Get(k) => {
                    let r = real.get(&k, now).is_some();
                    let m = model.get(k, now);
                    tk_assert_eq!(r, m, "get({}) at {} diverged", k, now);
                }
                Op::Put(k, s, ttl) => {
                    real.put(k, vec![0u8; s as usize], now, ttl.map(Duration::from_nanos));
                    model.put(k, s, now, ttl);
                }
                Op::Advance(dt) => now += dt,
            }
            let model_used: u64 = model.entries.iter().map(|&(_, s, _)| s).sum();
            tk_assert_eq!(real.used(), model_used);
            tk_assert_eq!(real.len(), model.entries.len());
            tk_assert!(real.used() <= 1000);
            let real_order: Vec<u8> = real.keys_lru_order().copied().collect();
            let model_order: Vec<u8> = model.entries.iter().map(|&(k, ..)| k).collect();
            tk_assert_eq!(real_order, model_order, "recency order diverged");
        }
    }

    fn ring_remaps_minimally_on_any_removal(
        partitions in gens::btree_set(gens::u32_in(0..32), 2..10),
        victim_idx in gens::usize_in(0..10),
        keys in gens::vec(gens::string("[a-z0-9]{1,16}"), 50..150),
    ) {
        let parts: Vec<u32> = partitions.into_iter().collect();
        let victim = parts[victim_idx % parts.len()];
        let mut ring = HashRing::with_vnodes(32);
        for &p in &parts {
            ring.add(p);
        }
        let before: Vec<u32> = keys
            .iter()
            .map(|k| *ring.lookup(fnv1a(k.as_bytes())).unwrap())
            .collect();
        ring.remove(&victim);
        for (key, &owner_before) in keys.iter().zip(&before) {
            let after = *ring.lookup(fnv1a(key.as_bytes())).unwrap();
            if owner_before != victim {
                tk_assert_eq!(after, owner_before, "non-victim keys must not move");
            } else {
                tk_assert_ne!(after, victim);
            }
        }
    }

    fn ring_lookup_is_total_and_stable(
        partitions in gens::btree_set(gens::u32_in(0..64), 1..12),
        hash in gens::any_u64(),
    ) {
        let mut ring = HashRing::new();
        for &p in &partitions {
            ring.add(p);
        }
        let a = *ring.lookup(hash).unwrap();
        let b = *ring.lookup(hash).unwrap();
        tk_assert_eq!(a, b);
        tk_assert!(partitions.contains(&a));
    }

    fn cache_key_variants_always_colocate(
        url in gens::string("[ -~]{1,64}"),
        variant in gens::any_u64(),
    ) {
        let a = CacheKey::original(&url);
        let b = CacheKey::variant(&url, variant);
        tk_assert_eq!(a.placement_hash(), b.placement_hash());
    }
}
