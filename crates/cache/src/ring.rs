//! Consistent-hash ring for the virtual cache.
//!
//! §3.1.5: "the manager stub can manage a number of separate cache nodes
//! as a single virtual cache, hashing the key space across the separate
//! caches and automatically re-hashing when cache nodes are added or
//! removed." A consistent-hash ring with virtual points per partition
//! keeps that re-hash *minimal*: adding or removing one of `n` partitions
//! moves only ~1/n of the key space.

use std::collections::BTreeMap;

use crate::fnv1a;

/// Default virtual points per partition (trade-off between balance and
/// ring size).
pub const DEFAULT_VNODES: u32 = 64;

/// A consistent-hash ring mapping 64-bit key hashes to partition ids.
#[derive(Debug, Clone)]
pub struct HashRing<P> {
    /// Ring position → partition. BTreeMap gives ordered successor lookup.
    points: BTreeMap<u64, P>,
    vnodes: u32,
}

impl<P: Clone + Ord + std::fmt::Debug> HashRing<P> {
    /// Creates an empty ring with the default virtual-node count.
    pub fn new() -> Self {
        Self::with_vnodes(DEFAULT_VNODES)
    }

    /// Creates an empty ring with `vnodes` virtual points per partition.
    pub fn with_vnodes(vnodes: u32) -> Self {
        assert!(vnodes > 0);
        HashRing {
            points: BTreeMap::new(),
            vnodes,
        }
    }

    fn point(&self, partition: &P, replica: u32) -> u64 {
        // FNV avalanches poorly on short labels; finish with a 64-bit
        // mixer (MurmurHash3 finaliser) so virtual points spread evenly.
        let label = format!("{partition:?}#{replica}");
        let mut z = fnv1a(label.as_bytes());
        z ^= z >> 33;
        z = z.wrapping_mul(0xff51afd7ed558ccd);
        z ^= z >> 33;
        z = z.wrapping_mul(0xc4ceb9fe1a85ec53);
        z ^= z >> 33;
        z
    }

    /// Adds a partition's virtual points to the ring.
    pub fn add(&mut self, partition: P) {
        for r in 0..self.vnodes {
            let h = self.point(&partition, r);
            self.points.insert(h, partition.clone());
        }
    }

    /// Removes a partition from the ring.
    pub fn remove(&mut self, partition: &P) {
        self.points.retain(|_, p| p != partition);
    }

    /// Number of distinct partitions on the ring.
    pub fn partitions(&self) -> usize {
        let mut set: Vec<&P> = self.points.values().collect();
        set.sort();
        set.dedup();
        set.len()
    }

    /// Whether the ring has no partitions.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Maps a key hash to its owning partition (clockwise successor).
    pub fn lookup(&self, key_hash: u64) -> Option<&P> {
        if self.points.is_empty() {
            return None;
        }
        self.points
            .range(key_hash..)
            .next()
            .or_else(|| self.points.iter().next())
            .map(|(_, p)| p)
    }
}

impl<P: Clone + Ord + std::fmt::Debug> Default for HashRing<P> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyspace() -> Vec<u64> {
        (0..20_000u64)
            .map(|i| fnv1a(format!("http://host/{i}").as_bytes()))
            .collect()
    }

    #[test]
    fn lookup_empty_is_none() {
        let ring: HashRing<u32> = HashRing::new();
        assert!(ring.lookup(42).is_none());
    }

    #[test]
    fn all_keys_map_to_some_partition() {
        let mut ring = HashRing::new();
        for p in 0..4u32 {
            ring.add(p);
        }
        for k in keyspace() {
            assert!(ring.lookup(k).is_some());
        }
    }

    #[test]
    fn balance_is_reasonable() {
        let mut ring = HashRing::with_vnodes(128);
        for p in 0..4u32 {
            ring.add(p);
        }
        let mut counts = [0usize; 4];
        for k in keyspace() {
            counts[*ring.lookup(k).unwrap() as usize] += 1;
        }
        let total: usize = counts.iter().sum();
        for c in counts {
            let share = c as f64 / total as f64;
            assert!(
                (share - 0.25).abs() < 0.10,
                "partition share {share} too far from 1/4: {counts:?}"
            );
        }
    }

    #[test]
    fn removal_moves_minimal_keys() {
        let mut ring = HashRing::with_vnodes(128);
        for p in 0..5u32 {
            ring.add(p);
        }
        let keys = keyspace();
        let before: Vec<u32> = keys.iter().map(|&k| *ring.lookup(k).unwrap()).collect();
        ring.remove(&2);
        let mut moved = 0;
        for (i, &k) in keys.iter().enumerate() {
            let after = *ring.lookup(k).unwrap();
            if before[i] != 2 {
                assert_eq!(
                    before[i], after,
                    "keys on surviving partitions must not move"
                );
            } else {
                assert_ne!(after, 2);
                moved += 1;
            }
        }
        // ~1/5 of keys lived on partition 2.
        let share = moved as f64 / keys.len() as f64;
        assert!((share - 0.2).abs() < 0.08, "moved share {share}");
    }

    #[test]
    fn addition_moves_only_to_new_partition() {
        let mut ring = HashRing::with_vnodes(128);
        for p in 0..4u32 {
            ring.add(p);
        }
        let keys = keyspace();
        let before: Vec<u32> = keys.iter().map(|&k| *ring.lookup(k).unwrap()).collect();
        ring.add(4);
        for (i, &k) in keys.iter().enumerate() {
            let after = *ring.lookup(k).unwrap();
            assert!(
                after == before[i] || after == 4,
                "keys may only move to the new partition"
            );
        }
    }
}
