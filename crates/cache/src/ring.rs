//! Consistent-hash ring for the virtual cache.
//!
//! §3.1.5: "the manager stub can manage a number of separate cache nodes
//! as a single virtual cache, hashing the key space across the separate
//! caches and automatically re-hashing when cache nodes are added or
//! removed." A consistent-hash ring with virtual points per partition
//! keeps that re-hash *minimal*: adding or removing one of `n` partitions
//! moves only ~1/n of the key space.

use crate::fnv1a;

/// Default virtual points per partition (trade-off between balance and
/// ring size).
pub const DEFAULT_VNODES: u32 = 64;

/// A consistent-hash ring mapping 64-bit key hashes to partition ids.
#[derive(Debug, Clone)]
pub struct HashRing<P> {
    /// `(ring position, partition)`, sorted by position: a successor
    /// lookup is one binary search over a flat array.
    points: Vec<(u64, P)>,
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
            points: Vec::new(),
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

    /// Adds a partition's virtual points to the ring. A point another
    /// partition already holds passes to this one.
    pub fn add(&mut self, partition: P) {
        for r in 0..self.vnodes {
            let h = self.point(&partition, r);
            match self.points.binary_search_by_key(&h, |&(at, _)| at) {
                Ok(i) => self.points[i].1 = partition.clone(),
                Err(i) => self.points.insert(i, (h, partition.clone())),
            }
        }
    }

    /// Removes a partition from the ring.
    pub fn remove(&mut self, partition: &P) {
        self.points.retain(|(_, p)| p != partition);
    }

    /// Number of distinct partitions on the ring.
    pub fn partitions(&self) -> usize {
        let mut set: Vec<&P> = self.points.iter().map(|(_, p)| p).collect();
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
        let i = self.points.partition_point(|&(at, _)| at < key_hash);
        self.points
            .get(i)
            .or_else(|| self.points.first())
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
    use std::collections::BTreeMap;

    use sns_testkit::{gens, props, tk_assert_eq};

    /// A partition whose ring label is `label` alone, so two partitions
    /// sharing a label claim the same points.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Part {
        label: u8,
        id: u8,
    }

    impl std::fmt::Debug for Part {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}", self.label)
        }
    }

    props! {
        /// Over random adds (often colliding), removes and lookups, the
        /// ring answers as an ordered map of its points would, where a
        /// later `insert` wins a taken point.
        fn ring_matches_an_ordered_map(words in gens::vec(gens::any_u64(), 1..60)) {
            const VNODES: u32 = 4;
            let mut ring = HashRing::with_vnodes(VNODES);
            let mut oracle: BTreeMap<u64, Part> = BTreeMap::new();
            for w in words {
                let part = Part { label: (w >> 8) as u8 % 4, id: (w >> 16) as u8 % 3 };
                match w % 3 {
                    0 => {
                        for r in 0..VNODES {
                            oracle.insert(ring.point(&part, r), part);
                        }
                        ring.add(part);
                    }
                    1 => {
                        oracle.retain(|_, p| *p != part);
                        ring.remove(&part);
                    }
                    _ => {}
                }
                let probes = oracle.keys().flat_map(|&k| [k, k.wrapping_add(1)]);
                for h in probes.chain([w, 0, u64::MAX]) {
                    let want = oracle.range(h..).next().or_else(|| oracle.iter().next());
                    tk_assert_eq!(ring.lookup(h), want.map(|(_, p)| p), "lookup({:#x})", h);
                }
                let mut owners: Vec<Part> = oracle.values().copied().collect();
                owners.sort();
                owners.dedup();
                tk_assert_eq!(ring.partitions(), owners.len());
            }
        }
    }

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
