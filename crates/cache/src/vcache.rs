//! The single **virtual cache** over many partitions (§3.1.5).
//!
//! Front ends (through the manager stub) see one logical cache; this
//! directory maps each key to the partition that owns it, supports sibling
//! lookups, and re-hashes minimally as partitions come and go (e.g. when
//! the manager restarts a crashed cache worker on a different node).

use crate::ring::HashRing;
use crate::CacheKey;

/// Directory of cache partitions behind a single logical cache.
#[derive(Debug, Clone)]
pub struct VirtualCache<P> {
    ring: HashRing<P>,
    members: Vec<P>,
}

impl<P: Clone + Ord + std::fmt::Debug> VirtualCache<P> {
    /// Creates an empty virtual cache.
    pub fn new() -> Self {
        VirtualCache {
            ring: HashRing::new(),
            members: Vec::new(),
        }
    }

    /// Adds a partition (idempotent).
    pub fn add_partition(&mut self, p: P) {
        if !self.members.contains(&p) {
            self.ring.add(p.clone());
            self.members.push(p);
            self.members.sort();
        }
    }

    /// Removes a partition (idempotent). Keys it owned re-hash to the
    /// survivors; their cached contents are simply lost (BASE).
    pub fn remove_partition(&mut self, p: &P) {
        if let Some(i) = self.members.iter().position(|m| m == p) {
            self.members.remove(i);
            self.ring.remove(p);
        }
    }

    /// Current partition membership (sorted).
    pub fn partitions(&self) -> &[P] {
        &self.members
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether no partitions are registered.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The partition owning `key`, if any partitions exist.
    pub fn route(&self, key: &CacheKey) -> Option<&P> {
        self.ring.lookup(key.placement_hash())
    }

    /// Fraction of a sampled key population whose owner changes if `p`
    /// were removed; used by tests and the monitor to predict re-hash
    /// impact.
    pub fn removal_impact(&self, p: &P, sample_urls: &[String]) -> f64 {
        if sample_urls.is_empty() {
            return 0.0;
        }
        let moved = sample_urls
            .iter()
            .filter(|u| self.route(&CacheKey::original(u.as_str())) == Some(p))
            .count();
        moved as f64 / sample_urls.len() as f64
    }
}

impl<P: Clone + Ord + std::fmt::Debug> Default for VirtualCache<P> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_is_stable_for_same_key() {
        let mut vc = VirtualCache::new();
        for p in 0..4u32 {
            vc.add_partition(p);
        }
        let k = CacheKey::original("http://a/b");
        assert_eq!(vc.route(&k), vc.route(&k));
    }

    #[test]
    fn add_remove_membership() {
        let mut vc = VirtualCache::new();
        vc.add_partition(1u32);
        vc.add_partition(1u32);
        assert_eq!(vc.len(), 1);
        vc.add_partition(2);
        assert_eq!(vc.partitions(), &[1, 2]);
        vc.remove_partition(&1);
        assert_eq!(vc.partitions(), &[2]);
        vc.remove_partition(&1);
        assert_eq!(vc.len(), 1);
    }

    #[test]
    fn empty_routes_none() {
        let vc: VirtualCache<u32> = VirtualCache::new();
        assert!(vc.route(&CacheKey::original("x")).is_none());
    }

    #[test]
    fn removal_impact_is_partition_share() {
        let mut vc = VirtualCache::new();
        for p in 0..4u32 {
            vc.add_partition(p);
        }
        let urls: Vec<String> = (0..4000).map(|i| format!("http://h/{i}")).collect();
        let total: f64 = (0..4u32).map(|p| vc.removal_impact(&p, &urls)).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares must sum to 1");
        for p in 0..4u32 {
            let share = vc.removal_impact(&p, &urls);
            assert!((share - 0.25).abs() < 0.12, "share {share} for {p}");
        }
    }

    #[test]
    fn variants_route_together() {
        let mut vc = VirtualCache::new();
        for p in 0..8u32 {
            vc.add_partition(p);
        }
        for i in 0..100 {
            let url = format!("http://h/{i}");
            let orig = vc.route(&CacheKey::original(&url)).copied();
            let var = vc.route(&CacheKey::variant(&url, 7)).copied();
            assert_eq!(orig, var);
        }
    }
}
