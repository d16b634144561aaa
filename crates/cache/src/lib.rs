//! # sns-cache — Harvest-like object caching for the SNS architecture
//!
//! The paper runs Harvest object caches on dedicated nodes (§3.1.5) and
//! has the manager stub treat a set of cache nodes as a **single virtual
//! cache**, hashing the key space across partitions and re-hashing when
//! nodes are added or removed. This crate provides:
//!
//! * [`lru::LruCache`] — a byte-capacity LRU object store with TTLs, the
//!   per-partition storage engine;
//! * [`ring::HashRing`] — the consistent-hash ring the virtual cache uses
//!   so that partition changes move a minimal fraction of keys;
//! * [`vcache::VirtualCache`] — the partition directory (key → partition);
//! * [`simulator`] — a trace-driven hit-rate simulator reproducing the
//!   §4.4 cache-size / user-population study;
//! * [`timing::CacheTiming`] — the §4.4 service-time model (27 ms mean
//!   hit, of which 15 ms is TCP connection overhead; heavy-tailed miss
//!   penalty of 100 ms – 100 s).
//!
//! Everything cached is **BASE data** (§3.1.5): "all cached data can be
//! thrown away at the cost of performance". There is deliberately no
//! persistence and no coherence protocol; distilled variants are
//! regenerable by computation.

#![warn(missing_docs)]

pub mod lru;
pub mod ring;
pub mod simulator;
pub mod timing;
pub mod vcache;

pub use lru::{LruCache, Weighted};
pub use ring::HashRing;
pub use simulator::{CacheSim, CacheSimReport};
pub use timing::CacheTiming;
pub use vcache::VirtualCache;

/// Placement hashing is FNV-1a: stable across platforms and releases,
/// so placement does not move under a rustc upgrade.
pub use sns_sim::hash::fnv1a;

/// A cache key: the object URL plus a variant discriminator.
///
/// Variant 0 is the original object; non-zero variants identify
/// post-transformation representations (hash of the distillation
/// parameters), letting TranSend cache original, intermediate and
/// distilled content side by side (§2.3).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// Source object identifier (URL).
    pub url: String,
    /// Transformation-variant discriminator (0 = original).
    pub variant: u64,
}

impl CacheKey {
    /// Key for an original (untransformed) object.
    pub fn original(url: impl Into<String>) -> Self {
        CacheKey {
            url: url.into(),
            variant: 0,
        }
    }

    /// Key for a transformed variant of an object.
    pub fn variant(url: impl Into<String>, variant: u64) -> Self {
        CacheKey {
            url: url.into(),
            variant,
        }
    }

    /// Stable 64-bit hash used for partition placement. Only the URL is
    /// hashed so all variants of an object live on the same partition
    /// (locality for "reload gets the distilled version", §3.1.8).
    pub fn placement_hash(&self) -> u64 {
        fnv1a(self.url.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_share_placement() {
        let a = CacheKey::original("http://x/y.gif");
        let b = CacheKey::variant("http://x/y.gif", 42);
        assert_eq!(a.placement_hash(), b.placement_hash());
        assert_ne!(a, b);
    }
}
