//! The workspace's two hashes: [`WordHasher`] for in-memory tables and
//! [`Fnv1a`] for hashes that must never change. A [`FastMap`] is
//! deterministic (nothing is seeded at random), but it iterates in hash
//! order: use one only where no iteration order reaches output.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A hash map keyed through [`WordHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// One multiply per 8-byte word (FxHash's step) instead of SipHash's
/// rounds. It gives up SipHash's resistance to crafted collisions, which
/// keys drawn from the simulation's own ids and names do not need.
#[derive(Default)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            self.write_u64(tail.iter().fold(0, |w, &b| w << 8 | u64::from(b)));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The table indexes by the low bits; the multiply mixes upward.
        self.0.rotate_left(26)
    }
}

/// FNV-1a, 64-bit, fed through [`Hasher::write`]: stable across
/// platforms and releases (unlike `DefaultHasher`), so cache placement,
/// trace uuids, test seeds and workload identities never move.
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of `bytes`.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        // Golden value: cache placement must never change between releases.
        assert_eq!(fnv1a(b"hello"), 0xa430d84680aabd0b);
        let mut h = Fnv1a::default();
        h.write(b"hel");
        h.write(b"lo");
        assert_eq!(h.finish(), fnv1a(b"hello"), "streaming equals one shot");
    }
}
