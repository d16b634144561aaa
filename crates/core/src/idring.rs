//! [`IdRing`]: a map keyed by ids handed out in increasing order (the
//! front end's request, job, compute and nap ids, the worker stub's
//! service tokens). Slots indexed by `id - base` give O(1) insert, get
//! and remove and iteration in id order, as the `BTreeMap`s they replace
//! did, without a tree node per entry. Memory follows the span from the
//! oldest live id to the newest, so every entry must leave in bounded
//! time: one that never does pins every slot after it.

use std::collections::VecDeque;

/// A map from monotonically assigned `u64` ids to values.
pub(crate) struct IdRing<V> {
    /// Id of `slots[0]`, which is live unless the ring is empty.
    base: u64,
    slots: VecDeque<Option<V>>,
    len: usize,
}

impl<V> IdRing<V> {
    /// An empty ring.
    pub(crate) fn new() -> Self {
        IdRing {
            base: 0,
            slots: VecDeque::new(),
            len: 0,
        }
    }

    fn index(&self, id: u64) -> Option<usize> {
        let i = usize::try_from(id.checked_sub(self.base)?).ok()?;
        (i < self.slots.len()).then_some(i)
    }

    /// Inserts (or replaces) the value under `id`, which must not be
    /// below the oldest live id.
    pub(crate) fn insert(&mut self, id: u64, v: V) {
        if self.slots.is_empty() {
            self.base = id;
        }
        let i = id.checked_sub(self.base).expect("ids only grow") as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        self.len += usize::from(self.slots[i].replace(v).is_none());
    }

    /// The value under `id`.
    pub(crate) fn get(&self, id: u64) -> Option<&V> {
        self.slots[self.index(id)?].as_ref()
    }

    /// The value under `id`, mutably.
    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut V> {
        let i = self.index(id)?;
        self.slots[i].as_mut()
    }

    /// Removes the value under `id`, then releases freed slots at the
    /// front.
    pub(crate) fn remove(&mut self, id: u64) -> Option<V> {
        let i = self.index(id)?;
        let v = self.slots[i].take()?;
        self.len -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(v)
    }

    /// Live entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether no entry is live.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Live values in id order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::IdRing;
    use std::collections::BTreeMap;

    use sns_testkit::{gens, props, tk_assert_eq};

    props! {
        /// Over any run of monotone inserts (with gaps), removes and
        /// lookups, the ring answers exactly as a `BTreeMap` would, and
        /// iterates in the same (id) order.
        fn id_ring_matches_a_btree_map(words in gens::vec(gens::any_u64(), 1..300)) {
            let mut ring = IdRing::new();
            let mut oracle = BTreeMap::new();
            let mut next = 1u64;
            for w in words {
                let arg = w >> 8;
                match w % 4 {
                    0 | 1 => {
                        next += arg % 3; // ids may skip
                        ring.insert(next, w);
                        oracle.insert(next, w);
                        next += 1;
                    }
                    2 => {
                        let id = next.saturating_sub(arg % 12);
                        tk_assert_eq!(ring.remove(id), oracle.remove(&id));
                    }
                    _ => {
                        let id = next.saturating_sub(arg % 12);
                        tk_assert_eq!(ring.get(id), oracle.get(&id));
                        if let Some(v) = ring.get_mut(id) {
                            *v ^= 1;
                        }
                        if let Some(v) = oracle.get_mut(&id) {
                            *v ^= 1;
                        }
                    }
                }
                tk_assert_eq!(ring.len(), oracle.len());
                tk_assert_eq!(ring.is_empty(), oracle.is_empty());
                for (&id, v) in &oracle {
                    tk_assert_eq!(ring.get(id), Some(v));
                }
                tk_assert_eq!(
                    ring.values().copied().collect::<Vec<_>>(),
                    oracle.values().copied().collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn freed_front_slots_are_released() {
        let mut ring = IdRing::new();
        for id in 1..=100u64 {
            ring.insert(id, id);
        }
        for id in 1..=99u64 {
            ring.remove(id);
        }
        assert_eq!(ring.slots.len(), 1, "only the last live id is held");
        ring.remove(100);
        assert!(ring.slots.is_empty());
        ring.insert(1_000_000, 0);
        assert_eq!(ring.slots.len(), 1, "an empty ring restarts at any id");
    }
}
