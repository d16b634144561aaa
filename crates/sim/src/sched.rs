//! Pending-event schedulers: the ordering contract behind the engine's
//! run loop, the timer wheel the engine runs on and the binary heap it
//! is checked against.
//!
//! The engine pops events in `(at, seq)` order — earliest virtual time
//! first, FIFO by a monotonic sequence number among equal timestamps.
//!
//! * [`WheelScheduler`] — the engine's queue: a hierarchical timer
//!   wheel (64 slots × 6 levels, 65.536 µs level-0 ticks, ~52 days of
//!   span) with a binary heap as the overflow level for far-future
//!   events. Push is `O(1)`, except that a push into the tick being
//!   drained is merge-inserted into its sorted bucket. The due level-0
//!   bucket is sorted once, and `pop_batch` hands the run loop each
//!   same-instant run of it in one call, so cost is independent of the
//!   standing event population.
//! * [`HeapScheduler`] — a plain `BinaryHeap`, `O(log n)` push/pop, on
//!   the trait's default `pop_batch`. The engine never runs on it: it is
//!   the reference order the wheel must reproduce **bit-for-bit**, call
//!   for call (`tests/sched_equiv.rs`).

use std::collections::BinaryHeap;
use std::collections::VecDeque;

use crate::time::SimTime;

/// A priority queue of `(at, seq, item)` entries popped in `(at, seq)`
/// lexicographic order: the contract [`WheelScheduler`] and its
/// reference [`HeapScheduler`] share. The heap runs the default
/// `pop_batch`; the wheel overrides it to hand out whole bucket runs.
///
/// `seq` values are unique and assigned in scheduling order by the
/// caller, so the order is total and equal-time entries pop FIFO.
/// `peek`/`pop` take `&mut self` because the wheel reorganises its
/// buckets lazily while searching for the next entry.
pub trait Scheduler<T> {
    /// Enqueues an entry. `at` must be at or after the time of the last
    /// popped entry; `seq` must be strictly greater than any previously
    /// pushed `seq`.
    fn push(&mut self, at: SimTime, seq: u64, item: T);

    /// Removes and returns the earliest entry.
    fn pop(&mut self) -> Option<(SimTime, u64, T)>;

    /// The `(at, seq)` of the earliest entry without removing it.
    fn peek(&mut self) -> Option<(SimTime, u64)>;

    /// Number of pending (pushed, not yet popped) entries.
    fn len(&self) -> usize;

    /// Whether no entries are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains up to `max` entries sharing the earliest timestamp into
    /// `out` (appending); returns how many were moved. The engine uses
    /// this to dispatch same-timestamp deliveries as one batch.
    fn pop_batch(&mut self, out: &mut Vec<(SimTime, u64, T)>, max: usize) -> usize {
        pop_each(self, out, max)
    }
}

/// The default `pop_batch`: one `peek` and one `pop` per entry.
fn pop_each<T, S: Scheduler<T> + ?Sized>(
    s: &mut S,
    out: &mut Vec<(SimTime, u64, T)>,
    max: usize,
) -> usize {
    let Some((t0, _)) = s.peek() else {
        return 0;
    };
    let mut n = 0;
    while n < max && s.peek().is_some_and(|(t, _)| t == t0) {
        out.push(s.pop().expect("peeked entry exists"));
        n += 1;
    }
    n
}

/// An entry ordered for a max-`BinaryHeap` so that the smallest
/// `(at, seq)` surfaces first.
struct HeapEntry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we need earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The `BinaryHeap` reference implementation the wheel is checked
/// against. The engine never runs on it.
pub struct HeapScheduler<T> {
    heap: BinaryHeap<HeapEntry<T>>,
}

impl<T> HeapScheduler<T> {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        HeapScheduler {
            heap: BinaryHeap::new(),
        }
    }
}

impl<T> Default for HeapScheduler<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Scheduler<T> for HeapScheduler<T> {
    fn push(&mut self, at: SimTime, seq: u64, item: T) {
        self.heap.push(HeapEntry { at, seq, item });
    }

    fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        let e = self.heap.pop()?;
        Some((e.at, e.seq, e.item))
    }

    fn peek(&mut self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|e| (e.at, e.seq))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Level-0 tick width: `2^16` ns = 65.536 µs.
const TICK_BITS: u32 = 16;
/// Bits per wheel level (64 slots each).
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Wheel levels; spans `2^(16 + 6·6)` ns ≈ 52 days before the overflow
/// heap takes over.
const LEVELS: usize = 6;

struct WheelEntry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

struct Level<T> {
    /// Bit `i` set iff `slots[i]` is non-empty.
    occupied: u64,
    slots: Vec<Vec<WheelEntry<T>>>,
}

impl<T> Level<T> {
    fn new() -> Self {
        Level {
            occupied: 0,
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
        }
    }
}

/// A hashed hierarchical timer wheel with a binary-heap overflow level.
///
/// Entries within the wheel's span land in a slot chosen by the highest
/// 6-bit digit in which their tick differs from the cursor; slots
/// cascade to lower levels as the cursor enters their window, and the
/// level-0 bucket due next is sorted by `(at, seq)` once, in place, and
/// drained in order. Entries further out than the wheel's span (≈52 days
/// of virtual time) wait in a binary heap and are merged at pop time, so
/// ordering holds over the full `SimTime` range.
pub struct WheelScheduler<T> {
    levels: Vec<Level<T>>,
    /// Wheel cursor in level-0 ticks. Invariant: no pending wheel entry
    /// has a tick below it.
    now_tick: u64,
    /// The sorted, partially drained bucket for tick `now_tick`.
    current: VecDeque<WheelEntry<T>>,
    overflow: BinaryHeap<HeapEntry<T>>,
    live: usize,
}

enum Src {
    Wheel,
    Overflow,
}

impl<T> WheelScheduler<T> {
    /// Creates an empty scheduler with its cursor at t = 0.
    pub fn new() -> Self {
        WheelScheduler {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            now_tick: 0,
            current: VecDeque::new(),
            overflow: BinaryHeap::new(),
            live: 0,
        }
    }

    fn tick_of(at: SimTime) -> u64 {
        at.as_nanos() >> TICK_BITS
    }

    /// Files an entry into the current bucket, a wheel slot or the
    /// overflow heap. Does not touch `live`.
    fn place(&mut self, e: WheelEntry<T>) {
        let t = Self::tick_of(e.at);
        if t <= self.now_tick {
            // Due in the tick being drained right now — or earlier: after
            // popping an overflow entry that precedes every wheel entry,
            // the caller may push relative to that earlier time, behind
            // the cursor. Both cases go into the sorted drain buffer,
            // which is always consulted before the wheel (new seqs sort
            // after equal-(at) entries already pending, preserving FIFO
            // ties).
            let key = (e.at, e.seq);
            let i = self.current.partition_point(|x| (x.at, x.seq) < key);
            self.current.insert(i, e);
            return;
        }
        let xor = t ^ self.now_tick;
        let lvl = ((63 - xor.leading_zeros()) / LEVEL_BITS) as usize;
        if lvl >= LEVELS {
            self.overflow.push(HeapEntry {
                at: e.at,
                seq: e.seq,
                item: e.item,
            });
            return;
        }
        let slot = ((t >> (LEVEL_BITS * lvl as u32)) & (SLOTS as u64 - 1)) as usize;
        self.levels[lvl].slots[slot].push(e);
        self.levels[lvl].occupied |= 1u64 << slot;
    }

    /// Advances the cursor until `current` holds the wheel's next
    /// pending entries (or returns with the wheel structurally empty).
    fn ensure_current(&mut self) {
        while self.current.is_empty() {
            let mut progressed = false;
            for lvl in 0..LEVELS {
                let cursor =
                    ((self.now_tick >> (LEVEL_BITS * lvl as u32)) & (SLOTS as u64 - 1)) as u32;
                let bits = self.levels[lvl].occupied & (u64::MAX << cursor);
                if bits == 0 {
                    continue;
                }
                let slot = bits.trailing_zeros() as usize;
                self.levels[lvl].occupied &= !(1u64 << slot);
                let mut bucket = std::mem::take(&mut self.levels[lvl].slots[slot]);
                if lvl == 0 {
                    // The due bucket: advance to its tick, sort it in place
                    // and swap it in as `current`; the empty drain buffer's
                    // allocation goes back to the slot.
                    self.now_tick = (self.now_tick & !(SLOTS as u64 - 1)) | slot as u64;
                    bucket.sort_unstable_by_key(|e| (e.at, e.seq));
                    let drained = std::mem::replace(&mut self.current, VecDeque::from(bucket));
                    bucket = Vec::from(drained);
                } else {
                    // Enter the slot's window (zeroing all lower digits —
                    // lower levels were empty, so nothing is skipped) and
                    // cascade its entries down.
                    let width = LEVEL_BITS * lvl as u32;
                    if slot as u32 > cursor {
                        let span_mask = (1u64 << (width + LEVEL_BITS)) - 1;
                        self.now_tick = (self.now_tick & !span_mask) | ((slot as u64) << width);
                    }
                    for e in bucket.drain(..) {
                        self.place(e);
                    }
                }
                self.levels[lvl].slots[slot] = bucket; // keep the allocation
                progressed = true;
                break;
            }
            if !progressed {
                return; // wheel empty (overflow may still hold entries)
            }
        }
    }

    /// Reports where the earliest pending entry sits.
    fn head_source(&mut self) -> Option<Src> {
        self.ensure_current();
        match (self.current.front(), self.overflow.peek()) {
            (None, None) => None,
            (Some(_), None) => Some(Src::Wheel),
            (None, Some(_)) => Some(Src::Overflow),
            (Some(w), Some(o)) => {
                if (w.at, w.seq) <= (o.at, o.seq) {
                    Some(Src::Wheel)
                } else {
                    Some(Src::Overflow)
                }
            }
        }
    }

    fn wheel_structurally_empty(&self) -> bool {
        self.current.is_empty() && self.levels.iter().all(|l| l.occupied == 0)
    }
}

impl<T> Default for WheelScheduler<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Scheduler<T> for WheelScheduler<T> {
    fn push(&mut self, at: SimTime, seq: u64, item: T) {
        self.place(WheelEntry { at, seq, item });
        self.live += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        match self.head_source()? {
            Src::Wheel => {
                let e = self.current.pop_front().expect("head exists");
                self.live -= 1;
                Some((e.at, e.seq, e.item))
            }
            Src::Overflow => {
                let e = self.overflow.pop().expect("head exists");
                // With the wheel empty the cursor may fast-forward to the
                // popped time, so later pushes land in low levels again
                // instead of degenerating into the overflow heap.
                if self.wheel_structurally_empty() {
                    self.now_tick = self.now_tick.max(Self::tick_of(e.at));
                }
                self.live -= 1;
                Some((e.at, e.seq, e.item))
            }
        }
    }

    fn peek(&mut self) -> Option<(SimTime, u64)> {
        match self.head_source()? {
            Src::Wheel => self.current.front().map(|e| (e.at, e.seq)),
            Src::Overflow => self.overflow.peek().map(|e| (e.at, e.seq)),
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    /// When the wheel holds the head, pops its whole same-instant run
    /// straight off the front of the sorted `current`. The overflow
    /// heap holds nothing at that instant: its entries there were pushed
    /// before the cursor came within the wheel's span of it, so they carry
    /// the instant's lowest seqs and would lead. When the overflow heap
    /// leads, the default `peek`/`pop` step merges the two sources by seq.
    fn pop_batch(&mut self, out: &mut Vec<(SimTime, u64, T)>, max: usize) -> usize {
        let Some(Src::Wheel) = self.head_source() else {
            return pop_each(self, out, max);
        };
        let t0 = self.current[0].at;
        debug_assert!(self.overflow.peek().is_none_or(|o| o.at != t0));
        let mut n = 0;
        while n < max && self.current.front().is_some_and(|e| e.at == t0) {
            let e = self.current.pop_front().expect("front exists");
            out.push((e.at, e.seq, e.item));
            n += 1;
        }
        self.live -= n;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg32;
    use std::time::Duration;

    fn drain<T>(s: &mut dyn Scheduler<T>) -> Vec<(SimTime, u64)> {
        let mut out = Vec::new();
        while let Some((at, seq, _)) = s.pop() {
            out.push((at, seq));
        }
        out
    }

    /// Pushes the same pseudo-random schedule into both schedulers and
    /// checks identical pop order, with pops interleaved into pushes so
    /// the wheel's cursor advances mid-stream.
    #[test]
    fn wheel_matches_heap_on_mixed_horizons() {
        let mut heap: HeapScheduler<u64> = HeapScheduler::new();
        let mut wheel: WheelScheduler<u64> = WheelScheduler::new();
        let mut rng = Pcg32::new(0x57ED);
        let mut now = SimTime::ZERO;
        let mut seq = 0u64;
        let mut heap_out = Vec::new();
        let mut wheel_out = Vec::new();
        for round in 0..2_000u64 {
            // Delays spanning every level plus the overflow heap.
            let delay_ns = match rng.below(8) {
                0 => 0,
                1 => rng.below(1 << 10),
                2 => rng.below(1 << 18),
                3 => rng.below(1 << 26),
                4 => rng.below(1 << 34),
                5 => rng.below(1 << 42),
                6 => rng.below(1 << 50),
                _ => u64::MAX / 2 + rng.below(1 << 40),
            };
            let at = SimTime::from_nanos(now.as_nanos().saturating_add(delay_ns));
            seq += 1;
            heap.push(at, seq, round);
            wheel.push(at, seq, round);
            if rng.below(3) == 0 {
                let h = heap.pop();
                let w = wheel.pop();
                assert_eq!(h, w);
                if let Some((at, seq, _)) = h {
                    now = at;
                    heap_out.push((at, seq));
                    wheel_out.push((at, seq));
                }
            }
        }
        heap_out.extend(drain(&mut heap));
        wheel_out.extend(drain(&mut wheel));
        assert_eq!(heap_out, wheel_out);
        assert_eq!(heap_out.len(), 2_000);
    }

    #[test]
    fn same_tick_entries_pop_fifo_by_seq() {
        let mut wheel: WheelScheduler<&'static str> = WheelScheduler::new();
        let t = SimTime::from_millis(5);
        wheel.push(t, 1, "a");
        wheel.push(t, 2, "b");
        // A nanosecond earlier inside the same level-0 tick must still
        // pop first despite the later seq.
        wheel.push(SimTime::from_nanos(t.as_nanos() - 1), 3, "c");
        assert_eq!(wheel.pop().map(|e| e.2), Some("c"));
        assert_eq!(wheel.pop().map(|e| e.2), Some("a"));
        assert_eq!(wheel.pop().map(|e| e.2), Some("b"));
        assert!(wheel.pop().is_none());
    }

    #[test]
    fn push_at_current_time_during_drain_keeps_order() {
        let mut wheel: WheelScheduler<u32> = WheelScheduler::new();
        let t = SimTime::from_millis(1);
        wheel.push(t, 1, 10);
        wheel.push(t, 2, 20);
        assert_eq!(wheel.pop().map(|e| e.2), Some(10));
        // Scheduled "during delivery" at the same timestamp: must pop
        // after the already-pending seq 2 but before any later time.
        wheel.push(t, 3, 30);
        wheel.push(t + Duration::from_nanos(1), 4, 40);
        assert_eq!(wheel.pop().map(|e| e.2), Some(20));
        assert_eq!(wheel.pop().map(|e| e.2), Some(30));
        assert_eq!(wheel.pop().map(|e| e.2), Some(40));
    }

    fn both_impls() -> [Box<dyn Scheduler<u32>>; 2] {
        [
            Box::new(HeapScheduler::new()),
            Box::new(WheelScheduler::new()),
        ]
    }

    #[test]
    fn overflow_level_merges_with_wheel_order() {
        let mut wheel: WheelScheduler<u32> = WheelScheduler::new();
        let far = SimTime::from_secs(90 * 24 * 3600); // beyond the wheel span
        wheel.push(far, 1, 1);
        wheel.push(SimTime::from_secs(1), 2, 2);
        assert_eq!(wheel.peek(), Some((SimTime::from_secs(1), 2)));
        assert_eq!(wheel.pop().map(|e| e.2), Some(2));
        assert_eq!(wheel.pop().map(|e| e.2), Some(1));
        // After the overflow pop the cursor fast-forwarded: a short
        // relative delay lands in the wheel, not the overflow heap.
        wheel.push(far + Duration::from_millis(1), 3, 3);
        assert!(wheel.overflow.is_empty());
        assert_eq!(wheel.pop().map(|e| e.2), Some(3));
    }

    /// The ordering hazard the sorted `current` buffer exists for: an
    /// overflow pop earlier than pending wheel entries, followed by a
    /// push relative to that earlier time (behind the cursor).
    #[test]
    fn overflow_pop_then_push_behind_cursor_keeps_order() {
        let mut wheel: WheelScheduler<u32> = WheelScheduler::new();
        let day = |d: u64| SimTime::from_secs(d * 24 * 3600);
        wheel.push(day(60), 1, 1);
        assert_eq!(wheel.pop().map(|e| e.2), Some(1)); // cursor ≈ day 60
        wheel.push(day(113), 2, 2); // 53 days out: overflow heap
        assert!(!wheel.overflow.is_empty());
        // Pushed later, lands in the wheel. The global min is still the
        // overflow entry; the wheel is non-empty, and peeking advances
        // the cursor to day 114's window.
        wheel.push(day(114), 3, 3);
        assert_eq!(wheel.pop(), Some((day(113), 2, 2)));
        // Scheduling shortly after the popped time is now behind the
        // cursor — it must still pop before the day-114 wheel entry.
        wheel.push(day(113) + Duration::from_millis(1), 4, 4);
        assert_eq!(wheel.pop().map(|e| e.2), Some(4));
        assert_eq!(wheel.pop().map(|e| e.2), Some(3));
        assert!(wheel.is_empty());
    }

    #[test]
    fn pop_batch_takes_equal_timestamps_only() {
        for mut s in both_impls() {
            let t = SimTime::from_millis(7);
            s.push(t, 1, 1);
            s.push(t, 2, 2);
            s.push(t + Duration::from_millis(1), 3, 3);
            let mut out = Vec::new();
            assert_eq!(s.pop_batch(&mut out, 10), 2);
            assert_eq!(out.iter().map(|e| e.2).collect::<Vec<_>>(), vec![1, 2]);
            out.clear();
            assert_eq!(s.pop_batch(&mut out, 10), 1);
            assert_eq!(out[0].2, 3);
            assert_eq!(s.pop_batch(&mut out, 10), 0);
        }
    }

    fn seqs(out: &[(SimTime, u64, u32)]) -> Vec<u64> {
        out.iter().map(|e| e.1).collect()
    }

    /// A `max` below the same-instant run's length (the engine's
    /// event-cap budget) splits it: the next call resumes at the next
    /// seq, with nothing lost or popped twice.
    #[test]
    fn pop_batch_resumes_a_capped_run_at_the_next_seq() {
        for mut s in both_impls() {
            let t = SimTime::from_millis(7);
            for i in 1..=5 {
                s.push(t, i, i as u32);
            }
            s.push(t + Duration::from_nanos(1), 6, 6);
            let mut out = Vec::new();
            assert_eq!(s.pop_batch(&mut out, 3), 3);
            assert_eq!(s.len(), 3);
            assert_eq!(s.pop_batch(&mut out, 1), 1);
            assert_eq!(s.pop_batch(&mut out, 10), 1);
            assert_eq!(seqs(&out), vec![1, 2, 3, 4, 5]);
            assert_eq!(s.pop_batch(&mut out, 10), 1);
            assert_eq!(seqs(&out), vec![1, 2, 3, 4, 5, 6]);
            assert!(s.is_empty());
        }
    }

    /// An entry scheduled at the batch's instant after `pop_batch`
    /// returns (a handler's zero-delay timer) comes out in the next
    /// batch, behind the entries still pending at that instant.
    #[test]
    fn push_at_the_batch_instant_joins_the_next_batch_in_seq_order() {
        for mut s in both_impls() {
            let t = SimTime::from_millis(3);
            for i in 1..=3 {
                s.push(t, i, i as u32);
            }
            let mut out = Vec::new();
            assert_eq!(s.pop_batch(&mut out, 2), 2);
            s.push(t, 4, 4);
            s.push(t + Duration::from_nanos(1), 5, 5);
            out.clear();
            assert_eq!(s.pop_batch(&mut out, 10), 2);
            assert_eq!(seqs(&out), vec![3, 4]);
            assert_eq!(s.len(), 1);
        }
    }
}
