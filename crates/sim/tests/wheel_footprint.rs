//! The timer wheel's memory follows its pending count, not simulated
//! time.
//!
//! A standing population of 100 000 entries re-arms uniformly over
//! 0–1000 s, driven straight through the public `Scheduler` API for six
//! level-4 windows (2^40 ns ≈ 1 100 s each, ≈ 6 600 simulated s in
//! all), and a counting allocator tracks the live bytes this thread
//! holds and their peak. The peak must stay within 1.25 × pending ×
//! entry size plus one chunk per slot, and must not grow after the
//! first window by more than 1 %.
//!
//! The chunked wheel peaks at 2 618 368 bytes after the first window
//! (26.2 bytes per pending 24-byte entry) and at 2 624 576 after the
//! sixth. The pool's size is the running maximum of the chunks in use,
//! and that maximum of a fluctuating count still creeps up by a chunk
//! now and then (4 chunks, 0.24 %, here), so the check allows 1 % rather
//! than demanding equality. A wheel whose slots keep the largest fill
//! they have ever held peaked at 10 149 888 bytes after the first window
//! and grew by 3 145 760 bytes (31 %) with each window after it, to
//! 25 878 592 after the sixth. Run it with `--nocapture` to print the
//! figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sns_sim::rng::Pcg32;
use sns_sim::sched::{Scheduler, WheelScheduler};
use sns_sim::time::SimTime;

thread_local! {
    /// Bytes this thread holds and their peak. `const`-initialised
    /// `Cell`s need no lazy set-up, so counting never allocates.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// `System`, counting each allocation against the allocating thread:
/// the test harness's own threads do not disturb the measuring one.
struct Counting;

fn count(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method passes its arguments unchanged to `System`, so
// each caller's contract is `System`'s; counting only touches this
// thread's `const` cells, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const PENDING: u64 = 100_000;
/// Re-arm delays are uniform over `[0, HORIZON)`.
const HORIZON_NS: u64 = 1_000_000_000_000;
/// One level-4 slot: 2^(16 + 4·6) ns of virtual time.
const WINDOW_NS: u64 = 1 << 40;
const WINDOWS: u64 = 6;
/// Wheel slots: 64 on each of 6 levels.
const SLOTS: u64 = 64 * 6;
/// Entries per chunk of slot storage.
const CHUNK: u64 = 64;

#[test]
fn the_wheel_footprint_follows_its_pending_count_not_simulated_time() {
    let entry = std::mem::size_of::<(SimTime, u64, u64)>() as u64;
    let bound = PENDING * entry * 5 / 4 + SLOTS * CHUNK * entry;
    let mut rng = Pcg32::new(7);
    let mut buf = Vec::with_capacity(1024);
    // Peaks count from what the thread holds before the wheel exists.
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));

    let mut wheel: WheelScheduler<u64> = WheelScheduler::new();
    let mut seq = 0;
    for item in 0..PENDING {
        seq += 1;
        wheel.push(SimTime::from_nanos(rng.below(HORIZON_NS)), seq, item);
    }
    let mut peaks = Vec::new();
    for window in 1..=WINDOWS {
        let end = SimTime::from_nanos(window * WINDOW_NS);
        while wheel.peek().is_some_and(|(at, _)| at < end) {
            wheel.pop_batch(&mut buf, usize::MAX);
            for (at, _, item) in buf.drain(..) {
                seq += 1;
                let next = SimTime::from_nanos(at.as_nanos() + rng.below(HORIZON_NS));
                wheel.push(next, seq, item);
            }
        }
        assert_eq!(wheel.len() as u64, PENDING);
        peaks.push((PEAK.with(Cell::get) - base) as u64);
    }
    let per_entry = *peaks.last().unwrap() as f64 / PENDING as f64;
    println!(
        "wheel_footprint: {per_entry:.1} bytes per pending entry of {entry} bytes \
         (peak after each window: {peaks:?}, bound {bound})"
    );
    for (i, &peak) in peaks.iter().enumerate() {
        assert!(
            peak <= bound,
            "window {}: peak {peak} bytes over the bound of {bound}",
            i + 1
        );
    }
    let (first, last) = (peaks[0], peaks[peaks.len() - 1]);
    assert!(
        last <= first + first / 100,
        "the footprint grew with simulated time: {peaks:?}"
    );
}
