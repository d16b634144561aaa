//! The heap oracle: the engine's timer wheel must produce the same pop
//! order — `(time, seq, item)` — as the reference `BinaryHeap` for any
//! operation sequence, through every queue call the engine makes
//! (`push`, `peek`, `pop_batch`). Failures shrink to a minimal divergent
//! op sequence via the testkit's choice-stream shrinking.
//!
//! The wheel's `pop_batch` drains a same-instant run straight out of its
//! sorted bucket, and merges by seq only when the overflow heap leads.
//! The `Instant`/`Again` ops below build the case where one instant's
//! entries sit in both: entries parked in the overflow heap, then more at
//! the same instant once the cursor has come within the wheel's span.

use std::time::Duration;

use sns_testkit::{gens, props, tk_assert, tk_assert_eq};

use sns_sim::engine::{Component, Ctx, NodeSpec, Sim, SimConfig, Wire};
use sns_sim::network::IdealNetwork;
use sns_sim::sched::{HeapScheduler, Scheduler, WheelScheduler};
use sns_sim::time::SimTime;
use sns_sim::ComponentId;

#[derive(Clone)]
struct Nop;
impl Wire for Nop {
    fn wire_size(&self) -> u64 {
        8
    }
}

/// One scheduler-level operation, decoded from a raw generator word so
/// the whole sequence shrinks as a flat `Vec<u64>`.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push one entry `delay` ns after the last popped time.
    Push { delay: u64 },
    /// Push `n` entries at one instant `delay` ns after the last popped
    /// time, and remember the instant.
    Instant { n: u64, delay: u64 },
    /// Push one more entry at the k-th remembered instant, unless it is
    /// already past.
    Again { k: usize },
    /// Pop once and compare both schedulers.
    Pop,
    /// Drain up to `max` equal-timestamp entries, as the run loop does.
    PopBatch { max: usize },
    /// `every_until`-shaped burst: `n` entries at a fixed period.
    Burst { n: u64, period: u64 },
    /// `n` > 64 entries at distinct instants, pushed out of time order,
    /// inside one `2^bits` ns window aligned at or after `delay` ns past
    /// the last popped time: one slot holds several chunks, and so does
    /// each slot it cascades into, down to the due bucket when the window
    /// is one level-0 tick.
    Flood { n: u64, bits: u32, delay: u64 },
}

fn decode(word: u64) -> Op {
    // Delays span every wheel level and the overflow heap: an exponent
    // up to 2^53 ns crosses the ~2^52 ns wheel span.
    let delay = |w: u64| {
        let exp = (w >> 8) % 54;
        (w >> 16) % (1u64 << exp).max(1)
    };
    match word % 11 {
        0..=2 => Op::Push { delay: delay(word) },
        3 => Op::Instant {
            n: 1 + (word >> 4) % 4,
            // Half the time just past the ~2^52 ns wheel span, so the
            // entries start out in the overflow heap.
            delay: if word & 8 == 0 {
                delay(word)
            } else {
                (1 << 52) + (word >> 8) % (1 << 40)
            },
        },
        4 => Op::Again {
            k: (word >> 4) as usize,
        },
        5..=6 => Op::Pop,
        7 => Op::Burst {
            n: 2 + (word >> 3) % 12,
            period: 1 + delay(word >> 7) % 1_000_000_000,
        },
        10 => Op::Flood {
            n: 65 + (word >> 4) % 236,
            // A level-0 tick (2^16 ns) up to a level-5 slot (2^46 ns).
            bits: 16 + 6 * ((word >> 12) % 6) as u32,
            delay: delay(word >> 15),
        },
        _ => Op::PopBatch {
            max: 1 + (word >> 3) as usize % 8,
        },
    }
}

props! {
    /// Identical `(time, seq, item)` pop order for arbitrary
    /// schedule/burst/pop sequences across both implementations.
    fn heap_and_wheel_pop_identically(
        words in gens::vec(gens::any_u64(), 1..120),
    ) {
        let mut heap: HeapScheduler<u64> = HeapScheduler::new();
        let mut wheel: WheelScheduler<u64> = WheelScheduler::new();
        let mut instants: Vec<SimTime> = Vec::new();
        let mut seq = 0u64;
        let mut now = SimTime::ZERO;
        let mut popped = Vec::new();
        for (i, &word) in words.iter().enumerate() {
            match decode(word) {
                Op::Push { delay } => {
                    let at = SimTime::from_nanos(now.as_nanos().saturating_add(delay));
                    seq += 1;
                    heap.push(at, seq, word ^ i as u64);
                    wheel.push(at, seq, word ^ i as u64);
                }
                Op::Instant { n, delay } => {
                    let at = SimTime::from_nanos(now.as_nanos().saturating_add(delay));
                    for j in 0..n {
                        seq += 1;
                        heap.push(at, seq, j);
                        wheel.push(at, seq, j);
                    }
                    instants.push(at);
                }
                Op::Again { k } => {
                    if let Some(&at) = instants.get(k % instants.len().max(1)) {
                        if at >= now {
                            seq += 1;
                            heap.push(at, seq, word);
                            wheel.push(at, seq, word);
                        }
                    }
                }
                Op::Pop => {
                    tk_assert_eq!(heap.peek(), wheel.peek());
                    let h = heap.pop();
                    let w = wheel.pop();
                    tk_assert_eq!(h, w);
                    if let Some((at, s, _)) = h {
                        now = at;
                        popped.push((at, s));
                    }
                }
                Op::PopBatch { max } => {
                    let (mut h, mut w) = (Vec::new(), Vec::new());
                    let n = heap.pop_batch(&mut h, max);
                    tk_assert_eq!(n, wheel.pop_batch(&mut w, max));
                    tk_assert_eq!(h, w);
                    for &(at, s, _) in &h {
                        now = at;
                        popped.push((at, s));
                    }
                }
                Op::Burst { n, period } => {
                    for j in 1..=n {
                        let at = SimTime::from_nanos(
                            now.as_nanos().saturating_add(j.saturating_mul(period)),
                        );
                        seq += 1;
                        heap.push(at, seq, j);
                        wheel.push(at, seq, j);
                    }
                }
                Op::Flood { n, bits, delay } => {
                    let mask = (1u64 << bits) - 1;
                    let start = now.as_nanos().saturating_add(delay).saturating_add(mask) & !mask;
                    let step = (1u64 << bits) / n;
                    for i in 0..n {
                        // 7919 is a prime above 300: `i ↦ i·7919 mod n`
                        // permutes the window's instants.
                        let at = SimTime::from_nanos(start.saturating_add(i * 7919 % n * step));
                        seq += 1;
                        heap.push(at, seq, i);
                        wheel.push(at, seq, i);
                    }
                }
            }
            tk_assert_eq!(heap.len(), wheel.len());
        }
        // Drain both to the end.
        loop {
            let h = heap.pop();
            let w = wheel.pop();
            tk_assert_eq!(h, w);
            let Some((at, s, _)) = h else { break };
            popped.push((at, s));
        }
        tk_assert!(heap.is_empty() && wheel.is_empty());
        // The merged pop order is (time, seq)-sorted: times never
        // decrease, and equal times pop FIFO by seq.
        tk_assert!(popped.windows(2).all(|p| {
            p[0].0 < p[1].0 || (p[0].0 == p[1].0 && p[0].1 < p[1].1)
        }));
    }
}

/// Regression: one instant's entries split between the overflow heap
/// and the wheel must still pop by seq within one `pop_batch`.
#[test]
fn pop_batch_merges_overflow_and_wheel_at_one_instant() {
    let day = |d: u64| SimTime::from_secs(d * 24 * 3600);
    let mut heap: HeapScheduler<u64> = HeapScheduler::new();
    let mut wheel: WheelScheduler<u64> = WheelScheduler::new();
    // Day 100 and day 60 are both past the ~52-day wheel span: overflow.
    for (at, seq) in [(day(100), 1), (day(100), 2), (day(60), 3)] {
        heap.push(at, seq, seq);
        wheel.push(at, seq, seq);
    }
    // The wheel is empty, so popping day 60 fast-forwards its cursor ...
    assert_eq!(heap.pop(), Some((day(60), 3, 3)));
    assert_eq!(wheel.pop(), Some((day(60), 3, 3)));
    // ... and day 100 is now within span: seq 4 lands in the wheel.
    heap.push(day(100), 4, 4);
    wheel.push(day(100), 4, 4);
    let (mut h, mut w) = (Vec::new(), Vec::new());
    assert_eq!(heap.pop_batch(&mut h, 10), 3);
    assert_eq!(wheel.pop_batch(&mut w, 10), 3);
    assert_eq!(h.iter().map(|e| e.1).collect::<Vec<_>>(), vec![1, 2, 4]);
    assert_eq!(w, h);
}

/// Regression: FIFO-by-seq at equal `SimTime`, including an event
/// scheduled *during* delivery at the current timestamp — the engine's
/// batched dispatch must slot it after everything already pending at
/// that time.
#[test]
fn same_timestamp_events_fire_fifo_including_mid_delivery_schedules() {
    struct Probe;
    impl Component<Nop> for Probe {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Nop>) {
            ctx.timer(Duration::from_millis(1), 0);
            ctx.timer(Duration::from_millis(1), 1);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, Nop>, _: ComponentId, _: Nop) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Nop>, token: u64) {
            let now = ctx.now();
            ctx.stats().sample("order", now, token as f64);
            if token == 0 {
                // Scheduled mid-delivery at the current timestamp: must
                // fire after token 1, which was already pending.
                ctx.timer(Duration::ZERO, 2);
            }
        }
    }
    let mut sim: Sim<Nop, IdealNetwork> = Sim::new(SimConfig::default(), IdealNetwork::default());
    let n = sim.add_node(NodeSpec::new(1, "d"));
    sim.spawn(n, Box::new(Probe), "probe");
    sim.run();
    let fired = sim.stats().series("order").unwrap().points().to_vec();
    let t = SimTime::from_millis(1);
    assert_eq!(
        fired,
        vec![(t, 0.0), (t, 1.0), (t, 2.0)],
        "same-timestamp events must fire FIFO by seq"
    );
}
