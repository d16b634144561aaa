//! The heap oracle: the engine's timer wheel must produce the same pop
//! order — `(time, seq, item)` — as the reference `BinaryHeap` for any
//! operation sequence, through every queue call the engine makes
//! (`push`, `peek`, `pop_batch`). Failures shrink to a minimal divergent
//! op sequence via the testkit's choice-stream shrinking.

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
    /// Cancel the k-th currently pending entry (skipped when none).
    Cancel { k: usize },
    /// Pop once and compare both schedulers.
    Pop,
    /// Drain up to `max` equal-timestamp entries, as the run loop does.
    PopBatch { max: usize },
    /// `every_until`-shaped burst: `n` entries at a fixed period.
    Burst { n: u64, period: u64 },
}

fn decode(word: u64) -> Op {
    // Delays span every wheel level and the overflow heap: an exponent
    // up to 2^53 ns crosses the ~2^52 ns wheel span.
    let delay = |w: u64| {
        let exp = (w >> 8) % 54;
        (w >> 16) % (1u64 << exp).max(1)
    };
    match word % 8 {
        0..=2 => Op::Push { delay: delay(word) },
        3 => Op::Cancel {
            k: (word >> 3) as usize,
        },
        4..=5 => Op::Pop,
        6 => Op::Burst {
            n: 2 + (word >> 3) % 12,
            period: 1 + delay(word >> 7) % 1_000_000_000,
        },
        _ => Op::PopBatch {
            max: 1 + (word >> 3) as usize % 8,
        },
    }
}

props! {
    /// Identical `(time, seq, item)` pop order for arbitrary
    /// schedule/cancel/burst sequences across both implementations.
    fn heap_and_wheel_pop_identically(
        words in gens::vec(gens::any_u64(), 1..120),
    ) {
        let mut heap: HeapScheduler<u64> = HeapScheduler::new();
        let mut wheel: WheelScheduler<u64> = WheelScheduler::new();
        let mut pending: Vec<u64> = Vec::new(); // live seqs, push order
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
                    pending.push(seq);
                }
                Op::Cancel { k } => {
                    if !pending.is_empty() {
                        let victim = pending.remove(k % pending.len());
                        heap.cancel(victim);
                        wheel.cancel(victim);
                    }
                }
                Op::Pop => {
                    tk_assert_eq!(heap.peek(), wheel.peek());
                    let h = heap.pop();
                    let w = wheel.pop();
                    tk_assert_eq!(h, w);
                    if let Some((at, s, _)) = h {
                        now = at;
                        pending.retain(|&p| p != s);
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
                        pending.retain(|&p| p != s);
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
                        pending.push(seq);
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
