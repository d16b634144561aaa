//! Property tests for the engine: timer ordering and clock monotonicity
//! under arbitrary schedules, deterministic replay, and statistics
//! invariants against naive recomputation.

use std::time::Duration;

use sns_testkit::{gens, props, tk_assert, tk_assert_eq, tk_assume};

use sns_sim::engine::{Component, Ctx, NodeSpec, Sim, SimConfig, Wire};
use sns_sim::network::IdealNetwork;
use sns_sim::stats::{StatsHub, Summary};
use sns_sim::time::SimTime;
use sns_sim::ComponentId;

#[derive(Clone)]
struct Nop;
impl Wire for Nop {
    fn wire_size(&self) -> u64 {
        8
    }
}

/// Records the (time, token) sequence its timers fire in.
struct TimerProbe {
    delays_ms: Vec<u64>,
}

impl Component<Nop> for TimerProbe {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Nop>) {
        for (i, &d) in self.delays_ms.iter().enumerate() {
            ctx.timer(Duration::from_millis(d), i as u64);
        }
    }
    fn on_message(&mut self, _: &mut Ctx<'_, Nop>, _: ComponentId, _: Nop) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Nop>, token: u64) {
        let now = ctx.now();
        ctx.stats().sample("fired", now, token as f64);
    }
}

props! {
    fn timers_fire_in_time_order_with_fifo_ties(
        delays in gens::vec(gens::u64_in(0..500), 1..40),
    ) {
        let mut sim: Sim<Nop, IdealNetwork> =
            Sim::new(SimConfig::default(), IdealNetwork::default());
        let n = sim.add_node(NodeSpec::new(1, "d"));
        sim.spawn(n, Box::new(TimerProbe { delays_ms: delays.clone() }), "probe");
        sim.run();
        let fired = sim.stats().series("fired").unwrap().points().to_vec();
        tk_assert_eq!(fired.len(), delays.len());
        // Non-decreasing fire times…
        tk_assert!(fired.windows(2).all(|w| w[0].0 <= w[1].0));
        // …each token at exactly its requested time…
        for &(at, token) in &fired {
            tk_assert_eq!(at, SimTime::from_millis(delays[token as usize]));
        }
        // …and equal-time timers in scheduling (FIFO) order.
        for w in fired.windows(2) {
            if w[0].0 == w[1].0 {
                tk_assert!(w[0].1 < w[1].1, "ties must fire in scheduling order");
            }
        }
    }

    fn replay_is_deterministic_for_any_seed(
        seed in gens::any_u64(),
        delays in gens::vec(gens::u64_in(0..100), 1..20),
    ) {
        let run = || {
            let mut sim: Sim<Nop, IdealNetwork> = Sim::new(
                SimConfig { seed, ..Default::default() },
                IdealNetwork::default(),
            );
            let n = sim.add_node(NodeSpec::new(2, "d"));
            sim.spawn(n, Box::new(TimerProbe { delays_ms: delays.clone() }), "probe");
            sim.run();
            (sim.now(), sim.events_dispatched())
        };
        tk_assert_eq!(run(), run());
    }

    fn summary_matches_naive_statistics(
        xs in gens::vec(gens::f64_in(-1e6..1e6), 1..300),
    ) {
        let mut s = Summary::with_capacity(1024);
        for &x in &xs {
            s.record(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        tk_assert_eq!(s.count(), xs.len() as u64);
        tk_assert!((s.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        tk_assert!((s.stddev() - var.sqrt()).abs() <= 1e-5 * var.sqrt().max(1.0));
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        tk_assert_eq!(s.min(), min);
        tk_assert_eq!(s.max(), max);
    }

    /// Whatever order names are first written in, the hub reads its
    /// counters and series back sorted by name, each name once.
    fn hub_reads_back_in_name_order(
        writes in gens::vec(gens::string("[a-z]{1,3}"), 1..80),
    ) {
        let mut hub = StatsHub::new();
        for (i, name) in writes.iter().enumerate() {
            let name = format!("prop.hub.{name}");
            hub.incr(&name, 1);
            hub.sample(&name, SimTime::from_secs(i as u64), 1.0);
        }
        let mut want: Vec<String> = writes.iter().map(|n| format!("prop.hub.{n}")).collect();
        want.sort();
        want.dedup();
        let counters: Vec<&str> = hub.all_counters().map(|(k, _)| k).collect();
        let series: Vec<&str> = hub.all_series().map(|(k, _)| k).collect();
        tk_assert_eq!(&counters, &want);
        tk_assert_eq!(&series, &want);
        let total: u64 = hub.all_counters().map(|(_, v)| v).sum();
        tk_assert_eq!(total, writes.len() as u64);
    }

    fn rng_below_is_always_in_bounds(
        seed in gens::any_u64(),
        bound in gens::u64_in(1..1_000_000),
    ) {
        let mut rng = sns_sim::rng::Pcg32::new(seed);
        for _ in 0..100 {
            tk_assert!(rng.below(bound) < bound);
        }
    }

    fn weighted_never_picks_zero_weight(
        seed in gens::any_u64(),
        weights in gens::vec(gens::f64_in(0.0..10.0), 2..12),
    ) {
        tk_assume!(weights.iter().any(|&w| w > 0.0));
        let mut rng = sns_sim::rng::Pcg32::new(seed);
        for _ in 0..50 {
            let i = rng.weighted(&weights);
            tk_assert!(weights[i] > 0.0, "picked zero-weight index {i}");
        }
    }
}
