//! Macro-benchmark of the discrete-event engine's scheduling/dispatch
//! hot path: whole simulation runs of 1M+ events on the engine's timer
//! wheel. Rows keep their `/wheel` suffix so they stay comparable with
//! the recorded history, in which each profile also had a `/heap` row.
//!
//! Two profiles stress different parts of the hot path:
//!
//! * `spawn_1m` — components continuously spawning and killing
//!   children (component-table churn, start/death bookkeeping).
//! * `monitor_1m` — ~1M standing re-arming timers spread over 1000 s
//!   of virtual time, the Section-2 monitoring workload shape: a
//!   million entries stand in the queue, and each pop drains an O(1)
//!   wheel bucket.
//!
//! The message-ring profile (engine dispatch, tiny queue) is measured
//! by perfbench's `sim_route` workload against A/A-derived bounds, not
//! here.
//!
//! ```sh
//! cargo run -p sns-bench --release --bin sim_throughput [-- OUTPUT.json]
//! ```
//!
//! Rows land in `BENCH_sim.json`; events/sec per profile print at the
//! end. Every profile's repeated runs must finish at the same time after
//! the same number of events.

use std::time::Duration;

use sns_sim::engine::{Component, Ctx, NodeSpec, Sim, SimConfig, Wire};
use sns_sim::network::IdealNetwork;
use sns_sim::time::SimTime;
use sns_sim::ComponentId;
use sns_testkit::{BenchConfig, BenchSuite};

/// Events per measured run, shared by all profiles.
const EVENTS: u64 = 1_000_000;

#[derive(Clone)]
struct Ping;
impl Wire for Ping {
    fn wire_size(&self) -> u64 {
        64
    }
}

fn config(max_events: u64) -> SimConfig {
    SimConfig::new()
        .with_seed(0x517)
        .with_max_events(max_events)
}

/// Spawner components that kill their previous child and fork a new
/// one on every timer tick (manager respawn-churn shape).
fn spawn_sim() -> Sim<Ping, IdealNetwork> {
    struct Child;
    impl Component<Ping> for Child {
        fn on_message(&mut self, _: &mut Ctx<'_, Ping>, _: ComponentId, _: Ping) {}
    }
    struct Spawner {
        child: Option<ComponentId>,
    }
    impl Component<Ping> for Spawner {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
            ctx.timer(Duration::from_millis(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Ping>, _t: u64) {
            if let Some(c) = self.child.take() {
                ctx.kill(c);
            }
            self.child = ctx.spawn(ctx.my_node(), Box::new(Child), "child");
            ctx.timer(Duration::from_millis(1), 0);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, Ping>, _: ComponentId, _: Ping) {}
    }
    let mut sim: Sim<Ping, IdealNetwork> = Sim::new(config(EVENTS), IdealNetwork::default());
    for _ in 0..8 {
        let node = sim.add_node(NodeSpec::new(4, "dedicated"));
        for _ in 0..8 {
            sim.spawn(node, Box::new(Spawner { child: None }), "spawner");
        }
    }
    sim
}

/// ~1M standing timers uniformly spread over 1000 s of virtual time;
/// each firing re-arms, so the pending population stays at ~1M for the
/// whole run.
fn monitor_sim() -> Sim<Ping, IdealNetwork> {
    const WATCHERS: u64 = 1_000;
    const TIMERS_EACH: u64 = 1_000;
    const SPREAD_NS: u64 = 1_000 * 1_000_000_000;
    struct Watcher;
    impl Component<Ping> for Watcher {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
            for t in 0..TIMERS_EACH {
                let delay = ctx.rng().below(SPREAD_NS);
                ctx.timer(Duration::from_nanos(delay), t);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Ping>, t: u64) {
            let delay = ctx.rng().below(SPREAD_NS);
            ctx.timer(Duration::from_nanos(delay), t);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, Ping>, _: ComponentId, _: Ping) {}
    }
    // Leave headroom for the Start events so the cap still cuts off at
    // EVENTS-many timer firings.
    let mut sim: Sim<Ping, IdealNetwork> =
        Sim::new(config(EVENTS + WATCHERS), IdealNetwork::default());
    let node = sim.add_node(NodeSpec::new(4, "dedicated"));
    for _ in 0..WATCHERS {
        sim.spawn(node, Box::new(Watcher), "watcher");
    }
    // Dispatch the Start events now so every measured run begins with
    // the full standing-timer population already queued.
    sim.run_until(SimTime::ZERO);
    assert_eq!(sim.events_dispatched(), WATCHERS);
    sim
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sim.json".to_string());
    // Whole runs take seconds, so the wall-clock budget is nominal and
    // `min_samples` drives the loop: ≥ 5 measured runs per benchmark,
    // so the recorded p50/p99 are a distribution, not a point estimate.
    let mut suite = BenchSuite::with_config(
        "sim",
        BenchConfig {
            warmup: Duration::from_millis(1),
            measure: Duration::from_millis(1),
            min_samples: 5,
            ..Default::default()
        },
    );
    type Builder = fn() -> Sim<Ping, IdealNetwork>;
    let profiles: [(&str, Builder); 2] = [("spawn_1m", spawn_sim), ("monitor_1m", monitor_sim)];
    for (profile, build) in profiles {
        let mut fingerprints: Vec<(SimTime, u64)> = Vec::new();
        suite.bench_batched(&format!("{profile}/wheel"), build, |mut sim| {
            sim.run();
            fingerprints.push((sim.now(), sim.events_dispatched()));
        });
        let f = fingerprints.last().copied().expect("at least one run");
        assert!(
            fingerprints.iter().all(|&x| x == f),
            "{profile}: repeated runs diverged"
        );
        println!("    {profile}: finished at {} after {} events", f.0, f.1);
    }
    suite.write_json(&out).expect("write bench rows");

    println!("-- events/sec ({EVENTS} dispatched events per run)");
    let row = |name: &str| {
        suite
            .rows()
            .iter()
            .find(|r| r.bench == name)
            .expect("row exists")
            .mean_ns
    };
    for (profile, _) in profiles {
        let ns = row(&format!("{profile}/wheel"));
        println!("  {profile:<12} {:>12.0} ev/s", EVENTS as f64 / (ns / 1e9));
    }
    println!("wrote {} rows to {out}", suite.rows().len());
}
