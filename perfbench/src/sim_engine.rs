//! `sim_route` and `sim_timers`: the bare engine, with handlers that do
//! nothing, so what is timed is dispatch (`sim_route`: tiny queue, many
//! same-timestamp deliveries) or the scheduler (`sim_timers`: a million
//! standing entries).
//!
//! Each repetition builds a fresh simulation, warms it (that is its
//! `setup_s`), then advances it in 250 equal steps of simulated time.
//! These workloads simulate no client, so the "op" whose latency they
//! report is one step: what a caller of `run_until` waits for. Its p50
//! restates the throughput; its p95 rises when the engine hiccups (an
//! arena grows, the wheel cascades) even if the mean does not.
//! `throughput_per_s` is events per host second.

use std::time::{Duration, Instant};

use sns_sim::engine::{Component, Ctx, NodeSpec, Sim, SimConfig, Wire};
use sns_sim::network::IdealNetwork;
use sns_sim::time::SimTime;
use sns_sim::trace::Tracer;
use sns_sim::ComponentId;

use crate::load::{host_speed, Opts, Rng};
use crate::report::{median, set_latency, tail, Report};
use crate::reps::{overhead_share, repeat, repeat_pairs, sim_digest, summarize, Rep};
use crate::spans::SpanSink;

#[derive(Clone)]
struct Ping;

impl Wire for Ping {
    fn wire_size(&self) -> u64 {
        64
    }
}

type EngineSim = Sim<Ping, IdealNetwork>;

const RING: u64 = 64;
/// 640 hops of 100 µs for each of 64 tokens: 40 960 events a step,
/// 10.24 M a repetition.
const ROUTE_STEP: Duration = Duration::from_millis(64);
const ROUTE_STEPS: u64 = 250;
const ROUTE_WARM: Duration = Duration::from_millis(640);

/// 64 forwarders in a ring over the ideal network, one circulating
/// token each. The seed picks the ring order (a random cycle through
/// the members), so every seed does the same amount of work.
fn route_sim(seed: u64, traced: bool) -> EngineSim {
    struct Fwd {
        next: ComponentId,
    }
    impl Component<Ping> for Fwd {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Ping>, _from: ComponentId, msg: Ping) {
            ctx.send(self.next, msg);
        }
    }
    let mut rng = Rng::new(seed);
    let mut order: Vec<u64> = (0..RING).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut successor = vec![0u64; order.len()];
    for (i, &member) in order.iter().enumerate() {
        successor[member as usize] = order[(i + 1) % order.len()];
    }
    let mut sim: EngineSim = Sim::new(SimConfig::new().with_seed(seed), IdealNetwork::default());
    if traced {
        sim.set_tracer(Tracer::enabled());
    }
    let node = sim.add_node(NodeSpec::new(4, "dedicated"));
    // Component ids are allocated sequentially from 1, so each member
    // can name its successor before it exists.
    for next in successor {
        sim.spawn(
            node,
            Box::new(Fwd {
                next: ComponentId(1 + next),
            }),
            "fwd",
        );
    }
    for member in 0..RING {
        sim.inject(ComponentId(1 + member), Ping);
    }
    sim
}

const WATCHERS: u64 = 1_000;
const TIMERS_EACH: u64 = 1_000;
const SPREAD_NS: u64 = 1_000 * 1_000_000_000;
/// One step is the span of one third-level slot of the default wheel
/// (65.536 µs × 64³ ≈ 17.2 s, ≈34 k firings), so every step carries one
/// cascade of that level. With steps a fraction of that, the one step
/// in seventeen that holds the cascade is the slowest 6 % of steps and
/// the p95 sits on the edge between the two kinds (it read 750 or
/// 1000 µs from one seed to the next).
const TIMER_STEP: Duration = Duration::from_nanos(1 << 34);
const TIMER_STEPS: u64 = 250;

/// 1000 components each holding 1000 timers that re-arm a uniform
/// 0..1000 s ahead, so a million entries stand in the scheduler for the
/// whole run. Arming them is this workload's set-up.
fn timers_sim(seed: u64, traced: bool, quick: bool) -> EngineSim {
    struct Watcher {
        timers: u64,
    }
    impl Component<Ping> for Watcher {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
            for t in 0..self.timers {
                // The first delay is drawn from the residual life of a
                // uniform(0, SPREAD) renewal process, so the population
                // is in its steady state (2000 firings a simulated
                // second) from the first step on. Uniform first delays
                // start it at half that rate and every later step costs
                // more than the one before.
                let u = ctx.rng().f64();
                let delay = SPREAD_NS as f64 * (1.0 - (1.0 - u).sqrt());
                ctx.timer(Duration::from_nanos(delay as u64), t);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Ping>, t: u64) {
            let delay = ctx.rng().below(SPREAD_NS);
            ctx.timer(Duration::from_nanos(delay), t);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, Ping>, _: ComponentId, _: Ping) {}
    }
    let mut sim: EngineSim = Sim::new(SimConfig::new().with_seed(seed), IdealNetwork::default());
    if traced {
        sim.set_tracer(Tracer::enabled());
    }
    let node = sim.add_node(NodeSpec::new(4, "dedicated"));
    let timers = if quick { TIMERS_EACH / 10 } else { TIMERS_EACH };
    for _ in 0..WATCHERS {
        sim.spawn(node, Box::new(Watcher { timers }), "watcher");
    }
    sim
}

/// Advances `sim` by `steps` equal steps of simulated time, timing each;
/// returns the wall seconds of all and of each (µs).
fn run_steps(sim: &mut EngineSim, step: Duration, steps: u64) -> (f64, Vec<f64>) {
    let mut step_us = Vec::with_capacity(steps as usize);
    let start = sim.now();
    let t0 = Instant::now();
    for k in 1..=steps {
        let s0 = Instant::now();
        sim.run_until(start.saturating_add(step * k as u32));
        step_us.push(s0.elapsed().as_secs_f64() * 1e6);
    }
    (t0.elapsed().as_secs_f64(), step_us)
}

/// One repetition and the host time of each of its steps (µs, at
/// reference speed like the repetition's own times).
fn engine_rep(
    build: &dyn Fn() -> EngineSim,
    warm_until: SimTime,
    step: Duration,
    steps: u64,
) -> (Rep, Vec<f64>) {
    let before = host_speed();
    let t0 = Instant::now();
    let mut sim = build();
    sim.run_until(warm_until);
    let setup_wall_s = t0.elapsed().as_secs_f64();
    let events_before = sim.events_dispatched();
    let (run_wall_s, mut step_us) = run_steps(&mut sim, step, steps);
    let speed = (before + host_speed()) / 2.0;
    for us in &mut step_us {
        *us *= speed;
    }
    let rep = Rep::new(
        speed,
        setup_wall_s,
        run_wall_s,
        sim.events_dispatched() - events_before,
        sim_digest(sim.now(), sim.events_dispatched(), sim.stats()).value(),
    );
    (rep, step_us)
}

/// The op latency of a bare-engine workload: the host time of one step.
/// Every repetition does identical work at a step position, so each
/// position is first reduced to its median across repetitions, which
/// drops what the host added (a preemption never hits the same position
/// in most repetitions) and keeps what the engine did there (a wheel
/// cascade, an arena growing); the percentiles are then taken across
/// positions.
fn step_latency(per_rep: &[Vec<f64>]) -> ([f64; 3], usize) {
    let positions = per_rep[0].len();
    let mut at: Vec<f64> = (0..positions)
        .map(|k| median(&mut per_rep.iter().map(|rep| rep[k]).collect::<Vec<_>>()))
        .collect();
    (tail(&mut at), positions)
}

/// Runs an engine workload: plain repetitions, or for the traced run
/// the same repetitions with and without a span recorder installed.
fn engine_run(
    o: &Opts,
    name: &str,
    rep: &dyn Fn(bool) -> (Rep, Vec<f64>),
    r: &mut Report,
    sink: &mut SpanSink,
) {
    let mut steps = Vec::new();
    let mut untraced = || {
        let (rep, step_us) = rep(false);
        steps.push(step_us);
        rep
    };
    if !o.trace {
        let reps = repeat(o.share(0.9), untraced);
        summarize(&reps, "events", r);
    } else {
        let t0 = sink.now_ns();
        let (base, traced) =
            repeat_pairs(o.share(0.8), |on| if on { rep(true).0 } else { untraced() });
        sink.bench_span(name, t0);
        let base_tp = summarize(&base, "events", r);
        r.check(
            "installing a span recorder does not change the run",
            traced.iter().all(|p| p.digest == base[0].digest),
        );
        r.set("sim.engine.host_ns_per_event", 1e9 / base_tp);
        r.set("trace.overhead_share", overhead_share(&base, &traced));
    }
    let (tail, positions) = step_latency(&steps);
    set_latency(r, tail, positions, "host (reference speed)", o.quick);
}

pub fn run_route(o: &Opts, sink: &mut SpanSink, r: &mut Report) {
    let steps = o.size(ROUTE_STEPS);
    let rep = |traced: bool| {
        // Warm-up: the first 640 simulated ms fill the arenas untimed.
        engine_rep(
            &|| route_sim(o.seed, traced),
            SimTime::ZERO + ROUTE_WARM,
            ROUTE_STEP,
            steps,
        )
    };
    engine_run(o, "sim_route.pairs", &rep, r, sink);
}

pub fn run_timers(o: &Opts, sink: &mut SpanSink, r: &mut Report) {
    let steps = o.size(TIMER_STEPS);
    let rep = |traced: bool| {
        // Set-up ends once every Start event has run, i.e. with the
        // full standing population armed.
        engine_rep(
            &|| timers_sim(o.seed, traced, o.quick),
            SimTime::ZERO,
            TIMER_STEP,
            steps,
        )
    };
    engine_run(o, "sim_timers.pairs", &rep, r, sink);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_latency_drops_what_one_repetition_added() {
        // Position k costs k µs in every repetition; one repetition was
        // preempted for a millisecond at position 3.
        let clean: Vec<f64> = (1..=100).map(f64::from).collect();
        let mut hit = clean.clone();
        hit[3] += 1_000.0;
        let (tail, positions) = step_latency(&[clean.clone(), hit, clean]);
        assert_eq!(positions, 100);
        assert_eq!(tail, [51.0, 95.0, 99.0]);
    }
}
