//! `sim_transend`: the whole TranSend service replayed in virtual time.
//!
//! A seeded trace (400 users, 2000 shared Zipf objects, 40 req/s for 30
//! simulated minutes) is played against a default-built cluster with
//! 10 worker nodes, 2 front ends and 4 cache partitions. Handlers (FE
//! logic, cache, distillers, manager, SAN pricing) are ~95 % of host
//! time here, the engine the rest. Each repetition builds everything
//! afresh. `throughput_per_s` is requests per host second. The op is
//! one client request and `lat_*` its latency as the simulated client
//! observed it, on the simulated clock: the simulator's result, which
//! repeats exactly per seed and which a speed change must not move.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sns_core::slo::SloAggregator;
use sns_core::trace::TraceLog;
use sns_sim::time::SimTime;
use sns_transend::client::ClientReport;
use sns_transend::{TranSendBuilder, TranSendCluster};
use sns_workload::trace::{TraceGenerator, TraceRecord, WorkloadConfig};

use crate::load::{host_speed, Opts};
use crate::report::{set_latency, Report};
use crate::reps::{overhead_share, repeat, repeat_pairs, sim_digest, summarize, Rep};
use crate::spans::SpanSink;

const RATE: f64 = 40.0;
const HORIZON: Duration = Duration::from_secs(30 * 60);
/// Cluster boot (manager, workers, first beacons) before the first
/// request: simulated here, paid in `setup_s`.
const START_DELAY: Duration = Duration::from_secs(5);
/// Simulated time after the last send, so every response is in.
const DRAIN: Duration = Duration::from_secs(60);

fn horizon(o: &Opts) -> Duration {
    Duration::from_secs(o.size(HORIZON.as_secs()))
}

/// Seeded inputs: the trace, as (send offset, record) pairs.
fn trace(o: &Opts) -> Vec<(Duration, TraceRecord)> {
    let mut gen = TraceGenerator::new(WorkloadConfig {
        seed: o.seed,
        users: 400,
        shared_objects: 2_000,
        ..Default::default()
    });
    gen.constant_rate(RATE, horizon(o))
        .records
        .into_iter()
        .map(|r| (r.at, r))
        .collect()
}

fn build(o: &Opts, traced: bool) -> TranSendCluster {
    TranSendBuilder::new()
        .with_seed(o.seed)
        .with_worker_nodes(10)
        .with_frontends(2)
        .with_cache_partitions(4)
        .with_min_distillers(2)
        .with_origin_penalty_scale(0.1)
        .with_tracing(traced)
        .build()
}

/// What a finished repetition leaves for the checks and layer metrics
/// (the cluster itself is dropped, so `peak_rss_mb` is one replay's).
struct Outcome {
    requests: u64,
    sent: u64,
    responses: u64,
    errors: u64,
    degraded: u64,
    /// Simulated client latency p50, p95, p99 in µs.
    lat_us: [f64; 3],
    events: u64,
    san_delivered: u64,
    counters: BTreeMap<String, u64>,
    trace: Option<TraceLog>,
}

fn one(o: &Opts, traced: bool) -> (Rep, Outcome) {
    let before = host_speed();
    let t0 = Instant::now();
    let items = trace(o);
    let requests = items.len() as u64;
    let mut cluster = build(o, traced);
    let report = cluster.attach_client(items, START_DELAY);
    cluster.sim.run_until(SimTime::ZERO + START_DELAY);
    let setup_wall_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    cluster
        .sim
        .run_until(SimTime::ZERO + START_DELAY + horizon(o) + DRAIN);
    let run_wall_s = t1.elapsed().as_secs_f64();
    let speed = (before + host_speed()) / 2.0;

    let mut rep_ref = report.borrow_mut();
    let c: &mut ClientReport = &mut rep_ref;
    let mut digest = sim_digest(
        cluster.sim.now(),
        cluster.sim.events_dispatched(),
        cluster.sim.stats(),
    );
    for v in [
        c.sent,
        c.responses,
        c.ok,
        c.errors,
        c.degraded,
        c.bytes_received,
    ] {
        digest.u64(v);
    }
    let lat_us = [0.50, 0.95, 0.99].map(|q| c.latency.quantile(q) * 1e6);
    for v in lat_us {
        digest.f64(v);
    }
    let rep = Rep::new(speed, setup_wall_s, run_wall_s, requests, digest.value());
    let out = Outcome {
        requests,
        sent: c.sent,
        responses: c.responses,
        errors: c.errors,
        degraded: c.degraded,
        lat_us,
        events: cluster.sim.events_dispatched(),
        san_delivered: cluster.sim.net().stats().delivered,
        counters: cluster
            .sim
            .stats()
            .all_counters()
            .map(|(name, v)| (name.to_string(), v))
            .collect(),
        trace: cluster.trace(),
    };
    (rep, out)
}

/// Output checks of one repetition, folded into the report once.
fn check(first: &Outcome, all_equal: bool, r: &mut Report) {
    r.check(
        format!(
            "responses {} == sent {} == trace length {}",
            first.responses, first.sent, first.requests
        ),
        first.responses == first.sent && first.sent == first.requests,
    );
    r.check(
        format!(
            "errors {} == 0 and degraded {} == 0",
            first.errors, first.degraded
        ),
        first.errors == 0 && first.degraded == 0,
    );
    r.check(
        "client-observed simulated latency repeats exactly",
        all_equal,
    );
}

/// The first repetition's outcome (kept for the checks and the layer
/// metrics) and whether every later one saw the same client latency.
#[derive(Default)]
struct Seen {
    first: Option<Outcome>,
    all_equal: bool,
}

impl Seen {
    fn rep(&mut self, o: &Opts, traced: bool) -> Rep {
        let (rep, out) = one(o, traced);
        match &self.first {
            Some(f) => {
                self.all_equal &= f.lat_us == out.lat_us;
            }
            None => {
                self.first = Some(out);
                self.all_equal = true;
            }
        }
        rep
    }

    fn done(self, o: &Opts, r: &mut Report) -> Outcome {
        let first = self.first.expect("at least three repetitions ran");
        check(&first, self.all_equal, r);
        r.failed += first.errors + first.degraded + (first.sent - first.responses);
        set_latency(
            r,
            first.lat_us,
            first.responses as usize,
            "simulated",
            o.quick,
        );
        first
    }
}

pub fn run(o: &Opts, sink: &mut SpanSink, r: &mut Report) {
    if o.trace {
        traced(o, sink, r);
        return;
    }
    let mut seen = Seen::default();
    let reps = repeat(o.share(0.9), || seen.rep(o, false));
    seen.done(o, r);
    summarize(&reps, "requests", r);
}

fn traced(o: &Opts, sink: &mut SpanSink, r: &mut Report) {
    let (mut untraced, mut recorded) = (Seen::default(), Seen::default());
    let t0 = sink.now_ns();
    let (base, traced_reps) = repeat_pairs(o.share(0.8), |on| {
        if on {
            recorded.rep(o, true)
        } else {
            untraced.rep(o, false)
        }
    });
    sink.bench_span("sim_transend.pairs", t0);
    let first = untraced.done(o, r);
    let traced_first = recorded.first.expect("at least three repetitions ran");
    summarize(&base, "requests", r);
    r.set("trace.overhead_share", overhead_share(&base, &traced_reps));
    r.check(
        "recording spans does not change the run",
        traced_reps.iter().all(|p| p.digest == base[0].digest),
    );

    for (name, v) in &first.counters {
        r.note(format!("counter {name} {v}"));
    }
    let count = |name: &str| first.counters.get(name).copied().unwrap_or(0) as f64;
    let events = first.events as f64;
    let host_ns = base[0].run_s * 1e9;
    r.set("sim.engine.host_ns_per_event", host_ns / events);
    r.set(
        "sim.engine.events_per_request",
        events / first.requests as f64,
    );
    r.set("san.net.unicast_dropped", count("net.unicast_dropped"));
    r.set("san.net.multicast_dropped", count("net.multicast_dropped"));
    let hits = count("ts.cache_hit_final") + count("ts.cache_hit_orig");
    let lookups = hits + count("ts.cache_miss");
    r.set("cache.hit_ratio", hits / lookups.max(1.0));

    // Outside-in estimate: how much of the run's host time the unit
    // costs measured above explain, given the program's own counts.
    // The rest is handler glue nobody has a probe for yet.
    let unit = |name: &str| r.get(name).unwrap_or(0.0);
    let explained = events * unit("sim.sched.op_ns.small")
        + count("stub.dispatches") * unit("core.control.dispatch_ns")
        + first.san_delivered as f64 * unit("san.unicast_ns")
        + count("manager.beacons") * (unit("san.multicast_ns") + unit("core.control.tick_ns"))
        + lookups * (unit("cache.ring_lookup_ns") + unit("cache.lru_get_ns"))
        + count("ts.cache_miss") * unit("cache.lru_put_ns")
        + count("ts.distilled") * unit("tacc.worker_process_ns");
    r.set("transend.explained_share", explained / host_ns);

    let log = traced_first.trace.expect("tracing was configured on");
    sink.program_spans("sim_transend", log.spans());
    let mut slo = SloAggregator::new(1);
    slo.ingest(&log);
    r.check(
        format!(
            "{} request spans == {} requests",
            slo.sampled_requests(),
            first.requests
        ),
        slo.sampled_requests() == first.requests,
    );
    let sums = slo.breakdown_sums();
    let total: f64 = sums.iter().map(|(_, ns)| ns).sum();
    for (part, ns) in sums {
        let metric = match part {
            "overhead" => "transend.simshare.overhead",
            "compute" => "transend.simshare.compute",
            "queue" => "transend.simshare.queue",
            "service" => "transend.simshare.service",
            "net" => "transend.simshare.net",
            _ => continue,
        };
        r.set(metric, ns / total.max(1.0));
    }
}
