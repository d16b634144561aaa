//! Whole-stack determinism: identical seeds produce bit-identical runs
//! across every layer — the property that makes all the reproduced
//! figures and fault-injection experiments replayable.

use std::time::Duration;

use cluster_sns::chaos::{FaultKind, FaultPlan, SimChaos, SimChaosConfig};
use cluster_sns::core::MonitorTap;
use cluster_sns::hotbot::HotBotBuilder;
use cluster_sns::sim::{SchedulerKind, SimTime};
use cluster_sns::transend::TranSendBuilder;
use cluster_sns::workload::playback::{Playback, Schedule};
use cluster_sns::workload::trace::{TraceGenerator, WorkloadConfig};

fn transend_fingerprint_on(seed: u64, scheduler: SchedulerKind) -> (u64, u64, u64, String) {
    let mut cluster = TranSendBuilder::new()
        .with_seed(seed)
        .with_scheduler(scheduler)
        .with_worker_nodes(5)
        .with_frontends(1)
        .with_cache_partitions(2)
        .with_min_distillers(1)
        .with_origin_penalty_scale(0.1)
        .build();
    let mut gen = TraceGenerator::new(WorkloadConfig {
        seed: seed ^ 0x11,
        users: 30,
        shared_objects: 90,
        private_per_user: 8,
        ..Default::default()
    });
    let t = gen.constant_rate(4.0, Duration::from_secs(30));
    let items: Vec<_> = Playback::new(&t, Schedule::Timestamps)
        .map(|(at, r)| (at, r.clone()))
        .collect();
    let report = cluster.attach_client(items, Duration::from_secs(3));
    // Fault injection is part of the fingerprint too.
    cluster.sim.at(SimTime::from_secs(12), |sim| {
        if let Some(&d) = sim
            .components_of_kind(cluster_sns::core::intern_class("distiller/gif"))
            .first()
        {
            sim.kill_component(d);
        }
    });
    cluster.sim.run_until(SimTime::from_secs(200));
    let r = report.borrow();
    // Fold every counter into a stable string.
    let counters: String = cluster
        .sim
        .stats()
        .all_counters()
        .map(|(k, v)| format!("{k}={v};"))
        .collect();
    (
        cluster.sim.events_dispatched(),
        r.responses,
        r.bytes_received,
        counters,
    )
}

fn transend_fingerprint(seed: u64) -> (u64, u64, u64, String) {
    transend_fingerprint_on(seed, SchedulerKind::default())
}

#[test]
fn transend_runs_are_bit_identical_given_a_seed() {
    let a = transend_fingerprint(0xd5);
    let b = transend_fingerprint(0xd5);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_give_different_runs() {
    let a = transend_fingerprint(0xd5);
    let b = transend_fingerprint(0xd6);
    assert_ne!(a.0, b.0, "different seeds must diverge");
}

/// A full TranSend trace replay (fault injection included) produces the
/// same event count, responses, bytes and counters on the heap baseline
/// and the timer wheel.
#[test]
fn transend_replay_is_identical_across_schedulers() {
    let heap = transend_fingerprint_on(0xd5, SchedulerKind::Heap);
    let wheel = transend_fingerprint_on(0xd5, SchedulerKind::Wheel);
    assert_eq!(heap, wheel, "heap and wheel replays must be bit-identical");
}

/// One full chaos run: same seed, same fault plan, returns the
/// byte-stable canonical rendering of the tapped monitor-event log.
fn chaos_monitor_log_on(seed: u64, scheduler: SchedulerKind) -> String {
    let mut cluster = TranSendBuilder::new()
        .with_seed(seed)
        .with_scheduler(scheduler)
        .with_worker_nodes(5)
        .with_overflow_nodes(1)
        .with_frontends(1)
        .with_cache_partitions(2)
        .with_min_distillers(1)
        .with_origin_penalty_scale(0.1)
        .build();
    let node = cluster.sim.nodes_with_tag("infra")[0];
    let (tap, log) = MonitorTap::new(cluster.monitor_group);
    cluster.sim.spawn(node, Box::new(tap), "montap");

    let mut gen = TraceGenerator::new(WorkloadConfig {
        seed: seed ^ 0x33,
        users: 30,
        shared_objects: 90,
        private_per_user: 8,
        ..Default::default()
    });
    let t = gen.constant_rate(3.0, Duration::from_secs(40));
    let items: Vec<_> = Playback::new(&t, Schedule::Timestamps)
        .map(|(at, r)| (at, r.clone()))
        .collect();
    let _report = cluster.attach_client(items, Duration::from_secs(3));

    // Exercise every injection path the sim backend supports.
    let plan = FaultPlan::new()
        .with(
            Duration::from_secs(15),
            FaultKind::KillWorker {
                class: "cache".into(),
                which: 0,
            },
        )
        .with(Duration::from_secs(22), FaultKind::KillManager)
        .with(
            Duration::from_secs(30),
            FaultKind::Partition {
                pool: "dedicated".into(),
                which: 1,
                heal_after: Duration::from_secs(8),
            },
        )
        .with(
            Duration::from_secs(45),
            FaultKind::BeaconLoss {
                lasting: Duration::from_secs(2),
            },
        );
    SimChaos::install(&mut cluster.sim, &plan, SimChaosConfig::default());
    cluster
        .sim
        .run_until(SimTime::ZERO + plan.horizon(Duration::from_secs(120)));
    let rendered = log.borrow().canonical();
    assert!(!rendered.is_empty(), "the tap must have seen events");
    rendered
}

fn chaos_monitor_log(seed: u64) -> String {
    chaos_monitor_log_on(seed, SchedulerKind::default())
}

#[test]
fn same_seed_same_plan_gives_byte_identical_monitor_logs() {
    let a = chaos_monitor_log(0xFA);
    let b = chaos_monitor_log(0xFA);
    assert_eq!(a, b, "monitor-event logs must be byte-identical");
    let c = chaos_monitor_log(0xFB);
    assert_ne!(a, c, "a different seed must perturb the event stream");
}

/// The chaos demo plan (kill-worker, kill-manager, partition, beacon
/// loss) must leave a byte-identical monitor-event log whether the
/// engine schedules with the heap baseline or the timer wheel.
#[test]
fn chaos_monitor_logs_are_byte_identical_across_schedulers() {
    let heap = chaos_monitor_log_on(0xFA, SchedulerKind::Heap);
    let wheel = chaos_monitor_log_on(0xFA, SchedulerKind::Wheel);
    assert_eq!(heap, wheel, "monitor logs must match byte-for-byte");
}

/// One rolling-upgrade-under-load chaos run: a `RollingUpgrade` plan
/// verb walks two dedicated nodes through drain → upgraded rejoin while
/// a trace replays, and the byte-stable canonical monitor log (drains,
/// rejoins, respawns, and all) is returned.
fn rolling_upgrade_log_on(seed: u64, scheduler: SchedulerKind) -> String {
    let mut cluster = TranSendBuilder::new()
        .with_seed(seed)
        .with_scheduler(scheduler)
        .with_worker_nodes(5)
        .with_overflow_nodes(1)
        .with_frontends(1)
        .with_cache_partitions(2)
        .with_min_distillers(1)
        .with_origin_penalty_scale(0.1)
        .build();
    let node = cluster.sim.nodes_with_tag("infra")[0];
    let (tap, log) = MonitorTap::new(cluster.monitor_group);
    cluster.sim.spawn(node, Box::new(tap), "montap");

    let mut gen = TraceGenerator::new(WorkloadConfig {
        seed: seed ^ 0x77,
        users: 30,
        shared_objects: 90,
        private_per_user: 8,
        ..Default::default()
    });
    let t = gen.constant_rate(3.0, Duration::from_secs(60));
    let items: Vec<_> = Playback::new(&t, Schedule::Timestamps)
        .map(|(at, r)| (at, r.clone()))
        .collect();
    let _report = cluster.attach_client(items, Duration::from_secs(3));

    let plan = FaultPlan::new().with(
        Duration::from_secs(15),
        FaultKind::RollingUpgrade {
            pool: "dedicated".into(),
            nodes: 2,
            batch: 1,
            settle: Duration::from_secs(12),
        },
    );
    SimChaos::install(&mut cluster.sim, &plan, SimChaosConfig::default());
    cluster
        .sim
        .run_until(SimTime::ZERO + plan.horizon(Duration::from_secs(120)));
    let rendered = log.borrow().canonical();
    assert!(
        rendered.contains("node_drained") && rendered.contains("node_rejoined"),
        "the upgrade must have rolled: {rendered}"
    );
    rendered
}

/// A rolling upgrade under live load — the most schedule-sensitive
/// cluster operation, since drains race in-flight dispatches — must
/// leave a byte-identical monitor log on the heap baseline and the
/// timer wheel.
#[test]
fn rolling_upgrade_monitor_logs_are_byte_identical_across_schedulers() {
    let heap = rolling_upgrade_log_on(0xFA, SchedulerKind::Heap);
    let wheel = rolling_upgrade_log_on(0xFA, SchedulerKind::Wheel);
    assert_eq!(heap, wheel, "upgrade logs must match byte-for-byte");
}

/// One traced TranSend run, exported as JSONL. Trace emission rides the
/// engine's event order, so the export must inherit the engine's
/// scheduler-independence.
fn transend_trace_jsonl_on(seed: u64, scheduler: SchedulerKind) -> String {
    transend_trace_jsonl_sampled(seed, scheduler, 1)
}

/// The same traced run, head-sampled 1-in-`rate` at the front end.
fn transend_trace_jsonl_sampled(seed: u64, scheduler: SchedulerKind, rate: u32) -> String {
    let mut cluster = TranSendBuilder::new()
        .with_seed(seed)
        .with_scheduler(scheduler)
        .with_worker_nodes(5)
        .with_frontends(1)
        .with_cache_partitions(2)
        .with_min_distillers(1)
        .with_origin_penalty_scale(0.1)
        .with_tracing(true)
        .with_trace_sampling(rate)
        .build();
    let mut gen = TraceGenerator::new(WorkloadConfig {
        seed: seed ^ 0x55,
        users: 20,
        shared_objects: 60,
        private_per_user: 6,
        ..Default::default()
    });
    let t = gen.constant_rate(4.0, Duration::from_secs(15));
    let items: Vec<_> = Playback::new(&t, Schedule::Timestamps)
        .map(|(at, r)| (at, r.clone()))
        .collect();
    let _report = cluster.attach_client(items, Duration::from_secs(3));
    cluster.sim.run_until(SimTime::from_secs(90));
    let log = cluster.trace().expect("tracing was enabled");
    assert!(!log.is_empty(), "the run must have recorded spans");
    cluster_sns::core::trace::to_jsonl(&log)
}

/// Head sampling is a pure function of the request number, so a
/// sampled export must be (a) byte-identical across schedulers, like
/// the full export, and (b) a strict, non-empty line-subset of the
/// full export for the same seed — sampling drops whole requests, it
/// never invents or reorders spans.
#[test]
fn sampled_trace_exports_are_deterministic_and_subset_the_full_export() {
    let full = transend_trace_jsonl_on(0xd7, SchedulerKind::Heap);
    let heap = transend_trace_jsonl_sampled(0xd7, SchedulerKind::Heap, 4);
    let wheel = transend_trace_jsonl_sampled(0xd7, SchedulerKind::Wheel, 4);
    assert_eq!(heap, wheel, "sampled exports must match byte-for-byte");
    assert!(
        heap.lines().count() > 0,
        "1-in-4 sampling should keep some spans"
    );
    assert!(
        heap.lines().count() < full.lines().count(),
        "1-in-4 sampling should drop some spans"
    );
    let full_lines: std::collections::BTreeSet<&str> = full.lines().collect();
    for line in heap.lines() {
        assert!(
            full_lines.contains(line),
            "sampled span missing from the full export: {line}"
        );
    }
}

/// Same seed, same workload: the JSONL trace export is byte-identical
/// whether the engine schedules with the heap baseline or the timer
/// wheel — traces are as replayable as the runs they observe.
#[test]
fn same_seed_trace_exports_are_byte_identical_across_schedulers() {
    let heap = transend_trace_jsonl_on(0xd7, SchedulerKind::Heap);
    let wheel = transend_trace_jsonl_on(0xd7, SchedulerKind::Wheel);
    assert_eq!(heap, wheel, "trace exports must match byte-for-byte");
}

/// FNV-1a over a rendered run, so a golden pins a whole log as one u64.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A HotBot run with one index partition's node killed mid-run and
/// revived later, rendered with every counter, the `hb.coverage`
/// summary and the `hb.coverage_ts` series: the degraded-coverage path
/// (partitions missing from the hints, fan-out dispatches given up on)
/// as well as the happy path.
fn hotbot_degraded_run() -> String {
    let mut cluster = HotBotBuilder::new()
        .with_partitions(6)
        .with_corpus_docs(600)
        .with_frontends(1)
        .build();
    let report = cluster.attach_client(8.0, 160, Duration::from_secs(4));
    let victim = cluster.partition_nodes[2];
    cluster
        .sim
        .at(SimTime::from_secs(10), move |sim| sim.kill_node(victim));
    cluster
        .sim
        .at(SimTime::from_secs(40), move |sim| sim.revive_node(victim));
    cluster.sim.run_until(SimTime::from_secs(60));
    let stats = cluster.sim.stats();
    for key in ["hb.partition_misses", "hb.partial_answers", "stub.gave_up"] {
        assert!(stats.counter(key) > 0, "the run must exercise {key}");
    }
    let mut out: String = stats
        .all_counters()
        .map(|(k, v)| format!("{k}={v};"))
        .collect();
    let cov = stats.summary("hb.coverage").expect("coverage observed");
    out += &format!(
        "coverage={}/{:x}/{:x}/{:x};",
        cov.count(),
        cov.mean().to_bits(),
        cov.min().to_bits(),
        cov.stddev().to_bits()
    );
    let series = stats.series("hb.coverage_ts").expect("coverage sampled");
    for (t, v) in series.points() {
        out += &format!("{}:{:x};", t.as_nanos(), v.to_bits());
    }
    let r = report.borrow();
    out += &format!(
        "events={};answered={};partial={}",
        cluster.sim.events_dispatched(),
        r.answered,
        r.partial_coverage
    );
    out
}

// Goldens recorded on the parent of the one-request-path change (PR 21),
// when the TranSend and HotBot front ends still ran hand-written
// per-request state machines: the async bodies that replaced them must
// reproduce these runs bit for bit.

#[test]
fn transend_fingerprint_matches_the_legacy_golden() {
    let (events, responses, bytes, counters) = transend_fingerprint(0xd5);
    assert_eq!(
        (events, responses, bytes, fnv(&counters)),
        (10_179, 121, 203_562, 0xbec4_38c4_d664_face)
    );
}

#[test]
fn chaos_monitor_log_matches_the_legacy_golden() {
    assert_eq!(fnv(&chaos_monitor_log(0xFA)), 0x3fcc_c93b_63ee_8af7);
}

#[test]
fn sampled_trace_export_matches_the_legacy_golden() {
    let jsonl = transend_trace_jsonl_sampled(0xd7, SchedulerKind::default(), 4);
    assert_eq!(
        (jsonl.lines().count(), fnv(&jsonl)),
        (217, 0x8cc8_b621_ad18_cdb3)
    );
}

#[test]
fn hotbot_degraded_run_matches_the_legacy_golden() {
    assert_eq!(fnv(&hotbot_degraded_run()), 0x158d_5fa1_5775_d651);
}

#[test]
fn hotbot_runs_are_bit_identical_given_a_seed() {
    let run = || {
        let mut cluster = HotBotBuilder::new()
            .with_partitions(5)
            .with_corpus_docs(400)
            .with_frontends(1)
            .build();
        let report = cluster.attach_client(6.0, 40, Duration::from_secs(4));
        cluster.sim.run_until(SimTime::from_secs(40));
        let r = report.borrow();
        (
            cluster.sim.events_dispatched(),
            r.answered,
            (r.latency.mean() * 1e9) as u64,
        )
    };
    assert_eq!(run(), run());
}

/// Shrinkable sequential ≡ sharded equivalence: random word streams
/// decode to a multi-shard topology (2–4 lanes of echo workers behind a
/// gateway), a packet schedule and a fault plan of echo kills; the
/// parallel lane driver must reproduce the sequential reference
/// fingerprint byte for byte. Failures shrink to a minimal divergent
/// word sequence via the testkit's choice-stream shrinking.
mod sharded {
    use std::time::Duration;

    use sns_testkit::{gens, props, tk_assert, tk_assert_eq};

    use cluster_sns::sim::engine::{Component, Ctx, NodeSpec, Sim, SimConfig, Wire};
    use cluster_sns::sim::network::IdealNetwork;
    use cluster_sns::sim::time::SimTime;
    use cluster_sns::sim::{ComponentId, Lane, PortId, ShardRun, ShardedSim, Uplink};

    #[derive(Clone)]
    struct Pkt(u64);
    impl Wire for Pkt {
        fn wire_size(&self) -> u64 {
            96
        }
    }

    struct Gateway {
        ups: Vec<Uplink<Pkt>>,
        local: ComponentId,
    }
    impl Component<Pkt> for Gateway {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Pkt>, _from: ComponentId, msg: Pkt) {
            ctx.stats().incr("hops", 1);
            if msg.0 == 0 {
                return;
            }
            if ctx.rng().below(3) == 0 {
                ctx.send(self.local, Pkt(msg.0 - 1));
            } else {
                let k = ctx.rng().below(self.ups.len() as u64) as usize;
                self.ups[k].send(ctx.now(), Pkt(msg.0 - 1));
            }
        }
    }

    struct Echo;
    impl Component<Pkt> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Pkt>, from: ComponentId, msg: Pkt) {
            ctx.stats().incr("echoed", 1);
            ctx.send(from, msg);
        }
    }

    fn run(words: &[u64], parallel: bool) -> ShardRun {
        let shards = 2 + (words.first().copied().unwrap_or(0) % 3) as u32;
        let latency = Duration::from_millis(1);
        let mut ss: ShardedSim<Pkt, IdealNetwork> = ShardedSim::new(latency);
        for _ in 0..shards {
            let words: Vec<u64> = words.to_vec();
            ss.add_shard(move |shard| {
                let sim = Sim::new(
                    SimConfig::new().with_seed(0xdef ^ u64::from(shard.0)),
                    IdealNetwork::default(),
                );
                let mut lane = Lane::new(sim);
                let node = lane.sim().add_node(NodeSpec::new(1, "dedicated"));
                let local = lane.sim().spawn(node, Box::new(Echo), "echo");
                let ups: Vec<Uplink<Pkt>> = (0..shards)
                    .filter(|&t| t != shard.0)
                    .map(|t| lane.uplink(PortId(t)))
                    .collect();
                let gw = lane
                    .sim()
                    .spawn(node, Box::new(Gateway { ups, local }), "gateway");
                lane.bind(PortId(shard.0), gw);
                for (i, &w) in words.iter().enumerate() {
                    if i as u32 % shards != shard.0 {
                        continue;
                    }
                    if w % 5 == 4 {
                        // Fault plan: kill the shard's echo worker.
                        let at = SimTime::from_nanos((1 + (w >> 8) % 150_000) * 1_000);
                        lane.sim().at(at, |sim| {
                            if let Some(&v) = sim.components_of_kind("echo").first() {
                                sim.kill_component(v);
                            }
                        });
                    } else {
                        let at = SimTime::from_nanos(((w >> 8) % 100_000) * 1_000);
                        lane.sim().inject_at(at, gw, Pkt(2 + (w >> 4) % 30));
                    }
                }
                lane.set_report(|sim| {
                    sim.stats()
                        .all_counters()
                        .map(|(k, v)| format!("{k}={v};"))
                        .collect()
                });
                lane
            });
        }
        let until = SimTime::from_secs(1);
        if parallel {
            ss.run_parallel(until)
        } else {
            ss.run_sequential(until)
        }
    }

    props! {
        /// Whatever topology, schedule and fault plan the words encode,
        /// both lane drivers agree byte for byte.
        fn sharded_runs_match_the_sequential_reference(
            words in gens::vec(gens::any_u64(), 1..32),
        ) {
            let seq = run(&words, false);
            let par = run(&words, true);
            tk_assert_eq!(seq.fingerprint(), par.fingerprint());
            tk_assert!(seq.total_events() > 0);
        }
    }
}
