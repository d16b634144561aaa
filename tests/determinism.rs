//! Whole-stack determinism: identical seeds produce bit-identical runs
//! across every layer — the property that makes all the reproduced
//! figures and fault-injection experiments replayable.

use std::time::Duration;

use cluster_sns::chaos::harness::SimClusterBuilder;
use cluster_sns::chaos::{FaultKind, FaultPlan, SimChaos, SimChaosConfig};
use cluster_sns::core::cluster::{Cluster, SettleStats};
use cluster_sns::core::msg::Job;
use cluster_sns::core::worker::{WorkerError, WorkerLogic};
use cluster_sns::core::{Blob, MonitorTap, OverloadPolicy, Payload, TenantPolicy, WorkerClass};
use cluster_sns::hotbot::HotBotBuilder;
use cluster_sns::sim::rng::Pcg32;
use cluster_sns::sim::SimTime;
use cluster_sns::transend::TranSendBuilder;
use cluster_sns::workload::trace::{TraceGenerator, WorkloadConfig};

fn transend_fingerprint(seed: u64) -> (u64, u64, u64, String) {
    let mut cluster = TranSendBuilder::new()
        .with_seed(seed)
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
    let items: Vec<_> = t.records.into_iter().map(|r| (r.at, r)).collect();
    let report = cluster.attach_client(items, Duration::from_secs(3));
    // Fault injection is part of the fingerprint too.
    cluster.sim.at(SimTime::from_secs(12), |sim| {
        if let Some(&d) = sim.components_of_kind("distiller/gif").first() {
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

/// One full chaos run: same seed, same fault plan, returns the
/// byte-stable canonical rendering of the tapped monitor-event log.
fn chaos_monitor_log(seed: u64) -> String {
    let mut cluster = TranSendBuilder::new()
        .with_seed(seed)
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
    let items: Vec<_> = t.records.into_iter().map(|r| (r.at, r)).collect();
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

#[test]
fn same_seed_same_plan_gives_byte_identical_monitor_logs() {
    let a = chaos_monitor_log(0xFA);
    let b = chaos_monitor_log(0xFA);
    assert_eq!(a, b, "monitor-event logs must be byte-identical");
    let c = chaos_monitor_log(0xFB);
    assert_ne!(a, c, "a different seed must perturb the event stream");
}

/// A worker of `class` answering every job after a fixed service time.
struct SlowEcho(&'static str, Duration);

impl WorkerLogic for SlowEcho {
    fn class(&self) -> WorkerClass {
        self.0.into()
    }
    fn service_time(&mut self, _j: &Job, _n: SimTime, _r: &mut Pcg32) -> Duration {
        self.1
    }
    fn process(&mut self, job: &Job, _n: SimTime, _r: &mut Pcg32) -> Result<Payload, WorkerError> {
        Ok(Blob::payload(job.input.wire_size() / 2, "done"))
    }
}

/// The cluster-ops flash crowd on the sim `Cluster` harness: one tenant
/// floods its class far past a Drop quota while the other trickles.
/// Returns the canonical monitor log, the settle and both classes'
/// dispatch-to-reply latencies.
fn flash_crowd_run() -> (String, SettleStats, Vec<Duration>, Vec<Duration>) {
    let c = SimClusterBuilder::new()
        .with_nodes(2)
        .with_workers("tsreq", 2, || {
            Box::new(SlowEcho("tsreq", Duration::from_millis(40)))
        })
        .with_workers("hbchat", 2, || {
            Box::new(SlowEcho("hbchat", Duration::from_millis(20)))
        })
        .with_tenant("tsreq", "transend")
        .with_tenant("hbchat", "hotbot")
        .with_tenant_policy(
            "transend",
            TenantPolicy {
                max_outstanding: 4,
                overload: OverloadPolicy::Drop,
            },
        )
        .start();
    for i in 0..300 {
        c.submit("tsreq", "req", Blob::payload(256 + i, "crowd"));
        if i % 15 == 0 {
            c.submit("hbchat", "chat", Blob::payload(128, "msg"));
        }
    }
    let settled = c.settle(Duration::from_secs(60));
    (
        c.monitor_log().canonical(),
        settled,
        c.latencies_of("tsreq"),
        c.latencies_of("hbchat"),
    )
}

#[test]
fn flash_crowd_harness_runs_are_byte_identical() {
    let a = flash_crowd_run();
    assert_eq!(a.1.total(), 320, "every submit settled: {:?}", a.1);
    assert_eq!(a, flash_crowd_run());
}

/// One rolling-upgrade-under-load chaos run: a `RollingUpgrade` plan
/// verb walks two dedicated nodes through drain → upgraded rejoin while
/// a trace replays, and the byte-stable canonical monitor log (drains,
/// rejoins, respawns, and all) is returned.
fn rolling_upgrade_log(seed: u64) -> String {
    let mut cluster = TranSendBuilder::new()
        .with_seed(seed)
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
    let items: Vec<_> = t.records.into_iter().map(|r| (r.at, r)).collect();
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

/// One traced TranSend run, exported as JSONL.
fn transend_trace_jsonl(seed: u64) -> String {
    transend_trace_jsonl_sampled(seed, 1)
}

/// The same traced run, head-sampled 1-in-`rate` at the front end.
fn transend_trace_jsonl_sampled(seed: u64, rate: u32) -> String {
    let mut cluster = TranSendBuilder::new()
        .with_seed(seed)
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
    let items: Vec<_> = t.records.into_iter().map(|r| (r.at, r)).collect();
    let _report = cluster.attach_client(items, Duration::from_secs(3));
    cluster.sim.run_until(SimTime::from_secs(90));
    let log = cluster.trace().expect("tracing was enabled");
    assert!(!log.is_empty(), "the run must have recorded spans");
    cluster_sns::core::trace::to_jsonl(&log)
}

/// Head sampling is a pure function of the request number, so a
/// sampled export must be (a) byte-identical run to run, like the full
/// export, and (b) a strict, non-empty line-subset of the full export
/// for the same seed — sampling drops whole requests, it never invents
/// or reorders spans.
#[test]
fn sampled_trace_exports_are_deterministic_and_subset_the_full_export() {
    let full = transend_trace_jsonl(0xd7);
    let a = transend_trace_jsonl_sampled(0xd7, 4);
    let b = transend_trace_jsonl_sampled(0xd7, 4);
    assert_eq!(a, b, "sampled exports must match byte-for-byte");
    assert!(
        a.lines().count() > 0,
        "1-in-4 sampling should keep some spans"
    );
    assert!(
        a.lines().count() < full.lines().count(),
        "1-in-4 sampling should drop some spans"
    );
    let full_lines: std::collections::BTreeSet<&str> = full.lines().collect();
    for line in a.lines() {
        assert!(
            full_lines.contains(line),
            "sampled span missing from the full export: {line}"
        );
    }
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
fn hotbot_degraded_run() -> (u64, String) {
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
    out += &format!("answered={};partial={}", r.answered, r.partial_coverage);
    (cluster.sim.events_dispatched(), out)
}

// Goldens recorded on the parent of the one-request-path change (PR 21),
// when the TranSend and HotBot front ends still ran hand-written
// per-request state machines: the async bodies that replaced them must
// reproduce these runs bit for bit.
//
// Only the event counts have moved since: the front end used to arm
// one engine timer per dispatch, and a timer whose job was already
// answered still cost an event. With deadlines kept by the dispatch
// plane behind one timer per front end, TranSend went from 10 179 to
// 9 757 events and HotBot from 6 196 to 5 345 (its event count is kept
// out of the hash for that reason); responses, bytes, counters and
// every series are as recorded.

#[test]
fn transend_fingerprint_matches_the_legacy_golden() {
    let (events, responses, bytes, counters) = transend_fingerprint(0xd5);
    assert_eq!(
        (events, responses, bytes, fnv(&counters)),
        (9_757, 121, 203_562, 0xbec4_38c4_d664_face)
    );
}

#[test]
fn chaos_monitor_log_matches_the_legacy_golden() {
    assert_eq!(fnv(&chaos_monitor_log(0xFA)), 0x3fcc_c93b_63ee_8af7);
}

#[test]
fn sampled_trace_export_matches_the_legacy_golden() {
    let jsonl = transend_trace_jsonl_sampled(0xd7, 4);
    assert_eq!(
        (jsonl.lines().count(), fnv(&jsonl)),
        (217, 0x8cc8_b621_ad18_cdb3)
    );
}

#[test]
fn hotbot_degraded_run_matches_the_legacy_golden() {
    let (events, rest) = hotbot_degraded_run();
    assert_eq!((events, fnv(&rest)), (5_345, 0x534b_f15c_3a8a_a4ca));
}

// Goldens recorded while the engine could still run on the heap
// scheduler and these two runs were checked heap against wheel: the
// engine that owns its timer wheel must reproduce them bit for bit.

#[test]
fn rolling_upgrade_monitor_log_matches_the_golden() {
    assert_eq!(fnv(&rolling_upgrade_log(0xFA)), 0x5754_02c7_5343_2332);
}

#[test]
fn full_trace_export_matches_the_golden() {
    let jsonl = transend_trace_jsonl(0xd7);
    assert_eq!(
        (jsonl.lines().count(), fnv(&jsonl)),
        (893, 0x6149_ce51_7550_5b4c)
    );
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
