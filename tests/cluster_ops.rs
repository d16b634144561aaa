//! Cluster-operations chaos: drains, rejoins, rolling upgrades and
//! multi-tenant mixes — every scenario pinned by an invariant
//! (`UpgradeNoJobLoss`, `TenantIsolation`).
//!
//! The operations verbs run through the backend-agnostic [`Cluster`]
//! trait, so the same script drives the simulator harness and the
//! threaded runtime and their normalized monitor logs must agree; the
//! tenant scenarios saturate one service of a shared cluster and pin
//! the other's latency inside a band.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use cluster_sns::chaos::harness::SimClusterBuilder;
use cluster_sns::chaos::{
    check_tenant_isolation, check_upgrade_no_job_loss, p99, FaultKind, FaultPlan, SimChaos,
    SimChaosConfig,
};
use cluster_sns::core::cluster::{Cluster, SettleStats};
use cluster_sns::core::invariant::MonitorLog;
use cluster_sns::core::msg::{Job, JobResult};
use cluster_sns::core::worker::{WorkerError, WorkerLogic};
use cluster_sns::core::SloAggregator;
use cluster_sns::core::{Blob, MonitorTap, OverloadPolicy, Payload, TenantPolicy, WorkerClass};
use cluster_sns::rt::{RtCluster, RtConfig};
use cluster_sns::sim::rng::Pcg32;
use cluster_sns::sim::{MetricKey, SimTime};
use cluster_sns::transend::TranSendBuilder;
use cluster_sns::workload::trace::{TraceGenerator, WorkloadConfig};

/// Modelled-to-wall-clock compression for the rt scenarios.
const RT_SCALE: f64 = 0.05;

struct Echo;

impl WorkerLogic for Echo {
    fn class(&self) -> WorkerClass {
        "echo".into()
    }
    fn service_time(&mut self, _j: &Job, _n: SimTime, _r: &mut Pcg32) -> Duration {
        Duration::from_millis(20)
    }
    fn process(&mut self, job: &Job, _n: SimTime, _r: &mut Pcg32) -> Result<Payload, WorkerError> {
        Ok(Blob::payload(job.input.wire_size() / 2, "echoed"))
    }
}

fn sim_cluster(nodes: usize) -> cluster_sns::chaos::harness::SimCluster {
    SimClusterBuilder::new()
        .with_nodes(nodes)
        .with_workers("echo", 3, || Box::new(Echo))
        .start()
}

fn rt_cluster(nodes: usize) -> Arc<RtCluster> {
    let c = RtCluster::start(
        RtConfig::new()
            .with_nodes(nodes)
            .with_time_scale(RT_SCALE)
            .with_report_period(Duration::from_millis(10))
            .with_beacon_period(Duration::from_millis(20)),
    );
    c.add_workers("echo", 3, || Box::new(Echo));
    c
}

/// The drain/rejoin monitor stream with node ids renamed by first
/// appearance, so the two backends' arbitrary id spaces compare equal.
fn node_ops(log: &MonitorLog) -> Vec<String> {
    let mut nodes: BTreeMap<String, usize> = BTreeMap::new();
    log.entries()
        .iter()
        .filter(|(_, ev)| matches!(ev.kind_key(), "node_drained" | "node_rejoined"))
        .map(|(_, ev)| {
            ev.canonical()
                .split(' ')
                .map(|field| match field.split_once('=') {
                    Some(("node", v)) => {
                        let next = nodes.len();
                        format!("node=N{}", *nodes.entry(v.to_string()).or_insert(next))
                    }
                    _ => field.to_string(),
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

/// Shared drain/rejoin script: service must keep answering while a node
/// is out, repeat verbs must report skips, and the drain/rejoin monitor
/// stream must be the same on both backends.
fn drain_rejoin_script(c: &dyn Cluster, budget: Duration) -> Vec<String> {
    for i in 0..4 {
        c.submit("echo", "echo", Blob::payload(256 + i, "before"));
    }
    let s = c.settle(budget);
    assert_eq!(s.answered, 4, "[{}] pre-drain wave: {s:?}", c.backend());

    assert!(c.drain_node(0), "[{}] drain lands", c.backend());
    assert!(
        !c.drain_node(0),
        "[{}] a second drain of the same node is a skip",
        c.backend()
    );
    let _ = c.settle(budget);
    for i in 0..4 {
        c.submit("echo", "echo", Blob::payload(128 + i, "during"));
    }
    let s = c.settle(budget);
    assert_eq!(
        s.answered,
        4,
        "[{}] service continues with node 0 drained: {s:?}",
        c.backend()
    );

    assert!(c.rejoin_node(0, false), "[{}] rejoin lands", c.backend());
    assert!(
        !c.rejoin_node(0, false),
        "[{}] rejoining an undrained node is a skip",
        c.backend()
    );
    let _ = c.settle(budget);
    node_ops(&c.monitor_log())
}

#[test]
fn drain_rejoin_monitor_streams_match_across_backends() {
    let sim = sim_cluster(2);
    let sim_ops = drain_rejoin_script(&sim, Duration::from_secs(30));
    let rt = rt_cluster(2);
    let rt_ops = drain_rejoin_script(&*rt, Duration::from_secs(3));
    rt.shutdown();
    assert_eq!(
        sim_ops,
        vec![
            "node_drained node=N0".to_string(),
            "node_rejoined node=N0 epoch=0".to_string(),
        ],
        "sim drain/rejoin stream"
    );
    assert_eq!(
        sim_ops, rt_ops,
        "normalized streams diverge across backends"
    );
}

/// Shared rolling-upgrade script: two nodes upgraded one at a time
/// through the trait verbs, with load in flight the whole way. Returns
/// the accumulated settle tally and the monitor log for the
/// `UpgradeNoJobLoss` check.
fn rolling_upgrade_script(c: &dyn Cluster, budget: Duration) -> (SettleStats, MonitorLog) {
    let mut total = SettleStats {
        answered: 0,
        failed: 0,
    };
    let mut wave = |c: &dyn Cluster, tag: &'static str| {
        for i in 0..4 {
            c.submit("echo", "echo", Blob::payload(200 + i, tag));
        }
        let s = c.settle(budget);
        total.answered += s.answered;
        total.failed += s.failed;
    };
    wave(c, "pre");
    for node in 0..2 {
        assert!(c.drain_node(node), "[{}] drain round {node}", c.backend());
        wave(c, "drained");
        assert!(
            c.rejoin_node(node, true),
            "[{}] upgraded rejoin round {node}",
            c.backend()
        );
        wave(c, "rejoined");
    }
    let _ = c.settle(budget);
    (total, c.monitor_log())
}

#[test]
fn rolling_upgrade_under_load_loses_no_jobs_on_both_backends() {
    let sim = sim_cluster(2);
    let (stats, log) = rolling_upgrade_script(&sim, Duration::from_secs(30));
    check_upgrade_no_job_loss(&stats, &log).unwrap();
    assert_eq!(log.count("node_drained"), 2);

    let rt = rt_cluster(2);
    let (stats, log) = rolling_upgrade_script(&*rt, Duration::from_secs(3));
    rt.shutdown();
    check_upgrade_no_job_loss(&stats, &log).unwrap();
    assert_eq!(log.count("node_drained"), 2);
}

fn transend_load(seed: u64) -> Vec<(Duration, cluster_sns::workload::TraceRecord)> {
    let mut gen = TraceGenerator::new(WorkloadConfig {
        seed,
        users: 40,
        shared_objects: 150,
        private_per_user: 10,
        ..Default::default()
    });
    let t = gen.constant_rate(4.0, Duration::from_secs(70));
    t.records.into_iter().map(|r| (r.at, r)).collect()
}

#[test]
fn rolling_upgrade_plan_verb_keeps_transend_serving() {
    // The RollingUpgrade plan verb on the full TranSend stack: two
    // worker nodes upgraded batch-by-batch mid-service. Every request
    // is answered and every drained node comes back at a higher epoch.
    let mut cluster = TranSendBuilder::new()
        .with_worker_nodes(6)
        .with_overflow_nodes(1)
        .with_frontends(1)
        .with_cache_partitions(2)
        .with_min_distillers(1)
        .with_origin_penalty_scale(0.1)
        .build();
    let node = cluster.sim.nodes_with_tag("infra")[0];
    let (tap, log) = MonitorTap::new(cluster.monitor_group);
    cluster.sim.spawn(node, Box::new(tap), "montap");

    let reqs = transend_load(53);
    let n = reqs.len() as u64;
    let report = cluster.attach_client(reqs, Duration::from_secs(4));

    let plan = FaultPlan::new().with(
        Duration::from_secs(20),
        FaultKind::RollingUpgrade {
            pool: "dedicated".into(),
            nodes: 2,
            batch: 1,
            settle: Duration::from_secs(15),
        },
    );
    let chaos = SimChaos::install(&mut cluster.sim, &plan, SimChaosConfig::default());
    cluster.sim.run_until(SimTime::from_secs(400));

    let r = report.borrow();
    let stats = SettleStats {
        answered: r.responses,
        failed: r.errors + (n - r.responses),
    };
    drop(r);
    assert_eq!(chaos.applied_count(), 1, "the upgrade verb landed");
    let log = log.borrow();
    check_upgrade_no_job_loss(&stats, &log).unwrap();
    assert_eq!(stats.answered, n, "every request answered");
    assert_eq!(log.count("node_drained"), 2, "both rounds drained");
    let stats = cluster.sim.stats();
    assert_eq!(stats.counter("manager.drains"), 2);
    assert_eq!(stats.counter("manager.upgrades"), 2);
}

#[test]
fn rolling_upgrade_plan_runs_through_rt_injector() {
    // The same verb compiled by the wall-clock injector against the
    // threaded runtime, with submit waves spanning the upgrade window.
    let c = rt_cluster(2);
    let plan = FaultPlan::new().with(
        Duration::from_secs(2),
        FaultKind::RollingUpgrade {
            pool: "dedicated".into(),
            nodes: 2,
            batch: 1,
            settle: Duration::from_secs(2),
        },
    );
    let injector = cluster_sns::chaos::rt::run_plan(Arc::clone(&c), &plan, RT_SCALE);

    let mut total = SettleStats {
        answered: 0,
        failed: 0,
    };
    while !injector.is_finished() {
        for i in 0..5 {
            Cluster::submit(&*c, "echo", "echo", Blob::payload(100 + i, "load"));
        }
        let s = c.settle(Duration::from_secs(5));
        total.answered += s.answered;
        total.failed += s.failed;
    }
    let report = injector.join().expect("injector thread");
    let log = c.monitor_log();
    c.shutdown();

    assert!(report.skipped.is_empty(), "{report:?}");
    check_upgrade_no_job_loss(&total, &log).unwrap();
    assert_eq!(log.count("node_drained"), 2, "both rounds drained");
    assert_eq!(log.count("node_rejoined"), 2, "both rounds rejoined");
}

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

#[test]
fn flash_crowd_on_one_tenant_cannot_starve_the_other() {
    // TranSend and HotBot share one cluster. TranSend's request class
    // is flooded far past its outstanding quota with a Drop overload
    // policy; HotBot's chat class runs its normal trickle. The victim
    // tenant must stay inside its latency band and lose nothing, while
    // the aggressor's excess is shed at admission.
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

    // Flash crowd on TranSend, trickle on HotBot, interleaved.
    for i in 0..300 {
        c.submit("tsreq", "req", Blob::payload(256 + i, "crowd"));
        if i % 15 == 0 {
            c.submit("hbchat", "chat", Blob::payload(128, "msg"));
        }
    }
    let s = c.settle(Duration::from_secs(60));

    let victim = c.latencies_of("hbchat");
    assert_eq!(victim.len(), 20, "every victim-tenant request answered");
    check_tenant_isolation(&victim, Duration::from_secs(2)).unwrap();
    let dropped = c.counter(MetricKey::new("stub.tenant_dropped"));
    assert!(
        dropped >= 200,
        "the aggressor's excess was shed at admission: {dropped} drops, {s:?}"
    );
    assert_eq!(
        s.answered + s.failed,
        320,
        "every submit resolved one way or the other: {s:?}"
    );
    // The quota still serves the aggressor at its sustainable rate.
    let aggressor = c.latencies_of("tsreq");
    assert_eq!(aggressor.len() as u64 + dropped, 300);
    assert!(
        p99(&victim) < p99(&aggressor).max(Duration::from_millis(1)) + Duration::from_secs(2),
        "victim p99 {:?} vs aggressor p99 {:?}",
        p99(&victim),
        p99(&aggressor)
    );
}

#[test]
fn sampled_slo_rows_stay_closed_under_the_flash_crowd() {
    // The flash-crowd plan again, but with always-on sampled tracing:
    // the span-derived per-tenant SLO rows must stay *closed* — the
    // sampled request count, scaled back up by the sampling rate, has
    // to account for the admitted (non-shed) requests of each tenant
    // within a band. A leak here means overload shedding or chaos is
    // dropping sampled spans, and the operator's percentiles silently
    // stop describing the traffic they claim to.
    const RATE: u32 = 2;
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
        .with_tracing(true)
        .with_trace_sampling(RATE)
        .start();

    for i in 0..300 {
        c.submit("tsreq", "req", Blob::payload(256 + i, "crowd"));
        if i % 15 == 0 {
            c.submit("hbchat", "chat", Blob::payload(128, "msg"));
        }
    }
    c.settle(Duration::from_secs(60));
    let dropped = c.counter(MetricKey::new("stub.tenant_dropped"));
    let admitted: BTreeMap<&str, u64> =
        BTreeMap::from([("transend", 300 - dropped), ("hotbot", 20)]);

    let mut slo = SloAggregator::new(RATE);
    slo.set_tenant("tsreq", "transend");
    slo.set_tenant("hbchat", "hotbot");
    slo.ingest(&c.trace_snapshot().expect("tracing enabled"));

    let rows = slo.rows();
    let total_admitted: u64 = admitted.values().sum();
    let est = slo.sampled_requests() * u64::from(RATE);
    assert!(
        (total_admitted / 2..=total_admitted * 2).contains(&est),
        "request closure: {} sampled x {RATE} = {est} vs {total_admitted} admitted",
        slo.sampled_requests()
    );
    for (tenant, &served) in &admitted {
        let row = rows
            .iter()
            .find(|r| r.bench == format!("slo/tenant/{tenant}"))
            .unwrap_or_else(|| panic!("tenant {tenant} has a percentile row"));
        assert!(
            (served / 2..=served * 2).contains(&row.iters),
            "{tenant} closure: {} sampled x {RATE} = {} vs {served} admitted",
            row.samples,
            row.iters
        );
        assert!(
            row.p50_ns <= row.p99_ns && row.p99_ns <= row.max_ns,
            "{tenant} percentiles are ordered"
        );
    }
    // The shed excess must NOT appear in the SLO stream: admission
    // drops happen before a job span is ever opened.
    assert!(dropped >= 200, "the plan still sheds the flash crowd");
    let ts_row = rows
        .iter()
        .find(|r| r.bench == "slo/tenant/transend")
        .expect("row");
    assert!(
        ts_row.iters < 300,
        "shed requests leaked into the aggressor's SLO rows"
    );
}

#[test]
fn rt_tenant_quota_drops_are_scoped_to_the_aggressor() {
    // The same admission machinery on the threaded runtime: the flooded
    // tenant sees "tenant over quota" failures, the other tenant sees
    // none.
    let c = RtCluster::start(
        RtConfig::new()
            .with_nodes(2)
            .with_time_scale(RT_SCALE)
            .with_report_period(Duration::from_millis(10))
            .with_beacon_period(Duration::from_millis(20)),
    );
    c.add_workers("burst", 2, || {
        Box::new(SlowEcho("burst", Duration::from_millis(200)))
    });
    c.add_workers("chat", 2, || {
        Box::new(SlowEcho("chat", Duration::from_millis(20)))
    });
    c.set_tenant("burst", "transend");
    c.set_tenant_policy(
        "transend",
        TenantPolicy {
            max_outstanding: 1,
            overload: OverloadPolicy::Drop,
        },
    );

    let burst_rx: Vec<_> = (0..20)
        .map(|i| c.submit("burst", "req", Blob::payload(100 + i, "crowd"), None))
        .collect();
    let chat_rx: Vec<_> = (0..5)
        .map(|i| c.submit("chat", "msg", Blob::payload(64 + i, "hi"), None))
        .collect();

    let mut dropped = 0;
    for rx in burst_rx {
        match rx.recv_timeout(Duration::from_secs(30)).expect("reply") {
            JobResult::Ok(_) => {}
            JobResult::Failed(e) => {
                assert!(e.contains("tenant over quota"), "{e}");
                dropped += 1;
            }
        }
    }
    for rx in chat_rx {
        match rx.recv_timeout(Duration::from_secs(30)).expect("reply") {
            JobResult::Ok(_) => {}
            JobResult::Failed(e) => panic!("victim tenant saw a failure: {e}"),
        }
    }
    c.shutdown();
    assert!(
        dropped >= 1,
        "a 20-deep burst against a quota of 1 must shed load"
    );
}

#[test]
fn node_faults_at_dead_nodes_skip_instead_of_rewrapping() {
    // A fault addressed to a node in the wrong state must be reported
    // as a skip — never silently re-aimed at a live node. Kill node 0,
    // then aim a straggler and a second kill at the same index: both
    // are skips and exactly one node is down afterwards.
    let mut cluster = TranSendBuilder::new()
        .with_worker_nodes(6)
        .with_overflow_nodes(1)
        .with_frontends(1)
        .with_cache_partitions(2)
        .with_min_distillers(1)
        .with_origin_penalty_scale(0.1)
        .build();
    let reqs = transend_load(59);
    let n = reqs.len() as u64;
    let report = cluster.attach_client(reqs, Duration::from_secs(4));

    let plan = FaultPlan::new()
        .with(
            Duration::from_secs(20),
            FaultKind::KillNode {
                pool: "dedicated".into(),
                which: 0,
            },
        )
        .with(
            Duration::from_secs(30),
            FaultKind::Straggler {
                pool: "dedicated".into(),
                which: 0,
                slowdown: 10,
                lasting: Duration::from_secs(5),
            },
        )
        .with(
            Duration::from_secs(40),
            FaultKind::KillNode {
                pool: "dedicated".into(),
                which: 0,
            },
        );
    let chaos = SimChaos::install(&mut cluster.sim, &plan, SimChaosConfig::default());
    cluster.sim.run_until(SimTime::from_secs(300));

    let inj = chaos.injections();
    assert_eq!(inj.len(), 3);
    assert!(inj[0].applied, "the first kill lands: {:?}", inj[0]);
    assert!(
        !inj[1].applied && !inj[2].applied,
        "faults at the dead node are skips, not re-aims: {inj:?}"
    );
    let dead = cluster
        .sim
        .nodes_with_tag_all("dedicated")
        .iter()
        .filter(|&&(_, alive)| !alive)
        .count();
    assert_eq!(dead, 1, "exactly one node down — nothing re-wrapped");
    let r = report.borrow();
    assert_eq!(r.responses, n, "service recovered around the dead node");
    assert_eq!(r.errors, 0);
}

#[test]
fn repeated_drain_and_rejoin_plan_verbs_skip() {
    // A second drain of a drained node and a rejoin of a node already
    // back in service are skips, as the verbs' docs say: only the first
    // of each reaches the manager, and service carries on throughout.
    let mut cluster = TranSendBuilder::new()
        .with_worker_nodes(6)
        .with_overflow_nodes(1)
        .with_frontends(1)
        .with_cache_partitions(2)
        .with_min_distillers(1)
        .with_origin_penalty_scale(0.1)
        .build();
    let node = cluster.sim.nodes_with_tag("infra")[0];
    let (tap, log) = MonitorTap::new(cluster.monitor_group);
    cluster.sim.spawn(node, Box::new(tap), "montap");
    let reqs = transend_load(61);
    let n = reqs.len() as u64;
    let report = cluster.attach_client(reqs, Duration::from_secs(4));

    let drain = FaultKind::DrainNode {
        pool: "dedicated".into(),
        which: 0,
    };
    let rejoin = FaultKind::RejoinNode {
        pool: "dedicated".into(),
        which: 0,
    };
    let plan = FaultPlan::new()
        .with(Duration::from_secs(20), drain.clone())
        .with(Duration::from_secs(25), drain)
        .with(Duration::from_secs(40), rejoin.clone())
        .with(Duration::from_secs(45), rejoin);
    let chaos = SimChaos::install(&mut cluster.sim, &plan, SimChaosConfig::default());
    cluster.sim.run_until(SimTime::from_secs(300));

    let outcomes: Vec<bool> = chaos.injections().iter().map(|i| i.applied).collect();
    assert_eq!(outcomes, [true, false, true, false]);
    let log = log.borrow();
    assert_eq!(log.count("node_drained"), 1);
    assert_eq!(log.count("node_rejoined"), 1);
    let r = report.borrow();
    assert_eq!(r.responses, n, "every request answered");
    assert_eq!(r.errors, 0);
}

#[test]
fn overlapping_stragglers_restore_the_original_nic() {
    // Two 10x stragglers on one node whose windows overlap: once both
    // have ended, the node's NIC runs at its original bandwidth again.
    let mut cluster = TranSendBuilder::new()
        .with_worker_nodes(2)
        .with_frontends(1)
        .build();
    let node = cluster.sim.nodes_with_tag("dedicated")[0];
    let original = cluster.sim.net().nic_params(node).bandwidth_bps;
    let straggler = FaultKind::Straggler {
        pool: "dedicated".into(),
        which: 0,
        slowdown: 10,
        lasting: Duration::from_secs(10),
    };
    let plan = FaultPlan::new()
        .with(Duration::from_secs(10), straggler.clone())
        .with(Duration::from_secs(15), straggler);
    let chaos = SimChaos::install(&mut cluster.sim, &plan, SimChaosConfig::default());
    cluster.sim.run_until(SimTime::from_secs(18));
    assert_eq!(
        cluster.sim.net().nic_params(node).bandwidth_bps,
        original / 10.0,
        "inside the overlap the node runs at 1/10"
    );
    cluster.sim.run_until(SimTime::from_secs(40));
    assert_eq!(chaos.applied_count(), 2);
    assert_eq!(
        cluster.sim.net().nic_params(node).bandwidth_bps,
        original,
        "both windows over: the original NIC is back"
    );
}
