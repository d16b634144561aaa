//! Cross-crate fault-tolerance scenarios on the full TranSend stack:
//! the §3.1.3 process-peer web (front end restarts manager, manager
//! restarts workers), SAN partitions, and compound failures.
//!
//! Faults are expressed as declarative `sns-chaos` [`FaultPlan`]s where
//! they have a plan vocabulary (kills, partitions, failover); each run
//! records the monitor multicast through a [`MonitorTap`] and replays
//! the log through recovery-invariant checkers on top of the end-state
//! assertions.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cluster_sns::chaos::{
    check_death_reconciliation, CrashBudget, FaultKind, FaultPlan, RespawnCoverage, SimChaos,
    SimChaosConfig, SpawnBudget,
};
use cluster_sns::core::msg::{Job, JobResult};
use cluster_sns::core::worker::{WorkerError, WorkerLogic};
use cluster_sns::core::{Blob, MonitorTap, Payload, TapHandle, WorkerClass};
use cluster_sns::rt::{RtCluster, RtConfig};
use cluster_sns::sim::rng::Pcg32;
use cluster_sns::sim::SimTime;
use cluster_sns::transend::{TranSendBuilder, TranSendCluster};
use cluster_sns::workload::trace::{TraceGenerator, WorkloadConfig};

fn items(seed: u64, rate: f64, secs: u64) -> Vec<(Duration, cluster_sns::workload::TraceRecord)> {
    let mut gen = TraceGenerator::new(WorkloadConfig {
        seed,
        users: 40,
        shared_objects: 150,
        private_per_user: 10,
        ..Default::default()
    });
    let t = gen.constant_rate(rate, Duration::from_secs(secs));
    t.records.into_iter().map(|r| (r.at, r)).collect()
}

fn small_cluster() -> cluster_sns::transend::TranSendCluster {
    TranSendBuilder::new()
        .with_worker_nodes(6)
        .with_overflow_nodes(1)
        .with_frontends(1)
        .with_cache_partitions(2)
        .with_min_distillers(1)
        .with_origin_penalty_scale(0.1)
        .build()
}

/// Attaches a monitor tap so invariants can replay the event stream.
fn tap(cluster: &mut TranSendCluster) -> TapHandle {
    let node = cluster.sim.nodes_with_tag("infra")[0];
    let (tap, log) = MonitorTap::new(cluster.monitor_group);
    cluster.sim.spawn(node, Box::new(tap), "montap");
    log
}

fn cache_count(cluster: &TranSendCluster) -> usize {
    cluster.sim.components_of_kind("cache").len()
}

#[test]
fn full_process_peer_chain_manager_death_mid_service() {
    let mut cluster = small_cluster();
    let log = tap(&mut cluster);
    let reqs = items(21, 4.0, 60);
    let n = reqs.len() as u64;
    let report = cluster.attach_client(reqs, Duration::from_secs(4));

    let plan = FaultPlan::new().with(Duration::from_secs(20), FaultKind::KillManager);
    let chaos = SimChaos::install(&mut cluster.sim, &plan, SimChaosConfig::default());
    cluster
        .sim
        .run_until(SimTime::ZERO + plan.horizon(Duration::from_secs(280)));

    let r = report.borrow();
    assert_eq!(r.responses, n, "stale hints carry the FEs through (§3.1.8)");
    assert_eq!(r.errors, 0);
    drop(r);
    assert_eq!(chaos.applied_count(), 1);
    let stats = cluster.sim.stats();
    assert!(
        stats.counter("fe.manager_restarts") >= 1,
        "FE restarted the manager"
    );
    // Reconciliation: the only death the engine saw is the planned one.
    check_death_reconciliation(stats.counter("sim.deaths"), plan.kills() as u64, 0).unwrap();
    assert_eq!(
        cluster.sim.components_of_kind("manager").len(),
        1,
        "exactly one manager after recovery"
    );
    // The new incarnation re-learned every pinned worker class without
    // double-spawning: still exactly 2 caches and 1 profile DB.
    assert_eq!(cache_count(&cluster), 2);
    assert_eq!(cluster.sim.components_of_kind("profiledb").len(), 1);
    // The LB never kept routing to the corpse past the grace window.
    let violations = chaos.stale_routing_violations(&log.borrow());
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn san_partition_heals_and_service_recovers() {
    let mut cluster = small_cluster();
    let reqs = items(22, 3.0, 80);
    let n = reqs.len() as u64;
    let report = cluster.attach_client(reqs, Duration::from_secs(4));

    // Partition a worker node away from the rest of the cluster for 20 s
    // (§2.2.4: workers lost because of a SAN partition).
    let plan = FaultPlan::new().with(
        Duration::from_secs(25),
        FaultKind::Partition {
            pool: "dedicated".into(),
            which: 0,
            heal_after: Duration::from_secs(20),
        },
    );
    let chaos = SimChaos::install(&mut cluster.sim, &plan, SimChaosConfig::default());
    cluster.sim.run_until(SimTime::from_secs(400));

    let r = report.borrow();
    assert_eq!(r.responses, n, "partition must not lose requests");
    assert_eq!(r.errors, 0);
    drop(r);
    assert_eq!(chaos.applied_count(), 1);
}

#[test]
fn hot_upgrade_drains_and_restores_a_node() {
    // §2.2: "temporarily disable a subset of nodes and then upgrade them
    // in place ('hot upgrade')". Drain a worker node mid-service: its
    // workers shut down gracefully and are respawned elsewhere; requests
    // keep flowing; after the upgrade the node rejoins the pool. Drains
    // are administrative messages, not faults, so this scenario stays
    // message-driven rather than plan-driven.
    let mut cluster = small_cluster();
    let manager = cluster.manager;
    let reqs = items(29, 4.0, 80);
    let n = reqs.len() as u64;
    let report = cluster.attach_client(reqs, Duration::from_secs(4));

    let victim = cluster.sim.nodes_with_tag("dedicated")[0];
    cluster.sim.at(SimTime::from_secs(20), move |sim| {
        sim.inject(
            manager,
            cluster_sns::core::msg::SnsMsg::DrainNode { node: victim },
        );
    });
    // Mid-upgrade check: nothing may be running on the drained node.
    cluster.sim.at(SimTime::from_secs(45), move |sim| {
        let leftover = sim.count_components_on(victim) as u64;
        sim.stats_mut().incr("test.leftover_on_drained", leftover);
    });
    cluster.sim.at(SimTime::from_secs(55), move |sim| {
        sim.inject(
            manager,
            cluster_sns::core::msg::SnsMsg::UndrainNode { node: victim },
        );
    });
    cluster.sim.run_until(SimTime::from_secs(400));

    let r = report.borrow();
    assert_eq!(r.responses, n, "hot upgrade must not lose requests");
    assert_eq!(r.errors, 0);
    drop(r);
    let stats = cluster.sim.stats();
    assert_eq!(stats.counter("manager.drains"), 1);
    assert_eq!(stats.counter("manager.undrains"), 1);
    assert_eq!(
        stats.counter("test.leftover_on_drained"),
        0,
        "the drained node must be empty during the upgrade window"
    );
    // The pinned classes are back at full strength on the other nodes.
    assert_eq!(cache_count(&cluster), 2);
}

#[test]
fn drain_rejoin_plan_verbs_run_the_hot_upgrade() {
    // The plan-driven twin of `hot_upgrade_drains_and_restores_a_node`:
    // the same drain → rejoin cycle expressed as `DrainNode` /
    // `RejoinNode` fault-plan verbs, so cluster operations shrink,
    // replay, and diff exactly like faults do.
    let mut cluster = small_cluster();
    let log = tap(&mut cluster);
    let reqs = items(29, 4.0, 80);
    let n = reqs.len() as u64;
    let report = cluster.attach_client(reqs, Duration::from_secs(4));

    let plan = FaultPlan::new()
        .with(
            Duration::from_secs(20),
            FaultKind::DrainNode {
                pool: "dedicated".into(),
                which: 0,
            },
        )
        .with(
            Duration::from_secs(55),
            FaultKind::RejoinNode {
                pool: "dedicated".into(),
                which: 0,
            },
        );
    let chaos = SimChaos::install(&mut cluster.sim, &plan, SimChaosConfig::default());
    cluster
        .sim
        .run_until(SimTime::ZERO + plan.horizon(Duration::from_secs(300)));

    let r = report.borrow();
    assert_eq!(r.responses, n, "drain/rejoin must not lose requests");
    assert_eq!(r.errors, 0);
    drop(r);
    assert_eq!(chaos.applied_count(), 2, "both verbs applied, no skips");
    let stats = cluster.sim.stats();
    assert_eq!(stats.counter("manager.drains"), 1);
    assert_eq!(stats.counter("manager.undrains"), 1);
    let tapped = log.borrow();
    assert_eq!(tapped.count("node_drained"), 1);
    assert_eq!(tapped.count("node_rejoined"), 1);
    drop(tapped);
    assert_eq!(cache_count(&cluster), 2);
}

#[test]
fn partitioned_worker_is_replaced_by_timeout_inference() {
    // §2.2.4: "if workers lost because of a SAN partition can be
    // restarted on still-visible nodes, the manager performs the
    // necessary actions" — a partitioned node's workers stop reporting,
    // the manager presumes them lost and replaces them elsewhere; when
    // the partition heals, the stragglers re-adopt and any pinned-class
    // surplus is reaped back to strength.
    let mut cluster = small_cluster();
    let reqs = items(37, 3.0, 90);
    let n = reqs.len() as u64;
    let report = cluster.attach_client(reqs, Duration::from_secs(4));

    let lonely = cluster.sim.nodes_with_tag("dedicated")[0];
    let plan = FaultPlan::new().with(
        Duration::from_secs(25),
        FaultKind::Partition {
            pool: "dedicated".into(),
            which: 0,
            heal_after: Duration::from_secs(35),
        },
    );
    SimChaos::install(&mut cluster.sim, &plan, SimChaosConfig::default());
    // Check replacement happened while still partitioned.
    cluster.sim.at(SimTime::from_secs(45), move |sim| {
        let caches = sim.components_of_kind("cache");
        let off_lonely = caches
            .iter()
            .filter(|&&c| sim.node_of(c) != Some(lonely))
            .count() as u64;
        sim.stats_mut()
            .incr("test.caches_off_partition", off_lonely);
    });
    cluster.sim.run_until(SimTime::from_secs(400));

    let r = report.borrow();
    assert_eq!(r.responses, n);
    assert_eq!(r.errors, 0);
    drop(r);
    let stats = cluster.sim.stats();
    assert!(
        stats.counter("manager.report_timeouts") >= 1,
        "silent (partitioned) workers were presumed lost"
    );
    assert!(
        stats.counter("test.caches_off_partition") >= 2,
        "full cache strength restored on visible nodes during the partition"
    );
    // After healing + reaping, the pinned class is back at exactly 2.
    assert_eq!(cache_count(&cluster), 2);
}

#[test]
fn client_side_balancing_masks_front_end_failure() {
    // §3.1.2: client-side logic "balances load across multiple front
    // ends and masks transient front end failures". With two FEs, kill
    // one mid-run: the client's round-robin skips the dead FE and every
    // *new* request still succeeds (requests in flight at the instant of
    // the kill are the client's to retry in the real system; the trace
    // client counts them as unanswered, so we assert on the tail).
    let mut cluster = TranSendBuilder::new()
        .with_worker_nodes(6)
        .with_overflow_nodes(1)
        .with_frontends(2)
        .with_cache_partitions(2)
        .with_min_distillers(1)
        .with_origin_penalty_scale(0.1)
        .build();
    let reqs = items(31, 4.0, 60);
    let n = reqs.len() as u64;
    let report = cluster.attach_client(reqs, Duration::from_secs(4));

    // A front end is just another component kind to the plan grammar.
    let plan = FaultPlan::new().with(
        Duration::from_secs(20),
        FaultKind::KillWorker {
            class: "frontend".into(),
            which: 1,
        },
    );
    let chaos = SimChaos::install(&mut cluster.sim, &plan, SimChaosConfig::default());
    cluster.sim.run_until(SimTime::from_secs(300));

    let r = report.borrow();
    assert_eq!(r.errors, 0);
    // Only the requests in flight at the dead FE at kill time can be
    // lost; everything sent afterwards is served by the survivor.
    assert!(
        n - r.responses <= 5,
        "at most a handful of in-flight requests lost: {} of {}",
        n - r.responses,
        n
    );
    drop(r);
    assert_eq!(chaos.applied_count(), 1);
    assert_eq!(
        cluster.sim.components_of_kind("frontend").len(),
        1,
        "the surviving front end carries the service"
    );
}

#[test]
fn node_loss_with_workers_is_replaced_elsewhere() {
    let mut cluster = small_cluster();
    let log = tap(&mut cluster);
    let reqs = items(23, 4.0, 60);
    let n = reqs.len() as u64;
    let report = cluster.attach_client(reqs, Duration::from_secs(4));
    // Kill a whole worker node once things are running: every worker on
    // it (cache partitions, distillers, …) must be replaced on the
    // surviving nodes.
    let plan = FaultPlan::new().with(
        Duration::from_secs(20),
        FaultKind::KillNode {
            pool: "dedicated".into(),
            which: 0,
        },
    );
    let chaos = SimChaos::install(&mut cluster.sim, &plan, SimChaosConfig::default());
    cluster.sim.run_until(SimTime::from_secs(300));
    let r = report.borrow();
    assert_eq!(r.responses, n);
    assert_eq!(r.errors, 0);
    drop(r);
    assert_eq!(chaos.applied_count(), 1);
    // The pinned cache class is back at strength on other nodes.
    assert_eq!(cache_count(&cluster), 2);
    let violations = chaos.stale_routing_violations(&log.borrow());
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn crash_during_queue_salvage_still_conserves_jobs() {
    // Kill a cache partition, then kill its replacement 500 ms later —
    // inside the salvage window, while the front ends are still retrying
    // the first victim's outstanding requests against the newborn. The
    // manager must go around the spawn loop again and no request may be
    // lost to the compound failure.
    let mut cluster = small_cluster();
    let log = tap(&mut cluster);
    let reqs = items(41, 4.0, 60);
    let n = reqs.len() as u64;
    let report = cluster.attach_client(reqs, Duration::from_secs(4));

    let plan = FaultPlan::new()
        .with(
            Duration::from_secs(20),
            FaultKind::KillWorker {
                class: "cache".into(),
                which: 0,
            },
        )
        .with(
            Duration::from_millis(20_500),
            FaultKind::KillWorker {
                class: "cache".into(),
                which: 0,
            },
        );
    let chaos = SimChaos::install(&mut cluster.sim, &plan, SimChaosConfig::default());
    cluster
        .sim
        .run_until(SimTime::ZERO + plan.horizon(Duration::from_secs(280)));

    let r = report.borrow();
    assert_eq!(r.responses, n, "no request lost to the compound crash");
    assert_eq!(r.errors, 0);
    drop(r);
    assert_eq!(chaos.applied_count(), 2);
    assert_eq!(cache_count(&cluster), 2, "population restored");
    let log = log.borrow();
    // Boot spawned 6 workers (2 caches + 1 profile DB + 3 distillers);
    // both kills must have produced replacements on top of that.
    log.check(&mut RespawnCoverage::new(8)).unwrap();
    let violations = chaos.stale_routing_violations(&log);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn double_crash_of_same_logical_worker_recovers_twice() {
    // The same logical worker (cache partition 0) dies twice, 10 s
    // apart — recovery must be repeatable, not a one-shot: full strength
    // and full service after each round.
    let mut cluster = small_cluster();
    let log = tap(&mut cluster);
    let reqs = items(43, 4.0, 60);
    let n = reqs.len() as u64;
    let report = cluster.attach_client(reqs, Duration::from_secs(4));

    let kill = FaultKind::KillWorker {
        class: "cache".into(),
        which: 0,
    };
    let plan = FaultPlan::new()
        .with(Duration::from_secs(20), kill.clone())
        .with(Duration::from_secs(30), kill);
    let chaos = SimChaos::install(&mut cluster.sim, &plan, SimChaosConfig::default());
    cluster
        .sim
        .run_until(SimTime::ZERO + plan.horizon(Duration::from_secs(280)));

    let r = report.borrow();
    assert_eq!(r.responses, n);
    assert_eq!(r.errors, 0);
    drop(r);
    assert_eq!(chaos.applied_count(), 2);
    assert_eq!(cache_count(&cluster), 2);
    let log = log.borrow();
    log.check(&mut RespawnCoverage::new(8)).unwrap();
    let violations = chaos.stale_routing_violations(&log);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn manager_failover_with_beacon_in_flight() {
    // Kill the manager 200 µs after a beacon left its NIC: the beacon is
    // still in the SAN when its sender dies. The front ends must both
    // consume that last beacon harmlessly and still detect the loss and
    // restart the manager — a message from the dead must not postpone
    // failover or confuse the new incarnation.
    let mut cluster = small_cluster();
    let reqs = items(47, 4.0, 60);
    let n = reqs.len() as u64;
    let report = cluster.attach_client(reqs, Duration::from_secs(4));

    // Beacons go out every 1 s from boot; 20 s + 200 µs is just after
    // one is emitted and well inside the ~ms SAN delivery time.
    let plan = FaultPlan::new().with(Duration::from_micros(20_000_200), FaultKind::KillManager);
    let chaos = SimChaos::install(&mut cluster.sim, &plan, SimChaosConfig::default());
    cluster
        .sim
        .run_until(SimTime::ZERO + plan.horizon(Duration::from_secs(280)));

    let r = report.borrow();
    assert_eq!(r.responses, n);
    assert_eq!(r.errors, 0);
    drop(r);
    assert_eq!(chaos.applied_count(), 1);
    let stats = cluster.sim.stats();
    assert!(stats.counter("fe.manager_restarts") >= 1);
    check_death_reconciliation(stats.counter("sim.deaths"), plan.kills() as u64, 0).unwrap();
    assert_eq!(
        cluster.sim.components_of_kind("manager").len(),
        1,
        "exactly one manager survives the in-flight beacon"
    );
    assert_eq!(cache_count(&cluster), 2);
}

// ---------------------------------------------------------------------------
// The same plans, the same checkers — against the threaded runtime.
//
// Since the control plane moved into shared sans-IO machines, the rt
// backend emits the same canonical monitor stream the sim does, so the
// recovery invariants below (`SpawnBudget`, `RespawnCoverage`,
// `CrashBudget`, death reconciliation) replay over an `RtCluster`'s
// `MonitorLog` completely unchanged.
// ---------------------------------------------------------------------------

/// Modelled-to-wall-clock compression for the rt scenarios.
const RT_SCALE: f64 = 0.05;

struct RtEcho;

impl WorkerLogic for RtEcho {
    fn class(&self) -> WorkerClass {
        "echo".into()
    }
    fn service_time(&mut self, _j: &Job, _n: SimTime, _r: &mut Pcg32) -> Duration {
        Duration::from_millis(20)
    }
    fn process(&mut self, job: &Job, _n: SimTime, _r: &mut Pcg32) -> Result<Payload, WorkerError> {
        Ok(Blob::payload(job.input.wire_size(), "echoed"))
    }
}

fn rt_cluster() -> Arc<RtCluster> {
    let c = RtCluster::start(
        RtConfig::new()
            .with_time_scale(RT_SCALE)
            .with_report_period(Duration::from_millis(10))
            .with_beacon_period(Duration::from_millis(20)),
    );
    c.add_workers("echo", 3, || Box::new(RtEcho));
    c
}

fn rt_await_population(c: &RtCluster, n: usize, restarts: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if c.workers_of("echo") == n && c.restarts.load(Ordering::Relaxed) >= restarts {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!(
        "rt population not restored: {} workers, {} restarts",
        c.workers_of("echo"),
        c.restarts.load(Ordering::Relaxed)
    );
}

#[test]
fn rt_kill_worker_plan_passes_sim_recovery_invariants() {
    let c = rt_cluster();
    let kill = FaultKind::KillWorker {
        class: "echo".into(),
        which: 0,
    };
    let plan = FaultPlan::new()
        .with(Duration::from_secs(2), kill.clone())
        .with(Duration::from_secs(4), kill);
    let injector = cluster_sns::chaos::rt::run_plan(Arc::clone(&c), &plan, RT_SCALE);

    let receivers: Vec<_> = (0..100)
        .map(|i| c.submit("echo", "op", Blob::payload(100 + i, "x"), None))
        .collect();

    let report = injector.join().expect("injector thread");
    assert_eq!(report.applied.len(), 2, "{report:?}");
    assert!(report.skipped.is_empty(), "{report:?}");
    assert_eq!(report.crashes_injected, 2);

    for rx in receivers {
        match rx.recv_timeout(Duration::from_secs(30)).expect("reply") {
            JobResult::Ok(_) => {}
            JobResult::Failed(e) => panic!("job failed under rt chaos: {e}"),
        }
    }
    rt_await_population(&c, 3, 2);
    c.shutdown();

    let log = c.monitor_log();
    // 3 bootstrap spawns + exactly one respawn per planned kill.
    log.check(&mut SpawnBudget::new(5)).unwrap();
    log.check(&mut RespawnCoverage::new(5)).unwrap();
    log.check(&mut CrashBudget::new(2)).unwrap();
    check_death_reconciliation(
        c.crashes.load(Ordering::Relaxed),
        report.crashes_injected as u64,
        0,
    )
    .unwrap();
}

#[test]
fn rt_kill_manager_plan_passes_sim_recovery_invariants() {
    // Manager failover with a worker death in the gap: the replacement
    // spawn is deferred until the new incarnation takes over, and the
    // checkers still close over the resulting monitor stream. (The
    // failover respawn comes from the new incarnation's ensure pass, so
    // it is a plain spawn — no peer_restarted attribution.)
    let c = rt_cluster();
    let plan = FaultPlan::new()
        .with(Duration::from_secs(2), FaultKind::KillManager)
        .with(
            Duration::from_millis(2500),
            FaultKind::KillWorker {
                class: "echo".into(),
                which: 0,
            },
        )
        .with(Duration::from_secs(5), FaultKind::RestartManager);
    let injector = cluster_sns::chaos::rt::run_plan(Arc::clone(&c), &plan, RT_SCALE);

    let receivers: Vec<_> = (0..100)
        .map(|i| c.submit("echo", "op", Blob::payload(50 + i, "x"), None))
        .collect();

    let report = injector.join().expect("injector thread");
    assert_eq!(report.applied.len(), 3, "{report:?}");
    assert!(report.skipped.is_empty(), "{report:?}");
    assert_eq!(report.crashes_injected, 1);

    for rx in receivers {
        match rx.recv_timeout(Duration::from_secs(30)).expect("reply") {
            JobResult::Ok(_) => {}
            JobResult::Failed(e) => panic!("job failed across rt failover: {e}"),
        }
    }
    rt_await_population(&c, 3, 1);
    c.shutdown();

    let log = c.monitor_log();
    log.check(&mut RespawnCoverage::new(4)).unwrap();
    log.check(&mut CrashBudget::new(1)).unwrap();
    check_death_reconciliation(c.crashes.load(Ordering::Relaxed), 1, 0).unwrap();
}
