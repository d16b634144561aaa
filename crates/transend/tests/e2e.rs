//! End-to-end TranSend tests: trace-driven runs through the full stack
//! (client → FE → profile DB → virtual cache → origin → distillers →
//! cache injection → response), plus fault-injection runs.

use std::time::Duration;

use sns_sim::time::SimTime;
use sns_transend::{TranSendBuilder, TranSendCluster};
use sns_workload::trace::{TraceGenerator, WorkloadConfig};

fn small_trace(seed: u64, rate: f64, secs: u64) -> Vec<(Duration, sns_workload::TraceRecord)> {
    let mut gen = TraceGenerator::new(WorkloadConfig {
        seed,
        users: 50,
        shared_objects: 200,
        private_per_user: 10,
        ..Default::default()
    });
    let trace = gen.constant_rate(rate, Duration::from_secs(secs));
    trace.records.into_iter().map(|r| (r.at, r)).collect()
}

fn build_small() -> TranSendCluster {
    TranSendBuilder::new()
        .with_worker_nodes(6)
        .with_overflow_nodes(1)
        .with_frontends(1)
        .with_cache_partitions(3)
        .with_min_distillers(1)
        .with_origin_penalty_scale(0.2) // keep test wall-clock tight
        .build()
}

#[test]
fn trace_run_distills_and_caches() {
    let mut cluster = build_small();
    let items = small_trace(42, 5.0, 30);
    let n = items.len() as u64;
    let report = cluster.attach_client(items, Duration::from_secs(4));
    cluster.sim.run_until(SimTime::from_secs(150));

    let r = report.borrow();
    assert_eq!(r.sent, n);
    assert_eq!(r.responses, n, "every request answered");
    assert_eq!(r.errors, 0, "no errors in a healthy cluster");
    // Distillation saves bytes overall (the whole point of TranSend).
    assert!(
        r.savings() > 0.3,
        "expected >30% byte savings, got {:.3}",
        r.savings()
    );
    drop(r);

    let stats = cluster.sim.stats();
    assert!(stats.counter("ts.distilled") > 0, "images were distilled");
    assert!(
        stats.counter("ts.cache_hit_final") > 0,
        "repeated objects hit the distilled-variant cache"
    );
    assert!(stats.counter("ts.origin_fetches") > 0);
    // Profile cache absorbed most reads.
    assert!(stats.counter("ts.profile_cache_hits") > 0);
}

#[test]
fn per_user_customization_reaches_workers() {
    // One registered user insists on high quality: their images shrink
    // less than default users'.
    let mut cluster = TranSendBuilder::new()
        .with_worker_nodes(6)
        .with_overflow_nodes(1)
        .with_frontends(1)
        .with_cache_partitions(2)
        .with_min_distillers(1)
        .with_origin_penalty_scale(0.2)
        .with_profiles(vec![(
            "u1".to_string(),
            vec![
                ("quality".to_string(), "90".to_string()),
                ("scale".to_string(), "1".to_string()),
            ],
        )])
        .build();
    let items = small_trace(43, 4.0, 25);
    let n = items.len() as u64;
    let report = cluster.attach_client(items, Duration::from_secs(4));
    cluster.sim.run_until(SimTime::from_secs(120));
    let r = report.borrow();
    assert_eq!(r.responses, n);
    assert_eq!(r.errors, 0);
}

#[test]
fn distiller_crashes_degrade_but_never_fail() {
    let mut cluster = TranSendBuilder::new()
        .with_worker_nodes(6)
        .with_overflow_nodes(1)
        .with_frontends(1)
        .with_cache_partitions(2)
        .with_min_distillers(2)
        .with_origin_penalty_scale(0.2)
        .with_distiller_crash_prob(0.2) // pathological inputs (§3.1.6)
        .build();
    let items = small_trace(44, 4.0, 40);
    let n = items.len() as u64;
    let report = cluster.attach_client(items, Duration::from_secs(4));
    cluster.sim.run_until(SimTime::from_secs(400));

    let r = report.borrow();
    assert_eq!(r.responses, n, "every request answered despite crashes");
    assert_eq!(r.errors, 0, "crashes degrade answers, never fail them");
    drop(r);
    let stats = cluster.sim.stats();
    assert!(stats.counter("worker.crashes") > 0, "crashes did occur");
    // Process peers restarted the crashed distillers.
    assert!(stats.counter("manager.spawns") > stats.counter("worker.crashes"));
}

#[test]
fn total_cache_loss_is_only_a_performance_hit() {
    let mut cluster = build_small();
    let items = small_trace(45, 4.0, 30);
    let n = items.len() as u64;
    let report = cluster.attach_client(items, Duration::from_secs(4));
    // Kill every cache partition mid-run: BASE data, losable.
    cluster.sim.at(SimTime::from_secs(15), |sim| {
        for c in sim.components_of_kind("cache") {
            sim.kill_component(c);
        }
    });
    cluster.sim.run_until(SimTime::from_secs(200));
    let r = report.borrow();
    assert_eq!(r.responses, n, "cache loss must not lose requests");
    assert_eq!(r.errors, 0);
}
