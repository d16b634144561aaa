//! The paper's central data-semantics split (§1.4, §3.1.8), exercised
//! across crates: the ACID profile database survives crashes with every
//! committed transaction intact, while BASE data (caches, manager state,
//! load hints) can be thrown away wholesale at only a performance cost.

use std::time::Duration;

use cluster_sns::profiledb::{MemDevice, ProfileDb, Txn, Wal};
use cluster_sns::sim::SimTime;
use cluster_sns::transend::TranSendBuilder;
use cluster_sns::workload::trace::{TraceGenerator, WorkloadConfig};

#[test]
fn acid_component_survives_crash_with_committed_prefix() {
    let mut db = ProfileDb::open(Wal::new(MemDevice::new())).unwrap();
    for i in 0..100 {
        db.commit(Txn::new().put(format!("u{i}"), "quality", "25").put(
            format!("u{i}"),
            "scale",
            "2",
        ))
        .unwrap();
    }
    // Crash with a torn final write.
    let mut dev = std::mem::replace(db.device_mut(), MemDevice::new());
    dev.crash(3);
    let mut recovered = ProfileDb::open(Wal::new(dev)).unwrap();
    // All but possibly the torn last transaction survive, atomically.
    assert!(recovered.user_count() >= 99);
    for i in 0..recovered.user_count().saturating_sub(1) {
        let p = recovered.profile(&format!("u{i}")).expect("atomic commit");
        assert_eq!(p.len(), 2, "transactions are all-or-nothing");
    }
}

#[test]
fn base_state_is_disposable_at_only_a_performance_cost() {
    let build = || {
        TranSendBuilder::new()
            .with_worker_nodes(6)
            .with_frontends(1)
            .with_cache_partitions(3)
            .with_min_distillers(1)
            .with_origin_penalty_scale(0.1)
            .build()
    };
    let trace_items = || {
        let mut gen = TraceGenerator::new(WorkloadConfig {
            seed: 77,
            users: 40,
            shared_objects: 120,
            private_per_user: 10,
            ..Default::default()
        });
        let t = gen.constant_rate(4.0, Duration::from_secs(40));
        t.records.into_iter().map(|r| (r.at, r)).collect::<Vec<_>>()
    };

    // Baseline run.
    let mut healthy = build();
    let n = trace_items().len() as u64;
    let healthy_report = healthy.attach_client(trace_items(), Duration::from_secs(4));
    healthy.sim.run_until(SimTime::from_secs(250));

    // Run with ALL BASE state destroyed mid-stream: every cache
    // partition killed and the manager killed with them.
    let mut lossy = build();
    let manager = lossy.manager;
    let lossy_report = lossy.attach_client(trace_items(), Duration::from_secs(4));
    lossy.sim.at(SimTime::from_secs(20), move |sim| {
        for c in sim.components_of_kind("cache") {
            sim.kill_component(c);
        }
        sim.kill_component(manager);
    });
    lossy.sim.run_until(SimTime::from_secs(250));

    let h = healthy_report.borrow();
    let l = lossy_report.borrow();
    // Same correctness: every request answered, no errors, either way.
    assert_eq!(h.responses, n);
    assert_eq!(l.responses, n, "BASE loss must not lose requests");
    assert_eq!(l.errors, 0);
    // Only performance differs.
    assert!(
        l.latency.mean() >= h.latency.mean() * 0.8,
        "losing caches cannot make things faster: {} vs {}",
        l.latency.mean(),
        h.latency.mean()
    );
}
