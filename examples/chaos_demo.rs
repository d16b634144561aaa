//! A fault-plan walkthrough: one declarative `FaultPlan` drives worker
//! crashes, a manager failover, a SAN partition and a beacon-loss burst
//! against a live TranSend cluster, while a monitor tap records the
//! event stream for the recovery-invariant checkers.
//!
//! ```sh
//! cargo run --release --example chaos_demo
//! ```

use std::time::Duration;

use cluster_sns::chaos::{
    check_death_reconciliation, CrashBudget, FaultKind, FaultPlan, RespawnCoverage, SimChaos,
    SimChaosConfig,
};
use cluster_sns::core::MonitorTap;
use cluster_sns::sim::SimTime;
use cluster_sns::transend::TranSendBuilder;
use cluster_sns::workload::trace::{TraceGenerator, WorkloadConfig};

fn main() {
    let mut cluster = TranSendBuilder::new()
        .with_worker_nodes(6)
        .with_overflow_nodes(1)
        .with_frontends(1)
        .with_cache_partitions(2)
        .with_min_distillers(1)
        .with_origin_penalty_scale(0.1)
        .build();

    // Tap the monitor multicast group: the recorded log is what the
    // invariant checkers replay after the run.
    let infra = cluster.sim.nodes_with_tag("infra")[0];
    let (tap, log) = MonitorTap::new(cluster.monitor_group);
    cluster.sim.spawn(infra, Box::new(tap), "montap");

    // 90 s of steady load so faults land while requests are in flight.
    let mut gen = TraceGenerator::new(WorkloadConfig {
        users: 60,
        shared_objects: 200,
        private_per_user: 10,
        ..Default::default()
    });
    let t = gen.constant_rate(4.0, Duration::from_secs(90));
    let items: Vec<_> = t.records.into_iter().map(|r| (r.at, r)).collect();
    let n = items.len() as u64;
    let report = cluster.attach_client(items, Duration::from_secs(4));

    // The declarative schedule — each event expands once into the
    // steps both the sim and the rt executor run.
    let plan = FaultPlan::new()
        .with(
            Duration::from_secs(15),
            FaultKind::KillWorker {
                class: "cache".into(),
                which: 0,
            },
        )
        .with(Duration::from_secs(25), FaultKind::KillManager)
        .with(
            Duration::from_secs(40),
            FaultKind::Partition {
                pool: "dedicated".into(),
                which: 1,
                heal_after: Duration::from_secs(10),
            },
        )
        .with(
            Duration::from_secs(60),
            FaultKind::BeaconLoss {
                lasting: Duration::from_secs(2),
            },
        )
        .with(
            Duration::from_secs(70),
            FaultKind::Straggler {
                pool: "overflow".into(),
                which: 0,
                slowdown: 10,
                lasting: Duration::from_secs(5),
            },
        );
    println!("fault plan:\n{plan}\n");

    let chaos = SimChaos::install(&mut cluster.sim, &plan, SimChaosConfig::default());
    cluster
        .sim
        .run_until(SimTime::ZERO + plan.horizon(Duration::from_secs(120)));

    println!("== injections ==");
    for inj in chaos.injections() {
        println!(
            "  [{inj_at}] {what} {status}",
            inj_at = inj.at,
            what = inj.what,
            status = if inj.applied { "applied" } else { "skipped" }
        );
    }

    let r = report.borrow();
    println!("\n== service under chaos ==");
    println!("responses : {} / {n}", r.responses);
    println!("errors    : {}", r.errors);
    drop(r);

    let log = log.borrow();
    println!("\n== invariants over {} monitor events ==", log.len());
    let mut coverage = RespawnCoverage::new(7); // 6 boot spawns + the killed cache
    let mut crash_budget = CrashBudget::new(0); // no input-induced crashes configured
    for inv in [log.check(&mut coverage), log.check(&mut crash_budget)] {
        match inv {
            Ok(()) => println!("  ok"),
            Err(e) => println!("  VIOLATED: {e}"),
        }
    }
    let stale = chaos.stale_routing_violations(&log);
    println!(
        "  stale-routing probe: {}",
        if stale.is_empty() {
            "ok".into()
        } else {
            format!("{stale:?}")
        }
    );
    // Reaps are manager-sanctioned deaths (surplus after the partition
    // heals), so they are slack, not violations.
    let reaped = log.count("reaped") as u64;
    let stats = cluster.sim.stats();
    match check_death_reconciliation(stats.counter("sim.deaths"), plan.kills() as u64, reaped) {
        Ok(()) => println!(
            "  death reconciliation: ok ({} kills, {reaped} sanctioned reaps)",
            plan.kills()
        ),
        Err(e) => println!("  death reconciliation VIOLATED: {e}"),
    }
    println!(
        "\nchaos counters: injected={} skipped={}",
        stats.counter("chaos.injected"),
        stats.counter("chaos.skipped")
    );
}
