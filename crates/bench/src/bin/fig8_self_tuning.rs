//! Figure 8: self-tuning — distiller queue lengths under ramped load,
//! with on-demand spawning (threshold H, cooldown D) and a mid-run
//! double kill.
//!
//! Paper narrative being reproduced: the system bootstraps with no
//! distillers; the first is spawned as soon as load is offered; each
//! time the smoothed queue average crosses H a new distiller starts and
//! the queues rebalance within ~5 s; manually killing two distillers at
//! once makes the load on the survivor spike, the manager immediately
//! restarts one, and after D seconds discovers it is still overloaded
//! and starts another.

use std::time::Duration;

use sns_bench::{banner, compare, ramp_workload, series_buckets, sparkline};
use sns_sim::time::SimTime;
use sns_transend::TranSendBuilder;

fn main() {
    banner(
        "Figure 8 — distiller queue lengths over time (self-tuning + kills)",
        "Fox et al., SOSP '97, §4.5 Figure 8 (a,b)",
    );

    let mut cluster = TranSendBuilder::new()
        .with_worker_nodes(8)
        .with_overflow_nodes(2)
        .with_cores_per_node(1)
        .with_frontends(1)
        .with_cache_partitions(0) // no caching: every request is distilled
        .with_min_distillers(0) // first distiller spawns on demand
        .with_distillers(["jpeg"])
        .with_origin_penalty_scale(0.02) // fast origin keeps distillation the bottleneck
        .build();

    // Offered load ramp (tasks/s), echoing the figure's right axis.
    let segments = [
        (50.0, 4.0),
        (100.0, 10.0),
        (150.0, 16.0),
        (200.0, 22.0),
        (250.0, 28.0),
        (400.0, 34.0),
    ];
    let items = ramp_workload(&segments, 400, 10 * 1024, 88);
    let n_items = items.len();
    let report = cluster.attach_client(items, Duration::from_secs(2));

    // Manually kill the two oldest distillers at t = 250 s (Figure 8b).
    cluster.sim.at(SimTime::from_secs(250), |sim| {
        let mut ds = sim.components_of_kind("distiller/jpeg");
        ds.sort();
        for d in ds.into_iter().take(2) {
            sim.kill_component(d);
        }
    });

    cluster.sim.run_until(SimTime::from_secs(420));

    // Per-distiller queue-length time lines.
    println!("\nper-distiller queue lengths (0–420 s, 84 buckets of 5 s):");
    let stats = cluster.sim.stats();
    let mut distillers = 0;
    for (name, series) in stats.all_series() {
        if let Some(id) = name.strip_prefix("worker.qlen.distiller/jpeg.") {
            distillers += 1;
            let first = series
                .points()
                .first()
                .map(|p| p.0.as_secs_f64())
                .unwrap_or(0.0);
            let last = series
                .points()
                .last()
                .map(|p| p.0.as_secs_f64())
                .unwrap_or(0.0);
            let (_, vals) = series_buckets(series, 84);
            println!(
                "  {id:>5} [{first:>5.0}s–{last:>4.0}s] {}",
                sparkline(&vals)
            );
        }
    }
    if let Some(avg) = stats.series("manager.avg_qlen.distiller/jpeg") {
        let (_, vals) = series_buckets(avg, 84);
        println!("  mgr-avg              {}", sparkline(&vals));
    }

    println!("\nevents:");
    compare(
        "distillers ever started",
        "5 (a) + respawns (b)",
        &format!("{distillers}"),
    );
    compare(
        "manager spawns (incl. respawns after kill)",
        "new distiller per H-crossing; 2 after the kill",
        &format!("{}", stats.counter("manager.spawns")),
    );
    compare(
        "worker deaths observed by manager",
        "2 (manual kills)",
        &format!("{}", stats.counter("manager.worker_deaths")),
    );
    let r = report.borrow();
    compare(
        "requests answered / offered",
        "all (availability maintained)",
        &format!("{} / {n_items}", r.responses),
    );
    compare(
        "mean end-to-end latency (s)",
        "(bounded by H)",
        &format!("{:.3}", r.latency.mean()),
    );
    println!(
        "\nShape check: staircase growth of the distiller population as load ramps;\n\
         after the t=250 s kill the surviving queues spike and fall back within\n\
         ~5 s of each respawn (stability knob D, §4.5)."
    );
}
