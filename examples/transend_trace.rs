//! Trace-driven TranSend session with the paper's bursty diurnal
//! arrival process, fault injection, and a monitor snapshot at the end.
//!
//! ```sh
//! cargo run --release --example transend_trace
//! # Also capture a request trace (see OBSERVABILITY.md):
//! cargo run --release --example transend_trace -- transend.perfetto-trace
//! ```
//!
//! With an output path the run records every request as a span tree and
//! writes a Perfetto protobuf trace loadable in https://ui.perfetto.dev.

use std::time::Duration;

use cluster_sns::core::trace::to_perfetto;
use cluster_sns::sim::SimTime;
use cluster_sns::transend::TranSendBuilder;
use cluster_sns::workload::bursts::ArrivalProcess;
use cluster_sns::workload::playback::{Playback, Schedule};
use cluster_sns::workload::trace::{TraceGenerator, WorkloadConfig};

fn main() {
    let trace_out = std::env::args().nth(1);
    let mut cluster = TranSendBuilder::new()
        .with_tracing(trace_out.is_some())
        .with_worker_nodes(8)
        .with_overflow_nodes(2)
        .with_frontends(2)
        .with_cache_partitions(4)
        .with_min_distillers(1)
        .with_origin_penalty_scale(0.1)
        // Some registered users with custom preferences.
        .with_profiles(vec![
            (
                "u3".into(),
                vec![
                    ("quality".into(), "10".into()),
                    ("scale".into(), "4".into()),
                ],
            ),
            (
                "u7".into(),
                vec![("keywords".into(), "network, cluster".into())],
            ),
        ])
        .build();

    // 20 minutes of the Figure 6 bursty arrival process, accelerated 2x.
    let mut gen = TraceGenerator::new(WorkloadConfig {
        users: 400,
        shared_objects: 3000,
        private_per_user: 40,
        ..Default::default()
    });
    let process = ArrivalProcess::paper_default(17);
    let trace = gen.bursty(&process, Duration::from_secs(20 * 60));
    let items: Vec<_> = Playback::new(&trace, Schedule::Accelerated(2.0))
        .map(|(at, r)| (at, r.clone()))
        .collect();
    println!(
        "playing {} bursty requests (20 traced minutes at 2x)…",
        items.len()
    );
    let report = cluster.attach_client(items, Duration::from_secs(4));

    // Fault injection while the trace runs: kill a cache partition and a
    // distiller; the SNS layer absorbs both.
    cluster.sim.at(SimTime::from_secs(180), |sim| {
        if let Some(&c) = sim
            .components_of_kind(cluster_sns::core::intern_class("cache"))
            .first()
        {
            println!("[t=180s] killing a cache partition (BASE data — only a perf hit)");
            sim.kill_component(c);
        }
    });
    cluster.sim.at(SimTime::from_secs(300), |sim| {
        if let Some(&d) = sim
            .components_of_kind(cluster_sns::core::intern_class("distiller/gif"))
            .first()
        {
            println!("[t=300s] killing a GIF distiller (process peers restart it)");
            sim.kill_component(d);
        }
    });

    cluster.sim.run_until(SimTime::from_secs(1000));

    let mut r = report.borrow_mut();
    println!("\n== results ==");
    println!("responses           : {} / {} sent", r.responses, r.sent);
    println!("errors              : {}", r.errors);
    println!("degraded responses  : {}", r.degraded);
    println!("byte savings        : {:.0}%", r.savings() * 100.0);
    println!(
        "latency mean / p95  : {:.0} ms / {:.0} ms",
        r.latency.mean() * 1e3,
        r.latency.quantile(0.95) * 1e3
    );

    let stats = cluster.sim.stats();
    let hits = stats.counter("ts.cache_hit_final") + stats.counter("ts.cache_hit_orig");
    let lookups = hits + stats.counter("ts.cache_miss");
    println!(
        "cache hit rate      : {:.0}% ({} of {} lookups)",
        100.0 * hits as f64 / lookups.max(1) as f64,
        hits,
        lookups
    );
    println!(
        "fault recovery      : {} spawns, {} worker deaths seen by manager",
        stats.counter("manager.spawns"),
        stats.counter("manager.worker_deaths")
    );
    println!(
        "monitor             : {} events, {} operator pages",
        stats.counter("monitor.events"),
        stats.counter("monitor.pages")
    );

    if let Some(path) = trace_out {
        let log = cluster.trace().expect("tracing was enabled");
        std::fs::write(&path, to_perfetto(&log)).expect("write trace file");
        println!(
            "trace               : {} spans → {path} (load in ui.perfetto.dev)",
            log.len()
        );
    }
}
