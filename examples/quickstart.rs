//! Quickstart: build a small TranSend cluster, push a handful of
//! requests through it, and look at what came back.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::time::Duration;

use cluster_sns::sim::SimTime;
use cluster_sns::transend::TranSendBuilder;
use cluster_sns::workload::trace::{TraceGenerator, WorkloadConfig};

fn main() {
    // 1. Describe the cluster: worker nodes, front ends, cache
    //    partitions, which distillers exist. Everything else (manager,
    //    monitor, profile DB, origin model) comes with it.
    let mut cluster = TranSendBuilder::new()
        .with_worker_nodes(6)
        .with_frontends(1)
        .with_cache_partitions(3)
        .with_min_distillers(1)
        .with_origin_penalty_scale(0.2)
        .build();

    // 2. Generate a two-minute Web trace (50 users, the paper's MIME mix
    //    and size distributions) and attach a playback client.
    let mut gen = TraceGenerator::new(WorkloadConfig {
        users: 50,
        shared_objects: 300,
        private_per_user: 20,
        ..Default::default()
    });
    let trace = gen.constant_rate(5.0, Duration::from_secs(120));
    let items: Vec<_> = trace.records.into_iter().map(|r| (r.at, r)).collect();
    println!("playing {} traced requests through TranSend…", items.len());
    let report = cluster.attach_client(items, Duration::from_secs(4));

    // 3. Run. Virtual time: the whole session takes a moment of wall
    //    clock.
    cluster.sim.run_until(SimTime::from_secs(400));

    // 4. Read the results.
    let mut r = report.borrow_mut();
    println!("\n== client view ==");
    println!("requests sent        : {}", r.sent);
    println!(
        "responses            : {} ({} errors)",
        r.responses, r.errors
    );
    println!("degraded (approx.)   : {}", r.degraded);
    println!(
        "bytes requested/got  : {} / {}  ({:.0}% saved by distillation)",
        r.bytes_requested,
        r.bytes_received,
        r.savings() * 100.0
    );
    println!(
        "latency mean / p95   : {:.0} ms / {:.0} ms",
        r.latency.mean() * 1e3,
        r.latency.quantile(0.95) * 1e3
    );

    let stats = cluster.sim.stats();
    println!("\n== cluster view ==");
    for key in [
        "ts.requests",
        "ts.cache_hit_final",
        "ts.cache_hit_orig",
        "ts.cache_miss",
        "ts.origin_fetches",
        "ts.distilled",
        "ts.passthrough",
        "manager.spawns",
    ] {
        println!("{key:<22}: {}", stats.counter(key));
    }
}
