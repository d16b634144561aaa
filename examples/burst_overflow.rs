//! The overflow pool absorbing a Pathfinder-style burst (§2.2.3).
//!
//! A modest dedicated pool serves the steady load; a sudden prolonged
//! burst recruits workers on overflow (desktop) nodes; when the burst
//! subsides, the overflow workers are reaped and the machines released.
//!
//! ```sh
//! cargo run --release --example burst_overflow
//! ```

use std::time::Duration;

use cluster_sns::core::SnsConfig;
use cluster_sns::sim::SimTime;
use cluster_sns::transend::{TranSendBuilder, TranSendConfig};
use cluster_sns::workload::trace::TraceRecord;
use cluster_sns::workload::MimeType;

/// Constant-then-burst-then-constant offered load.
fn bursty_items() -> Vec<(Duration, TraceRecord)> {
    let mut rng = cluster_sns::sim::Pcg32::new(0xb1257);
    let mut out = Vec::new();
    let mut t = 0.0f64;
    let rate_at = |t: f64| -> f64 {
        if (120.0..240.0).contains(&t) {
            80.0 // the burst: Mars has landed
        } else {
            10.0
        }
    };
    while t < 360.0 {
        t += rng.exp(1.0 / rate_at(t));
        if t >= 360.0 {
            break;
        }
        let obj = rng.below(60);
        out.push((
            Duration::from_secs_f64(t),
            TraceRecord {
                at: Duration::from_secs_f64(t),
                user: (obj % 50) as u32,
                url: format!("http://mars/pathfinder{obj}.jpg"),
                mime: MimeType::Jpeg,
                size: 10 * 1024,
            },
        ));
    }
    out
}

fn main() {
    // Small dedicated pool (2 nodes) + a big overflow pool (6 desktop
    // nodes). The dedicated pool alone cannot absorb the burst.
    let mut cluster = TranSendBuilder::new()
        .with_worker_nodes(2)
        .with_overflow_nodes(6)
        .with_cores_per_node(2)
        .with_frontends(1)
        .with_cache_partitions(2)
        .with_min_distillers(1)
        .with_distillers(["jpeg"])
        .with_origin_penalty_scale(0.05)
        .with_ts(TranSendConfig {
            cache_distilled: false, // keep the distillers busy
            ..Default::default()
        })
        .with_sns(SnsConfig {
            spawn_threshold_h: 6.0,
            spawn_cooldown_d: Duration::from_secs(4),
            reap_threshold: 0.5,
            reap_idle_for: Duration::from_secs(20),
            ..Default::default()
        })
        .build();

    let items = bursty_items();
    println!(
        "offered load: 10 req/s steady, bursting to 80 req/s for t=120..240 s ({} requests)",
        items.len()
    );
    let report = cluster.attach_client(items, Duration::from_secs(3));

    // Sample the population of distillers and where they run.
    for s in (10..=420).step_by(10) {
        cluster.sim.at(SimTime::from_secs(s), move |sim| {
            let ds = sim.components_of_kind("distiller/jpeg");
            let on_overflow = ds
                .iter()
                .filter(|&&d| {
                    sim.node_of(d)
                        .and_then(|n| sim.nodes_with_tag("overflow").contains(&n).then_some(()))
                        .is_some()
                })
                .count();
            let t = sim.now();
            sim.stats_mut()
                .sample("demo.distillers", t, ds.len() as f64);
            sim.stats_mut()
                .sample("demo.overflow_distillers", t, on_overflow as f64);
        });
    }

    cluster.sim.run_until(SimTime::from_secs(430));

    println!("\ntime   distillers   on overflow nodes");
    let stats = cluster.sim.stats();
    let total = stats.series("demo.distillers").expect("sampled");
    let over = stats.series("demo.overflow_distillers").expect("sampled");
    for (&(t, n), &(_, o)) in total.points().iter().zip(over.points()) {
        if (t.as_secs_f64() as u64) % 30 < 10 {
            let bars = "#".repeat(n as usize);
            println!("{:>4.0}s  {n:>2.0} {bars:<12} {o:>2.0}", t.as_secs_f64());
        }
    }

    let mut r = report.borrow_mut();
    println!(
        "\nresponses: {} / {} (errors {})",
        r.responses, r.sent, r.errors
    );
    println!(
        "latency mean / p95: {:.0} ms / {:.0} ms",
        r.latency.mean() * 1e3,
        r.latency.quantile(0.95) * 1e3
    );
    println!(
        "overflow spawns: {}   reaps after the burst: {}",
        stats.counter("manager.overflow_spawns"),
        stats.counter("manager.reaps")
    );
    println!(
        "\n\"When the overflow machines are being recruited unusually often, it is\n\
         time to purchase more dedicated nodes\" (§2.2.3)."
    );
}
