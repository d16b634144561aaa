//! The same TACC worker code on real OS threads: `sns-rt` runs the
//! distillers from `sns-distillers` (unchanged) behind channel-connected
//! worker threads with load reports, least-loaded placement and process-peer
//! restarts — no simulator involved.
//!
//! ```sh
//! cargo run --release --example realtime_cluster
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use cluster_sns::core::msg::JobResult;
use cluster_sns::core::payload_as;
use cluster_sns::distillers::{GifDistiller, HtmlMunger};
use cluster_sns::rt::{RtCluster, RtConfig};
use cluster_sns::tacc::content::{synth_html, ContentObject};
use cluster_sns::tacc::worker::TaccWorkerHost;
use cluster_sns::workload::MimeType;

fn main() {
    // run the modelled hardware 5x faster
    let cluster = RtCluster::start(RtConfig::new().with_time_scale(0.2));
    // The *identical* worker implementations the simulator uses:
    cluster.add_workers("distiller/gif", 3, || {
        Box::new(TaccWorkerHost::transformer(
            Box::new(GifDistiller::new()),
            BTreeMap::new(),
        ))
    });
    cluster.add_workers("distiller/html", 2, || {
        Box::new(TaccWorkerHost::transformer(
            Box::new(HtmlMunger::new()),
            BTreeMap::new(),
        ))
    });
    println!(
        "started {} GIF + {} HTML distiller threads",
        cluster.workers_of("distiller/gif"),
        cluster.workers_of("distiller/html")
    );

    // Push a batch of real work through.
    let t0 = Instant::now();
    let mut gif_rx = Vec::new();
    for i in 0..40 {
        let img = ContentObject::synthetic(format!("http://h/{i}.gif"), MimeType::Gif, 8_192);
        gif_rx.push(cluster.submit("distiller/gif", "transform", img.into_payload(), None));
    }
    let words: Vec<&str> = "real threads crunching real markup just like the simulator said"
        .split(' ')
        .collect();
    let page = ContentObject::text(
        "http://h/page",
        MimeType::Html,
        synth_html("http://h/page", 3, &words),
    );
    let html_rx = cluster.submit("distiller/html", "transform", page.into_payload(), None);

    let mut bytes_in = 0u64;
    let mut bytes_out = 0u64;
    for rx in gif_rx {
        match rx.recv_timeout(Duration::from_secs(30)).expect("reply") {
            JobResult::Ok(p) => {
                let obj = payload_as::<ContentObject>(&p).expect("content");
                bytes_in += 8_192;
                bytes_out += obj.len();
            }
            JobResult::Failed(e) => panic!("gif job failed: {e}"),
        }
    }
    let munged = match html_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("reply")
    {
        JobResult::Ok(p) => payload_as::<ContentObject>(&p).expect("content").clone(),
        JobResult::Failed(e) => panic!("html job failed: {e}"),
    };

    println!(
        "distilled 40 GIFs: {bytes_in} → {bytes_out} bytes ({:.0}% saved) in {:?} wall-clock",
        100.0 * (1.0 - bytes_out as f64 / bytes_in as f64),
        t0.elapsed()
    );
    println!(
        "HTML munger marked {} image refs and injected the toolbar",
        munged
            .meta
            .get("images_marked")
            .map(String::as_str)
            .unwrap_or("?")
    );
    println!(
        "jobs done: {}   crashes: {}   restarts: {}",
        cluster.jobs_done.load(Ordering::Relaxed),
        cluster.crashes.load(Ordering::Relaxed),
        cluster.restarts.load(Ordering::Relaxed),
    );
    cluster.shutdown();
    println!("clean shutdown — same code, real threads.");
}
