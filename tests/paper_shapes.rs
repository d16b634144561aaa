//! Paper-shape regression suite: the qualitative claims recorded in
//! EXPERIMENTS.md, pinned as envelope assertions with fixed seeds so a
//! refactor that silently bends a reproduced curve fails loudly.
//!
//! Four shapes are guarded:
//!
//! * **Figure 5** — the GIF content-length distribution is bimodal
//!   around the 1 KB distillation threshold (icon plateau below,
//!   photo mass above); JPEG falls off rapidly below 1 KB; the MIME
//!   means sit near the paper's averages.
//! * **Figure 7** — GIF distillation latency grows linearly with input
//!   size at 7–9 ms/KB.
//! * **Table 2** — under the scalability protocol the manager grows the
//!   distiller pool roughly linearly with offered load, keeping the
//!   per-distiller throughput inside the ~23 req/s linearity band.
//! * **§4.5** — load balancing on stale queue reports oscillates; the
//!   manager stub's queue-delta correction damps the oscillation and
//!   lowers the latency tail.

use std::time::Duration;

use cluster_sns::core::SnsConfig;
use cluster_sns::distillers::GifDistiller;
use cluster_sns::san::LinkParams;
use cluster_sns::sim::rng::Pcg32;
use cluster_sns::sim::SimTime;
use cluster_sns::tacc::content::ContentObject;
use cluster_sns::tacc::worker::{TaccArgs, TaccWorker};
use cluster_sns::transend::{TranSendBuilder, TranSendConfig};
use cluster_sns::workload::sizes::SizeModel;
use cluster_sns::workload::MimeType;
use sns_bench::{fit_linear, ramp_workload, stale_lb_run, warmup_workload};

/// Figure 5: per-MIME mean content lengths near the paper's averages
/// (HTML 5131 B, GIF 3428 B, JPEG 12070 B), within 10%.
#[test]
fn fig5_mean_content_lengths_match_the_paper() {
    let model = SizeModel::default();
    let mut rng = Pcg32::new(5);
    let n = 200_000u64;
    for mime in [MimeType::Html, MimeType::Gif, MimeType::Jpeg] {
        let sum: u64 = (0..n).map(|_| model.sample(mime, &mut rng)).sum();
        let mean = sum as f64 / n as f64;
        let paper = SizeModel::paper_mean(mime);
        assert!(
            (mean - paper).abs() / paper < 0.10,
            "{mime}: mean {mean:.0} B drifted >10% from paper {paper:.0} B"
        );
    }
}

/// Figure 5: the GIF distribution is bimodal around the 1 KB
/// distillation threshold — substantial icon mass below it,
/// substantial photo mass above it — while JPEG mass falls off
/// rapidly below 1 KB.
#[test]
fn fig5_gif_is_bimodal_around_the_1kb_threshold() {
    let model = SizeModel::default();
    let mut rng = Pcg32::new(5);
    let n = 200_000u64;
    let frac_under_1k = |mime: MimeType, rng: &mut Pcg32| {
        (0..n).filter(|_| model.sample(mime, rng) < 1024).count() as f64 / n as f64
    };
    // EXPERIMENTS.md records 46.7% of GIFs under 1 KB and 0.7% of JPEGs.
    let gif = frac_under_1k(MimeType::Gif, &mut rng);
    assert!(
        (0.30..=0.60).contains(&gif),
        "GIF icon plateau: expected 30–60% below 1 KB, got {:.1}%",
        gif * 100.0
    );
    assert!(
        gif <= 0.70,
        "GIF photo mode must keep substantial mass above 1 KB"
    );
    let jpeg = frac_under_1k(MimeType::Jpeg, &mut rng);
    assert!(
        jpeg < 0.05,
        "JPEG must fall off rapidly below 1 KB, got {:.1}%",
        jpeg * 100.0
    );
}

/// Figure 7: least-squares slope of mean GIF distillation latency vs
/// input size within the paper's ≈8 ms/KB (7–9 band), fitted exactly
/// like the `fig7_distill_latency` harness.
#[test]
fn fig7_distillation_slope_is_7_to_9_ms_per_kb() {
    let model = SizeModel::default();
    let distiller = GifDistiller::new();
    let args = TaccArgs::default();
    let mut rng = Pcg32::new(7);
    const BINS: usize = 30;
    let mut sums = vec![0.0f64; BINS];
    let mut counts = vec![0u64; BINS];
    for _ in 0..60_000 {
        let size = model.sample(MimeType::Gif, &mut rng);
        if size >= 30_000 {
            continue;
        }
        let obj = ContentObject::synthetic("u", MimeType::Gif, size);
        let latency = distiller.cost(&obj, &args, &mut rng).as_secs_f64();
        let b = (size as usize * BINS) / 30_000;
        sums[b] += latency;
        counts[b] += 1;
    }
    let points: Vec<(f64, f64)> = (0..BINS)
        .filter(|&b| counts[b] >= 50)
        .map(|b| {
            let kb = (b as f64 + 0.5) * 30.0 / BINS as f64;
            (kb, sums[b] / counts[b] as f64)
        })
        .collect();
    assert!(points.len() >= 10, "need bins across the 0–30 KB range");
    let (slope, _intercept) = fit_linear(&points);
    let ms_per_kb = slope * 1000.0;
    assert!(
        (7.0..=9.0).contains(&ms_per_kb),
        "distillation slope {ms_per_kb:.2} ms/KB outside the paper's 7–9 band"
    );
}

/// One shortened Table 2 measurement run: warm the fixed 40-object
/// 10 KB working set, ramp to `rate` and hold, with distilled-variant
/// caching off so every request re-distills (§4.6 protocol).
fn table2_run(rate: f64, fes: usize) -> (f64, usize) {
    let n_objects = 40;
    let mut cluster = TranSendBuilder::new()
        .with_seed(0x7ab1e2)
        .with_worker_nodes(16)
        .with_overflow_nodes(4)
        .with_cores_per_node(2)
        .with_frontends(fes)
        .with_cache_partitions(4)
        .with_min_distillers(1)
        .with_distillers(["jpeg"])
        .with_origin_penalty_scale(0.05)
        .with_fe_nic(LinkParams::mbps(100.0).with_overhead(Duration::from_micros(3000)))
        .with_ts(TranSendConfig {
            cache_distilled: false,
            ..Default::default()
        })
        .with_sns(SnsConfig {
            spawn_threshold_h: 8.0,
            spawn_cooldown_d: Duration::from_secs(5),
            reap_threshold: 0.8,
            reap_idle_for: Duration::from_secs(10),
            ..Default::default()
        })
        .build();
    let mut items = warmup_workload(n_objects, 10 * 1024, Duration::from_millis(50));
    let warm_end = 5.0;
    let mut load = ramp_workload(
        &[(warm_end + 20.0, rate / 2.0), (warm_end + 90.0, rate)],
        n_objects,
        10 * 1024,
        99,
    );
    load.retain(|(at, _)| at.as_secs_f64() > warm_end);
    let offered = load.len() as u64 + n_objects as u64;
    items.extend(load);
    let report = cluster.attach_client(items, Duration::from_secs(3));
    cluster.sim.run_until(SimTime::from_secs(3 + 5 + 90 + 20));
    let completed = report.borrow().responses as f64 / offered as f64;
    (completed, cluster.distillers_of("distiller/jpeg").len())
}

/// Table 2: across three offered-load steps the distiller pool grows
/// roughly one per ~23 req/s and essentially every request completes —
/// the linear-growth region of the scalability experiment.
#[test]
fn table2_distiller_pool_tracks_offered_load_linearly() {
    let mut prev = 0usize;
    for (rate, fes, band) in [
        (15.0, 1, 1..=2usize),
        (45.0, 1, 2..=4usize),
        (70.0, 2, 3..=6usize),
    ] {
        let (completed, distillers) = table2_run(rate, fes);
        assert!(
            completed >= 0.98,
            "{rate} req/s: only {:.1}% of requests completed",
            completed * 100.0
        );
        assert!(
            band.contains(&distillers),
            "{rate} req/s: {distillers} distillers outside linearity band {band:?}"
        );
        assert!(
            distillers >= prev,
            "{rate} req/s: pool shrank under rising load ({prev} -> {distillers})"
        );
        // Per-distiller throughput inside the ~23 req/s band (wide
        // envelope: autoscaler overshoot at ramp end is tolerated).
        let per = rate / distillers as f64;
        assert!(
            (10.0..=35.0).contains(&per),
            "{rate} req/s: {per:.1} req/s per distiller outside 10–35 band"
        );
        prev = distillers;
    }
}

/// §4.5: without the correction every front end dumps a beacon
/// interval's worth of work on whichever distiller last reported the
/// shortest queue; the running delta estimate damps that oscillation to
/// at most 0.6× and lowers p95 latency, on the `ablation_stale_lb`
/// harness's pinned seed.
#[test]
fn sec4_5_delta_correction_damps_stale_report_oscillation() {
    let with = stale_lb_run(true);
    let without = stale_lb_run(false);
    assert!(
        with.oscillation <= 0.6 * without.oscillation,
        "queue oscillation {:.2} with the correction vs {:.2} without: not damped to 0.6x",
        with.oscillation,
        without.oscillation
    );
    assert!(
        with.p95_latency < without.p95_latency,
        "p95 {:.3} s with the correction, {:.3} s without",
        with.p95_latency,
        without.p95_latency
    );
}
