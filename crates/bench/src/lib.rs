//! # sns-bench — experiment harnesses for every table and figure
//!
//! One binary per paper artefact (see `DESIGN.md` §3 for the index):
//!
//! ```text
//! cargo run -p sns-bench --release --bin fig5_size_dist
//! cargo run -p sns-bench --release --bin fig6_burstiness
//! cargo run -p sns-bench --release --bin fig7_distill_latency
//! cargo run -p sns-bench --release --bin fig8_self_tuning
//! cargo run -p sns-bench --release --bin table1_comparison
//! cargo run -p sns-bench --release --bin table2_scalability
//! cargo run -p sns-bench --release --bin cache_perf
//! cargo run -p sns-bench --release --bin manager_capacity
//! cargo run -p sns-bench --release --bin san_saturation
//! cargo run -p sns-bench --release --bin hotbot_degradation
//! cargo run -p sns-bench --release --bin ablation_stale_lb
//! cargo run -p sns-bench --release --bin economics
//! ```
//!
//! This library holds the shared report-formatting and workload helpers,
//! and the experiment runs `tests/paper_shapes.rs` pins as well.

use std::time::Duration;

use sns_sim::stats::Series;
use sns_sim::time::SimTime;
use sns_transend::{TranSendBuilder, TranSendConfig};
use sns_workload::trace::TraceRecord;
use sns_workload::MimeType;

/// Prints an experiment banner.
pub fn banner(title: &str, paper_ref: &str) {
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!("reproduces: {paper_ref}");
    println!("{}", "=".repeat(78));
}

/// Prints one paper-vs-measured comparison row.
pub fn compare(metric: &str, paper: &str, measured: &str) {
    println!("  {metric:<46} paper: {paper:<18} measured: {measured}");
}

/// Renders values as a one-line unicode sparkline.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|v| BARS[(((v - min) / span) * 7.0).round() as usize])
        .collect()
}

/// Renders a horizontal ASCII bar chart of `(label, value)` rows.
pub fn bar_chart(rows: &[(String, f64)], width: usize) {
    let max = rows.iter().map(|r| r.1).fold(f64::MIN, f64::max).max(1e-12);
    for (label, v) in rows {
        let n = ((v / max) * width as f64).round() as usize;
        println!("  {label:<22} {:<width$} {v:.4}", "#".repeat(n));
    }
}

/// Least-squares linear fit; returns `(slope, intercept)`.
pub fn fit_linear(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    assert!(n >= 2.0, "need at least two points");
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - slope * sx) / n;
    (slope, intercept)
}

/// Downsamples a time series into `buckets` means for sparkline display;
/// returns `(bucket_seconds, values)`.
pub fn series_buckets(series: &Series, buckets: usize) -> (f64, Vec<f64>) {
    let pts = series.points();
    if pts.is_empty() {
        return (0.0, Vec::new());
    }
    let t0 = pts[0].0.as_secs_f64();
    let t1 = pts[pts.len() - 1].0.as_secs_f64();
    let span = (t1 - t0).max(1e-9);
    let w = span / buckets as f64;
    let mut sums = vec![0.0; buckets];
    let mut counts = vec![0u32; buckets];
    for &(t, v) in pts {
        let i = (((t.as_secs_f64() - t0) / w) as usize).min(buckets - 1);
        sums[i] += v;
        counts[i] += 1;
    }
    let vals = sums
        .iter()
        .zip(&counts)
        .map(|(&s, &c)| if c == 0 { 0.0 } else { s / f64::from(c) })
        .collect();
    (w, vals)
}

/// Builds a retimed request list at a piecewise-linear offered-load ramp:
/// `(until_seconds, rate_rps)` segments, with a fixed working set of JPEG
/// objects (the Table 2 / Figure 8 style workload).
pub fn ramp_workload(
    segments: &[(f64, f64)],
    n_objects: usize,
    object_size: u64,
    seed: u64,
) -> Vec<(Duration, TraceRecord)> {
    let mut rng = sns_sim::rng::Pcg32::new(seed);
    let mut out = Vec::new();
    let mut t = 0.0f64;
    let mut seg_start = 0.0f64;
    for &(until, rate) in segments {
        if rate <= 0.0 {
            t = until;
            seg_start = until;
            continue;
        }
        let _ = seg_start;
        while t < until {
            t += rng.exp(1.0 / rate);
            if t >= until {
                break;
            }
            let obj = rng.below(n_objects as u64);
            out.push((
                Duration::from_secs_f64(t),
                TraceRecord {
                    at: Duration::from_secs_f64(t),
                    user: (obj % 97) as u32,
                    url: format!("http://fixed/obj{obj}.jpg"),
                    mime: MimeType::Jpeg,
                    size: object_size,
                },
            ));
        }
        seg_start = until;
    }
    out
}

/// A warm-up pass touching every object in the fixed working set once
/// (pre-loads originals into the cache), spaced at `gap`.
pub fn warmup_workload(
    n_objects: usize,
    object_size: u64,
    gap: Duration,
) -> Vec<(Duration, TraceRecord)> {
    (0..n_objects)
        .map(|obj| {
            let at = gap * obj as u32;
            (
                at,
                TraceRecord {
                    at,
                    user: (obj % 97) as u32,
                    url: format!("http://fixed/obj{obj}.jpg"),
                    mime: MimeType::Jpeg,
                    size: object_size,
                },
            )
        })
        .collect()
}

/// What one §4.5 stale-load-balancing run measured.
pub struct StaleLbOutcome {
    /// Mean absolute per-bucket change of each distiller queue (the
    /// oscillation measure).
    pub oscillation: f64,
    /// Mean across distillers of time-averaged queue length.
    pub mean_queue: f64,
    /// p95 end-to-end latency, seconds.
    pub p95_latency: f64,
    /// One `(distiller id, queue-length sparkline)` per distiller.
    pub sparklines: Vec<(String, String)>,
}

/// The §4.5 ablation on its pinned seed: a steady 55 req/s across three
/// JPEG distillers, load-balanced on stale queue reports with or
/// without the manager stub's queue-delta correction.
pub fn stale_lb_run(delta_correction: bool) -> StaleLbOutcome {
    let n_objects = 40;
    let mut cluster = TranSendBuilder::new()
        .with_seed(0xab1a7e)
        .with_worker_nodes(8)
        .with_overflow_nodes(2)
        .with_cores_per_node(2)
        .with_frontends(1)
        .with_cache_partitions(2)
        .with_min_distillers(3)
        .with_distillers(["jpeg"])
        .with_origin_penalty_scale(0.05)
        .with_delta_correction(delta_correction)
        .with_ts(TranSendConfig {
            cache_distilled: false,
            ..Default::default()
        })
        .build();
    // Steady 55 req/s across 3 distillers: high enough that misrouting a
    // beacon interval's worth of work visibly swings the queues.
    let mut items = warmup_workload(n_objects, 10 * 1024, Duration::from_millis(50));
    let mut load = ramp_workload(&[(100.0, 55.0)], n_objects, 10 * 1024, 13);
    load.retain(|(at, _)| at.as_secs_f64() > 6.0);
    items.extend(load);
    let report = cluster.attach_client(items, Duration::from_secs(3));
    cluster.sim.run_until(SimTime::from_secs(125));

    let stats = cluster.sim.stats();
    let mut oscillation_sum = 0.0;
    let mut queue_sum = 0.0;
    let mut series_n = 0usize;
    let mut sparklines = Vec::new();
    for (name, series) in stats.all_series() {
        let Some(id) = name.strip_prefix("worker.qlen.distiller/jpeg.") else {
            continue;
        };
        let (_, vals) = series_buckets(series, 60);
        if vals.len() < 10 {
            continue;
        }
        let osc: f64 =
            vals.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (vals.len() - 1) as f64;
        oscillation_sum += osc;
        queue_sum += series.time_weighted_mean();
        series_n += 1;
        sparklines.push((id.to_string(), sparkline(&vals)));
    }
    let mut r = report.borrow_mut();
    StaleLbOutcome {
        oscillation: oscillation_sum / series_n.max(1) as f64,
        mean_queue: queue_sum / series_n.max(1) as f64,
        p95_latency: r.latency.quantile(0.95),
        sparklines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_recovers_line() {
        let pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, 3.0 * i as f64 + 7.0)).collect();
        let (m, b) = fit_linear(&pts);
        assert!((m - 3.0).abs() < 1e-9);
        assert!((b - 7.0).abs() < 1e-9);
    }

    #[test]
    fn ramp_rates_are_respected() {
        let items = ramp_workload(&[(10.0, 5.0), (20.0, 20.0)], 10, 1000, 1);
        let first: usize = items
            .iter()
            .filter(|(at, _)| at.as_secs_f64() < 10.0)
            .count();
        let second = items.len() - first;
        assert!((first as f64 - 50.0).abs() < 25.0, "seg1 {first}");
        assert!((second as f64 - 200.0).abs() < 60.0, "seg2 {second}");
        assert!(items.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn sparkline_has_one_char_per_value() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
    }

    #[test]
    fn warmup_touches_each_object_once() {
        let w = warmup_workload(20, 500, Duration::from_millis(10));
        assert_eq!(w.len(), 20);
        let urls: std::collections::BTreeSet<_> = w.iter().map(|(_, r)| r.url.clone()).collect();
        assert_eq!(urls.len(), 20);
    }
}
