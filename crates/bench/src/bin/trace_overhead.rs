//! Cost of the tracing instrumentation on the request hot path.
//!
//! The span-emission sites (`sns_core::trace`) are wired permanently
//! through the front end, dispatch plane and worker stub; when tracing
//! is disabled each site costs one `Option` branch. This bench proves
//! that cost is inside the noise floor: the same TranSend request-path
//! profile (pass-through requests through admission → lottery dispatch
//! → queue → service → reply) is measured in four configurations in one
//! process —
//!
//! * `request_path/base` — tracing disabled;
//! * `request_path/off`  — tracing disabled again (the A/A control:
//!   any base↔off gap is pure measurement noise);
//! * `request_path/on`   — tracing enabled, every span recorded;
//! * `request_path/sampled` — tracing enabled, head-sampled 1-in-64:
//!   the always-on production configuration, where almost every
//!   request takes the enabled-but-sampled-out path.
//!
//! The four are measured in interleaved rounds, each round timing every
//! configuration for a short budget (starting from a different one each
//! round), so a host that speeds up or slows down mid-run moves every
//! configuration alike instead of landing on whichever block it hit.
//! Each round yields one fastest run per configuration and so one
//! `x/base` ratio. The bin asserts that the median round's
//! `sampled/base` stays within `max(2%, 1.5 × noise)`, where the noise
//! is the second-largest `|off/base − 1|` of the rounds — the
//! sampled-out path costs no more than this run's own A/A noise —
//! and that all four configurations dispatch bit-identical simulations:
//! recording (or deciding not to record) spans must observe the run,
//! never perturb it. Rows are *appended* to `BENCH_sim.json` alongside the
//! `sim_throughput` engine rows, together with the span-derived
//! `slo/*` summary rows aggregated from the fully traced run.
//!
//! ```sh
//! cargo run -p sns-bench --release --bin trace_overhead [-- OUTPUT.json]
//! ```

use std::time::{Duration, Instant};

use sns_core::slo::SloAggregator;
use sns_core::trace::TraceLog;
use sns_sim::time::SimTime;
use sns_testkit::BenchSuite;
use sns_transend::client::ClientReportHandle;
use sns_transend::{TranSendBuilder, TranSendCluster};
use sns_workload::trace::TraceRecord;
use sns_workload::MimeType;

/// Requests per measured run.
const REQUESTS: u64 = 200;

/// Pass-through objects (identity pipeline), one every 5 ms.
fn items() -> Vec<(Duration, TraceRecord)> {
    (0..REQUESTS)
        .map(|i| {
            (
                Duration::from_millis(5 * i),
                TraceRecord {
                    at: Duration::from_millis(5 * i),
                    user: (i % 16) as u32,
                    url: format!("bin://object/{}", i % 64),
                    mime: MimeType::Other,
                    size: 16 * 1024,
                },
            )
        })
        .collect()
}

fn build(traced: bool, sample_rate: u32) -> (TranSendCluster, ClientReportHandle) {
    let mut cluster = TranSendBuilder::new()
        .with_seed(0x0b5e)
        .with_worker_nodes(4)
        .with_frontends(1)
        .with_cache_partitions(2)
        .with_min_distillers(1)
        .with_origin_penalty_scale(0.1)
        .with_tracing(traced)
        .with_trace_sampling(sample_rate)
        .build();
    let report = cluster.attach_client(items(), Duration::from_secs(2));
    (cluster, report)
}

/// Rebuilds `path` as one JSON row array: every pre-existing row except
/// stale `request_path/*` and `slo/*` ones, then the given freshly
/// rendered rows.
fn append_rows(path: &str, new_rows_json: &str) {
    let row_lines = |s: &str, drop_ours: bool| -> Vec<String> {
        s.lines()
            .filter(|l| l.contains("\"bench\":"))
            .filter(|l| {
                !(drop_ours
                    && (l.contains("\"bench\":\"request_path/") || l.contains("\"bench\":\"slo/")))
            })
            .map(|l| l.trim_end().trim_end_matches(',').to_string())
            .collect()
    };
    let mut rows = match std::fs::read_to_string(path) {
        Ok(existing) => row_lines(&existing, true),
        Err(_) => Vec::new(),
    };
    rows.extend(row_lines(new_rows_json, false));
    let body = rows.join(",\n");
    std::fs::write(path, format!("[\n{body}\n]")).expect("write bench rows");
}

/// Measured rounds; one more, discarded, warms up first.
const ROUNDS: usize = 10;
/// Runs of each configuration per round, the four taking turns run by
/// run so a slow stretch of the host lands on all of them.
const CYCLES: usize = 8;
/// Head-sampling rate of the always-on configuration.
const SAMPLE_RATE: u32 = 64;
/// `(row tag, tracing, sample rate)`; each cycle of a round starts one
/// entry later than the last, so none always runs first.
const CONFIGS: [(&str, bool, u32); 4] = [
    ("base", false, 1),
    ("off", false, 1),
    ("on", true, 1),
    ("sampled", true, SAMPLE_RATE),
];

/// One run's simulation: (events dispatched, responses, bytes received).
type Fingerprint = (u64, u64, u64);

/// Builds a cluster untimed, then times its run.
fn run_once(traced: bool, rate: u32) -> (Duration, Fingerprint, Option<TraceLog>) {
    let (mut cluster, report) = build(traced, rate);
    let t = Instant::now();
    cluster.sim.run_until(SimTime::from_secs(30));
    let wall = t.elapsed();
    let r = report.borrow();
    assert_eq!(r.responses, REQUESTS, "every request must be answered");
    let fingerprint = (
        cluster.sim.events_dispatched(),
        r.responses,
        r.bytes_received,
    );
    (wall, fingerprint, cluster.trace())
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// `(noise, bound)` from the rounds' `off/base` ratios: the noise is the
/// second-largest `|off/base − 1|`, so one slow round cannot widen the
/// band by itself, and the sampled-out path may cost up to
/// `max(2 %, 1.5 × noise)`.
fn sampled_bound(off: &[f64]) -> (f64, f64) {
    let mut deltas: Vec<f64> = off.iter().map(|r| (r - 1.0).abs()).collect();
    deltas.sort_by(|a, b| b.total_cmp(a));
    let noise = deltas.get(1).or(deltas.first()).copied().unwrap_or(0.0);
    (noise, (1.5 * noise).max(0.02))
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sim.json".to_string());
    let mut suite = BenchSuite::new("sim");

    let mut samples: [Vec<f64>; 4] = Default::default();
    // The fastest run of each configuration in each measured round.
    let mut fastest = [[f64::INFINITY; 4]; ROUNDS];
    let mut fingerprint: Option<Fingerprint> = None;
    let mut full_trace: Option<TraceLog> = None;
    let mut sampled_spans = 0usize;
    for round in 0..=ROUNDS {
        for cycle in 0..CYCLES {
            for k in 0..CONFIGS.len() {
                let i = (round + cycle + k) % CONFIGS.len();
                let (tag, traced, rate) = CONFIGS[i];
                let (wall, fp, trace) = run_once(traced, rate);
                // Tracing — on, off, or sampled — must observe the run,
                // not perturb it: every configuration executes the
                // bit-identical simulation (the sampling decision never
                // touches component RNGs).
                let first = *fingerprint.get_or_insert(fp);
                assert_eq!(fp, first, "enabling tracing changed the simulation ({tag})");
                match trace {
                    Some(t) if rate == 1 => full_trace = Some(t),
                    Some(t) => sampled_spans = t.len(),
                    None => {}
                }
                if round > 0 {
                    let ns = wall.as_nanos() as f64;
                    samples[i].push(ns);
                    fastest[round - 1][i] = fastest[round - 1][i].min(ns);
                }
            }
        }
    }
    let full_trace = full_trace.expect("the traced run ran");
    let spans_recorded = full_trace.len();
    assert!(
        spans_recorded > REQUESTS as usize,
        "the traced run should record more than one span per request"
    );
    assert!(
        sampled_spans > 0 && sampled_spans < spans_recorded / 4,
        "1-in-{SAMPLE_RATE} sampling must keep a small non-empty slice: \
         {sampled_spans} of {spans_recorded} spans"
    );
    for ((tag, ..), runs) in CONFIGS.iter().zip(&samples) {
        suite.record(&format!("request_path/{tag}"), runs);
    }

    // Per-round ratios against the same round's base: drift between
    // rounds cancels, what is left is this host's noise and the cost.
    let ratios = |i: usize| -> Vec<f64> { fastest.iter().map(|r| r[i] / r[0]).collect() };
    let (off, on, sampled) = (ratios(1), ratios(2), ratios(3));
    let pct = |r: f64| (r - 1.0) * 100.0;
    for (round, ((o, e), s)) in off.iter().zip(&on).zip(&sampled).enumerate() {
        println!(
            "   round {round}: off {:+.2}%  on {:+.2}%  sampled {:+.2}%",
            pct(*o),
            pct(*e),
            pct(*s)
        );
    }
    let (noise, bound) = sampled_bound(&off);
    let sampled_cost = median(sampled) - 1.0;
    println!(
        "-- {ROUNDS} interleaved rounds, medians: disabled-path A/A delta {:+.2}% (noise {:.2}%)   \
         enabled cost {:+.2}%   sampled-out cost {:+.2}% (bound {:.2}%)   \
         ({spans_recorded} spans/run on, {sampled_spans} at 1/{SAMPLE_RATE})",
        pct(median(off)),
        noise * 100.0,
        pct(median(on)),
        sampled_cost * 100.0,
        bound * 100.0,
    );
    assert!(
        sampled_cost <= bound,
        "enabled-but-sampled-out tracing costs {:+.2}% over disabled in the median round, \
         beyond max(2%, 1.5 x this run's A/A noise) = {:.2}%",
        sampled_cost * 100.0,
        bound * 100.0
    );

    // Span-derived SLO summary rows from the fully traced run: request
    // and per-service percentiles plus the depth-1 breakdown, in the
    // same trajectory format as the bench rows.
    let mut slo = SloAggregator::new(1);
    slo.ingest(&full_trace);
    assert_eq!(
        slo.sampled_requests(),
        REQUESTS,
        "rate-1 SLO closure: every answered request has a request span"
    );

    // One append: a second call would treat the first call's fresh
    // rows as stale and drop them.
    append_rows(
        &out,
        &format!("{}\n{}", suite.to_json(), slo.to_json_rows("sim")),
    );
    println!(
        "appended {} bench + {} slo rows to {out}",
        suite.rows().len(),
        slo.rows().len()
    );
}

#[cfg(test)]
mod tests {
    use super::sampled_bound;

    #[test]
    fn one_slow_round_does_not_widen_the_bound() {
        // Nine rounds within 1 % of base, one 47 % outlier.
        let off = [
            1.01, 0.99, 1.005, 0.995, 1.0, 1.008, 0.992, 1.002, 0.998, 1.47,
        ];
        let (noise, bound) = sampled_bound(&off);
        assert!((noise - 0.01).abs() < 1e-9, "noise {noise}");
        assert_eq!(bound, 0.02);
    }
}
