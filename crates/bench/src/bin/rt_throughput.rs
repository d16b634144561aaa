//! Macro-benchmark of the threaded runtime's worker-scaling curve:
//! `scaling/workers{1,2,4,8,16}` push a fixed batch of jobs with a real
//! service time (a deadline on each worker's timeline), submitted from
//! several threads, with one dispatch shard per worker. The services
//! overlap across worker threads and each worker starts its next job
//! when the last one's service ends, so wall time should sit just above
//! the ideal `256 × 4 ms ÷ workers` — this is the curve `ci.sh`'s
//! `rt_scaling` stage guards (every pool within 2 ms of its ideal).
//!
//! The warm zero-service submit path is measured by perfbench's
//! `rt_submit` workload, not here.
//!
//! ```sh
//! cargo run -p sns-bench --release --bin rt_throughput [-- OUTPUT.json]
//! ```
//!
//! Rows land in `BENCH_rt.json` together with span-derived `slo/*`
//! summary rows from a separate head-sampled traced run of zero-service
//! jobs; jobs/sec per pool size prints at the end.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use sns_core::msg::{Job, JobResult};
use sns_core::slo::SloAggregator;
use sns_core::worker::{WorkerError, WorkerLogic};
use sns_core::{Blob, Payload, WorkerClass};
use sns_rt::{RtCluster, RtConfig};
use sns_sim::rng::Pcg32;
use sns_sim::time::SimTime;
use sns_testkit::{BenchConfig, BenchSuite};

/// Jobs in the sampled zero-service SLO run.
const JOBS: u64 = 1_000;

/// Jobs per scaling-curve run (smaller: each carries a real sleep).
const SCALE_JOBS: u64 = 256;

/// Modelled service time per job in the scaling runs.
const SERVICE: Duration = Duration::from_millis(4);

struct Nop;

impl WorkerLogic for Nop {
    fn class(&self) -> WorkerClass {
        "nop".into()
    }
    fn service_time(&mut self, _j: &Job, _n: SimTime, _r: &mut Pcg32) -> Duration {
        Duration::ZERO
    }
    fn process(&mut self, job: &Job, _n: SimTime, _r: &mut Pcg32) -> Result<Payload, WorkerError> {
        Ok(Blob::payload(job.input.wire_size(), "done"))
    }
}

struct Sleeper;

impl WorkerLogic for Sleeper {
    fn class(&self) -> WorkerClass {
        "nop".into()
    }
    fn service_time(&mut self, _j: &Job, _n: SimTime, _r: &mut Pcg32) -> Duration {
        SERVICE
    }
    fn process(&mut self, job: &Job, _n: SimTime, _r: &mut Pcg32) -> Result<Payload, WorkerError> {
        Ok(Blob::payload(job.input.wire_size(), "done"))
    }
}

/// Scaling cluster: real (scaled 1:1) service sleeps, one dispatch
/// shard per worker. Every shard places by the workers' live queue
/// gauges, so the batch spreads evenly however the submits interleave.
fn scaling_cluster(workers: usize) -> Arc<RtCluster> {
    let c = RtCluster::start(
        RtConfig::new()
            .with_time_scale(1.0)
            .with_report_period(Duration::from_millis(10))
            .with_beacon_period(Duration::from_millis(20))
            .with_seed(0x6274)
            .with_shards(workers),
    );
    c.add_workers("nop", workers, || Box::new(Sleeper));
    c
}

/// Pushes `SCALE_JOBS` through the cluster from several submitter
/// threads and waits for every reply.
fn scaling_run(c: &Arc<RtCluster>, workers: usize) {
    let submitters = workers.clamp(1, 8);
    let per = SCALE_JOBS / submitters as u64;
    let extra = SCALE_JOBS % submitters as u64;
    std::thread::scope(|s| {
        for t in 0..submitters {
            let share = per + u64::from((t as u64) < extra);
            let c = Arc::clone(c);
            s.spawn(move || {
                let receivers: Vec<_> = (0..share)
                    .map(|i| c.submit("nop", "op", Blob::payload(64 + i, "x"), None))
                    .collect();
                for rx in receivers {
                    match rx.recv().expect("reply") {
                        JobResult::Ok(_) => {}
                        JobResult::Failed(e) => panic!("scaling job failed: {e}"),
                    }
                }
            });
        }
    });
    assert_eq!(c.jobs_done.load(Ordering::Relaxed), SCALE_JOBS);
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_rt.json".to_string());
    // Each run pushes a full batch through real threads; the nominal
    // wall-clock budget means `min_samples` drives the loop: ≥ 5
    // measured runs per benchmark, so the recorded p50/p99 are a
    // distribution, not a point estimate.
    let mut suite = BenchSuite::with_config(
        "rt",
        BenchConfig {
            warmup: Duration::from_millis(1),
            measure: Duration::from_millis(1),
            min_samples: 5,
            ..Default::default()
        },
    );
    let scale_pools = [1usize, 2, 4, 8, 16];
    for workers in scale_pools {
        suite.bench_batched(
            &format!("scaling/workers{workers}"),
            || scaling_cluster(workers),
            |c| {
                scaling_run(&c, workers);
                c.shutdown();
            },
        );
    }
    suite.write_json(&out).expect("write bench rows");

    // Span-derived SLO rows from an unmeasured head-sampled traced run
    // (the always-on production configuration): request percentiles and
    // the depth-1 queue/service/net breakdown, scaled back up by the
    // sampling rate.
    const SLO_RATE: u32 = 4;
    let slo_rows = {
        let c = RtCluster::start(
            RtConfig::new()
                .with_time_scale(0.0)
                .with_report_period(Duration::from_millis(10))
                .with_beacon_period(Duration::from_millis(20))
                .with_seed(0x6274)
                .with_tracing(true)
                .with_trace_sampling(SLO_RATE),
        );
        c.add_workers("nop", 4, || Box::new(Nop));
        let receivers: Vec<_> = (0..JOBS)
            .map(|i| c.submit("nop", "op", Blob::payload(64 + i, "x"), None))
            .collect();
        for rx in receivers {
            match rx.recv().expect("reply") {
                JobResult::Ok(_) => {}
                JobResult::Failed(e) => panic!("slo job failed: {e}"),
            }
        }
        c.shutdown();
        let log = c.trace_snapshot().expect("tracing enabled");
        let mut slo = SloAggregator::new(SLO_RATE);
        slo.ingest(&log);
        // Sampling closure: the 1-in-SLO_RATE slice, scaled back up,
        // must account for the admitted batch within a generous band.
        let est = slo.sampled_requests() * u64::from(SLO_RATE);
        assert!(
            (JOBS / 2..=JOBS * 2).contains(&est),
            "sampled-request estimate {est} is not within 2x of {JOBS} admitted jobs"
        );
        slo.to_json_rows("rt")
    };
    let merged = {
        let bench = std::fs::read_to_string(&out).expect("read bench rows");
        let body = |s: &str| {
            s.trim()
                .trim_start_matches('[')
                .trim_end_matches(']')
                .trim_matches('\n')
                .trim_end_matches(',')
                .to_string()
        };
        format!("[\n{},\n{}\n]", body(&bench), body(&slo_rows))
    };
    std::fs::write(&out, merged).expect("write merged rows");

    let row = |name: &str| {
        suite
            .rows()
            .iter()
            .find(|r| r.bench == name)
            .expect("row exists")
            .mean_ns
    };
    println!("-- scaling ({SCALE_JOBS} jobs per run, {SERVICE:?} service, shards = workers)");
    let base = row("scaling/workers1");
    for workers in scale_pools {
        let ns = row(&format!("scaling/workers{workers}"));
        println!(
            "  workers{workers:<2}  {:>12.0} jobs/s  ({:.2}x vs 1 worker)",
            SCALE_JOBS as f64 / (ns / 1e9),
            base / ns,
        );
    }
    println!(
        "wrote {} bench + slo rows to {out} (sample rate 1/{SLO_RATE})",
        suite.rows().len()
    );
}
