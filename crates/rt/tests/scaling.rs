//! Worker-scaling and shard-topology tests for the threaded runtime.
//!
//! The paper's incremental-scalability claim (§2) means adding workers
//! must add throughput; before the dispatch plane was sharded, every
//! submit serialized on one global mutex and an 8-worker pool ran no
//! faster than one worker. These tests are *service-bound* (workers
//! sleep their modelled service time), so they hold on a single-core
//! CI box: sleeps overlap across threads even when compute cannot.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sns_core::msg::{Job, JobResult};
use sns_core::worker::{WorkerError, WorkerLogic};
use sns_core::{Blob, Payload, WorkerClass};
use sns_rt::{RtCluster, RtConfig};
use sns_sim::rng::Pcg32;
use sns_sim::time::SimTime;

struct Sleeper(Duration);

impl WorkerLogic for Sleeper {
    fn class(&self) -> WorkerClass {
        "w".into()
    }
    fn service_time(&mut self, _j: &Job, _n: SimTime, _r: &mut Pcg32) -> Duration {
        self.0
    }
    fn process(&mut self, job: &Job, _n: SimTime, _r: &mut Pcg32) -> Result<Payload, WorkerError> {
        Ok(Blob::payload(job.input.wire_size(), "done"))
    }
}

/// Wall time to push `jobs` service-bound jobs through a pool of
/// `workers`, with one dispatch shard per worker.
fn run_batch(workers: usize, jobs: u64, service: Duration) -> Duration {
    let c = RtCluster::start(
        RtConfig::new()
            .with_time_scale(1.0)
            .with_report_period(Duration::from_millis(10))
            .with_beacon_period(Duration::from_millis(20))
            .with_seed(0x5ca1e)
            .with_shards(workers),
    );
    c.add_workers("w", workers, move || Box::new(Sleeper(service)));
    let started = Instant::now();
    let submitters = workers.clamp(1, 4);
    let per = jobs / submitters as u64;
    std::thread::scope(|s| {
        for _ in 0..submitters {
            let c = Arc::clone(&c);
            s.spawn(move || {
                let receivers: Vec<_> = (0..per)
                    .map(|i| c.submit("w", "op", Blob::payload(64 + i, "x"), None))
                    .collect();
                for rx in receivers {
                    match rx.recv_timeout(Duration::from_secs(60)).expect("reply") {
                        JobResult::Ok(_) => {}
                        JobResult::Failed(e) => panic!("scaling job failed: {e}"),
                    }
                }
            });
        }
    });
    let elapsed = started.elapsed();
    assert_eq!(c.jobs_done.load(Ordering::Relaxed), per * submitters as u64);
    c.shutdown();
    elapsed
}

/// The headline ratio: 8 workers must finish the same service-bound
/// batch at least 3x faster than 1 worker. (The bench curve shows
/// ~7.7x; 3x leaves slack for a loaded CI box.)
#[test]
fn eight_workers_at_least_triple_one_worker_throughput() {
    let jobs = 128;
    let service = Duration::from_millis(4);
    let one = run_batch(1, jobs, service);
    let eight = run_batch(8, jobs, service);
    let ratio = one.as_secs_f64() / eight.as_secs_f64();
    assert!(
        ratio >= 3.0,
        "8 workers only {ratio:.2}x faster than 1 ({one:?} vs {eight:?})"
    );
}

/// Shard-targeted chaos: kill a node while jobs are queued across all
/// dispatch shards. Every stranded job must be salvaged onto the
/// replacement workers and the conservation ledger must close exactly:
/// `salvaged + direct == submitted`, with nothing failed.
#[test]
fn node_kill_with_outstanding_jobs_conserves_across_shards() {
    let c = RtCluster::start(
        RtConfig::new()
            .with_time_scale(0.05)
            .with_report_period(Duration::from_millis(10))
            .with_beacon_period(Duration::from_millis(20))
            .with_nodes(2)
            .with_shards(4),
    );
    c.add_workers("w", 4, || Box::new(Sleeper(Duration::from_millis(50))));

    // Deep backlog spread over all 4 shards by round-robin submit.
    let receivers: Vec<_> = (0..200)
        .map(|i| c.submit("w", "op", Blob::payload(100 + i, "x"), None))
        .collect();

    // Let some jobs land in worker queues, then take out a node with
    // its share of the backlog still queued.
    std::thread::sleep(Duration::from_millis(100));
    let killed = c.kill_node(0).expect("a node is alive");
    assert!(killed >= 1, "the node hosted at least one worker");

    for rx in receivers {
        match rx.recv_timeout(Duration::from_secs(60)).expect("reply") {
            JobResult::Ok(_) => {}
            JobResult::Failed(e) => panic!("job failed across node kill: {e}"),
        }
    }

    let submitted = c.submitted.load(Ordering::Relaxed);
    let completed = c.jobs_done.load(Ordering::Relaxed);
    let salvaged = c.redispatched.load(Ordering::Relaxed);
    assert_eq!(submitted, 200);
    assert_eq!(completed, submitted, "every accepted job completed");
    assert_eq!(
        salvaged + (completed - salvaged),
        submitted,
        "salvaged {salvaged} + direct {} != submitted {submitted}",
        completed - salvaged
    );
    assert!(
        salvaged >= 1,
        "killing a node mid-backlog must strand work for salvage"
    );
    assert!(c.revive_node(0), "the killed node can come back");
    assert_eq!(c.lock_poisoned.load(Ordering::Relaxed), 0);
    c.shutdown();
}
