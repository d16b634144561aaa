//! Placement by live queue gauge: every dispatch shard reads the same
//! exact per-worker gauges, so jobs submitted back to back — from one
//! thread or several, through different shards — land on different idle
//! workers instead of drawing the paper's lottery and colliding.
//!
//! Deterministic claims first: workers hold each job until the test
//! hands out a permit, so no gauge can drop between the submits of one
//! round, whatever the host's scheduler does. Timing second.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use sns_core::msg::{Job, JobResult};
use sns_core::worker::{WorkerError, WorkerLogic};
use sns_core::{Blob, Payload, WorkerClass};
use sns_rt::{RtCluster, RtConfig};
use sns_sim::rng::Pcg32;
use sns_sim::time::SimTime;

const SERVICE: Duration = Duration::from_millis(20);
const WORKERS: usize = 3;

/// One permit per job; `None` lets every job through.
type Gate = Option<Arc<Mutex<mpsc::Receiver<()>>>>;

/// Sleeps `SERVICE`, waits for a permit when gated, and answers with
/// its own index (the order the factory built it in) as the payload
/// length.
struct Echo {
    me: u64,
    gate: Gate,
}

impl WorkerLogic for Echo {
    fn class(&self) -> WorkerClass {
        "w".into()
    }
    fn service_time(&mut self, _j: &Job, _n: SimTime, _r: &mut Pcg32) -> Duration {
        SERVICE
    }
    fn process(&mut self, _j: &Job, _n: SimTime, _r: &mut Pcg32) -> Result<Payload, WorkerError> {
        if let Some(gate) = &self.gate {
            let permits = gate.lock().expect("gate lock");
            permits.recv().expect("the test outlives its workers");
        }
        Ok(Blob::payload(self.me, "echo"))
    }
}

/// Three `Echo` workers behind the default shard count; the returned
/// sender hands out permits when `gated`.
fn cluster(gated: bool) -> (Arc<RtCluster>, mpsc::Sender<()>) {
    let (permit_tx, permit_rx) = mpsc::channel();
    let gate: Gate = gated.then(|| Arc::new(Mutex::new(permit_rx)));
    let c = RtCluster::start(
        RtConfig::new()
            .with_time_scale(1.0)
            .with_report_period(Duration::from_millis(10))
            .with_beacon_period(Duration::from_millis(20)),
    );
    let built = AtomicU64::new(0);
    c.add_workers("w", WORKERS, move || {
        Box::new(Echo {
            me: built.fetch_add(1, Ordering::Relaxed),
            gate: gate.clone(),
        })
    });
    (c, permit_tx)
}

fn submit(c: &RtCluster) -> mpsc::Receiver<JobResult> {
    c.submit("w", "op", Blob::payload(64, "x"), None)
}

/// The index of the worker that answered.
fn answered_by(rx: &mpsc::Receiver<JobResult>) -> u64 {
    match rx.recv_timeout(Duration::from_secs(10)).expect("reply") {
        JobResult::Ok(p) => p.wire_size(),
        JobResult::Failed(e) => panic!("job failed: {e}"),
    }
}

fn distinct(replies: &[mpsc::Receiver<JobResult>]) -> BTreeSet<u64> {
    replies.iter().map(answered_by).collect()
}

#[test]
fn back_to_back_submits_land_on_distinct_idle_workers() {
    let (c, permits) = cluster(true);
    for round in 0..50 {
        let replies: Vec<_> = (0..WORKERS).map(|_| submit(&c)).collect();
        for _ in 0..WORKERS {
            permits.send(()).expect("workers alive");
        }
        let workers = distinct(&replies);
        assert_eq!(workers.len(), WORKERS, "round {round} shared a worker");
    }
    // A reply is sent after the job has left its worker's gauge, so
    // every round started on an idle class.
    assert_eq!(c.counter("stub.placed_busy"), 0);
    assert_eq!(c.counter("stub.dispatches"), 150);
    c.shutdown();
}

#[test]
fn submitters_on_two_threads_see_each_others_placements() {
    let (c, permits) = cluster(true);
    let (go, turn) = mpsc::channel::<()>();
    let (back, theirs) = mpsc::channel();
    let mut slow = Vec::new();
    std::thread::scope(|s| {
        let other = Arc::clone(&c);
        s.spawn(move || {
            // The second submitter: one job per round, strictly between
            // the first submitter's two.
            while turn.recv().is_ok() {
                back.send(submit(&other)).expect("main thread alive");
            }
        });
        for round in 0..50 {
            let started = Instant::now();
            let first = submit(&c);
            go.send(()).expect("second submitter alive");
            let second = theirs.recv().expect("second submitter alive");
            let third = submit(&c);
            for _ in 0..WORKERS {
                permits.send(()).expect("workers alive");
            }
            let workers = distinct(&[first, second, third]);
            assert_eq!(workers.len(), WORKERS, "round {round} shared a worker");
            if started.elapsed() >= SERVICE * 2 {
                slow.push((round, started.elapsed()));
            }
        }
        drop(go);
    });
    assert_eq!(c.counter("stub.placed_busy"), 0);
    // Three jobs on three workers take one service period. With the
    // placements above proven distinct, a round that took two can only
    // be the host stalling a thread for a whole period; allow that twice.
    assert!(
        slow.len() <= 2,
        "rounds of {SERVICE:?} jobs that took two periods: {slow:?}"
    );
    c.shutdown();
}

#[test]
fn a_job_placed_on_a_busy_class_is_counted_and_answered() {
    let (c, permits) = cluster(true);
    let mut replies: Vec<_> = (0..WORKERS).map(|_| submit(&c)).collect();
    assert_eq!(c.counter("stub.placed_busy"), 0, "three idle workers");
    // All three hold a job (no permit yet): the fourth has to queue.
    replies.push(submit(&c));
    assert_eq!(c.counter("stub.placed_busy"), 1);
    for _ in 0..replies.len() {
        permits.send(()).expect("workers alive");
    }
    assert_eq!(distinct(&replies).len(), WORKERS, "everyone worked");
    c.shutdown();
}

#[test]
fn a_killed_worker_loses_no_job_and_gets_none_once_reaped() {
    let (c, _permits) = cluster(false);
    // ≈10 jobs deep per worker, then one worker dies with its queue.
    let mut replies: Vec<_> = (0..30).map(|_| submit(&c)).collect();
    assert!(c.crash_worker("w"));
    replies.extend((0..30).map(|_| submit(&c)));
    for rx in &replies {
        answered_by(rx); // panics on a failed or lost job
    }
    // The manager reaps the dead worker and starts its process peer.
    let deadline = Instant::now() + Duration::from_secs(5);
    while c.restarts.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(c.workers_of("w"), WORKERS, "process peer restart");
    let refused = c.counter("stub.timeouts");
    for _ in 0..10 {
        let replies: Vec<_> = (0..WORKERS).map(|_| submit(&c)).collect();
        for rx in &replies {
            answered_by(rx);
        }
    }
    assert_eq!(
        c.counter("stub.timeouts"),
        refused,
        "a job was aimed at the reaped worker"
    );
    assert_eq!(c.counter("stub.gave_up"), 0);
    assert_eq!(
        c.submitted.load(Ordering::Relaxed),
        c.jobs_done.load(Ordering::Relaxed),
        "every accepted job completed (none failed)"
    );
    assert_eq!(c.jobs_done.load(Ordering::Relaxed), 90);
    c.shutdown();
}
