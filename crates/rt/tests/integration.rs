//! Integration tests for the std-only runtime: the paper's availability
//! mechanics (§3.1.3 process-peer restart, queue salvage) exercised over
//! real OS threads, fast enough for CI (`time_scale` keeps each test
//! well under two seconds of wall clock).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use sns_core::msg::{Job, JobResult};
use sns_core::worker::{WorkerError, WorkerLogic};
use sns_core::{Blob, Payload, WorkerClass};
use sns_rt::{RtCluster, RtConfig};
use sns_sim::rng::Pcg32;
use sns_sim::time::SimTime;

/// One permit per poison job; `None` crashes at once.
type Gate = Option<Arc<Mutex<mpsc::Receiver<()>>>>;

/// Echoes its input; crashes the hosting thread on inputs tagged
/// "poison" (simulating a worker process dying mid-queue), once it holds
/// a permit when gated.
struct Echo {
    gate: Gate,
}

impl WorkerLogic for Echo {
    fn class(&self) -> WorkerClass {
        "echo".into()
    }
    fn service_time(&mut self, _j: &Job, _n: SimTime, _r: &mut Pcg32) -> Duration {
        Duration::from_millis(5)
    }
    fn process(&mut self, job: &Job, _n: SimTime, _r: &mut Pcg32) -> Result<Payload, WorkerError> {
        let blob = sns_core::payload_as::<Blob>(&job.input).expect("blob input");
        if blob.tag == "poison" {
            if let Some(gate) = &self.gate {
                let permits = gate.lock().expect("gate lock");
                permits.recv().expect("the test outlives its workers");
            }
            return Err(WorkerError::Crash);
        }
        Ok(Blob::payload(blob.len / 2, "echoed"))
    }
}

fn fast_config() -> RtConfig {
    RtConfig::new()
        .with_time_scale(0.01)
        .with_report_period(Duration::from_millis(10))
        .with_beacon_period(Duration::from_millis(20))
        .with_seed(0xc4a5)
        .with_restart_on_crash(true)
}

/// Worker crash with work still queued: the manager must notice the
/// death, start a process peer, salvage the orphaned queue onto the
/// replacement, and every salvaged job must still get an answer.
#[test]
fn crash_restart_redispatches_queued_jobs() {
    let started = Instant::now();
    let c: Arc<RtCluster> = RtCluster::start(fast_config());
    // A single worker so the queued jobs are provably behind the poison.
    let (permit, permits) = mpsc::channel();
    let gate: Gate = Some(Arc::new(Mutex::new(permits)));
    c.add_workers("echo", 1, move || Box::new(Echo { gate: gate.clone() }));

    // The poison goes first; five real jobs queue up behind it, and only
    // then may the worker die with them in its inbox.
    let poisoned = c.submit("echo", "echo", Blob::payload(10, "poison"), None);
    let queued: Vec<_> = (0..5)
        .map(|i| c.submit("echo", "echo", Blob::payload(1000 + i, "x"), None))
        .collect();
    permit.send(()).expect("the worker is alive");

    // The crashed job never answers…
    assert!(
        poisoned.recv_timeout(Duration::from_millis(500)).is_err(),
        "a crashed worker must not reply"
    );
    // …but every job it orphaned is salvaged onto the process peer.
    for rx in queued {
        match rx
            .recv_timeout(Duration::from_secs(2))
            .expect("salvaged reply")
        {
            JobResult::Ok(p) => assert!(p.wire_size() >= 500),
            JobResult::Failed(e) => panic!("salvaged job failed: {e}"),
        }
    }
    assert!(c.crashes.load(Ordering::Relaxed) >= 1, "crash observed");
    assert!(
        c.restarts.load(Ordering::Relaxed) >= 1,
        "process peer started"
    );
    assert_eq!(
        c.redispatched.load(Ordering::Relaxed),
        5,
        "the whole orphaned queue redispatched"
    );
    assert_eq!(c.workers_of("echo"), 1, "population restored");
    c.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "test exceeded its wall-clock budget: {:?}",
        started.elapsed()
    );
}

/// Shutdown must drain, not drop: every job accepted before shutdown
/// gets a reply even though the worker threads are being torn down.
#[test]
fn shutdown_drains_queues() {
    let started = Instant::now();
    let c: Arc<RtCluster> = RtCluster::start(fast_config());
    c.add_workers("echo", 2, || Box::new(Echo { gate: None }));

    let receivers: Vec<_> = (0..40)
        .map(|i| c.submit("echo", "echo", Blob::payload(512 + i, "x"), None))
        .collect();
    // Tear down immediately — most of those jobs are still queued.
    c.shutdown();

    // shutdown() joined the workers, so every reply is already sent.
    for rx in receivers {
        match rx
            .recv_timeout(Duration::from_millis(100))
            .expect("drained reply")
        {
            JobResult::Ok(_) => {}
            JobResult::Failed(e) => panic!("queued job dropped at shutdown: {e}"),
        }
    }
    assert_eq!(c.jobs_done.load(Ordering::Relaxed), 40);

    // After shutdown the cluster refuses new work, softly.
    let rx = c.submit("echo", "echo", Blob::payload(1, "x"), None);
    assert!(matches!(
        rx.recv_timeout(Duration::from_millis(100)),
        Ok(JobResult::Failed(_))
    ));
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "test exceeded its wall-clock budget: {:?}",
        started.elapsed()
    );
}

/// Blocks in `process` until `release` is set: the whole class when
/// `stall_all`, else only the first job any worker of the class takes.
struct Stall {
    release: Arc<AtomicBool>,
    first: Arc<AtomicBool>,
    stall_all: bool,
}

impl WorkerLogic for Stall {
    fn class(&self) -> WorkerClass {
        "stall".into()
    }
    fn service_time(&mut self, _j: &Job, _n: SimTime, _r: &mut Pcg32) -> Duration {
        Duration::from_millis(5)
    }
    fn process(&mut self, job: &Job, _n: SimTime, _r: &mut Pcg32) -> Result<Payload, WorkerError> {
        if self.stall_all || self.first.swap(false, Ordering::SeqCst) {
            while !self.release.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(Blob::payload(job.input.wire_size(), "done"))
    }
}

/// Two `stall` workers under a short dispatch timeout; returns the
/// cluster and the flag that releases every stalled `process`.
fn stalling_cluster(timeout: Duration, stall_all: bool) -> (Arc<RtCluster>, Arc<AtomicBool>) {
    let mut cfg = fast_config().with_restart_on_crash(false);
    cfg.dispatch_timeout = timeout;
    let c = RtCluster::start(cfg);
    let release = Arc::new(AtomicBool::new(false));
    let first = Arc::new(AtomicBool::new(true));
    let (r, f) = (Arc::clone(&release), first);
    c.add_workers("stall", 2, move || {
        Box::new(Stall {
            release: Arc::clone(&r),
            first: Arc::clone(&f),
            stall_all,
        })
    });
    (c, release)
}

/// The dispatch timeout is the stub's failure detector (§3.1.8): a job
/// whose worker stalls past it is retried on the other worker and
/// answered from there, and the stalled worker's late answer is not
/// delivered a second time.
#[test]
fn a_stalled_job_is_retried_elsewhere_and_answered_once() {
    let timeout = Duration::from_millis(150);
    let (c, release) = stalling_cluster(timeout, false);
    let started = Instant::now();
    let rx = c.submit("stall", "echo", Blob::payload(64, "x"), None);
    match rx
        .recv_timeout(Duration::from_secs(5))
        .expect("retried reply")
    {
        JobResult::Ok(p) => assert_eq!(p.wire_size(), 64),
        JobResult::Failed(e) => panic!("retried job failed: {e}"),
    }
    let waited = started.elapsed();
    assert!(
        waited >= timeout,
        "answered before its deadline: {waited:?}"
    );
    assert!(c.counter("stub.timeouts") >= 1, "the stall timed out");
    assert!(c.counter("stub.retries") >= 1, "the job was retried");
    assert_eq!(c.counter("stub.gave_up"), 0);
    release.store(true, Ordering::SeqCst);
    // The stalled copy finishes now; its answer must find the job settled.
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        rx.recv_timeout(Duration::from_millis(100)).is_err(),
        "a retried job must be answered exactly once"
    );
    c.shutdown();
}

/// With every worker stalled, each retry times out too: the job fails
/// with `"no live worker"` once `max_retries + 1` deadlines have passed.
#[test]
fn with_every_worker_stalled_the_job_gives_up_after_its_retries() {
    let timeout = Duration::from_millis(100);
    let (c, release) = stalling_cluster(timeout, true);
    let deadlines = sns_core::SnsConfig::default().max_retries + 1;
    let started = Instant::now();
    let rx = c.submit("stall", "echo", Blob::payload(64, "x"), None);
    match rx
        .recv_timeout(Duration::from_secs(5))
        .expect("a typed failure")
    {
        JobResult::Failed(e) => assert_eq!(e, "no live worker"),
        JobResult::Ok(_) => panic!("no worker could have answered"),
    }
    let waited = started.elapsed();
    assert!(
        waited >= timeout * deadlines,
        "gave up after {waited:?}, before {deadlines} deadlines of {timeout:?}"
    );
    assert!(c.counter("stub.timeouts") >= 2, "both workers timed out");
    assert_eq!(c.counter("stub.gave_up"), 1);
    release.store(true, Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        rx.recv_timeout(Duration::from_millis(100)).is_err(),
        "a job that gave up must not be answered again"
    );
    c.shutdown();
}
