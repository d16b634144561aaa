//! A job's service time is a deadline, as in the simulator: the worker
//! runs its real `process` inside it and the job waits out the rest, so a
//! job occupies its worker for `max(service, real work)` and its reply
//! leaves when the deadline passes — not a timer slack later. A front
//! end's nap ends on time the same way.
//!
//! Each worker case fails on a worker that sleeps the service and then
//! runs `process` on top of it (the first two take service + work; the
//! third overshoots by the kernel's timer slack plus a wake-up,
//! ≈70 µs); the nap case fails on an `exec::serve` that blocks all the
//! way to the nap's deadline.
//!
//! The service starts on the simulator's single-server timeline: when
//! the job reaches a free worker, not when the thread wakes up to it.
//! So a job reaching an idle worker waits no time in its queue, a
//! backlog's services start exactly one service apart, a salvaged job
//! starts service only once it reaches its survivor, and a job still in
//! service when the cluster shuts down is answered with its result. The
//! first two and the salvage case fail on a worker that starts service
//! when it dequeues the job; the salvage case also fails on one that
//! keeps a salvaged job's first arrival.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use sns_core::exec::service::{AsyncService, SvcHandle};
use sns_core::exec::{race, BoxFut, Either};
use sns_core::msg::{ClientRequest, Job, JobResult};
use sns_core::trace::{self, SpanRecord};
use sns_core::worker::{WorkerError, WorkerLogic};
use sns_core::{Blob, Payload, WorkerClass};
use sns_rt::exec::serve;
use sns_rt::{RtCluster, RtConfig};
use sns_sim::rng::Pcg32;
use sns_sim::time::SimTime;

/// The cases measure wall time against sub-millisecond bounds; run them
/// one at a time so they do not compete with each other for the cores.
fn serial() -> MutexGuard<'static, ()> {
    static CORES: Mutex<()> = Mutex::new(());
    CORES.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fixed service time whose `process` busy-works for `work`.
struct Busy {
    service: Duration,
    work: Duration,
}

impl WorkerLogic for Busy {
    fn class(&self) -> WorkerClass {
        "w".into()
    }
    fn service_time(&mut self, _j: &Job, _n: SimTime, _r: &mut Pcg32) -> Duration {
        self.service
    }
    fn process(&mut self, job: &Job, _n: SimTime, _r: &mut Pcg32) -> Result<Payload, WorkerError> {
        let t0 = Instant::now();
        while t0.elapsed() < self.work {
            std::hint::spin_loop();
        }
        Ok(Blob::payload(job.input.wire_size(), "done"))
    }
}

fn cluster(service: Duration, work: Duration, tracing: bool) -> Arc<RtCluster> {
    let c = RtCluster::start(RtConfig::new().with_time_scale(1.0).with_tracing(tracing));
    c.add_workers("w", 1, move || Box::new(Busy { service, work }));
    c
}

/// Submit-to-reply wall time of one lone job.
fn lone_job(c: &RtCluster) -> Duration {
    let t0 = Instant::now();
    let reply = c
        .submit("w", "op", Blob::payload(64, "x"), None)
        .recv_timeout(Duration::from_secs(5))
        .expect("worker answers");
    assert!(matches!(reply, JobResult::Ok(_)), "{reply:?}");
    t0.elapsed()
}

/// Best of five runs after a warm-up: a descheduled thread may add to
/// one run, but nothing can make a run shorter than it is.
fn best_of_five(mut run: impl FnMut() -> Duration) -> Duration {
    run();
    (0..5).map(|_| run()).min().expect("five runs")
}

/// Best lone-job time of `service` and `work`, less that of a job with
/// neither: what the job itself adds to the round trip, whatever the
/// submit and reply wake-ups cost in this build and on this host.
fn job_time(service: Duration, work: Duration) -> Duration {
    let idle = cluster(Duration::ZERO, Duration::ZERO, false);
    let round_trip = best_of_five(|| lone_job(&idle));
    idle.shutdown();
    let c = cluster(service, work, false);
    let best = best_of_five(|| lone_job(&c));
    c.shutdown();
    best.saturating_sub(round_trip)
}

#[test]
fn real_work_shorter_than_the_service_runs_inside_it() {
    let _cores = serial();
    let service = Duration::from_millis(10);
    let took = job_time(service, Duration::from_millis(4));
    assert!(
        took >= service - Duration::from_micros(500),
        "answered before the deadline: {took:?}"
    );
    assert!(
        took < service + Duration::from_millis(2),
        "4 ms of work inside 10 ms of service took {took:?}"
    );
}

#[test]
fn real_work_longer_than_the_service_adds_no_wait() {
    let _cores = serial();
    let work = Duration::from_millis(3);
    let took = job_time(Duration::from_millis(1), work);
    assert!(
        took < work + Duration::from_micros(500),
        "3 ms of work against 1 ms of service took {took:?}"
    );
}

#[test]
fn service_spans_end_at_their_deadline() {
    let _cores = serial();
    let service = Duration::from_millis(2);
    let c = cluster(service, Duration::ZERO, true);
    for _ in 0..40 {
        lone_job(&c);
    }
    let log = c.trace_snapshot().expect("tracing is on");
    let mut spans: Vec<Duration> = log
        .spans()
        .iter()
        .filter(|s| s.name == trace::SERVICE)
        .map(|s| s.duration())
        .collect();
    assert_eq!(spans.len(), 40, "one service span per job");
    spans.sort();
    assert!(spans[0] >= service, "a span undershot: {:?}", spans[0]);
    let median_over = spans[spans.len() / 2] - service;
    assert!(
        median_over < Duration::from_micros(20),
        "median overshoot {median_over:?} past the {service:?} deadline"
    );
    c.shutdown();
}

/// The gap between the two naps [`NapRace`] arms.
const NAP_GAP: Duration = Duration::from_micros(25);

/// Races a nap of `2 ms + NAP_GAP` (polled first) against one of 2 ms.
/// A front end that ends the 2 ms nap on time resumes the body while
/// the longer one is still pending; one that wakes a timer slack late
/// finds both due, and the race goes to the first-polled, longer nap.
struct NapRace;

const NAP: Duration = Duration::from_millis(2);

impl AsyncService for NapRace {
    fn handle(&mut self, _request: Arc<ClientRequest>, svc: SvcHandle) -> BoxFut {
        Box::pin(async move {
            let on_time = match race(svc.nap(NAP + NAP_GAP), svc.nap(NAP)).await {
                Either::Left(_) => "late",
                Either::Right(_) => "on time",
            };
            svc.reply(Ok(Blob::payload(0, on_time)));
        })
    }
}

#[test]
fn a_front_end_nap_ends_at_its_deadline() {
    let _cores = serial();
    let c = cluster(Duration::ZERO, Duration::ZERO, false);
    // The race is decided inside the wait, before any of `serve`'s own
    // work after it, so the build's speed does not enter; a
    // descheduled front end may lose one race, not five.
    let outcomes: Vec<String> = (0..5)
        .map(|id| {
            let request = ClientRequest {
                id,
                user: "tester".into(),
                url: format!("test://service_time?q={id}"),
                body: None,
            };
            let t0 = Instant::now();
            let out = serve(&c, &mut NapRace, request);
            assert!(t0.elapsed() >= NAP, "woke before the nap ended");
            let reply = out.result.expect("the body replies");
            sns_core::payload_as::<Blob>(&reply)
                .expect("a blob reply")
                .tag
                .clone()
        })
        .collect();
    assert!(
        outcomes.iter().any(|o| o == "on time"),
        "a {NAP:?} nap never ended within {NAP_GAP:?} of its deadline: {outcomes:?}"
    );
    c.shutdown();
}

/// The recorded spans named `name`, in start order.
fn spans_named(c: &RtCluster, name: &str) -> Vec<SpanRecord> {
    let log = c.trace_snapshot().expect("tracing is on");
    let mut spans: Vec<SpanRecord> = log
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .copied()
        .collect();
    spans.sort_by_key(|s| s.start);
    spans
}

#[test]
fn a_job_that_reaches_an_idle_worker_waits_no_time_in_its_queue() {
    let _cores = serial();
    let c = cluster(Duration::from_millis(1), Duration::ZERO, true);
    for _ in 0..5 {
        lone_job(&c);
    }
    let waits: Vec<Duration> = spans_named(&c, trace::QUEUE)
        .iter()
        .map(|s| s.duration())
        .collect();
    assert_eq!(waits.len(), 5, "one queue span per job");
    assert!(
        waits.iter().all(|w| w.is_zero()),
        "queue spans on an idle worker: {waits:?}"
    );
    c.shutdown();
}

#[test]
fn a_backlog_starts_service_exactly_one_service_apart() {
    let _cores = serial();
    let service = Duration::from_millis(10);
    let c = cluster(service, Duration::ZERO, true);
    let replies: Vec<_> = (0..6)
        .map(|_| c.submit("w", "op", Blob::payload(64, "x"), None))
        .collect();
    for rx in replies {
        let reply = rx.recv_timeout(Duration::from_secs(5)).expect("answered");
        assert!(matches!(reply, JobResult::Ok(_)), "{reply:?}");
    }
    let starts: Vec<u64> = spans_named(&c, trace::SERVICE)
        .iter()
        .map(|s| s.start.as_nanos())
        .collect();
    assert_eq!(starts.len(), 6, "one service span per job");
    let gaps: Vec<u64> = starts.windows(2).map(|w| w[1] - w[0]).collect();
    assert!(
        gaps.iter().all(|&g| u128::from(g) == service.as_nanos()),
        "service starts of a backlog, ns apart: {gaps:?}"
    );
    c.shutdown();
}

#[test]
fn shutdown_answers_a_job_in_service_with_its_result() {
    let _cores = serial();
    let c = cluster(Duration::from_millis(50), Duration::ZERO, false);
    let rx = c.submit("w", "op", Blob::payload(64, "x"), None);
    c.shutdown();
    let reply = rx
        .recv_timeout(Duration::from_secs(1))
        .expect("shutdown answers every accepted job");
    assert!(matches!(reply, JobResult::Ok(_)), "{reply:?}");
}

/// No real work; the service time follows the input's tag: "poison"
/// takes 20 ms and then crashes the thread, anything else `SALVAGED`.
struct ByTag;

const SALVAGED: Duration = Duration::from_millis(5);

fn tag(job: &Job) -> &str {
    sns_core::payload_as::<Blob>(&job.input).map_or("", |b| b.tag.as_str())
}

impl WorkerLogic for ByTag {
    fn class(&self) -> WorkerClass {
        "w".into()
    }
    fn service_time(&mut self, job: &Job, _n: SimTime, _r: &mut Pcg32) -> Duration {
        match tag(job) {
            "poison" => Duration::from_millis(20),
            _ => SALVAGED,
        }
    }
    fn process(&mut self, job: &Job, _n: SimTime, _r: &mut Pcg32) -> Result<Payload, WorkerError> {
        if tag(job) == "poison" {
            return Err(WorkerError::Crash);
        }
        Ok(Blob::payload(job.input.wire_size(), "done"))
    }
}

#[test]
fn salvaged_jobs_start_service_once_they_reach_their_survivor() {
    let _cores = serial();
    let c = RtCluster::start(
        RtConfig::new()
            .with_time_scale(1.0)
            .with_tracing(true)
            .with_restart_on_crash(false)
            .with_report_period(Duration::from_millis(10))
            .with_beacon_period(Duration::from_millis(10)),
    );
    // The class's only worker takes all three: two jobs queue behind the
    // poison.
    c.add_workers("w", 1, || Box::new(ByTag));
    let poisoned = c.submit("w", "op", Blob::payload(64, "poison"), None);
    let queued: Vec<_> = (0..2)
        .map(|_| c.submit("w", "op", Blob::payload(64, "x"), None))
        .collect();
    // The survivor, idle since long before the crash.
    c.add_workers("w", 1, || Box::new(ByTag));
    for rx in queued {
        let reply = rx.recv_timeout(Duration::from_secs(5)).expect("answered");
        assert!(matches!(reply, JobResult::Ok(_)), "{reply:?}");
    }
    assert!(
        poisoned.try_recv().is_err(),
        "a crashed worker must not reply"
    );
    assert_eq!(c.redispatched.load(Ordering::Relaxed), 2, "both salvaged");
    let crashed_at = c
        .monitor_log()
        .entries()
        .iter()
        .find(|(_, e)| e.kind_key() == "crashed")
        .map(|&(at, _)| at)
        .expect("the crash is logged");
    let served: Vec<SpanRecord> = spans_named(&c, trace::SERVICE)
        .into_iter()
        .filter(|s| s.ok)
        .collect();
    let [first, second] = served.as_slice() else {
        panic!("two jobs served: {served:?}");
    };
    assert_eq!(first.who, second.who, "both on the survivor");
    // Service on the survivor starts when a job reaches it, not when
    // it first reached the crashed worker's queue.
    assert!(
        first.start >= crashed_at,
        "service started at {:?}, before the crash at {crashed_at:?}",
        first.start
    );
    assert_eq!(
        u128::from(second.start.as_nanos() - first.start.as_nanos()),
        SALVAGED.as_nanos(),
        "the second salvaged job starts when the first one's service ends"
    );
    c.shutdown();
}
