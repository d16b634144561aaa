//! `exec::serve` is reply-driven: the front-end thread blocks on its
//! per-call completion queue, so a reply wakes it at once (a job served
//! early is settled by the front end itself at its deadline) and every
//! accepted dispatch is answered — by the worker, the waiting front
//! end, a give-up or shutdown — with a typed result, never by a channel
//! going quiet.
//!
//! The two latency tests fail on a polling driver (each await rounded
//! up to the poll period); the fault tests would hang on a driver that
//! waited for a sender to disconnect.

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use sns_core::exec::service::{AsyncService, EventOutcome, SvcHandle};
use sns_core::exec::BoxFut;
use sns_core::msg::{ClientRequest, Job, JobResult};
use sns_core::worker::{WorkerError, WorkerLogic};
use sns_core::{Blob, Payload, WorkerClass};
use sns_distillers::HtmlMunger;
use sns_rt::exec::{serve, ServeOutcome};
use sns_rt::{Completions, RtCluster, RtConfig};
use sns_sim::rng::Pcg32;
use sns_sim::time::SimTime;
use sns_tacc::origin::FetchRequest;
use sns_tacc::worker::TaccWorkerHost;
use sns_tacc::{OriginServer, PipelineConfig, PipelineJob, PipelineService};
use sns_workload::MimeType;

/// Sleeps a fixed service time; crashes its thread (no reply) on input
/// tagged "poison", after telling the test it got that far.
struct Slept {
    service: Duration,
    poisoned: Option<mpsc::Sender<()>>,
}

impl WorkerLogic for Slept {
    fn class(&self) -> WorkerClass {
        "w".into()
    }
    fn service_time(&mut self, _j: &Job, _n: SimTime, _r: &mut Pcg32) -> Duration {
        self.service
    }
    fn process(&mut self, job: &Job, _n: SimTime, _r: &mut Pcg32) -> Result<Payload, WorkerError> {
        if sns_core::payload_as::<Blob>(&job.input).is_some_and(|b| b.tag == "poison") {
            if let Some(tx) = &self.poisoned {
                let _ = tx.send(());
            }
            return Err(WorkerError::Crash);
        }
        Ok(Blob::payload(job.input.wire_size(), "done"))
    }
}

/// A body of `awaits` dispatches to class `w`, one after another; the
/// first failure becomes the reply.
struct Sequential {
    awaits: usize,
    tag: &'static str,
}

impl AsyncService for Sequential {
    fn handle(&mut self, _request: Arc<ClientRequest>, svc: SvcHandle) -> BoxFut {
        let (awaits, tag) = (self.awaits, self.tag);
        Box::pin(async move {
            let mut last = Blob::payload(0, "none");
            for _ in 0..awaits {
                match svc
                    .dispatch("w".into(), "op", Blob::payload(64, tag), None)
                    .await
                {
                    EventOutcome::Reply(JobResult::Ok(p)) => last = p,
                    EventOutcome::Reply(JobResult::Failed(why)) => return svc.reply(Err(why)),
                    other => return svc.reply(Err(format!("untyped outcome {other:?}"))),
                }
            }
            svc.reply(Ok(last));
        })
    }
}

fn request(id: u64) -> ClientRequest {
    ClientRequest {
        id,
        user: "tester".into(),
        url: format!("test://serve_wake?q={id}"),
        body: None,
    }
}

fn cluster(service: Duration) -> Arc<RtCluster> {
    let c = RtCluster::start(RtConfig::new().with_time_scale(1.0));
    c.add_workers("w", 1, move || {
        Box::new(Slept {
            service,
            poisoned: None,
        })
    });
    c
}

/// Runs `serve` on its own thread and hands back the receiving end, so
/// a test can inject a fault while the call is blocked and bound how
/// long it may stay blocked.
fn serve_on_thread(
    c: &Arc<RtCluster>,
    mut svc: impl AsyncService + 'static,
    request: ClientRequest,
) -> (mpsc::Receiver<ServeOutcome>, std::thread::JoinHandle<()>) {
    let (tx, rx) = mpsc::channel();
    let c = Arc::clone(c);
    let t = std::thread::spawn(move || {
        let _ = tx.send(serve(&c, &mut svc, request));
    });
    (rx, t)
}

#[test]
fn a_reply_wakes_the_front_end_when_the_worker_sends_it() {
    let service = Duration::from_millis(20);
    let c = cluster(service);
    let mut svc = Sequential {
        awaits: 1,
        tag: "x",
    };
    assert!(serve(&c, &mut svc, request(0)).result.is_ok(), "warm-up");
    // Best of five: a descheduled test thread may add to one run, but
    // nothing can make a run shorter than it is.
    let best = (1..=5)
        .map(|id| {
            let t0 = Instant::now();
            let out = serve(&c, &mut svc, request(id));
            assert!(out.result.is_ok(), "request {id}: {:?}", out.result);
            t0.elapsed()
        })
        .min()
        .expect("five runs");
    assert!(
        best >= service,
        "returned before the service ended: {best:?}"
    );
    assert!(
        best < service + Duration::from_millis(5),
        "one dispatch of {service:?} service took {best:?}"
    );
    c.shutdown();
}

#[test]
fn five_zero_service_awaits_take_well_under_a_millisecond() {
    let c = cluster(Duration::ZERO);
    let mut svc = Sequential {
        awaits: 5,
        tag: "x",
    };
    assert!(serve(&c, &mut svc, request(0)).result.is_ok(), "warm-up");
    let mut walls: Vec<Duration> = (1..=200)
        .map(|id| {
            let t0 = Instant::now();
            let out = serve(&c, &mut svc, request(id));
            assert!(out.result.is_ok(), "request {id}: {:?}", out.result);
            t0.elapsed()
        })
        .collect();
    walls.sort();
    let median = walls[walls.len() / 2];
    assert!(
        median < Duration::from_millis(1),
        "median of 200 five-await requests is {median:?}"
    );
    c.shutdown();
}

#[test]
fn a_crashed_distiller_degrades_the_answer_in_bounded_time() {
    let c = RtCluster::start(
        RtConfig::new()
            .with_time_scale(0.02)
            .with_report_period(Duration::from_millis(10))
            .with_beacon_period(Duration::from_millis(10))
            .with_restart_on_crash(false),
    );
    c.add_workers("origin", 1, || {
        Box::new(OriginServer::new().with_penalty_scale(0.02))
    });
    c.add_workers("distiller/html", 1, || {
        Box::new(TaccWorkerHost::transformer(
            Box::new(HtmlMunger::new()),
            BTreeMap::new(),
        ))
    });
    assert!(c.crash_worker("distiller/html"));
    let reaped = Instant::now() + Duration::from_secs(5);
    while c.workers_of("distiller/html") > 0 && Instant::now() < reaped {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(c.workers_of("distiller/html"), 0, "distiller is down");
    // No manager either: nobody spawns a distiller on demand or sweeps
    // the stranded dispatch, so only the body's give-up ends the stage.
    c.kill_manager();

    let give_up = Duration::from_millis(300);
    let svc = PipelineService::new(PipelineConfig {
        stages: vec!["html".into()],
        aggregator: None,
        give_up,
        hedge_after: Duration::from_secs(60),
        cache_final: false,
    });
    let job = PipelineJob {
        sources: vec![FetchRequest {
            url: "http://engine0/results?q=1".into(),
            mime: MimeType::Html,
            size: 16 * 1024,
        }],
        args: BTreeMap::new(),
    };
    let mut req = request(1);
    req.body = Some(Arc::new(job));
    let t0 = Instant::now();
    let (outcome, served) = serve_on_thread(&c, svc, req);
    let out = outcome
        .recv_timeout(Duration::from_secs(5))
        .expect("serve never returned with its distiller down");
    served.join().expect("serve thread");
    // The undistilled object is served, flagged degraded.
    assert!(out.result.is_ok(), "degraded, not failed: {:?}", out.result);
    assert!(out.degraded);
    assert_eq!(out.stats.get("tacc.pipe_gave_up"), Some(&1));
    assert!(t0.elapsed() >= give_up, "gave up early: {:?}", t0.elapsed());
    c.shutdown();
}

#[test]
fn shutdown_answers_a_stranded_dispatch_with_a_typed_failure() {
    let (poisoned_tx, poisoned_rx) = mpsc::channel();
    let c = RtCluster::start(
        RtConfig::new()
            .with_time_scale(1.0)
            .with_restart_on_crash(false),
    );
    c.add_workers("w", 1, move || {
        Box::new(Slept {
            service: Duration::ZERO,
            poisoned: Some(poisoned_tx.clone()),
        })
    });
    // The worker dies holding the job: nobody will ever answer it, and
    // the 60 s dispatch timeout is far away.
    let (outcome, served) = serve_on_thread(
        &c,
        Sequential {
            awaits: 1,
            tag: "poison",
        },
        request(1),
    );
    poisoned_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("worker reached the poison");
    assert!(
        outcome.recv_timeout(Duration::from_millis(50)).is_err(),
        "a crashed worker must not reply"
    );
    c.shutdown();
    let out = outcome
        .recv_timeout(Duration::from_secs(5))
        .expect("serve still blocked after shutdown");
    served.join().expect("serve thread");
    assert_eq!(out.result.err().as_deref(), Some("cluster is shut down"));
}

#[test]
fn a_redispatch_on_a_reply_finds_its_worker_idle() {
    let c = cluster(Duration::from_millis(10));
    let mut svc = Sequential {
        awaits: 2,
        tag: "x",
    };
    for id in 0..3 {
        let out = serve(&c, &mut svc, request(id));
        assert!(out.result.is_ok(), "request {id}: {:?}", out.result);
    }
    // The second await is dispatched the moment the first reply lands:
    // the job has left the only worker's gauge by then.
    assert_eq!(c.counter("stub.placed_busy"), 0);
    c.shutdown();
}

#[test]
fn shutdown_leaves_a_held_settlement_to_its_waiter() {
    let c = cluster(Duration::from_millis(50));
    let q = Completions::default();
    c.submit_tagged("w", "op", Blob::payload(1, "x"), None, 1, &q);
    // Shutdown joins the worker, which sleeps to the job's deadline, so
    // it sweeps with the settlement handed to `q` and not yet taken.
    let c2 = Arc::clone(&c);
    std::thread::spawn(move || c2.shutdown())
        .join()
        .expect("shutdown");
    let (token, result) = q
        .recv(Some(Instant::now() + Duration::from_secs(5)))
        .expect("the held job is answered");
    assert_eq!(token, 1);
    assert!(matches!(result, JobResult::Ok(_)), "{result:?}");
}

#[test]
fn a_tagged_submit_reports_every_refusal_on_the_queue() {
    let c = cluster(Duration::ZERO);
    let q = Completions::default();
    c.submit_tagged("ghost", "op", Blob::payload(1, "x"), None, 7, &q);
    c.submit_tagged("w", "op", Blob::payload(1, "x"), None, 8, &q);
    c.shutdown();
    c.submit_tagged("w", "op", Blob::payload(1, "x"), None, 9, &q);
    let mut got: Vec<(u64, bool)> = (0..3)
        .map(|_| {
            let (token, result) = q
                .recv(Some(Instant::now() + Duration::from_secs(5)))
                .expect("one result per submit");
            (token, matches!(result, JobResult::Ok(_)))
        })
        .collect();
    got.sort();
    assert_eq!(got, vec![(7, false), (8, true), (9, false)]);
    assert!(
        q.recv(Some(Instant::now())).is_none(),
        "exactly one result per submit"
    );
}
