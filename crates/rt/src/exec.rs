//! Wall-clock driver for async service bodies: the **same futures**
//! the sim front end polls under virtual time, polled here on real
//! threads against a live [`RtCluster`].
//!
//! The split mirrors the sim front end exactly — only the axis changes:
//!
//! | concern            | sim (`FrontEnd`)             | rt (this driver)                 |
//! |--------------------|------------------------------|----------------------------------|
//! | clock              | `ctx.now()` at each poll     | the cluster's clock (span axis)  |
//! | hint snapshot      | stub hints, per version      | class populations, per poll      |
//! | `Action::Dispatch` | framework lottery dispatch   | [`RtCluster::submit_tagged`]     |
//! | `Action::Nap`      | engine timer                 | deadline = completion-queue wait |
//! | wake-up            | engine event delivery        | own deadline: served job or nap  |
//!
//! Every dispatch of one [`serve`] call answers onto that call's own
//! [`Completions`] queue as `(token, JobResult)`, and the front-end
//! thread blocks on the queue until the nearest deadline it knows of —
//! the paper's front-end thread blocked on its workers' replies
//! (§3.1.2). A job served before its service deadline is handed to the
//! queue with that deadline, and this thread settles it itself when the
//! deadline passes, exactly as it ends a nap; only replies that are not
//! served early (a zero-service job, a refusal, a give-up) wake it from
//! another thread. Nothing in between is polled.
//!
//! `Action::DispatchTo` (pinned, cache-ring routing) has no rt
//! analogue — the live cluster routes every job through the shared
//! dispatch plane — so it degrades to a class dispatch: same worker
//! class, plane-chosen replica. Bodies that pin for *affinity* still
//! work; bodies that pin for *correctness* should shard by class.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use sns_core::exec::service::{AsyncService, EventOutcome, SvcHandle, SvcOp};
use sns_core::exec::Executor;
use sns_core::frontend::Action;
use sns_core::msg::ClientRequest;
use sns_core::Payload;
use sns_sim::time::SimTime;
use sns_sim::ComponentId;

use crate::{Completions, RtCluster};

/// The served request's outcome plus the stats the body emitted — its
/// counters, observations and samples (the sim front end writes these
/// into the engine stats hub; here the caller aggregates them).
#[derive(Debug)]
pub struct ServeOutcome {
    /// The body's reply.
    pub result: Result<Payload, String>,
    /// Whether the body flagged the answer as degraded (BASE).
    pub degraded: bool,
    /// Counters the body incremented, by key.
    pub stats: BTreeMap<&'static str, u64>,
    /// Values the body observed (`observe`), in emission order.
    pub observations: Vec<(&'static str, f64)>,
    /// Points the body sampled (`sample`), in emission order, each
    /// stamped with the cluster time of the poll that emitted it.
    pub samples: Vec<(&'static str, SimTime, f64)>,
}

/// Serves one request: polls the body to completion against the live
/// cluster, blocking the calling thread (run one request per thread,
/// like the paper's FE thread pool).
pub fn serve<S: AsyncService>(
    cluster: &RtCluster,
    svc: &mut S,
    request: ClientRequest,
) -> ServeOutcome {
    let handle = SvcHandle::new_request();
    let hint_classes = svc.hint_classes();
    let fut = svc.handle(Arc::new(request), handle.clone());
    let mut exec = Executor::new();
    let root = exec.spawn(fut);

    // The completion queue: every dispatch of this call answers here,
    // tagged with the token its body awaits. The cluster answers each
    // accepted submit exactly once, so `in_flight` counts what may
    // still arrive.
    let completions = Completions::default();
    let mut in_flight = 0usize;
    let mut naps: Vec<(u64, Instant)> = Vec::new();
    let mut stats: BTreeMap<&'static str, u64> = BTreeMap::new();
    let (mut observations, mut samples) = (Vec::new(), Vec::new());
    let mut degraded = false;
    let mut reply: Option<Result<Payload, String>> = None;

    let mut hints = Arc::default();
    let mut ops = Vec::new();
    let stalled = loop {
        // Hint snapshot: rt reports class populations, not identities;
        // synthesise stable ids so membership-sensitive bodies (ring
        // sizing, is-the-profile-db-up checks) see the right count.
        if !hint_classes.is_empty() {
            let synth = hint_classes.iter().map(|c| {
                let n = cluster.workers_of(c.name()) as u64;
                (*c, (0..n).map(ComponentId).collect())
            });
            hints = Arc::new(synth.collect());
        }
        let now = cluster.now();
        handle.sync(now, &hints, &mut ops);
        exec.run_ready();
        handle.take_ops(&mut ops);
        for op in ops.drain(..) {
            match op {
                SvcOp::Incr(key, n) => *stats.entry(key).or_insert(0) += n,
                SvcOp::Observe(key, v) => observations.push((key, v)),
                SvcOp::Sample(key, v) => samples.push((key, now, v)),
                SvcOp::Act(act) => match act {
                    Action::Dispatch {
                        tag,
                        class,
                        op,
                        input,
                        profile,
                    }
                    | Action::DispatchTo {
                        tag,
                        class,
                        op,
                        input,
                        profile,
                        ..
                    } => {
                        cluster.submit_tagged(class.name(), op, input, profile, tag, &completions);
                        in_flight += 1;
                    }
                    Action::Compute { tag, cost } => naps.push((tag, Instant::now() + cost)),
                    Action::Nap { tag, delay } => naps.push((tag, Instant::now() + delay)),
                    Action::MarkDegraded => degraded = true,
                    Action::Reply(r) => reply = reply.or(Some(r)),
                },
            }
        }
        if !exec.is_live(root) {
            break false;
        }

        // Block until the next event: a reply the moment it is sent, a
        // job served early at its service deadline (settled on this
        // thread), or the nearest nap deadline — each met on time, the
        // way a worker meets its service deadline. Filled slots wake
        // the body, so loop straight back into run_ready.
        let next_nap = naps.iter().map(|&(_, deadline)| deadline).min();
        if next_nap.is_none() && in_flight == 0 {
            // Nothing in flight and no timer armed: no event can ever
            // wake the body again.
            break true;
        }
        let mut until = next_nap;
        while let Some((token, result)) = completions.recv(until) {
            in_flight -= 1;
            handle.fill(token, EventOutcome::Reply(result));
            until = Some(Instant::now());
        }
        let now = Instant::now();
        naps.retain(|&(token, deadline)| {
            if deadline <= now {
                handle.fill(token, EventOutcome::Done);
                false
            } else {
                true
            }
        });
    };

    let result = if handle.replied() {
        reply.unwrap_or(Err("reply action lost".into()))
    } else if stalled {
        Err("service body stalled: nothing in flight and no timer armed".into())
    } else {
        *stats.entry("exec.body_no_reply").or_insert(0) += 1;
        Err("service body returned without replying".into())
    };
    ServeOutcome {
        result,
        degraded,
        stats,
        observations,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{read_routes, RtConfig};
    use sns_core::exec::BoxFut;
    use sns_core::msg::{Job, JobResult};
    use sns_core::worker::{WorkerError, WorkerLogic};
    use sns_core::{Blob, WorkerClass};
    use sns_distillers::HtmlMunger;
    use sns_sim::rng::Pcg32;
    use sns_tacc::worker::TaccWorkerHost;
    use sns_tacc::{
        ContentObject, FetchRequest, OriginServer, PipelineConfig, PipelineJob, PipelineService,
    };
    use sns_workload::MimeType;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    /// Class `w`: a fixed service time, real work negligible.
    struct Fixed(Duration);

    impl WorkerLogic for Fixed {
        fn class(&self) -> WorkerClass {
            "w".into()
        }
        fn service_time(&mut self, _: &Job, _: SimTime, _: &mut Pcg32) -> Duration {
            self.0
        }
        fn process(
            &mut self,
            job: &Job,
            _: SimTime,
            _: &mut Pcg32,
        ) -> Result<Payload, WorkerError> {
            Ok(Arc::clone(&job.input))
        }
    }

    /// `0` stages dispatched to class `w` one after another.
    struct Stages(usize);

    impl AsyncService for Stages {
        fn handle(&mut self, _: Arc<ClientRequest>, svc: SvcHandle) -> BoxFut {
            let stages = self.0;
            Box::pin(async move {
                for _ in 0..stages {
                    let reply = svc.dispatch("w".into(), "op", Blob::payload(64, "x"), None);
                    if !matches!(reply.await, EventOutcome::Reply(JobResult::Ok(_))) {
                        return svc.reply(Err("stage failed".into()));
                    }
                }
                svc.reply(Ok(Blob::payload(64, "done")));
            })
        }
    }

    fn fixed(service: Duration) -> Arc<RtCluster> {
        let c = RtCluster::start(RtConfig::new().with_time_scale(1.0));
        c.add_workers("w", 1, move || Box::new(Fixed(service)));
        c
    }

    /// `jobs` accepted and answered, every gauge at zero and no dispatch
    /// state left behind.
    fn assert_closed(c: &RtCluster, jobs: u64) {
        assert_eq!(c.submitted.load(Ordering::Relaxed), jobs, "submitted");
        assert_eq!(c.jobs_done.load(Ordering::Relaxed), jobs, "jobs_done");
        for (id, route) in &read_routes(&c.routes).workers {
            assert_eq!(route.qlen.load(Ordering::Relaxed), 0, "worker {id}");
        }
        c.shards
            .for_each(|i, s| assert!(s.ext.outstanding.is_empty(), "shard {i}"));
    }

    #[test]
    fn a_served_request_posts_nothing_to_the_deadline_set() {
        let c = fixed(Duration::from_millis(2));
        let request = ClientRequest {
            id: 1,
            user: "tester".into(),
            url: "test://stages".into(),
            body: None,
        };
        let out = serve(&c, &mut Stages(3), request);
        assert!(out.result.is_ok(), "{:?}", out.result);
        // Each stage was served early and settled by the waiting thread.
        assert_closed(&c, 3);
        assert_eq!(c.deadlines.queue.lock().seq, 0);
        c.shutdown();
    }

    #[test]
    fn a_dropped_queue_hands_its_held_settlement_back() {
        let c = fixed(Duration::from_millis(20));
        let q = Completions::default();
        c.submit_tagged("w", "op", Blob::payload(64, "x"), None, 1, &q);
        let handed = Instant::now() + Duration::from_secs(5);
        while q.0.lock().held.is_empty() && Instant::now() < handed {
            std::thread::yield_now();
        }
        assert_eq!(q.0.lock().held.len(), 1, "the worker handed it over");
        drop(q);
        std::thread::sleep(Duration::from_millis(40));
        assert_closed(&c, 1);
        c.shutdown();
    }

    #[test]
    fn a_hand_off_to_a_dropped_queue_goes_to_the_deadline_set() {
        let c = fixed(Duration::from_millis(20));
        // The worker is busy with this one, so the tagged job below is
        // served, and handed off, only after its queue is gone.
        let first = c.submit("w", "op", Blob::payload(64, "x"), None);
        let q = Completions::default();
        c.submit_tagged("w", "op", Blob::payload(64, "x"), None, 1, &q);
        drop(q);
        assert!(matches!(
            first.recv_timeout(Duration::from_secs(5)),
            Ok(JobResult::Ok(_))
        ));
        std::thread::sleep(Duration::from_millis(40));
        assert_closed(&c, 2);
        assert_eq!(c.deadlines.queue.lock().seq, 2);
        c.shutdown();
    }

    #[test]
    fn a_queue_dropped_after_shutdown_settles_its_held_job() {
        let c = fixed(Duration::from_millis(50));
        // Shutdown clears the routes; keep the gauges to read them after.
        let gauges: Vec<Arc<AtomicU64>> = read_routes(&c.routes)
            .workers
            .values()
            .map(|r| Arc::clone(&r.qlen))
            .collect();
        let q = Completions::default();
        c.submit_tagged("w", "op", Blob::payload(64, "x"), None, 1, &q);
        // Shutdown joins the worker, which sleeps to the job's deadline
        // after handing the settlement to `q`, and then closes the
        // cluster queue: nobody is left to meet the deadline.
        c.shutdown();
        assert_eq!(q.0.lock().held.len(), 1, "the worker handed it over");
        drop(q);
        assert_closed(&c, 1);
        assert!(gauges.iter().all(|g| g.load(Ordering::Relaxed) == 0));
    }

    #[test]
    fn serve_returns_the_bodys_observations() {
        let c = RtCluster::start(RtConfig::new().with_time_scale(0.0));
        c.add_workers("origin", 1, || Box::new(OriginServer::new()));
        c.add_workers("distiller/html", 1, || {
            Box::new(TaccWorkerHost::transformer(
                Box::new(HtmlMunger::new()),
                BTreeMap::new(),
            ))
        });
        let mut svc = PipelineService::new(PipelineConfig {
            stages: vec!["html".into()],
            aggregator: None,
            give_up: Duration::from_secs(10),
            hedge_after: Duration::from_secs(10),
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
        let out = serve(
            &c,
            &mut svc,
            ClientRequest {
                id: 1,
                user: "tester".into(),
                url: "transend://pipeline?q=1".into(),
                body: Some(Arc::new(job)),
            },
        );
        let reply = out.result.expect("the pipeline answers");
        let bytes = ContentObject::from_payload(&reply)
            .expect("a content object")
            .len();
        assert_eq!(
            out.observations,
            vec![("tacc.pipe_response_bytes", bytes as f64)]
        );
        c.shutdown();
    }
}
