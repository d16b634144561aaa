//! The worker stub (§2.2.5): the narrow interface between
//! service-specific worker code and the SNS layer.
//!
//! "The worker stub hides fault tolerance, load balancing, and
//! multithreading considerations from the worker code, which … need not
//! be thread-safe, and can, in fact, crash without taking the system
//! down." The stub queues incoming work, runs the wrapped
//! [`WorkerLogic`] one job at a time (or with bounded concurrency for
//! I/O-bound workers like caches and the origin model), reports its queue
//! length to the manager every `report_period` (§3.1.2), registers itself
//! with every new manager incarnation it observes (§3.1.3 soft-state
//! recovery), and turns logic panics ([`WorkerError::Crash`]) into a
//! clean process death that the manager's process-peer machinery
//! handles.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use sns_sim::engine::{Component, Ctx};
use sns_sim::rng::Pcg32;
use sns_sim::time::SimTime;
use sns_sim::{ComponentId, GroupId};

use crate::idring::IdRing;
use crate::monitor::MonitorEvent;
use crate::msg::{Job, JobResult, SnsMsg};
use crate::trace;
use crate::{Payload, WorkerClass};

/// How a worker job can fail.
#[derive(Debug, Clone)]
pub enum WorkerError {
    /// The worker process crashes (pathological input, §3.1.6). The stub
    /// exits without replying; the SNS layer detects and recovers.
    Crash,
    /// The job fails but the worker survives; the front end's service
    /// logic picks a fallback (§2.2.4).
    Failed(String),
}

/// Service-specific worker code. Implementations are intentionally
/// ignorant of queueing, registration, load reporting and fault handling.
pub trait WorkerLogic: Send {
    /// This worker's class (unit of replication and load balancing).
    fn class(&self) -> WorkerClass;

    /// Predicted service time for a job (drives the simulation's CPU/IO
    /// occupancy; real workers would simply take this long).
    fn service_time(&mut self, job: &Job, now: SimTime, rng: &mut Pcg32) -> Duration;

    /// Performs the job. The simulator calls it once the service time
    /// has elapsed and it takes no virtual time; the threaded runtime
    /// runs it inside the service time, so a job holds its worker for
    /// whichever of the two is longer.
    fn process(&mut self, job: &Job, now: SimTime, rng: &mut Pcg32)
        -> Result<Payload, WorkerError>;

    /// Whether service time occupies a CPU core (distillers) or just
    /// elapses (network/disk-bound caches, origin fetches).
    fn cpu_bound(&self) -> bool {
        true
    }

    /// Maximum jobs in service simultaneously.
    fn concurrency(&self) -> u32 {
        1
    }
}

/// Stub wiring configuration.
#[derive(Debug, Clone)]
pub struct WorkerStubConfig {
    /// Beacon multicast group (manager discovery).
    pub beacon_group: GroupId,
    /// Monitor multicast group.
    pub monitor_group: GroupId,
    /// Load-report period (paper: 500 ms).
    pub report_period: Duration,
    /// Report queue length "optionally weighted by the expected cost of
    /// distilling each item" (§3.1.2 footnote 2): when set, the reported
    /// load is the queue's estimated total service time in units of this
    /// duration, instead of a plain item count.
    pub cost_weight_unit: Option<Duration>,
}

/// The stub component wrapping a [`WorkerLogic`].
pub struct WorkerStub {
    logic: Box<dyn WorkerLogic>,
    cfg: WorkerStubConfig,
    /// Queued jobs: (job, estimated cost, when enqueued).
    queue: VecDeque<(Arc<Job>, Duration, SimTime)>,
    /// Jobs in service: token → (job, estimated cost, service start).
    in_service: IdRing<(Arc<Job>, Duration, SimTime)>,
    next_token: u64,
    manager: Option<(ComponentId, u64)>,
    draining: bool,
    jobs_done: u64,
    /// Cached interned name of this stub's qlen series, built on the
    /// first load report so the periodic path never allocates.
    qlen_key: Option<sns_sim::MetricKey>,
}

impl WorkerStub {
    /// Timer token reserved for the periodic load report.
    const REPORT: u64 = 0;

    /// Wraps worker logic in a stub.
    pub fn new(logic: Box<dyn WorkerLogic>, cfg: WorkerStubConfig) -> Self {
        WorkerStub {
            logic,
            cfg,
            queue: VecDeque::new(),
            in_service: IdRing::new(),
            next_token: 1,
            manager: None,
            draining: false,
            jobs_done: 0,
            qlen_key: None,
        }
    }

    /// Current queue length (queued + in service), the paper's load
    /// metric; cost-weighted when configured (footnote 2).
    pub fn qlen(&self) -> u32 {
        match self.cfg.cost_weight_unit {
            None => (self.queue.len() + self.in_service.len()) as u32,
            Some(unit) => {
                let total: Duration = self
                    .queue
                    .iter()
                    .map(|(_, c, _)| *c)
                    .chain(self.in_service.values().map(|(_, c, _)| *c))
                    .sum();
                (total.as_secs_f64() / unit.as_secs_f64().max(1e-9)).ceil() as u32
            }
        }
    }

    fn on_overflow_node(&self, ctx: &Ctx<'_, SnsMsg>) -> bool {
        ctx.node_tag(ctx.my_node()) == Some("overflow")
    }

    fn register(&mut self, ctx: &mut Ctx<'_, SnsMsg>, manager: ComponentId) {
        let me = ctx.me();
        let node = ctx.my_node();
        let overflow = self.on_overflow_node(ctx);
        ctx.send(
            manager,
            SnsMsg::RegisterWorker {
                worker: me,
                class: self.logic.class(),
                node,
                overflow,
            },
        );
    }

    fn try_start(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
        while (self.in_service.len() as u32) < self.logic.concurrency() {
            let Some((job, est, enqueued)) = self.queue.pop_front() else {
                break;
            };
            let token = self.next_token;
            self.next_token += 1;
            let now = ctx.now();
            if job.sampled && ctx.tracer().is_enabled() {
                let me = ctx.me();
                ctx.tracer().record(trace::span(
                    trace::queue_span_id(me, job.id),
                    Some(trace::job_span_id(job.reply_to, job.id)),
                    trace::QUEUE,
                    trace::CAT_WORKER,
                    me,
                    self.logic.class().name(),
                    enqueued,
                    now,
                    0,
                    true,
                ));
            }
            let d = {
                // Fork the stream: service_time needs &mut logic + rng.
                let mut fork = ctx.rng().fork();
                self.logic.service_time(&job, now, &mut fork)
            };
            if self.logic.cpu_bound() {
                ctx.exec_cpu(d, token);
            } else {
                ctx.timer(d, token);
            }
            self.in_service.insert(token, (job, est, now));
        }
    }

    /// Records the service span for a finished (or crashed) job.
    fn service_span(
        &mut self,
        ctx: &mut Ctx<'_, SnsMsg>,
        job: &Job,
        started: SimTime,
        bytes: u64,
        ok: bool,
    ) {
        if job.sampled && ctx.tracer().is_enabled() {
            let me = ctx.me();
            let now = ctx.now();
            ctx.tracer().record(trace::span(
                trace::service_span_id(me, job.id),
                Some(trace::job_span_id(job.reply_to, job.id)),
                trace::SERVICE,
                trace::CAT_WORKER,
                me,
                self.logic.class().name(),
                started,
                now,
                bytes,
                ok,
            ));
        }
    }

    fn complete(&mut self, ctx: &mut Ctx<'_, SnsMsg>, token: u64) {
        let Some((job, _, started)) = self.in_service.remove(token) else {
            return;
        };
        let now = ctx.now();
        let mut fork = ctx.rng().fork();
        let outcome = self.logic.process(&job, now, &mut fork);
        let me = ctx.me();
        match outcome {
            Ok(payload) => {
                self.jobs_done += 1;
                ctx.stats().incr("worker.jobs_done", 1);
                self.service_span(ctx, &job, started, payload.wire_size(), true);
                ctx.send(
                    job.reply_to,
                    SnsMsg::WorkResponse {
                        job_id: job.id,
                        worker: me,
                        result: JobResult::Ok(payload),
                    },
                );
            }
            Err(WorkerError::Failed(reason)) => {
                ctx.stats().incr("worker.jobs_failed", 1);
                self.service_span(ctx, &job, started, 0, false);
                ctx.send(
                    job.reply_to,
                    SnsMsg::WorkResponse {
                        job_id: job.id,
                        worker: me,
                        result: JobResult::Failed(reason),
                    },
                );
            }
            Err(WorkerError::Crash) => {
                // The worker process dies mid-job: no reply, no cleanup.
                // Front-end timeouts and the manager's broken-connection
                // detection recover (§3.1.3).
                ctx.stats().incr("worker.crashes", 1);
                self.service_span(ctx, &job, started, 0, false);
                ctx.multicast(
                    self.cfg.monitor_group,
                    SnsMsg::Monitor(Arc::new(MonitorEvent::WorkerCrashed {
                        worker: me,
                        class: self.logic.class(),
                    })),
                );
                ctx.exit();
                return;
            }
        }
        self.try_start(ctx);
        self.maybe_finish_drain(ctx);
    }

    fn maybe_finish_drain(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
        if self.draining && self.queue.is_empty() && self.in_service.is_empty() {
            if let Some((mgr, _)) = self.manager {
                let me = ctx.me();
                ctx.send(mgr, SnsMsg::DeregisterWorker { worker: me });
            }
            ctx.exit();
        }
    }
}

impl Component<SnsMsg> for WorkerStub {
    fn on_start(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
        ctx.join(self.cfg.beacon_group);
        // Stagger the first report by a random fraction of the period so
        // co-started workers do not synchronise their announcements into
        // bursts that overflow the manager's ingress link.
        let jitter = self.cfg.report_period.mul_f64(ctx.rng().f64());
        ctx.timer(self.cfg.report_period + jitter, Self::REPORT);
        let me = ctx.me();
        let node = ctx.my_node();
        ctx.multicast(
            self.cfg.monitor_group,
            SnsMsg::Monitor(Arc::new(MonitorEvent::Started {
                who: me,
                kind: "worker",
                node,
            })),
        );
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SnsMsg>, _from: ComponentId, msg: SnsMsg) {
        match msg {
            SnsMsg::Beacon(b) => {
                let fresh = match self.manager {
                    None => true,
                    Some((id, inc)) => id != b.manager || inc != b.incarnation,
                };
                if fresh {
                    // New manager (first sight or restarted): re-register
                    // so the manager can rebuild its soft state (§3.1.3).
                    self.manager = Some((b.manager, b.incarnation));
                    self.register(ctx, b.manager);
                }
            }
            SnsMsg::WorkRequest(job) => {
                if self.draining {
                    let me = ctx.me();
                    ctx.send(
                        job.reply_to,
                        SnsMsg::WorkResponse {
                            job_id: job.id,
                            worker: me,
                            result: JobResult::Failed("worker draining".into()),
                        },
                    );
                    return;
                }
                // Estimate the job's cost for weighted load reporting
                // (a deterministic mean-cost estimate, not the draw the
                // job will actually take).
                let est = {
                    let now = ctx.now();
                    let mut fork = ctx.rng().fork();
                    self.logic.service_time(&job, now, &mut fork)
                };
                self.queue.push_back((job, est, ctx.now()));
                self.try_start(ctx);
            }
            SnsMsg::Shutdown => {
                self.draining = true;
                self.maybe_finish_drain(ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SnsMsg>, token: u64) {
        if token == Self::REPORT {
            if let Some((mgr, _)) = self.manager {
                let me = ctx.me();
                let qlen = self.qlen();
                let now = ctx.now();
                let class = self.logic.class();
                let key = *self.qlen_key.get_or_insert_with(|| {
                    sns_sim::MetricKey::new(&format!("worker.qlen.{class}.{me}"))
                });
                ctx.stats().sample(key, now, f64::from(qlen));
                // Datagram: load reports are soft state and may be lost
                // under SAN saturation (§4.6).
                ctx.send_datagram(
                    mgr,
                    SnsMsg::LoadReport {
                        worker: me,
                        class: self.logic.class(),
                        qlen,
                    },
                );
            }
            ctx.timer(self.cfg.report_period, Self::REPORT);
            return;
        }
        // Non-CPU-bound job completion.
        self.complete(ctx, token);
    }

    fn on_cpu_done(&mut self, ctx: &mut Ctx<'_, SnsMsg>, token: u64) {
        self.complete(ctx, token);
    }

    fn kind(&self) -> &'static str {
        "worker"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Blob, SnsConfig};
    use sns_sim::engine::{NodeSpec, Sim, SimConfig};
    use sns_sim::network::IdealNetwork;

    /// A trivial CPU-bound worker: 10 ms/job, echoes a half-size blob;
    /// crashes on inputs tagged "poison"; fails on inputs tagged "bad".
    struct Echo;

    impl WorkerLogic for Echo {
        fn class(&self) -> WorkerClass {
            "echo".into()
        }
        fn service_time(&mut self, _job: &Job, _now: SimTime, _rng: &mut Pcg32) -> Duration {
            Duration::from_millis(10)
        }
        fn process(
            &mut self,
            job: &Job,
            _now: SimTime,
            _rng: &mut Pcg32,
        ) -> Result<Payload, WorkerError> {
            let blob = crate::payload_as::<Blob>(&job.input).expect("blob input");
            match blob.tag.as_str() {
                "poison" => Err(WorkerError::Crash),
                "bad" => Err(WorkerError::Failed("bad input".into())),
                _ => Ok(Blob::payload(blob.len / 2, "out")),
            }
        }
    }

    struct Collector {
        stub_target: ComponentId,
        to_send: Vec<&'static str>,
    }

    impl Component<SnsMsg> for Collector {
        fn on_start(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
            let me = ctx.me();
            for (i, tag) in self.to_send.iter().enumerate() {
                let job = Arc::new(Job {
                    id: i as u64,
                    class: "echo".into(),
                    op: "echo",
                    input: Blob::payload(1000, *tag),
                    profile: None,
                    reply_to: me,
                    sampled: true,
                });
                ctx.send(self.stub_target, SnsMsg::WorkRequest(job));
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, SnsMsg>, _: ComponentId, msg: SnsMsg) {
            if let SnsMsg::WorkResponse { result, .. } = msg {
                match result {
                    JobResult::Ok(p) => {
                        ctx.stats().incr("ok", 1);
                        assert_eq!(p.wire_size(), 500);
                    }
                    JobResult::Failed(_) => {
                        ctx.stats().incr("failed", 1);
                    }
                }
            }
        }
    }

    fn harness(tags: Vec<&'static str>) -> Sim<SnsMsg, IdealNetwork> {
        let mut sim: Sim<SnsMsg, IdealNetwork> =
            Sim::new(SimConfig::default(), IdealNetwork::default());
        let n = sim.add_node(NodeSpec::new(2, "dedicated"));
        let g = sim.create_group();
        let mg = sim.create_group();
        let cfg = WorkerStubConfig {
            beacon_group: g,
            monitor_group: mg,
            report_period: SnsConfig::default().report_period,
            cost_weight_unit: None,
        };
        let stub = sim.spawn(n, Box::new(WorkerStub::new(Box::new(Echo), cfg)), "worker");
        sim.spawn(
            n,
            Box::new(Collector {
                stub_target: stub,
                to_send: tags,
            }),
            "collector",
        );
        sim
    }

    #[test]
    fn processes_jobs_serially_and_replies() {
        let mut sim = harness(vec!["a", "b", "c"]);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats().counter("ok"), 3);
        assert_eq!(sim.stats().counter("worker.jobs_done"), 3);
        // Serial 10 ms jobs: the last response lands no earlier than 30 ms.
        assert!(sim.now() >= SimTime::from_millis(30));
    }

    #[test]
    fn failed_jobs_get_failure_replies() {
        let mut sim = harness(vec!["a", "bad", "c"]);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats().counter("ok"), 2);
        assert_eq!(sim.stats().counter("failed"), 1);
    }

    #[test]
    fn cost_weighted_reports_reflect_service_time_not_count() {
        // Footnote 2: load "optionally weighted by the expected cost of
        // distilling each item". Two stubs with identical queues, one
        // counting items and one weighting by cost, report differently.
        let mk = |unit: Option<Duration>| {
            let mut sim: Sim<SnsMsg, IdealNetwork> =
                Sim::new(SimConfig::default(), IdealNetwork::default());
            let n = sim.add_node(NodeSpec::new(1, "dedicated"));
            let g = sim.create_group();
            let mg = sim.create_group();
            let cfg = WorkerStubConfig {
                beacon_group: g,
                monitor_group: mg,
                report_period: SnsConfig::default().report_period,
                cost_weight_unit: unit,
            };
            let stub = sim.spawn(n, Box::new(WorkerStub::new(Box::new(Echo), cfg)), "w");
            // Enqueue 4 jobs (each 10 ms of service) without running.
            for i in 0..4 {
                let job = Arc::new(Job {
                    id: i,
                    class: "echo".into(),
                    op: "echo",
                    input: Blob::payload(1000, "x"),
                    profile: None,
                    reply_to: ComponentId::EXTERNAL,
                    sampled: true,
                });
                sim.inject(stub, SnsMsg::WorkRequest(job));
            }
            sim.run_until(SimTime::from_millis(1));
            sim
        };
        // Counting: 4 items. Weighted by 5 ms units: 4 jobs x 10 ms
        // service = 30 ms waiting + 10 in service => 8 units.
        // (We can't reach the stub directly; the behaviour is covered by
        // qlen() above — construct stubs directly for the arithmetic.)
        let _ = mk(None);
        let mut counting = WorkerStub::new(
            Box::new(Echo),
            WorkerStubConfig {
                beacon_group: GroupId(0),
                monitor_group: GroupId(1),
                report_period: Duration::from_millis(500),
                cost_weight_unit: None,
            },
        );
        let mut weighted = WorkerStub::new(
            Box::new(Echo),
            WorkerStubConfig {
                beacon_group: GroupId(0),
                monitor_group: GroupId(1),
                report_period: Duration::from_millis(500),
                cost_weight_unit: Some(Duration::from_millis(5)),
            },
        );
        for i in 0..4 {
            let job = Arc::new(Job {
                id: i,
                class: "echo".into(),
                op: "echo",
                input: Blob::payload(1000, "x"),
                profile: None,
                reply_to: ComponentId::EXTERNAL,
                sampled: true,
            });
            counting
                .queue
                .push_back((job.clone(), Duration::from_millis(10), SimTime::ZERO));
            weighted
                .queue
                .push_back((job, Duration::from_millis(10), SimTime::ZERO));
        }
        assert_eq!(counting.qlen(), 4, "item count");
        assert_eq!(weighted.qlen(), 8, "40 ms of work in 5 ms units");
    }

    #[test]
    fn poison_input_crashes_worker_without_reply() {
        let mut sim = harness(vec!["a", "poison", "c"]);
        sim.run_until(SimTime::from_secs(1));
        // First job succeeded, poison killed the worker, third never ran.
        assert_eq!(sim.stats().counter("ok"), 1);
        assert_eq!(sim.stats().counter("worker.crashes"), 1);
        assert!(sim.components_of_kind("worker").is_empty());
    }
}
