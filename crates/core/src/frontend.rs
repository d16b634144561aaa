//! The front-end framework (§2.2.1, §3.1.1): request shepherding over a
//! bounded thread pool, per-request service bodies, and process-peer
//! supervision of the manager.
//!
//! "The static partitioning of functionality between front ends and
//! workers reflects our desire to keep workers as simple as possible, by
//! localizing in the front ends the control decisions associated with
//! satisfying user requests." A service plugs in an [`AsyncService`]:
//! one `async fn` body per request, which the front end hosts directly.
//! Each framework event for a request — a worker reply, a dispatch given
//! up on, a compute burst or nap finished — fills the token its body
//! awaits, polls the body once and drains what the poll queued: stats
//! into the hub first, then [`Action`]s in emission order. The framework
//! handles everything else: thread accounting, per-request TCP/kernel
//! overhead, tenant admission, dispatch timeouts and retries (via the
//! embedded [`ManagerStub`]), manager registration and manager restart.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Arc;
use std::task::{Context, Waker};
use std::time::Duration;

use sns_sim::engine::{Component, Ctx};
use sns_sim::time::SimTime;
use sns_sim::{ComponentId, GroupId};

use crate::exec::service::{AsyncService, EventOutcome, Hints, SvcHandle, SvcOp};
use crate::exec::BoxFut;
use crate::monitor::MonitorEvent;
use crate::msg::{ClientRequest, ClientResponse, JobResult, ProfileData, SnsMsg};
use crate::stub::{ManagerStub, TimeoutVerdict};
use crate::trace;
use crate::{Payload, SnsConfig, WorkerClass};

/// What a service body can ask the framework to do (queued through its
/// [`SvcHandle`]; the tag is the token the body awaits).
#[derive(Debug)]
pub enum Action {
    /// Dispatch a job to the best worker of a class (lottery + retries).
    Dispatch {
        /// The awaiting body's token (unique per request).
        tag: u64,
        /// Worker class.
        class: WorkerClass,
        /// Worker operation.
        op: &'static str,
        /// Input payload.
        input: Payload,
        /// Profile delivered with the job (§2.3).
        profile: Option<ProfileData>,
    },
    /// Dispatch a job to one specific worker (cache-ring routing,
    /// partition fan-out). No automatic retry.
    DispatchTo {
        /// Correlation tag.
        tag: u64,
        /// Target worker.
        worker: ComponentId,
        /// Worker class (for bookkeeping).
        class: WorkerClass,
        /// Worker operation.
        op: &'static str,
        /// Input payload.
        input: Payload,
        /// Profile delivered with the job.
        profile: Option<ProfileData>,
    },
    /// Burn local front-end CPU (page assembly, parsing).
    Compute {
        /// Correlation tag.
        tag: u64,
        /// CPU time.
        cost: Duration,
    },
    /// Sleep without holding CPU (bodies' give-up and hedge deadlines;
    /// see [`SvcHandle::nap`]).
    Nap {
        /// Correlation tag.
        tag: u64,
        /// How long to sleep.
        delay: Duration,
    },
    /// Finish the request.
    Reply(Result<Payload, String>),
    /// Flag the eventual response as degraded (approximate answer,
    /// §3.1.8).
    MarkDegraded,
}

/// Builds a replacement manager with the given incarnation (front ends
/// are the manager's process peers, §3.1.3).
pub type ManagerFactory = Box<dyn FnMut(u64) -> Box<dyn Component<SnsMsg>> + Send>;

/// Front-end wiring configuration.
pub struct FeConfig {
    /// Layer knobs.
    pub sns: SnsConfig,
    /// Beacon multicast group.
    pub beacon_group: GroupId,
    /// Monitor multicast group.
    pub monitor_group: GroupId,
    /// Factory to restart a dead manager; `None` disables supervision.
    pub manager_factory: Option<ManagerFactory>,
}

// Timer-token spaces.
const KIND_SHIFT: u32 = 56;
const K_HEALTH: u64 = 1 << KIND_SHIFT;
const K_OVERHEAD: u64 = 2 << KIND_SHIFT;
const K_COMPUTE: u64 = 3 << KIND_SHIFT;
const K_DISPATCH: u64 = 4 << KIND_SHIFT;
const K_NAP: u64 = 5 << KIND_SHIFT;
const ID_MASK: u64 = (1 << KIND_SHIFT) - 1;

/// One request holding a front-end thread.
struct Request {
    request: Arc<ClientRequest>,
    client: ComponentId,
    /// When the framework started processing.
    started: SimTime,
    /// Head-sampling decision, made once on arrival and gating every
    /// span of this request (see `crate::trace::Sampling`); cleared
    /// when tenant admission sheds the request.
    sampled: bool,
    /// Set by [`Action::MarkDegraded`].
    degraded: bool,
    svc: SvcHandle,
    /// The service body; spawned when the per-request overhead burst
    /// ends, dropped when it completes.
    body: Option<BoxFut>,
}

/// The front-end component.
pub struct FrontEnd {
    cfg: FeConfig,
    service: Box<dyn AsyncService>,
    stub: ManagerStub,
    /// The classes bodies read membership of, and the snapshot they
    /// read, rebuilt only when the stub's hints version moves.
    hint_classes: Vec<WorkerClass>,
    hints: Arc<Hints>,
    hints_version: Option<u64>,
    /// Op buffer lent to every polled body and drained after the poll.
    ops: Vec<SvcOp>,
    requests: BTreeMap<u64, Request>,
    /// job id → (request, token).
    jobs: BTreeMap<u64, (u64, u64)>,
    /// compute id → (request, token, when requested).
    computes: BTreeMap<u64, (u64, u64, SimTime)>,
    /// nap id → (request, token).
    naps: BTreeMap<u64, (u64, u64)>,
    next_nap: u64,
    accept_queue: VecDeque<(ComponentId, Arc<ClientRequest>)>,
    active: u32,
    next_req: u64,
    next_compute: u64,
    registered_incarnation: Option<u64>,
    restart_pending: bool,
    /// A dispatch of the body being drained was refused admission and
    /// its token filled: poll the body again once the drain is done.
    refused: bool,
}

impl FrontEnd {
    /// Creates a front end hosting `service`'s request bodies.
    pub fn new(service: Box<dyn AsyncService>, cfg: FeConfig) -> Self {
        let stub = ManagerStub::new(cfg.sns.clone());
        FrontEnd {
            cfg,
            hint_classes: service.hint_classes(),
            service,
            stub,
            hints: Arc::default(),
            hints_version: None,
            ops: Vec::new(),
            requests: BTreeMap::new(),
            jobs: BTreeMap::new(),
            computes: BTreeMap::new(),
            naps: BTreeMap::new(),
            next_nap: 1,
            accept_queue: VecDeque::new(),
            active: 0,
            next_req: 1,
            next_compute: 1,
            registered_incarnation: None,
            restart_pending: false,
            refused: false,
        }
    }

    /// Disables the §4.5 delta correction (ablation experiments).
    pub fn set_delta_correction(&mut self, on: bool) {
        self.stub.set_delta_correction(on);
    }

    /// Bills dispatches of `class` to `tenant` for admission.
    pub fn set_tenant(&mut self, class: &str, tenant: &'static str) {
        self.stub.set_tenant(WorkerClass::new(class), tenant);
    }

    /// Installs `tenant`'s overload policy: a dispatch past its quota
    /// under [`crate::OverloadPolicy::Drop`] resolves as failed with
    /// `"tenant over quota"`, the result rt's submit path delivers.
    pub fn set_tenant_policy(&mut self, tenant: &'static str, policy: crate::TenantPolicy) {
        self.stub.set_tenant_policy(tenant, policy);
    }

    /// The span context dispatches of `req_id` carry: its request span
    /// as parent and its stored head-sampling decision.
    fn span_ctx(&self, ctx: &mut Ctx<'_, SnsMsg>, req_id: u64) -> trace::SpanCtx {
        let sampled = self
            .requests
            .get(&req_id)
            .map(|req| req.sampled)
            .unwrap_or(true);
        trace::SpanCtx::under(trace::request_span_id(ctx.me(), req_id), sampled)
    }

    fn begin(&mut self, ctx: &mut Ctx<'_, SnsMsg>, client: ComponentId, r: Arc<ClientRequest>) {
        let req_id = self.next_req;
        self.next_req += 1;
        self.active += 1;
        let now = ctx.now();
        // The head-sampling decision: made exactly once, here, where the
        // request enters the system; everything downstream (overhead,
        // compute, dispatch, worker queue/service spans) inherits it.
        let sampled = ctx.tracer().decide(req_id);
        self.requests.insert(
            req_id,
            Request {
                request: r,
                client,
                started: now,
                sampled,
                degraded: false,
                svc: SvcHandle::new_request(),
                body: None,
            },
        );
        // Per-request TCP/kernel overhead occupies the FE's CPU first
        // (the §4.4 state-management cost).
        ctx.exec_cpu(self.cfg.sns.fe_request_overhead, K_OVERHEAD | req_id);
    }

    /// The overhead burst is over: spawn the request's body and run it
    /// up to its first await.
    fn spawn_body(&mut self, ctx: &mut Ctx<'_, SnsMsg>, req_id: u64) {
        let Some(req) = self.requests.get_mut(&req_id) else {
            return;
        };
        req.body = Some(self.service.handle(req.request.clone(), req.svc.clone()));
        self.poll(ctx, req_id);
    }

    /// Resolves the token a request's body awaits and polls the body —
    /// unless nothing awaits it any more (a fire-and-forget dispatch's
    /// late reply, a race loser's event): then nothing it waits on
    /// changed and the body is not polled.
    fn deliver(
        &mut self,
        ctx: &mut Ctx<'_, SnsMsg>,
        req_id: u64,
        token: u64,
        outcome: EventOutcome,
    ) {
        let Some(req) = self.requests.get(&req_id) else {
            return;
        };
        if req.svc.fill(token, outcome) {
            self.poll(ctx, req_id);
        }
    }

    /// Polls a request's body once and drains what it queued: stats
    /// straight into the hub, then actions in emission order. A body
    /// that finishes without replying gets the error reply.
    fn poll(&mut self, ctx: &mut Ctx<'_, SnsMsg>, req_id: u64) {
        let version = self.stub.hints_version();
        if self.hints_version != Some(version) {
            self.hints_version = Some(version);
            let snapshot = self.hint_classes.iter().map(|c| {
                let mut live = self.stub.workers_of(c);
                live.sort();
                (*c, live)
            });
            self.hints = Arc::new(snapshot.collect());
        }
        let Some(req) = self.requests.get_mut(&req_id) else {
            return;
        };
        let Some(body) = req.body.as_mut() else {
            return;
        };
        let mut ops = std::mem::take(&mut self.ops);
        req.svc.sync(ctx.now(), &self.hints, &mut ops);
        let done = body
            .as_mut()
            .poll(&mut Context::from_waker(Waker::noop()))
            .is_ready();
        req.svc.take_ops(&mut ops);
        let unanswered = done && !req.svc.replied();
        if done {
            req.body = None;
        }
        let now = ctx.now();
        for op in &ops {
            match *op {
                SvcOp::Incr(key, n) => ctx.stats().incr(key, n),
                SvcOp::Observe(key, v) => ctx.stats().observe(key, v),
                SvcOp::Sample(key, v) => ctx.stats().sample(key, now, v),
                SvcOp::Act(_) => {}
            }
        }
        if unanswered {
            ctx.stats().incr("exec.body_no_reply", 1);
        }
        for op in ops.drain(..) {
            if let SvcOp::Act(action) = op {
                self.apply(ctx, req_id, action);
            }
        }
        if unanswered {
            let why = "service body returned without replying";
            self.apply(ctx, req_id, Action::Reply(Err(why.into())));
        }
        self.ops = ops;
        // A refused dispatch's token was filled mid-drain; the body sees
        // it now, after every action of this poll applied in order.
        if std::mem::take(&mut self.refused) {
            self.poll(ctx, req_id);
        }
    }

    fn apply(&mut self, ctx: &mut Ctx<'_, SnsMsg>, req_id: u64, action: Action) {
        if !self.requests.contains_key(&req_id) {
            // A Reply already finished this request; drop the rest.
            return;
        }
        match action {
            Action::Dispatch {
                tag,
                class,
                op,
                input,
                profile,
            } => {
                // Tenant admission, as on rt's submit path; a `Degrade`
                // verdict dispatches. A shed request records no further
                // span, no `req` span either, as a refused rt submit
                // opens none.
                if self.stub.admit(ctx, &class) == crate::Admission::Drop {
                    if let Some(req) = self.requests.get_mut(&req_id) {
                        req.sampled = false;
                        let over = JobResult::Failed("tenant over quota".into());
                        self.refused |= req.svc.fill(tag, EventOutcome::Reply(over));
                    }
                    return;
                }
                let span = self.span_ctx(ctx, req_id);
                let job_id = self.stub.dispatch(ctx, class, op, input, profile, span);
                self.jobs.insert(job_id, (req_id, tag));
                ctx.timer(self.cfg.sns.dispatch_timeout, K_DISPATCH | job_id);
            }
            Action::DispatchTo {
                tag,
                worker,
                class,
                op,
                input,
                profile,
            } => {
                let span = self.span_ctx(ctx, req_id);
                let job_id = self
                    .stub
                    .dispatch_to(ctx, worker, class, op, input, profile, span);
                self.jobs.insert(job_id, (req_id, tag));
                ctx.timer(self.cfg.sns.dispatch_timeout, K_DISPATCH | job_id);
            }
            Action::Compute { tag, cost } => {
                let cid = self.next_compute;
                self.next_compute += 1;
                self.computes.insert(cid, (req_id, tag, ctx.now()));
                ctx.exec_cpu(cost, K_COMPUTE | cid);
            }
            Action::Nap { tag, delay } => {
                let nid = self.next_nap;
                self.next_nap += 1;
                self.naps.insert(nid, (req_id, tag));
                ctx.timer(delay, K_NAP | nid);
            }
            Action::MarkDegraded => {
                if let Some(req) = self.requests.get_mut(&req_id) {
                    req.degraded = true;
                }
            }
            Action::Reply(result) => {
                let Some(req) = self.requests.remove(&req_id) else {
                    return;
                };
                let now = ctx.now();
                if req.sampled && ctx.tracer().is_enabled() {
                    let me = ctx.me();
                    let bytes = result.as_ref().map(|p| p.wire_size()).unwrap_or(0);
                    ctx.tracer().record(trace::span(
                        trace::request_span_id(me, req_id),
                        None,
                        trace::REQUEST,
                        trace::CAT_FE,
                        me,
                        "",
                        req.started,
                        now,
                        bytes,
                        result.is_ok(),
                    ));
                }
                let latency = now.since(req.started);
                ctx.stats().observe("fe.latency_s", latency.as_secs_f64());
                ctx.stats().incr("fe.replies", 1);
                if req.degraded {
                    ctx.stats().incr("fe.degraded_replies", 1);
                }
                if result.is_err() {
                    ctx.stats().incr("fe.error_replies", 1);
                }
                ctx.send(
                    req.client,
                    SnsMsg::Response(Arc::new(ClientResponse {
                        id: req.request.id,
                        result,
                        degraded: req.degraded,
                    })),
                );
                self.active -= 1;
                // Free thread: admit a queued connection.
                if let Some((client, r)) = self.accept_queue.pop_front() {
                    self.begin(ctx, client, r);
                }
            }
        }
    }

    fn health_check(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
        let now = ctx.now();
        let quiet = match self.stub.last_beacon() {
            None => false, // never seen one; bootstrap, nothing to restart
            Some(t) => now.since(t) > self.cfg.sns.beacon_loss_timeout,
        };
        if quiet && !self.restart_pending {
            if let Some(factory) = self.cfg.manager_factory.as_mut() {
                // Beacons stopped: the manager is presumed dead; restart
                // it with a fresh incarnation (process peers, §3.1.3).
                let inc = self.stub.incarnation() + 1;
                let comp = factory(inc);
                let node = ctx.my_node();
                if ctx.spawn(node, comp, "manager").is_some() {
                    self.restart_pending = true;
                    ctx.stats().incr("fe.manager_restarts", 1);
                    let me = ctx.me();
                    ctx.multicast(
                        self.cfg.monitor_group,
                        SnsMsg::Monitor(Arc::new(MonitorEvent::PeerRestarted {
                            by: me,
                            kind: "manager",
                        })),
                    );
                }
            }
        }
        let me = ctx.me();
        let load = f64::from(self.active);
        ctx.multicast(
            self.cfg.monitor_group,
            SnsMsg::Monitor(Arc::new(MonitorEvent::Heartbeat {
                who: me,
                kind: "frontend",
                load,
            })),
        );
        ctx.timer(self.cfg.sns.beacon_period, K_HEALTH);
    }
}

impl Component<SnsMsg> for FrontEnd {
    fn on_start(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
        self.stub.set_tracing(ctx.tracer().is_enabled());
        self.stub.set_sampling(ctx.tracer().sampling());
        ctx.join(self.cfg.beacon_group);
        let me = ctx.me();
        let node = ctx.my_node();
        ctx.multicast(
            self.cfg.monitor_group,
            SnsMsg::Monitor(Arc::new(MonitorEvent::Started {
                who: me,
                kind: "frontend",
                node,
            })),
        );
        ctx.timer(self.cfg.sns.beacon_period, K_HEALTH);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SnsMsg>, from: ComponentId, msg: SnsMsg) {
        match msg {
            SnsMsg::Request(r) => {
                ctx.stats().incr("fe.requests", 1);
                if self.active >= self.cfg.sns.fe_threads {
                    ctx.stats().incr("fe.queued", 1);
                    self.accept_queue.push_back((from, r));
                } else {
                    self.begin(ctx, from, r);
                }
            }
            SnsMsg::Beacon(b) => {
                let new_manager = self.stub.on_beacon(&b);
                self.restart_pending = false;
                if new_manager || self.registered_incarnation != Some(b.incarnation) {
                    self.registered_incarnation = Some(b.incarnation);
                    let me = ctx.me();
                    let node = ctx.my_node();
                    ctx.send(b.manager, SnsMsg::RegisterFrontEnd { fe: me, node });
                }
                self.stub.flush_pending(ctx);
            }
            SnsMsg::WorkResponse { job_id, result, .. } => {
                if self.stub.on_response(ctx, job_id).is_none() {
                    return; // late duplicate after timeout
                }
                if let Some((req_id, token)) = self.jobs.remove(&job_id) {
                    self.deliver(ctx, req_id, token, EventOutcome::Reply(result));
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SnsMsg>, token: u64) {
        let kind = token & !ID_MASK;
        let id = token & ID_MASK;
        match kind {
            K_HEALTH => self.health_check(ctx),
            K_DISPATCH => match self.stub.on_timeout(ctx, id) {
                TimeoutVerdict::Retried => {
                    ctx.timer(self.cfg.sns.dispatch_timeout, K_DISPATCH | id);
                }
                TimeoutVerdict::GaveUp(class) => {
                    if let Some((req_id, token)) = self.jobs.remove(&id) {
                        self.deliver(ctx, req_id, token, EventOutcome::Failed(class));
                    }
                }
                TimeoutVerdict::Unknown => {}
            },
            K_NAP => {
                if let Some((req_id, token)) = self.naps.remove(&id) {
                    self.deliver(ctx, req_id, token, EventOutcome::Done);
                }
            }
            _ => {}
        }
    }

    fn on_cpu_done(&mut self, ctx: &mut Ctx<'_, SnsMsg>, token: u64) {
        let kind = token & !ID_MASK;
        let id = token & ID_MASK;
        match kind {
            K_OVERHEAD => {
                if ctx.tracer().is_enabled() {
                    if let Some(req) = self.requests.get(&id).filter(|req| req.sampled) {
                        let me = ctx.me();
                        ctx.tracer().record(trace::span(
                            trace::overhead_span_id(me, id),
                            Some(trace::request_span_id(me, id)),
                            trace::OVERHEAD,
                            trace::CAT_FE,
                            me,
                            "",
                            req.started,
                            ctx.now(),
                            0,
                            true,
                        ));
                    }
                }
                self.spawn_body(ctx, id);
            }
            K_COMPUTE => {
                if let Some((req_id, token, started)) = self.computes.remove(&id) {
                    let sampled = self
                        .requests
                        .get(&req_id)
                        .map(|req| req.sampled)
                        .unwrap_or(false);
                    if sampled && ctx.tracer().is_enabled() {
                        let me = ctx.me();
                        ctx.tracer().record(trace::span(
                            trace::compute_span_id(me, id),
                            Some(trace::request_span_id(me, req_id)),
                            trace::COMPUTE,
                            trace::CAT_FE,
                            me,
                            "",
                            started,
                            ctx.now(),
                            0,
                            true,
                        ));
                    }
                    self.deliver(ctx, req_id, token, EventOutcome::Done);
                }
            }
            _ => {}
        }
    }

    fn kind(&self) -> &'static str {
        "frontend"
    }
}
