//! The simulator as a [`Cluster`]: wraps the discrete-event engine,
//! a [`Manager`] and a dispatch-stub driver component behind the
//! backend-agnostic trait, so harness code written against
//! `&dyn Cluster` runs unchanged over virtual time.
//!
//! Where `sns_rt::RtCluster` is inherently concurrent, the simulator
//! is single-threaded and only advances when *run*; this wrapper keeps
//! the duality honest by making every trait call a synchronous
//! mutation of engine state ([`Cluster::submit`] queues into a driver
//! component, and the fault verbs are the ones `SimChaos` runs plan
//! steps through) and letting [`Cluster::settle`] be the only place
//! virtual time moves.
//! The trait's `budget` is therefore *virtual* seconds here and wall
//! seconds on rt — the same plan text means the same modelled
//! schedule, which is exactly the parity discipline.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use sns_core::cluster::{Cluster, SettleStats};
use sns_core::invariant::{MonitorLog, MonitorTap};
use sns_core::manager::{Manager, ManagerConfig, WorkerSpec};
use sns_core::msg::{JobResult, SnsMsg};
use sns_core::stub::TimeoutVerdict;
use sns_core::trace::{TraceLog, Tracer};
use sns_core::worker::{WorkerLogic, WorkerStub, WorkerStubConfig};
use sns_core::{intern_class, ManagerStub, Payload, SnsConfig, WorkerClass};
use sns_san::{San, SanConfig};
use sns_sim::engine::{Component, Ctx, NodeSpec, SimConfig};
use sns_sim::{ComponentId, GroupId, MetricKey, SimTime};

use crate::sim::{SimVerbs, SnsSim};

/// How often the driver component drains its submit queue and how
/// finely [`Cluster::settle`] slices its budget.
const PUMP: Duration = Duration::from_millis(100);

/// Timer-token tag for per-job dispatch timeouts (token 0 is the pump).
const K_DISPATCH: u64 = 1 << 63;

/// Node-pool tag the harness places workers on (the injector grammar's
/// `pool` name for this backend).
pub const POOL: &str = "dedicated";

/// Shared cells between [`SimCluster`] (outside the engine) and its
/// driver component (inside it).
#[derive(Default)]
struct DriverShared {
    /// Submits queued by the trait, drained at the next pump tick.
    queue: RefCell<VecDeque<(WorkerClass, String, Payload)>>,
    /// Jobs resolved with `JobResult::Ok` since cluster start.
    answered: Cell<u64>,
    /// Jobs resolved with `JobResult::Failed` since cluster start.
    failed: Cell<u64>,
    /// Dispatch-to-reply latency of every answered job, per class —
    /// the raw material for tenant-isolation p99 checks.
    latencies: RefCell<BTreeMap<WorkerClass, Vec<Duration>>>,
}

/// In-sim component owning the [`ManagerStub`]: ingests beacons,
/// dispatches queued submissions, counts resolutions. This is the
/// front-end role of Figure 1 reduced to its dispatch duties.
struct Driver {
    beacon: GroupId,
    stub: ManagerStub,
    shared: Rc<DriverShared>,
    /// Outstanding dispatches: job id → (class, dispatch time).
    pending: BTreeMap<u64, (WorkerClass, SimTime)>,
    /// Per-dispatch timeout, armed alongside every dispatch so jobs
    /// aimed at a drained or dead worker resolve instead of hanging.
    timeout: Duration,
}

impl Component<SnsMsg> for Driver {
    fn on_start(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
        self.stub.set_tracing(ctx.tracer().is_enabled());
        self.stub.set_sampling(ctx.tracer().sampling());
        ctx.join(self.beacon);
        ctx.timer(PUMP, 0);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SnsMsg>, _from: ComponentId, msg: SnsMsg) {
        match msg {
            SnsMsg::Beacon(b) => {
                self.stub.on_beacon(&b);
                self.stub.flush_pending(ctx);
            }
            SnsMsg::WorkResponse { job_id, result, .. } => {
                // on_response returns None for replies the stub no
                // longer tracks (already timed out); only live ones
                // count toward the settle tally.
                if self.stub.on_response(ctx, job_id).is_none() {
                    return;
                }
                if let Some((class, at)) = self.pending.remove(&job_id) {
                    if matches!(result, JobResult::Ok(_)) {
                        self.shared
                            .latencies
                            .borrow_mut()
                            .entry(class)
                            .or_default()
                            .push(ctx.now() - at);
                    }
                }
                let cell = match result {
                    JobResult::Ok(_) => &self.shared.answered,
                    JobResult::Failed(_) => &self.shared.failed,
                };
                cell.set(cell.get() + 1);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SnsMsg>, token: u64) {
        if token & K_DISPATCH != 0 {
            let id = token & !K_DISPATCH;
            match self.stub.on_timeout(ctx, id) {
                TimeoutVerdict::Retried => ctx.timer(self.timeout, K_DISPATCH | id),
                TimeoutVerdict::GaveUp(_) => {
                    if self.pending.remove(&id).is_some() {
                        self.shared.failed.set(self.shared.failed.get() + 1);
                    }
                }
                TimeoutVerdict::Unknown => {}
            }
            return;
        }
        loop {
            let next = self.shared.queue.borrow_mut().pop_front();
            let Some((class, op, input)) = next else {
                break;
            };
            // Tenant admission before dispatch: a Drop verdict resolves
            // the job as failed without ever reaching a worker, exactly
            // like the rt submit path.
            if self.stub.admit(ctx, &class) == sns_core::Admission::Drop {
                self.shared.failed.set(self.shared.failed.get() + 1);
                continue;
            }
            let at = ctx.now();
            let id = self.stub.dispatch(
                ctx,
                class.clone(),
                op,
                input,
                None,
                sns_core::trace::SpanCtx::root(),
            );
            self.pending.insert(id, (class, at));
            ctx.timer(self.timeout, K_DISPATCH | id);
        }
        ctx.timer(PUMP, 0);
    }

    fn kind(&self) -> &'static str {
        "driver"
    }
}

type LogicFactory = Arc<dyn Fn() -> Box<dyn WorkerLogic> + Send + Sync>;

/// Builder for [`SimCluster`] — the sim-side analogue of configuring
/// an `RtConfig` and calling `add_workers`.
pub struct SimClusterBuilder {
    seed: u64,
    nodes: usize,
    tracing: bool,
    trace_sample_rate: u32,
    sns: SnsConfig,
    classes: Vec<(WorkerClass, u32, LogicFactory)>,
    tenants: Vec<(WorkerClass, &'static str)>,
    tenant_policies: Vec<(&'static str, sns_core::TenantPolicy)>,
}

impl Default for SimClusterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SimClusterBuilder {
    /// Starts a builder with one worker node and default SNS timing.
    pub fn new() -> Self {
        SimClusterBuilder {
            seed: 0x517e,
            nodes: 1,
            tracing: false,
            trace_sample_rate: 1,
            sns: SnsConfig::default(),
            classes: Vec::new(),
            tenants: Vec::new(),
            tenant_policies: Vec::new(),
        }
    }

    /// Sets the engine RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of worker nodes (pool tag [`POOL`]).
    pub fn with_nodes(mut self, n: usize) -> Self {
        self.nodes = n.max(1);
        self
    }

    /// Enables span tracing.
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Sets the head-sampling rate used when tracing (keep ~1 request
    /// in `rate`; the decision stream derives from the builder seed, so
    /// an `RtConfig` with the same seed and rate samples identically).
    pub fn with_trace_sampling(mut self, rate: u32) -> Self {
        self.trace_sample_rate = rate;
        self
    }

    /// Overrides the SNS layer timing/policy config.
    pub fn with_sns(mut self, sns: SnsConfig) -> Self {
        self.sns = sns;
        self
    }

    /// Registers `n` workers of `class` built by `factory` (kept for
    /// restarts and fresh manager incarnations).
    pub fn with_workers(
        mut self,
        class: &str,
        n: u32,
        factory: impl Fn() -> Box<dyn WorkerLogic> + Send + Sync + 'static,
    ) -> Self {
        self.classes
            .push((WorkerClass::new(class), n, Arc::new(factory)));
        self
    }

    /// Assigns `class` to `tenant` for multi-tenant admission
    /// accounting in the driver front end.
    pub fn with_tenant(mut self, class: &str, tenant: &'static str) -> Self {
        self.tenants.push((WorkerClass::new(class), tenant));
        self
    }

    /// Installs `tenant`'s overload policy (outstanding quota + drop
    /// vs. degrade behavior past it) on the driver front end.
    pub fn with_tenant_policy(
        mut self,
        tenant: &'static str,
        policy: sns_core::TenantPolicy,
    ) -> Self {
        self.tenant_policies.push((tenant, policy));
        self
    }

    /// Builds the engine, spawns the manager, monitor tap and driver,
    /// and runs a short warm-up so the first beacon lands before any
    /// trait call.
    pub fn start(self) -> SimCluster {
        let mut sim: SnsSim = SnsSim::new(
            SimConfig {
                seed: self.seed,
                ..SimConfig::default()
            },
            San::new(SanConfig::switched_100mbps()),
        );
        if self.tracing {
            sim.set_tracer(Tracer::sampled(sns_core::trace::Sampling::per(
                self.trace_sample_rate,
                self.seed,
            )));
        }
        let infra = sim.add_node(NodeSpec::new(2, "infra"));
        for _ in 0..self.nodes {
            sim.add_node(NodeSpec::new(8, POOL));
        }
        let beacon = sim.create_group();
        let monitor_group = sim.create_group();
        let (tap, log) = MonitorTap::new(monitor_group);
        sim.spawn(infra, Box::new(tap), "montap");

        let shared = Rc::new(DriverShared::default());
        let mut stub = ManagerStub::new(self.sns.clone());
        for (class, tenant) in &self.tenants {
            stub.set_tenant(class.clone(), tenant);
        }
        for (tenant, policy) in &self.tenant_policies {
            stub.set_tenant_policy(tenant, *policy);
        }
        sim.spawn(
            infra,
            Box::new(Driver {
                beacon,
                stub,
                shared: Rc::clone(&shared),
                pending: BTreeMap::new(),
                timeout: self.sns.dispatch_timeout,
            }),
            "driver",
        );

        let warmup = self.sns.beacon_period + self.sns.beacon_period;
        let cluster = SimCluster {
            sim: RefCell::new(sim),
            shared,
            log,
            sns: self.sns,
            classes: self.classes,
            beacon,
            monitor_group,
            infra,
            incarnation: Cell::new(0),
            settled: Cell::new(0),
            verbs: RefCell::default(),
        };
        cluster.spawn_manager();
        // Warm-up: let the bootstrap spawns register and the first
        // beacon populate the driver's hint cache.
        // Warm-up must outlast spawn latency: run until every class's
        // bootstrap population is live and registered (capped), plus
        // one beacon so the driver's hint cache is populated.
        cluster.sleep_until(Duration::from_secs(30), || {
            cluster.classes.iter().all(|(class, n, _)| {
                cluster
                    .sim
                    .borrow()
                    .components_of_kind(intern_class(class.name()))
                    .len()
                    >= *n as usize
            })
        });
        cluster.sleep(warmup);
        cluster
    }
}

/// A simulated SNS cluster behind the [`Cluster`] trait. Single
/// threaded: trait calls mutate engine state synchronously and
/// [`Cluster::settle`] advances virtual time.
pub struct SimCluster {
    sim: RefCell<SnsSim>,
    shared: Rc<DriverShared>,
    log: Rc<RefCell<MonitorLog>>,
    sns: SnsConfig,
    classes: Vec<(WorkerClass, u32, LogicFactory)>,
    beacon: GroupId,
    monitor_group: GroupId,
    infra: sns_sim::NodeId,
    incarnation: Cell<u64>,
    /// Jobs accounted for by previous settles (`answered + failed`
    /// high-water mark).
    settled: Cell<u64>,
    /// The fault verbs and the state they keep between calls.
    verbs: RefCell<SimVerbs>,
}

impl SimCluster {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.borrow().now()
    }

    /// Runs the engine to `horizon` (test hook — [`Cluster::settle`]
    /// is the trait-level way to advance time).
    pub fn run_until(&self, horizon: SimTime) {
        self.sim.borrow_mut().run_until(horizon);
    }

    /// Virtual sleep: advances the engine by `d` in one shot.
    fn sleep(&self, d: Duration) {
        let horizon = self.now() + d;
        self.sim.borrow_mut().run_until(horizon);
    }

    /// Sleep-based settle: sleeps in [`PUMP`] slices until `done()`
    /// reports true or `budget` elapses. The fault verbs' shared
    /// wait-for-condition primitive — replaces the hand-rolled
    /// `while now < cap { run_until(now + PUMP) }` tick loops.
    fn sleep_until(&self, budget: Duration, mut done: impl FnMut() -> bool) {
        let horizon = self.now() + budget;
        loop {
            let now = self.now();
            if now >= horizon || done() {
                break;
            }
            let step = (horizon - now).min(PUMP);
            self.sim.borrow_mut().run_until(now + step);
        }
    }

    /// Dispatch-to-reply latencies of every answered `class` job, in
    /// resolution order — the victim-tenant series for
    /// [`crate::invariant::check_tenant_isolation`].
    pub fn latencies_of(&self, class: &str) -> Vec<Duration> {
        self.shared
            .latencies
            .borrow()
            .get(&WorkerClass::new(class))
            .cloned()
            .unwrap_or_default()
    }

    /// Runs one sim fault verb against the engine.
    fn verb<R>(&self, f: impl FnOnce(&mut SimVerbs, &mut SnsSim) -> R) -> R {
        f(&mut self.verbs.borrow_mut(), &mut self.sim.borrow_mut())
    }

    /// Spawns a fresh manager incarnation with the registered classes.
    fn spawn_manager(&self) {
        let inc = self.incarnation.get() + 1;
        self.incarnation.set(inc);
        let mut classes = BTreeMap::new();
        for (class, n, factory) in &self.classes {
            let factory = Arc::clone(factory);
            let beacon_group = self.beacon;
            let monitor_group = self.monitor_group;
            let report_period = self.sns.report_period;
            classes.insert(
                class.clone(),
                WorkerSpec::scaled(
                    *n,
                    Box::new(move || {
                        Box::new(WorkerStub::new(
                            factory(),
                            WorkerStubConfig {
                                beacon_group,
                                monitor_group,
                                report_period,
                                cost_weight_unit: None,
                            },
                        ))
                    }),
                ),
            );
        }
        self.sim.borrow_mut().spawn(
            self.infra,
            Box::new(Manager::new(ManagerConfig {
                sns: self.sns.clone(),
                beacon_group: self.beacon,
                monitor_group: self.monitor_group,
                incarnation: inc,
                classes,
                fe_factory: None,
            })),
            "manager",
        );
    }
}

impl Cluster for SimCluster {
    fn backend(&self) -> &'static str {
        "sim"
    }

    fn submit(&self, class: &str, op: &str, input: Payload) {
        self.shared
            .queue
            .borrow_mut()
            .push_back((WorkerClass::new(class), op.to_string(), input));
    }

    fn settle(&self, budget: Duration) -> SettleStats {
        let base_answered = self.shared.answered.get();
        let base_failed = self.shared.failed.get();
        let pending = (base_answered + base_failed - self.settled.get())
            + self.shared.queue.borrow().len() as u64;
        self.sleep_until(budget, || {
            let resolved =
                self.shared.answered.get() + self.shared.failed.get() - self.settled.get();
            pending > 0 && resolved >= pending
        });
        let answered = self.shared.answered.get() - base_answered;
        let failed = self.shared.failed.get() - base_failed;
        let stats = SettleStats {
            answered,
            // Jobs that never resolved inside the budget count as
            // failed, like an rt receive timing out.
            failed: failed + pending.saturating_sub(answered + failed),
        };
        self.settled.set(self.settled.get() + pending);
        stats
    }

    fn workers_of(&self, class: &str) -> usize {
        self.sim
            .borrow()
            .components_of_kind(intern_class(class))
            .len()
    }

    fn crash_worker(&self, class: &str) -> bool {
        self.verb(|v, s| v.kill_worker(s, class, 0))
    }

    fn kill_manager(&self) {
        self.verb(|v, s| v.kill_worker(s, "manager", 0));
    }

    fn restart_manager(&self) {
        if !self.sim.borrow().components_of_kind("manager").is_empty() {
            return; // one incarnation at a time, like the rt slot
        }
        self.spawn_manager();
    }

    fn kill_node(&self, which: usize) -> Option<u64> {
        self.verb(|v, s| v.kill_pool_node(s, POOL, which))
    }

    fn revive_node(&self, which: usize) -> bool {
        self.verb(|v, s| v.revive_pool_node(s, POOL, which))
    }

    fn set_node_slowdown(&self, which: usize, factor: f64) -> bool {
        self.verb(|v, s| v.slowdown(s, POOL, which, factor))
    }

    fn drain_node(&self, which: usize) -> bool {
        self.verb(|v, s| v.drain(s, POOL, which))
    }

    fn rejoin_node(&self, which: usize, upgraded: bool) -> bool {
        self.verb(|v, s| v.rejoin(s, POOL, which, upgraded))
    }

    fn set_beacon_blackout(&self, on: bool) {
        self.verb(|v, s| v.blackout(s, on));
    }

    fn monitor_log(&self) -> MonitorLog {
        self.log.borrow().clone()
    }

    fn counter(&self, key: MetricKey) -> u64 {
        self.sim.borrow().stats().counter(key.as_str())
    }

    fn trace_snapshot(&self) -> Option<TraceLog> {
        self.sim.borrow().tracer().snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_core::msg::Job;
    use sns_core::worker::WorkerError;
    use sns_core::Blob;
    use sns_sim::rng::Pcg32;

    struct Echo;

    impl WorkerLogic for Echo {
        fn class(&self) -> WorkerClass {
            "echo".into()
        }
        fn service_time(&mut self, _j: &Job, _n: SimTime, _r: &mut Pcg32) -> Duration {
            Duration::from_millis(20)
        }
        fn process(
            &mut self,
            job: &Job,
            _n: SimTime,
            _r: &mut Pcg32,
        ) -> Result<Payload, WorkerError> {
            Ok(Blob::payload(job.input.wire_size() / 2, "echoed"))
        }
    }

    #[test]
    fn sim_cluster_answers_submits_through_the_trait() {
        let c = SimClusterBuilder::new()
            .with_workers("echo", 3, || Box::new(Echo))
            .start();
        let h: &dyn Cluster = &c;
        assert_eq!(h.backend(), "sim");
        assert_eq!(h.workers_of("echo"), 3);
        for _ in 0..6 {
            h.submit("echo", "echo", Blob::payload(256, "probe"));
        }
        let s = h.settle(Duration::from_secs(20));
        assert_eq!(s.answered, 6, "all jobs answered: {s:?}");
        assert_eq!(s.failed, 0);
        assert!(h.counter(MetricKey::new("manager.load_reports")) >= 1);
    }

    #[test]
    fn sim_cluster_recovers_from_injected_faults() {
        let c = SimClusterBuilder::new()
            .with_workers("echo", 3, || Box::new(Echo))
            .start();
        let h: &dyn Cluster = &c;
        assert!(h.crash_worker("echo"));
        let _ = h.settle(Duration::from_secs(30));
        assert_eq!(h.workers_of("echo"), 3, "process peer restored");
        // Manager failover: new incarnation rebuilds its soft state.
        h.kill_manager();
        let _ = h.settle(Duration::from_secs(5));
        h.restart_manager();
        let _ = h.settle(Duration::from_secs(30));
        h.submit("echo", "echo", Blob::payload(64, "x"));
        let s = h.settle(Duration::from_secs(20));
        assert_eq!(s.answered, 1, "cluster serves after failover: {s:?}");
        let log = h.monitor_log();
        // kill_component is a hard process death: the manager observes
        // it and process-peer-restarts ("crashed" is the stub-survives
        // path for logic crashes, which this is not).
        assert!(log.count("peer_restarted") >= 1);
        assert!(log.count("spawned") >= 4);
    }
}
