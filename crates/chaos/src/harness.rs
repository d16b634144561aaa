//! The simulator as a [`Cluster`]: wraps the discrete-event engine,
//! a [`Manager`] and one production [`FrontEnd`] behind the
//! backend-agnostic trait, so harness code written against
//! `&dyn Cluster` runs unchanged over virtual time.
//!
//! Each [`Cluster::submit`] is a client request injected into that
//! front end, whose one-dispatch body dispatches the job and replies
//! with its result. Tenant admission, dispatch timeouts and retries are
//! therefore the front end's, as for every sim service (§2.2.1); the
//! front end is configured to add no per-request overhead and no
//! thread cap.
//!
//! Where `sns_rt::RtCluster` is inherently concurrent, the simulator
//! is single-threaded and only advances when *run*; this wrapper keeps
//! the duality honest by making every trait call a synchronous
//! mutation of engine state (the fault verbs are the ones `SimChaos`
//! runs plan steps through) and letting [`Cluster::settle`] be the
//! only place virtual time moves.
//! The trait's `budget` is therefore *virtual* seconds here and wall
//! seconds on rt — the same plan text means the same modelled
//! schedule, which is exactly the parity discipline.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sns_core::cluster::{Cluster, SettleStats};
use sns_core::exec::service::{AsyncService, EventOutcome, SvcHandle};
use sns_core::exec::BoxFut;
use sns_core::frontend::{FeConfig, FrontEnd};
use sns_core::invariant::{MonitorLog, MonitorTap};
use sns_core::manager::{Manager, ManagerConfig, WorkerSpec};
use sns_core::msg::{ClientRequest, JobResult, SnsMsg};
use sns_core::trace::{TraceLog, Tracer};
use sns_core::worker::{WorkerLogic, WorkerStub, WorkerStubConfig};
use sns_core::{Payload, SnsConfig, WorkerClass};
use sns_san::{San, SanConfig};
use sns_sim::engine::{NodeSpec, SimConfig};
use sns_sim::{ComponentId, GroupId, MetricKey, SimTime};

use crate::sim::{SimVerbs, SnsSim};

/// How finely [`Cluster::settle`] slices its budget.
const PUMP: Duration = Duration::from_millis(100);

/// Node-pool tag the harness places workers on (the injector grammar's
/// `pool` name for this backend).
pub const POOL: &str = "dedicated";

/// Counters of the jobs that resolved, answered or failed, before a
/// settle reported them.
const ANSWERED: &str = "harness.answered";
const FAILED: &str = "harness.failed";

/// The stats series of `class`'s dispatch-to-reply latencies, in ns.
fn latency_key(class: &str) -> &'static str {
    sns_sim::intern(&format!("harness.latency_ns/{class}"))
}

/// The front end's service: a request names a class (`user`), an op
/// (`url`) and an input (`body`); its body dispatches one job and
/// replies with the result.
struct OneDispatch {
    /// First request id no settle has reported yet. A job below it was
    /// already reported (as failed), so resolving it counts nothing.
    reported: Arc<AtomicU64>,
}

impl AsyncService for OneDispatch {
    fn handle(&mut self, request: Arc<ClientRequest>, svc: SvcHandle) -> BoxFut {
        let reported = Arc::clone(&self.reported);
        Box::pin(async move {
            let class = WorkerClass::new(&request.user);
            let input = request
                .body
                .clone()
                .expect("harness requests carry an input");
            let op = sns_sim::intern(&request.url);
            let at = svc.now();
            let result = match svc.dispatch(class, op, input, None).await {
                EventOutcome::Reply(JobResult::Ok(p)) => {
                    let ns = (svc.now() - at).as_nanos() as f64;
                    svc.sample(latency_key(&request.user), ns);
                    Ok(p)
                }
                EventOutcome::Reply(JobResult::Failed(e)) => Err(e),
                outcome => Err(format!("dispatch gave up: {outcome:?}")),
            };
            if request.id >= reported.load(Ordering::Relaxed) {
                svc.incr(if result.is_ok() { ANSWERED } else { FAILED }, 1);
            }
            svc.reply(result);
        })
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
    tenants: Vec<(String, &'static str)>,
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
    /// accounting in the front end.
    pub fn with_tenant(mut self, class: &str, tenant: &'static str) -> Self {
        self.tenants.push((class.to_string(), tenant));
        self
    }

    /// Installs `tenant`'s overload policy (outstanding quota + drop
    /// vs. degrade behavior past it) on the front end.
    pub fn with_tenant_policy(
        mut self,
        tenant: &'static str,
        policy: sns_core::TenantPolicy,
    ) -> Self {
        self.tenant_policies.push((tenant, policy));
        self
    }

    /// Builds the engine, spawns the manager, monitor tap and front
    /// end, and runs a short warm-up so the first beacon lands before
    /// any trait call.
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

        let reported = Arc::new(AtomicU64::new(0));
        let mut fe = FrontEnd::new(
            Box::new(OneDispatch {
                reported: Arc::clone(&reported),
            }),
            FeConfig {
                sns: SnsConfig {
                    fe_request_overhead: Duration::ZERO,
                    fe_threads: u32::MAX,
                    ..self.sns.clone()
                },
                beacon_group: beacon,
                monitor_group,
                manager_factory: None,
            },
        );
        for (class, tenant) in &self.tenants {
            fe.set_tenant(class, tenant);
        }
        for (tenant, policy) in &self.tenant_policies {
            fe.set_tenant_policy(tenant, *policy);
        }
        let fe = sim.spawn(infra, Box::new(fe), "frontend");

        let warmup = self.sns.beacon_period + self.sns.beacon_period;
        let cluster = SimCluster {
            sim: RefCell::new(sim),
            fe,
            submitted: Cell::new(0),
            reported,
            counted: Cell::new((0, 0)),
            log,
            sns: self.sns,
            classes: self.classes,
            beacon,
            monitor_group,
            infra,
            incarnation: Cell::new(0),
            verbs: RefCell::default(),
        };
        cluster.spawn_manager();
        // Warm-up must outlast spawn latency: run until every class's
        // bootstrap population is live and registered (capped), plus
        // one beacon so the front end's hint cache is populated.
        cluster.sleep_until(Duration::from_secs(30), || {
            cluster.classes.iter().all(|(class, n, _)| {
                cluster.sim.borrow().components_of_kind(class.name()).len() >= *n as usize
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
    /// The front end every submit is a request to.
    fe: ComponentId,
    /// Submits so far; the next request's id.
    submitted: Cell<u64>,
    /// Submits reported by previous settles (shared with the bodies).
    reported: Arc<AtomicU64>,
    /// The [`ANSWERED`] and [`FAILED`] counters as of the last settle.
    counted: Cell<(u64, u64)>,
    log: Rc<RefCell<MonitorLog>>,
    sns: SnsConfig,
    classes: Vec<(WorkerClass, u32, LogicFactory)>,
    beacon: GroupId,
    monitor_group: GroupId,
    infra: sns_sim::NodeId,
    incarnation: Cell<u64>,
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
        let sim = self.sim.borrow();
        let Some(series) = sim.stats().series(latency_key(class)) else {
            return Vec::new();
        };
        let ns = series.points().iter().map(|&(_, ns)| ns as u64);
        ns.map(Duration::from_nanos).collect()
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
                *class,
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

    fn submit(&self, class: &str, op: &'static str, input: Payload) {
        let id = self.submitted.get();
        self.submitted.set(id + 1);
        let request = ClientRequest {
            id,
            user: class.to_string(),
            url: op.to_string(),
            body: Some(input),
        };
        let msg = SnsMsg::Request(Arc::new(request));
        self.sim.borrow_mut().inject(self.fe, msg);
    }

    fn settle(&self, budget: Duration) -> SettleStats {
        let owed = self.submitted.get() - self.reported.load(Ordering::Relaxed);
        let (answered0, failed0) = self.counted.get();
        let resolved = || {
            let sim = self.sim.borrow();
            let count = |key| sim.stats().counter(key);
            (count(ANSWERED) - answered0, count(FAILED) - failed0)
        };
        self.sleep_until(budget, || {
            let (answered, failed) = resolved();
            owed > 0 && answered + failed >= owed
        });
        let (answered, failed) = resolved();
        self.counted.set((answered0 + answered, failed0 + failed));
        self.reported.store(self.submitted.get(), Ordering::Relaxed);
        // Jobs that never resolved inside the budget count as failed,
        // like an rt receive timing out.
        SettleStats {
            answered,
            failed: owed - answered,
        }
    }

    fn workers_of(&self, class: &str) -> usize {
        self.sim.borrow().components_of_kind(class).len()
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

        // A budget shorter than the service time reports its submits as
        // failed; they resolve during the next settle but count there
        // for nothing, and a fresh submit after that counts once.
        for _ in 0..3 {
            h.submit("echo", "echo", Blob::payload(64, "late"));
        }
        let s = h.settle(Duration::from_millis(1));
        assert_eq!((s.answered, s.failed), (0, 3), "expired budget: {s:?}");
        let s = h.settle(Duration::from_secs(5));
        assert_eq!(s.total(), 0, "late answers are not reported again: {s:?}");
        h.submit("echo", "echo", Blob::payload(64, "fresh"));
        let s = h.settle(Duration::from_secs(5));
        assert_eq!((s.answered, s.failed), (1, 0), "fresh submit: {s:?}");
        assert_eq!(c.latencies_of("echo").len(), 10, "every answer was timed");
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
