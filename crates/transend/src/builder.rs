//! One-call construction of a TranSend cluster (§3.1): nodes, SAN,
//! manager with per-class spawn policies, front ends, monitor, cache
//! partitions, the ACID profile database and the origin model.

use std::collections::BTreeMap;
use std::time::Duration;

use sns_core::exec::service::AsyncService;
use sns_core::frontend::{FeConfig, ManagerFactory};
use sns_core::manager::{Manager, ManagerConfig, WorkerFactory, WorkerSpec};
use sns_core::monitor::Monitor;
use sns_core::msg::SnsMsg;
use sns_core::worker::{WorkerStub, WorkerStubConfig};
use sns_core::{ClusterTopology, FrontEnd, SnsConfig, WorkerClass};
use sns_distillers::{
    CultureAggregator, GifDistiller, HtmlMunger, JpegDistiller, KeywordFilter,
    MetasearchAggregator, PdaSimplifier, RewebberDecrypt, RewebberEncrypt,
};
use sns_san::{LinkParams, San, SanConfig, SanMode};
use sns_sim::engine::{NodeSpec, Sim, SimConfig};
use sns_sim::{ComponentId, GroupId, NodeId};
use sns_tacc::cache_worker::CacheWorker;
use sns_tacc::origin::OriginServer;
use sns_tacc::profile_worker::ProfileWorker;
use sns_tacc::worker::TaccWorkerHost;
use sns_workload::trace::TraceRecord;

use crate::client::{ClientReportHandle, TranSendClient};
use crate::logic::{TranSendAsync, TranSendConfig};

/// Fluent TranSend cluster builder.
///
/// The physical shape lives in a shared [`ClusterTopology`]; everything
/// else is a service knob with a `with_*` setter. The `Default` preset
/// is the paper's §3.1 deployment (8 dedicated + 2 overflow nodes, one
/// front end, 4 cache partitions, GIF/JPEG/HTML distillers):
///
/// ```no_run
/// use sns_transend::TranSendBuilder;
///
/// let cluster = TranSendBuilder::new()
///     .with_seed(7)
///     .with_worker_nodes(4)
///     .with_distillers(["gif"])
///     .build();
/// # let _ = cluster;
/// ```
pub struct TranSendBuilder {
    topology: ClusterTopology,
    sns: SnsConfig,
    ts: TranSendConfig,
    overflow_nodes: usize,
    cache_partitions: u32,
    cache_capacity: u64,
    min_distillers: u32,
    distillers: Vec<String>,
    aggregators: Vec<String>,
    origin_penalty_scale: f64,
    profiles: Vec<(String, Vec<(String, String)>)>,
    fe_nic: Option<LinkParams>,
    distiller_crash_prob: f64,
    delta_correction: bool,
    tracing: bool,
    trace_sample_rate: u32,
}

impl Default for TranSendBuilder {
    fn default() -> Self {
        TranSendBuilder {
            topology: ClusterTopology {
                seed: 0x7345,
                san: SanConfig::switched_100mbps(),
                worker_nodes: 8,
                frontends: 1,
                cores_per_node: 2,
            },
            sns: SnsConfig::default(),
            ts: TranSendConfig::default(),
            overflow_nodes: 2,
            cache_partitions: 4,
            cache_capacity: 512 * 1024 * 1024,
            min_distillers: 0,
            distillers: vec!["gif".into(), "jpeg".into(), "html".into()],
            aggregators: Vec::new(),
            origin_penalty_scale: 1.0,
            profiles: Vec::new(),
            fe_nic: None,
            distiller_crash_prob: 0.0,
            delta_correction: true,
            tracing: false,
            trace_sample_rate: 1,
        }
    }
}

impl TranSendBuilder {
    /// The §3.1 preset; same as `Default`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the whole physical shape at once.
    pub fn with_topology(mut self, topology: ClusterTopology) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the engine seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.topology.seed = seed;
        self
    }

    /// Sets the interconnect model.
    pub fn with_san(mut self, san: SanConfig) -> Self {
        self.topology.san = san;
        self
    }

    /// Selects the SAN fidelity mode without replacing the rest of the
    /// interconnect configuration; see [`SanMode`]. Chains like the
    /// other `with_*` setters:
    ///
    /// ```no_run
    /// use sns_san::SanMode;
    /// use sns_transend::TranSendBuilder;
    ///
    /// let cluster = TranSendBuilder::new()
    ///     .with_seed(7)
    ///     .with_san_mode(SanMode::Flow)
    ///     .build();
    /// # let _ = cluster;
    /// ```
    pub fn with_san_mode(mut self, mode: SanMode) -> Self {
        self.topology.san.mode = mode;
        self
    }

    /// Sets the SNS-layer knobs.
    pub fn with_sns(mut self, sns: SnsConfig) -> Self {
        self.sns = sns;
        self
    }

    /// Sets the service knobs.
    pub fn with_ts(mut self, ts: TranSendConfig) -> Self {
        self.ts = ts;
        self
    }

    /// Sets the number of dedicated worker-pool nodes.
    pub fn with_worker_nodes(mut self, n: usize) -> Self {
        self.topology.worker_nodes = n;
        self
    }

    /// Sets the number of overflow-pool nodes (§2.2.3).
    pub fn with_overflow_nodes(mut self, n: usize) -> Self {
        self.overflow_nodes = n;
        self
    }

    /// Sets the cores per node.
    pub fn with_cores_per_node(mut self, cores: u32) -> Self {
        self.topology.cores_per_node = cores;
        self
    }

    /// Sets the number of front ends (each on its own node).
    pub fn with_frontends(mut self, n: usize) -> Self {
        self.topology.frontends = n;
        self
    }

    /// Sets the number of cache partitions (TranSend ran 4, §3.1.5).
    pub fn with_cache_partitions(mut self, n: u32) -> Self {
        self.cache_partitions = n;
        self
    }

    /// Sets the minimum distillers per class (0 = on-demand, §4.5).
    pub fn with_min_distillers(mut self, n: u32) -> Self {
        self.min_distillers = n;
        self
    }

    /// Sets the distiller classes to register.
    pub fn with_distillers<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.distillers = names.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the aggregator classes to register.
    pub fn with_aggregators<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.aggregators = names.into_iter().map(Into::into).collect();
        self
    }

    /// Scales the origin miss penalty (1.0 = the §4.4 distribution).
    pub fn with_origin_penalty_scale(mut self, scale: f64) -> Self {
        self.origin_penalty_scale = scale;
        self
    }

    /// Pre-registers user profiles.
    pub fn with_profiles(mut self, profiles: Vec<(String, Vec<(String, String)>)>) -> Self {
        self.profiles = profiles;
        self
    }

    /// Overrides the front-end NIC (the Table 2 bottleneck).
    pub fn with_fe_nic(mut self, nic: LinkParams) -> Self {
        self.fe_nic = Some(nic);
        self
    }

    /// Sets the random crash probability for image distillers.
    pub fn with_distiller_crash_prob(mut self, p: f64) -> Self {
        self.distiller_crash_prob = p;
        self
    }

    /// Enables/disables the §4.5 queue-delta correction (disable to
    /// reproduce the load-balancing oscillations).
    pub fn with_delta_correction(mut self, on: bool) -> Self {
        self.delta_correction = on;
        self
    }

    /// Enables end-to-end request tracing: every request, dispatch,
    /// queue wait and service stage is recorded as a span (virtual-time
    /// stamps), exportable via [`TranSendCluster::trace`] — see
    /// `OBSERVABILITY.md`.
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Sets the head-sampling rate used when tracing: keep roughly one
    /// request in `rate` (`<= 1` keeps all). The decision stream is
    /// seeded from the topology seed, so the sampled set is a pure
    /// function of `(seed, rate)` — identical run to run and across
    /// backends (see `OBSERVABILITY.md`).
    pub fn with_trace_sampling(mut self, rate: u32) -> Self {
        self.trace_sample_rate = rate;
        self
    }
}

/// A built cluster plus the handles experiments need.
pub struct TranSendCluster {
    /// The simulation.
    pub sim: Sim<SnsMsg, San>,
    /// Live front ends (construction order).
    pub fes: Vec<ComponentId>,
    /// Nodes hosting the front ends.
    pub fe_nodes: Vec<NodeId>,
    /// The initial manager.
    pub manager: ComponentId,
    /// The monitor.
    pub monitor: ComponentId,
    /// Beacon multicast group.
    pub beacon: GroupId,
    /// Monitor multicast group.
    pub monitor_group: GroupId,
    /// Node hosting client components.
    pub client_node: NodeId,
    /// Node modelling the Internet (origin).
    pub origin_node: NodeId,
    sns: SnsConfig,
    ts: TranSendConfig,
    fe_nic: Option<LinkParams>,
    mgr_factory: ManagerFactory,
}

struct Wiring {
    beacon: GroupId,
    monitor_group: GroupId,
    report_period: Duration,
}

fn stub_cfg(w: &Wiring) -> WorkerStubConfig {
    WorkerStubConfig {
        beacon_group: w.beacon,
        monitor_group: w.monitor_group,
        report_period: w.report_period,
        cost_weight_unit: None,
    }
}

/// Builds a factory producing fresh distiller worker stubs for a class
/// name understood by `sns-distillers`.
fn distiller_factory(name: &str, w: &Wiring, crash_prob: f64) -> WorkerFactory {
    let name = name.to_string();
    let cfg = stub_cfg(w);
    Box::new(move || {
        let worker: Box<dyn sns_tacc::worker::TaccWorker> = match name.as_str() {
            "gif" => Box::new(GifDistiller::new().with_crash_prob(crash_prob)),
            "jpeg" => Box::new(JpegDistiller::new().with_crash_prob(crash_prob)),
            "html" => Box::new(HtmlMunger::new()),
            "keyword" => Box::new(KeywordFilter::new()),
            "pda" => Box::new(PdaSimplifier::new()),
            "rewebber-enc" => Box::new(RewebberEncrypt::new()),
            "rewebber-dec" => Box::new(RewebberDecrypt::new()),
            other => panic!("unknown distiller class {other}"),
        };
        Box::new(WorkerStub::new(
            Box::new(TaccWorkerHost::transformer(worker, BTreeMap::new())),
            cfg.clone(),
        ))
    })
}

/// Builds a factory for aggregator worker stubs.
fn aggregator_factory(name: &str, w: &Wiring) -> WorkerFactory {
    let name = name.to_string();
    let cfg = stub_cfg(w);
    Box::new(move || {
        let agg: Box<dyn sns_tacc::worker::Aggregator> = match name.as_str() {
            "culture" => Box::new(CultureAggregator::new()),
            "metasearch" => Box::new(MetasearchAggregator::new()),
            other => panic!("unknown aggregator class {other}"),
        };
        Box::new(WorkerStub::new(
            Box::new(TaccWorkerHost::aggregator(agg, BTreeMap::new())),
            cfg.clone(),
        ))
    })
}

#[allow(clippy::too_many_arguments)]
fn make_manager_factory(
    sns: SnsConfig,
    w: Wiring,
    distillers: Vec<String>,
    aggregators: Vec<String>,
    min_distillers: u32,
    cache_partitions: u32,
    cache_capacity: u64,
    profiles: Vec<(String, Vec<(String, String)>)>,
    crash_prob: f64,
) -> ManagerFactory {
    Box::new(move |incarnation| {
        let mut classes: BTreeMap<WorkerClass, WorkerSpec> = BTreeMap::new();
        for d in &distillers {
            classes.insert(
                WorkerClass::new(format!("distiller/{d}")),
                WorkerSpec::scaled(min_distillers, distiller_factory(d, &w, crash_prob)),
            );
        }
        for a in &aggregators {
            classes.insert(
                WorkerClass::new(format!("aggregator/{a}")),
                WorkerSpec::scaled(min_distillers.max(1), aggregator_factory(a, &w)),
            );
        }
        if cache_partitions > 0 {
            let cfg = stub_cfg(&w);
            classes.insert(
                WorkerClass::new(CacheWorker::CLASS),
                WorkerSpec::pinned(
                    cache_partitions,
                    Box::new(move || {
                        Box::new(WorkerStub::new(
                            Box::new(CacheWorker::new(cache_capacity, None)),
                            cfg.clone(),
                        ))
                    }),
                ),
            );
        }
        {
            let cfg = stub_cfg(&w);
            let profiles = profiles.clone();
            classes.insert(
                WorkerClass::new(ProfileWorker::CLASS),
                WorkerSpec::pinned(
                    1,
                    Box::new(move || {
                        Box::new(WorkerStub::new(
                            Box::new(ProfileWorker::seeded(&profiles)),
                            cfg.clone(),
                        ))
                    }),
                ),
            );
        }
        Box::new(Manager::new(ManagerConfig {
            sns: sns.clone(),
            beacon_group: w.beacon,
            monitor_group: w.monitor_group,
            incarnation,
            classes,
            fe_factory: None,
        }))
    })
}

impl TranSendBuilder {
    /// Builds the cluster. The caller then attaches clients and runs the
    /// simulation.
    pub fn build(self) -> TranSendCluster {
        let topo = &self.topology;
        let san = San::new(topo.san.clone());
        let mut sim: Sim<SnsMsg, San> = Sim::new(SimConfig::new().with_seed(topo.seed), san);
        if self.tracing {
            sim.set_tracer(sns_core::trace::Tracer::sampled(
                sns_core::trace::Sampling::per(self.trace_sample_rate, topo.seed),
            ));
        }

        // Nodes. Worker pool is "dedicated"/"overflow" (the manager's
        // placement tags); everything else is out of the autoscaler's
        // reach.
        for _ in 0..topo.worker_nodes {
            sim.add_node(NodeSpec::new(topo.cores_per_node, "dedicated"));
        }
        for _ in 0..self.overflow_nodes {
            sim.add_node(NodeSpec::new(topo.cores_per_node, "overflow"));
        }
        let infra_node = sim.add_node(NodeSpec::new(topo.cores_per_node, "infra"));
        let fe_nodes: Vec<NodeId> = (0..topo.frontends)
            .map(|_| sim.add_node(NodeSpec::new(topo.cores_per_node, "frontend")))
            .collect();
        let client_node = sim.add_node(NodeSpec::new(4, "client"));
        let origin_node = sim.add_node(NodeSpec::new(8, "internet"));

        if let Some(nic) = &self.fe_nic {
            for &n in &fe_nodes {
                sim.net_mut().set_nic(n, nic.clone());
            }
        }

        let beacon = sim.create_group();
        let monitor_group = sim.create_group();
        let wiring = || Wiring {
            beacon,
            monitor_group,
            report_period: self.sns.report_period,
        };

        let mut mgr_factory = make_manager_factory(
            self.sns.clone(),
            wiring(),
            self.distillers.clone(),
            self.aggregators.clone(),
            self.min_distillers,
            self.cache_partitions,
            self.cache_capacity,
            self.profiles.clone(),
            self.distiller_crash_prob,
        );
        let manager = sim.spawn(infra_node, mgr_factory(1), "manager");

        let monitor = sim.spawn(
            infra_node,
            Box::new(Monitor::new(monitor_group, Duration::from_secs(10))),
            "monitor",
        );

        // The origin ("the Internet") is spawned directly — it is not a
        // managed cluster resource, but it registers itself with the
        // manager like any worker so front ends can dispatch to it.
        sim.spawn(
            origin_node,
            Box::new(WorkerStub::new(
                Box::new(OriginServer::new().with_penalty_scale(self.origin_penalty_scale)),
                stub_cfg(&wiring()),
            )),
            "origin",
        );

        let mut fes = Vec::new();
        for &node in &fe_nodes {
            let mut frontend = FrontEnd::new(
                Box::new(TranSendAsync::new(self.ts.clone())),
                FeConfig {
                    sns: self.sns.clone(),
                    beacon_group: beacon,
                    monitor_group,
                    manager_factory: Some(make_manager_factory(
                        self.sns.clone(),
                        wiring(),
                        self.distillers.clone(),
                        self.aggregators.clone(),
                        self.min_distillers,
                        self.cache_partitions,
                        self.cache_capacity,
                        self.profiles.clone(),
                        self.distiller_crash_prob,
                    )),
                },
            );
            frontend.set_delta_correction(self.delta_correction);
            let fe = sim.spawn(node, Box::new(frontend), "frontend");
            fes.push(fe);
        }

        TranSendCluster {
            sim,
            fes,
            fe_nodes,
            manager,
            monitor,
            beacon,
            monitor_group,
            client_node,
            origin_node,
            sns: self.sns,
            ts: self.ts,
            fe_nic: self.fe_nic,
            mgr_factory,
        }
    }
}

impl TranSendCluster {
    /// Attaches a playback client driving all current front ends;
    /// `retimed` pairs (send offset, trace record) come from
    /// `sns_workload::Playback`. Returns the client's report handle.
    pub fn attach_client(
        &mut self,
        retimed: Vec<(Duration, TraceRecord)>,
        start_delay: Duration,
    ) -> ClientReportHandle {
        let (client, report) = TranSendClient::new(self.fes.clone(), retimed, start_delay);
        self.sim.spawn(self.client_node, Box::new(client), "client");
        report
    }

    /// Adds a front end on a fresh node (Table 2 incremental scaling).
    /// Note: already-attached clients keep their FE list; attach clients
    /// after all front ends exist, or use one client per configuration.
    pub fn add_frontend(&mut self) -> ComponentId {
        self.add_frontend_with_logic(Box::new(TranSendAsync::new(self.ts.clone())))
    }

    /// Adds a front end hosting an arbitrary [`AsyncService`] on a fresh
    /// node — the hook for hosting a different service (e.g. an async
    /// TACC pipeline) inside an already-built cluster.
    pub fn add_frontend_with_logic(&mut self, service: Box<dyn AsyncService>) -> ComponentId {
        let node = self.sim.add_node(NodeSpec::new(2, "frontend"));
        if let Some(nic) = &self.fe_nic {
            self.sim.net_mut().set_nic(node, nic.clone());
        }
        let fe = self.sim.spawn(
            node,
            Box::new(FrontEnd::new(
                service,
                FeConfig {
                    sns: self.sns.clone(),
                    beacon_group: self.beacon,
                    monitor_group: self.monitor_group,
                    manager_factory: None,
                },
            )),
            "frontend",
        );
        self.fes.push(fe);
        self.fe_nodes.push(node);
        fe
    }

    /// Spawns a replacement manager by hand (used by experiments that
    /// killed the manager and want to measure recovery separately from
    /// the automatic path).
    pub fn spawn_manager(&mut self, incarnation: u64) -> ComponentId {
        let node = self.sim.nodes_with_tag("infra")[0];
        let mgr = (self.mgr_factory)(incarnation);
        self.sim.spawn(node, mgr, "manager")
    }

    /// All live distiller workers of a class (e.g. `"distiller/jpeg"`).
    pub fn distillers_of(&self, class: &str) -> Vec<ComponentId> {
        self.sim.components_of_kind(sns_core::intern_class(class))
    }

    /// Snapshot of the recorded request trace, or `None` unless the
    /// cluster was built with [`TranSendBuilder::with_tracing`]. Export
    /// with [`sns_core::trace::to_jsonl`] (diffing) or
    /// [`sns_core::trace::to_perfetto`] (viewing).
    pub fn trace(&self) -> Option<sns_core::trace::TraceLog> {
        self.sim.tracer().snapshot()
    }
}
