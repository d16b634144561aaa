//! HotBot cluster assembly: synthetic corpus → static partitioning →
//! per-node pinned partition workers → front ends with fan-out logic
//! (§3.2). The profile/ads database HotBot kept in Informix is not
//! built: no query reads it.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use sns_core::frontend::FeConfig;
use sns_core::manager::{Manager, ManagerConfig, WorkerSpec};
use sns_core::monitor::Monitor;
use sns_core::msg::SnsMsg;
use sns_core::worker::{WorkerStub, WorkerStubConfig};
use sns_core::{ClusterTopology, FrontEnd, SnsConfig, WorkerClass};
use sns_san::{San, SanConfig};
use sns_search::doc::CorpusGenerator;
use sns_search::index::InvertedIndex;
use sns_search::partition_of;
use sns_sim::engine::{NodeSpec, Sim, SimConfig};
use sns_sim::{ComponentId, GroupId, NodeId};

use crate::client::{HotBotClient, QueryReportHandle};
use crate::logic::HotBotService;
use crate::worker::SearchWorker;

/// Fluent HotBot cluster builder.
///
/// The physical shape is a shared [`ClusterTopology`]; HotBot reads its
/// `worker_nodes` as the index partition count (one dedicated node per
/// partition, §3.2). The `Default` preset is the paper's example: 26
/// partitions on Myrinet with two front ends.
///
/// ```no_run
/// use sns_hotbot::HotBotBuilder;
///
/// let cluster = HotBotBuilder::new()
///     .with_partitions(4)
///     .with_corpus_docs(400)
///     .build();
/// # let _ = cluster;
/// ```
pub struct HotBotBuilder {
    topology: ClusterTopology,
    sns: SnsConfig,
    corpus_docs: usize,
    vocab: usize,
    auto_restart_partitions: bool,
    tracing: bool,
    trace_sample_rate: u32,
}

impl Default for HotBotBuilder {
    fn default() -> Self {
        HotBotBuilder {
            topology: ClusterTopology {
                seed: 0x4077,
                san: SanConfig::myrinet(),
                worker_nodes: 26,
                frontends: 2,
                cores_per_node: 2,
            },
            sns: SnsConfig::default(),
            corpus_docs: 5_200,
            vocab: 20_000,
            auto_restart_partitions: true,
            tracing: false,
            trace_sample_rate: 1,
        }
    }
}

impl HotBotBuilder {
    /// The §3.2 preset; same as `Default`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the whole physical shape at once. `worker_nodes` is
    /// read as the partition count.
    pub fn with_topology(mut self, topology: ClusterTopology) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the engine seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.topology.seed = seed;
        self
    }

    /// Sets the SAN model (HotBot ran Myrinet, §3.2).
    pub fn with_san(mut self, san: SanConfig) -> Self {
        self.topology.san = san;
        self
    }

    /// Sets the SNS-layer knobs.
    pub fn with_sns(mut self, sns: SnsConfig) -> Self {
        self.sns = sns;
        self
    }

    /// Sets the number of index partitions (one worker node each).
    pub fn with_partitions(mut self, n: usize) -> Self {
        self.topology.worker_nodes = n;
        self
    }

    /// Sets the synthetic corpus size in documents.
    pub fn with_corpus_docs(mut self, docs: usize) -> Self {
        self.corpus_docs = docs;
        self
    }

    /// Sets the number of front ends.
    pub fn with_frontends(mut self, n: usize) -> Self {
        self.topology.frontends = n;
        self
    }

    /// Enables/disables automatic restart of dead partition workers
    /// (disable to measure degradation windows).
    pub fn with_auto_restart_partitions(mut self, on: bool) -> Self {
        self.auto_restart_partitions = on;
        self
    }

    /// Enables end-to-end request tracing: every query, partition
    /// fan-out dispatch, queue wait and service stage is recorded as a
    /// span, exportable via [`HotBotCluster::trace`] — see
    /// `OBSERVABILITY.md`.
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Sets the head-sampling rate used when tracing: keep roughly one
    /// query in `rate` (`<= 1` keeps all), decided from the topology
    /// seed (see `OBSERVABILITY.md`).
    pub fn with_trace_sampling(mut self, rate: u32) -> Self {
        self.trace_sample_rate = rate;
        self
    }
}

/// The built HotBot cluster.
pub struct HotBotCluster {
    /// The simulation.
    pub sim: Sim<SnsMsg, San>,
    /// Front ends.
    pub fes: Vec<ComponentId>,
    /// The manager.
    pub manager: ComponentId,
    /// Beacon group.
    pub beacon: GroupId,
    /// Monitor group.
    pub monitor_group: GroupId,
    /// Node hosting partition `i`.
    pub partition_nodes: Vec<NodeId>,
    /// Client node.
    pub client_node: NodeId,
    /// Documents per partition (ground truth).
    pub docs_per_partition: Vec<u64>,
    /// Vocabulary size (for query generation).
    pub vocab: usize,
}

impl HotBotBuilder {
    /// Builds the cluster.
    pub fn build(self) -> HotBotCluster {
        let topo = &self.topology;
        let partitions = topo.worker_nodes;
        // Generate and statically partition the corpus (random doc →
        // partition placement, §3.2).
        let mut gen = CorpusGenerator::new(topo.seed ^ 0xc0de, self.vocab, 120, 1.0);
        let mut indexes: Vec<InvertedIndex> =
            (0..partitions).map(|_| InvertedIndex::new()).collect();
        let mut docs_per_partition = vec![0u64; partitions];
        for doc in gen.generate(self.corpus_docs) {
            let p = partition_of(doc.id, partitions);
            indexes[p].add(&doc);
            docs_per_partition[p] += 1;
        }
        let shared: Vec<Arc<InvertedIndex>> = indexes.into_iter().map(Arc::new).collect();

        let mut sim: Sim<SnsMsg, San> = Sim::new(
            SimConfig::new().with_seed(topo.seed),
            San::new(topo.san.clone()),
        );
        if self.tracing {
            sim.set_tracer(sns_core::trace::Tracer::sampled(
                sns_core::trace::Sampling::per(self.trace_sample_rate, topo.seed),
            ));
        }
        // One dedicated node per partition; workers are bound to them.
        let partition_nodes: Vec<NodeId> = (0..partitions)
            .map(|_| sim.add_node(NodeSpec::new(topo.cores_per_node, "dedicated")))
            .collect();
        let infra = sim.add_node(NodeSpec::new(topo.cores_per_node, "infra"));
        let fe_nodes: Vec<NodeId> = (0..topo.frontends)
            .map(|_| sim.add_node(NodeSpec::new(topo.cores_per_node, "frontend")))
            .collect();
        let client_node = sim.add_node(NodeSpec::new(4, "client"));

        let beacon = sim.create_group();
        let monitor_group = sim.create_group();
        let stub_cfg = WorkerStubConfig {
            beacon_group: beacon,
            monitor_group,
            report_period: self.sns.report_period,
            cost_weight_unit: None,
        };

        // Manager: pinned per-partition classes. Restart policy is
        // configurable; partition identity (and its index Arc) lives in
        // the factory, so a restarted worker re-attaches to its data.
        let mut classes = BTreeMap::new();
        for (p, index) in shared.iter().enumerate() {
            let index = Arc::clone(index);
            let cfg = stub_cfg.clone();
            let mut spec = WorkerSpec::pinned(
                1,
                Box::new(move || {
                    Box::new(WorkerStub::new(
                        Box::new(SearchWorker::new(p, Arc::clone(&index))),
                        cfg.clone(),
                    ))
                }),
            );
            spec.policy.restart_on_crash = self.auto_restart_partitions;
            // Workers are bound to their nodes (§3.2): partition p only
            // ever runs on its own node; while that node is down the
            // partition is simply unavailable.
            spec.policy.pinned_node = Some(partition_nodes[p]);
            classes.insert(WorkerClass::new(crate::partition_class(p)), spec);
        }
        let manager = sim.spawn(
            infra,
            Box::new(Manager::new(ManagerConfig {
                sns: self.sns.clone(),
                beacon_group: beacon,
                monitor_group,
                incarnation: 1,
                classes,
                fe_factory: None,
            })),
            "manager",
        );
        sim.spawn(
            infra,
            Box::new(Monitor::new(monitor_group, Duration::from_secs(10))),
            "monitor",
        );

        let mut fes = Vec::new();
        for &node in &fe_nodes {
            fes.push(sim.spawn(
                node,
                Box::new(FrontEnd::new(
                    Box::new(HotBotService::new(partitions)),
                    FeConfig {
                        sns: self.sns.clone(),
                        beacon_group: beacon,
                        monitor_group,
                        manager_factory: None,
                    },
                )),
                "frontend",
            ));
        }

        HotBotCluster {
            sim,
            fes,
            manager,
            beacon,
            monitor_group,
            partition_nodes,
            client_node,
            docs_per_partition,
            vocab: self.vocab,
        }
    }
}

impl HotBotCluster {
    /// Snapshot of the recorded request trace, or `None` unless the
    /// cluster was built with [`HotBotBuilder::with_tracing`]. Export
    /// with [`sns_core::trace::to_jsonl`] (diffing) or
    /// [`sns_core::trace::to_perfetto`] (viewing).
    pub fn trace(&self) -> Option<sns_core::trace::TraceLog> {
        self.sim.tracer().snapshot()
    }

    /// Attaches a query client; returns its report handle.
    pub fn attach_client(
        &mut self,
        rate: f64,
        queries: u64,
        start_delay: Duration,
    ) -> QueryReportHandle {
        let (client, report) = HotBotClient::new(
            self.fes.clone(),
            rate,
            queries,
            self.vocab,
            self.sim.stats().counter("unused") ^ 7,
            start_delay,
        );
        self.sim.spawn(self.client_node, Box::new(client), "client");
        report
    }

    /// Total corpus size.
    pub fn total_docs(&self) -> u64 {
        self.docs_per_partition.iter().sum()
    }
}
