//! # cluster-sns — Cluster-Based Scalable Network Services
//!
//! Umbrella crate re-exporting the full reproduction of Fox, Gribble,
//! Chawathe, Brewer & Gauthier, *Cluster-Based Scalable Network Services*
//! (SOSP 1997): the SNS layer (scalability, load balancing, fault
//! tolerance), the TACC programming model, the BASE data-semantics
//! discipline, and the TranSend and HotBot services built on top.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! reproduced tables and figures.

pub use sns_cache as cache;
pub use sns_chaos as chaos;
pub use sns_core as core;
pub use sns_distillers as distillers;
pub use sns_hotbot as hotbot;
pub use sns_profiledb as profiledb;
pub use sns_rt as rt;
pub use sns_san as san;
pub use sns_search as search;
pub use sns_sim as sim;
pub use sns_tacc as tacc;
pub use sns_transend as transend;
pub use sns_workload as workload;

/// One-stop imports for building and driving clusters.
///
/// ```
/// use cluster_sns::prelude::*;
///
/// let topo = ClusterTopology::default().with_worker_nodes(4);
/// let builder = TranSendBuilder::new().with_topology(topo);
/// # let _ = builder;
/// ```
pub mod prelude {
    pub use sns_chaos::{FaultKind, FaultPlan, SimChaos, SimChaosConfig, SimClusterBuilder};
    pub use sns_core::topology::ClusterTopology;
    pub use sns_core::{Cluster, SettleStats, SnsConfig, WorkerClass};
    pub use sns_hotbot::{HotBotBuilder, HotBotCluster};
    pub use sns_rt::{RtCluster, RtConfig};
    pub use sns_san::{LinkParams, SanConfig, SanMode};
    pub use sns_transend::{TranSendBuilder, TranSendCluster, TranSendConfig};
    pub use sns_workload::trace::{Trace, TraceGenerator, WorkloadConfig};
}
