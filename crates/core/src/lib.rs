//! # sns-core — the Scalable Network Service (SNS) layer
//!
//! This crate is the paper's primary contribution (§2): a reusable layer
//! that encapsulates scalability, load balancing, fault tolerance and
//! high availability so that service authors write only stateless workers
//! and front-end dispatch logic.
//!
//! Components (Figure 1 of the paper):
//!
//! * [`manager::Manager`] — the centralised, fault-tolerant load
//!   manager: collects load reports from worker stubs, maintains weighted
//!   moving averages, multicasts beacons with load-balancing hints,
//!   spawns workers on demand (threshold *H*, cooldown *D*, §4.5),
//!   recruits the overflow pool during bursts (§2.2.3), restarts crashed
//!   workers and front ends (process-peer fault tolerance, §3.1.3). All
//!   of its state is **soft**: a restarted manager rebuilds everything
//!   from re-registrations and load reports.
//! * [`worker::WorkerStub`] — wraps service-specific [`worker::WorkerLogic`]
//!   (a TACC worker, a cache partition, an origin server model): queues
//!   requests, reports queue length to the manager, registers on start,
//!   re-registers when a new manager incarnation appears, and isolates
//!   worker crashes from the system.
//! * [`stub::ManagerStub`] — the front-end side of the narrow API
//!   (§2.2.5): caches beacon hints (usable even while the manager is
//!   down, §3.1.8), picks workers by lottery scheduling weighted by
//!   estimated queue length with the §4.5 *queue-delta correction*, and
//!   recovers from stale choices with timeouts and retries.
//! * [`frontend::FrontEnd`] — the request-shepherding framework: a
//!   bounded thread pool, one service-specific async body per request
//!   ([`exec::service::AsyncService`]) hosted directly, and
//!   process-peer supervision of the manager.
//! * [`monitor::Monitor`] — the (non-graphical) system monitor: receives
//!   multicast reports, keeps an event log and counters, and raises
//!   operator alerts when components go quiet.
//!
//! The layer speaks one message type, [`msg::SnsMsg`], over the engine's
//! network abstraction; application payloads are type-erased
//! [`Payload`]s that carry their wire size for SAN bandwidth accounting.

#![warn(missing_docs)]

pub mod cluster;
pub mod control;
pub mod exec;
pub mod frontend;
pub mod invariant;
pub mod manager;
pub mod monitor;
pub mod msg;
pub mod shard;
pub mod slo;
pub mod stub;
pub mod topology;
pub mod trace;
pub mod worker;

use std::any::Any;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

pub use cluster::{Cluster, SettleStats};
pub use control::{
    Admission, ClusterView, ControlConfig, ControlEffect, ControlPlane, DispatchEffect,
    DispatchPlane, LiveLoad, NodeLoad, OverloadPolicy, SpawnPolicy, TenantPolicy,
};
pub use frontend::{Action, FrontEnd};
pub use invariant::{Invariant, MonitorLog, MonitorTap, TapHandle};
pub use manager::{Manager, ManagerConfig, WorkerFactory, WorkerSpec};
pub use monitor::{Monitor, MonitorEvent};
pub use msg::{BeaconData, ClientRequest, ClientResponse, Job, JobResult, SnsMsg, WorkerHint};
pub use shard::{DispatchShard, ShardedDispatch};
pub use slo::SloAggregator;
pub use stub::ManagerStub;
pub use topology::ClusterTopology;
pub use worker::{WorkerError, WorkerLogic, WorkerStub, WorkerStubConfig};

/// A worker class: the unit of replication, load balancing and spawning
/// (e.g. `"distiller/jpeg"`, `"cache"`, `"search/p3"`, `"origin"`): a
/// `Copy` name, compared, hashed and ordered by content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkerClass(&'static str);

impl WorkerClass {
    /// Creates a class by interning a runtime name (a process-wide lock):
    /// for set-up, not per request. A literal converts for free.
    pub fn new(name: impl AsRef<str>) -> Self {
        WorkerClass(sns_sim::intern(name.as_ref()))
    }

    /// The class name.
    pub fn name(&self) -> &'static str {
        self.0
    }
}

impl fmt::Display for WorkerClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl From<&'static str> for WorkerClass {
    fn from(s: &'static str) -> Self {
        WorkerClass(s)
    }
}

/// Lets a set or map keyed by class be searched by a `&str` name.
impl std::borrow::Borrow<str> for WorkerClass {
    fn borrow(&self) -> &str {
        self.0
    }
}

/// Application-level data carried through the SNS layer: type-erased, but
/// sized for SAN bandwidth accounting.
pub trait AppData: Any + Send + Sync + fmt::Debug {
    /// Bytes this payload occupies on the wire.
    fn wire_size(&self) -> u64;
    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
}

/// Shared handle to application data.
pub type Payload = Arc<dyn AppData>;

/// Convenience: downcasts a payload to a concrete type.
pub fn payload_as<T: 'static>(p: &Payload) -> Option<&T> {
    p.as_any().downcast_ref::<T>()
}

/// A simple byte-count payload for tests and synthetic content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blob {
    /// Logical length in bytes (contents are not materialised).
    pub len: u64,
    /// Free-form tag for assertions.
    pub tag: String,
}

impl AppData for Blob {
    fn wire_size(&self) -> u64 {
        self.len
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl Blob {
    /// Creates a blob payload.
    pub fn payload(len: u64, tag: impl Into<String>) -> Payload {
        Arc::new(Blob {
            len,
            tag: tag.into(),
        })
    }
}

/// Layer-wide timing and policy configuration.
#[derive(Debug, Clone)]
pub struct SnsConfig {
    /// Worker stub load-report period (paper: every half second, §4.6).
    pub report_period: Duration,
    /// Manager beacon period ("a few seconds apart", §3.1.8; default 1 s).
    pub beacon_period: Duration,
    /// Weighted-moving-average factor for queue lengths (new sample
    /// weight).
    pub wma_alpha: f64,
    /// Spawn threshold *H*: spawn when a class's average queue estimate
    /// exceeds this (§4.5).
    pub spawn_threshold_h: f64,
    /// Spawn cooldown *D*: spawning disabled this long after a spawn
    /// (§4.5).
    pub spawn_cooldown_d: Duration,
    /// Reap when a class's average queue stays below this…
    pub reap_threshold: f64,
    /// …for this long, and more than the class minimum is running.
    pub reap_idle_for: Duration,
    /// Dispatch timeout before the stub retries elsewhere (§3.1.8).
    pub dispatch_timeout: Duration,
    /// Retries after timeout before reporting failure to the service
    /// layer.
    pub max_retries: u32,
    /// Front-end thread-pool size (production TranSend: ~400, §3.1.1).
    pub fe_threads: u32,
    /// Front-end per-request processing overhead (TCP/kernel time,
    /// §4.4/§4.6).
    pub fe_request_overhead: Duration,
    /// Manager-death detection timeout at front ends (missed beacons).
    pub beacon_loss_timeout: Duration,
    /// Manager-side worker failure inference: a worker whose load
    /// reports stop for this long is presumed lost (SAN partition,
    /// wedged process) and replaced "on still-visible nodes" (§2.2.4).
    pub worker_report_timeout: Duration,
}

impl Default for SnsConfig {
    fn default() -> Self {
        SnsConfig {
            report_period: Duration::from_millis(500),
            beacon_period: Duration::from_secs(1),
            wma_alpha: 0.3,
            spawn_threshold_h: 6.0,
            spawn_cooldown_d: Duration::from_secs(5),
            reap_threshold: 0.5,
            reap_idle_for: Duration::from_secs(30),
            dispatch_timeout: Duration::from_secs(5),
            max_retries: 2,
            fe_threads: 400,
            fe_request_overhead: Duration::from_millis(4),
            beacon_loss_timeout: Duration::from_secs(4),
            worker_report_timeout: Duration::from_secs(4),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_class_identity() {
        let a = WorkerClass::new("distiller/gif");
        let b: WorkerClass = "distiller/gif".into();
        assert_eq!(a, b);
        assert_eq!(a.name(), "distiller/gif");
        assert_eq!(format!("{a}"), "distiller/gif");
    }

    #[test]
    fn payload_downcast() {
        let p = Blob::payload(123, "x");
        assert_eq!(p.wire_size(), 123);
        let b = payload_as::<Blob>(&p).unwrap();
        assert_eq!(b.tag, "x");
        assert!(payload_as::<String>(&p).is_none());
    }
}
