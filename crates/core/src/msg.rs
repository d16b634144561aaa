//! The SNS wire protocol: every message exchanged between SNS components.
//!
//! Sizes are estimated per variant so the SAN model can account for
//! bandwidth: beacons grow with the number of advertised workers, work
//! requests and responses carry their payload sizes.

use std::collections::BTreeMap;
use std::sync::Arc;

use sns_sim::engine::Wire;
use sns_sim::time::SimTime;
use sns_sim::{ComponentId, NodeId};

use crate::monitor::MonitorEvent;
use crate::{Payload, WorkerClass};

/// A user profile as delivered to workers with each request (TACC
/// customisation, §2.3).
pub type ProfileData = Arc<BTreeMap<String, String>>;

/// One unit of work dispatched to a worker.
#[derive(Debug, Clone)]
pub struct Job {
    /// Front-end-unique dispatch tag (also used for retries).
    pub id: u64,
    /// Class the job is addressed to.
    pub class: WorkerClass,
    /// Worker-specific operation (e.g. `"distill"`, `"get"`, `"put"`,
    /// `"query"`).
    pub op: &'static str,
    /// Input payload.
    pub input: Payload,
    /// The requesting user's profile, delivered alongside the data so
    /// generic workers can be reused across services (§2.3).
    pub profile: Option<ProfileData>,
    /// Component to send the [`SnsMsg::WorkResponse`] to.
    pub reply_to: ComponentId,
    /// Head-sampling decision of the request this job belongs to
    /// (see [`crate::trace::Sampling`]): workers emit queue/service
    /// spans only for sampled jobs, so a sampled request keeps its
    /// whole span tree in both backends. Always `true` when tracing
    /// runs unsampled; ignored when tracing is off. Costs no wire
    /// bytes — it is telemetry metadata, not payload.
    pub sampled: bool,
}

/// Result of a job.
#[derive(Debug, Clone)]
pub enum JobResult {
    /// Success with an output payload.
    Ok(Payload),
    /// The worker processed the job but declined it (soft failure; the
    /// service layer decides a fallback, §2.2.4).
    Failed(String),
}

/// Per-worker load information advertised in beacons.
#[derive(Debug, Clone)]
pub struct WorkerHint {
    /// The worker.
    pub worker: ComponentId,
    /// Node it runs on.
    pub node: NodeId,
    /// Manager's smoothed queue-length estimate.
    pub est_qlen: f64,
    /// Whether it runs on an overflow-pool node.
    pub overflow: bool,
}

/// The manager's periodic multicast beacon (§3.1.2): announces the
/// manager's existence (for discovery and failure detection) and
/// piggybacks load-balancing hints.
#[derive(Debug, Clone)]
pub struct BeaconData {
    /// The manager component.
    pub manager: ComponentId,
    /// Monotonically increasing incarnation; workers re-register when it
    /// changes (§3.1.3).
    pub incarnation: u64,
    /// Load hints per class.
    pub hints: BTreeMap<WorkerClass, Vec<WorkerHint>>,
    /// When the beacon was emitted.
    pub at: SimTime,
}

/// A client-visible request entering a front end.
#[derive(Debug, Clone)]
pub struct ClientRequest {
    /// Client-assigned id (echoed in the response).
    pub id: u64,
    /// User identification token (cookie / IP, §2.3).
    pub user: String,
    /// Request target (URL or query string).
    pub url: String,
    /// Service-specific extra payload.
    pub body: Option<Payload>,
}

/// The front end's reply to a client.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Echo of [`ClientRequest::id`].
    pub id: u64,
    /// Outcome payload (possibly an approximate answer) or error text.
    pub result: Result<Payload, String>,
    /// Whether the SNS layer degraded the answer (stale/original/partial
    /// content — BASE approximate answers, §3.1.8).
    pub degraded: bool,
}

/// Every message the SNS layer sends.
#[derive(Debug, Clone)]
pub enum SnsMsg {
    /// Worker → manager: announce existence (on start and on new manager
    /// incarnations).
    RegisterWorker {
        /// The worker stub.
        worker: ComponentId,
        /// Its class.
        class: WorkerClass,
        /// Node it runs on.
        node: NodeId,
        /// Whether its node is in the overflow pool.
        overflow: bool,
    },
    /// Worker → manager: clean shutdown.
    DeregisterWorker {
        /// The worker stub.
        worker: ComponentId,
    },
    /// Worker → manager: periodic load report (queue length, §3.1.2).
    LoadReport {
        /// The worker stub.
        worker: ComponentId,
        /// Its class.
        class: WorkerClass,
        /// Instantaneous queue length (queued + in service).
        qlen: u32,
    },
    /// Front end → manager: a dispatch found no worker of `class`; the
    /// manager locates or spawns one (§3.1.2).
    NeedWorker {
        /// Requesting front end.
        fe: ComponentId,
        /// Class needed.
        class: WorkerClass,
    },
    /// Front end → manager: register for supervision (process peers).
    RegisterFrontEnd {
        /// The front end.
        fe: ComponentId,
        /// Node it runs on.
        node: NodeId,
    },
    /// Manager → all (multicast): existence beacon + load hints.
    Beacon(Arc<BeaconData>),
    /// Front end → worker: do work.
    WorkRequest(Arc<Job>),
    /// Worker → front end: work result.
    WorkResponse {
        /// Echo of [`Job::id`].
        job_id: u64,
        /// The worker that processed it.
        worker: ComponentId,
        /// Outcome.
        result: JobResult,
    },
    /// Manager → worker: drain and exit (reaping, §3.1.2).
    Shutdown,
    /// Operator → manager: drain a node for a hot upgrade (§2.2:
    /// "temporarily disable a subset of nodes and then upgrade them in
    /// place"). Workers on it are drained and respawned elsewhere; no
    /// new work is placed on it until [`SnsMsg::UndrainNode`].
    DrainNode {
        /// Node to take out of service.
        node: NodeId,
    },
    /// Operator → manager: return an upgraded node to service.
    UndrainNode {
        /// Node to return to the placement pool.
        node: NodeId,
    },
    /// Operator → manager: a drained node finished its in-place upgrade
    /// and restarts at a new incarnation; return it to service and bump
    /// its upgrade epoch (rolling-upgrade rounds, §2.2).
    UpgradeNode {
        /// Node rejoining at a new incarnation.
        node: NodeId,
    },
    /// Client → front end.
    Request(Arc<ClientRequest>),
    /// Front end → client.
    Response(Arc<ClientResponse>),
    /// Any component → monitor (multicast group).
    Monitor(Arc<MonitorEvent>),
}

/// Estimated fixed header cost of any SNS message.
const HDR: u64 = 64;

impl Wire for SnsMsg {
    fn wire_size(&self) -> u64 {
        match self {
            SnsMsg::RegisterWorker { class, .. } => HDR + class.name().len() as u64 + 16,
            SnsMsg::DeregisterWorker { .. } => HDR,
            SnsMsg::LoadReport { class, .. } => HDR + class.name().len() as u64 + 8,
            SnsMsg::NeedWorker { class, .. } => HDR + class.name().len() as u64,
            SnsMsg::RegisterFrontEnd { .. } => HDR + 8,
            SnsMsg::Beacon(b) => {
                let hints: u64 = b
                    .hints
                    .iter()
                    .map(|(c, v)| c.name().len() as u64 + v.len() as u64 * 24)
                    .sum();
                HDR + 16 + hints
            }
            SnsMsg::WorkRequest(job) => {
                let profile: u64 = job
                    .profile
                    .as_ref()
                    .map(|p| p.iter().map(|(k, v)| (k.len() + v.len() + 8) as u64).sum())
                    .unwrap_or(0);
                HDR + job.op.len() as u64 + job.input.wire_size() + profile
            }
            SnsMsg::WorkResponse { result, .. } => {
                HDR + match result {
                    JobResult::Ok(p) => p.wire_size(),
                    JobResult::Failed(e) => e.len() as u64,
                }
            }
            SnsMsg::Shutdown => HDR,
            SnsMsg::DrainNode { .. } | SnsMsg::UndrainNode { .. } | SnsMsg::UpgradeNode { .. } => {
                HDR + 8
            }
            SnsMsg::Request(r) => {
                HDR + r.url.len() as u64
                    + r.user.len() as u64
                    + r.body.as_ref().map(|b| b.wire_size()).unwrap_or(0)
            }
            SnsMsg::Response(r) => {
                HDR + match &r.result {
                    Ok(p) => p.wire_size(),
                    Err(e) => e.len() as u64,
                }
            }
            SnsMsg::Monitor(_) => HDR + 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Blob;

    #[test]
    fn payload_sizes_flow_through() {
        let job = Arc::new(Job {
            id: 1,
            class: "distiller/gif".into(),
            op: "distill",
            input: Blob::payload(10_000, "gif"),
            profile: None,
            reply_to: ComponentId(7),
            sampled: true,
        });
        let msg = SnsMsg::WorkRequest(job);
        assert!(msg.wire_size() > 10_000);
        assert!(msg.wire_size() < 10_200);
        let resp = SnsMsg::WorkResponse {
            job_id: 1,
            worker: ComponentId(9),
            result: JobResult::Ok(Blob::payload(1500, "distilled")),
        };
        assert_eq!(resp.wire_size(), 64 + 1500);
    }

    #[test]
    fn beacon_size_grows_with_hints() {
        let small = SnsMsg::Beacon(Arc::new(BeaconData {
            manager: ComponentId(1),
            incarnation: 1,
            hints: BTreeMap::new(),
            at: SimTime::ZERO,
        }));
        let mut hints = BTreeMap::new();
        hints.insert(
            WorkerClass::new("distiller/gif"),
            (0..100)
                .map(|i| WorkerHint {
                    worker: ComponentId(i),
                    node: NodeId(0),
                    est_qlen: 0.0,
                    overflow: false,
                })
                .collect(),
        );
        let big = SnsMsg::Beacon(Arc::new(BeaconData {
            manager: ComponentId(1),
            incarnation: 1,
            hints,
            at: SimTime::ZERO,
        }));
        assert!(big.wire_size() > small.wire_size() + 2000);
    }

    #[test]
    fn profile_counts_toward_request_size() {
        let mut profile = BTreeMap::new();
        profile.insert("quality".to_string(), "25".to_string());
        let with = SnsMsg::WorkRequest(Arc::new(Job {
            id: 1,
            class: "x".into(),
            op: "o",
            input: Blob::payload(100, "b"),
            profile: Some(Arc::new(profile)),
            reply_to: ComponentId(1),
            sampled: true,
        }));
        let without = SnsMsg::WorkRequest(Arc::new(Job {
            id: 1,
            class: "x".into(),
            op: "o",
            input: Blob::payload(100, "b"),
            profile: None,
            reply_to: ComponentId(1),
            sampled: true,
        }));
        assert!(with.wire_size() > without.wire_size());
    }
}
