//! # sns-chaos — deterministic fault-injection plans and recovery invariants
//!
//! The paper's availability claims (§3.1.6 worker crashes on pathological
//! input, §3.1.3 process-peer restart, §4.6 beacon loss under SAN
//! saturation) only hold up under *systematic* failure schedules, not
//! single-fault demos. This crate turns the repo's one-off failure tests
//! into a reusable harness:
//!
//! * A declarative [`FaultPlan`] — a timed list of [`FaultKind`] events
//!   (worker crash, node down/up, manager failover, SAN partition,
//!   multicast loss burst, straggler slow-down).
//! * Two injectors compiling the *same plan* into scheduled events:
//!   [`sim::SimChaos`] drives the virtual-time engine (`sns-sim` +
//!   `sns-san`), [`rt::run_plan`] drives the wall-clock thread runtime
//!   (`sns-rt`).
//! * Recovery-invariant checkers over the recorded
//!   [`MonitorEvent`](sns_core::MonitorEvent) stream (see
//!   [`invariant`]) plus a stale-routing probe asserting the load
//!   balancer never routes to a dead worker beyond a grace window.
//! * A seeded, shrinking plan generator ([`gen::fault_plan`]) for
//!   property tests: random plans against a small cluster must satisfy
//!   the no-lost-jobs and drain-bound invariants, and failing plans
//!   shrink to a minimal event list.
//!
//! Everything is deterministic: same seed + same plan ⇒ byte-identical
//! monitor logs in the sim backend.

#![warn(missing_docs)]

pub mod gen;
pub mod harness;
pub mod invariant;
pub mod rt;
pub mod sim;

use std::fmt;
use std::time::Duration;

pub use gen::{fault_plan, PlanSpace};
pub use harness::{SimCluster, SimClusterBuilder};
pub use invariant::{
    check_death_reconciliation, check_tenant_isolation, check_upgrade_no_job_loss, p99,
    CrashBudget, RespawnCoverage, SpawnBudget,
};
pub use sim::{SimChaos, SimChaosConfig};

/// One fault or cluster operation to inject.
///
/// *Component* verbs (`KillWorker`) index into the currently live
/// candidates (sorted by id) modulo their count, so plans stay valid as
/// the population changes underneath them. *Node* verbs (`KillNode`,
/// `ReviveNode`, `Partition`, `Straggler`, `DrainNode`, `RejoinNode`)
/// index the pool's nodes in stable creation order: a `which` whose
/// node is missing or in the wrong state (already dead, not drained, …)
/// is recorded as skipped, never silently re-aimed at a different live
/// node. An event whose candidate set is empty at fire time is likewise
/// a skip, not an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Kill the `which`-th live component of `class` (a worker class such
    /// as `"cache"` or `"distiller/gif"`, or an engine kind such as
    /// `"frontend"`). In the rt backend the class names a worker pool.
    KillWorker {
        /// Worker class / component kind to target.
        class: String,
        /// Index into the live candidates (modulo their count).
        which: usize,
    },
    /// Kill the manager (sim: the `"manager"` component; rt: the manager
    /// thread). Process peers restart it in the sim backend.
    KillManager,
    /// Start a fresh manager incarnation (rt backend; the sim backend
    /// skips this — front ends restart the manager themselves, §3.1.3).
    RestartManager,
    /// Take the `which`-th live node of `pool` down with every component
    /// on it. Not supported by the rt backend (threads share one node).
    KillNode {
        /// Node pool tag (`"dedicated"`, `"overflow"`, …).
        pool: String,
        /// Index into the live nodes of the pool.
        which: usize,
    },
    /// Revive the `which`-th *dead* node of `pool` (empty, cores idle).
    ReviveNode {
        /// Node pool tag.
        pool: String,
        /// Index into the dead nodes of the pool.
        which: usize,
    },
    /// Isolate the `which`-th live node of `pool` from the rest of the
    /// SAN, healing after `heal_after`. Later partitions replace earlier
    /// ones (the SAN models one partition at a time).
    Partition {
        /// Node pool tag.
        pool: String,
        /// Index into the live nodes of the pool.
        which: usize,
        /// How long the partition lasts before healing.
        heal_after: Duration,
    },
    /// Drop every off-node datagram (beacons, load reports) for the
    /// window — the §4.6 multicast loss burst under SAN saturation.
    BeaconLoss {
        /// Burst duration.
        lasting: Duration,
    },
    /// Degrade the `which`-th node of `pool` to `1/slowdown` of its NIC
    /// bandwidth for the window (a straggler / queue-stall model); the
    /// original link parameters are restored afterwards.
    Straggler {
        /// Node pool tag.
        pool: String,
        /// Index into the live nodes of the pool.
        which: usize,
        /// Bandwidth divisor (≥ 1).
        slowdown: u32,
        /// How long the degradation lasts.
        lasting: Duration,
    },
    /// Drain the `which`-th node of `pool`: the manager stops placing
    /// work there and gracefully shuts the node's workers down once
    /// their queues empty (the §2.2 "temporarily disable a subset of
    /// nodes" operator verb). Skipped if the node is dead or already
    /// drained.
    DrainNode {
        /// Node pool tag.
        pool: String,
        /// Stable index into the pool's nodes.
        which: usize,
    },
    /// Return the `which`-th (drained) node of `pool` to service
    /// unchanged. Skipped if the node is dead or not drained.
    RejoinNode {
        /// Node pool tag.
        pool: String,
        /// Stable index into the pool's nodes.
        which: usize,
    },
    /// A rolling upgrade over the first `nodes` nodes of `pool`, `batch`
    /// at a time: each round drains a batch, waits `settle` for queues
    /// to empty and replacements to spawn elsewhere, then rejoins the
    /// batch at a bumped upgrade epoch (drain → restart at new
    /// incarnation → rejoin, §2.2 "upgrade them in place"). Rounds are
    /// `settle`-spaced, so the whole operation spans
    /// `ceil(nodes / batch) × settle`.
    RollingUpgrade {
        /// Node pool tag.
        pool: String,
        /// How many nodes (stable indices `0..nodes`) to upgrade.
        nodes: usize,
        /// Nodes taken down per round (≥ 1; clamped to 1 if 0).
        batch: usize,
        /// Per-round settle window between drain and upgraded rejoin.
        settle: Duration,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::KillWorker { class, which } => {
                write!(f, "kill-worker class={class} which={which}")
            }
            FaultKind::KillManager => write!(f, "kill-manager"),
            FaultKind::RestartManager => write!(f, "restart-manager"),
            FaultKind::KillNode { pool, which } => {
                write!(f, "kill-node pool={pool} which={which}")
            }
            FaultKind::ReviveNode { pool, which } => {
                write!(f, "revive-node pool={pool} which={which}")
            }
            FaultKind::Partition {
                pool,
                which,
                heal_after,
            } => write!(
                f,
                "partition pool={pool} which={which} heal-after={:.3}s",
                heal_after.as_secs_f64()
            ),
            FaultKind::BeaconLoss { lasting } => {
                write!(f, "beacon-loss lasting={:.3}s", lasting.as_secs_f64())
            }
            FaultKind::Straggler {
                pool,
                which,
                slowdown,
                lasting,
            } => write!(
                f,
                "straggler pool={pool} which={which} slowdown={slowdown}x lasting={:.3}s",
                lasting.as_secs_f64()
            ),
            FaultKind::DrainNode { pool, which } => {
                write!(f, "drain-node pool={pool} which={which}")
            }
            FaultKind::RejoinNode { pool, which } => {
                write!(f, "rejoin-node pool={pool} which={which}")
            }
            FaultKind::RollingUpgrade {
                pool,
                nodes,
                batch,
                settle,
            } => write!(
                f,
                "rolling-upgrade pool={pool} nodes={nodes} batch={batch} settle={:.3}s",
                settle.as_secs_f64()
            ),
        }
    }
}

/// A timed fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Offset from simulation/cluster start.
    pub at: Duration,
    /// What happens.
    pub kind: FaultKind,
}

/// A declarative fault schedule — the single artifact both backends
/// compile. Events are kept sorted by time (stably, so same-time events
/// fire in insertion order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The schedule, sorted by `at`.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan from events (sorted on construction).
    pub fn from_events(events: Vec<FaultEvent>) -> Self {
        let mut plan = FaultPlan { events };
        plan.normalize();
        plan
    }

    /// Appends an event, keeping the schedule sorted.
    pub fn with(mut self, at: Duration, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        self.normalize();
        self
    }

    fn normalize(&mut self) {
        self.events.sort_by_key(|e| e.at);
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Time of the last scheduled effect, including partition heals and
    /// loss-burst/straggler windows ending after their trigger.
    pub fn last_effect_at(&self) -> Duration {
        self.events
            .iter()
            .map(|e| match &e.kind {
                FaultKind::Partition { heal_after, .. } => e.at + *heal_after,
                FaultKind::BeaconLoss { lasting } => e.at + *lasting,
                FaultKind::Straggler { lasting, .. } => e.at + *lasting,
                FaultKind::RollingUpgrade {
                    nodes,
                    batch,
                    settle,
                    ..
                } => {
                    let rounds = nodes.div_ceil((*batch).max(1)) as u32;
                    e.at + settle.saturating_mul(rounds)
                }
                _ => e.at,
            })
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// The drain-bound horizon: last effect plus a recovery window. Tests
    /// run the cluster to this point and then assert every job answered.
    pub fn horizon(&self, recovery_window: Duration) -> Duration {
        self.last_effect_at() + recovery_window
    }

    /// Count of kill events (worker, manager, node) — the "crashes
    /// injected" side of the reconciliation invariant.
    pub fn kills(&self) -> usize {
        self.events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    FaultKind::KillWorker { .. }
                        | FaultKind::KillManager
                        | FaultKind::KillNode { .. }
                )
            })
            .count()
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan {{")?;
        for e in &self.events {
            writeln!(f, "  +{:.3}s {}", e.at.as_secs_f64(), e.kind)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_and_measures() {
        let plan = FaultPlan::new()
            .with(
                Duration::from_secs(30),
                FaultKind::BeaconLoss {
                    lasting: Duration::from_secs(2),
                },
            )
            .with(Duration::from_secs(10), FaultKind::KillManager)
            .with(
                Duration::from_secs(20),
                FaultKind::Partition {
                    pool: "dedicated".into(),
                    which: 0,
                    heal_after: Duration::from_secs(15),
                },
            );
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.events[0].kind, FaultKind::KillManager);
        // Partition heals at 35s — later than the 32s loss-burst end.
        assert_eq!(plan.last_effect_at(), Duration::from_secs(35));
        assert_eq!(
            plan.horizon(Duration::from_secs(60)),
            Duration::from_secs(95)
        );
        assert_eq!(plan.kills(), 1);
    }

    #[test]
    fn grammar_renders_each_kind() {
        let plan = FaultPlan::new()
            .with(
                Duration::from_secs(1),
                FaultKind::KillWorker {
                    class: "cache".into(),
                    which: 2,
                },
            )
            .with(
                Duration::from_secs(2),
                FaultKind::Straggler {
                    pool: "overflow".into(),
                    which: 0,
                    slowdown: 10,
                    lasting: Duration::from_secs(5),
                },
            );
        let text = plan.to_string();
        assert!(text.contains("+1.000s kill-worker class=cache which=2"));
        assert!(text.contains("+2.000s straggler pool=overflow which=0 slowdown=10x"));
    }

    #[test]
    fn same_time_events_keep_insertion_order() {
        let plan = FaultPlan::new()
            .with(Duration::from_secs(5), FaultKind::KillManager)
            .with(Duration::from_secs(5), FaultKind::RestartManager);
        assert_eq!(plan.events[0].kind, FaultKind::KillManager);
        assert_eq!(plan.events[1].kind, FaultKind::RestartManager);
    }
}
