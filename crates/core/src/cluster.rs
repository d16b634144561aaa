//! The backend-agnostic cluster surface: one trait that chaos plans,
//! invariant checkers and parity tests drive, whether the cluster
//! underneath is the deterministic simulator or real OS threads.
//!
//! The paper's layered architecture (§2.2.5) deliberately narrows the
//! interface between the service and the SNS runtime; this trait is
//! that narrow waist for *test harnesses*. Everything a fault script
//! needs — submit load, count workers, crash things, partition the
//! beacon channel, read the monitor log — appears once here instead of
//! as two hand-matched inherent APIs on `RtCluster` and the sim
//! harness. A plan written against `&dyn Cluster` runs byte-for-byte
//! identically against either backend, which is how the
//! `control_plane_parity` discipline extends to chaos coverage.
//!
//! Backends are asynchronous in different senses (virtual event time
//! vs. wall clock), so the trait has no blocking per-job receive;
//! instead [`Cluster::submit`] is fire-and-remember and
//! [`Cluster::settle`] drives the backend until the submitted jobs
//! resolve (or a budget elapses), reporting how many answered.

use std::time::Duration;

use sns_sim::stats::MetricKey;

use crate::invariant::MonitorLog;
use crate::trace::TraceLog;
use crate::Payload;

/// Outcome of a [`Cluster::settle`] call: how the jobs submitted since
/// the previous settle resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SettleStats {
    /// Jobs that completed with a worker response.
    pub answered: u64,
    /// Jobs that did not resolve within the budget (still outstanding
    /// or explicitly failed by the dispatch plane).
    pub failed: u64,
}

impl SettleStats {
    /// Total jobs the settle accounted for.
    pub fn total(&self) -> u64 {
        self.answered + self.failed
    }
}

/// A running SNS cluster as seen by harness code: submit jobs, inject
/// faults, observe decisions. Implemented by the threaded
/// `sns_rt::RtCluster` and by the simulator harness in `sns-chaos`.
///
/// Fault injectors index *nodes* by position (`which`) in the stable
/// creation order of the worker pool — both backends create nodes in
/// the same order, so position is the portable name. A verb whose
/// target is not currently eligible (killing a node that is already
/// dead or drained, reviving one that is up, an index past the pool)
/// returns `false`/`None` and changes nothing: the injector reports a
/// skip instead of silently re-aiming the fault at a different live
/// node, so a plan always hits the node it names or visibly misses.
pub trait Cluster {
    /// Short backend name for diagnostics (`"sim"`, `"rt"`).
    fn backend(&self) -> &'static str;

    /// Queues one job of `class` for dispatch. The job is remembered
    /// and accounted for by the next [`Cluster::settle`].
    fn submit(&self, class: &str, op: &'static str, input: Payload);

    /// Runs the backend until all jobs submitted since the last settle
    /// resolve, or `budget` of backend time (virtual for the sim, wall
    /// clock for rt) elapses. With nothing pending, still advances the
    /// backend by up to `budget` — useful for letting recovery or
    /// beacon traffic play out.
    fn settle(&self, budget: Duration) -> SettleStats;

    /// Live workers of `class`.
    fn workers_of(&self, class: &str) -> usize;

    /// Crashes one live worker of `class`; `false` if none exist.
    fn crash_worker(&self, class: &str) -> bool;

    /// Kills the manager (its soft state dies with it, §3.1.5).
    fn kill_manager(&self);

    /// Starts a fresh manager incarnation that rebuilds state from
    /// re-registrations and load reports.
    fn restart_manager(&self);

    /// Kills the `which`-th pool node — all components on it die —
    /// returning how many components died, or `None` when the index is
    /// out of range or that node is already dead (a skip, not a re-aim).
    fn kill_node(&self, which: usize) -> Option<u64>;

    /// Brings the `which`-th pool node back, empty — the manager must
    /// repopulate it; `false` when the index is out of range or that
    /// node is already up.
    fn revive_node(&self, which: usize) -> bool;

    /// Slows the `which`-th pool node by `factor` (`1.0` restores
    /// normal speed); `false` when the index is out of range or that
    /// node is dead.
    fn set_node_slowdown(&self, which: usize, factor: f64) -> bool;

    /// Drains the `which`-th pool node: the manager stops placing work
    /// there and its workers shut down once their queues empty; `false`
    /// when the index is out of range or the node is dead or already
    /// drained.
    fn drain_node(&self, which: usize) -> bool;

    /// Returns the `which`-th pool node to service after a drain. With
    /// `upgraded` the node rejoins at a bumped upgrade epoch (a
    /// rolling-upgrade round completing); `false` when the index is out
    /// of range or the node is dead or not drained.
    fn rejoin_node(&self, which: usize, upgraded: bool) -> bool;

    /// Drops (or restores) all beacon traffic — the §3.1.8 "front ends
    /// keep serving from cached hints" partition.
    fn set_beacon_blackout(&self, on: bool);

    /// Snapshot of the monitor's decision log.
    fn monitor_log(&self) -> MonitorLog;

    /// Reads a counter by typed key (0 if never incremented).
    fn counter(&self, key: MetricKey) -> u64;

    /// Snapshot of the trace log, if tracing was enabled.
    fn trace_snapshot(&self) -> Option<TraceLog>;
}
