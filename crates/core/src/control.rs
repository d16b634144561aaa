//! The sans-IO control plane: backend-agnostic state machines for the
//! manager and the manager stub.
//!
//! The paper's central claim (§3) is that one layered architecture —
//! manager, front ends, worker stubs, monitor — carries every service.
//! This module makes the *decision* half of that architecture a pure
//! library: [`ControlPlane`] holds the manager's soft state (worker
//! registry, load averages, spawn policies, drain set) and
//! [`DispatchPlane`] holds the stub's (hint cache, outstanding
//! dispatches and their deadlines, the §4.5 queue-delta correction). Neither owns a clock, a
//! thread or a channel: every handler consumes explicit inputs (`now`, a
//! [`ClusterView`], a registration, a death) and appends an ordered list
//! of [`ControlEffect`]s / [`DispatchEffect`]s for the caller to apply.
//!
//! Two drivers interpret the effects today:
//!
//! * the simulator's [`crate::Manager`] / [`crate::ManagerStub`]
//!   components, which map effects onto engine calls (`ctx.spawn`,
//!   `ctx.send`, `ctx.multicast`, stats counters) — effect order is
//!   exactly the old in-line call order, so simulation runs are
//!   bit-for-bit unchanged;
//! * the threaded runtime's `sns_rt::RtCluster`, which maps the same
//!   effects onto OS threads, channel inboxes and a tapped
//!   [`crate::MonitorLog`].
//!
//! The driver contract: build a [`ClusterView`] of the *currently alive*
//! nodes, call one handler, then apply the returned effects **in
//! order**, confirming each [`ControlEffect::Spawn`] with
//! [`ControlPlane::confirm_spawn`] before invoking any further handler.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use sns_sim::rng::Pcg32;
use sns_sim::time::SimTime;
use sns_sim::{ComponentId, MetricKey, NodeId};

use crate::monitor::MonitorEvent;
use crate::msg::{BeaconData, Job, ProfileData, WorkerHint};
use crate::trace::{self, Sampling, SpanCtx, SpanId, SpanRecord};
use crate::{Payload, SnsConfig, WorkerClass};

/// Per-class scaling policy (pure data; the worker factory lives with
/// the driver, see `WorkerSpec` in [`crate::manager`]).
#[derive(Debug, Clone)]
pub struct SpawnPolicy {
    /// Never fewer than this many workers (bootstrap + crash restarts).
    pub min_workers: u32,
    /// Hard cap on concurrently live workers of this class (0 = no cap).
    pub max_workers: u32,
    /// At most this many workers of this class per node.
    pub max_per_node: u32,
    /// Whether the threshold-H autoscaler manages this class (HotBot's
    /// pinned partition workers set this false, §3.2).
    pub auto_scale: bool,
    /// Restart crashed workers of this class.
    pub restart_on_crash: bool,
    /// Bind this class to one node (HotBot partition workers, §3.2:
    /// "All workers bound to their nodes"). While the node is down the
    /// class simply cannot run — coverage degrades instead.
    pub pinned_node: Option<NodeId>,
}

impl SpawnPolicy {
    /// Typical policy for an auto-scaled, restartable worker class.
    pub fn scaled(min_workers: u32) -> Self {
        SpawnPolicy {
            min_workers,
            max_workers: 0,
            max_per_node: 4,
            auto_scale: true,
            restart_on_crash: true,
            pinned_node: None,
        }
    }

    /// Policy for pinned, non-scaled workers (cache partitions, search
    /// partitions): exactly `n`, restarted on crash.
    pub fn pinned(n: u32) -> Self {
        SpawnPolicy {
            min_workers: n,
            max_workers: n,
            max_per_node: 1,
            auto_scale: false,
            restart_on_crash: true,
            pinned_node: None,
        }
    }
}

/// One placement candidate in a [`ClusterView`].
#[derive(Debug, Clone, Copy)]
pub struct NodeLoad {
    /// The node.
    pub node: NodeId,
    /// Components currently running on it (all kinds).
    pub components: u32,
}

/// The driver's snapshot of the cluster, taken at handler entry. Only
/// *alive* nodes appear; a dead node is simply absent.
#[derive(Debug, Clone, Default)]
pub struct ClusterView {
    /// Alive dedicated-pool nodes, in id order.
    pub dedicated: Vec<NodeLoad>,
    /// Alive overflow-pool nodes, in id order (§2.2.3).
    pub overflow: Vec<NodeLoad>,
    /// Liveness of every pinned node referenced by a policy.
    pub pinned_alive: BTreeMap<NodeId, bool>,
    /// How long a spawn takes to come up (pending-expiry accounting).
    pub spawn_latency: Duration,
}

/// Construction parameters for a [`ControlPlane`].
#[derive(Debug, Clone)]
pub struct ControlConfig {
    /// Layer timing/policy knobs.
    pub sns: SnsConfig,
    /// This incarnation (strictly greater than any predecessor's).
    pub incarnation: u64,
    /// Whether the driver can build replacement front ends (process-peer
    /// restart of front ends, §3.1.3).
    pub restart_front_ends: bool,
}

/// An instruction from the [`ControlPlane`] to its driver. Apply in
/// order; the variants carry everything the driver needs.
#[derive(Debug)]
pub enum ControlEffect {
    /// Start a worker of `class` on `node`. The driver builds the
    /// component (its factory), places it, watches it, and reports the
    /// assigned id via [`ControlPlane::confirm_spawn`] before the next
    /// handler call.
    Spawn {
        /// Confirmation token for [`ControlPlane::confirm_spawn`].
        token: u64,
        /// Class to build.
        class: WorkerClass,
        /// Placement decision.
        node: NodeId,
        /// Whether `node` is in the overflow pool.
        overflow: bool,
    },
    /// Start a replacement front end on `node` (driver's `fe_factory`).
    SpawnFrontEnd {
        /// Placement decision.
        node: NodeId,
    },
    /// Ask a worker to drain and exit (reaping, hot upgrades).
    Shutdown {
        /// The worker.
        worker: ComponentId,
    },
    /// Publish a beacon on the beacon group.
    Beacon(Arc<BeaconData>),
    /// Subscribe to death notification for a component.
    Watch(ComponentId),
    /// Unsubscribe.
    Unwatch(ComponentId),
    /// Publish a monitor event on the monitor group.
    Emit(MonitorEvent),
    /// Bump a stats counter.
    Incr {
        /// Counter name.
        key: &'static str,
        /// Amount.
        n: u64,
    },
    /// Record a time series sample.
    Sample {
        /// Interned series name.
        key: MetricKey,
        /// Sample time.
        at: SimTime,
        /// Sample value.
        value: f64,
    },
    /// A rival manager won (duplicate-restart resolution): this
    /// incarnation must exit.
    StepDown,
}

#[derive(Debug, Clone)]
struct WorkerInfo {
    class: WorkerClass,
    node: NodeId,
    overflow: bool,
    /// Weighted moving average of reported queue length.
    wma: f64,
    last_report: SimTime,
}

#[derive(Debug, Default, Clone)]
struct ClassRuntime {
    last_spawn: Option<SimTime>,
    low_since: Option<SimTime>,
    /// Cached interned name of the class's average-queue series, so the
    /// periodic rebalance pass never allocates.
    avg_qlen_key: Option<MetricKey>,
}

/// A spawn issued whose worker has not yet registered.
#[derive(Debug, Clone)]
struct PendingSpawn {
    class: WorkerClass,
    node: NodeId,
    at: SimTime,
}

/// Per-handler scratch: spawns issued during the current handler call,
/// counted into placement totals so consecutive placements within one
/// call see each other (exactly as the old in-engine code saw its own
/// `ctx.spawn`s reflected in `count_components_on`).
type ExtraSpawns = BTreeMap<NodeId, u32>;

/// Placeholder registry key for a spawn the driver has not confirmed
/// yet. Tokens count up from 0, so these sit far above any real id.
fn placeholder(token: u64) -> ComponentId {
    ComponentId(u64::MAX - token)
}

/// The manager's decision core: all soft state (§3.1.3), no I/O.
pub struct ControlPlane {
    cfg: ControlConfig,
    policies: BTreeMap<WorkerClass, SpawnPolicy>,
    me: ComponentId,
    node: NodeId,
    workers: BTreeMap<ComponentId, WorkerInfo>,
    fes: BTreeMap<ComponentId, NodeId>,
    runtime: BTreeMap<WorkerClass, ClassRuntime>,
    pending: BTreeMap<ComponentId, PendingSpawn>,
    /// Nodes taken out of service for hot upgrades (§2.2).
    drained: BTreeSet<NodeId>,
    /// Software epoch per node, bumped by in-place upgrades
    /// ([`ControlPlane::on_upgrade_node`]); absent means epoch 0.
    node_epoch: BTreeMap<NodeId, u64>,
    /// Whether this incarnation acts as the manager: set by
    /// [`ControlPlane::on_start`], cleared for good by a step-down.
    leading: bool,
    load_reports_handled: u64,
    started_at: Option<SimTime>,
    next_token: u64,
}

impl ControlPlane {
    /// Creates a plane with no classes registered.
    pub fn new(cfg: ControlConfig) -> Self {
        ControlPlane {
            cfg,
            policies: BTreeMap::new(),
            me: ComponentId::EXTERNAL,
            node: NodeId(0),
            workers: BTreeMap::new(),
            fes: BTreeMap::new(),
            runtime: BTreeMap::new(),
            pending: BTreeMap::new(),
            drained: BTreeSet::new(),
            node_epoch: BTreeMap::new(),
            leading: false,
            load_reports_handled: 0,
            started_at: None,
            next_token: 0,
        }
    }

    /// Registers (or replaces) a class policy.
    pub fn add_class(&mut self, class: WorkerClass, policy: SpawnPolicy) {
        self.policies.insert(class, policy);
    }

    /// The policy for a class, if registered.
    pub fn policy(&self, class: &WorkerClass) -> Option<&SpawnPolicy> {
        self.policies.get(class)
    }

    /// Nodes any policy pins a class to (the driver reports their
    /// liveness in [`ClusterView::pinned_alive`]).
    pub fn pinned_nodes(&self) -> Vec<NodeId> {
        self.policies
            .values()
            .filter_map(|p| p.pinned_node)
            .collect()
    }

    /// This incarnation.
    pub fn incarnation(&self) -> u64 {
        self.cfg.incarnation
    }

    /// The layer configuration.
    pub fn sns(&self) -> &SnsConfig {
        &self.cfg.sns
    }

    /// Load reports processed (the §4.6 manager-capacity experiment reads
    /// this).
    pub fn load_reports_handled(&self) -> u64 {
        self.load_reports_handled
    }

    /// Registered live workers + unconfirmed/unregistered spawns of a
    /// class (rt drivers use this to compute ensure targets).
    pub fn class_strength(&self, class: &WorkerClass) -> u32 {
        self.live_of_class(class).len() as u32 + self.pending_of_class(class)
    }

    /// Binds a [`ControlEffect::Spawn`] to the component id the driver
    /// assigned. Must be called while applying the effect list, before
    /// the next handler call.
    pub fn confirm_spawn(&mut self, token: u64, id: ComponentId) {
        if let Some(p) = self.pending.remove(&placeholder(token)) {
            self.pending.insert(id, p);
        }
    }

    fn pending_of_class(&self, class: &WorkerClass) -> u32 {
        self.pending.values().filter(|p| &p.class == class).count() as u32
    }

    fn live_of_class(&self, class: &WorkerClass) -> Vec<(ComponentId, &WorkerInfo)> {
        self.workers
            .iter()
            .filter(|(_, w)| &w.class == class)
            .map(|(&id, w)| (id, w))
            .collect()
    }

    /// Chooses a node for a new worker of `class`: dedicated nodes first
    /// (fewest workers of this class, then fewest total), then the
    /// overflow pool (§2.2.3). Returns the node and whether it is
    /// overflow.
    fn choose_node(
        &self,
        view: &ClusterView,
        extra: &ExtraSpawns,
        class: &WorkerClass,
        max_per_node: u32,
    ) -> Option<(NodeId, bool)> {
        for (pool, is_overflow) in [(&view.dedicated, false), (&view.overflow, true)] {
            let mut best: Option<(u32, u32, NodeId)> = None;
            for nl in pool {
                let node = nl.node;
                if self.drained.contains(&node) {
                    continue;
                }
                let pending_here = self
                    .pending
                    .values()
                    .filter(|p| p.node == node && &p.class == class)
                    .count() as u32;
                let mine = self
                    .workers
                    .values()
                    .filter(|w| w.node == node && &w.class == class)
                    .count() as u32
                    + pending_here;
                if max_per_node > 0 && mine >= max_per_node {
                    continue;
                }
                let total = nl.components + extra.get(&node).copied().unwrap_or(0);
                let cand = (mine, total, node);
                if best.is_none_or(|b| cand < b) {
                    best = Some(cand);
                }
            }
            if let Some((_, _, node)) = best {
                return Some((node, is_overflow));
            }
        }
        None
    }

    fn spawn_worker(
        &mut self,
        now: SimTime,
        view: &ClusterView,
        extra: &mut ExtraSpawns,
        class: &WorkerClass,
        out: &mut Vec<ControlEffect>,
    ) -> bool {
        let Some(policy) = self.policies.get(class) else {
            return false;
        };
        let live = self.live_of_class(class).len() as u32;
        let pending = self.pending_of_class(class);
        if policy.max_workers > 0 && live + pending >= policy.max_workers {
            return false;
        }
        let max_per_node = policy.max_per_node;
        let placement = match policy.pinned_node {
            Some(n) if self.drained.contains(&n) => None,
            Some(n) if view.pinned_alive.get(&n).copied().unwrap_or(false) => Some((n, false)),
            Some(_) => None, // pinned node is down: the class waits
            None => self.choose_node(view, extra, class, max_per_node),
        };
        let Some((node, overflow)) = placement else {
            out.push(ControlEffect::Emit(MonitorEvent::Warning(format!(
                "no node available to spawn {class}"
            ))));
            out.push(ControlEffect::Incr {
                key: "manager.spawn_no_node",
                n: 1,
            });
            return false;
        };
        let token = self.next_token;
        self.next_token += 1;
        out.push(ControlEffect::Spawn {
            token,
            class: *class,
            node,
            overflow,
        });
        *extra.entry(node).or_insert(0) += 1;
        self.pending.insert(
            placeholder(token),
            PendingSpawn {
                class: *class,
                node,
                at: now,
            },
        );
        let rt = self.runtime.entry(*class).or_default();
        rt.last_spawn = Some(now);
        out.push(ControlEffect::Incr {
            key: "manager.spawns",
            n: 1,
        });
        if overflow {
            out.push(ControlEffect::Incr {
                key: "manager.overflow_spawns",
                n: 1,
            });
        }
        out.push(ControlEffect::Emit(MonitorEvent::SpawnedWorker {
            class: *class,
            node,
            overflow,
        }));
        true
    }

    /// The beacon this plane would publish at `now` (pure; drivers that
    /// refresh hints out-of-band call this directly).
    pub fn make_beacon(&self, now: SimTime) -> BeaconData {
        let mut hints: BTreeMap<WorkerClass, Vec<WorkerHint>> = BTreeMap::new();
        for (&id, w) in &self.workers {
            hints.entry(w.class).or_default().push(WorkerHint {
                worker: id,
                node: w.node,
                est_qlen: w.wma,
                overflow: w.overflow,
            });
        }
        BeaconData {
            manager: self.me,
            incarnation: self.cfg.incarnation,
            hints,
            at: now,
        }
    }

    fn beacon(&mut self, now: SimTime, out: &mut Vec<ControlEffect>) {
        out.push(ControlEffect::Beacon(Arc::new(self.make_beacon(now))));
        out.push(ControlEffect::Incr {
            key: "manager.beacons",
            n: 1,
        });
    }

    fn policy_tick(
        &mut self,
        now: SimTime,
        view: &ClusterView,
        extra: &mut ExtraSpawns,
        out: &mut Vec<ControlEffect>,
    ) {
        // Soft-state rebuild grace: a (re)started manager waits two
        // beacon rounds for surviving workers to re-register before
        // enforcing class minimums, otherwise it would double-spawn
        // workers that are alive and about to announce themselves
        // (§3.1.3).
        let grace = self.cfg.sns.beacon_period * 2;
        let in_grace = self.started_at.is_some_and(|t| now.since(t) < grace);
        // Expire pending spawns that never registered (their component is
        // watched, so deaths are handled; this is a backstop against lost
        // registrations).
        let expiry = view.spawn_latency + self.cfg.sns.beacon_period * 2;
        self.pending.retain(|_, p| now.since(p.at) < expiry);
        // Timeout-based failure inference (§2.2.4): a worker whose load
        // reports have stopped is presumed unreachable (SAN partition,
        // wedged process). Drop it from the soft state — hints stop
        // advertising it next beacon — and replace it on a still-visible
        // node. If it was merely partitioned, it re-adopts itself with
        // its next report and any surplus is reaped.
        if !in_grace {
            let report_timeout = self.cfg.sns.worker_report_timeout;
            let silent: Vec<ComponentId> = self
                .workers
                .iter()
                .filter(|(_, w)| now.since(w.last_report) > report_timeout)
                .map(|(&id, _)| id)
                .collect();
            for id in silent {
                let Some(info) = self.workers.remove(&id) else {
                    continue;
                };
                out.push(ControlEffect::Unwatch(id));
                out.push(ControlEffect::Incr {
                    key: "manager.report_timeouts",
                    n: 1,
                });
                out.push(ControlEffect::Emit(MonitorEvent::Warning(format!(
                    "worker {id} ({}) stopped reporting; replacing it",
                    info.class
                ))));
                let restart = self
                    .policies
                    .get(&info.class)
                    .map(|p| p.restart_on_crash)
                    .unwrap_or(false);
                if restart {
                    self.spawn_worker(now, view, extra, &info.class, out);
                }
            }
        }
        let classes: Vec<WorkerClass> = self.policies.keys().cloned().collect();
        for class in classes {
            let (min_workers, auto_scale, h, d) = {
                let p = &self.policies[&class];
                (
                    p.min_workers,
                    p.auto_scale,
                    self.cfg.sns.spawn_threshold_h,
                    self.cfg.sns.spawn_cooldown_d,
                )
            };
            let live: Vec<(ComponentId, f64, bool)> = self
                .workers
                .iter()
                .filter(|(_, w)| w.class == class)
                .map(|(&id, w)| (id, w.wma, w.overflow))
                .collect();
            let live_n = live.len() as u32;
            let pending = self.pending_of_class(&class);

            // Bootstrap / crash replacement up to the class minimum.
            if in_grace {
                continue;
            }
            if live_n + pending < min_workers {
                let need = min_workers - live_n - pending;
                for _ in 0..need {
                    if !self.spawn_worker(now, view, extra, &class, out) {
                        break;
                    }
                }
                continue;
            }
            if !auto_scale || live_n == 0 {
                // Pinned classes can exceed strength when a partitioned
                // worker re-adopts itself after its replacement spawned:
                // reap the surplus gracefully.
                let max = self.policies[&class].max_workers;
                if max > 0 && live_n > max {
                    let mut ids: Vec<ComponentId> = live.iter().map(|&(id, _, _)| id).collect();
                    ids.sort();
                    for &victim in ids.iter().rev().take((live_n - max) as usize) {
                        out.push(ControlEffect::Shutdown { worker: victim });
                        out.push(ControlEffect::Incr {
                            key: "manager.reaps",
                            n: 1,
                        });
                        out.push(ControlEffect::Emit(MonitorEvent::ReapedWorker {
                            worker: victim,
                            class,
                        }));
                    }
                }
                continue;
            }

            let avg: f64 = live.iter().map(|&(_, wma, _)| wma).sum::<f64>() / live_n as f64;
            let rt = self.runtime.entry(class).or_default();
            let key = *rt
                .avg_qlen_key
                .get_or_insert_with(|| MetricKey::new(&format!("manager.avg_qlen.{class}")));
            out.push(ControlEffect::Sample {
                key,
                at: now,
                value: avg,
            });

            // Threshold-H spawning with cooldown D (§4.5).
            let in_cooldown = self
                .runtime
                .get(&class)
                .and_then(|r| r.last_spawn)
                .is_some_and(|t| now.since(t) < d);
            if avg > h && !in_cooldown {
                self.spawn_worker(now, view, extra, &class, out);
                continue;
            }

            // Reaping after sustained low load (overflow nodes first).
            if avg < self.cfg.sns.reap_threshold && live_n > min_workers {
                let rt = self.runtime.entry(class).or_default();
                let since = *rt.low_since.get_or_insert(now);
                if now.since(since) >= self.cfg.sns.reap_idle_for {
                    rt.low_since = None;
                    let victim = live
                        .iter()
                        .max_by_key(|&&(id, _, overflow)| (overflow, id))
                        .map(|&(id, _, _)| id);
                    if let Some(victim) = victim {
                        out.push(ControlEffect::Shutdown { worker: victim });
                        out.push(ControlEffect::Incr {
                            key: "manager.reaps",
                            n: 1,
                        });
                        out.push(ControlEffect::Emit(MonitorEvent::ReapedWorker {
                            worker: victim,
                            class,
                        }));
                    }
                }
            } else if let Some(rt) = self.runtime.get_mut(&class) {
                rt.low_since = None;
            }
        }
    }

    /// The manager came up: announce, beacon, run one policy pass. The
    /// driver joins the beacon group before applying the effects and
    /// arms the periodic tick after.
    pub fn on_start(
        &mut self,
        now: SimTime,
        me: ComponentId,
        node: NodeId,
        view: &ClusterView,
        out: &mut Vec<ControlEffect>,
    ) {
        self.started_at = Some(now);
        self.me = me;
        self.node = node;
        self.leading = true;
        out.push(ControlEffect::Emit(MonitorEvent::Started {
            who: me,
            kind: "manager",
            node,
        }));
        self.beacon(now, out);
        let mut extra = ExtraSpawns::new();
        self.policy_tick(now, view, &mut extra, out);
    }

    /// The periodic beacon/policy tick. The driver re-arms the timer.
    pub fn on_tick(&mut self, now: SimTime, view: &ClusterView, out: &mut Vec<ControlEffect>) {
        self.beacon(now, out);
        let mut extra = ExtraSpawns::new();
        self.policy_tick(now, view, &mut extra, out);
        out.push(ControlEffect::Emit(MonitorEvent::Heartbeat {
            who: self.me,
            kind: "manager",
            load: self.workers.len() as f64,
        }));
    }

    /// Spawns workers of `class` until live + pending reaches `target`,
    /// bypassing the rebuild grace (rt bootstrap and failover top-up;
    /// the simulator path always goes through [`ControlPlane::on_tick`]).
    pub fn ensure_workers(
        &mut self,
        class: &WorkerClass,
        target: u32,
        now: SimTime,
        view: &ClusterView,
        out: &mut Vec<ControlEffect>,
    ) {
        let mut extra = ExtraSpawns::new();
        while self.class_strength(class) < target {
            if !self.spawn_worker(now, view, &mut extra, class, out) {
                break;
            }
        }
    }

    /// A worker announced itself (on start or on a new incarnation).
    pub fn on_register_worker(
        &mut self,
        worker: ComponentId,
        class: WorkerClass,
        node: NodeId,
        overflow: bool,
        now: SimTime,
        out: &mut Vec<ControlEffect>,
    ) {
        if !self.workers.contains_key(&worker) {
            out.push(ControlEffect::Watch(worker));
            self.pending.remove(&worker);
        }
        self.workers.insert(
            worker,
            WorkerInfo {
                class,
                node,
                overflow,
                wma: 0.0,
                last_report: now,
            },
        );
    }

    /// A worker signed off cleanly.
    pub fn on_deregister_worker(&mut self, worker: ComponentId, out: &mut Vec<ControlEffect>) {
        out.push(ControlEffect::Unwatch(worker));
        self.workers.remove(&worker);
    }

    /// A periodic queue-length report (§3.1.2). `origin` resolves the
    /// reporting worker's placement and is only consulted for workers
    /// this plane has lost track of (soft-state adoption after a manager
    /// restart).
    pub fn on_load_report(
        &mut self,
        worker: ComponentId,
        class: WorkerClass,
        qlen: u32,
        now: SimTime,
        origin: impl FnOnce() -> (NodeId, bool),
        out: &mut Vec<ControlEffect>,
    ) {
        self.load_reports_handled += 1;
        out.push(ControlEffect::Incr {
            key: "manager.load_reports",
            n: 1,
        });
        let alpha = self.cfg.sns.wma_alpha;
        match self.workers.get_mut(&worker) {
            Some(info) => {
                info.wma = alpha * f64::from(qlen) + (1.0 - alpha) * info.wma;
                info.last_report = now;
            }
            None => {
                // Report from a worker we lost track of (e.g. a
                // restarted manager hearing loads before the
                // worker re-registers): adopt it — soft state.
                out.push(ControlEffect::Watch(worker));
                let (node, overflow) = origin();
                self.workers.insert(
                    worker,
                    WorkerInfo {
                        class,
                        node,
                        overflow,
                        wma: f64::from(qlen),
                        last_report: now,
                    },
                );
            }
        }
    }

    /// A front end found no worker of `class` (§3.1.2): locate or spawn
    /// one, unless some are live or already on the way.
    pub fn on_need_worker(
        &mut self,
        class: &WorkerClass,
        now: SimTime,
        view: &ClusterView,
        out: &mut Vec<ControlEffect>,
    ) {
        if self.live_of_class(class).is_empty() && self.pending_of_class(class) == 0 {
            let mut extra = ExtraSpawns::new();
            self.spawn_worker(now, view, &mut extra, class, out);
        }
    }

    /// A front end registered for supervision (process peers).
    pub fn on_register_front_end(
        &mut self,
        fe: ComponentId,
        node: NodeId,
        out: &mut Vec<ControlEffect>,
    ) {
        if !self.fes.contains_key(&fe) {
            out.push(ControlEffect::Watch(fe));
        }
        self.fes.insert(fe, node);
    }

    /// Operator request: drain a node for a hot upgrade (§2.2).
    pub fn on_drain_node(&mut self, node: NodeId, out: &mut Vec<ControlEffect>) {
        if self.drained.contains(&node) {
            return;
        }
        self.drained.insert(node);
        out.push(ControlEffect::Incr {
            key: "manager.drains",
            n: 1,
        });
        // Gracefully shut down every worker we run there; the
        // graceful path deregisters, and the class minimums
        // respawn replacements on other nodes.
        let victims: Vec<ComponentId> = self
            .workers
            .iter()
            .filter(|(_, w)| w.node == node)
            .map(|(&id, _)| id)
            .collect();
        for v in victims {
            out.push(ControlEffect::Shutdown { worker: v });
        }
        out.push(ControlEffect::Emit(MonitorEvent::NodeDrained { node }));
    }

    /// Operator request: return a node to service unchanged.
    pub fn on_undrain_node(&mut self, node: NodeId, out: &mut Vec<ControlEffect>) {
        if !self.drained.contains(&node) {
            return;
        }
        self.drained.remove(&node);
        out.push(ControlEffect::Incr {
            key: "manager.undrains",
            n: 1,
        });
        out.push(ControlEffect::Emit(MonitorEvent::NodeRejoined {
            node,
            epoch: self.node_epoch.get(&node).copied().unwrap_or(0),
        }));
    }

    /// Operator request: return a drained node to service at the next
    /// software epoch — the "restart at new incarnation" step of a
    /// rolling upgrade (§2.2 "upgrade them in place"). Idempotent in
    /// the same way as [`ControlPlane::on_undrain_node`]: a node that
    /// is not drained is left alone (no epoch bump).
    pub fn on_upgrade_node(&mut self, node: NodeId, out: &mut Vec<ControlEffect>) {
        if !self.drained.contains(&node) {
            return;
        }
        self.drained.remove(&node);
        let epoch = self.node_epoch.entry(node).or_insert(0);
        *epoch += 1;
        let epoch = *epoch;
        out.push(ControlEffect::Incr {
            key: "manager.undrains",
            n: 1,
        });
        out.push(ControlEffect::Incr {
            key: "manager.upgrades",
            n: 1,
        });
        out.push(ControlEffect::Emit(MonitorEvent::NodeRejoined {
            node,
            epoch,
        }));
    }

    /// A beacon arrived on the manager's own group (a rival incarnation
    /// is announcing itself): duplicate-restart resolution. The rival
    /// with the greater (incarnation, id) wins and a leading loser steps
    /// down, once. Before [`ControlPlane::on_start`], after a step-down,
    /// and for the manager's own beacon there is nothing to do.
    pub fn on_rival_beacon(&mut self, b: &BeaconData, out: &mut Vec<ControlEffect>) {
        if !self.leading || b.manager == self.me {
            return;
        }
        if (b.incarnation, b.manager.0) >= (self.cfg.incarnation, self.me.0) {
            self.leading = false;
            out.push(ControlEffect::Incr {
                key: "manager.stepdowns",
                n: 1,
            });
            out.push(ControlEffect::StepDown);
        }
    }

    /// A watched peer died (process-peer fault tolerance, §3.1.3).
    pub fn on_peer_death(
        &mut self,
        peer: ComponentId,
        now: SimTime,
        view: &ClusterView,
        out: &mut Vec<ControlEffect>,
    ) {
        let mut extra = ExtraSpawns::new();
        // A spawn that died before registering counts as a worker death.
        if let Some(p) = self.pending.remove(&peer) {
            out.push(ControlEffect::Incr {
                key: "manager.worker_deaths",
                n: 1,
            });
            let restart = self
                .policies
                .get(&p.class)
                .map(|pol| pol.restart_on_crash)
                .unwrap_or(false);
            if restart {
                self.spawn_worker(now, view, &mut extra, &p.class, out);
            }
            return;
        }
        if let Some(info) = self.workers.remove(&peer) {
            out.push(ControlEffect::Incr {
                key: "manager.worker_deaths",
                n: 1,
            });
            let restart = self
                .policies
                .get(&info.class)
                .map(|p| p.restart_on_crash)
                .unwrap_or(false);
            if restart {
                // Process-peer restart (§3.1.3): possibly on a different
                // node (choose_node re-evaluates).
                self.spawn_worker(now, view, &mut extra, &info.class, out);
                out.push(ControlEffect::Emit(MonitorEvent::PeerRestarted {
                    by: self.me,
                    kind: "worker",
                }));
            }
            return;
        }
        if self.fes.remove(&peer).is_some() {
            out.push(ControlEffect::Incr {
                key: "manager.fe_deaths",
                n: 1,
            });
            // "The manager detects and restarts a crashed front end."
            let spawned = if self.cfg.restart_front_ends {
                match self.choose_node(view, &extra, &"frontend".into(), 0) {
                    Some((n, _)) => {
                        out.push(ControlEffect::SpawnFrontEnd { node: n });
                        *extra.entry(n).or_insert(0) += 1;
                        true
                    }
                    None => false,
                }
            } else {
                false
            };
            if spawned {
                out.push(ControlEffect::Emit(MonitorEvent::PeerRestarted {
                    by: self.me,
                    kind: "frontend",
                }));
            }
        }
    }
}

/// An instruction from the [`DispatchPlane`] to its driver.
#[derive(Debug)]
pub enum DispatchEffect {
    /// Deliver a work request to a worker.
    SendJob {
        /// Chosen worker.
        worker: ComponentId,
        /// The job (shared; retries resend the same `Arc`).
        job: Arc<Job>,
    },
    /// Ask the manager for a worker of `class`
    /// ([`crate::msg::SnsMsg::NeedWorker`]).
    NeedWorker {
        /// The manager to ask.
        manager: ComponentId,
        /// Class needed.
        class: WorkerClass,
    },
    /// Bump a stats counter.
    Incr {
        /// Counter name.
        key: &'static str,
        /// Amount.
        n: u64,
    },
    /// Record a completed dispatch span (only emitted while
    /// [`DispatchPlane::set_tracing`] is on; see [`crate::trace`]). The
    /// driver forwards it to its tracer.
    Span(SpanRecord),
}

#[derive(Debug, Clone)]
struct HintEntry {
    worker: ComponentId,
    est_qlen: f64,
}

/// A dispatch awaiting a response.
#[derive(Debug, Clone)]
pub struct Outstanding {
    /// Class the job targets.
    pub class: WorkerClass,
    /// Worker currently assigned (None while waiting for one to exist).
    pub worker: Option<ComponentId>,
    /// Attempts so far (1 = first try).
    pub attempts: u32,
    /// Whether the caller pinned the worker (no lottery, no retry).
    pub explicit: bool,
    /// When the dispatch was first requested (the dispatch span's
    /// start; covers pending waits and retries).
    pub requested_at: SimTime,
    op: &'static str,
    input: Payload,
    profile: Option<ProfileData>,
    reply_to: ComponentId,
    /// Workers a timed-out attempt went to (the current `worker` is
    /// not among them), excluded from retries.
    workers_tried: Vec<ComponentId>,
    /// Causal parent for the dispatch span (the front end's request
    /// span), when tracing.
    parent: Option<SpanId>,
    /// Head-sampling decision carried with the job (the front end's
    /// per-request decision, or the plane's own per-job decision for
    /// root dispatches). Gates every span this dispatch emits.
    sampled: bool,
}

/// Verdict of a dispatch timeout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimeoutVerdict {
    /// The job was re-sent to another worker (or waits for one); the
    /// plane holds the new attempt's deadline.
    Retried,
    /// Retries are exhausted (or the dispatch was pinned); the service
    /// layer decides the fallback (§2.2.4).
    GaveUp(WorkerClass),
    /// The job id was unknown (already answered).
    Unknown,
}

/// What a tenant's dispatches do once the tenant is over its
/// outstanding-job quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Refuse new dispatches outright (TranSend's policy: a timed-out
    /// or refused request is re-fetched by the client, §2.2.4).
    Drop,
    /// Keep admitting — flagged degraded so the service layer can shed
    /// quality instead of requests (HotBot's policy) — up to twice the
    /// quota, beyond which even degraded dispatches are dropped.
    Degrade,
}

/// Per-tenant overload protection for a [`DispatchPlane`]: a quota on
/// outstanding jobs plus what to do beyond it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantPolicy {
    /// Outstanding-dispatch quota for the tenant.
    pub max_outstanding: usize,
    /// Behavior beyond the quota.
    pub overload: OverloadPolicy,
}

/// Verdict of [`DispatchPlane::admit`] for one prospective dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Within quota — dispatch normally.
    Accept,
    /// Over quota under [`OverloadPolicy::Degrade`]: dispatch, but the
    /// service layer should degrade the answer (smaller distillation,
    /// cached-only results, …).
    Degrade,
    /// Over quota (or over the degrade ceiling): do not dispatch.
    Drop,
}

/// Exact, current queue lengths for a [`DispatchPlane`] whose driver
/// shares an address space with its workers. The paper's stub draws a
/// lottery over beacon hints *because* its load information is stale
/// (§3.1.2, patched by the §4.5 delta); a driver that can read every
/// worker's queue gauge installs one of these
/// ([`DispatchPlane::set_live_load`]) and the plane places each job on
/// the least-loaded hinted worker instead. Membership still comes from
/// beacons; only the load does not.
pub trait LiveLoad: Send + Sync {
    /// Queue length (queued + in service) of each of `workers`, in
    /// order, read now; `None` for a worker the source does not know
    /// (dead, or reaped since the last beacon).
    fn qlens(&self, workers: &[ComponentId]) -> Vec<Option<u64>>;
}

/// Whether a deadline entry still times out a job: the job is
/// outstanding and still on that attempt.
fn live(
    outstanding: &BTreeMap<u64, Outstanding>,
    &(_, job, attempt): &(SimTime, u64, u32),
) -> bool {
    outstanding.get(&job).is_some_and(|o| o.attempts == attempt)
}

/// The stub's decision core: hint cache, worker choice (lottery with the
/// §4.5 queue-delta correction, or least-loaded by a [`LiveLoad`]
/// source), dispatch deadlines and timeout/retry verdicts (§3.1.8). No
/// I/O: the caller supplies the RNG and the clock, applies the returned
/// effects, and wakes once at [`DispatchPlane::next_deadline`] to run
/// [`DispatchPlane::expire_next`].
pub struct DispatchPlane {
    cfg: SnsConfig,
    manager: Option<ComponentId>,
    incarnation: u64,
    last_beacon: Option<SimTime>,
    hints: BTreeMap<WorkerClass, Vec<HintEntry>>,
    /// Bumped whenever `hints` changes (beacon, timeout eviction), so a
    /// driver can cache what it derives from them.
    hints_version: u64,
    /// Net dispatches (sent − answered) per worker since the last beacon.
    inflight: BTreeMap<ComponentId, i64>,
    outstanding: BTreeMap<u64, Outstanding>,
    /// `(deadline, job, attempt)` per dispatch attempt, in deadline
    /// order: one timeout at a monotone `now` (rt's racing submits can
    /// only delay a timeout by the race). An entry whose job is gone or
    /// has moved on to a later attempt is settled and skipped.
    deadlines: VecDeque<(SimTime, u64, u32)>,
    /// Tenant each class bills to (absent = `"shared"`).
    class_tenant: BTreeMap<WorkerClass, &'static str>,
    /// Overload policy per tenant (absent = always admit).
    tenant_policy: BTreeMap<&'static str, TenantPolicy>,
    /// Outstanding dispatches per tenant (only tenants seen dispatching).
    tenant_out: BTreeMap<&'static str, usize>,
    next_job: u64,
    /// Increment between consecutive job ids (1 unless this plane is one
    /// shard of a [`crate::shard::ShardedDispatch`], in which case each
    /// shard strides by the shard count over a disjoint residue class).
    id_stride: u64,
    delta_correction: bool,
    /// Exact load source; `None` (every simulator driver) keeps the
    /// lottery.
    live: Option<Arc<dyn LiveLoad>>,
    tracing: bool,
    /// Head-sampling policy for root dispatches (and the default the
    /// driver mirrors from its tracer); see [`crate::trace::Sampling`].
    sampling: Sampling,
}

impl DispatchPlane {
    /// Creates a plane that picks workers by lottery over beacon hints.
    pub fn new(cfg: SnsConfig) -> Self {
        DispatchPlane {
            cfg,
            manager: None,
            incarnation: 0,
            last_beacon: None,
            hints: BTreeMap::new(),
            hints_version: 0,
            inflight: BTreeMap::new(),
            outstanding: BTreeMap::new(),
            deadlines: VecDeque::new(),
            class_tenant: BTreeMap::new(),
            tenant_policy: BTreeMap::new(),
            tenant_out: BTreeMap::new(),
            next_job: 1,
            id_stride: 1,
            delta_correction: true,
            live: None,
            tracing: false,
            sampling: Sampling::ALL,
        }
    }

    /// Replaces the lottery with least-loaded placement by `live`: every
    /// pick ranks the hinted candidates by their live gauge and breaks
    /// ties uniformly with the caller's RNG. A construction-time choice
    /// (a driver either can read its workers' queues or cannot), so
    /// there is no way back to the lottery.
    pub fn set_live_load(&mut self, live: Arc<dyn LiveLoad>) {
        self.live = Some(live);
    }

    /// Bills dispatches of `class` to `tenant` (default `"shared"`).
    pub fn set_tenant(&mut self, class: WorkerClass, tenant: &'static str) {
        self.class_tenant.insert(class, tenant);
    }

    /// Installs (or replaces) a tenant's overload policy. Tenants
    /// without a policy are always admitted.
    pub fn set_tenant_policy(&mut self, tenant: &'static str, policy: TenantPolicy) {
        self.tenant_policy.insert(tenant, policy);
    }

    /// The tenant `class` bills to.
    pub fn tenant_of(&self, class: &WorkerClass) -> &'static str {
        self.class_tenant.get(class).copied().unwrap_or("shared")
    }

    /// Outstanding dispatches currently billed to `tenant`.
    pub fn tenant_outstanding(&self, tenant: &str) -> usize {
        self.tenant_out.get(tenant).copied().unwrap_or(0)
    }

    /// Admission control for one prospective dispatch of `class` — call
    /// before [`DispatchPlane::dispatch`] when tenant isolation is on.
    /// Within quota ⇒ [`Admission::Accept`]; over quota the tenant's
    /// [`OverloadPolicy`] picks degrade vs. drop (counted under
    /// `stub.tenant_degraded` / `stub.tenant_dropped`). Tenants without
    /// a policy are always accepted, so the default path is untouched.
    pub fn admit(&mut self, class: &WorkerClass, out: &mut Vec<DispatchEffect>) -> Admission {
        let tenant = self.tenant_of(class);
        let Some(policy) = self.tenant_policy.get(tenant) else {
            return Admission::Accept;
        };
        let in_flight = self.tenant_out.get(tenant).copied().unwrap_or(0);
        if in_flight < policy.max_outstanding {
            return Admission::Accept;
        }
        match policy.overload {
            OverloadPolicy::Degrade if in_flight < policy.max_outstanding * 2 => {
                out.push(DispatchEffect::Incr {
                    key: "stub.tenant_degraded",
                    n: 1,
                });
                Admission::Degrade
            }
            _ => {
                out.push(DispatchEffect::Incr {
                    key: "stub.tenant_dropped",
                    n: 1,
                });
                Admission::Drop
            }
        }
    }

    fn tenant_charge(&mut self, class: &WorkerClass) {
        let tenant = self.tenant_of(class);
        *self.tenant_out.entry(tenant).or_insert(0) += 1;
    }

    fn tenant_release(&mut self, class: &WorkerClass) {
        let tenant = self.tenant_of(class);
        if let Some(n) = self.tenant_out.get_mut(tenant) {
            *n = n.saturating_sub(1);
        }
    }

    /// Carves this plane's job-id space into a residue class: ids start
    /// at `first` and step by `stride`. Shard *i* of *n* uses
    /// `(i + 1, n)` so that concurrent shards never collide and
    /// `(id - 1) % n` recovers the owning shard. Must be called before
    /// the first dispatch; `stride` of 0 is treated as 1.
    pub fn set_job_id_space(&mut self, first: u64, stride: u64) {
        debug_assert!(
            self.outstanding.is_empty(),
            "job-id space must be set before dispatching"
        );
        self.next_job = first.max(1);
        self.id_stride = stride.max(1);
    }

    /// Enables/disables the §4.5 queue-delta correction (ablation knob).
    pub fn set_delta_correction(&mut self, on: bool) {
        self.delta_correction = on;
    }

    /// Enables/disables span emission ([`DispatchEffect::Span`]). Off by
    /// default; the disabled path is a single branch per response.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Installs the head-sampling policy this plane applies to *root*
    /// dispatches (jobs submitted without an enclosing request; the
    /// decision keys on the job id, which both backends assign
    /// identically). Dispatches that arrive with a
    /// [`SpanCtx::under`] decision carry it unchanged.
    pub fn set_sampling(&mut self, sampling: Sampling) {
        self.sampling = sampling;
    }

    /// This plane's head-sampling policy.
    pub fn sampling(&self) -> Sampling {
        self.sampling
    }

    /// The manager, if one has been heard from.
    pub fn manager(&self) -> Option<ComponentId> {
        self.manager
    }

    /// Incarnation of the last manager heard from.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// When the last beacon arrived.
    pub fn last_beacon(&self) -> Option<SimTime> {
        self.last_beacon
    }

    /// Live workers of a class per the hint cache (the virtual-cache ring
    /// is built from this, §3.1.5).
    pub fn workers_of(&self, class: &WorkerClass) -> Vec<ComponentId> {
        self.hints
            .get(class)
            .map(|v| v.iter().map(|h| h.worker).collect())
            .unwrap_or_default()
    }

    /// Changes whenever the hint cache does; equal versions mean
    /// [`DispatchPlane::workers_of`] answers as before.
    pub fn hints_version(&self) -> u64 {
        self.hints_version
    }

    /// Estimated queue length for a worker (report + local delta).
    pub fn estimate(&self, class: &WorkerClass, worker: ComponentId) -> Option<f64> {
        let base = self
            .hints
            .get(class)?
            .iter()
            .find(|h| h.worker == worker)?
            .est_qlen;
        let delta = if self.delta_correction {
            self.inflight.get(&worker).copied().unwrap_or(0) as f64
        } else {
            0.0
        };
        Some((base + delta).max(0.0))
    }

    /// Ingests a beacon. Returns `true` when it announces a manager (or
    /// incarnation) this stub has not registered with yet.
    pub fn on_beacon(&mut self, b: &BeaconData) -> bool {
        let new = self.manager != Some(b.manager) || self.incarnation != b.incarnation;
        self.manager = Some(b.manager);
        self.incarnation = b.incarnation;
        self.last_beacon = Some(b.at);
        self.hints_version += 1;
        self.hints = b
            .hints
            .iter()
            .map(|(class, v)| {
                (
                    *class,
                    v.iter()
                        .map(|h| HintEntry {
                            worker: h.worker,
                            est_qlen: h.est_qlen,
                        })
                        .collect(),
                )
            })
            .collect();
        // Fresh reports fold in everything we had dispatched before the
        // report was made; restart the local delta.
        self.inflight.clear();
        for o in self.outstanding.values() {
            if let Some(w) = o.worker {
                *self.inflight.entry(w).or_insert(0) += 1;
            }
        }
        new
    }

    /// Picks a worker of `class` (excluding `exclude`). Without a
    /// [`LiveLoad`] source: the §3.1.2 lottery. With one: a uniform draw
    /// among the candidates whose live gauge is lowest — a worker the
    /// source does not know ranks after every known one, so it is
    /// chosen only when nothing else is and the driver's refusal then
    /// evicts it through [`DispatchPlane::on_timeout`] — counting
    /// `stub.placed_busy` when even that worker already had work.
    fn pick(
        &self,
        rng: &mut Pcg32,
        class: &WorkerClass,
        exclude: &[ComponentId],
        out: &mut Vec<DispatchEffect>,
    ) -> Option<ComponentId> {
        let hinted = self
            .hints
            .get(class)?
            .iter()
            .filter(|h| !exclude.contains(&h.worker));
        let Some(live) = &self.live else {
            return self.lottery(rng, hinted);
        };
        let workers: Vec<ComponentId> = hinted.map(|h| h.worker).collect();
        let gauges = live.qlens(&workers);
        let rank = |g: &Option<u64>| (g.is_none(), *g);
        let best = gauges.iter().map(rank).min()?;
        let minima = || {
            let tied = workers.iter().zip(&gauges);
            tied.filter(|(_, g)| rank(g) == best).map(|(&w, _)| w)
        };
        if best.1.is_some_and(|q| q > 0) {
            out.push(DispatchEffect::Incr {
                key: "stub.placed_busy",
                n: 1,
            });
        }
        let draw = rng.below(minima().count() as u64);
        minima().nth(draw as usize)
    }

    /// Lottery over `candidates`, tickets inversely proportional to
    /// estimated queue length (§3.1.2) with the §4.5 delta. Draws as
    /// [`Pcg32::weighted`] does over the ticket list, without building
    /// it: one pass sums the tickets, a second walks them to the draw.
    fn lottery<'a>(
        &self,
        rng: &mut Pcg32,
        candidates: impl Iterator<Item = &'a HintEntry> + Clone,
    ) -> Option<ComponentId> {
        let ticket = |h: &HintEntry| {
            let delta = if self.delta_correction {
                self.inflight.get(&h.worker).copied().unwrap_or(0) as f64
            } else {
                0.0
            };
            1.0 / (1.0 + (h.est_qlen + delta).max(0.0))
        };
        candidates.clone().next()?;
        let total: f64 = candidates.clone().map(ticket).sum();
        let mut x = rng.f64() * total;
        let mut pick = None;
        for h in candidates {
            pick = Some(h.worker);
            x -= ticket(h);
            if x < 0.0 {
                break;
            }
        }
        pick
    }

    fn send_job(&mut self, job_id: u64, worker: ComponentId, out: &mut Vec<DispatchEffect>) {
        let o = self.outstanding.get_mut(&job_id).expect("job exists");
        o.worker = Some(worker);
        *self.inflight.entry(worker).or_insert(0) += 1;
        let job = Arc::new(Job {
            id: job_id,
            class: o.class,
            op: o.op,
            input: o.input.clone(),
            profile: o.profile.clone(),
            reply_to: o.reply_to,
            sampled: o.sampled,
        });
        out.push(DispatchEffect::SendJob { worker, job });
        out.push(DispatchEffect::Incr {
            key: "stub.dispatches",
            n: 1,
        });
    }

    fn request_worker(&self, class: &WorkerClass, out: &mut Vec<DispatchEffect>) {
        if let Some(mgr) = self.manager {
            out.push(DispatchEffect::NeedWorker {
                manager: mgr,
                class: *class,
            });
        }
    }

    /// The head-sampling decision for a new job: the caller's
    /// per-request decision when it made one, else this plane's policy
    /// keyed on the job id (root dispatches — job ids are assigned
    /// identically by both backends, so they sample the same set).
    fn head_decision(&self, job_id: u64, span: &SpanCtx) -> bool {
        match span.sampled {
            Some(decided) => decided,
            None => self.sampling.decide(job_id),
        }
    }

    /// Registers a new dispatch (a fresh job id, billed to its tenant,
    /// with its head-sampling decision) and returns its id.
    #[allow(clippy::too_many_arguments)]
    fn open(
        &mut self,
        now: SimTime,
        reply_to: ComponentId,
        class: WorkerClass,
        op: &'static str,
        input: Payload,
        profile: Option<ProfileData>,
        span: SpanCtx,
        explicit: bool,
    ) -> u64 {
        let job_id = self.next_job;
        self.next_job += self.id_stride;
        self.tenant_charge(&class);
        let sampled = self.head_decision(job_id, &span);
        let o = Outstanding {
            class,
            worker: None,
            attempts: 1,
            explicit,
            requested_at: now,
            op,
            input,
            profile,
            reply_to,
            workers_tried: Vec::new(),
            parent: span.parent,
            sampled,
        };
        self.outstanding.insert(job_id, o);
        self.arm(now, job_id, 1);
        job_id
    }

    /// Files `attempt`'s deadline. When one slow job blocks the front
    /// and settled entries pile up behind it past twice the live count,
    /// only the live ones are kept, so the ring stays bounded.
    fn arm(&mut self, now: SimTime, job_id: u64, attempt: u32) {
        self.next_deadline();
        let at = now + self.cfg.dispatch_timeout;
        self.deadlines.push_back((at, job_id, attempt));
        if self.deadlines.len() > 2 * self.outstanding.len() + 64 {
            self.deadlines.retain(|d| live(&self.outstanding, d));
        }
    }

    /// The earliest deadline of a dispatch still outstanding (settled
    /// entries at the front are dropped): when the caller should next
    /// call [`DispatchPlane::expire_next`].
    pub fn next_deadline(&mut self) -> Option<SimTime> {
        while (self.deadlines.front()).is_some_and(|d| !live(&self.outstanding, d)) {
            self.deadlines.pop_front();
        }
        self.deadlines.front().map(|&(at, ..)| at)
    }

    /// Times out the earliest dispatch whose deadline is at or before
    /// `now` ([`DispatchPlane::on_timeout`]) and returns its job id and
    /// verdict; `None` once nothing is due. The caller applies each
    /// verdict (and runs whatever it wakes) before asking for the next,
    /// so RNG draws happen in deadline order.
    pub fn expire_next(
        &mut self,
        rng: &mut Pcg32,
        now: SimTime,
        out: &mut Vec<DispatchEffect>,
    ) -> Option<(u64, TimeoutVerdict)> {
        if self.next_deadline()? > now {
            return None;
        }
        let (_, job_id, _) = self.deadlines.pop_front()?;
        Some((job_id, self.on_timeout(rng, now, job_id, out)))
    }

    /// Dispatches a job to a worker of `class`: the lottery winner, or —
    /// with a [`LiveLoad`] source — the least-loaded hinted worker.
    /// If no worker is known the dispatch stays pending — its deadline
    /// drives a retry once the manager has spawned one — and the
    /// manager is asked via [`crate::msg::SnsMsg::NeedWorker`]. Returns
    /// the job id. `now` stamps the dispatch span's start; `span`
    /// carries the caller's request-span parent and head-sampling
    /// decision (both ignored unless [`DispatchPlane::set_tracing`] is
    /// on).
    #[allow(clippy::too_many_arguments)]
    pub fn dispatch(
        &mut self,
        rng: &mut Pcg32,
        now: SimTime,
        reply_to: ComponentId,
        class: WorkerClass,
        op: &'static str,
        input: Payload,
        profile: Option<ProfileData>,
        span: SpanCtx,
        out: &mut Vec<DispatchEffect>,
    ) -> u64 {
        let job_id = self.open(now, reply_to, class, op, input, profile, span, false);
        match self.pick(rng, &class, &[], out) {
            Some(w) => self.send_job(job_id, w, out),
            None => self.request_worker(&class, out),
        }
        job_id
    }

    /// Dispatches to a pinned worker (cache-ring routing, search
    /// partition fan-out). No lottery, no retry.
    #[allow(clippy::too_many_arguments)]
    pub fn dispatch_to(
        &mut self,
        now: SimTime,
        reply_to: ComponentId,
        worker: ComponentId,
        class: WorkerClass,
        op: &'static str,
        input: Payload,
        profile: Option<ProfileData>,
        span: SpanCtx,
        out: &mut Vec<DispatchEffect>,
    ) -> u64 {
        let job_id = self.open(now, reply_to, class, op, input, profile, span, true);
        self.send_job(job_id, worker, out);
        job_id
    }

    /// Builds the dispatch span for a settled job (span start is the
    /// original request time, so pending waits and retries are counted).
    fn dispatch_span(&self, job_id: u64, o: &Outstanding, end: SimTime, ok: bool) -> SpanRecord {
        trace::span(
            trace::job_span_id(o.reply_to, job_id),
            o.parent,
            trace::DISPATCH,
            trace::CAT_STUB,
            o.worker.unwrap_or(o.reply_to),
            o.class.name(),
            o.requested_at,
            end,
            o.input.wire_size(),
            ok,
        )
    }

    /// Records a response; returns the dispatch if it was outstanding.
    /// `now` closes the dispatch span appended to `out` when tracing.
    pub fn on_response(
        &mut self,
        job_id: u64,
        now: SimTime,
        out: &mut Vec<DispatchEffect>,
    ) -> Option<Outstanding> {
        let o = self.outstanding.remove(&job_id)?;
        self.tenant_release(&o.class);
        if let Some(w) = o.worker {
            *self.inflight.entry(w).or_insert(0) -= 1;
        }
        if self.tracing && o.sampled {
            out.push(DispatchEffect::Span(
                self.dispatch_span(job_id, &o, now, true),
            ));
        }
        Some(o)
    }

    /// Handles a dispatch timeout: evict the suspected-dead worker from
    /// the hint cache and retry elsewhere, or give up (§3.1.8). `now`
    /// closes the failed dispatch span on give-up when tracing, and a
    /// retry's deadline runs from it. Deadlines call this through
    /// [`DispatchPlane::expire_next`]; a caller that sees a send fail
    /// calls it at once.
    pub fn on_timeout(
        &mut self,
        rng: &mut Pcg32,
        now: SimTime,
        job_id: u64,
        out: &mut Vec<DispatchEffect>,
    ) -> TimeoutVerdict {
        let Some(o) = self.outstanding.get(&job_id) else {
            return TimeoutVerdict::Unknown;
        };
        let class = o.class;
        let explicit = o.explicit;
        let attempts = o.attempts;
        let suspected = o.worker;
        // A timed-out worker is suspect: drop it so other requests stop
        // choosing it until the manager re-advertises it.
        if let Some(w) = suspected {
            if let Some(v) = self.hints.get_mut(&class) {
                v.retain(|h| h.worker != w);
            }
            self.hints_version += 1;
            *self.inflight.entry(w).or_insert(0) -= 1;
            out.push(DispatchEffect::Incr {
                key: "stub.timeouts",
                n: 1,
            });
        }
        if explicit || attempts > self.cfg.max_retries {
            let o = self.outstanding.remove(&job_id).expect("still present");
            self.tenant_release(&o.class);
            out.push(DispatchEffect::Incr {
                key: "stub.gave_up",
                n: 1,
            });
            if self.tracing && o.sampled {
                out.push(DispatchEffect::Span(
                    self.dispatch_span(job_id, &o, now, false),
                ));
            }
            return TimeoutVerdict::GaveUp(class);
        }
        // Every worker this job went to is excluded from the retry; the
        // current one joins the earlier ones only now, so a first
        // attempt never allocates the list.
        let o = self.outstanding.get_mut(&job_id).expect("still present");
        o.workers_tried.extend(o.worker.take());
        o.attempts += 1;
        let attempt = o.attempts;
        self.arm(now, job_id, attempt);
        let tried = &self.outstanding[&job_id].workers_tried;
        match self.pick(rng, &class, tried, out) {
            Some(w) => {
                self.send_job(job_id, w, out);
                out.push(DispatchEffect::Incr {
                    key: "stub.retries",
                    n: 1,
                });
            }
            // Nobody (left) to try: ask the manager and keep waiting;
            // the next deadline will try again.
            None => self.request_worker(&class, out),
        }
        TimeoutVerdict::Retried
    }

    /// Jobs currently outstanding (waiting on workers).
    pub fn outstanding_count(&self) -> usize {
        self.outstanding.len()
    }

    /// Pending dispatches of `class` that have no worker yet get sent as
    /// soon as hints advertise one (called after each beacon).
    pub fn flush_pending(&mut self, rng: &mut Pcg32, out: &mut Vec<DispatchEffect>) {
        let waiting: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, o)| o.worker.is_none() && !o.explicit)
            .map(|(&id, _)| id)
            .collect();
        for job_id in waiting {
            let o = &self.outstanding[&job_id];
            if let Some(w) = self.pick(rng, &o.class, &o.workers_tried, out) {
                self.send_job(job_id, w, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Blob;

    fn beacon(workers: &[(u64, f64)]) -> BeaconData {
        let mut hints = BTreeMap::new();
        hints.insert(
            WorkerClass::new("w"),
            workers
                .iter()
                .map(|&(id, q)| WorkerHint {
                    worker: ComponentId(id),
                    node: NodeId(0),
                    est_qlen: q,
                    overflow: false,
                })
                .collect(),
        );
        BeaconData {
            manager: ComponentId(99),
            incarnation: 1,
            hints,
            at: SimTime::from_secs(1),
        }
    }

    fn view(nodes: &[(u32, u32)]) -> ClusterView {
        ClusterView {
            dedicated: nodes
                .iter()
                .map(|&(n, c)| NodeLoad {
                    node: NodeId(n),
                    components: c,
                })
                .collect(),
            overflow: Vec::new(),
            pinned_alive: BTreeMap::new(),
            spawn_latency: Duration::from_millis(300),
        }
    }

    fn plane(min: u32) -> ControlPlane {
        let mut p = ControlPlane::new(ControlConfig {
            sns: SnsConfig::default(),
            incarnation: 1,
            restart_front_ends: false,
        });
        p.add_class(WorkerClass::new("w"), SpawnPolicy::scaled(min));
        p
    }

    fn spawns(out: &[ControlEffect]) -> Vec<(NodeId, u64)> {
        out.iter()
            .filter_map(|e| match e {
                ControlEffect::Spawn { token, node, .. } => Some((*node, *token)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn estimate_includes_delta() {
        let mut plane = DispatchPlane::new(SnsConfig::default());
        plane.on_beacon(&beacon(&[(1, 2.0)]));
        assert_eq!(plane.estimate(&"w".into(), ComponentId(1)), Some(2.0));
        plane.inflight.insert(ComponentId(1), 3);
        assert_eq!(plane.estimate(&"w".into(), ComponentId(1)), Some(5.0));
        plane.set_delta_correction(false);
        assert_eq!(plane.estimate(&"w".into(), ComponentId(1)), Some(2.0));
    }

    #[test]
    fn dispatch_routes_through_effects_and_responses_balance_inflight() {
        let mut plane = DispatchPlane::new(SnsConfig::default());
        plane.on_beacon(&beacon(&[(1, 0.0)]));
        let mut rng = Pcg32::new(7);
        let mut out = Vec::new();
        let id = plane.dispatch(
            &mut rng,
            SimTime::ZERO,
            ComponentId(50),
            "w".into(),
            "op",
            Blob::payload(10, "x"),
            None,
            SpanCtx::root(),
            &mut out,
        );
        assert!(matches!(
            out[0],
            DispatchEffect::SendJob { worker, ref job }
                if worker == ComponentId(1) && job.id == id && job.reply_to == ComponentId(50)
        ));
        assert_eq!(plane.inflight.get(&ComponentId(1)), Some(&1));
        let o = plane
            .on_response(id, SimTime::from_secs(1), &mut out)
            .expect("outstanding");
        assert_eq!(o.worker, Some(ComponentId(1)));
        assert_eq!(plane.inflight.get(&ComponentId(1)), Some(&0));
        assert!(plane
            .on_response(id, SimTime::from_secs(1), &mut out)
            .is_none());
    }

    #[test]
    fn tracing_emits_dispatch_spans_through_effects() {
        let mut plane = DispatchPlane::new(SnsConfig::default());
        plane.set_tracing(true);
        plane.on_beacon(&beacon(&[(1, 0.0)]));
        let mut rng = Pcg32::new(7);
        let mut out = Vec::new();
        let parent = trace::request_span_id(ComponentId(50), 9);
        let id = plane.dispatch(
            &mut rng,
            SimTime::from_secs(2),
            ComponentId(50),
            "w".into(),
            "op",
            Blob::payload(10, "x"),
            None,
            SpanCtx::under(parent, true),
            &mut out,
        );
        out.clear();
        plane
            .on_response(id, SimTime::from_secs(3), &mut out)
            .expect("outstanding");
        let span = out
            .iter()
            .find_map(|e| match e {
                DispatchEffect::Span(s) => Some(*s),
                _ => None,
            })
            .expect("span effect");
        assert_eq!(span.id, trace::job_span_id(ComponentId(50), id));
        assert_eq!(span.parent, Some(parent));
        assert_eq!(span.start, SimTime::from_secs(2));
        assert_eq!(span.end, SimTime::from_secs(3));
        assert_eq!(span.who, ComponentId(1));
        assert!(span.ok);
    }

    #[test]
    fn timeout_evicts_suspect_and_retries_elsewhere() {
        let mut plane = DispatchPlane::new(SnsConfig::default());
        plane.on_beacon(&beacon(&[(1, 0.0), (2, 0.0)]));
        let mut rng = Pcg32::new(7);
        let mut out = Vec::new();
        let id = plane.dispatch(
            &mut rng,
            SimTime::ZERO,
            ComponentId(50),
            "w".into(),
            "op",
            Blob::payload(10, "x"),
            None,
            SpanCtx::root(),
            &mut out,
        );
        let first = plane.outstanding[&id].worker.unwrap();
        out.clear();
        let verdict = plane.on_timeout(&mut rng, SimTime::from_secs(5), id, &mut out);
        assert_eq!(verdict, TimeoutVerdict::Retried);
        let second = plane.outstanding[&id].worker.unwrap();
        assert_ne!(first, second, "retry excludes the suspect");
        assert!(!plane.workers_of(&"w".into()).contains(&first));
        // Exhaust retries: each timeout evicts the current worker.
        out.clear();
        let verdict = plane.on_timeout(&mut rng, SimTime::from_secs(10), id, &mut out);
        // attempts is now 2 (== default max_retries), one more allowed…
        assert_eq!(verdict, TimeoutVerdict::Retried);
        out.clear();
        let verdict = plane.on_timeout(&mut rng, SimTime::from_secs(15), id, &mut out);
        assert_eq!(verdict, TimeoutVerdict::GaveUp("w".into()));
        assert_eq!(plane.outstanding_count(), 0);
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn just_before(t: SimTime) -> SimTime {
        SimTime::from_nanos(t.as_nanos() - 1)
    }

    /// A job pinned to worker 1 at `now` (no retry: its first deadline
    /// gives it up).
    fn pinned(plane: &mut DispatchPlane, now: SimTime) -> u64 {
        let out = &mut Vec::new();
        let (me, w1) = (ComponentId(50), ComponentId(1));
        let input = Blob::payload(10, "x");
        let span = SpanCtx::root();
        plane.dispatch_to(now, me, w1, "w".into(), "op", input, None, span, out)
    }

    #[test]
    fn deadlines_expire_in_dispatch_order_each_at_its_own() {
        let mut plane = DispatchPlane::new(SnsConfig::default());
        let mut rng = Pcg32::new(7);
        let mut out = Vec::new();
        let ids: Vec<u64> = (0..4).map(|t| pinned(&mut plane, secs(t))).collect();
        plane.on_response(ids[1], secs(4), &mut out);
        // Timeout 5 s: the answered job's deadline (6 s) never fires.
        for (id, at) in [(ids[0], secs(5)), (ids[2], secs(7)), (ids[3], secs(8))] {
            assert_eq!(plane.next_deadline(), Some(at));
            assert_eq!(plane.expire_next(&mut rng, just_before(at), &mut out), None);
            let expired = plane.expire_next(&mut rng, at, &mut out);
            assert_eq!(expired, Some((id, TimeoutVerdict::GaveUp("w".into()))));
        }
        assert_eq!(plane.next_deadline(), None);
        assert_eq!(plane.expire_next(&mut rng, secs(100), &mut out), None);
    }

    #[test]
    fn a_retried_job_times_out_at_its_retry_deadline_not_its_first() {
        let mut plane = DispatchPlane::new(SnsConfig::default());
        plane.on_beacon(&beacon(&[(1, 0.0), (2, 0.0), (3, 0.0)]));
        let mut rng = Pcg32::new(7);
        let mut out = Vec::new();
        let id = plane.dispatch(
            &mut rng,
            secs(0),
            ComponentId(50),
            "w".into(),
            "op",
            Blob::payload(10, "x"),
            None,
            SpanCtx::root(),
            &mut out,
        );
        // A refused send times the job out at 2 s, before its 5 s deadline.
        let verdict = plane.on_timeout(&mut rng, secs(2), id, &mut out);
        assert_eq!(verdict, TimeoutVerdict::Retried);
        assert_eq!(plane.next_deadline(), Some(secs(7)));
        assert_eq!(plane.expire_next(&mut rng, secs(5), &mut out), None);
        assert_eq!(
            plane.expire_next(&mut rng, just_before(secs(7)), &mut out),
            None
        );
        let expired = plane.expire_next(&mut rng, secs(7), &mut out);
        assert_eq!(expired, Some((id, TimeoutVerdict::Retried)));
        assert_eq!(plane.next_deadline(), Some(secs(12)));
    }

    #[test]
    fn the_deadline_ring_stays_bounded_behind_one_open_job() {
        let mut plane = DispatchPlane::new(SnsConfig::default());
        let mut out = Vec::new();
        let held = pinned(&mut plane, secs(0));
        for i in 0..10_000 {
            let now = SimTime::from_nanos(i * 1_000);
            let id = pinned(&mut plane, now);
            let bound = 2 * plane.outstanding_count() + 64;
            assert!(plane.deadlines.len() <= bound, "ring grew past {bound}");
            plane.on_response(id, now, &mut out);
        }
        assert_eq!(plane.next_deadline(), Some(secs(5)), "the held job");
        plane.on_response(held, secs(1), &mut out);
        assert_eq!(plane.next_deadline(), None);
        assert!(plane.deadlines.is_empty());
    }

    #[test]
    fn control_plane_bootstraps_to_minimum_with_effect_confirmation() {
        let mut p = plane(2);
        let v = view(&[(0, 1), (1, 0)]);
        let mut out = Vec::new();
        p.on_start(SimTime::ZERO, ComponentId(1), NodeId(0), &v, &mut out);
        // Grace: no spawns in the first two beacon periods.
        assert!(spawns(&out).is_empty());
        let mut out = Vec::new();
        p.on_tick(SimTime::from_secs(3), &v, &mut out);
        let sp = spawns(&out);
        assert_eq!(sp.len(), 2, "bootstrap to min_workers");
        // Least-loaded node first; the second spawn sees the first via
        // the in-call placement accounting.
        assert_eq!(sp[0].0, NodeId(1));
        assert_eq!(sp[1].0, NodeId(0));
        for (i, &(_, token)) in sp.iter().enumerate() {
            p.confirm_spawn(token, ComponentId(10 + i as u64));
        }
        // Registration clears pending; strength holds at 2.
        let mut out = Vec::new();
        p.on_register_worker(
            ComponentId(10),
            "w".into(),
            NodeId(1),
            false,
            SimTime::from_secs(3),
            &mut out,
        );
        assert!(matches!(out[0], ControlEffect::Watch(w) if w == ComponentId(10)));
        assert_eq!(p.class_strength(&"w".into()), 2);
        let mut out = Vec::new();
        p.on_tick(SimTime::from_secs(4), &v, &mut out);
        assert!(spawns(&out).is_empty(), "no over-spawn");
    }

    #[test]
    fn death_triggers_respawn_and_peer_restarted() {
        let mut p = plane(1);
        let v = view(&[(0, 1)]);
        let mut out = Vec::new();
        p.on_start(SimTime::ZERO, ComponentId(1), NodeId(0), &v, &mut out);
        p.on_register_worker(
            ComponentId(7),
            "w".into(),
            NodeId(0),
            false,
            SimTime::ZERO,
            &mut Vec::new(),
        );
        let mut out = Vec::new();
        p.on_peer_death(ComponentId(7), SimTime::from_secs(5), &v, &mut out);
        assert_eq!(spawns(&out).len(), 1, "process-peer restart");
        assert!(out.iter().any(|e| matches!(
            e,
            ControlEffect::Emit(MonitorEvent::PeerRestarted { kind: "worker", .. })
        )));
    }

    #[test]
    fn ensure_workers_bypasses_grace_and_respects_target() {
        let mut p = plane(0);
        let v = view(&[(0, 0)]);
        let mut out = Vec::new();
        p.on_start(SimTime::ZERO, ComponentId(1), NodeId(0), &v, &mut out);
        let mut out = Vec::new();
        p.ensure_workers(&"w".into(), 3, SimTime::ZERO, &v, &mut out);
        let sp = spawns(&out);
        assert_eq!(sp.len(), 3);
        for (i, &(_, token)) in sp.iter().enumerate() {
            p.confirm_spawn(token, ComponentId(20 + i as u64));
        }
        assert_eq!(p.class_strength(&"w".into()), 3);
        let mut out = Vec::new();
        p.ensure_workers(&"w".into(), 3, SimTime::ZERO, &v, &mut out);
        assert!(spawns(&out).is_empty(), "target already met");
    }

    #[test]
    fn rival_beacon_steps_down_lower_incarnation() {
        let mut p = plane(0);
        let mut out = Vec::new();
        p.on_start(
            SimTime::ZERO,
            ComponentId(1),
            NodeId(0),
            &view(&[]),
            &mut out,
        );
        let mut rival = BeaconData {
            manager: ComponentId(9),
            incarnation: 2,
            hints: BTreeMap::new(),
            at: SimTime::ZERO,
        };
        let mut out = Vec::new();
        p.on_rival_beacon(&rival, &mut out);
        assert!(out.iter().any(|e| matches!(e, ControlEffect::StepDown)));
        // Our own beacon is never a rival.
        rival.manager = ComponentId(1);
        let mut out = Vec::new();
        p.on_rival_beacon(&rival, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn rival_beacon_n1_rule_survives_lower_rival() {
        // A rival with a *lower* (incarnation, id) loses and we stay up.
        let mut p = plane(0);
        let mut out = Vec::new();
        p.on_start(
            SimTime::ZERO,
            ComponentId(5),
            NodeId(0),
            &view(&[]),
            &mut out,
        );
        let rival = BeaconData {
            manager: ComponentId(3),
            incarnation: 1,
            hints: BTreeMap::new(),
            at: SimTime::from_secs(1),
        };
        let mut out = Vec::new();
        p.on_rival_beacon(&rival, &mut out);
        assert!(out.is_empty(), "lower rival must not unseat us");
    }

    fn rival(id: u64, incarnation: u64) -> BeaconData {
        BeaconData {
            manager: ComponentId(id),
            incarnation,
            hints: BTreeMap::new(),
            at: SimTime::from_secs(1),
        }
    }

    fn started(me: u64) -> ControlPlane {
        let mut p = plane(0);
        p.on_start(
            SimTime::ZERO,
            ComponentId(me),
            NodeId(0),
            &view(&[]),
            &mut Vec::new(),
        );
        p
    }

    #[test]
    fn rival_beacon_before_start_is_ignored() {
        let mut p = plane(0);
        let mut out = Vec::new();
        p.on_rival_beacon(&rival(9, 7), &mut out);
        assert!(out.is_empty(), "nothing to step down before on_start");
    }

    #[test]
    fn rival_beacon_steps_down_once() {
        let mut p = started(1);
        let mut out = Vec::new();
        p.on_rival_beacon(&rival(9, 2), &mut out);
        // A still higher rival after the step-down changes nothing.
        let mut later = Vec::new();
        p.on_rival_beacon(&rival(10, 5), &mut later);
        assert!(later.is_empty(), "a stepped-down manager stays down");
        let stepdowns: u64 = out
            .iter()
            .filter_map(|e| match e {
                ControlEffect::Incr {
                    key: "manager.stepdowns",
                    n,
                } => Some(*n),
                _ => None,
            })
            .sum();
        assert_eq!(stepdowns, 1);
        let steps = out
            .iter()
            .filter(|e| matches!(e, ControlEffect::StepDown))
            .count();
        assert_eq!(steps, 1);
    }

    #[test]
    fn rival_beacon_equal_incarnation_breaks_tie_on_id() {
        // `plane` runs at incarnation 1, like both rivals below.
        let mut p = started(5);
        let mut out = Vec::new();
        p.on_rival_beacon(&rival(4, 1), &mut out);
        assert!(out.is_empty(), "a lower id at equal incarnation loses");
        p.on_rival_beacon(&rival(6, 1), &mut out);
        assert!(out.iter().any(|e| matches!(e, ControlEffect::StepDown)));
    }

    #[test]
    fn upgrade_bumps_node_epoch_and_rejoins() {
        let mut p = plane(0);
        let v = view(&[(0, 0), (1, 0)]);
        let mut out = Vec::new();
        p.on_start(SimTime::ZERO, ComponentId(1), NodeId(0), &v, &mut out);
        let mut out = Vec::new();
        p.on_drain_node(NodeId(1), &mut out);
        assert!(out
            .iter()
            .any(|e| matches!(e, ControlEffect::Emit(MonitorEvent::NodeDrained { node }) if *node == NodeId(1))));
        let mut out = Vec::new();
        p.on_upgrade_node(NodeId(1), &mut out);
        assert!(out.iter().any(|e| matches!(
            e,
            ControlEffect::Emit(MonitorEvent::NodeRejoined { node, epoch })
                if *node == NodeId(1) && *epoch == 1
        )));
        // Upgrading a node that is not drained is a no-op.
        let mut out = Vec::new();
        p.on_upgrade_node(NodeId(1), &mut out);
        assert!(out.is_empty());
        // A second round lands at epoch 2.
        p.on_drain_node(NodeId(1), &mut Vec::new());
        let mut out = Vec::new();
        p.on_upgrade_node(NodeId(1), &mut out);
        assert!(out.iter().any(|e| matches!(
            e,
            ControlEffect::Emit(MonitorEvent::NodeRejoined { epoch: 2, .. })
        )));
    }

    #[test]
    fn tenant_admission_drops_and_degrades_over_quota() {
        let mut plane = DispatchPlane::new(SnsConfig::default());
        plane.on_beacon(&beacon(&[(1, 0.0)]));
        plane.set_tenant("w".into(), "hotbot");
        plane.set_tenant_policy(
            "hotbot",
            TenantPolicy {
                max_outstanding: 1,
                overload: OverloadPolicy::Drop,
            },
        );
        let mut rng = Pcg32::new(7);
        let mut out = Vec::new();
        assert_eq!(plane.admit(&"w".into(), &mut out), Admission::Accept);
        let id = plane.dispatch(
            &mut rng,
            SimTime::ZERO,
            ComponentId(50),
            "w".into(),
            "op",
            Blob::payload(10, "x"),
            None,
            SpanCtx::root(),
            &mut out,
        );
        assert_eq!(plane.tenant_outstanding("hotbot"), 1);
        assert_eq!(plane.admit(&"w".into(), &mut out), Admission::Drop);
        // Degrade policy admits up to 2× the quota.
        plane.set_tenant_policy(
            "hotbot",
            TenantPolicy {
                max_outstanding: 1,
                overload: OverloadPolicy::Degrade,
            },
        );
        assert_eq!(plane.admit(&"w".into(), &mut out), Admission::Degrade);
        // Settle the job: quota frees up.
        plane.on_response(id, SimTime::from_secs(1), &mut out);
        assert_eq!(plane.tenant_outstanding("hotbot"), 0);
        assert_eq!(plane.admit(&"w".into(), &mut out), Admission::Accept);
        // Untracked tenants are always accepted.
        assert_eq!(plane.admit(&"other".into(), &mut out), Admission::Accept);
    }

    /// A settable gauge table; workers absent from it are unknown.
    #[derive(Default)]
    struct FakeLoad(std::sync::Mutex<BTreeMap<ComponentId, u64>>);

    impl FakeLoad {
        fn set(&self, worker: u64, qlen: u64) {
            self.0.lock().unwrap().insert(ComponentId(worker), qlen);
        }
    }

    impl LiveLoad for FakeLoad {
        fn qlens(&self, workers: &[ComponentId]) -> Vec<Option<u64>> {
            let table = self.0.lock().unwrap();
            workers.iter().map(|w| table.get(w).copied()).collect()
        }
    }

    fn live_plane(hinted: &[(u64, f64)]) -> (DispatchPlane, Arc<FakeLoad>) {
        let load = Arc::new(FakeLoad::default());
        let mut plane = DispatchPlane::new(SnsConfig::default());
        plane.set_live_load(load.clone());
        plane.on_beacon(&beacon(hinted));
        (plane, load)
    }

    /// Dispatches one job and returns (job id, chosen worker).
    fn place(
        plane: &mut DispatchPlane,
        rng: &mut Pcg32,
        out: &mut Vec<DispatchEffect>,
    ) -> (u64, u64) {
        let id = plane.dispatch(
            rng,
            SimTime::ZERO,
            ComponentId(50),
            "w".into(),
            "op",
            Blob::payload(10, "x"),
            None,
            SpanCtx::root(),
            out,
        );
        (
            id,
            plane.outstanding[&id].worker.expect("a worker is hinted").0,
        )
    }

    fn placed_busy(out: &[DispatchEffect]) -> usize {
        out.iter()
            .filter(|e| {
                matches!(
                    e,
                    DispatchEffect::Incr {
                        key: "stub.placed_busy",
                        ..
                    }
                )
            })
            .count()
    }

    #[test]
    fn live_load_minimum_wins_over_hints() {
        // The hints say worker 1 is idle and 3 is swamped; the live
        // gauges say the opposite, and they are what counts.
        let (mut plane, load) = live_plane(&[(1, 0.0), (2, 0.0), (3, 9.0)]);
        load.set(1, 4);
        load.set(2, 2);
        load.set(3, 1);
        let mut rng = Pcg32::new(7);
        let mut out = Vec::new();
        for _ in 0..20 {
            assert_eq!(place(&mut plane, &mut rng, &mut out).1, 3);
        }
        assert_eq!(placed_busy(&out), 20, "every known worker had work");
        load.set(2, 0);
        out.clear();
        assert_eq!(place(&mut plane, &mut rng, &mut out).1, 2);
        assert_eq!(placed_busy(&out), 0, "an idle worker took it");
    }

    #[test]
    fn live_load_tie_spreads_over_all_minima() {
        let (mut plane, load) = live_plane(&[(1, 0.0), (2, 0.0), (3, 0.0), (4, 0.0)]);
        for w in 1..=3 {
            load.set(w, 0);
        }
        load.set(4, 1);
        let mut rng = Pcg32::new(7);
        let mut out = Vec::new();
        let mut seen = BTreeMap::new();
        for _ in 0..300 {
            *seen
                .entry(place(&mut plane, &mut rng, &mut out).1)
                .or_insert(0u32) += 1;
        }
        assert_eq!(
            seen.keys().copied().collect::<Vec<_>>(),
            vec![1, 2, 3],
            "all three minima drawn, the busier worker never: {seen:?}"
        );
        assert!(seen.values().all(|&n| n >= 60), "roughly even: {seen:?}");
    }

    #[test]
    fn live_load_retry_honours_exclude() {
        let (mut plane, load) = live_plane(&[(1, 0.0), (2, 0.0)]);
        load.set(1, 0);
        load.set(2, 5);
        let mut rng = Pcg32::new(7);
        let mut out = Vec::new();
        let (id, first) = place(&mut plane, &mut rng, &mut out);
        assert_eq!(first, 1);
        // Worker 1 is still the live minimum, but it has been tried.
        let verdict = plane.on_timeout(&mut rng, SimTime::from_secs(5), id, &mut out);
        assert_eq!(verdict, TimeoutVerdict::Retried);
        assert_eq!(plane.outstanding[&id].worker, Some(ComponentId(2)));
    }

    #[test]
    fn live_load_unknown_worker_is_last_resort_and_gets_evicted() {
        // Worker 2 was reaped after the beacon: hinted, but the source
        // no longer knows it.
        let (mut plane, load) = live_plane(&[(1, 0.0), (2, 0.0)]);
        load.set(1, 7);
        let mut rng = Pcg32::new(7);
        let mut out = Vec::new();
        for _ in 0..50 {
            assert_eq!(place(&mut plane, &mut rng, &mut out).1, 1);
        }
        // Now nothing hinted is known: the pick still names a worker,
        // uncounted, and the driver's refusal evicts it as before.
        load.0.lock().unwrap().clear();
        out.clear();
        let (id, ghost) = place(&mut plane, &mut rng, &mut out);
        assert_eq!(placed_busy(&out), 0, "no gauge was read");
        let verdict = plane.on_timeout(&mut rng, SimTime::from_secs(5), id, &mut out);
        assert_eq!(verdict, TimeoutVerdict::Retried);
        assert!(!plane.workers_of(&"w".into()).contains(&ComponentId(ghost)));
        assert_ne!(plane.outstanding[&id].worker, Some(ComponentId(ghost)));
    }

    #[test]
    fn lottery_without_a_live_source_is_pinned() {
        // First 32 picks of the source-less lottery (hint estimates plus
        // the growing §4.5 deltas: nothing is answered) for a fixed seed
        // and hint table, recorded before `LiveLoad` existed, and the
        // RNG's next output after them: the simulator's draw sequence.
        let mut plane = DispatchPlane::new(SnsConfig::default());
        plane.on_beacon(&beacon(&[(1, 0.0), (2, 1.5), (3, 0.25), (4, 4.0)]));
        let mut rng = Pcg32::new(0x5eed);
        let mut out = Vec::new();
        let picks: Vec<u64> = (0..32)
            .map(|_| place(&mut plane, &mut rng, &mut out).1)
            .collect();
        assert_eq!(
            picks,
            [
                1, 1, 3, 2, 3, 2, 2, 2, 1, 3, 3, 3, 1, 1, 2, 1, 1, 1, 3, 3, 4, 1, 3, 4, 4, 3, 2, 4,
                1, 4, 4, 1
            ]
        );
        assert_eq!(rng.next_u64(), 836639084580551418);
        assert_eq!(placed_busy(&out), 0);
    }
}
