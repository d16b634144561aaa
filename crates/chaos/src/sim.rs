//! Virtual-time executor: runs each [`FaultPlan`] event's expanded
//! steps through the sim's one set of fault verbs at their virtual
//! times, and carries the stale-routing probe that watches
//! `net.delivered_to_dead` between faults.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::Duration;

use sns_core::{MonitorLog, SnsMsg};
use sns_san::{LinkParams, San};
use sns_sim::{NodeId, Sim, SimTime};

use crate::{FaultKind, FaultPlan, Step};

/// The concrete engine both the cluster harnesses and this injector use.
pub type SnsSim = Sim<SnsMsg, San>;

/// Tuning for the sim-side injector.
#[derive(Debug, Clone)]
pub struct SimChaosConfig {
    /// Stale-routing grace: after a death, the LB may keep routing to the
    /// corpse for at most this long (one stale-hint interval: beacon
    /// period + dispatch timeout + detection latency, with margin).
    pub grace: Duration,
    /// How often the probe samples `net.delivered_to_dead`.
    pub probe_period: Duration,
    /// How long to keep sampling; `None` derives it from the plan
    /// horizon plus one grace window.
    pub probe_until: Option<Duration>,
}

impl Default for SimChaosConfig {
    fn default() -> Self {
        SimChaosConfig {
            grace: Duration::from_secs(8),
            probe_period: Duration::from_millis(500),
            probe_until: None,
        }
    }
}

/// One injection attempt, recorded at fire time.
#[derive(Debug, Clone)]
pub struct Injection {
    /// Virtual time the event fired.
    pub at: SimTime,
    /// Rendered event (the plan grammar line).
    pub what: String,
    /// Whether a target existed and the fault was applied.
    pub applied: bool,
}

/// Handle returned by [`SimChaos::install`]: owns the injection record and
/// the stale-routing samples, and knows how to verify them afterwards.
pub struct SimChaos {
    injections: Rc<RefCell<Vec<Injection>>>,
    samples: Rc<RefCell<Vec<(SimTime, u64)>>>,
    static_windows: Vec<(SimTime, SimTime)>,
    grace: Duration,
}

impl SimChaos {
    /// Schedules every event of `plan` onto `sim`. Target resolution is
    /// deferred to fire time (over id-sorted candidate lists, so it is
    /// deterministic); events with no live target are recorded as skipped
    /// and counted under `chaos.skipped`.
    pub fn install(sim: &mut SnsSim, plan: &FaultPlan, cfg: SimChaosConfig) -> SimChaos {
        let injections: Rc<RefCell<Vec<Injection>>> = Rc::default();
        let samples: Rc<RefCell<Vec<(SimTime, u64)>>> = Rc::default();
        let verbs: Rc<RefCell<SimVerbs>> = Rc::default();

        for (ev, steps) in plan.events.iter().zip(plan.steps()) {
            let what = ev.kind.to_string();
            let rec = Rc::clone(&injections);
            let verbs = Rc::clone(&verbs);
            sim.at(SimTime::ZERO + ev.at, move |s| {
                // The onset's outcome is the event's; the later steps
                // run only after an onset that landed.
                let mut steps = steps.into_iter();
                let applied = steps
                    .next()
                    .is_some_and(|(_, onset)| verbs.borrow_mut().apply(s, &onset));
                for (offset, step) in steps.filter(|_| applied) {
                    if offset.is_zero() {
                        verbs.borrow_mut().apply(s, &step);
                    } else {
                        let verbs = Rc::clone(&verbs);
                        s.at(s.now() + offset, move |s| {
                            verbs.borrow_mut().apply(s, &step);
                        });
                    }
                }
                s.stats_mut().incr(
                    if applied {
                        "chaos.injected"
                    } else {
                        "chaos.skipped"
                    },
                    1,
                );
                rec.borrow_mut().push(Injection {
                    at: s.now(),
                    what,
                    applied,
                });
            });
        }

        let probe_until = SimTime::ZERO
            + cfg
                .probe_until
                .unwrap_or_else(|| plan.last_effect_at() + cfg.grace + cfg.grace);
        let probe_samples = Rc::clone(&samples);
        sim.every_until(
            SimTime::ZERO + cfg.probe_period,
            cfg.probe_period,
            probe_until,
            move |s| {
                let v = s.stats().counter("net.delivered_to_dead");
                probe_samples.borrow_mut().push((s.now(), v));
            },
        );

        // Death windows known statically from the plan: kills open one at
        // the kill; partitions open one spanning the whole outage through
        // heal-time reaping (replaced stragglers die when they re-adopt).
        let static_windows = plan
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                FaultKind::KillWorker { .. }
                | FaultKind::KillManager
                | FaultKind::KillNode { .. } => {
                    Some((SimTime::ZERO + e.at, SimTime::ZERO + e.at + cfg.grace))
                }
                FaultKind::Partition { heal_after, .. } => Some((
                    SimTime::ZERO + e.at,
                    SimTime::ZERO + e.at + *heal_after + cfg.grace,
                )),
                _ => None,
            })
            .collect();

        SimChaos {
            injections,
            samples,
            static_windows,
            grace: cfg.grace,
        }
    }

    /// The injection record so far (fire time, grammar line, applied?).
    pub fn injections(&self) -> Vec<Injection> {
        self.injections.borrow().clone()
    }

    /// How many events actually landed on a live target.
    pub fn applied_count(&self) -> usize {
        self.injections
            .borrow()
            .iter()
            .filter(|i| i.applied)
            .count()
    }

    /// Stale-routing check: `net.delivered_to_dead` may only grow inside
    /// a grace window opened by a planned kill or by a death the monitor
    /// stream observed (`crashed` / `reaped` events in `log`). Growth
    /// outside every window means the LB kept routing to a corpse past
    /// one stale-hint interval — returned as violation strings.
    pub fn stale_routing_violations(&self, log: &MonitorLog) -> Vec<String> {
        let mut windows: Vec<(SimTime, SimTime)> = self.static_windows.clone();
        for key in ["crashed", "reaped"] {
            for t in log.times_of(key) {
                windows.push((t, t + self.grace));
            }
        }
        windows.sort();

        let mut violations = Vec::new();
        let samples = self.samples.borrow();
        for pair in samples.windows(2) {
            let (t0, v0) = pair[0];
            let (t1, v1) = pair[1];
            if v1 > v0 {
                let excused = windows.iter().any(|&(ws, we)| t0 < we && t1 > ws);
                if !excused {
                    violations.push(format!(
                        "net.delivered_to_dead grew {v0} -> {v1} in ({t0}, {t1}] \
                         outside every death grace window"
                    ));
                }
            }
        }
        violations
    }
}

/// The sim's fault verbs, one implementation each: [`SimChaos`] runs
/// plan steps through [`SimVerbs::apply`] and
/// [`SimCluster`](crate::SimCluster) calls them behind the `Cluster`
/// trait. Node verbs resolve the `which`-th node of a pool in stable
/// creation order and skip a node in the wrong state (the anti-wrap
/// rule: a skip, never a re-aim). The set keeps what the verbs need
/// between steps: the nodes it drained and the original NIC of every
/// slowed node.
#[derive(Default)]
pub(crate) struct SimVerbs {
    drained: BTreeSet<NodeId>,
    nic_orig: BTreeMap<NodeId, LinkParams>,
}

impl SimVerbs {
    /// Runs one plan step; `true` when it landed.
    pub(crate) fn apply(&mut self, s: &mut SnsSim, step: &Step) -> bool {
        match step {
            Step::KillWorker(class, which) => self.kill_worker(s, class, *which),
            Step::KillManager => self.kill_worker(s, "manager", 0),
            // Front ends restart the manager themselves in this backend
            // (process-peer supervision); nothing to do here.
            Step::RestartManager => false,
            Step::KillNode(pool, which) => self.kill_pool_node(s, pool, *which).is_some(),
            Step::ReviveNode(pool, which) => self.revive_pool_node(s, pool, *which),
            Step::Partition(pool, which) => {
                let Some(target) = pool_node(s, pool, *which, true) else {
                    return false;
                };
                let rest: Vec<_> = s.node_ids().into_iter().filter(|&n| n != target).collect();
                s.net_mut().partition(&[vec![target], rest]);
                true
            }
            Step::Heal => {
                s.net_mut().heal();
                true
            }
            Step::Blackout(on) => {
                self.blackout(s, *on);
                true
            }
            Step::Slowdown(pool, which, factor) => self.slowdown(s, pool, *which, *factor),
            Step::Drain(pool, which) => self.drain(s, pool, *which),
            Step::Rejoin(pool, which, upgraded) => self.rejoin(s, pool, *which, *upgraded),
        }
    }

    /// Kills the `which`-th live component of `kind` (modulo their
    /// count, over id-sorted candidates).
    pub(crate) fn kill_worker(&mut self, s: &mut SnsSim, kind: &str, which: usize) -> bool {
        let comps = s.components_of_kind(kind);
        let Some(&victim) = comps.get(which % comps.len().max(1)) else {
            return false;
        };
        s.kill_component(victim);
        true
    }

    /// Kills a live pool node, returning how many components died.
    pub(crate) fn kill_pool_node(
        &mut self,
        s: &mut SnsSim,
        pool: &str,
        which: usize,
    ) -> Option<u64> {
        let node = pool_node(s, pool, which, true)?;
        let died = s.count_components_on(node) as u64;
        s.kill_node(node);
        Some(died)
    }

    /// Revives a dead pool node, empty.
    pub(crate) fn revive_pool_node(&mut self, s: &mut SnsSim, pool: &str, which: usize) -> bool {
        let Some(node) = pool_node(s, pool, which, false) else {
            return false;
        };
        s.revive_node(node);
        true
    }

    /// Divides a live node's NIC bandwidth by `factor` (`1.0` restores
    /// the NIC it had before its first slowdown).
    pub(crate) fn slowdown(
        &mut self,
        s: &mut SnsSim,
        pool: &str,
        which: usize,
        factor: f64,
    ) -> bool {
        let Some(node) = pool_node(s, pool, which, true) else {
            return false;
        };
        if factor <= 1.0 {
            if let Some(orig) = self.nic_orig.remove(&node) {
                s.net_mut().set_nic(node, orig);
            }
            return true;
        }
        let orig = self
            .nic_orig
            .entry(node)
            .or_insert_with(|| s.net().nic_params(node));
        let mut slow = orig.clone();
        slow.bandwidth_bps = (orig.bandwidth_bps / factor).max(1.0);
        s.net_mut().set_nic(node, slow);
        true
    }

    /// Asks the manager to drain a live node that is not drained.
    pub(crate) fn drain(&mut self, s: &mut SnsSim, pool: &str, which: usize) -> bool {
        let Some(node) = pool_node(s, pool, which, true) else {
            return false;
        };
        !self.drained.contains(&node)
            && tell_manager(s, SnsMsg::DrainNode { node })
            && self.drained.insert(node)
    }

    /// Asks the manager to return a live drained node to service, at a
    /// bumped upgrade epoch when `upgraded`.
    pub(crate) fn rejoin(
        &mut self,
        s: &mut SnsSim,
        pool: &str,
        which: usize,
        upgraded: bool,
    ) -> bool {
        let Some(node) = pool_node(s, pool, which, true) else {
            return false;
        };
        let msg = if upgraded {
            SnsMsg::UpgradeNode { node }
        } else {
            SnsMsg::UndrainNode { node }
        };
        self.drained.contains(&node) && tell_manager(s, msg) && self.drained.remove(&node)
    }

    /// Drops (or restores) every off-node datagram.
    pub(crate) fn blackout(&mut self, s: &mut SnsSim, on: bool) {
        s.net_mut().set_datagram_blackout(on);
    }
}

/// The `which`-th node of `pool` in stable creation order, if it is in
/// `want_alive` state.
fn pool_node(s: &SnsSim, pool: &str, which: usize, want_alive: bool) -> Option<NodeId> {
    s.nodes_with_tag_all(pool)
        .get(which)
        .filter(|&&(_, alive)| alive == want_alive)
        .map(|&(n, _)| n)
}

/// Sends an operator message to the current manager component, if one
/// is alive.
fn tell_manager(s: &mut SnsSim, msg: SnsMsg) -> bool {
    match s.components_of_kind("manager").first() {
        Some(&mgr) => {
            s.inject(mgr, msg);
            true
        }
        None => false,
    }
}
