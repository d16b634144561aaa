//! Virtual-time injector: compiles a [`FaultPlan`] into `sim.at` scripts
//! against the discrete-event engine, and carries the stale-routing probe
//! that watches `net.delivered_to_dead` between faults.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use sns_core::{intern_class, MonitorLog, SnsMsg};
use sns_san::San;
use sns_sim::{NodeId, Sim, SimTime};

use crate::{FaultKind, FaultPlan};

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
        let blackout_depth = Rc::new(Cell::new(0u32));

        for ev in &plan.events {
            let at = SimTime::ZERO + ev.at;
            let kind = ev.kind.clone();
            let rec = Rc::clone(&injections);
            let depth = Rc::clone(&blackout_depth);
            sim.at(at, move |s| {
                let applied = apply(s, &kind, &depth);
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
                    what: kind.to_string(),
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

/// Resolves the `which`-th node of `pool` in stable creation order,
/// requiring it to be in `want_alive` state — the anti-wrap rule: a
/// fault aimed at a node in the wrong state is a skip, never a re-aim.
fn pool_node(s: &SnsSim, pool: &str, which: usize, want_alive: bool) -> Option<NodeId> {
    s.nodes_with_tag_all(pool)
        .get(which)
        .filter(|&&(_, alive)| alive == want_alive)
        .map(|&(n, _)| n)
}

/// Sends an operator message to the current manager component, if one
/// is alive at fire time.
fn tell_manager(s: &mut SnsSim, msg: SnsMsg) -> bool {
    match s.components_of_kind("manager").first() {
        Some(&mgr) => {
            s.inject(mgr, msg);
            true
        }
        None => false,
    }
}

fn apply(s: &mut SnsSim, kind: &FaultKind, blackout_depth: &Rc<Cell<u32>>) -> bool {
    match kind {
        FaultKind::KillWorker { class, which } => {
            let comps = s.components_of_kind(intern_class(class));
            match comps.get(which % comps.len().max(1)) {
                Some(&victim) => {
                    s.kill_component(victim);
                    true
                }
                None => false,
            }
        }
        FaultKind::KillManager => {
            let comps = s.components_of_kind("manager");
            match comps.first() {
                Some(&victim) => {
                    s.kill_component(victim);
                    true
                }
                None => false,
            }
        }
        // Front ends restart the manager themselves in this backend
        // (process-peer supervision); nothing to do here.
        FaultKind::RestartManager => false,
        FaultKind::KillNode { pool, which } => match pool_node(s, pool, *which, true) {
            Some(node) => {
                s.kill_node(node);
                true
            }
            None => false,
        },
        FaultKind::ReviveNode { pool, which } => match pool_node(s, pool, *which, false) {
            Some(node) => {
                s.revive_node(node);
                true
            }
            None => false,
        },
        FaultKind::Partition {
            pool,
            which,
            heal_after,
        } => {
            let Some(target) = pool_node(s, pool, *which, true) else {
                return false;
            };
            let rest: Vec<_> = s.node_ids().into_iter().filter(|&n| n != target).collect();
            s.net_mut().partition(&[vec![target], rest]);
            let heal_at = s.now() + *heal_after;
            s.at(heal_at, |s| s.net_mut().heal());
            true
        }
        FaultKind::BeaconLoss { lasting } => {
            blackout_depth.set(blackout_depth.get() + 1);
            s.net_mut().set_datagram_blackout(true);
            let end = s.now() + *lasting;
            let depth = Rc::clone(blackout_depth);
            s.at(end, move |s| {
                depth.set(depth.get().saturating_sub(1));
                if depth.get() == 0 {
                    s.net_mut().set_datagram_blackout(false);
                }
            });
            true
        }
        FaultKind::Straggler {
            pool,
            which,
            slowdown,
            lasting,
        } => {
            let Some(node) = pool_node(s, pool, *which, true) else {
                return false;
            };
            let orig = s.net().nic_params(node);
            let mut slow = orig.clone();
            slow.bandwidth_bps = (orig.bandwidth_bps / f64::from((*slowdown).max(1))).max(1.0);
            s.net_mut().set_nic(node, slow);
            let end = s.now() + *lasting;
            s.at(end, move |s| s.net_mut().set_nic(node, orig));
            true
        }
        FaultKind::DrainNode { pool, which } => match pool_node(s, pool, *which, true) {
            Some(node) => tell_manager(s, SnsMsg::DrainNode { node }),
            None => false,
        },
        FaultKind::RejoinNode { pool, which } => match pool_node(s, pool, *which, true) {
            Some(node) => tell_manager(s, SnsMsg::UndrainNode { node }),
            None => false,
        },
        FaultKind::RollingUpgrade {
            pool,
            nodes,
            batch,
            settle,
        } => {
            let all = s.nodes_with_tag_all(pool);
            let count = (*nodes).min(all.len());
            if count == 0 || s.components_of_kind("manager").is_empty() {
                return false;
            }
            let batch_size = (*batch).max(1);
            let settle = *settle;
            // Expand into per-round drain / upgraded-rejoin steps.
            // Round r drains at now + r·settle and rejoins at
            // now + (r+1)·settle, so a batch is always back in service
            // before the next one goes down. Targets resolve at step
            // fire time (the manager may have failed over meanwhile).
            for (r, chunk) in (0..count)
                .collect::<Vec<_>>()
                .chunks(batch_size)
                .enumerate()
            {
                let round: Vec<NodeId> = chunk.iter().map(|&i| all[i].0).collect();
                let drain_at = s.now() + settle.saturating_mul(r as u32);
                let rejoin_at = drain_at + settle;
                let drained = round.clone();
                s.at(drain_at, move |s| {
                    for node in drained {
                        if s.node_alive(node) {
                            tell_manager(s, SnsMsg::DrainNode { node });
                        }
                    }
                });
                s.at(rejoin_at, move |s| {
                    for node in round.iter().copied() {
                        if s.node_alive(node) {
                            tell_manager(s, SnsMsg::UpgradeNode { node });
                        }
                    }
                });
            }
            true
        }
    }
}
