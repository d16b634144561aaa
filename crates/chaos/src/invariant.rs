//! Concrete recovery invariants replayed over a recorded
//! [`MonitorLog`] after a fault plan runs.
//!
//! Each checker implements [`sns_core::Invariant`]; tests combine them
//! with the end-state laws asserted directly by the harness (job
//! conservation `responses + errors == submitted`, drain bound "all
//! answered by `plan.horizon(window)`", population restoration).

use std::time::Duration;

use sns_core::cluster::SettleStats;
use sns_core::{Invariant, MonitorEvent, MonitorLog};
use sns_sim::SimTime;

/// Fails if the cluster spawned more workers than `max`.
///
/// Boot spawns alone are a deterministic function of the topology, so a
/// budget of exactly that count makes *any* successful kill-then-respawn
/// a violation — the intentionally-broken invariant the property suite
/// uses to demonstrate shrinking to a minimal plan.
#[derive(Debug, Clone)]
pub struct SpawnBudget {
    /// Maximum number of `spawned` events allowed.
    pub max: usize,
    seen: usize,
}

impl SpawnBudget {
    /// Budget of at most `max` spawns.
    pub fn new(max: usize) -> Self {
        SpawnBudget { max, seen: 0 }
    }
}

impl Invariant for SpawnBudget {
    fn name(&self) -> &'static str {
        "chaos.spawn_budget"
    }
    fn on_event(&mut self, _at: SimTime, event: &MonitorEvent) {
        if event.kind_key() == "spawned" {
            self.seen += 1;
        }
    }
    fn verdict(&self) -> Result<(), String> {
        if self.seen <= self.max {
            Ok(())
        } else {
            Err(format!(
                "{} workers spawned, budget {}",
                self.seen, self.max
            ))
        }
    }
}

/// Fails unless the cluster spawned at least `min` workers — the
/// "every kill was followed by a respawn" direction: with boot spawns
/// at `B` and `K` kills of pinned classes, demand `B + K`.
#[derive(Debug, Clone)]
pub struct RespawnCoverage {
    /// Minimum number of `spawned` events required.
    pub min: usize,
    seen: usize,
}

impl RespawnCoverage {
    /// Requires at least `min` spawns.
    pub fn new(min: usize) -> Self {
        RespawnCoverage { min, seen: 0 }
    }
}

impl Invariant for RespawnCoverage {
    fn name(&self) -> &'static str {
        "chaos.respawn_coverage"
    }
    fn on_event(&mut self, _at: SimTime, event: &MonitorEvent) {
        if event.kind_key() == "spawned" {
            self.seen += 1;
        }
    }
    fn verdict(&self) -> Result<(), String> {
        if self.seen >= self.min {
            Ok(())
        } else {
            Err(format!(
                "only {} workers spawned, expected at least {}",
                self.seen, self.min
            ))
        }
    }
}

/// Fails if more worker crashes were *observed* than the plan injected —
/// the reconciliation law: no crash in the monitor stream without a
/// matching fault in the plan (input-induced crashes aside, which tests
/// account for in `max`).
#[derive(Debug, Clone)]
pub struct CrashBudget {
    /// Maximum number of `crashed` events allowed.
    pub max: usize,
    seen: usize,
}

impl CrashBudget {
    /// Budget of at most `max` observed crashes.
    pub fn new(max: usize) -> Self {
        CrashBudget { max, seen: 0 }
    }
}

impl Invariant for CrashBudget {
    fn name(&self) -> &'static str {
        "chaos.crash_budget"
    }
    fn on_event(&mut self, _at: SimTime, event: &MonitorEvent) {
        if event.kind_key() == "crashed" {
            self.seen += 1;
        }
    }
    fn verdict(&self) -> Result<(), String> {
        if self.seen <= self.max {
            Ok(())
        } else {
            Err(format!(
                "{} crashes observed, plan injected only {}",
                self.seen, self.max
            ))
        }
    }
}

/// The counter-reconciliation law: deaths the engine recorded
/// (`sim.deaths`) must account for every kill the plan applied. More
/// deaths than injections are fine only when `slack` covers collateral
/// deaths (components co-located on a killed node); fewer mean a planned
/// kill silently missed.
pub fn check_death_reconciliation(
    observed_deaths: u64,
    applied_kills: u64,
    slack: u64,
) -> Result<(), String> {
    if observed_deaths < applied_kills {
        Err(format!(
            "engine recorded {observed_deaths} deaths but the plan applied {applied_kills} kills"
        ))
    } else if observed_deaths > applied_kills + slack {
        Err(format!(
            "engine recorded {observed_deaths} deaths for {applied_kills} applied kills \
             (+{slack} slack) — unplanned deaths occurred"
        ))
    } else {
        Ok(())
    }
}

/// `UpgradeNoJobLoss`: a rolling upgrade must not lose work or nodes.
///
/// After an upgrade plan settles, demand that (a) every submitted job
/// was answered (`failed == 0` — drained workers empty their queues
/// before exiting, so in-flight work survives the drain), and (b) every
/// node the plan drained came back (`node_drained` and `node_rejoined`
/// counts match, with at least one round actually performed).
pub fn check_upgrade_no_job_loss(stats: &SettleStats, log: &MonitorLog) -> Result<(), String> {
    let drained = log.count("node_drained");
    let rejoined = log.count("node_rejoined");
    if stats.failed > 0 {
        Err(format!(
            "upgrade lost work: {} of {} jobs failed or timed out",
            stats.failed,
            stats.total()
        ))
    } else if drained == 0 {
        Err("no node_drained events — the upgrade plan never ran".into())
    } else if drained != rejoined {
        Err(format!(
            "{drained} nodes drained but {rejoined} rejoined — nodes left out of service"
        ))
    } else {
        Ok(())
    }
}

/// The p99 latency of a sample set (nearest-rank on the sorted samples;
/// `Duration::ZERO` for an empty set).
pub fn p99(samples: &[Duration]) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = samples.to_vec();
    sorted.sort();
    let rank = (samples.len() * 99).div_ceil(100);
    sorted[rank.saturating_sub(1)]
}

/// `TenantIsolation`: the victim tenant keeps serving within a latency
/// band while the aggressor tenant is saturated. Fails when the victim
/// answered nothing at all (starvation) or its p99 exceeds `band`.
pub fn check_tenant_isolation(victim_latencies: &[Duration], band: Duration) -> Result<(), String> {
    if victim_latencies.is_empty() {
        return Err("victim tenant answered no requests at all — starved".into());
    }
    let p = p99(victim_latencies);
    if p > band {
        Err(format!(
            "victim-tenant p99 {:.3}s exceeds the {:.3}s isolation band ({} samples)",
            p.as_secs_f64(),
            band.as_secs_f64(),
            victim_latencies.len()
        ))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_core::{MonitorLog, WorkerClass};
    use sns_sim::{ComponentId, NodeId};

    fn spawned(node: u32) -> MonitorEvent {
        MonitorEvent::SpawnedWorker {
            class: WorkerClass::new("w"),
            node: NodeId(node),
            overflow: false,
        }
    }

    #[test]
    fn budgets_and_coverage_render_verdicts() {
        let mut log = MonitorLog::default();
        log.push(SimTime::from_secs(1), spawned(0));
        log.push(SimTime::from_secs(2), spawned(1));

        assert!(log.check(&mut SpawnBudget::new(2)).is_ok());
        let err = log.check(&mut SpawnBudget::new(1)).unwrap_err();
        assert!(err.contains("chaos.spawn_budget"), "{err}");

        assert!(log.check(&mut RespawnCoverage::new(2)).is_ok());
        let err = log.check(&mut RespawnCoverage::new(3)).unwrap_err();
        assert!(err.contains("chaos.respawn_coverage"), "{err}");

        assert!(log.check(&mut CrashBudget::new(0)).is_ok());
        log.push(
            SimTime::from_secs(3),
            MonitorEvent::WorkerCrashed {
                worker: ComponentId(9),
                class: WorkerClass::new("w"),
            },
        );
        assert!(log.check(&mut CrashBudget::new(0)).is_err());
    }

    #[test]
    fn reconciliation_bounds_both_sides() {
        assert!(check_death_reconciliation(3, 3, 0).is_ok());
        assert!(check_death_reconciliation(5, 3, 2).is_ok());
        assert!(check_death_reconciliation(2, 3, 0).is_err());
        assert!(check_death_reconciliation(6, 3, 2).is_err());
    }

    #[test]
    fn upgrade_no_job_loss_demands_balance() {
        let mut log = MonitorLog::default();
        log.push(
            SimTime::from_secs(1),
            MonitorEvent::NodeDrained { node: NodeId(0) },
        );
        let ok = SettleStats {
            answered: 10,
            failed: 0,
        };
        assert!(
            check_upgrade_no_job_loss(&ok, &log).is_err(),
            "not rejoined"
        );
        log.push(
            SimTime::from_secs(2),
            MonitorEvent::NodeRejoined {
                node: NodeId(0),
                epoch: 1,
            },
        );
        assert!(check_upgrade_no_job_loss(&ok, &log).is_ok());
        let lossy = SettleStats {
            answered: 9,
            failed: 1,
        };
        assert!(check_upgrade_no_job_loss(&lossy, &log).is_err());
        assert!(
            check_upgrade_no_job_loss(&ok, &MonitorLog::default()).is_err(),
            "a plan that never drained is a failed upgrade run"
        );
    }

    #[test]
    fn p99_and_isolation_band() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(p99(&samples), Duration::from_millis(99));
        assert_eq!(p99(&[]), Duration::ZERO);
        assert!(check_tenant_isolation(&samples, Duration::from_millis(99)).is_ok());
        assert!(check_tenant_isolation(&samples, Duration::from_millis(98)).is_err());
        assert!(check_tenant_isolation(&[], Duration::from_secs(1)).is_err());
    }
}
