//! Wall-clock executor: a background thread runs every plan event's
//! expanded steps, in time order, through the [`Cluster`] trait verbs.
//!
//! The cluster is shared with the thread, so it must be `Send + Sync`:
//! in practice the threaded runtime `sns_rt::RtCluster`. The simulator
//! harness ([`crate::harness::SimCluster`]) holds `Rc`/`RefCell` state
//! and is neither; its plans run through [`crate::sim::SimChaos`],
//! which executes the same expansion in virtual time. For the rt
//! backend nearly every fault has a thread-level analogue: worker
//! crashes (kill flags), manager failover (stop/start the manager
//! thread), beacon loss (suppress hint refreshes), node
//! kills/revivals (virtual placement domains — every worker on the
//! node crashes and replacements avoid it), and stragglers (per-node
//! service-time inflation). Only SAN partitions have no analogue —
//! there is no network between threads to cut — and are reported as
//! skipped.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use sns_core::cluster::Cluster;

use crate::{FaultPlan, Step};

/// What the injector thread did, returned from its join handle.
#[derive(Debug, Clone, Default)]
pub struct RtChaosReport {
    /// Grammar lines of events whose onset landed (in execution order).
    pub applied: Vec<String>,
    /// Grammar lines of events with no rt analogue or no live target.
    pub skipped: Vec<String>,
    /// Worker kill flags that were actually set.
    pub crashes_injected: usize,
}

/// Spawns a thread that executes `plan` against `cluster` in wall-clock
/// time, with modelled durations compressed by `time_scale` (use the
/// same value as the cluster's `RtConfig`). Join the returned handle
/// after the load phase to collect the [`RtChaosReport`].
pub fn run_plan<C: Cluster + Send + Sync + 'static>(
    cluster: Arc<C>,
    plan: &FaultPlan,
    time_scale: f64,
) -> thread::JoinHandle<RtChaosReport> {
    let lines: Vec<String> = plan
        .events
        .iter()
        .map(|ev| format!("+{:.3}s {}", ev.at.as_secs_f64(), ev.kind))
        .collect();
    // The sort is stable, so each event's onset precedes its later steps.
    let mut timeline: Vec<(Duration, usize, Step)> = Vec::new();
    for (i, (ev, steps)) in plan.events.iter().zip(plan.steps()).enumerate() {
        timeline.extend(steps.into_iter().map(|(off, step)| (ev.at + off, i, step)));
    }
    timeline.sort_by_key(|&(at, _, _)| at);

    thread::Builder::new()
        .name("sns-chaos-rt".into())
        .spawn(move || {
            let started = Instant::now();
            let mut report = RtChaosReport::default();
            // Per event: unset until its onset runs, then whether it
            // landed. The later steps run only after an onset that landed.
            let mut landed: Vec<Option<bool>> = vec![None; lines.len()];
            for (at, i, step) in timeline {
                if landed[i] == Some(false) {
                    continue;
                }
                let due = at.mul_f64(time_scale.max(0.0));
                let elapsed = started.elapsed();
                if due > elapsed {
                    thread::sleep(due - elapsed);
                }
                let outcome = apply(&*cluster, &step, &mut report.crashes_injected);
                if landed[i].is_none() {
                    landed[i] = Some(outcome.is_ok());
                    match outcome {
                        Ok(()) => report.applied.push(lines[i].clone()),
                        Err(why) => report.skipped.push(format!("{} ({why})", lines[i])),
                    }
                }
            }
            report
        })
        .expect("spawn chaos injector thread")
}

/// Runs one step against `cluster`, counting crashed workers into
/// `crashes`; `Err` carries the reason the step was skipped.
fn apply<C: Cluster>(cluster: &C, step: &Step, crashes: &mut usize) -> Result<(), &'static str> {
    let (landed, why) = match step {
        Step::KillWorker(class, _) => {
            let hit = cluster.crash_worker(class);
            *crashes += usize::from(hit);
            (hit, "no live worker")
        }
        Step::KillManager => {
            cluster.kill_manager();
            (true, "")
        }
        Step::RestartManager => {
            cluster.restart_manager();
            (true, "")
        }
        Step::KillNode(_, which) => {
            let killed = cluster.kill_node(*which);
            *crashes += killed.unwrap_or(0) as usize;
            (killed.is_some(), "no live node")
        }
        Step::ReviveNode(_, which) => (cluster.revive_node(*which), "no dead node"),
        Step::Partition(..) | Step::Heal => (false, "no rt analogue (SAN partition)"),
        Step::Blackout(on) => {
            cluster.set_beacon_blackout(*on);
            (true, "")
        }
        Step::Slowdown(_, which, factor) => {
            (cluster.set_node_slowdown(*which, *factor), "no live node")
        }
        Step::Drain(_, which) => (cluster.drain_node(*which), "node dead or already drained"),
        Step::Rejoin(_, which, upgraded) => (
            cluster.rejoin_node(*which, *upgraded),
            "node dead or not drained",
        ),
    };
    landed.then_some(()).ok_or(why)
}
