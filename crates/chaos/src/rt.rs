//! Wall-clock injector: compiles a [`FaultPlan`] into a timeline a
//! background thread executes against any live [`Cluster`].
//!
//! Historically this drove `sns_rt::RtCluster` directly; it is now
//! generic over the backend-agnostic [`Cluster`] trait, so the same
//! wall-clock interpreter can drive the threaded runtime or the
//! paced simulator harness ([`crate::harness::SimCluster`]). For the
//! rt backend nearly every fault has a thread-level analogue: worker
//! crashes (kill flags), manager failover (stop/start the manager
//! thread), beacon loss (suppress hint refreshes), node
//! kills/revivals (virtual placement domains — every worker on the
//! node crashes and replacements avoid it), and stragglers (per-node
//! service-time inflation). Only SAN partitions have no analogue —
//! there is no network between threads to cut — and are reported as
//! skipped. The plan still type-checks against both backends, which is
//! the point: one artifact, two interpreters.

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use sns_core::cluster::Cluster;

use crate::{FaultKind, FaultPlan};

/// What the injector thread did, returned from its join handle.
#[derive(Debug, Clone, Default)]
pub struct RtChaosReport {
    /// Grammar lines of events that landed (in execution order).
    pub applied: Vec<String>,
    /// Grammar lines of events with no rt analogue or no live target.
    pub skipped: Vec<String>,
    /// Worker kill flags that were actually set.
    pub crashes_injected: usize,
}

enum Action {
    CrashWorker(String),
    KillManager,
    StartManager,
    BlackoutOn,
    BlackoutOff,
    KillNode(usize),
    ReviveNode(usize),
    Slowdown(usize, f64),
    Drain(usize),
    Rejoin { which: usize, upgraded: bool },
    Skip(String),
}

/// Spawns a thread that executes `plan` against `cluster` in wall-clock
/// time, with modelled durations compressed by `time_scale` (use the
/// same value as the cluster's `RtConfig`, or `1.0` for a backend that
/// paces itself). Join the returned handle after the load phase to
/// collect the [`RtChaosReport`].
pub fn run_plan<C: Cluster + Send + Sync + 'static>(
    cluster: Arc<C>,
    plan: &FaultPlan,
    time_scale: f64,
) -> thread::JoinHandle<RtChaosReport> {
    // Expand window events (blackout on/off) into a flat timeline.
    let mut timeline: Vec<(std::time::Duration, String, Action)> = Vec::new();
    for ev in &plan.events {
        let line = format!("+{:.3}s {}", ev.at.as_secs_f64(), ev.kind);
        match &ev.kind {
            FaultKind::KillWorker { class, .. } => {
                timeline.push((ev.at, line, Action::CrashWorker(class.clone())));
            }
            FaultKind::KillManager => timeline.push((ev.at, line, Action::KillManager)),
            FaultKind::RestartManager => timeline.push((ev.at, line, Action::StartManager)),
            FaultKind::BeaconLoss { lasting } => {
                timeline.push((ev.at, line.clone(), Action::BlackoutOn));
                timeline.push((ev.at + *lasting, line, Action::BlackoutOff));
            }
            FaultKind::KillNode { which, .. } => {
                timeline.push((ev.at, line, Action::KillNode(*which)));
            }
            FaultKind::ReviveNode { which, .. } => {
                timeline.push((ev.at, line, Action::ReviveNode(*which)));
            }
            FaultKind::Straggler {
                which,
                slowdown,
                lasting,
                ..
            } => {
                timeline.push((
                    ev.at,
                    line.clone(),
                    Action::Slowdown(*which, *slowdown as f64),
                ));
                timeline.push((ev.at + *lasting, line, Action::Slowdown(*which, 1.0)));
            }
            FaultKind::Partition { .. } => {
                timeline.push((
                    ev.at,
                    line,
                    Action::Skip("no rt analogue (SAN partition)".into()),
                ));
            }
            FaultKind::DrainNode { which, .. } => {
                timeline.push((ev.at, line, Action::Drain(*which)));
            }
            FaultKind::RejoinNode { which, .. } => {
                timeline.push((
                    ev.at,
                    line,
                    Action::Rejoin {
                        which: *which,
                        upgraded: false,
                    },
                ));
            }
            FaultKind::RollingUpgrade {
                nodes,
                batch,
                settle,
                ..
            } => {
                // Same expansion as the sim injector: round r drains at
                // +r·settle and rejoins (upgraded) at +(r+1)·settle, so
                // a batch is back before the next goes down.
                let batch_size = (*batch).max(1);
                for (r, chunk) in (0..*nodes)
                    .collect::<Vec<_>>()
                    .chunks(batch_size)
                    .enumerate()
                {
                    let drain_at = ev.at + settle.saturating_mul(r as u32);
                    for &which in chunk {
                        timeline.push((drain_at, line.clone(), Action::Drain(which)));
                        timeline.push((
                            drain_at + *settle,
                            line.clone(),
                            Action::Rejoin {
                                which,
                                upgraded: true,
                            },
                        ));
                    }
                }
            }
        }
    }
    timeline.sort_by_key(|(at, _, _)| *at);

    thread::Builder::new()
        .name("sns-chaos-rt".into())
        .spawn(move || {
            let started = Instant::now();
            let mut report = RtChaosReport::default();
            for (at, line, action) in timeline {
                let due = at.mul_f64(time_scale.max(0.0));
                let elapsed = started.elapsed();
                if due > elapsed {
                    thread::sleep(due - elapsed);
                }
                match action {
                    Action::CrashWorker(class) => {
                        if cluster.crash_worker(&class) {
                            report.crashes_injected += 1;
                            report.applied.push(line);
                        } else {
                            report.skipped.push(format!("{line} (no live worker)"));
                        }
                    }
                    Action::KillManager => {
                        cluster.kill_manager();
                        report.applied.push(line);
                    }
                    Action::StartManager => {
                        cluster.restart_manager();
                        report.applied.push(line);
                    }
                    Action::BlackoutOn => {
                        cluster.set_beacon_blackout(true);
                        report.applied.push(line);
                    }
                    Action::BlackoutOff => {
                        cluster.set_beacon_blackout(false);
                    }
                    Action::KillNode(which) => match cluster.kill_node(which) {
                        Some(killed) => {
                            report.crashes_injected += killed as usize;
                            report.applied.push(line);
                        }
                        None => report.skipped.push(format!("{line} (no live node)")),
                    },
                    Action::ReviveNode(which) => {
                        if cluster.revive_node(which) {
                            report.applied.push(line);
                        } else {
                            report.skipped.push(format!("{line} (no dead node)"));
                        }
                    }
                    Action::Slowdown(which, factor) => {
                        if cluster.set_node_slowdown(which, factor) {
                            // The restore at window end is part of the same
                            // grammar line; only the onset is reported.
                            if factor != 1.0 {
                                report.applied.push(line);
                            }
                        } else if factor != 1.0 {
                            report.skipped.push(format!("{line} (no live node)"));
                        }
                    }
                    Action::Drain(which) => {
                        if cluster.drain_node(which) {
                            report.applied.push(line);
                        } else {
                            report
                                .skipped
                                .push(format!("{line} (node dead or already drained)"));
                        }
                    }
                    Action::Rejoin { which, upgraded } => {
                        if cluster.rejoin_node(which, upgraded) {
                            // Rolling-upgrade rejoins share their round's
                            // grammar line; report the onset only.
                            if !upgraded {
                                report.applied.push(line);
                            }
                        } else if !upgraded {
                            report
                                .skipped
                                .push(format!("{line} (node dead or not drained)"));
                        }
                    }
                    Action::Skip(why) => report.skipped.push(format!("{line} ({why})")),
                }
            }
            report
        })
        .expect("spawn chaos injector thread")
}
