//! The system monitor (§3.1.7), minus the Tcl/Tk pixels.
//!
//! Components multicast [`MonitorEvent`]s to the monitor group; the
//! monitor keeps a bounded event log, per-kind counters, tracks component
//! liveness from periodic reports, and "pages the operator" (raises an
//! alert counter and log entry) when a component goes quiet — the paper's
//! asynchronous error notification. Multiple monitors can join the same
//! group (remote management).

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::time::Duration;

use sns_sim::engine::{Component, Ctx};
use sns_sim::time::SimTime;
use sns_sim::{ComponentId, GroupId, NodeId};

use crate::msg::SnsMsg;
use crate::WorkerClass;

/// Events of interest to the operator.
#[derive(Debug, Clone)]
pub enum MonitorEvent {
    /// A component came up.
    Started {
        /// Reporting component.
        who: ComponentId,
        /// Component kind ("manager", "worker", "frontend", …).
        kind: &'static str,
        /// Node it runs on.
        node: NodeId,
    },
    /// The manager spawned a worker.
    SpawnedWorker {
        /// Class spawned.
        class: WorkerClass,
        /// Target node.
        node: NodeId,
        /// Whether the node is in the overflow pool (§2.2.3).
        overflow: bool,
    },
    /// The manager reaped a worker after sustained low load.
    ReapedWorker {
        /// The reaped worker.
        worker: ComponentId,
        /// Its class.
        class: WorkerClass,
    },
    /// A worker crashed on pathological input (§3.1.6).
    WorkerCrashed {
        /// The crashed worker.
        worker: ComponentId,
        /// Its class.
        class: WorkerClass,
    },
    /// A component detected a dead peer and restarted it (process-peer
    /// fault tolerance, §3.1.3).
    PeerRestarted {
        /// Who performed the restart.
        by: ComponentId,
        /// What kind of peer was restarted.
        kind: &'static str,
    },
    /// Periodic liveness heartbeat with a load figure.
    Heartbeat {
        /// Reporting component.
        who: ComponentId,
        /// Kind of the reporter.
        kind: &'static str,
        /// Load metric (queue length, active requests, …).
        load: f64,
    },
    /// A node was drained by the operator: no new placements land there
    /// and its workers shut down once their queues empty.
    NodeDrained {
        /// The drained node.
        node: NodeId,
    },
    /// A drained node rejoined the eligible set. `epoch > 0` means the
    /// rejoin completed a rolling-upgrade round (the node restarted at a
    /// new software incarnation); `epoch == 0` is a plain undrain.
    NodeRejoined {
        /// The rejoining node.
        node: NodeId,
        /// Upgrade epoch of the node after rejoin (0 = never upgraded).
        epoch: u64,
    },
    /// Free-form operator-visible warning.
    Warning(String),
}

impl MonitorEvent {
    /// Stable per-variant key, used for monitor counters and invariant
    /// checkers (`"started"`, `"spawned"`, `"reaped"`, `"crashed"`,
    /// `"peer_restarted"`, `"heartbeat"`, `"node_drained"`,
    /// `"node_rejoined"`, `"warning"`).
    pub fn kind_key(&self) -> &'static str {
        match self {
            MonitorEvent::Started { .. } => "started",
            MonitorEvent::SpawnedWorker { .. } => "spawned",
            MonitorEvent::ReapedWorker { .. } => "reaped",
            MonitorEvent::WorkerCrashed { .. } => "crashed",
            MonitorEvent::PeerRestarted { .. } => "peer_restarted",
            MonitorEvent::Heartbeat { .. } => "heartbeat",
            MonitorEvent::NodeDrained { .. } => "node_drained",
            MonitorEvent::NodeRejoined { .. } => "node_rejoined",
            MonitorEvent::Warning(_) => "warning",
        }
    }

    /// A stable single-line rendering for byte-exact log comparison in
    /// determinism tests. Floats are printed with fixed precision so the
    /// text is a pure function of the event value.
    pub fn canonical(&self) -> String {
        match self {
            MonitorEvent::Started { who, kind, node } => {
                format!("started who={who} kind={kind} node={node}")
            }
            MonitorEvent::SpawnedWorker {
                class,
                node,
                overflow,
            } => format!("spawned class={class} node={node} overflow={overflow}"),
            MonitorEvent::ReapedWorker { worker, class } => {
                format!("reaped worker={worker} class={class}")
            }
            MonitorEvent::WorkerCrashed { worker, class } => {
                format!("crashed worker={worker} class={class}")
            }
            MonitorEvent::PeerRestarted { by, kind } => {
                format!("peer_restarted by={by} kind={kind}")
            }
            MonitorEvent::Heartbeat { who, kind, load } => {
                format!("heartbeat who={who} kind={kind} load={load:.6}")
            }
            MonitorEvent::NodeDrained { node } => format!("node_drained node={node}"),
            MonitorEvent::NodeRejoined { node, epoch } => {
                format!("node_rejoined node={node} epoch={epoch}")
            }
            MonitorEvent::Warning(msg) => format!("warning {msg}"),
        }
    }
}

/// A timestamped log entry.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub event: MonitorEvent,
}

/// The monitor component.
pub struct Monitor {
    group: GroupId,
    /// Quiet-component alert threshold.
    silence_alert_after: Duration,
    log: VecDeque<LogEntry>,
    log_cap: usize,
    counters: BTreeMap<&'static str, u64>,
    last_seen: BTreeMap<ComponentId, (SimTime, &'static str)>,
    alerts: Vec<(SimTime, String)>,
    alerted: BTreeMap<ComponentId, bool>,
}

impl Monitor {
    /// Timer token for the periodic liveness sweep.
    const SWEEP: u64 = 1;

    /// Creates a monitor listening on `group`.
    pub fn new(group: GroupId, silence_alert_after: Duration) -> Self {
        Monitor {
            group,
            silence_alert_after,
            log: VecDeque::new(),
            log_cap: 10_000,
            counters: BTreeMap::new(),
            last_seen: BTreeMap::new(),
            alerts: Vec::new(),
            alerted: BTreeMap::new(),
        }
    }

    fn record(&mut self, at: SimTime, ev: MonitorEvent) {
        *self.counters.entry(ev.kind_key()).or_insert(0) += 1;
        match &ev {
            MonitorEvent::Started { who, kind, .. } => {
                self.last_seen.insert(*who, (at, kind));
                self.alerted.insert(*who, false);
            }
            MonitorEvent::Heartbeat { who, kind, .. } => {
                self.last_seen.insert(*who, (at, kind));
                self.alerted.insert(*who, false);
            }
            _ => {}
        }
        self.log.push_back(LogEntry { at, event: ev });
        if self.log.len() > self.log_cap {
            self.log.pop_front();
        }
    }

    /// Event counter by kind key (`"started"`, `"crashed"`, …).
    pub fn counter(&self, kind: &str) -> u64 {
        self.counters.get(kind).copied().unwrap_or(0)
    }

    /// The bounded event log.
    pub fn log(&self) -> impl Iterator<Item = &LogEntry> {
        self.log.iter()
    }

    /// Operator pages raised so far.
    pub fn alerts(&self) -> &[(SimTime, String)] {
        &self.alerts
    }

    /// Renders a one-screen cluster snapshot (the "visualization panel").
    pub fn snapshot(&self, now: SimTime) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== cluster monitor @ {now} ==");
        for (k, v) in &self.counters {
            let _ = writeln!(out, "  events.{k}: {v}");
        }
        let _ = writeln!(out, "  components tracked: {}", self.last_seen.len());
        for (id, (seen, kind)) in &self.last_seen {
            let age = now.since(*seen);
            let _ = writeln!(
                out,
                "    {kind} {id}: last seen {:.1}s ago",
                age.as_secs_f64()
            );
        }
        let _ = writeln!(out, "  alerts: {}", self.alerts.len());
        out
    }
}

impl Component<SnsMsg> for Monitor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
        ctx.join(self.group);
        ctx.timer(self.silence_alert_after, Self::SWEEP);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SnsMsg>, from: ComponentId, msg: SnsMsg) {
        if let SnsMsg::Monitor(ev) = msg {
            let now = ctx.now();
            // Mirror operator-visible events (not periodic heartbeats)
            // into the trace as instants, so failures and restarts line
            // up with the request spans they perturb.
            if ctx.tracer().is_enabled() && !matches!(*ev, MonitorEvent::Heartbeat { .. }) {
                ctx.tracer()
                    .instant(ev.kind_key(), crate::trace::CAT_MONITOR, from, now);
            }
            self.record(now, (*ev).clone());
            ctx.stats().incr("monitor.events", 1);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SnsMsg>, token: u64) {
        if token != Self::SWEEP {
            return;
        }
        let now = ctx.now();
        // Page the operator about components that went quiet (they may
        // have died together with their watcher).
        let mut pages = Vec::new();
        for (&id, &(seen, kind)) in &self.last_seen {
            let quiet = now.since(seen) > self.silence_alert_after;
            let already = self.alerted.get(&id).copied().unwrap_or(false);
            if quiet && !already {
                pages.push((id, kind));
            }
        }
        for (id, kind) in pages {
            self.alerts
                .push((now, format!("{kind} {id} stopped reporting")));
            self.alerted.insert(id, true);
            ctx.stats().incr("monitor.pages", 1);
        }
        ctx.timer(self.silence_alert_after / 2, Self::SWEEP);
    }

    fn kind(&self) -> &'static str {
        "monitor"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_sim::engine::{NodeSpec, Sim, SimConfig};
    use sns_sim::network::IdealNetwork;
    use std::sync::Arc;

    struct Reporter {
        group: GroupId,
        beats: u32,
    }

    impl Component<SnsMsg> for Reporter {
        fn on_start(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
            let me = ctx.me();
            let node = ctx.my_node();
            ctx.multicast(
                self.group,
                SnsMsg::Monitor(Arc::new(MonitorEvent::Started {
                    who: me,
                    kind: "reporter",
                    node,
                })),
            );
            ctx.timer(Duration::from_millis(500), 0);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, SnsMsg>, _: ComponentId, _: SnsMsg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, SnsMsg>, _: u64) {
            if self.beats == 0 {
                return; // go quiet
            }
            self.beats -= 1;
            let me = ctx.me();
            ctx.multicast(
                self.group,
                SnsMsg::Monitor(Arc::new(MonitorEvent::Heartbeat {
                    who: me,
                    kind: "reporter",
                    load: 1.0,
                })),
            );
            ctx.timer(Duration::from_millis(500), 0);
        }
    }

    #[test]
    fn snapshot_renders_cluster_state() {
        let mut m = Monitor::new(GroupId(0), Duration::from_secs(2));
        m.record(
            SimTime::from_secs(1),
            MonitorEvent::Started {
                who: ComponentId(5),
                kind: "worker",
                node: NodeId(0),
            },
        );
        m.record(
            SimTime::from_secs(2),
            MonitorEvent::Warning("something odd".into()),
        );
        let snap = m.snapshot(SimTime::from_secs(3));
        assert!(snap.contains("cluster monitor @ 3"));
        assert!(snap.contains("events.started: 1"));
        assert!(snap.contains("events.warning: 1"));
        assert!(snap.contains("worker c5: last seen 2.0s ago"));
        assert_eq!(m.counter("started"), 1);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn monitor_pages_on_silence() {
        let mut sim: Sim<SnsMsg, IdealNetwork> =
            Sim::new(SimConfig::default(), IdealNetwork::default());
        let n = sim.add_node(NodeSpec::new(1, "dedicated"));
        let g = sim.create_group();
        let mon = sim.spawn(
            n,
            Box::new(Monitor::new(g, Duration::from_secs(2))),
            "monitor",
        );
        sim.spawn(n, Box::new(Reporter { group: g, beats: 4 }), "reporter");
        sim.run_until(SimTime::from_secs(10));
        assert!(sim.stats().counter("monitor.events") >= 5);
        assert_eq!(sim.stats().counter("monitor.pages"), 1);
        let _ = mon;
    }
}
