//! The centralised load-balancing manager (§2.2.2, §3.1.2, §4.5).
//!
//! All manager state is **soft** (§3.1.3): the worker registry is rebuilt
//! from registrations triggered by the manager's own beacons, and load
//! figures are refreshed by periodic reports. A restarted manager
//! therefore needs no recovery code at all.
//!
//! Every *decision* — placement, threshold-H spawning, reaping, rival
//! step-down, process-peer restarts — lives in the sans-IO
//! [`ControlPlane`] ([`crate::control`]), which the threaded runtime
//! drives too. This component is the simulator driver: it snapshots the
//! cluster into a [`ClusterView`], invokes one plane handler per engine
//! callback, and applies the returned [`ControlEffect`]s in order onto
//! engine calls (`ctx.spawn`, `ctx.multicast`, `ctx.watch`, stats).
//! Worker/front-end *factories* stay here — building components is I/O
//! from the plane's point of view.

use std::collections::BTreeMap;
use std::sync::Arc;

use sns_sim::engine::{Component, Ctx};
use sns_sim::{ComponentId, GroupId, NodeId};

use crate::control::{
    ClusterView, ControlConfig, ControlEffect, ControlPlane, NodeLoad, SpawnPolicy,
};
use crate::msg::SnsMsg;
use crate::{SnsConfig, WorkerClass};

/// Builds a fresh worker component (a `WorkerStub` around new service
/// logic) for a class. Invoked for demand spawning and crash restarts.
pub type WorkerFactory = Box<dyn FnMut() -> Box<dyn Component<SnsMsg>> + Send>;

/// Builds a replacement front end (process-peer restart).
pub type FrontEndFactory = Box<dyn FnMut() -> Box<dyn Component<SnsMsg>> + Send>;

/// A class's scaling policy plus the factory that builds its workers.
pub struct WorkerSpec {
    /// The pure scaling policy (shared with the threaded runtime).
    pub policy: SpawnPolicy,
    /// The factory.
    pub factory: WorkerFactory,
}

impl WorkerSpec {
    /// Typical spec for an auto-scaled, restartable worker class.
    pub fn scaled(min_workers: u32, factory: WorkerFactory) -> Self {
        WorkerSpec {
            policy: SpawnPolicy::scaled(min_workers),
            factory,
        }
    }

    /// Spec for pinned, non-scaled workers (cache partitions, search
    /// partitions): exactly `n`, restarted on crash.
    pub fn pinned(n: u32, factory: WorkerFactory) -> Self {
        WorkerSpec {
            policy: SpawnPolicy::pinned(n),
            factory,
        }
    }
}

/// Manager construction parameters.
pub struct ManagerConfig {
    /// Layer timing/policy knobs.
    pub sns: SnsConfig,
    /// Beacon multicast group.
    pub beacon_group: GroupId,
    /// Monitor multicast group.
    pub monitor_group: GroupId,
    /// This incarnation (strictly greater than any predecessor's).
    pub incarnation: u64,
    /// Scaling policy + factory per worker class.
    pub classes: BTreeMap<WorkerClass, WorkerSpec>,
    /// Factory for restarting dead front ends (process peers).
    pub fe_factory: Option<FrontEndFactory>,
}

/// The manager component: the simulator driver for [`ControlPlane`].
pub struct Manager {
    beacon_group: GroupId,
    monitor_group: GroupId,
    factories: BTreeMap<WorkerClass, WorkerFactory>,
    fe_factory: Option<FrontEndFactory>,
    plane: ControlPlane,
    /// The buffer every plane call writes its effects into; reused, so
    /// a load report allocates none.
    out: Vec<ControlEffect>,
}

impl Manager {
    /// Timer token for the beacon/policy tick.
    const TICK: u64 = 0;

    /// Creates a manager.
    pub fn new(cfg: ManagerConfig) -> Self {
        let mut plane = ControlPlane::new(ControlConfig {
            sns: cfg.sns,
            incarnation: cfg.incarnation,
            restart_front_ends: cfg.fe_factory.is_some(),
        });
        let mut factories = BTreeMap::new();
        for (class, spec) in cfg.classes {
            plane.add_class(class, spec.policy);
            factories.insert(class, spec.factory);
        }
        Manager {
            beacon_group: cfg.beacon_group,
            monitor_group: cfg.monitor_group,
            factories,
            fe_factory: cfg.fe_factory,
            plane,
            out: Vec::new(),
        }
    }

    /// The plane's beacon period (timer re-arm).
    fn beacon_period(&self) -> std::time::Duration {
        self.plane.sns().beacon_period
    }

    /// Snapshots the alive cluster for the plane's placement decisions.
    fn view(&self, ctx: &Ctx<'_, SnsMsg>) -> ClusterView {
        let load = |ctx: &Ctx<'_, SnsMsg>, nodes: Vec<NodeId>| -> Vec<NodeLoad> {
            nodes
                .into_iter()
                .map(|node| NodeLoad {
                    node,
                    components: ctx.count_components_on(node) as u32,
                })
                .collect()
        };
        ClusterView {
            dedicated: load(ctx, ctx.nodes_with_tag("dedicated")),
            overflow: load(ctx, ctx.nodes_with_tag("overflow")),
            pinned_alive: self
                .plane
                .pinned_nodes()
                .into_iter()
                .map(|n| (n, ctx.node_alive(n)))
                .collect(),
            spawn_latency: ctx.spawn_latency(),
        }
    }

    /// Applies the plane's effects, in order, onto engine calls,
    /// emptying the buffer for the next call.
    fn apply(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
        for effect in self.out.drain(..) {
            match effect {
                ControlEffect::Spawn {
                    token,
                    class,
                    node,
                    overflow: _,
                } => {
                    let comp = (self
                        .factories
                        .get_mut(&class)
                        .expect("plane only spawns registered classes"))(
                    );
                    let kind = class.name();
                    if let Some(spawned) = ctx.spawn(node, comp, kind) {
                        // Watch from birth: a worker dying before it
                        // registers must still trigger process-peer
                        // recovery.
                        ctx.watch(spawned);
                        self.plane.confirm_spawn(token, spawned);
                    }
                }
                ControlEffect::SpawnFrontEnd { node } => {
                    if let Some(factory) = self.fe_factory.as_mut() {
                        let comp = factory();
                        ctx.spawn(node, comp, "frontend");
                    }
                }
                ControlEffect::Shutdown { worker } => ctx.send(worker, SnsMsg::Shutdown),
                ControlEffect::Beacon(data) => {
                    ctx.multicast(self.beacon_group, SnsMsg::Beacon(data));
                }
                ControlEffect::Watch(id) => ctx.watch(id),
                ControlEffect::Unwatch(id) => ctx.unwatch(id),
                ControlEffect::Emit(ev) => {
                    ctx.multicast(self.monitor_group, SnsMsg::Monitor(Arc::new(ev)));
                }
                ControlEffect::Incr { key, n } => ctx.stats().incr(key, n),
                ControlEffect::Sample { key, at, value } => ctx.stats().sample(key, at, value),
                ControlEffect::StepDown => ctx.exit(),
            }
        }
    }

    /// Load reports processed (the §4.6 manager-capacity experiment reads
    /// this).
    pub fn load_reports_handled(&self) -> u64 {
        self.plane.load_reports_handled()
    }
}

impl Component<SnsMsg> for Manager {
    fn on_start(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
        // The manager listens on its own beacon group to detect rival
        // incarnations (duplicate-restart resolution).
        ctx.join(self.beacon_group);
        let now = ctx.now();
        let me = ctx.me();
        let node = ctx.my_node();
        let view = self.view(ctx);
        self.plane.on_start(now, me, node, &view, &mut self.out);
        self.apply(ctx);
        ctx.timer(self.beacon_period(), Self::TICK);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SnsMsg>, _from: ComponentId, msg: SnsMsg) {
        match msg {
            SnsMsg::RegisterWorker {
                worker,
                class,
                node,
                overflow,
            } => {
                let now = ctx.now();
                self.plane
                    .on_register_worker(worker, class, node, overflow, now, &mut self.out);
            }
            SnsMsg::DeregisterWorker { worker } => {
                self.plane.on_deregister_worker(worker, &mut self.out);
            }
            SnsMsg::LoadReport {
                worker,
                class,
                qlen,
            } => {
                let now = ctx.now();
                // Placement of an unknown (adopted) worker, read only if
                // the plane asks.
                let place = || {
                    let node = ctx.node_of(worker).unwrap_or(NodeId(0));
                    (node, ctx.node_tag(node) == Some("overflow"))
                };
                self.plane
                    .on_load_report(worker, class, qlen, now, place, &mut self.out);
            }
            SnsMsg::NeedWorker { fe: _, class } => {
                let now = ctx.now();
                let view = self.view(ctx);
                self.plane.on_need_worker(&class, now, &view, &mut self.out);
            }
            SnsMsg::RegisterFrontEnd { fe, node } => {
                self.plane.on_register_front_end(fe, node, &mut self.out);
            }
            SnsMsg::DrainNode { node } => {
                self.plane.on_drain_node(node, &mut self.out);
            }
            SnsMsg::UndrainNode { node } => {
                self.plane.on_undrain_node(node, &mut self.out);
            }
            SnsMsg::UpgradeNode { node } => {
                self.plane.on_upgrade_node(node, &mut self.out);
            }
            SnsMsg::Beacon(b) => {
                self.plane.on_rival_beacon(&b, &mut self.out);
            }
            _ => {}
        }
        self.apply(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SnsMsg>, token: u64) {
        if token != Self::TICK {
            return;
        }
        let now = ctx.now();
        let view = self.view(ctx);
        self.plane.on_tick(now, &view, &mut self.out);
        self.apply(ctx);
        ctx.timer(self.beacon_period(), Self::TICK);
    }

    fn on_peer_death(&mut self, ctx: &mut Ctx<'_, SnsMsg>, peer: ComponentId) {
        let now = ctx.now();
        let view = self.view(ctx);
        self.plane.on_peer_death(peer, now, &view, &mut self.out);
        self.apply(ctx);
    }

    fn kind(&self) -> &'static str {
        "manager"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{WorkerLogic, WorkerStub, WorkerStubConfig};
    use crate::{Blob, Payload};
    use sns_sim::engine::{NodeSpec, Sim, SimConfig};
    use sns_sim::network::IdealNetwork;
    use sns_sim::rng::Pcg32;
    use sns_sim::time::SimTime;
    use std::time::Duration;

    struct Sleepy;
    impl WorkerLogic for Sleepy {
        fn class(&self) -> WorkerClass {
            "sleepy".into()
        }
        fn service_time(
            &mut self,
            _j: &crate::msg::Job,
            _now: SimTime,
            _r: &mut Pcg32,
        ) -> Duration {
            Duration::from_millis(40)
        }
        fn process(
            &mut self,
            _j: &crate::msg::Job,
            _now: SimTime,
            _r: &mut Pcg32,
        ) -> Result<Payload, crate::worker::WorkerError> {
            Ok(Blob::payload(100, "done"))
        }
    }

    fn factory(beacon: GroupId, monitor: GroupId) -> WorkerFactory {
        Box::new(move || {
            Box::new(WorkerStub::new(
                Box::new(Sleepy),
                WorkerStubConfig {
                    beacon_group: beacon,
                    monitor_group: monitor,
                    report_period: Duration::from_millis(500),
                    cost_weight_unit: None,
                },
            ))
        })
    }

    fn build(
        nodes: usize,
        overflow_nodes: usize,
        min_workers: u32,
    ) -> (Sim<SnsMsg, IdealNetwork>, ComponentId) {
        let mut sim: Sim<SnsMsg, IdealNetwork> =
            Sim::new(SimConfig::default(), IdealNetwork::default());
        for _ in 0..nodes {
            sim.add_node(NodeSpec::new(1, "dedicated"));
        }
        for _ in 0..overflow_nodes {
            sim.add_node(NodeSpec::new(1, "overflow"));
        }
        let beacon = sim.create_group();
        let monitor = sim.create_group();
        let mut classes = BTreeMap::new();
        classes.insert(
            WorkerClass::new("sleepy"),
            WorkerSpec::scaled(min_workers, factory(beacon, monitor)),
        );
        let mgr = Manager::new(ManagerConfig {
            sns: SnsConfig::default(),
            beacon_group: beacon,
            monitor_group: monitor,
            incarnation: 1,
            classes,
            fe_factory: None,
        });
        let node0 = sim.nodes_with_tag("dedicated")[0];
        let mid = sim.spawn(node0, Box::new(mgr), "manager");
        (sim, mid)
    }

    #[test]
    fn bootstraps_min_workers() {
        let (mut sim, _) = build(3, 0, 2);
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.components_of_kind("sleepy").len(), 2);
        assert_eq!(sim.stats().counter("manager.spawns"), 2);
    }

    #[test]
    fn crash_restart_process_peer() {
        let (mut sim, _) = build(3, 0, 1);
        sim.run_until(SimTime::from_secs(3));
        let w = sim.components_of_kind("sleepy")[0];
        sim.kill_component(w);
        sim.run_until(SimTime::from_secs(8));
        let workers = sim.components_of_kind("sleepy");
        assert_eq!(workers.len(), 1, "crashed worker must be restarted");
        assert_ne!(workers[0], w, "it is a fresh process");
        assert_eq!(sim.stats().counter("manager.worker_deaths"), 1);
    }

    #[test]
    fn spawns_on_demand_when_fe_needs_class() {
        let (mut sim, mgr) = build(2, 0, 0);
        sim.run_until(SimTime::from_secs(1));
        assert!(sim.components_of_kind("sleepy").is_empty());
        sim.inject(
            mgr,
            SnsMsg::NeedWorker {
                fe: ComponentId::EXTERNAL,
                class: "sleepy".into(),
            },
        );
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.components_of_kind("sleepy").len(), 1);
    }

    #[test]
    fn rival_manager_steps_down() {
        let (mut sim, _mgr1) = build(2, 0, 0);
        sim.run_until(SimTime::from_secs(1));
        // Spawn a rival with a higher incarnation on node 1.
        let beacon = GroupId(0);
        let monitor = GroupId(1);
        let node1 = sim.nodes_with_tag("dedicated")[1];
        let rival = Manager::new(ManagerConfig {
            sns: SnsConfig::default(),
            beacon_group: beacon,
            monitor_group: monitor,
            incarnation: 2,
            classes: BTreeMap::new(),
            fe_factory: None,
        });
        sim.spawn(node1, Box::new(rival), "manager");
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(
            sim.components_of_kind("manager").len(),
            1,
            "exactly one manager survives"
        );
        assert_eq!(sim.stats().counter("manager.stepdowns"), 1);
    }

    #[test]
    fn overflow_pool_used_when_dedicated_full() {
        // One dedicated node, max_per_node 4 via scaled() policy; demand
        // min_workers 6 so two land on overflow.
        let (mut sim, _) = build(1, 2, 6);
        sim.run_until(SimTime::from_secs(6));
        assert_eq!(sim.components_of_kind("sleepy").len(), 6);
        assert!(sim.stats().counter("manager.overflow_spawns") >= 2);
    }
}
