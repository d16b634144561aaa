//! The discrete-event engine: components, nodes, timers, CPU accounting,
//! liveness watches and the run loop.
//!
//! The engine is single-threaded and fully deterministic: events with equal
//! timestamps are delivered in scheduling order (a monotonic sequence
//! number breaks ties), all internal collections iterate in key order, and
//! the only randomness comes from the seeded [`Pcg32`] stream.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::time::Duration;

use crate::network::{Delivery, Endpoint, Network, TrafficClass};
use crate::rng::Pcg32;
use crate::sched::{Scheduler, WheelScheduler};
use crate::stats::StatsHub;
use crate::time::SimTime;
use crate::trace::Tracer;
use crate::{ComponentId, GroupId, NodeId};

/// Engine configuration knobs shared by all experiments.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for the engine RNG stream.
    pub seed: u64,
    /// Time from a spawn request until the new component's `on_start` runs
    /// (models fork/exec plus process initialisation).
    pub spawn_latency: Duration,
    /// Time from a component's death until its watchers are notified
    /// (models broken-TCP-connection detection).
    pub death_detect_latency: Duration,
    /// Hard cap on dispatched events (runaway-loop protection).
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0x5eed,
            spawn_latency: Duration::from_millis(300),
            death_detect_latency: Duration::from_millis(50),
            max_events: u64::MAX,
        }
    }
}

impl SimConfig {
    /// Default configuration; chain `with_*` methods to customise.
    ///
    /// ```
    /// use sns_sim::engine::SimConfig;
    ///
    /// let cfg = SimConfig::new().with_seed(0x517).with_max_events(1_000_000);
    /// assert_eq!(cfg.seed, 0x517);
    /// ```
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the engine RNG seed.
    pub fn with_seed(mut self, v: u64) -> Self {
        self.seed = v;
        self
    }

    /// Sets the hard cap on dispatched events.
    pub fn with_max_events(mut self, v: u64) -> Self {
        self.max_events = v;
        self
    }
}

/// Anything the engine can route. Messages carry their wire size so the
/// network model can account for bandwidth.
pub trait Wire {
    /// Bytes this message occupies on the wire (headers included).
    fn wire_size(&self) -> u64;
}

/// A simulated process. Implementations hold their own state and react to
/// the engine's callbacks; all interaction with the world goes through the
/// [`Ctx`] handle.
pub trait Component<M> {
    /// Invoked once when the component finishes starting on its node.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// Invoked for every delivered message.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: ComponentId, msg: M);

    /// Invoked when a timer set via [`Ctx::timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, M>, _token: u64) {}

    /// Invoked when a CPU burst requested via [`Ctx::exec_cpu`] completes.
    fn on_cpu_done(&mut self, _ctx: &mut Ctx<'_, M>, _token: u64) {}

    /// Invoked when a watched peer (see [`Ctx::watch`]) dies.
    fn on_peer_death(&mut self, _ctx: &mut Ctx<'_, M>, _peer: ComponentId) {}

    /// Human-readable kind, used in monitor output and stats keys.
    fn kind(&self) -> &'static str {
        "component"
    }
}

/// Description of a cluster node.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Number of CPU cores (parallel `exec_cpu` capacity).
    pub cores: u32,
    /// Free-form pool tag, e.g. `"dedicated"` or `"overflow"`.
    pub tag: String,
}

impl NodeSpec {
    /// Convenience constructor.
    pub fn new(cores: u32, tag: impl Into<String>) -> Self {
        NodeSpec {
            cores,
            tag: tag.into(),
        }
    }
}

#[derive(Debug)]
struct Node {
    alive: bool,
    /// Next-available time per core (virtual finish times).
    cores: Vec<SimTime>,
    tag: String,
}

#[derive(Debug, Clone)]
struct CompMeta {
    node: NodeId,
    alive: bool,
    started: bool,
    kind: &'static str,
}

enum Ev<M> {
    Msg {
        to: ComponentId,
        from: ComponentId,
        msg: M,
    },
    Timer {
        to: ComponentId,
        token: u64,
    },
    CpuDone {
        to: ComponentId,
        token: u64,
    },
    PeerDeath {
        to: ComponentId,
        peer: ComponentId,
    },
    Start {
        to: ComponentId,
    },
    Script(u64),
}

/// A dense arena keyed by the engine's monotonically allocated ids
/// (component, node and group ids start near zero and are never reused).
/// Replaces the `BTreeMap`s on the dispatch hot path: lookups are an
/// index, iteration is a linear scan in id order — the same order the
/// maps iterated in, so swapping them in changes nothing observable.
struct Slab<T> {
    items: Vec<Option<T>>,
}

impl<T> Slab<T> {
    fn new() -> Self {
        Slab { items: Vec::new() }
    }

    fn get(&self, i: usize) -> Option<&T> {
        self.items.get(i).and_then(|s| s.as_ref())
    }

    fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        self.items.get_mut(i).and_then(|s| s.as_mut())
    }

    fn insert(&mut self, i: usize, v: T) {
        if i >= self.items.len() {
            self.items.resize_with(i + 1, || None);
        }
        self.items[i] = Some(v);
    }

    fn get_or_insert_with(&mut self, i: usize, f: impl FnOnce() -> T) -> &mut T {
        if i >= self.items.len() {
            self.items.resize_with(i + 1, || None);
        }
        self.items[i].get_or_insert_with(f)
    }

    fn remove(&mut self, i: usize) -> Option<T> {
        self.items.get_mut(i).and_then(|s| s.take())
    }

    fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.items
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (i, v)))
    }

    fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.items.iter_mut().filter_map(|s| s.as_mut())
    }
}

/// Everything of the engine that is *not* the component boxes, so that a
/// component handler can hold `&mut Kernel` through its [`Ctx`] while the
/// engine holds the component itself.
pub struct Kernel<M, N> {
    now: SimTime,
    seq: u64,
    events_dispatched: u64,
    queue: WheelScheduler<Ev<M>>,
    rng: Pcg32,
    nodes: Slab<Node>,
    groups: Slab<BTreeSet<ComponentId>>,
    watchers: BTreeMap<ComponentId, BTreeSet<ComponentId>>,
    meta: Slab<CompMeta>,
    net: N,
    stats: StatsHub,
    cfg: SimConfig,
    next_comp: u64,
    next_node: u32,
    next_group: u32,
    tracer: Tracer,
    /// Reusable endpoint buffer for multicast fan-out.
    mcast_scratch: Vec<Endpoint>,
}

impl<M: Wire + Clone, N: Network> Kernel<M, N> {
    fn schedule(&mut self, at: SimTime, ev: Ev<M>) {
        debug_assert!(at >= self.now, "scheduling into the past");
        self.seq += 1;
        self.queue.push(at, self.seq, ev);
    }

    fn endpoint(&self, comp: ComponentId) -> Option<Endpoint> {
        self.meta
            .get(comp.0 as usize)
            .map(|m| Endpoint { node: m.node, comp })
    }

    fn is_alive(&self, comp: ComponentId) -> bool {
        self.meta.get(comp.0 as usize).is_some_and(|m| m.alive)
    }

    fn do_send(&mut self, from: ComponentId, to: ComponentId, msg: M, class: TrafficClass) {
        let Some(src) = self.endpoint(from) else {
            return;
        };
        let Some(dst) = self.endpoint(to) else {
            // A reply to an injected message leaves the cluster.
            if to != ComponentId::EXTERNAL {
                self.stats.incr("net.unicast_no_route", 1);
            }
            return;
        };
        let size = msg.wire_size();
        match self
            .net
            .unicast(self.now, &mut self.rng, src, dst, size, class)
        {
            Delivery::At(t) => self.schedule(t, Ev::Msg { to, from, msg }),
            Delivery::Dropped => self.stats.incr("net.unicast_dropped", 1),
        }
    }

    fn do_multicast(&mut self, from: ComponentId, group: GroupId, msg: M, class: TrafficClass) {
        let Some(src) = self.endpoint(from) else {
            return;
        };
        // Fan out into the reusable scratch buffer (no per-call Vecs).
        let mut endpoints = std::mem::take(&mut self.mcast_scratch);
        endpoints.clear();
        if let Some(members) = self.groups.get(group.0 as usize) {
            endpoints.extend(
                members
                    .iter()
                    .filter(|&&c| c != from)
                    .filter_map(|&c| self.endpoint(c)),
            );
        }
        if endpoints.is_empty() {
            self.mcast_scratch = endpoints;
            return;
        }
        let size = msg.wire_size();
        let decisions = self
            .net
            .multicast(self.now, &mut self.rng, src, &endpoints, size, class);
        for (ep, decision) in endpoints.iter().zip(decisions) {
            match decision {
                Delivery::At(t) => self.schedule(
                    t,
                    Ev::Msg {
                        to: ep.comp,
                        from,
                        msg: msg.clone(),
                    },
                ),
                Delivery::Dropped => self.stats.incr("net.multicast_dropped", 1),
            }
        }
        self.mcast_scratch = endpoints;
    }

    /// Occupies one core on `node` for `work`; returns the completion time.
    fn do_exec_cpu(&mut self, comp: ComponentId, work: Duration, token: u64) -> SimTime {
        let node_id = self
            .meta
            .get(comp.0 as usize)
            .expect("component exists")
            .node;
        let node = self.nodes.get_mut(node_id.0 as usize).expect("node exists");
        // Pick the earliest-available core.
        let (idx, avail) = node
            .cores
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(_, t)| t)
            .expect("node has at least one core");
        let start = avail.max(self.now);
        let fin = start + work;
        node.cores[idx] = fin;
        self.schedule(fin, Ev::CpuDone { to: comp, token });
        fin
    }
}

enum SideEffect<M> {
    Spawn {
        id: ComponentId,
        comp: Box<dyn Component<M>>,
    },
    Kill(ComponentId),
}

/// The handle a component uses to interact with the world during a
/// callback.
pub struct Ctx<'a, M> {
    kernel: &'a mut dyn KernelOps<M>,
    effects: &'a mut Vec<SideEffect<M>>,
    me: ComponentId,
}

/// Object-safe view of [`Kernel`] so `Ctx` need not be generic over the
/// network type.
trait KernelOps<M> {
    fn now(&self) -> SimTime;
    fn rng(&mut self) -> &mut Pcg32;
    fn stats(&mut self) -> &mut StatsHub;
    fn tracer(&self) -> &Tracer;
    fn send(&mut self, from: ComponentId, to: ComponentId, msg: M, class: TrafficClass);
    fn multicast(&mut self, from: ComponentId, group: GroupId, msg: M, class: TrafficClass);
    fn join(&mut self, comp: ComponentId, group: GroupId);
    fn leave(&mut self, comp: ComponentId, group: GroupId);
    fn timer(&mut self, comp: ComponentId, delay: Duration, token: u64);
    fn exec_cpu(&mut self, comp: ComponentId, work: Duration, token: u64) -> SimTime;
    fn watch(&mut self, watcher: ComponentId, peer: ComponentId);
    fn unwatch(&mut self, watcher: ComponentId, peer: ComponentId);
    fn alloc_component(&mut self, node: NodeId, kind: &'static str) -> Option<ComponentId>;
    fn spawn_latency(&self) -> Duration;
    fn node_of(&self, comp: ComponentId) -> Option<NodeId>;
    fn node_tag(&self, node: NodeId) -> Option<&str>;
    fn is_alive(&self, comp: ComponentId) -> bool;
    fn node_alive(&self, node: NodeId) -> bool;
    fn nodes_with_tag(&self, tag: &str) -> Vec<NodeId>;
    fn count_components_on(&self, node: NodeId) -> usize;
}

impl<M: Wire + Clone, N: Network> KernelOps<M> for Kernel<M, N> {
    fn now(&self) -> SimTime {
        self.now
    }
    fn rng(&mut self) -> &mut Pcg32 {
        &mut self.rng
    }
    fn stats(&mut self) -> &mut StatsHub {
        &mut self.stats
    }
    fn tracer(&self) -> &Tracer {
        &self.tracer
    }
    fn send(&mut self, from: ComponentId, to: ComponentId, msg: M, class: TrafficClass) {
        self.do_send(from, to, msg, class);
    }
    fn multicast(&mut self, from: ComponentId, group: GroupId, msg: M, class: TrafficClass) {
        self.do_multicast(from, group, msg, class);
    }
    fn join(&mut self, comp: ComponentId, group: GroupId) {
        self.groups
            .get_or_insert_with(group.0 as usize, BTreeSet::new)
            .insert(comp);
    }
    fn leave(&mut self, comp: ComponentId, group: GroupId) {
        if let Some(g) = self.groups.get_mut(group.0 as usize) {
            g.remove(&comp);
        }
    }
    fn timer(&mut self, comp: ComponentId, delay: Duration, token: u64) {
        let at = self.now + delay;
        self.schedule(at, Ev::Timer { to: comp, token });
    }
    fn exec_cpu(&mut self, comp: ComponentId, work: Duration, token: u64) -> SimTime {
        self.do_exec_cpu(comp, work, token)
    }
    fn watch(&mut self, watcher: ComponentId, peer: ComponentId) {
        self.watchers.entry(peer).or_default().insert(watcher);
    }
    fn unwatch(&mut self, watcher: ComponentId, peer: ComponentId) {
        if let Some(w) = self.watchers.get_mut(&peer) {
            w.remove(&watcher);
        }
    }
    fn alloc_component(&mut self, node: NodeId, kind: &'static str) -> Option<ComponentId> {
        if !self.nodes.get(node.0 as usize).is_some_and(|n| n.alive) {
            return None;
        }
        self.next_comp += 1;
        let id = ComponentId(self.next_comp);
        self.meta.insert(
            id.0 as usize,
            CompMeta {
                node,
                alive: true,
                started: false,
                kind,
            },
        );
        let at = self.now + self.cfg.spawn_latency;
        self.schedule(at, Ev::Start { to: id });
        Some(id)
    }
    fn spawn_latency(&self) -> Duration {
        self.cfg.spawn_latency
    }
    fn node_of(&self, comp: ComponentId) -> Option<NodeId> {
        self.meta.get(comp.0 as usize).map(|m| m.node)
    }
    fn node_tag(&self, node: NodeId) -> Option<&str> {
        self.nodes.get(node.0 as usize).map(|n| n.tag.as_str())
    }
    fn is_alive(&self, comp: ComponentId) -> bool {
        Kernel::is_alive(self, comp)
    }
    fn node_alive(&self, node: NodeId) -> bool {
        self.nodes.get(node.0 as usize).is_some_and(|n| n.alive)
    }
    fn nodes_with_tag(&self, tag: &str) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|(_, n)| n.alive && n.tag == tag)
            .map(|(id, _)| NodeId(id as u32))
            .collect()
    }
    fn count_components_on(&self, node: NodeId) -> usize {
        self.meta
            .iter()
            .filter(|(_, m)| m.alive && m.node == node)
            .count()
    }
}

impl<'a, M> Ctx<'a, M> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// This component's id.
    pub fn me(&self) -> ComponentId {
        self.me
    }

    /// The engine RNG stream.
    pub fn rng(&mut self) -> &mut Pcg32 {
        self.kernel.rng()
    }

    /// The shared measurement sink.
    pub fn stats(&mut self) -> &mut StatsHub {
        self.kernel.stats()
    }

    /// The span recorder (disabled by default; see [`Sim::set_tracer`]).
    pub fn tracer(&self) -> &Tracer {
        self.kernel.tracer()
    }

    /// Sends a reliable (TCP-like) unicast message.
    pub fn send(&mut self, to: ComponentId, msg: M) {
        self.kernel.send(self.me, to, msg, TrafficClass::Reliable);
    }

    /// Sends a best-effort datagram unicast message.
    pub fn send_datagram(&mut self, to: ComponentId, msg: M) {
        self.kernel.send(self.me, to, msg, TrafficClass::Datagram);
    }

    /// Multicasts a best-effort datagram to a group (the sender is skipped
    /// even if it is a member).
    pub fn multicast(&mut self, group: GroupId, msg: M) {
        self.kernel
            .multicast(self.me, group, msg, TrafficClass::Datagram);
    }

    /// Joins a multicast group.
    pub fn join(&mut self, group: GroupId) {
        self.kernel.join(self.me, group);
    }

    /// Leaves a multicast group.
    pub fn leave(&mut self, group: GroupId) {
        self.kernel.leave(self.me, group);
    }

    /// Schedules `on_timer(token)` after `delay`.
    pub fn timer(&mut self, delay: Duration, token: u64) {
        self.kernel.timer(self.me, delay, token);
    }

    /// Occupies one CPU core on this node for `work`, then delivers
    /// `on_cpu_done(token)`. Returns the predicted completion time.
    pub fn exec_cpu(&mut self, work: Duration, token: u64) -> SimTime {
        self.kernel.exec_cpu(self.me, work, token)
    }

    /// Registers interest in `peer`'s liveness; `on_peer_death` fires
    /// (after the configured detection latency) when it dies.
    pub fn watch(&mut self, peer: ComponentId) {
        self.kernel.watch(self.me, peer);
    }

    /// Deregisters a liveness watch.
    pub fn unwatch(&mut self, peer: ComponentId) {
        self.kernel.unwatch(self.me, peer);
    }

    /// Spawns a new component on `node` (subject to spawn latency).
    /// Returns `None` if the node is dead or unknown.
    pub fn spawn(
        &mut self,
        node: NodeId,
        comp: Box<dyn Component<M>>,
        kind: &'static str,
    ) -> Option<ComponentId> {
        let id = self.kernel.alloc_component(node, kind)?;
        self.effects.push(SideEffect::Spawn { id, comp });
        Some(id)
    }

    /// Forcibly terminates another component (or this one).
    pub fn kill(&mut self, comp: ComponentId) {
        self.effects.push(SideEffect::Kill(comp));
    }

    /// Terminates this component (clean exit).
    pub fn exit(&mut self) {
        self.effects.push(SideEffect::Kill(self.me));
    }

    /// Node hosting a component, if it exists.
    pub fn node_of(&self, comp: ComponentId) -> Option<NodeId> {
        self.kernel.node_of(comp)
    }

    /// This component's node.
    pub fn my_node(&self) -> NodeId {
        self.kernel.node_of(self.me).expect("self has a node")
    }

    /// Pool tag of a node.
    pub fn node_tag(&self, node: NodeId) -> Option<&str> {
        self.kernel.node_tag(node)
    }

    /// Whether a component is currently alive.
    pub fn is_alive(&self, comp: ComponentId) -> bool {
        self.kernel.is_alive(comp)
    }

    /// Whether a node is currently alive.
    pub fn node_alive(&self, node: NodeId) -> bool {
        self.kernel.node_alive(node)
    }

    /// All live nodes carrying the given pool tag.
    pub fn nodes_with_tag(&self, tag: &str) -> Vec<NodeId> {
        self.kernel.nodes_with_tag(tag)
    }

    /// How many live components a node hosts.
    pub fn count_components_on(&self, node: NodeId) -> usize {
        self.kernel.count_components_on(node)
    }

    /// Configured spawn latency (useful for policy timeouts).
    pub fn spawn_latency(&self) -> Duration {
        self.kernel.spawn_latency()
    }
}

struct Slot<M> {
    comp: Option<Box<dyn Component<M>>>,
    /// Messages delivered before `on_start`; flushed at start.
    mailbox: Vec<(ComponentId, M)>,
}

/// Why [`Sim::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The horizon was reached (events may remain beyond it).
    HorizonReached,
    /// The event queue drained before the horizon.
    QueueEmpty,
    /// The configured `max_events` cap was hit.
    EventCapReached,
}

type Script<M, N> = Box<dyn FnOnce(&mut Sim<M, N>)>;

/// The simulation: a cluster of nodes, the components running on them, an
/// interconnect model and a virtual clock.
pub struct Sim<M, N> {
    kernel: Kernel<M, N>,
    components: Slab<Slot<M>>,
    scripts: BTreeMap<u64, Script<M, N>>,
    next_script: u64,
    /// Reusable same-timestamp dispatch batch (run loop arena).
    batch_buf: Vec<(SimTime, u64, Ev<M>)>,
    /// Reusable side-effect buffers for component callbacks.
    effects_pool: Vec<Vec<SideEffect<M>>>,
}

impl<M: Wire + Clone + 'static, N: Network> Sim<M, N> {
    /// Creates a simulation over the given interconnect model.
    pub fn new(cfg: SimConfig, net: N) -> Self {
        let rng = Pcg32::new(cfg.seed);
        Sim {
            kernel: Kernel {
                now: SimTime::ZERO,
                seq: 0,
                events_dispatched: 0,
                queue: WheelScheduler::new(),
                rng,
                nodes: Slab::new(),
                groups: Slab::new(),
                watchers: BTreeMap::new(),
                meta: Slab::new(),
                net,
                stats: StatsHub::new(),
                cfg,
                next_comp: 0,
                next_node: 0,
                next_group: 0,
                tracer: Tracer::disabled(),
                mcast_scratch: Vec::new(),
            },
            components: Slab::new(),
            scripts: BTreeMap::new(),
            next_script: 0,
            batch_buf: Vec::new(),
            effects_pool: Vec::new(),
        }
    }

    /// Installs a span recorder; components reach it through
    /// [`Ctx::tracer`]. Install an enabled tracer *before* the run and
    /// keep a clone to read the log afterwards.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.kernel.tracer = tracer;
    }

    /// The installed span recorder (disabled unless [`Sim::set_tracer`]
    /// was called with an enabled one).
    pub fn tracer(&self) -> &Tracer {
        &self.kernel.tracer
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// The measurement sink.
    pub fn stats(&self) -> &StatsHub {
        &self.kernel.stats
    }

    /// Mutable access to the measurement sink.
    pub fn stats_mut(&mut self) -> &mut StatsHub {
        &mut self.kernel.stats
    }

    /// The interconnect model (e.g. to reconfigure links or partitions).
    pub fn net_mut(&mut self) -> &mut N {
        &mut self.kernel.net
    }

    /// Read access to the interconnect model.
    pub fn net(&self) -> &N {
        &self.kernel.net
    }

    /// Adds a node to the cluster.
    pub fn add_node(&mut self, spec: NodeSpec) -> NodeId {
        assert!(spec.cores > 0, "a node needs at least one core");
        let id = NodeId(self.kernel.next_node);
        self.kernel.next_node += 1;
        self.kernel.nodes.insert(
            id.0 as usize,
            Node {
                alive: true,
                cores: vec![SimTime::ZERO; spec.cores as usize],
                tag: spec.tag,
            },
        );
        self.kernel.net.register_node(id);
        id
    }

    /// Allocates a fresh multicast group id.
    pub fn create_group(&mut self) -> GroupId {
        let id = GroupId(self.kernel.next_group);
        self.kernel.next_group += 1;
        self.kernel.groups.insert(id.0 as usize, BTreeSet::new());
        id
    }

    /// Spawns a component immediately (no spawn latency); intended for
    /// initial cluster construction. `on_start` runs at the current time.
    pub fn spawn(
        &mut self,
        node: NodeId,
        comp: Box<dyn Component<M>>,
        kind: &'static str,
    ) -> ComponentId {
        self.spawn_delayed(node, comp, kind, Duration::ZERO)
            .expect("spawn on dead node during setup")
    }

    /// Spawns a component with an explicit start delay. Returns `None` if
    /// the node is dead.
    pub fn spawn_delayed(
        &mut self,
        node: NodeId,
        comp: Box<dyn Component<M>>,
        kind: &'static str,
        delay: Duration,
    ) -> Option<ComponentId> {
        if !self
            .kernel
            .nodes
            .get(node.0 as usize)
            .is_some_and(|n| n.alive)
        {
            return None;
        }
        self.kernel.next_comp += 1;
        let id = ComponentId(self.kernel.next_comp);
        self.kernel.meta.insert(
            id.0 as usize,
            CompMeta {
                node,
                alive: true,
                started: false,
                kind,
            },
        );
        let at = self.kernel.now + delay;
        self.kernel.schedule(at, Ev::Start { to: id });
        self.components.insert(
            id.0 as usize,
            Slot {
                comp: Some(comp),
                mailbox: Vec::new(),
            },
        );
        Some(id)
    }

    /// Schedules a closure over the whole simulation at an absolute time
    /// (fault-injection scripts, load changes, measurements mid-run).
    pub fn at(&mut self, t: SimTime, f: impl FnOnce(&mut Sim<M, N>) + 'static) {
        assert!(t >= self.kernel.now, "scheduling a script into the past");
        self.next_script += 1;
        let id = self.next_script;
        self.scripts.insert(id, Box::new(f));
        self.kernel.schedule(t, Ev::Script(id));
    }

    /// Injects a message from "outside" the cluster directly into a
    /// component's queue at the current time (no network transit).
    pub fn inject(&mut self, to: ComponentId, msg: M) {
        self.kernel.schedule(
            self.kernel.now,
            Ev::Msg {
                to,
                from: ComponentId::EXTERNAL,
                msg,
            },
        );
    }

    /// Kills a component immediately; watchers are notified after the
    /// detection latency.
    pub fn kill_component(&mut self, comp: ComponentId) {
        self.do_kill(comp);
    }

    /// Kills a node and every component on it.
    pub fn kill_node(&mut self, node: NodeId) {
        let victims: Vec<ComponentId> = self
            .kernel
            .meta
            .iter()
            .filter(|(_, m)| m.alive && m.node == node)
            .map(|(id, _)| ComponentId(id as u64))
            .collect();
        for v in victims {
            self.do_kill(v);
        }
        if let Some(n) = self.kernel.nodes.get_mut(node.0 as usize) {
            n.alive = false;
        }
    }

    /// Brings a previously killed node back (empty, cores idle).
    pub fn revive_node(&mut self, node: NodeId) {
        let now = self.kernel.now;
        if let Some(n) = self.kernel.nodes.get_mut(node.0 as usize) {
            n.alive = true;
            for c in &mut n.cores {
                *c = now;
            }
        }
    }

    /// Whether a component is currently alive.
    pub fn is_alive(&self, comp: ComponentId) -> bool {
        self.kernel.is_alive(comp)
    }

    /// Node hosting a component.
    pub fn node_of(&self, comp: ComponentId) -> Option<NodeId> {
        self.kernel.meta.get(comp.0 as usize).map(|m| m.node)
    }

    /// All live components of a given kind (as reported by
    /// [`Component::kind`]).
    pub fn components_of_kind(&self, kind: &str) -> Vec<ComponentId> {
        self.kernel
            .meta
            .iter()
            .filter(|(_, m)| m.alive && m.kind == kind)
            .map(|(id, _)| ComponentId(id as u64))
            .collect()
    }

    /// How many live components a node hosts.
    pub fn count_components_on(&self, node: NodeId) -> usize {
        self.kernel.count_components_on(node)
    }

    /// All live nodes with a given tag.
    pub fn nodes_with_tag(&self, tag: &str) -> Vec<NodeId> {
        self.kernel
            .nodes
            .iter()
            .filter(|(_, n)| n.alive && n.tag == tag)
            .map(|(id, _)| NodeId(id as u32))
            .collect()
    }

    /// All live node ids, in id order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.kernel
            .nodes
            .iter()
            .filter(|(_, n)| n.alive)
            .map(|(id, _)| NodeId(id as u32))
            .collect()
    }

    /// All nodes carrying a given tag — including dead ones — with their
    /// liveness flag. Fault injectors use this to find revival targets.
    pub fn nodes_with_tag_all(&self, tag: &str) -> Vec<(NodeId, bool)> {
        self.kernel
            .nodes
            .iter()
            .filter(|(_, n)| n.tag == tag)
            .map(|(id, n)| (NodeId(id as u32), n.alive))
            .collect()
    }

    /// Whether a node is currently alive.
    pub fn node_alive(&self, node: NodeId) -> bool {
        self.kernel
            .nodes
            .get(node.0 as usize)
            .is_some_and(|n| n.alive)
    }

    /// Schedules a repeating closure at `start`, `start + period`, … up to
    /// and including `until` (periodic probes, samplers, watchdogs). Note
    /// that pending repetitions keep the event queue non-empty, so pair
    /// this with [`Sim::run_until`] rather than an unbounded [`Sim::run`].
    pub fn every_until(
        &mut self,
        start: SimTime,
        period: Duration,
        until: SimTime,
        f: impl FnMut(&mut Sim<M, N>) + 'static,
    ) where
        N: 'static,
    {
        assert!(period > Duration::ZERO, "zero-period repeating script");
        type Script<M, N> = Box<dyn FnMut(&mut Sim<M, N>)>;
        fn arm<M: Wire + Clone + 'static, N: Network + 'static>(
            sim: &mut Sim<M, N>,
            at: SimTime,
            period: Duration,
            until: SimTime,
            mut f: Script<M, N>,
        ) {
            if at > until {
                return;
            }
            sim.at(at, move |s| {
                f(s);
                arm(s, at + period, period, until, f);
            });
        }
        arm(self, start.max(self.kernel.now), period, until, Box::new(f));
    }

    fn do_kill(&mut self, comp: ComponentId) {
        let Some(m) = self.kernel.meta.get_mut(comp.0 as usize) else {
            return;
        };
        if !m.alive {
            return;
        }
        m.alive = false;
        self.components.remove(comp.0 as usize);
        self.kernel.stats.incr("sim.deaths", 1);
        // Notify watchers after the detection latency.
        let watchers: Vec<ComponentId> = self
            .kernel
            .watchers
            .remove(&comp)
            .map(|s| s.into_iter().collect())
            .unwrap_or_default();
        let at = self.kernel.now + self.kernel.cfg.death_detect_latency;
        for w in watchers {
            if self.kernel.is_alive(w) {
                self.kernel
                    .schedule(at, Ev::PeerDeath { to: w, peer: comp });
            }
        }
        // Remove from any groups.
        for g in self.kernel.groups.values_mut() {
            g.remove(&comp);
        }
    }

    /// Runs until the horizon; returns why the loop stopped. The clock
    /// always ends at exactly `horizon` unless the event cap was hit.
    ///
    /// Same-timestamp events are popped as one batch and dispatched in
    /// seq order; events scheduled *during* the batch carry higher seqs
    /// than everything already batched, so the delivered order is
    /// identical to popping one event at a time.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        let mut batch = std::mem::take(&mut self.batch_buf);
        let outcome = loop {
            let Some((at, _)) = self.kernel.queue.peek() else {
                // Advance to a finite horizon; an "infinite" run leaves the
                // clock at the last dispatched event.
                if horizon != SimTime::MAX {
                    self.kernel.now = horizon.max(self.kernel.now);
                }
                break RunOutcome::QueueEmpty;
            };
            if at > horizon {
                self.kernel.now = horizon;
                break RunOutcome::HorizonReached;
            }
            if self.kernel.events_dispatched >= self.kernel.cfg.max_events {
                break RunOutcome::EventCapReached;
            }
            // Never batch past the event cap, so EventCapReached fires at
            // exactly the same point it would without batching.
            let budget =
                usize::try_from(self.kernel.cfg.max_events - self.kernel.events_dispatched)
                    .unwrap_or(usize::MAX);
            batch.clear();
            self.kernel.queue.pop_batch(&mut batch, budget);
            for (at, _, ev) in batch.drain(..) {
                self.kernel.now = at;
                self.kernel.events_dispatched += 1;
                self.dispatch(ev);
            }
        };
        self.batch_buf = batch;
        outcome
    }

    /// Runs until the queue drains (or the event cap hits).
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// Number of events dispatched so far.
    pub fn events_dispatched(&self) -> u64 {
        self.kernel.events_dispatched
    }

    fn dispatch(&mut self, ev: Ev<M>) {
        match ev {
            Ev::Script(id) => {
                if let Some(f) = self.scripts.remove(&id) {
                    f(self);
                }
            }
            Ev::Start { to } => {
                if !self.kernel.is_alive(to) {
                    return;
                }
                if let Some(m) = self.kernel.meta.get_mut(to.0 as usize) {
                    m.started = true;
                }
                self.with_component(to, |comp, ctx| comp.on_start(ctx));
                // Flush messages that arrived before start, then hand the
                // drained buffer back to the slot for reuse.
                let mut pending: Vec<(ComponentId, M)> = self
                    .components
                    .get_mut(to.0 as usize)
                    .map(|s| std::mem::take(&mut s.mailbox))
                    .unwrap_or_default();
                for (from, msg) in pending.drain(..) {
                    if !self.kernel.is_alive(to) {
                        break;
                    }
                    self.with_component(to, |comp, ctx| comp.on_message(ctx, from, msg));
                }
                if let Some(slot) = self.components.get_mut(to.0 as usize) {
                    if slot.mailbox.is_empty() {
                        slot.mailbox = pending;
                    }
                }
            }
            Ev::Msg { to, from, msg } => {
                if !self.kernel.is_alive(to) {
                    self.kernel.stats.incr("net.delivered_to_dead", 1);
                    return;
                }
                let started = self
                    .kernel
                    .meta
                    .get(to.0 as usize)
                    .is_some_and(|m| m.started);
                if !started {
                    if let Some(slot) = self.components.get_mut(to.0 as usize) {
                        slot.mailbox.push((from, msg));
                    }
                    return;
                }
                self.with_component(to, |comp, ctx| comp.on_message(ctx, from, msg));
            }
            Ev::Timer { to, token } => {
                if self.kernel.is_alive(to) {
                    self.with_component(to, |comp, ctx| comp.on_timer(ctx, token));
                }
            }
            Ev::CpuDone { to, token } => {
                if self.kernel.is_alive(to) {
                    self.with_component(to, |comp, ctx| comp.on_cpu_done(ctx, token));
                }
            }
            Ev::PeerDeath { to, peer } => {
                if self.kernel.is_alive(to) {
                    self.with_component(to, |comp, ctx| comp.on_peer_death(ctx, peer));
                }
            }
        }
    }

    fn with_component(
        &mut self,
        id: ComponentId,
        f: impl FnOnce(&mut Box<dyn Component<M>>, &mut Ctx<'_, M>),
    ) {
        let Some(slot) = self.components.get_mut(id.0 as usize) else {
            return;
        };
        let Some(mut comp) = slot.comp.take() else {
            // Re-entrant dispatch to the same component cannot happen in a
            // single-threaded engine; a missing box means it is mid-kill.
            return;
        };
        let mut effects = self.effects_pool.pop().unwrap_or_default();
        {
            let mut ctx = Ctx {
                kernel: &mut self.kernel,
                effects: &mut effects,
                me: id,
            };
            f(&mut comp, &mut ctx);
        }
        // Reinstall unless the component killed itself.
        let mut self_killed = false;
        for e in &effects {
            if let SideEffect::Kill(victim) = e {
                if *victim == id {
                    self_killed = true;
                }
            }
        }
        if !self_killed {
            if let Some(slot) = self.components.get_mut(id.0 as usize) {
                slot.comp = Some(comp);
            }
        }
        // Apply side effects in order, then return the buffer to the pool.
        for e in effects.drain(..) {
            match e {
                SideEffect::Spawn { id, comp } => {
                    self.components.insert(
                        id.0 as usize,
                        Slot {
                            comp: Some(comp),
                            mailbox: Vec::new(),
                        },
                    );
                }
                SideEffect::Kill(victim) => self.do_kill(victim),
            }
        }
        self.effects_pool.push(effects);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::IdealNetwork;

    #[derive(Clone, Debug, PartialEq)]
    enum TestMsg {
        Ping(u32),
        Pong(u32),
    }

    impl Wire for TestMsg {
        fn wire_size(&self) -> u64 {
            64
        }
    }

    struct Echo;
    impl Component<TestMsg> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, from: ComponentId, msg: TestMsg) {
            if let TestMsg::Ping(n) = msg {
                ctx.send(from, TestMsg::Pong(n));
            }
        }
        fn kind(&self) -> &'static str {
            "echo"
        }
    }

    struct Pinger {
        target: ComponentId,
        sent: u32,
    }
    impl Component<TestMsg> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            for i in 0..self.sent {
                ctx.send(self.target, TestMsg::Ping(i));
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, _from: ComponentId, msg: TestMsg) {
            if let TestMsg::Pong(n) = msg {
                ctx.stats().incr("pongs", 1);
                ctx.stats().observe("pong_value", n as f64);
            }
        }
    }

    fn small_sim() -> Sim<TestMsg, IdealNetwork> {
        Sim::new(SimConfig::default(), IdealNetwork::default())
    }

    #[test]
    fn ping_pong_roundtrip() {
        let mut sim = small_sim();
        let n0 = sim.add_node(NodeSpec::new(1, "dedicated"));
        let n1 = sim.add_node(NodeSpec::new(1, "dedicated"));
        let echo = sim.spawn(n0, Box::new(Echo), "echo");
        sim.spawn(
            n1,
            Box::new(Pinger {
                target: echo,
                sent: 5,
            }),
            "pinger",
        );
        sim.run();
        assert_eq!(sim.stats().counter("pongs"), 5);
    }

    #[test]
    fn replies_to_injected_messages_leave_the_cluster() {
        let mut sim = small_sim();
        let n0 = sim.add_node(NodeSpec::new(1, "dedicated"));
        let echo = sim.spawn(n0, Box::new(Echo), "echo");
        sim.inject(echo, TestMsg::Ping(1));
        sim.run();
        assert_eq!(sim.stats().counter("net.unicast_no_route"), 0);
        // A send to an id that was never spawned still has no route.
        sim.spawn(
            n0,
            Box::new(Pinger {
                target: ComponentId(999),
                sent: 2,
            }),
            "pinger",
        );
        sim.run();
        assert_eq!(sim.stats().counter("net.unicast_no_route"), 2);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut sim = small_sim();
            let n0 = sim.add_node(NodeSpec::new(2, "dedicated"));
            let echo = sim.spawn(n0, Box::new(Echo), "echo");
            sim.spawn(
                n0,
                Box::new(Pinger {
                    target: echo,
                    sent: 100,
                }),
                "pinger",
            );
            sim.run();
            (sim.now(), sim.events_dispatched())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn kill_stops_delivery_and_notifies_watchers() {
        struct Watcher {
            peer: ComponentId,
        }
        impl Component<TestMsg> for Watcher {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
                ctx.watch(self.peer);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {}
            fn on_peer_death(&mut self, ctx: &mut Ctx<'_, TestMsg>, peer: ComponentId) {
                ctx.stats().incr("deaths_seen", 1);
                assert_eq!(peer, self.peer);
            }
        }
        let mut sim = small_sim();
        let n0 = sim.add_node(NodeSpec::new(1, "dedicated"));
        let echo = sim.spawn(n0, Box::new(Echo), "echo");
        sim.spawn(n0, Box::new(Watcher { peer: echo }), "watcher");
        sim.at(SimTime::from_secs(1), move |s| s.kill_component(echo));
        sim.at(SimTime::from_secs(2), move |s| {
            s.inject(echo, TestMsg::Ping(9))
        });
        sim.run();
        assert_eq!(sim.stats().counter("deaths_seen"), 1);
        assert_eq!(sim.stats().counter("net.delivered_to_dead"), 1);
        assert!(!sim.is_alive(echo));
    }

    #[test]
    fn node_kill_takes_components_down() {
        let mut sim = small_sim();
        let n0 = sim.add_node(NodeSpec::new(1, "dedicated"));
        let echo = sim.spawn(n0, Box::new(Echo), "echo");
        sim.at(SimTime::from_millis(10), move |s| s.kill_node(n0));
        sim.run();
        assert!(!sim.is_alive(echo));
        assert!(sim.nodes_with_tag("dedicated").is_empty());
        // Spawning on a dead node fails.
        assert!(sim
            .spawn_delayed(n0, Box::new(Echo), "echo", Duration::ZERO)
            .is_none());
    }

    #[test]
    fn cpu_cores_serialize_work() {
        struct Cruncher;
        impl Component<TestMsg> for Cruncher {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
                // Two 100 ms bursts on a single-core node must finish at
                // 100 ms and 200 ms.
                let t1 = ctx.exec_cpu(Duration::from_millis(100), 1);
                let t2 = ctx.exec_cpu(Duration::from_millis(100), 2);
                assert_eq!(t1, SimTime::from_millis(100));
                assert_eq!(t2, SimTime::from_millis(200));
            }
            fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {}
            fn on_cpu_done(&mut self, ctx: &mut Ctx<'_, TestMsg>, token: u64) {
                ctx.stats().incr("cpu_done", 1);
                ctx.stats().observe("cpu_token", token as f64);
            }
        }
        let mut sim = small_sim();
        let n0 = sim.add_node(NodeSpec::new(1, "dedicated"));
        sim.spawn(n0, Box::new(Cruncher), "cruncher");
        sim.run();
        assert_eq!(sim.stats().counter("cpu_done"), 2);
        assert_eq!(sim.now(), SimTime::from_millis(200));
    }

    #[test]
    fn multicore_runs_in_parallel() {
        struct Cruncher;
        impl Component<TestMsg> for Cruncher {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
                let t1 = ctx.exec_cpu(Duration::from_millis(100), 1);
                let t2 = ctx.exec_cpu(Duration::from_millis(100), 2);
                assert_eq!(t1, SimTime::from_millis(100));
                assert_eq!(t2, SimTime::from_millis(100));
            }
            fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {}
        }
        let mut sim = small_sim();
        let n0 = sim.add_node(NodeSpec::new(2, "dedicated"));
        sim.spawn(n0, Box::new(Cruncher), "cruncher");
        sim.run();
        assert_eq!(sim.now(), SimTime::from_millis(100));
    }

    #[test]
    fn multicast_reaches_members_not_sender() {
        struct Member;
        impl Component<TestMsg> for Member {
            fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {
                ctx.stats().incr("mcast_received", 1);
            }
        }
        struct Caster {
            group: GroupId,
        }
        impl Component<TestMsg> for Caster {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
                ctx.join(self.group);
                ctx.multicast(self.group, TestMsg::Ping(1));
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {
                ctx.stats().incr("sender_received_own", 1);
            }
        }
        let mut sim = small_sim();
        let n0 = sim.add_node(NodeSpec::new(1, "dedicated"));
        let g = sim.create_group();
        struct Joiner {
            group: GroupId,
        }
        impl Component<TestMsg> for Joiner {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
                ctx.join(self.group);
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, f: ComponentId, m: TestMsg) {
                Member.on_message(ctx, f, m);
            }
        }
        sim.spawn(n0, Box::new(Joiner { group: g }), "member");
        sim.spawn(n0, Box::new(Joiner { group: g }), "member");
        // Caster starts after members joined (same-time ordering is by
        // spawn order, so give it a tiny delay to be explicit).
        sim.spawn_delayed(
            n0,
            Box::new(Caster { group: g }),
            "caster",
            Duration::from_millis(1),
        );
        sim.run();
        assert_eq!(sim.stats().counter("mcast_received"), 2);
        assert_eq!(sim.stats().counter("sender_received_own"), 0);
    }

    #[test]
    fn spawn_from_component_has_latency() {
        struct Parent {
            node: NodeId,
        }
        impl Component<TestMsg> for Parent {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
                ctx.spawn(self.node, Box::new(Echo), "echo");
            }
            fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {}
        }
        let mut sim = small_sim();
        let n0 = sim.add_node(NodeSpec::new(1, "dedicated"));
        sim.spawn(n0, Box::new(Parent { node: n0 }), "parent");
        sim.run();
        // Default spawn latency is 300 ms; the child's Start event is the
        // last thing dispatched.
        assert_eq!(sim.now(), SimTime::from_millis(300));
        assert_eq!(sim.components_of_kind("echo").len(), 1);
    }

    #[test]
    fn messages_before_start_are_buffered() {
        let mut sim = small_sim();
        let n0 = sim.add_node(NodeSpec::new(1, "dedicated"));
        let echo = sim
            .spawn_delayed(n0, Box::new(Echo), "echo", Duration::from_secs(1))
            .unwrap();
        struct Probe {
            target: ComponentId,
        }
        impl Component<TestMsg> for Probe {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
                ctx.send(self.target, TestMsg::Ping(7));
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, _: ComponentId, msg: TestMsg) {
                assert_eq!(msg, TestMsg::Pong(7));
                ctx.stats().incr("late_pong", 1);
            }
        }
        sim.spawn(n0, Box::new(Probe { target: echo }), "probe");
        sim.run();
        assert_eq!(sim.stats().counter("late_pong"), 1);
        assert!(sim.now() >= SimTime::from_secs(1));
    }

    #[test]
    fn revived_node_accepts_new_spawns() {
        let mut sim = small_sim();
        let n0 = sim.add_node(NodeSpec::new(1, "dedicated"));
        sim.at(SimTime::from_millis(10), move |s| s.kill_node(n0));
        sim.at(SimTime::from_millis(20), move |s| {
            assert!(s
                .spawn_delayed(n0, Box::new(Echo), "echo", Duration::ZERO)
                .is_none());
            s.revive_node(n0);
            assert!(s
                .spawn_delayed(n0, Box::new(Echo), "echo", Duration::ZERO)
                .is_some());
        });
        sim.run();
        assert_eq!(sim.components_of_kind("echo").len(), 1);
        assert_eq!(sim.nodes_with_tag("dedicated"), vec![n0]);
    }

    #[test]
    fn leave_group_stops_multicasts() {
        struct Leaver {
            group: GroupId,
        }
        impl Component<TestMsg> for Leaver {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
                ctx.join(self.group);
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {
                ctx.stats().incr("leaver_got", 1);
                ctx.leave(self.group);
            }
        }
        struct Caster {
            group: GroupId,
        }
        impl Component<TestMsg> for Caster {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
                ctx.timer(Duration::from_millis(10), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, t: u64) {
                ctx.multicast(self.group, TestMsg::Ping(t as u32));
                if t < 3 {
                    ctx.timer(Duration::from_millis(10), t + 1);
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {}
        }
        let mut sim = small_sim();
        let n0 = sim.add_node(NodeSpec::new(1, "dedicated"));
        let g = sim.create_group();
        sim.spawn(n0, Box::new(Leaver { group: g }), "leaver");
        sim.spawn(n0, Box::new(Caster { group: g }), "caster");
        sim.run();
        // Four multicasts sent, but the leaver left after the first.
        assert_eq!(sim.stats().counter("leaver_got"), 1);
    }

    #[test]
    fn unwatch_suppresses_death_notification() {
        struct Fickle {
            peer: ComponentId,
        }
        impl Component<TestMsg> for Fickle {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
                ctx.watch(self.peer);
                ctx.unwatch(self.peer);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {}
            fn on_peer_death(&mut self, ctx: &mut Ctx<'_, TestMsg>, _: ComponentId) {
                ctx.stats().incr("unexpected_death_event", 1);
            }
        }
        let mut sim = small_sim();
        let n0 = sim.add_node(NodeSpec::new(1, "dedicated"));
        let echo = sim.spawn(n0, Box::new(Echo), "echo");
        sim.spawn(n0, Box::new(Fickle { peer: echo }), "fickle");
        sim.at(SimTime::from_secs(1), move |s| s.kill_component(echo));
        sim.run();
        assert_eq!(sim.stats().counter("unexpected_death_event"), 0);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = small_sim();
        let n0 = sim.add_node(NodeSpec::new(1, "dedicated"));
        let echo = sim.spawn(n0, Box::new(Echo), "echo");
        for i in 0..10 {
            let at = SimTime::from_secs(i);
            sim.at(at, move |s| s.inject(echo, TestMsg::Ping(i as u32)));
        }
        let outcome = sim.run_until(SimTime::from_secs(5));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        let outcome = sim.run();
        assert_eq!(outcome, RunOutcome::QueueEmpty);
    }

    #[test]
    fn every_until_repeats_and_stops() {
        let mut sim = small_sim();
        let n0 = sim.add_node(NodeSpec::new(1, "dedicated"));
        let _ = n0;
        sim.every_until(
            SimTime::from_secs(1),
            Duration::from_secs(1),
            SimTime::from_secs(5),
            |s| s.stats_mut().incr("ticks", 1),
        );
        sim.run_until(SimTime::from_secs(10));
        // Fires at 1, 2, 3, 4, 5 — inclusive of the bound, then stops.
        assert_eq!(sim.stats().counter("ticks"), 5);
    }

    #[test]
    fn node_introspection_tracks_liveness() {
        let mut sim = small_sim();
        let n0 = sim.add_node(NodeSpec::new(1, "dedicated"));
        let n1 = sim.add_node(NodeSpec::new(1, "dedicated"));
        assert_eq!(sim.node_ids(), vec![n0, n1]);
        assert!(sim.node_alive(n0));
        sim.at(SimTime::from_millis(10), move |s| s.kill_node(n0));
        sim.run();
        assert_eq!(sim.node_ids(), vec![n1]);
        assert!(!sim.node_alive(n0));
        assert_eq!(
            sim.nodes_with_tag_all("dedicated"),
            vec![(n0, false), (n1, true)]
        );
    }

    #[test]
    fn event_cap_halts() {
        struct Looper;
        impl Component<TestMsg> for Looper {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
                ctx.timer(Duration::from_nanos(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, _: u64) {
                ctx.timer(Duration::from_nanos(1), 0);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {}
        }
        let mut sim: Sim<TestMsg, IdealNetwork> = Sim::new(
            SimConfig {
                max_events: 1000,
                ..Default::default()
            },
            IdealNetwork::default(),
        );
        let n0 = sim.add_node(NodeSpec::new(1, "dedicated"));
        sim.spawn(n0, Box::new(Looper), "looper");
        assert_eq!(sim.run(), RunOutcome::EventCapReached);
    }
}
