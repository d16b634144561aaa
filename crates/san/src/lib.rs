//! # sns-san — system-area network model
//!
//! A [`Network`] implementation modelling the paper's cluster interconnect
//! (§2.1, §4.6): switched Ethernet (or Myrinet-class) links with per-NIC
//! bandwidth, per-message processing overhead (the TCP setup/kernel cost
//! that limits a front end to ~70 requests/s on 100 Mb/s Ethernet, §4.6
//! footnote 5), a shared switch fabric, propagation latency, and the two
//! traffic classes the paper distinguishes:
//!
//! * **Reliable** (TCP-like) traffic is flow-controlled: it queues behind
//!   busy links but is never dropped.
//! * **Datagram** (IP-multicast-like) traffic is dropped when a link's
//!   queue exceeds its tolerance — reproducing the §4.6 observation that
//!   a saturated 10 Mb/s SAN drops the manager's beacons and cripples
//!   load balancing.
//!
//! Links are modelled as virtual-finish-time servers: a message occupies
//! its sender's egress NIC, the switch fabric, and the receiver's ingress
//! NIC in sequence, each for `overhead + size/bandwidth`.
//!
//! The model also supports network partitions (for the fault-tolerance
//! experiments) and per-node NIC overrides (e.g. a 10 Mb/s edge segment in
//! front of a 100 Mb/s interior, as in the TranSend deployment).

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::time::Duration;

use sns_sim::network::{Delivery, Endpoint, Network, TrafficClass};
use sns_sim::rng::Pcg32;
use sns_sim::time::SimTime;
use sns_sim::NodeId;

/// Parameters of a single transmission resource (a NIC direction or the
/// switch fabric).
#[derive(Debug, Clone)]
pub struct LinkParams {
    /// Usable bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// Fixed per-message processing cost (kernel/TCP overhead).
    pub per_msg_overhead: Duration,
    /// Datagrams are dropped if the queue ahead of them exceeds this.
    pub max_queue_delay: Duration,
}

impl LinkParams {
    /// Convenience constructor from megabits per second.
    pub fn mbps(mbps: f64) -> Self {
        LinkParams {
            bandwidth_bps: mbps * 1e6,
            per_msg_overhead: Duration::from_micros(50),
            max_queue_delay: Duration::from_millis(50),
        }
    }

    /// Sets the fixed per-message overhead.
    pub fn with_overhead(mut self, d: Duration) -> Self {
        self.per_msg_overhead = d;
        self
    }

    /// Transmission time for `size` bytes (overhead + serialisation).
    pub fn tx_time(&self, size: u64) -> Duration {
        let secs = (size as f64 * 8.0) / self.bandwidth_bps;
        self.per_msg_overhead + Duration::from_secs_f64(secs)
    }
}

/// Fidelity mode of the SAN model (Narses-style hybrid).
///
/// `Datagram` is the default exact model: every message walks the
/// egress → fabric → ingress busy pointers, so queueing, serialisation
/// order and tail drops are all per-message exact. `Flow` aggregates
/// steady traffic into per-link epoch utilisations and prices each message
/// with a closed-form delay instead of advancing the busy pointers — the
/// fidelity the paper's steady-state experiments need at a fraction of the
/// cost. Links whose utilisation crosses the saturation threshold fall
/// back to the exact path (preserving the §4.6 datagram tail-drop
/// behaviour), and blackout/partition windows are always exact in both
/// modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SanMode {
    /// Per-message exact queueing (the default).
    #[default]
    Datagram,
    /// Rate-based flow aggregation with exact fallback at saturation.
    Flow,
}

/// Whole-SAN configuration.
#[derive(Debug, Clone)]
pub struct SanConfig {
    /// Default NIC parameters applied to every registered node.
    pub default_nic: LinkParams,
    /// Shared switch fabric (aggregate capacity). Use a very large
    /// bandwidth to model an ideal non-blocking switch.
    pub fabric: LinkParams,
    /// One-way propagation latency added to every off-node message.
    pub latency: Duration,
    /// Latency for messages between components on the same node.
    pub loopback_latency: Duration,
    /// Fidelity mode; see [`SanMode`].
    pub mode: SanMode,
    /// Averaging window for flow-mode per-link utilisation accumulators.
    pub flow_epoch: Duration,
    /// Utilisation at which a flow-mode link switches back to the exact
    /// per-message path (and datagram tail drops can resume).
    pub flow_saturation: f64,
}

impl SanConfig {
    /// A switched 100 Mb/s Ethernet SAN, the paper's scalability testbed
    /// (§4). Per-link capacity is 100 Mb/s; the switch is non-blocking for
    /// clusters of the sizes studied.
    pub fn switched_100mbps() -> Self {
        SanConfig {
            default_nic: LinkParams::mbps(100.0),
            fabric: LinkParams::mbps(100.0 * 64.0),
            latency: Duration::from_micros(150),
            loopback_latency: Duration::from_micros(30),
            mode: SanMode::Datagram,
            flow_epoch: Duration::from_millis(100),
            flow_saturation: 0.9,
        }
    }

    /// The original 10 Mb/s shared segment (§3.1.1, §4.6 saturation
    /// experiment). Modelled as a *shared* fabric of 10 Mb/s: every
    /// off-node byte crosses it.
    pub fn shared_10mbps() -> Self {
        SanConfig {
            default_nic: LinkParams::mbps(10.0),
            fabric: LinkParams::mbps(10.0),
            latency: Duration::from_micros(300),
            loopback_latency: Duration::from_micros(30),
            mode: SanMode::Datagram,
            flow_epoch: Duration::from_millis(100),
            flow_saturation: 0.9,
        }
    }

    /// A Myrinet-class SAN (§4.6: 32 MB/s all-pairs over 40 nodes).
    pub fn myrinet() -> Self {
        SanConfig {
            default_nic: LinkParams {
                bandwidth_bps: 640e6,
                per_msg_overhead: Duration::from_micros(10),
                max_queue_delay: Duration::from_millis(50),
            },
            fabric: LinkParams::mbps(640.0 * 64.0),
            latency: Duration::from_micros(20),
            loopback_latency: Duration::from_micros(10),
            mode: SanMode::Datagram,
            flow_epoch: Duration::from_millis(100),
            flow_saturation: 0.9,
        }
    }

    /// Selects the fidelity mode; chains like the `RtConfig` builder:
    ///
    /// ```
    /// use sns_san::{SanConfig, SanMode};
    ///
    /// let cfg = SanConfig::switched_100mbps().with_mode(SanMode::Flow);
    /// assert_eq!(cfg.mode, SanMode::Flow);
    /// ```
    pub fn with_mode(mut self, v: SanMode) -> Self {
        self.mode = v;
        self
    }

    /// Sets the flow-mode utilisation averaging window.
    pub fn with_flow_epoch(mut self, v: Duration) -> Self {
        self.flow_epoch = v;
        self
    }
}

/// Per-link-direction epoch utilisation accumulator (flow mode).
#[derive(Debug, Clone, Default)]
struct FlowAcc {
    epoch_start: SimTime,
    /// Seconds of link occupancy accumulated this epoch.
    busy: f64,
}

impl FlowAcc {
    /// Rolls the epoch if `now` left it, adds `busy_secs` of occupancy and
    /// returns the running utilisation of the current epoch.
    fn add(&mut self, now: SimTime, epoch: Duration, busy_secs: f64) -> f64 {
        let ep_ns = sns_sim::time::dur_nanos(epoch).max(1);
        let aligned = SimTime::from_nanos((now.as_nanos() / ep_ns) * ep_ns);
        if aligned > self.epoch_start {
            self.epoch_start = aligned;
            self.busy = 0.0;
        }
        self.busy += busy_secs;
        self.busy / epoch.as_secs_f64()
    }
}

/// Queueing inflation for a flow at utilisation `rho`: an M/M/1-shaped
/// `rho/(1-rho)` wait in units of the transmission time, clamped so the
/// closed form stays finite at the switch-over boundary.
fn qfactor(rho: f64) -> f64 {
    let r = rho.clamp(0.0, 0.95);
    r / (1.0 - r)
}

#[derive(Debug, Clone)]
struct Nic {
    params: LinkParams,
    egress_busy: SimTime,
    ingress_busy: SimTime,
    egress_flow: FlowAcc,
    ingress_flow: FlowAcc,
}

impl Nic {
    fn new(params: LinkParams) -> Self {
        Nic {
            params,
            egress_busy: SimTime::ZERO,
            ingress_busy: SimTime::ZERO,
            egress_flow: FlowAcc::default(),
            ingress_flow: FlowAcc::default(),
        }
    }
}

/// Counters the SAN keeps about itself (read by experiments).
#[derive(Debug, Clone, Default)]
pub struct SanStats {
    /// Datagrams dropped at saturated links.
    pub datagrams_dropped: u64,
    /// Messages dropped because of an active partition.
    pub partition_drops: u64,
    /// Datagrams dropped by a forced blackout (burst-loss injection).
    pub blackout_drops: u64,
    /// Total messages carried (delivered).
    pub delivered: u64,
    /// Total payload bytes carried off-node.
    pub bytes_carried: u64,
    /// Flow-mode messages priced by the closed-form fast path.
    pub flow_fast_path: u64,
    /// Flow-mode messages routed through the exact path because a link
    /// crossed the saturation threshold.
    pub flow_fallbacks: u64,
}

/// The system-area network model. Implements [`Network`] for the engine.
#[derive(Debug)]
pub struct San {
    cfg: SanConfig,
    nics: BTreeMap<NodeId, Nic>,
    fabric_busy: SimTime,
    fabric_flow: FlowAcc,
    /// Partition group per node; `None` means no partition is active.
    partition_of: Option<BTreeMap<NodeId, u32>>,
    /// While set, every off-node datagram is dropped (models the §4.6
    /// saturation bursts that eat the manager's beacons). Loopback and
    /// reliable traffic are unaffected.
    datagram_blackout: bool,
    stats: SanStats,
}

impl San {
    /// Creates a SAN with the given configuration.
    pub fn new(cfg: SanConfig) -> Self {
        San {
            cfg,
            nics: BTreeMap::new(),
            fabric_busy: SimTime::ZERO,
            fabric_flow: FlowAcc::default(),
            partition_of: None,
            datagram_blackout: false,
            stats: SanStats::default(),
        }
    }

    /// Overrides one node's NIC parameters (e.g. a slower edge segment).
    pub fn set_nic(&mut self, node: NodeId, params: LinkParams) {
        let default = self.cfg.default_nic.clone();
        let nic = self.nics.entry(node).or_insert_with(|| Nic::new(default));
        nic.params = params;
    }

    /// Current NIC parameters for a node (the configured default if the
    /// node was never overridden). Lets injectors degrade and later
    /// restore a link.
    pub fn nic_params(&self, node: NodeId) -> LinkParams {
        self.nics
            .get(&node)
            .map(|n| n.params.clone())
            .unwrap_or_else(|| self.cfg.default_nic.clone())
    }

    /// Forces (or lifts) a total off-node datagram blackout: while on,
    /// every beacon/report datagram crossing the wire is dropped,
    /// reproducing the §4.6 multicast loss bursts under SAN saturation.
    pub fn set_datagram_blackout(&mut self, on: bool) {
        self.datagram_blackout = on;
    }

    /// Whether a datagram blackout is currently forced.
    pub fn datagram_blackout(&self) -> bool {
        self.datagram_blackout
    }

    /// Splits the cluster into isolated groups; traffic between groups is
    /// dropped until [`San::heal`].
    pub fn partition(&mut self, groups: &[Vec<NodeId>]) {
        let mut map = BTreeMap::new();
        for (gi, group) in groups.iter().enumerate() {
            for &n in group {
                map.insert(n, gi as u32);
            }
        }
        self.partition_of = Some(map);
    }

    /// Removes any active partition.
    pub fn heal(&mut self) {
        self.partition_of = None;
    }

    /// SAN-internal counters.
    pub fn stats(&self) -> &SanStats {
        &self.stats
    }

    /// Backlog (queueing delay ahead of a new message) on a node's egress
    /// link at `now`; a saturation indicator.
    pub fn egress_backlog(&self, node: NodeId, now: SimTime) -> Duration {
        self.nics
            .get(&node)
            .map(|n| n.egress_busy.since(now))
            .unwrap_or(Duration::ZERO)
    }

    fn partitioned(&self, a: NodeId, b: NodeId) -> bool {
        match &self.partition_of {
            None => false,
            Some(map) => {
                // Nodes absent from the map are unreachable from everyone.
                match (map.get(&a), map.get(&b)) {
                    (Some(x), Some(y)) => x != y,
                    _ => true,
                }
            }
        }
    }

    fn nic_mut(&mut self, node: NodeId) -> &mut Nic {
        let default = self.cfg.default_nic.clone();
        self.nics.entry(node).or_insert_with(|| Nic::new(default))
    }

    /// Serialises a message through the sender's egress NIC. Returns the
    /// egress completion time, or `None` for a dropped datagram.
    fn egress(
        &mut self,
        now: SimTime,
        node: NodeId,
        size: u64,
        class: TrafficClass,
    ) -> Option<SimTime> {
        let nic = self.nic_mut(node);
        let start = nic.egress_busy.max(now);
        if class == TrafficClass::Datagram && start.since(now) > nic.params.max_queue_delay {
            self.stats.datagrams_dropped += 1;
            return None;
        }
        let fin = start + nic.params.tx_time(size);
        nic.egress_busy = fin;
        Some(fin)
    }

    /// Crosses the shared switch fabric. Returns completion, or `None` for
    /// a dropped datagram.
    fn fabric(&mut self, at: SimTime, size: u64, class: TrafficClass) -> Option<SimTime> {
        let start = self.fabric_busy.max(at);
        if class == TrafficClass::Datagram && start.since(at) > self.cfg.fabric.max_queue_delay {
            self.stats.datagrams_dropped += 1;
            return None;
        }
        let fin = start + self.cfg.fabric.tx_time(size);
        self.fabric_busy = fin;
        Some(fin)
    }

    /// Receives through a node's ingress NIC. Returns delivery time, or
    /// `None` for a dropped datagram.
    fn ingress(
        &mut self,
        at: SimTime,
        node: NodeId,
        size: u64,
        class: TrafficClass,
    ) -> Option<SimTime> {
        let nic = self.nic_mut(node);
        let start = nic.ingress_busy.max(at);
        if class == TrafficClass::Datagram && start.since(at) > nic.params.max_queue_delay {
            self.stats.datagrams_dropped += 1;
            return None;
        }
        let fin = start + nic.params.tx_time(size);
        nic.ingress_busy = fin;
        Some(fin)
    }

    /// Prices one off-node message with the flow model. Returns `None`
    /// when any involved link crossed the saturation threshold — the
    /// caller must then fall back to the exact per-message path (which
    /// restores tail-drop fidelity). The utilisation accumulators are
    /// charged either way: they measure *offered* load.
    fn flow_unicast(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        size: u64,
    ) -> Option<Duration> {
        let epoch = self.cfg.flow_epoch;
        let sat = self.cfg.flow_saturation;
        let (e_tx, rho_e) = {
            let nic = self.nic_mut(from);
            let tx = nic.params.tx_time(size);
            let rho = nic.egress_flow.add(now, epoch, tx.as_secs_f64());
            (tx, rho)
        };
        let f_tx = self.cfg.fabric.tx_time(size);
        let rho_f = self.fabric_flow.add(now, epoch, f_tx.as_secs_f64());
        let (i_tx, rho_i) = {
            let nic = self.nic_mut(to);
            let tx = nic.params.tx_time(size);
            let rho = nic.ingress_flow.add(now, epoch, tx.as_secs_f64());
            (tx, rho)
        };
        if rho_e >= sat || rho_f >= sat || rho_i >= sat {
            return None;
        }
        Some(
            e_tx.mul_f64(1.0 + qfactor(rho_e))
                + f_tx.mul_f64(1.0 + qfactor(rho_f))
                + i_tx.mul_f64(1.0 + qfactor(rho_i))
                + self.cfg.latency,
        )
    }

    /// Aggregate flow accounting: registers `msgs` messages totalling
    /// `bytes` between two nodes as one offer against the current epoch's
    /// per-link utilisations, and prices the whole batch with the closed
    /// form. This is the flow-level *replay* entry point: one call per
    /// (epoch, node pair) stands in for thousands of per-request
    /// `unicast` events, which is where the ≥10× replay speedup comes
    /// from. Works in either [`SanMode`]; partitions and datagram
    /// blackouts keep their exact semantics (everything drops).
    pub fn offer_flow(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        msgs: u64,
        class: TrafficClass,
    ) -> FlowReport {
        if msgs == 0 {
            return FlowReport {
                delay: Duration::ZERO,
                delivered: 0,
                dropped: 0,
            };
        }
        if from == to {
            self.stats.delivered += msgs;
            return FlowReport {
                delay: self.cfg.loopback_latency,
                delivered: msgs,
                dropped: 0,
            };
        }
        if self.partitioned(from, to) {
            self.stats.partition_drops += msgs;
            return FlowReport {
                delay: Duration::ZERO,
                delivered: 0,
                dropped: msgs,
            };
        }
        if self.datagram_blackout && class == TrafficClass::Datagram {
            self.stats.blackout_drops += msgs;
            return FlowReport {
                delay: Duration::ZERO,
                delivered: 0,
                dropped: msgs,
            };
        }
        let epoch = self.cfg.flow_epoch;
        let occupancy = |p: &LinkParams| {
            msgs as f64 * p.per_msg_overhead.as_secs_f64() + (bytes as f64 * 8.0) / p.bandwidth_bps
        };
        let (e_busy, rho_e) = {
            let nic = self.nic_mut(from);
            let busy = occupancy(&nic.params);
            (busy, nic.egress_flow.add(now, epoch, busy))
        };
        let f_busy = occupancy(&self.cfg.fabric.clone());
        let rho_f = self.fabric_flow.add(now, epoch, f_busy);
        let (i_busy, rho_i) = {
            let nic = self.nic_mut(to);
            let busy = occupancy(&nic.params);
            (busy, nic.ingress_flow.add(now, epoch, busy))
        };
        let rho_max = rho_e.max(rho_f).max(rho_i);
        let mean_tx = |busy: f64, rho: f64| {
            Duration::from_secs_f64(busy / msgs as f64).mul_f64(1.0 + qfactor(rho))
        };
        let delay = mean_tx(e_busy, rho_e)
            + mean_tx(f_busy, rho_f)
            + mean_tx(i_busy, rho_i)
            + self.cfg.latency;
        // Offered load beyond link capacity cannot be carried: datagrams
        // in the excess fraction are dropped (the §4.6 tail-drop shape);
        // reliable traffic is flow-controlled and all arrives, just late.
        let dropped = if class == TrafficClass::Datagram && rho_max > 1.0 {
            ((1.0 - 1.0 / rho_max) * msgs as f64).round() as u64
        } else {
            0
        };
        let delivered = msgs - dropped;
        self.stats.datagrams_dropped += dropped;
        self.stats.delivered += delivered;
        self.stats.flow_fast_path += delivered;
        self.stats.bytes_carried += (bytes as f64 * delivered as f64 / msgs as f64) as u64;
        FlowReport {
            delay,
            delivered,
            dropped,
        }
    }
}

/// What became of one aggregated [`San::offer_flow`] batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowReport {
    /// Representative per-message delivery delay (propagation + epoch-
    /// utilisation-inflated transmission on every stage).
    pub delay: Duration,
    /// Messages carried.
    pub delivered: u64,
    /// Messages dropped (saturation excess, partition, or blackout).
    pub dropped: u64,
}

impl Network for San {
    fn unicast(
        &mut self,
        now: SimTime,
        _rng: &mut Pcg32,
        from: Endpoint,
        to: Endpoint,
        size: u64,
        class: TrafficClass,
    ) -> Delivery {
        if from.node == to.node {
            self.stats.delivered += 1;
            return Delivery::At(now + self.cfg.loopback_latency);
        }
        if self.partitioned(from.node, to.node) {
            self.stats.partition_drops += 1;
            return Delivery::Dropped;
        }
        if self.datagram_blackout && class == TrafficClass::Datagram {
            self.stats.blackout_drops += 1;
            return Delivery::Dropped;
        }
        if self.cfg.mode == SanMode::Flow {
            if let Some(delay) = self.flow_unicast(now, from.node, to.node, size) {
                self.stats.flow_fast_path += 1;
                self.stats.delivered += 1;
                self.stats.bytes_carried += size;
                return Delivery::At(now + delay);
            }
            // A link crossed the saturation threshold: fall through to
            // the exact busy-pointer path so queueing and tail drops are
            // per-message faithful where they matter.
            self.stats.flow_fallbacks += 1;
        }
        let Some(t1) = self.egress(now, from.node, size, class) else {
            return Delivery::Dropped;
        };
        let Some(t2) = self.fabric(t1, size, class) else {
            return Delivery::Dropped;
        };
        let Some(t3) = self.ingress(t2, to.node, size, class) else {
            return Delivery::Dropped;
        };
        self.stats.delivered += 1;
        self.stats.bytes_carried += size;
        Delivery::At(t3 + self.cfg.latency)
    }

    fn multicast(
        &mut self,
        now: SimTime,
        _rng: &mut Pcg32,
        from: Endpoint,
        members: &[Endpoint],
        size: u64,
        class: TrafficClass,
    ) -> Vec<Delivery> {
        if self.cfg.mode == SanMode::Flow {
            return self.multicast_flow(now, from, members, size, class);
        }
        self.multicast_exact(now, from, members, size, class)
    }

    fn register_node(&mut self, node: NodeId) {
        let default = self.cfg.default_nic.clone();
        self.nics.entry(node).or_insert_with(|| Nic::new(default));
    }
}

impl San {
    /// The exact per-message multicast path: the sender transmits once;
    /// the switch replicates to receivers; each receiving *node* takes
    /// exactly one copy off the wire, no matter how many member components
    /// it hosts. Same-node members receive via loopback even if egress
    /// drops.
    fn multicast_exact(
        &mut self,
        now: SimTime,
        from: Endpoint,
        members: &[Endpoint],
        size: u64,
        class: TrafficClass,
    ) -> Vec<Delivery> {
        let egress_fin = self.egress(now, from.node, size, class);
        let fabric_fin = egress_fin.and_then(|t| self.fabric(t, size, class));
        self.stats.bytes_carried += size;
        // Per-node delivery decision, computed once.
        let mut per_node: BTreeMap<NodeId, Delivery> = BTreeMap::new();
        for m in members {
            if per_node.contains_key(&m.node) {
                continue;
            }
            let decision = if m.node == from.node {
                Delivery::At(now + self.cfg.loopback_latency)
            } else if self.partitioned(from.node, m.node) {
                self.stats.partition_drops += 1;
                Delivery::Dropped
            } else if self.datagram_blackout && class == TrafficClass::Datagram {
                self.stats.blackout_drops += 1;
                Delivery::Dropped
            } else if let Some(at_fabric) = fabric_fin {
                match self.ingress(at_fabric, m.node, size, class) {
                    Some(t) => Delivery::At(t + self.cfg.latency),
                    None => Delivery::Dropped,
                }
            } else {
                Delivery::Dropped
            };
            per_node.insert(m.node, decision);
        }
        members
            .iter()
            .map(|m| {
                let d = per_node[&m.node];
                if matches!(d, Delivery::At(_)) {
                    self.stats.delivered += 1;
                }
                d
            })
            .collect()
    }

    /// Flow-priced multicast: the sender's egress and the fabric are
    /// charged once for the single wire copy; each receiving node's
    /// ingress is charged once. Any stage at or past the saturation
    /// threshold routes the whole multicast (sender side) or that member
    /// (receiver side) through the exact path so tail-drop bursts keep
    /// their per-message shape. Loopback, partition and blackout
    /// decisions are identical to [`San::multicast_exact`].
    fn multicast_flow(
        &mut self,
        now: SimTime,
        from: Endpoint,
        members: &[Endpoint],
        size: u64,
        class: TrafficClass,
    ) -> Vec<Delivery> {
        let epoch = self.cfg.flow_epoch;
        let sat = self.cfg.flow_saturation;
        let (e_tx, rho_e) = {
            let nic = self.nic_mut(from.node);
            let tx = nic.params.tx_time(size);
            let rho = nic.egress_flow.add(now, epoch, tx.as_secs_f64());
            (tx, rho)
        };
        let f_tx = self.cfg.fabric.tx_time(size);
        let rho_f = self.fabric_flow.add(now, epoch, f_tx.as_secs_f64());
        if rho_e >= sat || rho_f >= sat {
            self.stats.flow_fallbacks += 1;
            return self.multicast_exact(now, from, members, size, class);
        }
        let base = e_tx.mul_f64(1.0 + qfactor(rho_e)) + f_tx.mul_f64(1.0 + qfactor(rho_f));
        self.stats.bytes_carried += size;
        let mut per_node: BTreeMap<NodeId, Delivery> = BTreeMap::new();
        for m in members {
            if per_node.contains_key(&m.node) {
                continue;
            }
            let decision = if m.node == from.node {
                Delivery::At(now + self.cfg.loopback_latency)
            } else if self.partitioned(from.node, m.node) {
                self.stats.partition_drops += 1;
                Delivery::Dropped
            } else if self.datagram_blackout && class == TrafficClass::Datagram {
                self.stats.blackout_drops += 1;
                Delivery::Dropped
            } else {
                let (i_tx, rho_i) = {
                    let nic = self.nic_mut(m.node);
                    let tx = nic.params.tx_time(size);
                    let rho = nic.ingress_flow.add(now, epoch, tx.as_secs_f64());
                    (tx, rho)
                };
                if rho_i >= sat {
                    // Saturated receiver: run its ingress exactly so the
                    // datagram tail-drop decision stays per-message.
                    self.stats.flow_fallbacks += 1;
                    match self.ingress(now + base, m.node, size, class) {
                        Some(t) => Delivery::At(t + self.cfg.latency),
                        None => Delivery::Dropped,
                    }
                } else {
                    self.stats.flow_fast_path += 1;
                    Delivery::At(now + base + i_tx.mul_f64(1.0 + qfactor(rho_i)) + self.cfg.latency)
                }
            };
            per_node.insert(m.node, decision);
        }
        members
            .iter()
            .map(|m| {
                let d = per_node[&m.node];
                if matches!(d, Delivery::At(_)) {
                    self.stats.delivered += 1;
                }
                d
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(node: u32, comp: u64) -> Endpoint {
        Endpoint {
            node: NodeId(node),
            comp: sns_sim::ComponentId(comp),
        }
    }

    fn san100() -> (San, Pcg32) {
        let mut s = San::new(SanConfig::switched_100mbps());
        for n in 0..4 {
            s.register_node(NodeId(n));
        }
        (s, Pcg32::new(1))
    }

    #[test]
    fn tx_time_matches_bandwidth() {
        let p = LinkParams::mbps(100.0).with_overhead(Duration::ZERO);
        // 12_500_000 bytes = 100 Mbit => 1 s.
        assert_eq!(p.tx_time(12_500_000), Duration::from_secs(1));
    }

    #[test]
    fn unicast_latency_includes_all_stages() {
        let (mut s, mut rng) = san100();
        let d = s.unicast(
            SimTime::ZERO,
            &mut rng,
            ep(0, 1),
            ep(1, 2),
            10_000,
            TrafficClass::Reliable,
        );
        let Delivery::At(t) = d else {
            panic!("reliable traffic must not drop")
        };
        // 10 KB at 100 Mb/s = 0.8 ms serialisation per stage (egress +
        // ingress) + fabric (64x faster) + overheads + latency: ~2 ms.
        let ms = t.as_secs_f64() * 1e3;
        assert!(ms > 1.0 && ms < 3.0, "delivery at {ms} ms");
    }

    #[test]
    fn loopback_is_fast_and_unmetered() {
        let (mut s, mut rng) = san100();
        let d = s.unicast(
            SimTime::ZERO,
            &mut rng,
            ep(0, 1),
            ep(0, 2),
            1_000_000_000,
            TrafficClass::Reliable,
        );
        assert_eq!(d, Delivery::At(SimTime::ZERO + Duration::from_micros(30)));
    }

    #[test]
    fn reliable_traffic_queues_but_never_drops() {
        let (mut s, mut rng) = san100();
        let mut last = SimTime::ZERO;
        for _ in 0..100 {
            match s.unicast(
                SimTime::ZERO,
                &mut rng,
                ep(0, 1),
                ep(1, 2),
                125_000, // 10 ms serialisation each
                TrafficClass::Reliable,
            ) {
                Delivery::At(t) => {
                    assert!(t > last, "deliveries serialize");
                    last = t;
                }
                Delivery::Dropped => panic!("reliable dropped"),
            }
        }
        assert_eq!(s.stats().datagrams_dropped, 0);
        // 100 x 10 ms ≈ 1 s of backlog built up.
        assert!(last.as_secs_f64() > 0.9);
    }

    #[test]
    fn datagrams_drop_under_saturation() {
        let (mut s, mut rng) = san100();
        // Saturate the egress link with reliable bulk traffic…
        for _ in 0..100 {
            s.unicast(
                SimTime::ZERO,
                &mut rng,
                ep(0, 1),
                ep(1, 2),
                125_000,
                TrafficClass::Reliable,
            );
        }
        // …then a beacon datagram from the same node cannot get out.
        let d = s.unicast(
            SimTime::ZERO,
            &mut rng,
            ep(0, 1),
            ep(2, 3),
            200,
            TrafficClass::Datagram,
        );
        assert_eq!(d, Delivery::Dropped);
        assert!(s.stats().datagrams_dropped >= 1);
    }

    #[test]
    fn idle_datagrams_pass() {
        let (mut s, mut rng) = san100();
        let d = s.unicast(
            SimTime::ZERO,
            &mut rng,
            ep(0, 1),
            ep(1, 2),
            200,
            TrafficClass::Datagram,
        );
        assert!(matches!(d, Delivery::At(_)));
    }

    #[test]
    fn multicast_single_egress_transmission() {
        let (mut s, mut rng) = san100();
        let members = [ep(1, 2), ep(2, 3), ep(3, 4)];
        let ds = s.multicast(
            SimTime::ZERO,
            &mut rng,
            ep(0, 1),
            &members,
            125_000,
            TrafficClass::Datagram,
        );
        assert_eq!(ds.len(), 3);
        assert!(ds.iter().all(|d| matches!(d, Delivery::At(_))));
        // Sender egress advanced by exactly one transmission (~10 ms), not
        // three.
        let egress = s.nics[&NodeId(0)].egress_busy;
        let ms = egress.as_secs_f64() * 1e3;
        assert!(ms > 9.0 && ms < 12.0, "egress busy until {ms} ms");
    }

    #[test]
    fn partition_blocks_cross_group_traffic() {
        let (mut s, mut rng) = san100();
        s.partition(&[vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]]);
        let blocked = s.unicast(
            SimTime::ZERO,
            &mut rng,
            ep(0, 1),
            ep(2, 2),
            100,
            TrafficClass::Reliable,
        );
        assert_eq!(blocked, Delivery::Dropped);
        let ok = s.unicast(
            SimTime::ZERO,
            &mut rng,
            ep(0, 1),
            ep(1, 2),
            100,
            TrafficClass::Reliable,
        );
        assert!(matches!(ok, Delivery::At(_)));
        s.heal();
        let healed = s.unicast(
            SimTime::ZERO,
            &mut rng,
            ep(0, 1),
            ep(2, 2),
            100,
            TrafficClass::Reliable,
        );
        assert!(matches!(healed, Delivery::At(_)));
        assert_eq!(s.stats().partition_drops, 1);
    }

    #[test]
    fn shared_10mbps_saturates_sooner_than_switched_100() {
        let drops = |cfg: SanConfig| {
            let mut s = San::new(cfg);
            let mut rng = Pcg32::new(2);
            for n in 0..4 {
                s.register_node(NodeId(n));
            }
            // Offer ~13 Mb/s of bulk data traffic (beyond a shared 10 Mb/s
            // segment, well within switched 100 Mb/s links), with periodic
            // beacon datagrams interleaved on other nodes.
            let mut dropped = 0u64;
            for i in 0..200 {
                let now = SimTime::from_millis(i * 6);
                s.unicast(
                    now,
                    &mut rng,
                    ep(0, 1),
                    ep(1, 2),
                    10_000,
                    TrafficClass::Reliable,
                );
                if let Delivery::Dropped = s.unicast(
                    now,
                    &mut rng,
                    ep(2, 3),
                    ep(3, 4),
                    200,
                    TrafficClass::Datagram,
                ) {
                    dropped += 1;
                }
            }
            dropped
        };
        let d10 = drops(SanConfig::shared_10mbps());
        let d100 = drops(SanConfig::switched_100mbps());
        assert!(d10 > 0, "10 Mb/s SAN must drop beacons under load");
        assert_eq!(d100, 0, "100 Mb/s SAN must not drop at this load");
    }

    #[test]
    fn blackout_drops_off_node_datagrams_only() {
        let (mut s, mut rng) = san100();
        s.set_datagram_blackout(true);
        assert!(s.datagram_blackout());
        // Off-node datagram: dropped.
        let d = s.unicast(
            SimTime::ZERO,
            &mut rng,
            ep(0, 1),
            ep(1, 2),
            200,
            TrafficClass::Datagram,
        );
        assert_eq!(d, Delivery::Dropped);
        // Same-node datagram survives via loopback; reliable traffic is
        // flow-controlled, not lossy, so it still goes through.
        assert!(matches!(
            s.unicast(
                SimTime::ZERO,
                &mut rng,
                ep(0, 1),
                ep(0, 2),
                200,
                TrafficClass::Datagram
            ),
            Delivery::At(_)
        ));
        assert!(matches!(
            s.unicast(
                SimTime::ZERO,
                &mut rng,
                ep(0, 1),
                ep(1, 2),
                200,
                TrafficClass::Reliable
            ),
            Delivery::At(_)
        ));
        // Multicast members on other nodes are dropped during the burst.
        let ds = s.multicast(
            SimTime::ZERO,
            &mut rng,
            ep(0, 1),
            &[ep(0, 5), ep(1, 2), ep(2, 3)],
            200,
            TrafficClass::Datagram,
        );
        assert!(matches!(ds[0], Delivery::At(_)), "loopback member passes");
        assert_eq!(ds[1], Delivery::Dropped);
        assert_eq!(ds[2], Delivery::Dropped);
        assert_eq!(s.stats().blackout_drops, 3);
        s.set_datagram_blackout(false);
        assert!(matches!(
            s.unicast(
                SimTime::from_secs(10),
                &mut rng,
                ep(0, 1),
                ep(1, 2),
                200,
                TrafficClass::Datagram
            ),
            Delivery::At(_)
        ));
    }

    #[test]
    fn nic_params_round_trip() {
        let (mut s, _) = san100();
        let before = s.nic_params(NodeId(1));
        assert_eq!(before.bandwidth_bps, 100.0 * 1e6);
        s.set_nic(NodeId(1), LinkParams::mbps(10.0));
        assert_eq!(s.nic_params(NodeId(1)).bandwidth_bps, 10.0 * 1e6);
        s.set_nic(NodeId(1), before);
        assert_eq!(s.nic_params(NodeId(1)).bandwidth_bps, 100.0 * 1e6);
    }

    #[test]
    fn egress_backlog_reports_queue() {
        let (mut s, mut rng) = san100();
        for _ in 0..10 {
            s.unicast(
                SimTime::ZERO,
                &mut rng,
                ep(0, 1),
                ep(1, 2),
                125_000,
                TrafficClass::Reliable,
            );
        }
        let backlog = s.egress_backlog(NodeId(0), SimTime::ZERO);
        assert!(backlog > Duration::from_millis(90));
        assert_eq!(s.egress_backlog(NodeId(3), SimTime::ZERO), Duration::ZERO);
    }

    fn san_flow() -> (San, Pcg32) {
        let mut s = San::new(SanConfig::switched_100mbps().with_mode(SanMode::Flow));
        for n in 0..4 {
            s.register_node(NodeId(n));
        }
        (s, Pcg32::new(1))
    }

    #[test]
    fn flow_unicast_matches_exact_when_unloaded() {
        let (mut exact, mut r1) = san100();
        let (mut flow, mut r2) = san_flow();
        let de = exact.unicast(
            SimTime::ZERO,
            &mut r1,
            ep(0, 1),
            ep(1, 2),
            10_000,
            TrafficClass::Reliable,
        );
        let df = flow.unicast(
            SimTime::ZERO,
            &mut r2,
            ep(0, 1),
            ep(1, 2),
            10_000,
            TrafficClass::Reliable,
        );
        let (Delivery::At(te), Delivery::At(tf)) = (de, df) else {
            panic!("reliable traffic must not drop");
        };
        // On an idle SAN, flow pricing collapses to serialisation +
        // latency: within 20% of the busy-pointer answer.
        let (te, tf) = (te.as_secs_f64(), tf.as_secs_f64());
        assert!((tf - te).abs() / te < 0.2, "exact {te}s vs flow {tf}s");
        assert_eq!(flow.stats().flow_fast_path, 1);
        assert_eq!(flow.stats().flow_fallbacks, 0);
    }

    #[test]
    fn flow_falls_back_when_link_saturates() {
        let (mut s, mut rng) = san_flow();
        // 100 Mb/s egress, 100 ms epoch => ~1.25 MB fills an epoch. Offer
        // far more: the accumulator crosses the 0.9 threshold and every
        // later message must take the exact path (and tail-drop).
        let mut dropped = 0;
        for _ in 0..60 {
            let d = s.unicast(
                SimTime::ZERO,
                &mut rng,
                ep(0, 1),
                ep(1, 2),
                125_000,
                TrafficClass::Datagram,
            );
            if d == Delivery::Dropped {
                dropped += 1;
            }
        }
        assert!(s.stats().flow_fallbacks > 0, "saturation must fall back");
        assert!(dropped > 0, "exact path must tail-drop under saturation");
        assert!(
            s.stats().flow_fast_path > 0,
            "early messages ride the flow path"
        );
    }

    #[test]
    fn flow_epoch_rollover_resets_utilisation() {
        let (mut s, mut rng) = san_flow();
        for _ in 0..60 {
            s.unicast(
                SimTime::ZERO,
                &mut rng,
                ep(0, 1),
                ep(1, 2),
                125_000,
                TrafficClass::Datagram,
            );
        }
        assert!(s.stats().flow_fallbacks > 0);
        let before = s.stats().flow_fast_path;
        // A new epoch starts with fresh utilisation: flow pricing resumes.
        let later = SimTime::from_secs(5);
        let d = s.unicast(
            SimTime::ZERO + later.since(SimTime::ZERO),
            &mut rng,
            ep(0, 1),
            ep(1, 2),
            10_000,
            TrafficClass::Datagram,
        );
        assert!(matches!(d, Delivery::At(_)));
        assert_eq!(s.stats().flow_fast_path, before + 1);
    }

    #[test]
    fn offer_flow_prices_a_batch_and_drops_the_excess() {
        let (mut s, _) = san_flow();
        // Under capacity (~13% of a 100 ms epoch): everything arrives,
        // delay ≈ per-message tx + latency.
        let r = s.offer_flow(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            100_000,
            100,
            TrafficClass::Reliable,
        );
        assert_eq!(r.dropped, 0);
        assert_eq!(r.delivered, 100);
        assert!(r.delay > Duration::ZERO && r.delay < Duration::from_millis(5));
        // 10x a 100 ms epoch's worth of bytes offered as datagrams in one
        // epoch: about 9/10 of the excess fraction is tail-dropped.
        let r = s.offer_flow(
            SimTime::from_secs(10),
            NodeId(2),
            NodeId(3),
            12_500_000,
            10_000,
            TrafficClass::Datagram,
        );
        assert!(
            r.dropped > 8_000 && r.dropped < 9_500,
            "dropped {}",
            r.dropped
        );
        assert_eq!(r.delivered + r.dropped, 10_000);
    }

    #[test]
    fn offer_flow_respects_partitions_and_blackouts() {
        let (mut s, _) = san_flow();
        s.partition(&[vec![NodeId(0)], vec![NodeId(1), NodeId(2), NodeId(3)]]);
        let r = s.offer_flow(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            1_000,
            10,
            TrafficClass::Reliable,
        );
        assert_eq!((r.delivered, r.dropped), (0, 10));
        s.heal();
        s.set_datagram_blackout(true);
        let r = s.offer_flow(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            1_000,
            10,
            TrafficClass::Datagram,
        );
        assert_eq!((r.delivered, r.dropped), (0, 10));
        assert_eq!(s.stats().blackout_drops, 10);
    }

    #[test]
    fn flow_multicast_charges_one_wire_copy() {
        let (mut s, mut rng) = san_flow();
        let members = [ep(0, 9), ep(1, 2), ep(2, 3), ep(3, 4)];
        let ds = s.multicast(
            SimTime::ZERO,
            &mut rng,
            ep(0, 9),
            &members,
            10_000,
            TrafficClass::Datagram,
        );
        assert!(ds.iter().all(|d| matches!(d, Delivery::At(_))));
        // Sender egress charged once, not once per member.
        let (mut exact, mut r2) = san100();
        exact.multicast(
            SimTime::ZERO,
            &mut r2,
            ep(0, 9),
            &members,
            10_000,
            TrafficClass::Datagram,
        );
        let eb = exact.egress_backlog(NodeId(0), SimTime::ZERO);
        assert!(eb > Duration::ZERO, "exact path advances busy pointers");
        assert_eq!(
            s.egress_backlog(NodeId(0), SimTime::ZERO),
            Duration::ZERO,
            "flow path leaves busy pointers untouched"
        );
    }
}
