//! # sns-sim — deterministic discrete-event cluster simulator
//!
//! This crate is the execution substrate for the SOSP '97 *Cluster-Based
//! Scalable Network Services* reproduction: a single-threaded,
//! seed-deterministic discrete-event engine modelling a cluster of
//! workstation nodes (CPU cores, process spawn latency), the components
//! (simulated processes) running on them, liveness watches (broken-
//! connection detection), multicast groups and a pluggable interconnect
//! model (see [`network::Network`]; the full SAN model lives in the
//! `sns-san` crate).
//!
//! The paper's measurements are dynamics of queues, arrival processes and
//! failure-recovery protocols; running them over virtual time makes a
//! 24-hour trace replay take seconds and makes every experiment exactly
//! reproducible from its seed.
//!
//! ## Example
//!
//! ```
//! use sns_sim::prelude::*;
//! use std::time::Duration;
//!
//! #[derive(Clone)]
//! struct Tick;
//! impl Wire for Tick {
//!     fn wire_size(&self) -> u64 { 16 }
//! }
//!
//! struct Clock;
//! impl Component<Tick> for Clock {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, Tick>) {
//!         ctx.timer(Duration::from_secs(1), 0);
//!     }
//!     fn on_timer(&mut self, ctx: &mut Ctx<'_, Tick>, _t: u64) {
//!         ctx.stats().incr("ticks", 1);
//!     }
//!     fn on_message(&mut self, _: &mut Ctx<'_, Tick>, _: ComponentId, _: Tick) {}
//! }
//!
//! let mut sim = Sim::new(SimConfig::default(), IdealNetwork::default());
//! let node = sim.add_node(NodeSpec::new(2, "dedicated"));
//! sim.spawn(node, Box::new(Clock), "clock");
//! sim.run();
//! assert_eq!(sim.stats().counter("ticks"), 1);
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod hash;
pub mod network;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod time;
pub mod trace;

/// A cluster node identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A component (simulated process) identifier. Ids are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub u64);

impl ComponentId {
    /// Sender id used for messages injected from outside the cluster.
    pub const EXTERNAL: ComponentId = ComponentId(0);
}

impl std::fmt::Display for ComponentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A multicast group identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

pub use engine::{Component, Ctx, Kernel, NodeSpec, RunOutcome, Sim, SimConfig, Wire};
pub use network::{Delivery, Endpoint, IdealNetwork, Network, TrafficClass};
pub use rng::Pcg32;
pub use sched::{HeapScheduler, Scheduler, WheelScheduler};
pub use stats::{MetricKey, Series, StatsHub, Summary};
pub use time::SimTime;
pub use trace::{SpanId, SpanRecord, TraceLog, Tracer};

/// Interns a name, returning its canonical `&'static str`. Each distinct
/// name leaks exactly one copy; repeated calls with the same content are
/// allocation-free lookups, but every call takes one process-wide lock.
/// Backs [`stats::MetricKey`], component-kind tags and worker-class
/// names; a [`StatsHub`] calls it only on its own first write of a name.
pub fn intern(name: &str) -> &'static str {
    use std::collections::BTreeMap;
    use std::sync::Mutex;
    static INTERNED: Mutex<BTreeMap<String, &'static str>> = Mutex::new(BTreeMap::new());
    let mut map = INTERNED
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(&s) = map.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    map.insert(name.to_string(), leaked);
    leaked
}

/// Commonly used items, for glob import in component code.
pub mod prelude {
    pub use crate::engine::{Component, Ctx, NodeSpec, RunOutcome, Sim, SimConfig, Wire};
    pub use crate::network::{Delivery, Endpoint, IdealNetwork, Network, TrafficClass};
    pub use crate::rng::Pcg32;
    pub use crate::stats::StatsHub;
    pub use crate::time::SimTime;
    pub use crate::{ComponentId, GroupId, NodeId};
}
