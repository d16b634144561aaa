//! Sharded dispatch: N independent [`DispatchPlane`]s behind per-shard
//! locks, so a hot submit path scales with submitters instead of
//! serializing on one global mutex.
//!
//! The paper's incremental-scalability claim (§2) is about the *data
//! path*: adding nodes must add throughput. MSCS-style designs keep
//! membership and policy centralized while partitioning data-path
//! state; this type is that split for the SNS dispatch side. Policy
//! (spawning, membership, beacon contents) stays in the single
//! [`crate::control::ControlPlane`] behind its own lock; the dispatch
//! state — hint cache, worker choice, outstanding-job tracking — is
//! replicated into `N` shards, each with its own lock and RNG. A
//! submitter round-robins across shards, so concurrent submits contend
//! only 1/N of the time, and beacons are *broadcast*: every shard
//! ingests the same hint snapshot, which is exactly the paper's
//! tolerate-staleness discipline (§3.1.8) — shards are just additional
//! front-end stubs that happen to live in one process.
//!
//! Membership is what the shards learn from beacons; *load* they need
//! not: a shard's in-flight delta is invisible to its siblings, so a
//! driver whose workers publish exact queue gauges hands every shard
//! the same [`LiveLoad`] source and the shards place by it — one more
//! step of the same split, load read where it is exact.
//!
//! Job-id spaces are strided ([`DispatchPlane::set_job_id_space`]):
//! shard *i* of *n* issues ids `i+1, i+1+n, i+1+2n, …`, so ids remain
//! globally unique and `(id - 1) % n` ([`ShardedDispatch::shard_of`])
//! routes a response back to its owning shard without any shared map.
//! With `n = 1` the id sequence `1, 2, 3, …` is identical to an
//! unsharded plane — the simulator keeps its byte-stable streams.
//!
//! Both backends can drive this type: the threaded runtime wraps it in
//! `Arc` and locks shards from submitter and worker threads; a
//! single-threaded (simulator) driver uses it the same way, just
//! without contention. The `X` type parameter lets a driver hang its
//! own per-shard state (reply channels, deadlines, counters) off the
//! same lock so one acquisition covers both.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use sns_sim::rng::Pcg32;

use crate::control::{DispatchEffect, DispatchPlane, LiveLoad};
use crate::msg::BeaconData;
use crate::trace::Sampling;
use crate::SnsConfig;

/// One shard: a [`DispatchPlane`] with its own RNG and driver-specific
/// extension state, all guarded by a single per-shard lock.
pub struct DispatchShard<X> {
    /// The shard's dispatch decision machine.
    pub plane: DispatchPlane,
    /// The shard's worker-choice RNG (seeded per shard; decisions stay
    /// deterministic per shard, not across interleavings).
    pub rng: Pcg32,
    /// Driver-owned state living under the same lock (e.g. reply
    /// channels and deadlines in the threaded runtime).
    pub ext: X,
}

/// `N` [`DispatchShard`]s with round-robin placement of new dispatches
/// and id-based routing of responses. See the module docs for the
/// topology and the lock-order contract.
pub struct ShardedDispatch<X> {
    shards: Vec<Mutex<DispatchShard<X>>>,
    cursor: AtomicUsize,
    poisoned: AtomicU64,
}

impl<X> ShardedDispatch<X> {
    /// Builds `count` shards (at least 1). Shard RNGs derive from
    /// `seed` with a per-shard offset; `ext` builds each shard's
    /// driver extension. `tracing` arms span emission on every shard;
    /// `sampling` installs the same head-sampling policy on each (the
    /// decision keys on globally-unique job ids, so the sampled set is
    /// independent of which shard issued an id). `live`, when given, is
    /// shared by every shard ([`DispatchPlane::set_live_load`]);
    /// `None` keeps the lottery.
    pub fn new(
        cfg: &SnsConfig,
        count: usize,
        seed: u64,
        tracing: bool,
        sampling: Sampling,
        live: Option<Arc<dyn LiveLoad>>,
        mut ext: impl FnMut(usize) -> X,
    ) -> Self {
        let count = count.max(1);
        let shards = (0..count)
            .map(|i| {
                let mut plane = DispatchPlane::new(cfg.clone());
                if let Some(live) = &live {
                    plane.set_live_load(Arc::clone(live));
                }
                plane.set_job_id_space(i as u64 + 1, count as u64);
                plane.set_tracing(tracing);
                plane.set_sampling(sampling);
                Mutex::new(DispatchShard {
                    plane,
                    rng: Pcg32::new(
                        seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64)),
                    ),
                    ext: ext(i),
                })
            })
            .collect();
        ShardedDispatch {
            shards,
            cursor: AtomicUsize::new(0),
            poisoned: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn count(&self) -> usize {
        self.shards.len()
    }

    /// The shard that issued `job_id` (inverse of the id striding).
    pub fn shard_of(&self, job_id: u64) -> usize {
        ((job_id.max(1) - 1) % self.shards.len() as u64) as usize
    }

    /// Round-robin placement for a new dispatch: returns the next shard
    /// index. Lock-free (one relaxed atomic increment).
    pub fn pick(&self) -> usize {
        self.cursor.fetch_add(1, Ordering::Relaxed) % self.shards.len()
    }

    /// Locks shard `index`, recovering (and counting) poisoned locks —
    /// shard state is monotonic maps and counters that tolerate a
    /// panicked writer's partial update.
    pub fn lock(&self, index: usize) -> MutexGuard<'_, DispatchShard<X>> {
        match self.shards[index].lock() {
            Ok(g) => g,
            Err(e) => {
                self.poisoned.fetch_add(1, Ordering::Relaxed);
                e.into_inner()
            }
        }
    }

    /// Locks the shard owning `job_id` (response / settlement path).
    pub fn lock_for(&self, job_id: u64) -> (usize, MutexGuard<'_, DispatchShard<X>>) {
        let i = self.shard_of(job_id);
        (i, self.lock(i))
    }

    /// Broadcasts a beacon: every shard ingests the hint snapshot and
    /// flushes its pending (worker-less) dispatches. `apply` receives
    /// each shard — still locked — together with the flush effects, so
    /// a driver can deliver jobs and update its extension state under
    /// the same acquisition. Locks are taken one shard at a time (never
    /// two shards at once).
    pub fn broadcast_beacon(
        &self,
        b: &BeaconData,
        mut apply: impl FnMut(usize, &mut DispatchShard<X>, Vec<DispatchEffect>),
    ) {
        for i in 0..self.shards.len() {
            let mut shard = self.lock(i);
            let mut out = Vec::new();
            {
                let DispatchShard { plane, rng, .. } = &mut *shard;
                plane.on_beacon(b);
                plane.flush_pending(rng, &mut out);
            }
            apply(i, &mut shard, out);
        }
    }

    /// Visits every shard in index order (locking one at a time) —
    /// counter rollups, deadline sweeps, shutdown clears.
    pub fn for_each(&self, mut f: impl FnMut(usize, &mut DispatchShard<X>)) {
        for i in 0..self.shards.len() {
            let mut shard = self.lock(i);
            f(i, &mut shard);
        }
    }

    /// Total outstanding dispatches across all shards.
    pub fn outstanding(&self) -> usize {
        let mut n = 0;
        self.for_each(|_, s| n += s.plane.outstanding_count());
        n
    }

    /// Times a poisoned shard lock was recovered.
    pub fn poison_recoveries(&self) -> u64 {
        self.poisoned.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::WorkerHint;
    use crate::{Blob, WorkerClass};
    use sns_sim::time::SimTime;
    use sns_sim::{ComponentId, NodeId};
    use std::collections::BTreeMap;

    fn beacon(workers: &[(u64, f64)]) -> BeaconData {
        let mut hints = BTreeMap::new();
        hints.insert(
            WorkerClass::new("w"),
            workers
                .iter()
                .map(|&(id, q)| WorkerHint {
                    worker: ComponentId(id),
                    node: NodeId(0),
                    est_qlen: q,
                    overflow: false,
                })
                .collect(),
        );
        BeaconData {
            manager: ComponentId(99),
            incarnation: 1,
            hints,
            at: SimTime::from_secs(1),
        }
    }

    fn sharded(count: usize) -> ShardedDispatch<()> {
        let cfg = SnsConfig::default();
        ShardedDispatch::new(&cfg, count, 7, false, Sampling::ALL, None, |_| ())
    }

    fn dispatch_one(sd: &ShardedDispatch<()>, idx: usize) -> u64 {
        let mut shard = sd.lock(idx);
        let DispatchShard { plane, rng, .. } = &mut *shard;
        plane.dispatch(
            rng,
            SimTime::from_secs(2),
            ComponentId::EXTERNAL,
            WorkerClass::new("w"),
            "op",
            Blob::payload(10, "x"),
            None,
            crate::trace::SpanCtx::root(),
            &mut Vec::new(),
        )
    }

    #[test]
    fn strided_ids_are_disjoint_and_route_back() {
        let sd = sharded(4);
        sd.broadcast_beacon(&beacon(&[(5, 0.0)]), |_, _, _| {});
        let mut seen = Vec::new();
        for round in 0..3 {
            for _ in 0..sd.count() {
                let idx = sd.pick();
                let id = dispatch_one(&sd, idx);
                assert_eq!(sd.shard_of(id), idx, "id {id} routes to its shard");
                seen.push(id);
                let _ = round;
            }
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 12, "strided ids never collide");
    }

    #[test]
    fn single_shard_matches_unsharded_id_sequence() {
        let sd = sharded(1);
        sd.broadcast_beacon(&beacon(&[(5, 0.0)]), |_, _, _| {});
        let ids: Vec<u64> = (0..3).map(|_| dispatch_one(&sd, sd.pick())).collect();
        assert_eq!(ids, vec![1, 2, 3], "n = 1 degenerates to the old space");
    }

    #[test]
    fn broadcast_reaches_every_shard_and_flushes_pending() {
        let sd = sharded(3);
        // Dispatch with no hints: stays pending in each shard.
        for i in 0..3 {
            dispatch_one(&sd, i);
        }
        assert_eq!(sd.outstanding(), 3);
        let mut sends = 0;
        sd.broadcast_beacon(&beacon(&[(5, 0.0)]), |_, _, out| {
            sends += out
                .iter()
                .filter(|e| matches!(e, DispatchEffect::SendJob { .. }))
                .count();
        });
        assert_eq!(sends, 3, "every shard flushed its pending dispatch");
        assert_eq!(sd.poison_recoveries(), 0);
    }
}
