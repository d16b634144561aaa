//! The manager stub (§2.2.5, §3.1.2): the front-end half of the narrow
//! SNS API.
//!
//! The stub caches the hints piggybacked on manager beacons and makes
//! *local* scheduling decisions from them — so the front end keeps
//! operating on slightly stale data even while the manager is down
//! (§3.1.8). Worker selection is lottery scheduling with tickets
//! inversely proportional to the estimated queue length; the estimate is
//! the manager's smoothed report **plus this stub's own net dispatches
//! since that report** — the §4.5 queue-delta correction that eliminated
//! the load-balancing oscillations (toggle
//! [`ManagerStub::set_delta_correction`] off to reproduce them).
//! Timeouts infer failures from stale choices; timed-out workers are
//! dropped from the hint cache and the request retried elsewhere
//! (§3.1.8).
//!
//! All of that decision logic lives in the sans-IO
//! [`DispatchPlane`] ([`crate::control`]), shared with the threaded
//! runtime's submit path. This type is the simulator driver: it feeds
//! the plane the component's RNG and maps the returned
//! [`DispatchEffect`]s onto `ctx.send` / stats calls, in order.

use sns_sim::engine::Ctx;
use sns_sim::time::SimTime;
use sns_sim::ComponentId;

use crate::control::{DispatchEffect, DispatchPlane};
pub use crate::control::{Outstanding, TimeoutVerdict};
use crate::msg::{BeaconData, ProfileData, SnsMsg};
use crate::trace::{Sampling, SpanCtx};
use crate::{Payload, SnsConfig, WorkerClass};

/// The front-end-resident manager stub.
pub struct ManagerStub {
    plane: DispatchPlane,
    /// The buffer every plane call writes its effects into; reused, so
    /// a dispatch allocates none.
    out: Vec<DispatchEffect>,
}

impl ManagerStub {
    /// Creates a stub.
    pub fn new(cfg: SnsConfig) -> Self {
        ManagerStub {
            plane: DispatchPlane::new(cfg),
            out: Vec::new(),
        }
    }

    /// Applies the plane's effects, in order, onto engine calls,
    /// emptying the buffer for the next call.
    fn apply(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
        for effect in self.out.drain(..) {
            match effect {
                DispatchEffect::SendJob { worker, job } => {
                    ctx.send(worker, SnsMsg::WorkRequest(job));
                }
                DispatchEffect::NeedWorker { manager, class } => {
                    let me = ctx.me();
                    ctx.send(manager, SnsMsg::NeedWorker { fe: me, class });
                }
                DispatchEffect::Incr { key, n } => ctx.stats().incr(key, n),
                DispatchEffect::Span(s) => ctx.tracer().record(s),
            }
        }
    }

    /// Enables/disables the §4.5 queue-delta correction (ablation knob).
    pub fn set_delta_correction(&mut self, on: bool) {
        self.plane.set_delta_correction(on);
    }

    /// Turns dispatch-span emission on/off (the front end mirrors the
    /// engine tracer's state here on start).
    pub fn set_tracing(&mut self, on: bool) {
        self.plane.set_tracing(on);
    }

    /// Installs the head-sampling policy used for root dispatches that
    /// arrive without a caller decision (mirrored from the engine
    /// tracer on start, like [`ManagerStub::set_tracing`]).
    pub fn set_sampling(&mut self, sampling: Sampling) {
        self.plane.set_sampling(sampling);
    }

    /// Assigns a worker class to a tenant for admission accounting.
    pub fn set_tenant(&mut self, class: WorkerClass, tenant: &'static str) {
        self.plane.set_tenant(class, tenant);
    }

    /// Installs a tenant's overload policy (outstanding quota + drop vs.
    /// degrade behavior past it).
    pub fn set_tenant_policy(&mut self, tenant: &'static str, policy: crate::TenantPolicy) {
        self.plane.set_tenant_policy(tenant, policy);
    }

    /// Admission check for one job of `class` against its tenant's
    /// overload policy; call before [`ManagerStub::dispatch`] and skip
    /// (or degrade) the dispatch on a non-[`Admission::Accept`](crate::Admission::Accept) verdict.
    pub fn admit(&mut self, ctx: &mut Ctx<'_, SnsMsg>, class: &WorkerClass) -> crate::Admission {
        let verdict = self.plane.admit(class, &mut self.out);
        self.apply(ctx);
        verdict
    }

    /// The manager, if one has been heard from.
    pub fn manager(&self) -> Option<ComponentId> {
        self.plane.manager()
    }

    /// Incarnation of the last manager heard from.
    pub fn incarnation(&self) -> u64 {
        self.plane.incarnation()
    }

    /// When the last beacon arrived.
    pub fn last_beacon(&self) -> Option<SimTime> {
        self.plane.last_beacon()
    }

    /// Live workers of a class per the hint cache (the virtual-cache ring
    /// is built from this, §3.1.5).
    pub fn workers_of(&self, class: &WorkerClass) -> Vec<ComponentId> {
        self.plane.workers_of(class)
    }

    /// Changes whenever the hint cache does (beacon, timeout eviction);
    /// the front end rebuilds its bodies' membership snapshot only then.
    pub fn hints_version(&self) -> u64 {
        self.plane.hints_version()
    }

    /// Estimated queue length for a worker (report + local delta).
    pub fn estimate(&self, class: &WorkerClass, worker: ComponentId) -> Option<f64> {
        self.plane.estimate(class, worker)
    }

    /// Ingests a beacon. Returns `true` when it announces a manager (or
    /// incarnation) this stub has not registered with yet.
    pub fn on_beacon(&mut self, b: &BeaconData) -> bool {
        self.plane.on_beacon(b)
    }

    /// Dispatches a job to the least-loaded worker of `class` (lottery).
    /// If no worker is known the dispatch stays pending — the caller's
    /// timeout drives a retry once the manager has spawned one — and the
    /// manager is asked via [`SnsMsg::NeedWorker`]. Returns the job id.
    /// `span` carries the caller's request-span parent and head-sampling
    /// decision (pass [`SpanCtx::root`] for root dispatches).
    pub fn dispatch(
        &mut self,
        ctx: &mut Ctx<'_, SnsMsg>,
        class: WorkerClass,
        op: &'static str,
        input: Payload,
        profile: Option<ProfileData>,
        span: SpanCtx,
    ) -> u64 {
        let me = ctx.me();
        let now = ctx.now();
        let job_id = self.plane.dispatch(
            ctx.rng(),
            now,
            me,
            class,
            op,
            input,
            profile,
            span,
            &mut self.out,
        );
        self.apply(ctx);
        job_id
    }

    /// Dispatches to a pinned worker (cache-ring routing, search
    /// partition fan-out). No lottery, no retry.
    #[allow(clippy::too_many_arguments)]
    pub fn dispatch_to(
        &mut self,
        ctx: &mut Ctx<'_, SnsMsg>,
        worker: ComponentId,
        class: WorkerClass,
        op: &'static str,
        input: Payload,
        profile: Option<ProfileData>,
        span: SpanCtx,
    ) -> u64 {
        let me = ctx.me();
        let now = ctx.now();
        let out = &mut self.out;
        let job_id = self
            .plane
            .dispatch_to(now, me, worker, class, op, input, profile, span, out);
        self.apply(ctx);
        job_id
    }

    /// Records a response; returns the dispatch if it was outstanding.
    pub fn on_response(&mut self, ctx: &mut Ctx<'_, SnsMsg>, job_id: u64) -> Option<Outstanding> {
        let now = ctx.now();
        let o = self.plane.on_response(job_id, now, &mut self.out);
        self.apply(ctx);
        o
    }

    /// Handles a dispatch timeout: evict the suspected-dead worker from
    /// the hint cache and retry elsewhere, or give up (§3.1.8).
    pub fn on_timeout(&mut self, ctx: &mut Ctx<'_, SnsMsg>, job_id: u64) -> TimeoutVerdict {
        let now = ctx.now();
        let verdict = self.plane.on_timeout(ctx.rng(), now, job_id, &mut self.out);
        self.apply(ctx);
        verdict
    }

    /// Jobs currently outstanding (waiting on workers).
    pub fn outstanding_count(&self) -> usize {
        self.plane.outstanding_count()
    }

    /// Pending dispatches of `class` that have no worker yet get sent as
    /// soon as hints advertise one (called after each beacon).
    pub fn flush_pending(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
        self.plane.flush_pending(ctx.rng(), &mut self.out);
        self.apply(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::WorkerHint;
    use sns_sim::NodeId;
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

    #[test]
    fn beacon_updates_membership_and_detects_new_manager() {
        let mut stub = ManagerStub::new(SnsConfig::default());
        assert!(stub.on_beacon(&beacon(&[(1, 0.0), (2, 3.0)])));
        assert_eq!(stub.manager(), Some(ComponentId(99)));
        assert_eq!(
            stub.workers_of(&"w".into()),
            vec![ComponentId(1), ComponentId(2)]
        );
        // Same manager, same incarnation: not new.
        assert!(!stub.on_beacon(&beacon(&[(1, 0.0)])));
        let mut b2 = beacon(&[(1, 0.0)]);
        b2.incarnation = 2;
        assert!(stub.on_beacon(&b2), "new incarnation requires re-register");
    }

    #[test]
    fn unknown_job_response_is_none() {
        let mut stub = ManagerStub::new(SnsConfig::default());
        assert!(stub
            .plane
            .on_response(42, SimTime::ZERO, &mut Vec::new())
            .is_none());
    }
}
