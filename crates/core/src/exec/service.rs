//! Per-request async service bodies.
//!
//! An [`AsyncService`] writes one `async fn` per request: awaiting a
//! dispatch instead of matching on reply tags, `timeout` instead of a
//! give-up tag, `race` instead of a hedge state machine. A body talks
//! to its driver only through its [`SvcHandle`]: every operation is
//! queued as an [`SvcOp`] and every awaited one gets a token the driver
//! later [`SvcHandle::fill`]s.
//!
//! Two drivers host bodies. The sim [`crate::frontend::FrontEnd`] owns
//! each request's handle and body and turns every framework event for
//! the request (worker reply, give-up, compute or nap done) into a
//! `fill` + poll + drain, so the wire-visible event order is a pure
//! function of the engine's (already deterministic) event order: a
//! [`SvcHandle::nap`] is an engine timer, and same-deadline naps fill
//! in `(deadline, token)` order. The rt driver (`sns_rt::exec`) polls
//! the *same* future type against a live cluster, with
//! [`SvcHandle::now`] on the cluster's clock and each nap a deadline
//! on its completion-queue wait. Naps are the only timer a body has.

use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use sns_sim::time::SimTime;
use sns_sim::ComponentId;

use crate::frontend::Action;
use crate::msg::{ClientRequest, JobResult, ProfileData};
use crate::{Payload, WorkerClass};

use super::BoxFut;

/// Live workers per hint class: the membership snapshot a driver hands
/// its bodies before each poll.
pub type Hints = BTreeMap<WorkerClass, Vec<ComponentId>>;

/// How an awaited framework operation resolved.
#[derive(Debug, Clone)]
pub enum EventOutcome {
    /// A worker answered.
    Reply(JobResult),
    /// The dispatch failed permanently — timed out after retries, or
    /// the pinned worker died.
    Failed(WorkerClass),
    /// A compute burst or nap finished.
    Done,
}

impl EventOutcome {
    /// The successful payload, if any.
    pub fn ok_payload(&self) -> Option<&Payload> {
        match self {
            EventOutcome::Reply(JobResult::Ok(p)) => Some(p),
            _ => None,
        }
    }
}

/// One queued effect of a body poll: a stat (applied to the stats hub
/// before any action of the same poll) or a framework [`Action`].
#[derive(Debug)]
pub enum SvcOp {
    /// `stats().incr(key, n)`.
    Incr(&'static str, u64),
    /// `stats().observe(key, v)`.
    Observe(&'static str, f64),
    /// `stats().sample(key, now, v)` at the poll's `now`.
    Sample(&'static str, f64),
    /// A framework action; dispatch-like variants carry the awaited
    /// token as their tag.
    Act(Action),
}

#[derive(Debug)]
enum Slot {
    Pending(Option<Waker>),
    Ready(EventOutcome),
}

/// Per-request state shared by the body (via [`SvcHandle`] and its
/// [`Pending`]s) and the driver.
#[derive(Debug, Default)]
struct ReqShared {
    now: SimTime,
    next_token: u64,
    ops: Vec<SvcOp>,
    /// Awaited tokens still live — a handful at a time, so a linear
    /// scan beats a map.
    slots: Vec<(u64, Slot)>,
    /// The driver's snapshot; `None` until the first [`SvcHandle::sync`].
    hints: Option<Arc<Hints>>,
    replied: bool,
}

impl ReqShared {
    fn slot(&mut self, token: u64) -> Option<usize> {
        self.slots.iter().position(|(t, _)| *t == token)
    }
}

/// The body's capability handle: everything a request body may do.
/// Cloneable (bodies move clones into `async` blocks for hedging).
#[derive(Debug, Clone)]
pub struct SvcHandle {
    inner: Arc<Mutex<ReqShared>>,
}

fn lock(inner: &Mutex<ReqShared>) -> MutexGuard<'_, ReqShared> {
    inner.lock().expect("request state poisoned")
}

impl SvcHandle {
    fn lock(&self) -> MutexGuard<'_, ReqShared> {
        lock(&self.inner)
    }

    /// Current time on the driving backend's axis.
    pub fn now(&self) -> SimTime {
        self.lock().now
    }

    /// Runs `f` on the live workers of a hint class, as of the last
    /// event delivery (the beacon-derived membership, sorted), read in
    /// place from the driver's snapshot. Only classes the service
    /// declared in [`AsyncService::hint_classes`] are populated.
    pub fn with_workers<R>(&self, class: &WorkerClass, f: impl FnOnce(&[ComponentId]) -> R) -> R {
        let inner = self.lock();
        let live = inner.hints.as_ref().and_then(|h| h.get(class));
        f(live.map_or(&[], Vec::as_slice))
    }

    /// Counts into the shared stats hub.
    pub fn incr(&self, key: &'static str, n: u64) {
        self.lock().ops.push(SvcOp::Incr(key, n));
    }

    /// Samples into the shared stats hub.
    pub fn observe(&self, key: &'static str, v: f64) {
        self.lock().ops.push(SvcOp::Observe(key, v));
    }

    /// Appends `(now, v)` to the hub's time series `key`, stamped with
    /// the time of the poll that emits it.
    pub fn sample(&self, key: &'static str, v: f64) {
        self.lock().ops.push(SvcOp::Sample(key, v));
    }

    fn pend(&self, mk: impl FnOnce(u64) -> Action) -> Pending {
        let mut inner = self.lock();
        let token = inner.next_token;
        inner.next_token += 1;
        inner.slots.push((token, Slot::Pending(None)));
        let act = mk(token);
        inner.ops.push(SvcOp::Act(act));
        Pending {
            shared: Arc::clone(&self.inner),
            token,
            done: false,
        }
    }

    /// Dispatches to the best worker of a class (lottery + retries);
    /// await the result. Dropping the future forgets the result
    /// (fire-and-forget, race loser) — the job itself still runs.
    pub fn dispatch(
        &self,
        class: WorkerClass,
        op: &'static str,
        input: Payload,
        profile: Option<ProfileData>,
    ) -> Pending {
        self.pend(|tag| Action::Dispatch {
            tag,
            class,
            op,
            input,
            profile,
        })
    }

    /// Dispatches to one specific worker (cache-ring routing).
    pub fn dispatch_to(
        &self,
        worker: ComponentId,
        class: WorkerClass,
        op: &'static str,
        input: Payload,
        profile: Option<ProfileData>,
    ) -> Pending {
        self.pend(|tag| Action::DispatchTo {
            tag,
            worker,
            class,
            op,
            input,
            profile,
        })
    }

    /// Burns front-end CPU; await completion.
    pub fn compute(&self, cost: Duration) -> Pending {
        self.pend(|tag| Action::Compute { tag, cost })
    }

    /// Sleeps on the backend's clock (virtual in sim, wall in rt); the
    /// give-up/hedge deadline for [`super::timeout`] / [`super::race`].
    pub fn nap(&self, delay: Duration) -> Pending {
        self.pend(|tag| Action::Nap { tag, delay })
    }

    /// Flags the eventual response as degraded (BASE approximate
    /// answers, §3.1.8).
    pub fn mark_degraded(&self) {
        self.lock().ops.push(SvcOp::Act(Action::MarkDegraded));
    }

    /// Finishes the request. The body should return soon after; any
    /// ops it emits past this point are dropped by the framework.
    pub fn reply(&self, result: Result<Payload, String>) {
        let mut inner = self.lock();
        inner.replied = true;
        inner.ops.push(SvcOp::Act(Action::Reply(result)));
    }

    // -- driver side ----------------------------------------------------

    /// (Driver.) Creates the per-request state.
    pub fn new_request() -> SvcHandle {
        SvcHandle {
            inner: Arc::new(Mutex::new(ReqShared {
                next_token: 1,
                ..ReqShared::default()
            })),
        }
    }

    /// (Driver.) Before a poll: sets the clock and the hint snapshot
    /// (shared, replaced only when the driver rebuilt it) and lends the
    /// handle the driver's empty op buffer, so a poll allocates none.
    /// Ops queued since the last [`SvcHandle::take_ops`] stay queued.
    pub fn sync(&self, now: SimTime, hints: &Arc<Hints>, ops: &mut Vec<SvcOp>) {
        let mut inner = self.lock();
        inner.now = now;
        if !inner.hints.as_ref().is_some_and(|h| Arc::ptr_eq(h, hints)) {
            inner.hints = Some(Arc::clone(hints));
        }
        if inner.ops.is_empty() {
            std::mem::swap(&mut inner.ops, ops);
        }
    }

    /// (Driver.) After a poll: swaps the queued ops, in emission order,
    /// into the driver's (empty) buffer `ops`.
    pub fn take_ops(&self, ops: &mut Vec<SvcOp>) {
        std::mem::swap(&mut self.lock().ops, ops);
    }

    /// (Driver.) Resolves the awaited token; returns false when no one
    /// is waiting (cancelled future, fire-and-forget dispatch) — the
    /// driver then skips the poll: nothing the body waits on changed.
    pub fn fill(&self, token: u64, outcome: EventOutcome) -> bool {
        let waker = {
            let mut inner = self.lock();
            let Some(i) = inner.slot(token) else {
                return false;
            };
            // A token is single-shot: a second fill finds it Ready.
            let Slot::Pending(w) = &mut inner.slots[i].1 else {
                return false;
            };
            let w = w.take();
            inner.slots[i].1 = Slot::Ready(outcome);
            w
        };
        if let Some(w) = waker {
            w.wake();
        }
        true
    }

    /// (Driver.) Whether the body replied.
    pub fn replied(&self) -> bool {
        self.lock().replied
    }
}

/// An awaited framework operation; resolves to an [`EventOutcome`].
/// Dropping it cancels the wait (not the underlying job).
#[derive(Debug)]
pub struct Pending {
    shared: Arc<Mutex<ReqShared>>,
    token: u64,
    /// Resolved: its slot is gone, so drop has nothing to release.
    done: bool,
}

impl Future for Pending {
    type Output = EventOutcome;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<EventOutcome> {
        let this = self.get_mut();
        let mut inner = lock(&this.shared);
        let Some(i) = inner.slot(this.token) else {
            this.done = true;
            return Poll::Ready(EventOutcome::Done);
        };
        if let Slot::Pending(w) = &mut inner.slots[i].1 {
            if !w.as_ref().is_some_and(|w| w.will_wake(cx.waker())) {
                *w = Some(cx.waker().clone());
            }
            return Poll::Pending;
        }
        let Slot::Ready(outcome) = inner.slots.swap_remove(i).1 else {
            unreachable!("checked above")
        };
        this.done = true;
        Poll::Ready(outcome)
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        if let Ok(mut inner) = self.shared.lock() {
            if let Some(i) = inner.slot(self.token) {
                inner.slots.swap_remove(i);
            }
        }
    }
}

/// A service whose per-request behaviour is one async body.
pub trait AsyncService: Send {
    /// Worker classes whose live membership bodies read via
    /// [`SvcHandle::with_workers`] (current at every poll).
    fn hint_classes(&self) -> Vec<WorkerClass> {
        Vec::new()
    }

    /// Handles one request. The body awaits [`SvcHandle`] operations
    /// and must call [`SvcHandle::reply`] before returning; a body
    /// that returns without replying produces an error reply.
    fn handle(&mut self, request: Arc<ClientRequest>, svc: SvcHandle) -> BoxFut;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Blob;

    fn drain(svc: &SvcHandle) -> Vec<SvcOp> {
        let mut ops = Vec::new();
        svc.take_ops(&mut ops);
        ops
    }

    #[test]
    fn handle_allocates_tokens_and_queues_ops_in_emission_order() {
        let svc = SvcHandle::new_request();
        svc.incr("a", 1);
        let p1 = svc.dispatch(WorkerClass::new("echo"), "op", Blob::payload(4, "x"), None);
        svc.observe("b", 2.0);
        let p2 = svc.compute(Duration::from_millis(1));
        svc.sample("c", 3.0);
        assert_eq!(p1.token, 1);
        assert_eq!(p2.token, 2);
        let ops = drain(&svc);
        assert_eq!(ops.len(), 5);
        assert!(matches!(ops[0], SvcOp::Incr("a", 1)));
        assert!(matches!(
            ops[1],
            SvcOp::Act(Action::Dispatch { tag: 1, .. })
        ));
        assert!(matches!(ops[2], SvcOp::Observe("b", _)));
        assert!(matches!(ops[3], SvcOp::Act(Action::Compute { tag: 2, .. })));
        assert!(matches!(ops[4], SvcOp::Sample("c", _)));
    }

    #[test]
    fn fill_resolves_awaiters_and_reports_cancelled_slots() {
        let svc = SvcHandle::new_request();
        let pending = svc.nap(Duration::from_millis(5));
        let dropped = svc.nap(Duration::from_millis(5));
        let dropped_token = dropped.token;
        drop(dropped);
        assert!(
            !svc.fill(dropped_token, EventOutcome::Done),
            "slot gone on drop"
        );
        assert!(svc.fill(pending.token, EventOutcome::Done));
        assert!(!svc.fill(pending.token, EventOutcome::Done), "single-shot");
        let mut cx = Context::from_waker(Waker::noop());
        let mut p = pending;
        assert!(matches!(
            Pin::new(&mut p).poll(&mut cx),
            Poll::Ready(EventOutcome::Done)
        ));
        assert!(!svc.fill(p.token, EventOutcome::Done), "consumed");
    }

    #[test]
    fn sync_lends_the_op_buffer_and_shares_the_snapshot() {
        let svc = SvcHandle::new_request();
        let hints: Arc<Hints> = Arc::new(BTreeMap::from([(
            WorkerClass::new("w"),
            vec![ComponentId(3)],
        )]));
        let mut buf = Vec::with_capacity(8);
        svc.sync(SimTime::from_millis(7), &hints, &mut buf);
        assert_eq!(svc.now(), SimTime::from_millis(7));
        assert_eq!(
            svc.with_workers(&"w".into(), <[_]>::to_vec),
            vec![ComponentId(3)]
        );
        svc.incr("k", 1);
        svc.take_ops(&mut buf);
        assert_eq!(buf.len(), 1);
        assert!(buf.capacity() >= 8, "the lent buffer came back");
    }
}
