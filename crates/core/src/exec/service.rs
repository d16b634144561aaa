//! Per-request async bodies behind the legacy front-end framework.
//!
//! An [`AsyncService`] writes one `async fn` per request: awaiting a
//! dispatch instead of matching on `FeEvent` tags, `timeout` instead of
//! a give-up tag, `race` instead of a hedge state machine. The
//! [`AsyncSvcLogic`] adapter runs those bodies behind the unchanged
//! [`ServiceLogic`] trait, so the [`crate::frontend::FrontEnd`]
//! component — thread accounting, overhead CPU, dispatch timeouts,
//! manager supervision, tracing — is untouched and legacy services
//! keep working while they migrate.
//!
//! Determinism: a body only runs when the framework delivers an event
//! for its request, and each poll's effects drain into the same
//! `Vec<Action>` the legacy callbacks fill — so the wire-visible event
//! order is a pure function of the engine's (already deterministic)
//! event order. The rt driver (`sns_rt::exec`) polls the *same* future
//! type against wall-clock time and a live cluster.

use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex, Weak};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use sns_sim::time::SimTime;
use sns_sim::ComponentId;

use crate::frontend::{Action, FeEvent, ReqState, ServiceLogic, SvcView};
use crate::msg::{ClientRequest, JobResult, ProfileData};
use crate::{Payload, WorkerClass};

use super::BoxFut;

/// How an awaited framework operation resolved.
#[derive(Debug, Clone)]
pub enum EventOutcome {
    /// A worker answered (`FeEvent::WorkerReply`).
    Reply(JobResult),
    /// The dispatch failed permanently — timed out after retries, or
    /// the pinned worker died (`FeEvent::DispatchFailed`).
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

/// One queued effect of a body poll: either a stat (applied to the
/// stats hub during the drain, exactly where a legacy callback would
/// have written it) or a framework [`Action`].
#[derive(Debug)]
pub enum SvcOp {
    /// `stats().incr(key, n)`.
    Incr(&'static str, u64),
    /// `stats().observe(key, v)`.
    Observe(&'static str, f64),
    /// A framework action; dispatch-like variants carry the awaited
    /// token as their tag.
    Act(Action),
}

#[derive(Debug)]
enum SlotState {
    Pending(Option<Waker>),
    Ready(EventOutcome),
}

/// Shared per-request state between the body (via [`SvcHandle`]) and
/// the driving adapter.
#[derive(Debug, Default)]
pub(crate) struct ReqShared {
    now: SimTime,
    next_token: u64,
    ops: Vec<SvcOp>,
    slots: BTreeMap<u64, SlotState>,
    hints: BTreeMap<WorkerClass, Vec<ComponentId>>,
    replied: bool,
}

impl ReqShared {
    fn new() -> Self {
        ReqShared {
            next_token: 1,
            ..ReqShared::default()
        }
    }
}

/// The body's capability handle: everything a request body may do.
/// Cloneable (bodies move clones into `async` blocks for hedging).
#[derive(Debug, Clone)]
pub struct SvcHandle {
    inner: Arc<Mutex<ReqShared>>,
}

impl SvcHandle {
    fn lock(&self) -> std::sync::MutexGuard<'_, ReqShared> {
        self.inner.lock().expect("request state poisoned")
    }

    /// Current time on the driving backend's axis.
    pub fn now(&self) -> SimTime {
        self.lock().now
    }

    /// Live workers of a hint class, as of the last event delivery —
    /// the same beacon-derived membership a legacy callback reads from
    /// `view.stub.workers_of`. Only classes the service declared in
    /// [`AsyncService::hint_classes`] are populated.
    pub fn workers_of(&self, class: &WorkerClass) -> Vec<ComponentId> {
        self.lock().hints.get(class).cloned().unwrap_or_default()
    }

    /// Counts into the shared stats hub.
    pub fn incr(&self, key: &'static str, n: u64) {
        self.lock().ops.push(SvcOp::Incr(key, n));
    }

    /// Samples into the shared stats hub.
    pub fn observe(&self, key: &'static str, v: f64) {
        self.lock().ops.push(SvcOp::Observe(key, v));
    }

    fn pend(&self, mk: impl FnOnce(u64) -> Action) -> Pending {
        let mut inner = self.lock();
        let token = inner.next_token;
        inner.next_token += 1;
        inner.slots.insert(token, SlotState::Pending(None));
        let act = mk(token);
        inner.ops.push(SvcOp::Act(act));
        Pending {
            shared: Arc::downgrade(&self.inner),
            token,
        }
    }

    /// Dispatches to the best worker of a class (lottery + retries);
    /// await the result. Dropping the future forgets the result
    /// (fire-and-forget, race loser) — the job itself still runs.
    pub fn dispatch(
        &self,
        class: WorkerClass,
        op: impl Into<String>,
        input: Payload,
        profile: Option<ProfileData>,
    ) -> Pending {
        let op = op.into();
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
        op: impl Into<String>,
        input: Payload,
        profile: Option<ProfileData>,
    ) -> Pending {
        let op = op.into();
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

    /// (Driver.) Creates the per-request state pair.
    pub fn new_request() -> SvcHandle {
        SvcHandle {
            inner: Arc::new(Mutex::new(ReqShared::new())),
        }
    }

    /// (Driver.) Updates the clock and hint snapshot before a poll.
    pub fn sync(&self, now: SimTime, hints: BTreeMap<WorkerClass, Vec<ComponentId>>) {
        let mut inner = self.lock();
        inner.now = now;
        inner.hints = hints;
    }

    /// (Driver.) Resolves the awaited token; returns false when no one
    /// is waiting (cancelled future, fire-and-forget dispatch) — the
    /// driver then skips the poll, like the legacy early-returns.
    pub fn fill(&self, token: u64, outcome: EventOutcome) -> bool {
        let waker = {
            let mut inner = self.lock();
            match inner.slots.get_mut(&token) {
                Some(SlotState::Pending(w)) => {
                    let w = w.take();
                    inner.slots.insert(token, SlotState::Ready(outcome));
                    w
                }
                _ => return false,
            }
        };
        if let Some(w) = waker {
            w.wake();
        }
        true
    }

    /// (Driver.) Takes the ops the last poll produced, in emission
    /// order.
    pub fn take_ops(&self) -> Vec<SvcOp> {
        std::mem::take(&mut self.lock().ops)
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
    shared: Weak<Mutex<ReqShared>>,
    token: u64,
}

impl Future for Pending {
    type Output = EventOutcome;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<EventOutcome> {
        let Some(shared) = self.shared.upgrade() else {
            // Request state gone (body outlived its request — cannot
            // happen under the adapters, but never hang).
            return Poll::Ready(EventOutcome::Done);
        };
        let mut inner = shared.lock().expect("request state poisoned");
        match inner.slots.get_mut(&self.token) {
            Some(SlotState::Ready(_)) => {
                let Some(SlotState::Ready(outcome)) = inner.slots.remove(&self.token) else {
                    unreachable!()
                };
                Poll::Ready(outcome)
            }
            Some(SlotState::Pending(w)) => {
                *w = Some(cx.waker().clone());
                Poll::Pending
            }
            None => Poll::Ready(EventOutcome::Done),
        }
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        if let Some(shared) = self.shared.upgrade() {
            if let Ok(mut inner) = shared.lock() {
                inner.slots.remove(&self.token);
            }
        }
    }
}

/// A service whose per-request behaviour is one async body.
pub trait AsyncService: Send {
    /// Worker classes whose live membership bodies read via
    /// [`SvcHandle::workers_of`] (refreshed before every poll).
    fn hint_classes(&self) -> Vec<WorkerClass> {
        Vec::new()
    }

    /// Handles one request. The body awaits [`SvcHandle`] operations
    /// and must call [`SvcHandle::reply`] before returning; a body
    /// that returns without replying produces an error reply.
    fn handle(&mut self, request: Arc<ClientRequest>, svc: SvcHandle) -> BoxFut;
}

/// A waker that does nothing: the sim adapter re-polls a request's
/// body exactly when the framework delivers one of its events, so the
/// wake signal is redundant there (the rt driver runs the body on an
/// [`super::Executor`], whose wakers queue the task for the next run).
struct NoopWake;
impl Wake for NoopWake {
    fn wake(self: Arc<Self>) {}
}

/// Per-request task stored in [`ReqState::data`].
struct ReqTask {
    fut: BoxFut,
    svc: SvcHandle,
}

/// Runs an [`AsyncService`] behind the legacy [`ServiceLogic`] trait:
/// the migration adapter (`DESIGN.md` §6i).
pub struct AsyncSvcLogic<S> {
    svc: S,
    hint_classes: Vec<WorkerClass>,
    waker: Waker,
}

impl<S: AsyncService> AsyncSvcLogic<S> {
    /// Wraps a service.
    pub fn new(svc: S) -> Self {
        let hint_classes = svc.hint_classes();
        AsyncSvcLogic {
            svc,
            hint_classes,
            waker: Waker::from(Arc::new(NoopWake)),
        }
    }

    fn snapshot(&self, view: &SvcView<'_, '_>) -> BTreeMap<WorkerClass, Vec<ComponentId>> {
        self.hint_classes
            .iter()
            .map(|c| {
                let mut live = view.stub.workers_of(c);
                live.sort();
                (c.clone(), live)
            })
            .collect()
    }

    /// Polls the task once and drains its effects: stats straight into
    /// the hub (legacy callbacks write them mid-callback too — always
    /// before `apply` runs the actions), actions into `out`.
    fn poll_and_drain(
        &mut self,
        task: &mut ReqTask,
        view: &mut SvcView<'_, '_>,
        out: &mut Vec<Action>,
    ) -> bool {
        task.svc.sync(view.now, self.snapshot(view));
        let mut cx = Context::from_waker(&self.waker);
        let done = task.fut.as_mut().poll(&mut cx).is_ready();
        for op in task.svc.take_ops() {
            match op {
                SvcOp::Incr(key, n) => view.stats().incr(key, n),
                SvcOp::Observe(key, v) => view.stats().observe(key, v),
                SvcOp::Act(a) => out.push(a),
            }
        }
        if done && !task.svc.replied() {
            view.stats().incr("exec.body_no_reply", 1);
            out.push(Action::Reply(Err(
                "service body returned without replying".into()
            )));
        }
        done
    }
}

impl<S: AsyncService> ServiceLogic for AsyncSvcLogic<S> {
    fn on_request(
        &mut self,
        req: &mut ReqState,
        view: &mut SvcView<'_, '_>,
        out: &mut Vec<Action>,
    ) {
        let svc = SvcHandle::new_request();
        let fut = self.svc.handle(req.request.clone(), svc.clone());
        let mut task = ReqTask { fut, svc };
        if !self.poll_and_drain(&mut task, view, out) {
            req.data = Some(Box::new(task));
        }
    }

    fn on_event(
        &mut self,
        req: &mut ReqState,
        ev: FeEvent<'_>,
        view: &mut SvcView<'_, '_>,
        out: &mut Vec<Action>,
    ) {
        let Some(data) = req.data.take() else {
            return;
        };
        let Ok(mut task) = data.downcast::<ReqTask>() else {
            return;
        };
        let (token, outcome) = match ev {
            FeEvent::WorkerReply { tag, result } => (tag, EventOutcome::Reply(result.clone())),
            FeEvent::DispatchFailed { tag, class } => (tag, EventOutcome::Failed(class)),
            FeEvent::ComputeDone { tag } => (tag, EventOutcome::Done),
            FeEvent::NapDone { tag } => (tag, EventOutcome::Done),
        };
        if !task.svc.fill(token, outcome) {
            // No awaiter: a fire-and-forget dispatch's late reply or a
            // race loser's event. Nothing can have changed; skip the
            // poll (the legacy logic's early-return arm).
            req.data = Some(task);
            return;
        }
        if !self.poll_and_drain(&mut task, view, out) {
            req.data = Some(task);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Blob;

    #[test]
    fn handle_allocates_tokens_and_queues_ops_in_emission_order() {
        let svc = SvcHandle::new_request();
        svc.incr("a", 1);
        let p1 = svc.dispatch(WorkerClass::new("echo"), "op", Blob::payload(4, "x"), None);
        svc.observe("b", 2.0);
        let p2 = svc.compute(Duration::from_millis(1));
        assert_eq!(p1.token, 1);
        assert_eq!(p2.token, 2);
        let ops = svc.take_ops();
        assert_eq!(ops.len(), 4);
        assert!(matches!(ops[0], SvcOp::Incr("a", 1)));
        assert!(matches!(
            ops[1],
            SvcOp::Act(Action::Dispatch { tag: 1, .. })
        ));
        assert!(matches!(ops[2], SvcOp::Observe("b", _)));
        assert!(matches!(ops[3], SvcOp::Act(Action::Compute { tag: 2, .. })));
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
        let waker = Waker::from(Arc::new(NoopWake));
        let mut cx = Context::from_waker(&waker);
        let mut p = pending;
        assert!(matches!(
            Pin::new(&mut p).poll(&mut cx),
            Poll::Ready(EventOutcome::Done)
        ));
    }
}
