//! Deterministic async execution of per-request service bodies.
//!
//! The paper's TACC programming model composes services from worker
//! modules; our front ends were hand-written state machines whose
//! control flow (timeouts, retries, multi-stage waits) was smeared
//! across `on_event` match arms. This module re-expresses that control
//! flow as `async fn` bodies ([`service::AsyncService`]) with the
//! **same futures** running under virtual time in the sim front end
//! and under wall-clock threads in `sns-rt`:
//!
//! * [`service::SvcHandle`] — everything a body may do. Each awaited
//!   operation (dispatch, compute, [`service::SvcHandle::nap`]) is a
//!   token its driver fills; a nap is the only timer a body has, and
//!   the driver decides what time it runs on (engine timers in the sim,
//!   deadlines on the rt completion-queue wait).
//! * [`timeout`] / [`race`] / [`select_some`] — give-up, hedged-retry
//!   and fan-in combinators over any futures, naps included; the loser
//!   of a race is dropped, which releases its nap's token.
//! * [`Executor`] — a std-only single-threaded task queue. Wakers are
//!   built with the std `Wake` adapter (the safe face of `RawWaker`);
//!   woken tasks are polled strictly in wake order, so task scheduling
//!   is a pure function of the event order that produced the wakes.
//!
//! The sim [`crate::frontend::FrontEnd`] hosts bodies directly; the rt
//! driver (`sns_rt::exec::serve`) runs one on an [`Executor`] (see
//! `DESIGN.md` §6i).

pub mod service;

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

/// A boxed task body: the unit the executor polls.
pub type BoxFut<T = ()> = Pin<Box<dyn Future<Output = T> + Send>>;

// ---------------------------------------------------------------------------
// Combinators: race (hedged retry) and timeout (give-up).
// ---------------------------------------------------------------------------

/// Which side of a [`race`] won.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Either<A, B> {
    /// The first future finished first.
    Left(A),
    /// The second future finished first.
    Right(B),
}

/// Future returned by [`race`].
#[derive(Debug)]
pub struct Race<A, B> {
    a: Option<A>,
    b: Option<B>,
}

/// Polls `a` then `b`; the first to finish wins and the **loser is
/// dropped immediately** — releasing the tokens of its naps and
/// dispatches. Poll order is fixed (a before b) so ties are
/// deterministic.
pub fn race<A, B>(a: A, b: B) -> Race<A, B>
where
    A: Future + Unpin,
    B: Future + Unpin,
{
    Race {
        a: Some(a),
        b: Some(b),
    }
}

impl<A, B> Future for Race<A, B>
where
    A: Future + Unpin,
    B: Future + Unpin,
{
    type Output = Either<A::Output, B::Output>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if let Some(a) = this.a.as_mut() {
            if let Poll::Ready(v) = Pin::new(a).poll(cx) {
                this.a = None;
                this.b = None; // drop the loser: cancellation
                return Poll::Ready(Either::Left(v));
            }
        }
        if let Some(b) = this.b.as_mut() {
            if let Poll::Ready(v) = Pin::new(b).poll(cx) {
                this.b = None;
                this.a = None;
                return Poll::Ready(Either::Right(v));
            }
        }
        Poll::Pending
    }
}

/// Future returned by [`timeout`].
#[derive(Debug)]
pub struct Timeout<F, D> {
    inner: Race<F, D>,
}

/// Runs `f` with a give-up deadline: `Some(output)` if `f` finishes
/// first, `None` if `deadline` (any future — usually a framework nap)
/// fires first. On timeout `f` is dropped, cancelling whatever it was
/// waiting on.
pub fn timeout<F, D>(f: F, deadline: D) -> Timeout<F, D>
where
    F: Future + Unpin,
    D: Future + Unpin,
{
    Timeout {
        inner: race(f, deadline),
    }
}

impl<F, D> Future for Timeout<F, D>
where
    F: Future + Unpin,
    D: Future + Unpin,
{
    type Output = Option<F::Output>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        match Pin::new(&mut self.get_mut().inner).poll(cx) {
            Poll::Ready(Either::Left(v)) => Poll::Ready(Some(v)),
            Poll::Ready(Either::Right(_)) => Poll::Ready(None),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Future returned by [`select_some`]: resolves with the index and
/// output of the first remaining future to finish, leaving the others
/// in place. Polls in index order, so simultaneous completions resolve
/// lowest-index first — deterministically.
#[derive(Debug)]
pub struct SelectSome<'a, F> {
    futs: &'a mut Vec<Option<F>>,
}

/// Awaits the next completion among `futs` (aggregation fan-in:
/// "process source fetches in arrival order"). Panics if every slot is
/// `None` — callers track how many remain.
pub fn select_some<F>(futs: &mut Vec<Option<F>>) -> SelectSome<'_, F>
where
    F: Future + Unpin,
{
    assert!(
        futs.iter().any(Option::is_some),
        "select_some over an empty set"
    );
    SelectSome { futs }
}

impl<F> Future for SelectSome<'_, F>
where
    F: Future + Unpin,
{
    type Output = (usize, F::Output);
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        for (i, slot) in this.futs.iter_mut().enumerate() {
            if let Some(f) = slot.as_mut() {
                if let Poll::Ready(v) = Pin::new(f).poll(cx) {
                    *slot = None;
                    return Poll::Ready((i, v));
                }
            }
        }
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// Executor: single-threaded deterministic task queue.
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct ReadyInner {
    queue: VecDeque<u64>,
    queued: BTreeSet<u64>,
}

/// The wake queue shared by every task waker of one [`Executor`]:
/// FIFO in wake order with duplicate suppression.
#[derive(Debug, Default)]
struct ReadyQueue {
    inner: Mutex<ReadyInner>,
}

impl ReadyQueue {
    fn push(&self, id: u64) {
        let mut inner = self.inner.lock().expect("ready queue poisoned");
        if inner.queued.insert(id) {
            inner.queue.push_back(id);
        }
    }

    fn pop(&self) -> Option<u64> {
        let mut inner = self.inner.lock().expect("ready queue poisoned");
        let id = inner.queue.pop_front()?;
        inner.queued.remove(&id);
        Some(id)
    }
}

/// One task's waker target: pushes its id onto the shared queue. The
/// std `Wake` adapter turns this into a `RawWaker` without any unsafe
/// code of our own.
#[derive(Debug)]
struct TaskWaker {
    id: u64,
    ready: Arc<ReadyQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready.push(self.id);
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.ready.push(self.id);
    }
}

/// A std-only, single-threaded, deterministic executor: tasks are
/// polled strictly in the order their wakes arrived. Drivers decide
/// *when* to run (the rt driver after each completion-queue wake-up);
/// the executor only decides *what*, and that decision is a pure
/// function of wake order.
pub struct Executor {
    tasks: BTreeMap<u64, BoxFut>,
    next_task: u64,
    ready: Arc<ReadyQueue>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("tasks", &self.tasks.keys().collect::<Vec<_>>())
            .field("next_task", &self.next_task)
            .finish_non_exhaustive()
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new()
    }
}

impl Executor {
    /// An empty executor.
    pub fn new() -> Self {
        Executor {
            tasks: BTreeMap::new(),
            next_task: 1,
            ready: Arc::new(ReadyQueue::default()),
        }
    }

    /// Spawns a task; it is immediately woken (polled on the next
    /// [`Executor::run_ready`]). Returns its id.
    pub fn spawn(&mut self, fut: BoxFut) -> u64 {
        let id = self.next_task;
        self.next_task += 1;
        self.tasks.insert(id, fut);
        self.ready.push(id);
        id
    }

    /// Whether `id` is still live (spawned, not finished).
    pub fn is_live(&self, id: u64) -> bool {
        self.tasks.contains_key(&id)
    }

    /// Polls woken tasks in wake order until the queue drains; tasks
    /// woken *during* a poll run in the same call, after everything
    /// already queued. Returns the ids of tasks that finished.
    pub fn run_ready(&mut self) -> Vec<u64> {
        let mut finished = Vec::new();
        // Bound: a task that wakes itself in a hot loop cannot starve
        // the driver forever (it would break sim determinism anyway —
        // debug builds make the bug loud).
        let mut budget = 65_536u32;
        while let Some(id) = self.ready.pop() {
            let Some(fut) = self.tasks.get_mut(&id) else {
                continue; // finished after the wake
            };
            let waker = Waker::from(Arc::new(TaskWaker {
                id,
                ready: Arc::clone(&self.ready),
            }));
            let mut cx = Context::from_waker(&waker);
            if fut.as_mut().poll(&mut cx).is_ready() {
                self.tasks.remove(&id);
                finished.push(id);
            }
            budget -= 1;
            if budget == 0 {
                debug_assert!(false, "executor wake loop exceeded its budget");
                break;
            }
        }
        finished
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::service::{EventOutcome, SvcHandle, SvcOp};
    use super::*;
    use crate::frontend::Action;

    /// The tokens of the naps `svc` queued since the last call, in
    /// emission order — what a driver would arm as timers.
    fn armed_naps(svc: &SvcHandle) -> Vec<u64> {
        let mut ops = Vec::new();
        svc.take_ops(&mut ops);
        ops.into_iter()
            .filter_map(|op| match op {
                SvcOp::Act(Action::Nap { tag, .. }) => Some(tag),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn run_ready_polls_in_wake_order_not_task_order() {
        let mut ex = Executor::new();
        let svc = SvcHandle::new_request();
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3u64 {
            let nap = svc.nap(Duration::ZERO);
            let log = Arc::clone(&order);
            ex.spawn(Box::pin(async move {
                nap.await;
                log.lock().unwrap().push(i);
            }));
        }
        ex.run_ready(); // all park on their naps
        let naps = armed_naps(&svc);
        // Wake 2, then 0, then 1: poll order must follow the wakes.
        for i in [2, 0, 1] {
            assert!(svc.fill(naps[i], EventOutcome::Done));
        }
        let finished = ex.run_ready();
        assert_eq!(*order.lock().unwrap(), vec![2, 0, 1]);
        assert_eq!(finished.len(), 3);
    }

    #[test]
    fn race_drops_the_loser_and_timeout_cancels_the_body() {
        // Hedge: the fast branch wins, the slow branch's nap is
        // released on drop.
        let svc = SvcHandle::new_request();
        let fast = svc.nap(Duration::from_millis(5));
        let slow = svc.nap(Duration::from_millis(50));
        let mut ex = Executor::new();
        let won = Arc::new(Mutex::new(None));
        let w = Arc::clone(&won);
        ex.spawn(Box::pin(async move {
            let r = race(fast, slow).await;
            *w.lock().unwrap() = Some(matches!(r, Either::Left(_)));
        }));
        ex.run_ready();
        let naps = armed_naps(&svc);
        assert_eq!(naps.len(), 2);
        assert!(svc.fill(naps[0], EventOutcome::Done));
        ex.run_ready();
        assert_eq!(*won.lock().unwrap(), Some(true));
        assert!(
            !svc.fill(naps[1], EventOutcome::Done),
            "the loser's nap pops into nothing"
        );

        // Timeout: the deadline fires first, the body is dropped.
        let body = svc.nap(Duration::from_secs(60));
        let deadline = svc.nap(Duration::from_millis(7));
        let out = Arc::new(Mutex::new(Some(true)));
        let o = Arc::clone(&out);
        ex.spawn(Box::pin(async move {
            let r = timeout(body, deadline).await;
            *o.lock().unwrap() = r.map(|_| true);
        }));
        ex.run_ready();
        let naps = armed_naps(&svc);
        assert_eq!(naps.len(), 2);
        assert!(svc.fill(naps[1], EventOutcome::Done));
        ex.run_ready();
        assert_eq!(*out.lock().unwrap(), None, "timed out");
        assert!(!svc.fill(naps[0], EventOutcome::Done), "body released");
    }

    #[test]
    fn select_some_resolves_in_completion_order() {
        let mut ex = Executor::new();
        let svc = SvcHandle::new_request();
        let mut futs = vec![
            Some(svc.nap(Duration::from_millis(10))),
            Some(svc.nap(Duration::from_millis(20))),
        ];
        let order = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&order);
        ex.spawn(Box::pin(async move {
            while futs.iter().any(Option::is_some) {
                let (i, _) = select_some(&mut futs).await;
                log.lock().unwrap().push(i);
            }
        }));
        ex.run_ready();
        let naps = armed_naps(&svc);
        assert!(svc.fill(naps[1], EventOutcome::Done));
        ex.run_ready();
        assert!(svc.fill(naps[0], EventOutcome::Done));
        ex.run_ready();
        assert_eq!(*order.lock().unwrap(), vec![1, 0]);
    }
}
