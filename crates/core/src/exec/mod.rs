//! Deterministic async execution over virtual or wall-clock time.
//!
//! The paper's TACC programming model composes services from worker
//! modules; our components were hand-written state machines whose
//! control flow (timeouts, retries, multi-stage waits) was smeared
//! across `on_event` match arms. This module re-expresses that control
//! flow as `async fn` bodies polled by a deterministic executor — with
//! the **same futures** running under virtual time in the sim and under
//! wall-clock threads in `sns-rt`:
//!
//! * [`Clock`] — the virtual/wall split. [`VirtualClock`] is advanced
//!   by whoever drives the executor (the sim driver sets it to
//!   `ctx.now()` before every poll); [`WallClock`] reads a monotonic
//!   `Instant` origin.
//! * [`TimerHub`] — the timer table behind [`sleep`]. Arming records a
//!   deadline; the sim driver drains newly armed timers into engine
//!   timers (so sleeps pop in seq order off the engine's timer wheel —
//!   determinism comes from the engine, not from here).
//! * [`Mailbox`] — a typed inbox with an async [`Mailbox::recv`].
//! * [`timeout`] / [`race`] — give-up and hedged-retry combinators;
//!   the loser of a race is dropped, which cancels its timers.
//! * [`Executor`] — a std-only single-threaded task queue. Wakers are
//!   built with the std `Wake` adapter (the safe face of `RawWaker`);
//!   woken tasks are polled strictly in wake order, so task scheduling
//!   is a pure function of the event order that produced the wakes.
//!
//! Bodies come in two shapes: [`component::AsyncComponent`] runs a
//! whole async body as an engine `Component`, and a
//! [`service::AsyncService`] writes one body per request, which the
//! [`crate::frontend::FrontEnd`] hosts directly (see `DESIGN.md` §6i).

pub mod component;
pub mod service;

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use sns_sim::time::SimTime;

/// A boxed task body: the unit the executor polls.
pub type BoxFut<T = ()> = Pin<Box<dyn Future<Output = T> + Send>>;

// ---------------------------------------------------------------------------
// Clock: the SimTime / wall-clock split.
// ---------------------------------------------------------------------------

/// A monotonic time source read by sleeps and bodies. The same future
/// works under either implementation — that is the whole point.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Current time on this clock's axis.
    fn now(&self) -> SimTime;
}

/// Virtual time: advanced explicitly by the driver (the sim adapter
/// sets it to `ctx.now()` before each poll). Stored as atomic
/// nanoseconds so clock reads never block.
#[derive(Debug, Default)]
pub struct VirtualClock {
    nanos: AtomicU64,
}

impl VirtualClock {
    /// A clock at t = 0.
    pub fn new() -> Arc<Self> {
        Arc::new(VirtualClock::default())
    }

    /// Advances (or rewinds — drivers never do) to `t`.
    pub fn set(&self, t: SimTime) {
        self.nanos.store(t.as_nanos(), Ordering::Relaxed);
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.nanos.load(Ordering::Relaxed))
    }
}

/// Wall-clock time as nanoseconds since the clock's creation; the rt
/// driver's axis (matching its `SimTime`-since-start convention).
#[derive(Debug)]
pub struct WallClock {
    origin: std::time::Instant,
}

impl WallClock {
    /// A clock whose zero is now.
    pub fn new() -> Arc<Self> {
        Arc::new(WallClock {
            origin: std::time::Instant::now(),
        })
    }
}

impl Clock for WallClock {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.origin.elapsed().as_nanos() as u64)
    }
}

// ---------------------------------------------------------------------------
// TimerHub + sleep.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct TimerSlot {
    fired: bool,
    waker: Option<Waker>,
}

#[derive(Debug, Default)]
struct TimerInner {
    next_id: u64,
    slots: BTreeMap<u64, TimerSlot>,
    /// Timers armed since the last [`TimerHub::drain_armed`]: the sim
    /// adapter turns these into engine timers (token = timer id).
    newly_armed: Vec<(u64, SimTime)>,
}

/// The timer table shared by every [`Sleep`] of one executor domain:
/// the driver fires ids when its own timers (engine timers in the sim
/// adapter) pop.
#[derive(Debug)]
pub struct TimerHub {
    clock: Arc<dyn Clock>,
    inner: Mutex<TimerInner>,
}

impl TimerHub {
    /// A hub reading deadlines off `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Arc<Self> {
        Arc::new(TimerHub {
            clock,
            inner: Mutex::new(TimerInner::default()),
        })
    }

    /// The hub's clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    fn arm(&self, delay: Duration) -> u64 {
        let deadline = self.clock.now().saturating_add(delay);
        let mut inner = self.inner.lock().expect("timer hub poisoned");
        let id = inner.next_id;
        inner.next_id += 1;
        inner.slots.insert(
            id,
            TimerSlot {
                fired: false,
                waker: None,
            },
        );
        inner.newly_armed.push((id, deadline));
        id
    }

    /// Takes the timers armed since the last drain, as
    /// `(id, deadline)`. The sim adapter converts each into an engine
    /// timer whose token is the id.
    pub fn drain_armed(&self) -> Vec<(u64, SimTime)> {
        std::mem::take(&mut self.inner.lock().expect("timer hub poisoned").newly_armed)
    }

    /// Fires timer `id` (the engine timer with this token popped).
    /// Returns false for cancelled/unknown ids — a dropped [`Sleep`]
    /// leaves its engine timer to pop into nothing.
    pub fn fire(&self, id: u64) -> bool {
        let waker = {
            let mut inner = self.inner.lock().expect("timer hub poisoned");
            let Some(slot) = inner.slots.get_mut(&id) else {
                return false;
            };
            slot.fired = true;
            slot.waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
        true
    }

    /// Un-fired timers currently armed.
    pub fn pending(&self) -> usize {
        let inner = self.inner.lock().expect("timer hub poisoned");
        inner.slots.values().filter(|s| !s.fired).count()
    }
}

/// Sleeps for a duration on the hub's clock. Armed on creation;
/// dropping it cancels the timer (the combinator-cancellation path:
/// a [`race`] loser's sleep never fires its continuation).
#[derive(Debug)]
pub struct Sleep {
    hub: Arc<TimerHub>,
    id: u64,
}

/// Starts a sleep of `d` on `hub`'s clock.
pub fn sleep(hub: &Arc<TimerHub>, d: Duration) -> Sleep {
    Sleep {
        hub: Arc::clone(hub),
        id: hub.arm(d),
    }
}

impl Future for Sleep {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut inner = self.hub.inner.lock().expect("timer hub poisoned");
        match inner.slots.get_mut(&self.id) {
            None => Poll::Ready(()), // already fired + reaped
            Some(slot) if slot.fired => {
                inner.slots.remove(&self.id);
                Poll::Ready(())
            }
            Some(slot) => {
                slot.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Ok(mut inner) = self.hub.inner.lock() {
            inner.slots.remove(&self.id);
        }
    }
}

// ---------------------------------------------------------------------------
// Mailbox: typed inbox with an async recv.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct MailboxInner<T> {
    queue: VecDeque<T>,
    waker: Option<Waker>,
    closed: bool,
}

/// The receiving end of a typed inbox. One consumer: the most recent
/// `recv` waker wins (our drivers poll one body per mailbox).
#[derive(Debug)]
pub struct Mailbox<T> {
    inner: Arc<Mutex<MailboxInner<T>>>,
}

/// The sending end; cloneable across threads.
#[derive(Debug)]
pub struct MailboxSender<T> {
    inner: Arc<Mutex<MailboxInner<T>>>,
}

impl<T> Clone for MailboxSender<T> {
    fn clone(&self) -> Self {
        MailboxSender {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Creates a connected sender/receiver pair.
pub fn mailbox<T>() -> (MailboxSender<T>, Mailbox<T>) {
    let inner = Arc::new(Mutex::new(MailboxInner {
        queue: VecDeque::new(),
        waker: None,
        closed: false,
    }));
    (
        MailboxSender {
            inner: Arc::clone(&inner),
        },
        Mailbox { inner },
    )
}

impl<T> MailboxSender<T> {
    /// Enqueues a value and wakes the receiver.
    pub fn send(&self, value: T) {
        let waker = {
            let mut inner = self.inner.lock().expect("mailbox poisoned");
            inner.queue.push_back(value);
            inner.waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
    }

    /// Closes the mailbox: pending `recv`s drain the queue then yield
    /// `None`.
    pub fn close(&self) {
        let waker = {
            let mut inner = self.inner.lock().expect("mailbox poisoned");
            inner.closed = true;
            inner.waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
    }
}

impl<T> Mailbox<T> {
    /// Receives the next value; `None` once closed and drained.
    pub fn recv(&self) -> Recv<T> {
        Recv {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Queued values not yet received.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("mailbox poisoned").queue.len()
    }

    /// Whether no values are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Future returned by [`Mailbox::recv`].
#[derive(Debug)]
pub struct Recv<T> {
    inner: Arc<Mutex<MailboxInner<T>>>,
}

impl<T> Future for Recv<T> {
    type Output = Option<T>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut inner = self.inner.lock().expect("mailbox poisoned");
        if let Some(v) = inner.queue.pop_front() {
            return Poll::Ready(Some(v));
        }
        if inner.closed {
            return Poll::Ready(None);
        }
        inner.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

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
/// dropped immediately** — cancelling its sleeps and releasing its
/// slots. Poll order is fixed (a before b) so ties are deterministic.
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
/// first, `None` if `deadline` (any future — usually a [`sleep`] or a
/// framework nap) fires first. On timeout `f` is dropped, cancelling
/// whatever it was waiting on.
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
/// *when* to run (the sim adapter after each engine event; the rt
/// driver after each completion-queue wake-up); the executor only
/// decides *what*, and
/// that decision is a pure function of wake order.
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

    /// Drops a task without polling it again (cancellation).
    pub fn cancel(&mut self, id: u64) {
        self.tasks.remove(&id);
    }

    /// Whether `id` is still live (spawned, not finished/cancelled).
    pub fn is_live(&self, id: u64) -> bool {
        self.tasks.contains_key(&id)
    }

    /// Live tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether no tasks are live.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
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
                continue; // finished or cancelled after the wake
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
    use super::*;

    #[test]
    fn virtual_clock_is_explicit_and_wall_clock_monotonic() {
        let vc = VirtualClock::new();
        assert_eq!(vc.now(), SimTime::ZERO);
        vc.set(SimTime::from_millis(250));
        assert_eq!(vc.now(), SimTime::from_millis(250));
        let wc = WallClock::new();
        let a = wc.now();
        let b = wc.now();
        assert!(b >= a);
    }

    #[test]
    fn sleep_arms_fires_and_cancels_through_the_hub() {
        let clock = VirtualClock::new();
        let hub = TimerHub::new(clock.clone());
        let mut ex = Executor::new();
        let done = Arc::new(Mutex::new(false));
        let flag = Arc::clone(&done);
        let s = sleep(&hub, Duration::from_millis(10));
        ex.spawn(Box::pin(async move {
            s.await;
            *flag.lock().unwrap() = true;
        }));
        ex.run_ready();
        let armed = hub.drain_armed();
        assert_eq!(armed.len(), 1);
        assert_eq!(armed[0].1, SimTime::from_millis(10));
        assert!(!*done.lock().unwrap());
        clock.set(SimTime::from_millis(10));
        assert!(hub.fire(armed[0].0));
        ex.run_ready();
        assert!(*done.lock().unwrap());
        // A second fire of the same id is a tombstone.
        assert!(!hub.fire(armed[0].0));
    }

    #[test]
    fn mailbox_recv_wakes_in_send_order_and_drains_on_close() {
        let (tx, rx) = mailbox::<u32>();
        let got = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&got);
        let mut ex = Executor::new();
        ex.spawn(Box::pin(async move {
            while let Some(v) = rx.recv().await {
                sink.lock().unwrap().push(v);
            }
            sink.lock().unwrap().push(999);
        }));
        ex.run_ready();
        tx.send(1);
        tx.send(2);
        ex.run_ready();
        tx.send(3);
        tx.close();
        ex.run_ready();
        assert_eq!(*got.lock().unwrap(), vec![1, 2, 3, 999]);
    }

    #[test]
    fn run_ready_polls_in_wake_order_not_task_order() {
        let mut ex = Executor::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut boxes = Vec::new();
        let mut txs = Vec::new();
        for i in 0..3u64 {
            let (tx, rx) = mailbox::<()>();
            txs.push(tx);
            let log = Arc::clone(&order);
            boxes.push(Box::pin(async move {
                rx.recv().await;
                log.lock().unwrap().push(i);
            }) as BoxFut);
        }
        for b in boxes {
            ex.spawn(b);
        }
        ex.run_ready(); // all park on their mailboxes
                        // Wake 2, then 0, then 1: poll order must follow the wakes.
        txs[2].send(());
        txs[0].send(());
        txs[1].send(());
        let finished = ex.run_ready();
        assert_eq!(*order.lock().unwrap(), vec![2, 0, 1]);
        assert_eq!(finished.len(), 3);
        assert!(ex.is_empty());
    }

    #[test]
    fn race_drops_the_loser_and_timeout_cancels_the_body() {
        let clock = VirtualClock::new();
        let hub = TimerHub::new(clock.clone());
        // Hedge: the fast branch wins, the slow branch's sleep is
        // cancelled (hub pending count returns to zero).
        let fast = sleep(&hub, Duration::from_millis(5));
        let slow = sleep(&hub, Duration::from_millis(50));
        let mut ex = Executor::new();
        let won = Arc::new(Mutex::new(None));
        let w = Arc::clone(&won);
        ex.spawn(Box::pin(async move {
            let r = race(fast, slow).await;
            *w.lock().unwrap() = Some(matches!(r, Either::Left(())));
        }));
        ex.run_ready();
        let armed = hub.drain_armed();
        assert_eq!(armed.len(), 2);
        clock.set(SimTime::from_millis(5));
        hub.fire(armed[0].0);
        ex.run_ready();
        assert_eq!(*won.lock().unwrap(), Some(true));
        assert_eq!(hub.pending(), 0, "loser's sleep cancelled on drop");
        assert!(
            !hub.fire(armed[1].0),
            "stale engine timer pops into nothing"
        );

        // Timeout: the deadline fires first, the body is dropped.
        let (_tx, rx) = mailbox::<u32>(); // never sent: body blocks forever
        let deadline = sleep(&hub, Duration::from_millis(7));
        let out = Arc::new(Mutex::new(Some(Some(0u32))));
        let o = Arc::clone(&out);
        ex.spawn(Box::pin(async move {
            let r = timeout(rx.recv(), deadline).await;
            *o.lock().unwrap() = r;
        }));
        ex.run_ready();
        let armed = hub.drain_armed();
        assert_eq!(armed.len(), 1);
        clock.set(SimTime::from_millis(12));
        hub.fire(armed[0].0);
        ex.run_ready();
        assert_eq!(*out.lock().unwrap(), None, "timed out");
    }

    #[test]
    fn select_some_resolves_in_completion_order() {
        let mut ex = Executor::new();
        let (txa, rxa) = mailbox::<u32>();
        let (txb, rxb) = mailbox::<u32>();
        let order = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&order);
        ex.spawn(Box::pin(async move {
            let mut futs = vec![Some(rxa.recv()), Some(rxb.recv())];
            while futs.iter().any(Option::is_some) {
                let (i, v) = select_some(&mut futs).await;
                log.lock().unwrap().push((i, v.unwrap()));
            }
        }));
        ex.run_ready();
        txb.send(20);
        ex.run_ready();
        txa.send(10);
        ex.run_ready();
        assert_eq!(*order.lock().unwrap(), vec![(1, 20), (0, 10)]);
    }
}
