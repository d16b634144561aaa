//! Whole-component async bodies: the engine's "async component" kind.
//!
//! An [`AsyncComponent`] wraps one async body plus a private
//! [`Executor`] and adapts them to the legacy engine `Component`
//! trait. The engine keeps dispatching events exactly as before; the
//! adapter translates them (message → mailbox push, timer pop →
//! [`TimerHub::fire`]) and runs the executor, so every task wake-up is
//! keyed to an engine event and pops in seq order off the engine's
//! timer wheel. After each run, newly armed sleeps drain
//! into engine timers and queued sends drain into `ctx.send` — in
//! emission order. Determinism therefore survives by construction:
//! the body's effects are a pure function of the engine's (already
//! bit-stable) event order.
//!
//! The rt driver (`sns_rt::exec::serve`) polls the *same* futures
//! with a [`super::WallClock`], blocking on its per-call completion
//! queue between polls.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use sns_sim::engine::{Component, Ctx};
use sns_sim::time::SimTime;
use sns_sim::ComponentId;

use super::{
    mailbox, sleep, BoxFut, Executor, Mailbox, MailboxSender, Sleep, TimerHub, VirtualClock,
};

/// A queued effect of an async body, drained to the engine after each
/// executor run.
#[derive(Debug)]
enum AcOp<M> {
    Send(ComponentId, M),
    Incr(&'static str, u64),
    Observe(&'static str, f64),
}

/// The body's capability handle: the clock, sleeps, sends and stats.
/// Receiving happens on the [`Mailbox`] passed to the body.
#[derive(Debug)]
pub struct AcHandle<M> {
    clock: Arc<VirtualClock>,
    hub: Arc<TimerHub>,
    ops: Arc<Mutex<Vec<AcOp<M>>>>,
}

impl<M> Clone for AcHandle<M> {
    fn clone(&self) -> Self {
        AcHandle {
            clock: Arc::clone(&self.clock),
            hub: Arc::clone(&self.hub),
            ops: Arc::clone(&self.ops),
        }
    }
}

impl<M> AcHandle<M> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        use super::Clock as _;
        self.clock.now()
    }

    /// The timer hub (for composing sleeps into `timeout`/`race`).
    pub fn hub(&self) -> &Arc<TimerHub> {
        &self.hub
    }

    /// Sleeps for `d` of virtual time.
    pub fn sleep(&self, d: Duration) -> Sleep {
        sleep(&self.hub, d)
    }

    /// Sends a message (delivered over the modelled network, in
    /// emission order).
    pub fn send(&self, to: ComponentId, msg: M) {
        self.ops
            .lock()
            .expect("async component ops poisoned")
            .push(AcOp::Send(to, msg));
    }

    /// Counts into the shared stats hub.
    pub fn incr(&self, key: &'static str, n: u64) {
        self.ops
            .lock()
            .expect("async component ops poisoned")
            .push(AcOp::Incr(key, n));
    }

    /// Samples into the shared stats hub.
    pub fn observe(&self, key: &'static str, v: f64) {
        self.ops
            .lock()
            .expect("async component ops poisoned")
            .push(AcOp::Observe(key, v));
    }
}

/// Builds the root task from its inbox and capability handle.
pub type AcBody<M> = Box<dyn FnOnce(Mailbox<(ComponentId, M)>, AcHandle<M>) -> BoxFut + Send>;

/// A body waiting for `on_start`, paired with the inbox it will own.
type PendingBody<M> = (Mailbox<(ComponentId, M)>, AcBody<M>);

/// An engine component whose behaviour is one async body (plus any
/// tasks it spawns on its private executor — all woken in engine event
/// order).
pub struct AsyncComponent<M> {
    kind: &'static str,
    clock: Arc<VirtualClock>,
    hub: Arc<TimerHub>,
    executor: Executor,
    inbox_tx: MailboxSender<(ComponentId, M)>,
    body: Option<PendingBody<M>>,
    handle: AcHandle<M>,
    exit_when_done: bool,
}

impl<M: Send + 'static> AsyncComponent<M> {
    /// Creates a component around `body`. `kind` is the engine kind
    /// tag harnesses query by.
    pub fn new(kind: &'static str, body: AcBody<M>) -> Self {
        let clock = VirtualClock::new();
        let hub = TimerHub::new(clock.clone() as Arc<dyn super::Clock>);
        let (inbox_tx, inbox) = mailbox();
        let handle = AcHandle {
            clock: Arc::clone(&clock),
            hub: Arc::clone(&hub),
            ops: Arc::new(Mutex::new(Vec::new())),
        };
        AsyncComponent {
            kind,
            clock,
            hub,
            executor: Executor::new(),
            inbox_tx,
            body: Some((inbox, body)),
            handle,
            exit_when_done: false,
        }
    }

    /// Exits the component when its root body (and every spawned task)
    /// finishes, instead of lingering.
    pub fn exit_when_done(mut self) -> Self {
        self.exit_when_done = true;
        self
    }

    /// Runs woken tasks, then drains sleeps into engine timers and
    /// sends/stats into the engine context — in emission order.
    fn run(&mut self, ctx: &mut Ctx<'_, M>) {
        self.clock.set(ctx.now());
        self.executor.run_ready();
        for (id, deadline) in self.hub.drain_armed() {
            ctx.timer(deadline.since(ctx.now()), id);
        }
        for op in self
            .handle
            .ops
            .lock()
            .expect("async component ops poisoned")
            .drain(..)
        {
            match op {
                AcOp::Send(to, msg) => ctx.send(to, msg),
                AcOp::Incr(key, n) => ctx.stats().incr(key, n),
                AcOp::Observe(key, v) => ctx.stats().observe(key, v),
            }
        }
        if self.exit_when_done && self.executor.is_empty() {
            ctx.exit();
        }
    }
}

impl<M: Send + 'static> Component<M> for AsyncComponent<M> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        let (inbox, body) = self.body.take().expect("async component started twice");
        let fut = body(inbox, self.handle.clone());
        self.executor.spawn(fut);
        self.run(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: ComponentId, msg: M) {
        self.inbox_tx.send((from, msg));
        self.run(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, token: u64) {
        // A cancelled sleep's engine timer pops into nothing: fire()
        // is a tombstoned no-op then, and no task wakes.
        self.hub.fire(token);
        self.run(ctx);
    }

    fn kind(&self) -> &'static str {
        self.kind
    }
}
