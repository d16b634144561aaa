//! # sns-rt — the real multi-threaded runtime
//!
//! The simulator in `sns-sim` runs the architecture over virtual time;
//! this crate runs the *same worker code* (`sns_core::WorkerLogic`
//! implementations — TACC distillers, cache partitions, anything) as
//! actual OS threads connected by channels, demonstrating that the
//! component abstractions are not simulation artifacts. It is the
//! paper's "simple matter of software" claim made literal: the SNS
//! mechanics — registration beacons, queue-length load reports,
//! membership from slightly stale hints, crash detection and
//! process-peer restart — reappear here over plain `std::sync`
//! primitives instead of the simulated SAN. One mechanic does not
//! carry over: the paper's stub draws a lottery because its load
//! information is a beacon old, while these stubs share an address
//! space with the workers, so each job goes to the hinted worker whose
//! *live* queue gauge is lowest ([`sns_core::LiveLoad`], DESIGN.md
//! §6g). Worker inboxes use the in-repo [`chan`] MPMC shim (a clonable
//! receiver lets the manager salvage a crashed worker's queue for
//! redispatch); a reply goes to one `std::sync::mpsc` one-shot channel
//! per [`RtCluster::submit`], or to a caller-owned [`Completions`]
//! queue shared by many jobs ([`RtCluster::submit_tagged`], what
//! [`exec::serve`] blocks on).
//!
//! Every scheduling and respawn *decision* is made by the sans-IO
//! control plane shared with the simulator
//! ([`sns_core::ControlPlane`] for the manager half,
//! [`sns_core::DispatchPlane`] for the submit path): this crate only
//! feeds those machines wall-clock timestamps, load reports and death
//! notices, and maps the returned effect lists onto threads and
//! channels. The simulator and this runtime therefore cannot drift —
//! they *are* the same policy code, which the
//! `control_plane_parity` differential test pins down.
//!
//! ## Lock topology
//!
//! The submit path never takes a global lock. Dispatch state lives in a
//! [`sns_core::ShardedDispatch`] — N independent
//! [`DispatchPlane`](sns_core::control::DispatchPlane)
//! shards, each behind its own mutex, with job-id spaces strided so a
//! response routes back to its shard arithmetically. Control state
//! (policy, membership, spawn decisions) stays behind a single mutex
//! that only the manager thread and fault injectors touch; worker
//! lookup is a read-mostly `RwLock` routing table. The lock order is
//! `control → shard → routes` and no path ever acquires two shard
//! locks at once (see DESIGN.md §6g).
//!
//! Scope: this is the laptop-scale runtime for examples and tests, not a
//! distributed deployment; "nodes" are threads and the SAN is a channel
//! fabric. A job's modelled service time (scaled by
//! [`RtConfig::time_scale`], so tests stay fast) is a *deadline* on the
//! simulator's single-server timeline: service starts when the job
//! reaches a free worker (`max(arrival, free_at)`, not when the thread
//! wakes up to it), the worker runs the logic's real `process` inside
//! it, and the job occupies its worker for `max(service, real work)`.
//! A job whose work ends early is settled at its deadline on time
//! rather than after the kernel's timer slack, and the worker just
//! sleeps until it is free again. A completion queue holds the
//! settlement until the deadline and its waiter settles the job: a
//! [`Completions`] queue the reply goes to, whose waiting front end
//! then needs no cross-thread wake-up, or else the cluster's own queue,
//! whose waiter is the cluster's one deadline thread.
//!
//! ```
//! use sns_rt::{RtCluster, RtConfig};
//! use sns_core::{Blob, Payload, WorkerClass};
//! use sns_core::msg::Job;
//! use sns_core::worker::{WorkerError, WorkerLogic};
//! use sns_sim::rng::Pcg32;
//! use sns_sim::time::SimTime;
//! use std::time::Duration;
//!
//! struct Echo;
//! impl WorkerLogic for Echo {
//!     fn class(&self) -> WorkerClass { "echo".into() }
//!     fn service_time(&mut self, _: &Job, _: SimTime, _: &mut Pcg32) -> Duration {
//!         Duration::from_millis(5)
//!     }
//!     fn process(&mut self, job: &Job, _: SimTime, _: &mut Pcg32)
//!         -> Result<Payload, WorkerError>
//!     {
//!         Ok(Blob::payload(job.input.wire_size() / 2, "echoed"))
//!     }
//! }
//!
//! let cluster = RtCluster::start(RtConfig::new());
//! cluster.add_workers("echo", 2, || Box::new(Echo));
//! let reply = cluster
//!     .submit("echo", "echo", Blob::payload(1000, "hi"), None)
//!     .recv_timeout(Duration::from_secs(5))
//!     .expect("worker answers");
//! assert!(matches!(reply, sns_core::msg::JobResult::Ok(_)));
//! cluster.shutdown();
//! ```

#![warn(missing_docs)]

pub mod chan;
pub mod exec;

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard,
    RwLockWriteGuard, Weak,
};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sns_core::cluster::{Cluster, SettleStats};
use sns_core::control::{
    ClusterView, ControlConfig, ControlEffect, ControlPlane, DispatchEffect, LiveLoad, NodeLoad,
    SpawnPolicy, TimeoutVerdict,
};
use sns_core::invariant::MonitorLog;
use sns_core::monitor::MonitorEvent;
use sns_core::msg::{BeaconData, JobResult, ProfileData};
use sns_core::shard::{DispatchShard, ShardedDispatch};
use sns_core::trace::{self, Sampling, SpanCtx, SpanId, TraceLog, Tracer};
use sns_core::worker::{WorkerError, WorkerLogic};
use sns_core::{Payload, SnsConfig, WorkerClass};
use sns_sim::rng::Pcg32;
use sns_sim::time::SimTime;
use sns_sim::{ComponentId, MetricKey, NodeId};

/// Poison-aware lock: a thread that panicked while holding a lock left
/// consistent-enough state (all invariants here are monotonic counters
/// and maps that tolerate partial updates), so recover the guard instead
/// of unwrapping — but *count* the event so operators and tests can see
/// it happened.
fn lock<'a, T>(m: &'a Mutex<T>, poisoned: &AtomicU64) -> MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(e) => {
            poisoned.fetch_add(1, Ordering::Relaxed);
            e.into_inner()
        }
    }
}

fn read_routes(r: &RwLock<Routes>) -> RwLockReadGuard<'_, Routes> {
    r.read().unwrap_or_else(PoisonError::into_inner)
}

/// How long before a deadline [`sleep_until`] stops sleeping and starts
/// spinning. A Linux sleep ends up to the thread's timer slack (50 µs
/// by default) plus a scheduler wake-up after it was due — for a 1–2 ms
/// sleep on a 2-core VM, ≈70 µs at the median under load and 80–95 µs
/// idle — so sleeping to 100 µs short of the deadline usually wakes
/// before it, and a later wake-up still ends no later than a plain
/// sleep would. Every microsecond of tail is spun on a core another
/// thread may need: a 200 µs tail let spinning workers delay each
/// other's deadlines (`rt_pipeline` service +1.4–2.6 % over
/// configured, against +0.6–0.7 % at 100 µs). A constant rather than
/// `prctl(PR_SET_TIMERSLACK)`: that needs `unsafe` FFI, which the
/// workspace has none of.
const TAIL: Duration = Duration::from_micros(100);

/// Waits until `deadline`, or until `wait` reports that something came
/// in; a completion queue's waiter ([`Queue::recv`]) meets every
/// deadline it knows of with it. `wait(d)` blocks on the queue for at
/// most `d`; it is called with the time left minus [`TAIL`] while that
/// is positive, then with zero in a spin until the deadline passes, so
/// the wait never ends early and ends late only when the sleep itself
/// woke past the deadline. The tail spins rather than calling
/// `yield_now`: on cores saturated by other threads a yield hands the
/// CPU away for a whole scheduler slice (a 2 ms wait then ended
/// ≈1.7 ms late, against ≈85 µs for a plain sleep), while the spin
/// keeps the core its wake-up won for at most `TAIL`.
fn sleep_until(deadline: Instant, mut wait: impl FnMut(Duration) -> bool) -> bool {
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return false;
        }
        if wait(left.saturating_sub(TAIL)) {
            return true;
        }
        if left <= TAIL {
            std::hint::spin_loop();
        }
    }
}

/// Runtime configuration. Build with [`RtConfig::new`] and the fluent
/// `with_*` methods; direct struct construction still works but the
/// builder is the supported surface going forward.
#[derive(Debug, Clone)]
pub struct RtConfig {
    /// Multiplier applied to worker service times (0.01 = run the
    /// cluster 100x faster than the modelled hardware).
    pub time_scale: f64,
    /// Worker load-report period.
    pub report_period: Duration,
    /// Manager hint-publication (beacon) period.
    pub beacon_period: Duration,
    /// RNG seed for worker streams and placement tie-breaks.
    pub seed: u64,
    /// Restart crashed workers (process peers).
    pub restart_on_crash: bool,
    /// Virtual nodes (placement domains for fault injection; threads do
    /// not actually move).
    pub nodes: usize,
    /// Wall-clock backstop for a submitted job before the dispatch plane
    /// is asked to retry or give up. Generous by default: the inline
    /// refusal path already handles dead-worker retries, so this only
    /// fires for jobs stranded with no live worker.
    pub dispatch_timeout: Duration,
    /// Record end-to-end spans (dispatch, queue wait, service) into an
    /// in-memory trace, exportable via [`RtCluster::trace_snapshot`].
    /// Timestamps are wall-clock nanoseconds since cluster start.
    pub tracing: bool,
    /// Dispatch shards (`0` = auto: the machine's available
    /// parallelism, clamped to 2..=16). Each shard is an independent
    /// hint cache + outstanding-job tracker behind its own lock;
    /// submits round-robin across them, so concurrent submitters
    /// contend 1/shards of the time.
    pub shards: usize,
    /// Head-sampling rate when tracing: keep roughly one request in
    /// `trace_sample_rate` (`<= 1` keeps all). The decision stream is
    /// seeded from [`RtConfig::seed`], so the sampled request set
    /// matches the simulator's for the same seed and rate.
    pub trace_sample_rate: u32,
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig {
            time_scale: 0.1,
            report_period: Duration::from_millis(50),
            beacon_period: Duration::from_millis(100),
            seed: 0x517e,
            restart_on_crash: true,
            nodes: 1,
            dispatch_timeout: Duration::from_secs(60),
            tracing: false,
            shards: 0,
            trace_sample_rate: 1,
        }
    }
}

impl RtConfig {
    /// Default configuration; chain `with_*` methods to customise.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the service-time multiplier.
    pub fn with_time_scale(mut self, v: f64) -> Self {
        self.time_scale = v;
        self
    }

    /// Sets the worker load-report period.
    pub fn with_report_period(mut self, v: Duration) -> Self {
        self.report_period = v;
        self
    }

    /// Sets the manager beacon period.
    pub fn with_beacon_period(mut self, v: Duration) -> Self {
        self.beacon_period = v;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, v: u64) -> Self {
        self.seed = v;
        self
    }

    /// Enables/disables process-peer restart of crashed workers.
    pub fn with_restart_on_crash(mut self, v: bool) -> Self {
        self.restart_on_crash = v;
        self
    }

    /// Sets the number of virtual placement nodes.
    pub fn with_nodes(mut self, v: usize) -> Self {
        self.nodes = v;
        self
    }

    /// Enables span tracing.
    pub fn with_tracing(mut self, v: bool) -> Self {
        self.tracing = v;
        self
    }

    /// Sets the dispatch shard count (`0` = auto).
    pub fn with_shards(mut self, v: usize) -> Self {
        self.shards = v;
        self
    }

    /// Sets the head-sampling rate used when tracing (keep ~1 in `v`).
    pub fn with_trace_sampling(mut self, v: u32) -> Self {
        self.trace_sample_rate = v;
        self
    }

    /// The head-sampling policy a cluster built from this config uses:
    /// the configured rate over a decision stream derived from the
    /// cluster seed (the same derivation the sim-side builders use, so
    /// both backends sample the same request set).
    pub fn sampling(&self) -> Sampling {
        Sampling::per(self.trace_sample_rate, self.seed)
    }

    /// The shard count a cluster built from this config will use: the
    /// explicit value (capped at 64), or — when `shards == 0` — the
    /// machine's available parallelism clamped to 2..=16.
    pub fn resolved_shards(&self) -> usize {
        if self.shards == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .clamp(2, 16)
        } else {
            self.shards.min(64)
        }
    }
}

/// Builds fresh worker logic for (re)starts.
pub type RtWorkerFactory = Box<dyn Fn() -> Box<dyn WorkerLogic> + Send + Sync>;

struct RtJob {
    job: sns_core::msg::Job,
    /// When the job entered a worker inbox (queue-wait span start;
    /// survives salvage/redispatch so the wait covers the whole gap).
    enqueued: SimTime,
    /// When the job entered its *current* worker's inbox: the earliest
    /// its service there can start. Restamped when a salvage moves it.
    arrival: Instant,
    /// Its reply goes to a [`Completions`] queue, which then also takes
    /// its settlement when it is served early.
    tagged: bool,
}

/// `at` on the span axis: nanoseconds since the cluster started.
fn span_time(started: Instant, at: Instant) -> SimTime {
    SimTime::from_nanos(at.saturating_duration_since(started).as_nanos() as u64)
}

/// One job's service on one worker, as its span records it.
struct Service {
    job: u64,
    worker: ComponentId,
    class: &'static str,
    /// The job span the service span hangs under; `None` when the job
    /// is not traced.
    parent: Option<SpanId>,
    /// Service start on the span axis.
    start: SimTime,
}

impl Service {
    fn record(&self, tracer: &Tracer, end: SimTime, bytes: u64, ok: bool) {
        if let Some(parent) = self.parent {
            tracer.record(trace::span(
                trace::service_span_id(self.worker, self.job),
                Some(parent),
                trace::SERVICE,
                trace::CAT_WORKER,
                self.worker,
                self.class,
                self.start,
                end,
                bytes,
                ok,
            ));
        }
    }
}

/// A served job waiting for its deadline, held by a completion queue.
struct Posted {
    /// The serving worker's queue gauge, which still counts the job.
    qlen: Arc<AtomicU64>,
    service: Service,
    outcome: Result<Payload, String>,
}

/// What settling a served job takes besides the job itself — the
/// cluster's done counter, its span recorder and, weakly (no `Arc`
/// cycle with the cluster), its dispatch shards — and the cluster's own
/// completion queue. That queue holds the one-shot jobs whose real work
/// ended inside their service, each until its deadline. Its waiter is
/// the cluster's one deadline thread, so at most one thread per cluster
/// spins a [`TAIL`] instead of one per busy worker. A job submitted on
/// a [`Completions`] queue is held by that queue instead
/// ([`Deadlines::hand_off`]) and comes back here only if the queue is
/// dropped with it unsettled.
struct Deadlines {
    queue: Queue,
    jobs_done: Arc<AtomicU64>,
    tracer: Tracer,
    shards: Weak<ShardedDispatch<ShardExt>>,
    started: Instant,
}

impl Deadlines {
    /// Settles a job whose service is over: the worker's gauge drops
    /// first — the job has left it, so a submitter woken by the reply
    /// reads a gauge that no longer counts it — then the service span,
    /// the dispatch shard, the count and the reply. The reply is sent
    /// after the shard lock is released (waking the waiter is the slow
    /// part) and before the spans the plane emits (the closed dispatch
    /// span) go to the tracer. A job that was already settled (gave up,
    /// or answered by the other copy of a retried dispatch) has no
    /// entry, so it is neither counted nor answered again.
    fn settle(
        &self,
        qlen: &AtomicU64,
        service: Service,
        outcome: Result<Payload, String>,
        at: SimTime,
    ) {
        qlen.fetch_sub(1, Ordering::Relaxed);
        let result = match outcome {
            Ok(payload) => {
                service.record(&self.tracer, at, payload.wire_size(), true);
                JobResult::Ok(payload)
            }
            Err(reason) => {
                service.record(&self.tracer, at, 0, false);
                JobResult::Failed(reason)
            }
        };
        let Some(shards) = self.shards.upgrade() else {
            return;
        };
        let mut out = Vec::new();
        let settled = {
            let (_, mut shard) = shards.lock_for(service.job);
            shard.plane.on_response(service.job, at, &mut out);
            shard.ext.outstanding.remove(&service.job)
        };
        if let Some(o) = settled {
            if matches!(result, JobResult::Ok(_)) {
                self.jobs_done.fetch_add(1, Ordering::Relaxed);
            }
            o.reply.deliver(result);
        }
        for effect in out {
            if let DispatchEffect::Span(s) = effect {
                self.tracer.record(s);
            }
        }
    }

    /// Settles a held job now.
    fn settle_held(&self, posted: Posted) {
        let at = span_time(self.started, Instant::now());
        self.settle(&posted.qlen, posted.service, posted.outcome, at);
    }

    /// Holds a settlement in the cluster queue until `deadline`. Once
    /// that queue is closed nobody would meet the deadline, so the job
    /// is settled at once.
    fn hold(self: &Arc<Self>, deadline: Instant, posted: Posted) {
        if let Some(posted) = self.queue.hold(deadline, posted, self) {
            self.settle_held(posted);
        }
    }

    /// Hands a tagged job's settlement to the completion queue its reply
    /// goes to, whose waiter settles it at `deadline`, and marks the
    /// job's entry held so shutdown leaves the answer to that waiter.
    /// The cluster queue holds it instead when the job was already
    /// answered or its queue is gone. The shard lock covers the lookup,
    /// the hand-off and the mark, so a concurrent shutdown sweep sees
    /// either an unheld entry or a held one with its settlement queued.
    fn hand_off(self: &Arc<Self>, deadline: Instant, posted: Posted) {
        let job = posted.service.job;
        let back = match self.shards.upgrade() {
            Some(shards) => {
                let (_, mut shard) = shards.lock_for(job);
                let back = match shard.ext.outstanding.get_mut(&job) {
                    Some(Outstanding {
                        reply: ReplySink::Tagged(_, queue),
                        held,
                        ..
                    }) => {
                        let back = queue.hold(deadline, posted, self);
                        *held = back.is_none();
                        back
                    }
                    _ => Some(posted),
                };
                back
            }
            None => Some(posted),
        };
        if let Some(posted) = back {
            self.hold(deadline, posted);
        }
    }
}

/// One live worker thread's handle.
struct WorkerHandle {
    id: u64,
    class: WorkerClass,
    node: NodeId,
    /// Inbox, queue gauge and liveness; the routing table holds a clone.
    route: Route,
    /// Second receiver on the inbox (MPMC): lets the manager drain jobs
    /// a crashed worker left queued and redispatch them.
    salvage: chan::Receiver<RtJob>,
    /// Fault-injection flag: when set, the worker dies at the next loop
    /// iteration without replying (a modelled process crash).
    kill: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

/// A virtual placement domain: the control plane sees these as nodes;
/// killing one crashes every worker placed on it and removes it from
/// the placement view until revived.
struct VNode {
    node: NodeId,
    alive: bool,
    /// Service-time multiplier (f64 bits) — straggler injection.
    slow: Arc<AtomicU64>,
}

/// Data-path view of one worker: enough to weigh it and hand a job
/// over without touching the control lock. The cells are shared with
/// the worker thread, so this entry observes deaths without bookkeeping.
#[derive(Clone)]
struct Route {
    inbox: chan::Sender<RtJob>,
    /// Queue-length gauge (inbox depth + in-service): the load reports'
    /// input and, through [`RouteLoad`], the placement input. Moved only
    /// by increments and decrements — `+1` around a successful inbox
    /// send, `-1` when the job leaves the worker — so neither side can
    /// erase the other's update.
    qlen: Arc<AtomicU64>,
    alive: Arc<AtomicBool>,
}

impl Route {
    /// Hands `job` to the worker, keeping the gauge exact: the `+1`
    /// precedes the send (the worker may dequeue, finish and decrement
    /// before this thread runs again) and is taken back if the inbox
    /// turned out closed.
    fn send(&self, job: RtJob) -> bool {
        self.qlen.fetch_add(1, Ordering::Relaxed);
        let sent = self.inbox.send(job).is_ok();
        if !sent {
            self.qlen.fetch_sub(1, Ordering::Relaxed);
        }
        sent
    }
}

/// The read-mostly routing table: worker id → channel endpoints, plus
/// the set of classes that have ever been registered (submit's
/// fail-fast check for unknown classes).
#[derive(Default)]
struct Routes {
    classes: BTreeSet<WorkerClass>,
    workers: BTreeMap<u64, Route>,
}

impl Routes {
    /// The route of `worker`, unless it is dead — reaped or not yet.
    fn live(&self, worker: ComponentId) -> Option<&Route> {
        let route = self.workers.get(&worker.0)?;
        route.alive.load(Ordering::Relaxed).then_some(route)
    }
}

/// The dispatch shards' [`LiveLoad`] source: the routing table's live
/// gauges, one read guard per pick.
struct RouteLoad(Arc<RwLock<Routes>>);

impl LiveLoad for RouteLoad {
    fn qlens(&self, workers: &[ComponentId]) -> Vec<Option<u64>> {
        let routes = read_routes(&self.0);
        let qlen = |w: &ComponentId| Some(routes.live(*w)?.qlen.load(Ordering::Relaxed));
        workers.iter().map(qlen).collect()
    }
}

/// Where a job's one [`JobResult`] goes. [`ReplySink::deliver`] consumes
/// the sink and the only copy lives in the job's [`Outstanding`] entry,
/// so whoever removes the entry — the worker settling the job, a
/// give-up, shutdown — is the one party that answers.
enum ReplySink {
    /// [`RtCluster::submit`]: the job's own one-shot channel.
    Oneshot(mpsc::SyncSender<JobResult>),
    /// [`RtCluster::submit_tagged`]: a caller-owned completion queue
    /// shared by many jobs, each result tagged with the caller's token.
    Tagged(u64, Arc<Queue>),
}

impl ReplySink {
    fn oneshot() -> (ReplySink, mpsc::Receiver<JobResult>) {
        let (tx, rx) = mpsc::sync_channel(1);
        (ReplySink::Oneshot(tx), rx)
    }

    /// Sends the result; a receiver that went away is not an error (the
    /// caller stopped waiting).
    fn deliver(self, result: JobResult) {
        match self {
            ReplySink::Oneshot(tx) => {
                let _ = tx.try_send(result);
            }
            ReplySink::Tagged(token, queue) => queue.push(token, result),
        }
    }
}

/// A front end's completion queue: every job submitted on it with
/// [`RtCluster::submit_tagged`] answers here as `(token, result)`, and
/// one [`Completions::recv`] wakes on whichever comes first.
///
/// A job whose real work ends before its service deadline is not
/// answered by the cluster's deadline thread: its worker hands the
/// settlement here together with the deadline, and `recv` meets that
/// deadline the way it meets the caller's own (sleep, then spin the
/// last stretch), then settles the job on the waiting thread — gauge,
/// count, service span, dispatch shard, reply — so no other thread has
/// to wake this one. Dropping the queue hands the settlements it still
/// holds back to their clusters' own queues, so every gauge and count
/// closes whether or not anyone waits.
#[derive(Default)]
pub struct Completions(Arc<Queue>);

/// A completion queue: the shared half of a [`Completions`], which the
/// reply sinks of its jobs hold, or the cluster's own, whose waiter is
/// the deadline thread.
#[derive(Default)]
struct Queue {
    state: Mutex<QueueState>,
    /// Signalled by a result, by a settlement due before the waiter's
    /// target, or by a close, while the waiter is blocked.
    wake: Condvar,
    /// Counts recovered poisonings of `state` (the cluster's
    /// `lock_poisoned` for its own queue).
    poisoned: Arc<AtomicU64>,
}

#[derive(Default)]
struct QueueState {
    ready: VecDeque<(u64, JobResult)>,
    /// Settlements handed over by workers, by `(deadline, hand-off order)`.
    held: BTreeMap<(Instant, u64), (Posted, Arc<Deadlines>)>,
    seq: u64,
    /// `Some(target)` while the waiter is blocked until `target`
    /// (`None`: no bound).
    blocked: Option<Option<Instant>>,
    /// Nothing new is taken: the `Completions` was dropped, or the
    /// cluster shut down. What is held is still settled on time.
    closed: bool,
}

impl QueueState {
    fn next_held(&self) -> Option<Instant> {
        self.held.keys().next().map(|&(deadline, _)| deadline)
    }
}

impl Queue {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        lock(&self.state, &self.poisoned)
    }

    fn push(&self, token: u64, result: JobResult) {
        let mut state = self.lock();
        if state.closed {
            return;
        }
        state.ready.push_back((token, result));
        let blocked = state.blocked.is_some();
        drop(state);
        if blocked {
            self.wake.notify_one();
        }
    }

    /// Takes a settlement due at `deadline`, or hands it back when the
    /// queue is closed. The waiter is woken only when it is blocked past
    /// `deadline`.
    fn hold(&self, deadline: Instant, posted: Posted, hub: &Arc<Deadlines>) -> Option<Posted> {
        let mut state = self.lock();
        if state.closed {
            return Some(posted);
        }
        let seq = state.seq;
        state.seq += 1;
        state
            .held
            .insert((deadline, seq), (posted, Arc::clone(hub)));
        let earlier = state
            .blocked
            .is_some_and(|target| target.is_none_or(|t| deadline < t));
        drop(state);
        if earlier {
            self.wake.notify_one();
        }
        None
    }

    fn close(&self) {
        self.lock().closed = true;
        self.wake.notify_one();
    }

    /// One wait of the waiter for `target` (`None`: no bound): blocks for
    /// at most `left` unless a result is ready, a settlement due before
    /// `target` is held, or the queue is closed with nothing held, and
    /// reports whether one is.
    fn wait(&self, target: Option<Instant>, left: Option<Duration>) -> bool {
        let fresh = |s: &QueueState| {
            !s.ready.is_empty()
                || s.next_held()
                    .map_or(s.closed, |d| target.is_none_or(|t| d < t))
        };
        let mut state = self.lock();
        if !fresh(&state) && left != Some(Duration::ZERO) {
            state.blocked = Some(target);
            state = match left {
                Some(left) => {
                    let woke = self.wake.wait_timeout(state, left);
                    woke.unwrap_or_else(PoisonError::into_inner).0
                }
                None => self
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
            };
            state.blocked = None;
        }
        fresh(&state)
    }

    /// [`Completions::recv`]; also returns `None` once the queue is
    /// closed and holds nothing, which is when the deadline thread exits.
    fn recv(&self, until: Option<Instant>) -> Option<(u64, JobResult)> {
        loop {
            let mut state = self.lock();
            if let Some(done) = state.ready.pop_front() {
                return Some(done);
            }
            let now = Instant::now();
            let next = state.next_held();
            if next.is_some_and(|d| d <= now) {
                let (_, (posted, hub)) = state.held.pop_first().expect("a held settlement");
                drop(state);
                // Its reply lands in `ready` (or the one-shot channel),
                // unless the job was answered otherwise already.
                hub.settle_held(posted);
                continue;
            }
            if (next.is_none() && state.closed) || until.is_some_and(|u| u <= now) {
                return None;
            }
            drop(state);
            match next.into_iter().chain(until).min() {
                Some(target) => sleep_until(target, |left| self.wait(Some(target), Some(left))),
                None => self.wait(None, None),
            };
        }
    }
}

impl Completions {
    /// The next `(token, result)`, waiting until `until` (`None`: no
    /// bound) for one. Meanwhile every held settlement whose deadline
    /// passes is settled on this thread, which is what answers its job.
    /// Returns `None` once `until` has passed with nothing ready, so a
    /// front end passes its nearest nap deadline and learns it is due.
    pub fn recv(&self, until: Option<Instant>) -> Option<(u64, JobResult)> {
        self.0.recv(until)
    }
}

impl Drop for Completions {
    fn drop(&mut self) {
        let held = {
            let mut state = self.0.lock();
            state.closed = true;
            state.ready.clear();
            std::mem::take(&mut state.held)
        };
        for ((deadline, _), (posted, hub)) in held {
            hub.hold(deadline, posted);
        }
    }
}

/// Driver bookkeeping for one job between submit and settlement
/// (response, give-up or shutdown), removed in one place when it
/// settles.
struct Outstanding {
    reply: ReplySink,
    /// Already counted in `submitted` (retries resend the same id; the
    /// conservation ledger must count it once).
    counted: bool,
    /// The job's settlement is held by its completion queue, whose
    /// waiter answers it with the real result.
    held: bool,
}

/// Per-shard driver state living under the shard lock, so one
/// acquisition covers both the plane's decision and this bookkeeping.
#[derive(Default)]
struct ShardExt {
    outstanding: BTreeMap<u64, Outstanding>,
    /// Dispatch-plane counters (`stub.*`), rolled up by
    /// [`RtCluster::counter`]. Keyed by interned name so the hot path
    /// never touches a global intern table.
    counters: BTreeMap<&'static str, u64>,
}

/// Control-plane state: policy, membership, spawn/restart machinery.
/// Only the manager thread, fault injectors and `add_workers` take
/// this lock — never the submit or response path.
struct ControlInner {
    control: ControlPlane,
    workers: Vec<WorkerHandle>,
    factories: BTreeMap<WorkerClass, Arc<RtWorkerFactory>>,
    policies: BTreeMap<WorkerClass, SpawnPolicy>,
    /// Salvage receivers of dead workers awaiting redispatch.
    morgue: Vec<(WorkerClass, chan::Receiver<RtJob>)>,
    vnodes: Vec<VNode>,
}

/// The component id the control plane runs under (workers count up
/// from the next id).
const MANAGER: ComponentId = ComponentId(1);

/// A running cluster of real worker threads.
///
/// All policy — least-loaded placement over the hinted workers,
/// stale-hint eviction and retry, process-peer restart, class minimums
/// — lives in the shared sans-IO planes; this type owns the threads,
/// channels, clocks and queue gauges and applies the planes' effects.
pub struct RtCluster {
    cfg: RtConfig,
    control: Mutex<ControlInner>,
    /// The sharded dispatch state: submits round-robin across shards,
    /// responses route back by job id.
    shards: Arc<ShardedDispatch<ShardExt>>,
    routes: Arc<RwLock<Routes>>,
    running: Arc<AtomicBool>,
    manager_on: Arc<AtomicBool>,
    /// Fault injection: suppress hint publication (beacons) so stubs
    /// run on stale data (§3.1.8).
    beacon_blackout: AtomicBool,
    next_id: AtomicU64,
    incarnation: AtomicU64,
    manager: Mutex<Option<JoinHandle<()>>>,
    /// What settles served jobs, and the queue that holds one-shot jobs
    /// served inside their service time until their deadlines; shared
    /// with the workers (who hold) and the deadline thread (its waiter).
    deadlines: Arc<Deadlines>,
    deadline_thread: Mutex<Option<JoinHandle<()>>>,
    started: Instant,
    /// Decision log in canonical monitor-event form — the same stream
    /// the simulator's `MonitorTap` captures, so chaos invariants and
    /// the parity test run against either backend unchanged.
    log: Arc<Mutex<MonitorLog>>,
    /// Control-plane counters (`manager.*`); dispatch counters live in
    /// the shards.
    counters: Mutex<BTreeMap<&'static str, u64>>,
    /// Reply channels for jobs submitted through the [`Cluster`] trait,
    /// drained by [`Cluster::settle`].
    pending: Mutex<Vec<mpsc::Receiver<JobResult>>>,
    /// Back-reference set by [`RtCluster::start`], so `&self` methods
    /// (trait-object safe) can hand the manager thread a weak handle.
    self_weak: OnceLock<Weak<RtCluster>>,
    /// Jobs accepted into some worker's queue.
    pub submitted: Arc<AtomicU64>,
    /// Jobs completed successfully.
    pub jobs_done: Arc<AtomicU64>,
    /// Worker crashes (pathological input or injected).
    pub crashes: Arc<AtomicU64>,
    /// Process-peer restarts performed.
    pub restarts: Arc<AtomicU64>,
    /// Orphaned jobs salvaged from dead workers' queues.
    pub redispatched: Arc<AtomicU64>,
    /// Times a poisoned lock was recovered (a worker panicked while
    /// holding it).
    pub lock_poisoned: Arc<AtomicU64>,
    /// Span recorder shared by the submit path and the worker threads;
    /// disabled (no-op) unless [`RtConfig::tracing`] is set.
    tracer: Tracer,
}

impl RtCluster {
    /// Starts a cluster (manager thread included, incarnation 1).
    pub fn start(cfg: RtConfig) -> Arc<RtCluster> {
        let plane_sns = Self::plane_sns(&cfg);
        let vnodes = (0..cfg.nodes.max(1))
            .map(|i| VNode {
                node: NodeId(i as u32),
                alive: true,
                slow: Arc::new(AtomicU64::new(1.0f64.to_bits())),
            })
            .collect();
        let routes = Arc::new(RwLock::new(Routes::default()));
        let shards = Arc::new(ShardedDispatch::new(
            &plane_sns,
            cfg.resolved_shards(),
            cfg.seed,
            cfg.tracing,
            cfg.sampling(),
            Some(Arc::new(RouteLoad(Arc::clone(&routes)))),
            |_| ShardExt::default(),
        ));
        let started = Instant::now();
        let jobs_done = Arc::new(AtomicU64::new(0));
        let lock_poisoned = Arc::new(AtomicU64::new(0));
        let tracer = if cfg.tracing {
            Tracer::sampled(cfg.sampling())
        } else {
            Tracer::disabled()
        };
        let deadlines = Arc::new(Deadlines {
            queue: Queue {
                poisoned: Arc::clone(&lock_poisoned),
                ..Queue::default()
            },
            jobs_done: Arc::clone(&jobs_done),
            tracer: tracer.clone(),
            shards: Arc::downgrade(&shards),
            started,
        });
        let thread = {
            let deadlines = Arc::clone(&deadlines);
            // The cluster queue's waiter: it settles every held job at
            // its deadline and exits once the queue is closed and empty.
            std::thread::Builder::new()
                .name("sns-rt-deadlines".into())
                .spawn(move || while deadlines.queue.recv(None).is_some() {})
                .expect("spawn deadline thread")
        };
        let cluster = Arc::new(RtCluster {
            control: Mutex::new(ControlInner {
                // Placeholder incarnation 0; `start_manager` installs
                // the real plane before any work is accepted.
                control: ControlPlane::new(ControlConfig {
                    sns: plane_sns,
                    incarnation: 0,
                    restart_front_ends: false,
                }),
                workers: Vec::new(),
                factories: BTreeMap::new(),
                policies: BTreeMap::new(),
                morgue: Vec::new(),
                vnodes,
            }),
            shards,
            routes,
            running: Arc::new(AtomicBool::new(true)),
            manager_on: Arc::new(AtomicBool::new(false)),
            beacon_blackout: AtomicBool::new(false),
            next_id: AtomicU64::new(MANAGER.0 + 1),
            incarnation: AtomicU64::new(0),
            manager: Mutex::new(None),
            deadlines,
            deadline_thread: Mutex::new(Some(thread)),
            started,
            log: Arc::new(Mutex::new(MonitorLog::default())),
            counters: Mutex::new(BTreeMap::new()),
            pending: Mutex::new(Vec::new()),
            self_weak: OnceLock::new(),
            submitted: Arc::new(AtomicU64::new(0)),
            jobs_done,
            crashes: Arc::new(AtomicU64::new(0)),
            restarts: Arc::new(AtomicU64::new(0)),
            redispatched: Arc::new(AtomicU64::new(0)),
            lock_poisoned,
            tracer,
            cfg,
        });
        let _ = cluster.self_weak.set(Arc::downgrade(&cluster));
        cluster.start_manager();
        cluster
    }

    /// The layer config the shared planes run under: rt timing, with
    /// report-silence inference disabled — worker deaths here are
    /// *observed* (thread exit), not inferred, so the explicit
    /// death-notice path must be the only one that fires.
    fn plane_sns(cfg: &RtConfig) -> SnsConfig {
        SnsConfig {
            report_period: cfg.report_period,
            beacon_period: cfg.beacon_period,
            dispatch_timeout: cfg.dispatch_timeout,
            worker_report_timeout: Duration::from_secs(3600),
            ..SnsConfig::default()
        }
    }

    fn now(&self) -> SimTime {
        span_time(self.started, Instant::now())
    }

    fn lock_control(&self) -> MutexGuard<'_, ControlInner> {
        lock(&self.control, &self.lock_poisoned)
    }

    fn write_routes(&self) -> RwLockWriteGuard<'_, Routes> {
        self.routes.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn incr(&self, key: &'static str, n: u64) {
        *lock(&self.counters, &self.lock_poisoned)
            .entry(key)
            .or_insert(0) += n;
    }

    /// The control plane's placement snapshot: alive virtual nodes with
    /// their live-worker counts.
    fn view_of(inner: &ControlInner) -> ClusterView {
        let mut dedicated = Vec::new();
        for v in &inner.vnodes {
            if !v.alive {
                continue;
            }
            let components = inner
                .workers
                .iter()
                .filter(|w| w.node == v.node && w.route.alive.load(Ordering::Relaxed))
                .count() as u32;
            dedicated.push(NodeLoad {
                node: v.node,
                components,
            });
        }
        ClusterView {
            dedicated,
            overflow: Vec::new(),
            pinned_alive: BTreeMap::new(),
            spawn_latency: Duration::ZERO,
        }
    }

    /// Adds `n` workers of a class built by `factory` (kept for
    /// restarts). Hints are published immediately so submits can land
    /// before the first beacon tick.
    pub fn add_workers(
        &self,
        class: &str,
        n: usize,
        factory: impl Fn() -> Box<dyn WorkerLogic> + Send + Sync + 'static,
    ) {
        let class = WorkerClass::new(class);
        self.write_routes().classes.insert(class);
        let mut guard = self.lock_control();
        let inner = &mut *guard;
        inner.factories.insert(class, Arc::new(Box::new(factory)));
        let policy = inner.policies.entry(class).or_insert(SpawnPolicy {
            min_workers: 0,
            max_workers: 0,
            max_per_node: 0,
            auto_scale: false,
            restart_on_crash: self.cfg.restart_on_crash,
            pinned_node: None,
        });
        if self.cfg.restart_on_crash {
            policy.min_workers += n as u32;
        }
        let policy = policy.clone();
        inner.control.add_class(class, policy);
        let now = self.now();
        let target = inner.control.class_strength(&class) + n as u32;
        let view = Self::view_of(inner);
        let mut out = Vec::new();
        inner
            .control
            .ensure_workers(&class, target, now, &view, &mut out);
        self.apply_control(inner, out, false, now);
        self.refresh_hints(inner);
    }

    /// Applies control-plane effects, in order, onto threads/channels.
    /// `count_restarts` distinguishes recovery spawns from bootstrap.
    /// Caller holds the control lock (`inner`); shard and route locks
    /// are taken underneath it, per the lock order.
    fn apply_control(
        &self,
        inner: &mut ControlInner,
        effects: Vec<ControlEffect>,
        count_restarts: bool,
        now: SimTime,
    ) {
        for effect in effects {
            match effect {
                ControlEffect::Spawn {
                    token,
                    class,
                    node,
                    overflow: _,
                } => {
                    let Some(factory) = inner.factories.get(&class).map(Arc::clone) else {
                        continue;
                    };
                    let slow = inner
                        .vnodes
                        .iter()
                        .find(|v| v.node == node)
                        .map(|v| Arc::clone(&v.slow))
                        .unwrap_or_else(|| Arc::new(AtomicU64::new(1.0f64.to_bits())));
                    let handle = self.spawn_worker_thread(factory(), node, slow);
                    let id = ComponentId(handle.id);
                    inner.control.confirm_spawn(token, id);
                    // Registration is synchronous here (no SAN between
                    // the manager and a thread it just started); the
                    // Watch effect is meaningless to this driver.
                    inner
                        .control
                        .on_register_worker(id, class, node, false, now, &mut Vec::new());
                    self.write_routes()
                        .workers
                        .insert(handle.id, handle.route.clone());
                    inner.workers.push(handle);
                    if count_restarts {
                        self.restarts.fetch_add(1, Ordering::Relaxed);
                    }
                }
                ControlEffect::Shutdown { worker } => {
                    // Graceful reap: close the inbox; the thread drains
                    // its queue and exits. Deregister now (the sim
                    // worker does the same on drain completion) so the
                    // later thread-exit reap is not mistaken for a
                    // crash and respawned as a process peer.
                    if let Some(w) = inner.workers.iter().find(|w| ComponentId(w.id) == worker) {
                        w.route.inbox.close();
                        inner.control.on_deregister_worker(worker, &mut Vec::new());
                    }
                }
                ControlEffect::Beacon(data) => {
                    if self.beacon_blackout.load(Ordering::Relaxed) {
                        continue;
                    }
                    self.publish_beacon(inner, &data);
                }
                ControlEffect::Emit(ev) => {
                    // Mirror decisions into the trace as instants (the
                    // sim monitor does the same), so recoveries line up
                    // with the request spans they perturb.
                    if self.tracer.is_enabled() && !matches!(ev, MonitorEvent::Heartbeat { .. }) {
                        self.tracer
                            .instant(ev.kind_key(), trace::CAT_MONITOR, MANAGER, now);
                    }
                    lock(&self.log, &self.lock_poisoned).push(now, ev);
                }
                ControlEffect::Incr { key, n } => self.incr(key, n),
                // No front-end processes, no engine watch list, no
                // stats hub, no rival managers in this runtime.
                ControlEffect::SpawnFrontEnd { .. }
                | ControlEffect::Watch(_)
                | ControlEffect::Unwatch(_)
                | ControlEffect::Sample { .. }
                | ControlEffect::StepDown => {}
            }
        }
    }

    /// Broadcasts a hint snapshot to every dispatch shard and delivers
    /// whatever each shard flushes. Caller holds the control lock.
    fn publish_beacon(&self, inner: &mut ControlInner, data: &BeaconData) {
        let mut need = Vec::new();
        self.shards.broadcast_beacon(data, |_, shard, out| {
            self.deliver_shard(shard, out, &mut need)
        });
        self.need_workers_locked(inner, need);
    }

    /// Runs the control plane's on-demand spawn path for each class a
    /// dispatch shard reported starved. Caller holds the control lock.
    fn need_workers_locked(&self, inner: &mut ControlInner, need: Vec<WorkerClass>) {
        for class in need {
            if !self.manager_on.load(Ordering::Relaxed) {
                continue;
            }
            let now = self.now();
            let view = Self::view_of(inner);
            let mut out = Vec::new();
            inner.control.on_need_worker(&class, now, &view, &mut out);
            self.apply_control(inner, out, true, now);
        }
    }

    /// Like [`Self::need_workers_locked`] but acquires the control lock
    /// — the deferred half of the submit path (shard locks are released
    /// before this runs, preserving the `control → shard` order).
    fn need_workers(&self, need: Vec<WorkerClass>) {
        if need.is_empty() {
            return;
        }
        let mut guard = self.lock_control();
        self.need_workers_locked(&mut guard, need);
    }

    /// Applies one shard's dispatch effects. Jobs aimed at dead workers
    /// are refused inline, which feeds the plane's timeout/retry path
    /// immediately instead of waiting out a wall-clock timer.
    /// `NeedWorker` effects are *deferred* into `need` — handling them
    /// requires the control lock, which must never be acquired while a
    /// shard is held.
    fn deliver_shard(
        &self,
        shard: &mut DispatchShard<ShardExt>,
        effects: Vec<DispatchEffect>,
        need: &mut Vec<WorkerClass>,
    ) {
        let mut queue: VecDeque<DispatchEffect> = effects.into();
        while let Some(effect) = queue.pop_front() {
            match effect {
                DispatchEffect::SendJob { worker, job } => {
                    let Some(o) = shard.ext.outstanding.get_mut(&job.id) else {
                        continue; // job already settled
                    };
                    let tagged = matches!(o.reply, ReplySink::Tagged(..));
                    // The guard is gone before a refusal re-enters the
                    // plane, whose pick reads the routes again.
                    let sent = read_routes(&self.routes).live(worker).is_some_and(|r| {
                        let arrival = Instant::now();
                        r.send(RtJob {
                            job: (*job).clone(),
                            enqueued: span_time(self.started, arrival),
                            arrival,
                            tagged,
                        })
                    });
                    if !sent {
                        self.refuse_in_shard(shard, job.id, &mut queue);
                    } else if !std::mem::replace(&mut o.counted, true) {
                        self.submitted.fetch_add(1, Ordering::Relaxed);
                    }
                }
                DispatchEffect::NeedWorker { class, .. } => need.push(class),
                DispatchEffect::Incr { key, n } => {
                    *shard.ext.counters.entry(key).or_insert(0) += n;
                }
                DispatchEffect::Span(s) => self.tracer.record(s),
            }
        }
    }

    /// A job could not be handed to its chosen worker: run the shard's
    /// timeout path now (evict the dead hint, retry elsewhere or give
    /// up) and queue whatever it decides.
    fn refuse_in_shard(
        &self,
        shard: &mut DispatchShard<ShardExt>,
        job_id: u64,
        queue: &mut VecDeque<DispatchEffect>,
    ) {
        let now = self.now();
        let mut out = Vec::new();
        let verdict = {
            let DispatchShard { plane, rng, .. } = &mut *shard;
            plane.on_timeout(rng, now, job_id, &mut out)
        };
        Self::answer_give_up(shard, job_id, verdict);
        queue.extend(out);
    }

    /// A job the plane gave up on (or no longer knows) is answered with
    /// a typed failure; a retried one waits for its next deadline.
    fn answer_give_up(shard: &mut DispatchShard<ShardExt>, job_id: u64, verdict: TimeoutVerdict) {
        if verdict == TimeoutVerdict::Retried {
            return;
        }
        if let Some(o) = shard.ext.outstanding.remove(&job_id) {
            o.reply.deliver(JobResult::Failed("no live worker".into()));
        }
    }

    /// Submits a job; the reply arrives on the returned channel. The
    /// worker is chosen by the shared dispatch plane: of the workers the
    /// last beacon hinted, the one whose live queue gauge is lowest,
    /// ties broken at random; a stale pick (the worker died since) is
    /// refused by the driver and retried through the same plane.
    ///
    /// Hot path: one round-robin shard lock plus two routing-table reads
    /// (the pick's gauges, the send) — never the control lock, so
    /// submits from many threads scale with the shard count.
    pub fn submit(
        &self,
        class: &str,
        op: &'static str,
        input: Payload,
        profile: Option<ProfileData>,
    ) -> mpsc::Receiver<JobResult> {
        let (sink, reply_rx) = ReplySink::oneshot();
        self.submit_to(class, op, input, profile, sink);
        reply_rx
    }

    /// [`RtCluster::submit`] for a caller that waits on many jobs at
    /// once: the job's one result arrives on `queue` as
    /// `(token, result)`, so a single [`Completions::recv`] wakes on
    /// whichever job finishes first, and a job served before its
    /// deadline is settled by that receive. Every failure — unknown
    /// class, over quota, no live worker, shutdown — arrives as a typed
    /// [`JobResult::Failed`].
    pub fn submit_tagged(
        &self,
        class: &str,
        op: &'static str,
        input: Payload,
        profile: Option<ProfileData>,
        token: u64,
        queue: &Completions,
    ) {
        let sink = ReplySink::Tagged(token, Arc::clone(&queue.0));
        self.submit_to(class, op, input, profile, sink);
    }

    fn submit_to(
        &self,
        class: &str,
        op: &'static str,
        input: Payload,
        profile: Option<ProfileData>,
        sink: ReplySink,
    ) {
        let Some(class) = read_routes(&self.routes).classes.get(class).copied() else {
            return sink.deliver(JobResult::Failed(format!("no workers of class {class}")));
        };
        let now = self.now();
        let mut need = Vec::new();
        {
            let mut shard = self.shards.lock(self.shards.pick());
            // Read under the shard lock: `shutdown` clears the flag
            // before it sweeps the shards, so a submit that sees it set
            // here is swept (answered) by that shutdown, never stranded.
            if !self.running.load(Ordering::Relaxed) {
                return sink.deliver(JobResult::Failed("cluster is shut down".into()));
            }
            let mut out = Vec::new();
            // Multi-tenant admission: over-quota tenants are refused
            // (or degraded) before a worker is picked, so a flash crowd
            // on one tenant cannot occupy dispatch state that another
            // tenant's jobs need.
            if shard.plane.admit(&class, &mut out) == sns_core::Admission::Drop {
                sink.deliver(JobResult::Failed("tenant over quota".into()));
                self.deliver_shard(&mut shard, out, &mut need);
                return;
            }
            {
                let DispatchShard { plane, rng, ext } = &mut *shard;
                let job_id = plane.dispatch(
                    rng,
                    now,
                    ComponentId::EXTERNAL,
                    class,
                    op,
                    input,
                    profile,
                    SpanCtx::root(),
                    &mut out,
                );
                ext.outstanding.insert(
                    job_id,
                    Outstanding {
                        reply: sink,
                        counted: false,
                        held: false,
                    },
                );
            }
            self.deliver_shard(&mut shard, out, &mut need);
        }
        self.need_workers(need);
    }

    /// Spawns one worker thread. The thread treats a job's (scaled)
    /// service time as a deadline on a single-server timeline: service
    /// starts at `max(arrival, free_at)` and `process` runs inside it,
    /// so real work longer than the service adds no wait and the
    /// service span covers both. A job whose work ends before its
    /// deadline is handed to its completion queue when it has one, else
    /// to the cluster's own; either queue's waiter answers it on time,
    /// and the worker plain-sleeps until the deadline. A job already
    /// past it is settled here at once. The worker crashes by *not
    /// replying* (the queue is salvaged later).
    fn spawn_worker_thread(
        &self,
        mut logic: Box<dyn WorkerLogic>,
        node: NodeId,
        slow: Arc<AtomicU64>,
    ) -> WorkerHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let class = logic.class();
        let (tx, rx) = chan::unbounded::<RtJob>();
        let salvage = rx.clone();
        let qlen = Arc::new(AtomicU64::new(0));
        let alive = Arc::new(AtomicBool::new(true));
        let kill = Arc::new(AtomicBool::new(false));

        let running = Arc::clone(&self.running);
        let crashes = Arc::clone(&self.crashes);
        let log = Arc::clone(&self.log);
        let poisoned = Arc::clone(&self.lock_poisoned);
        let deadlines = Arc::clone(&self.deadlines);
        let time_scale = self.cfg.time_scale;
        let seed = self.cfg.seed ^ id;
        let started = self.started;
        let class_key = class.name();
        let alive_t = Arc::clone(&alive);
        let kill_t = Arc::clone(&kill);
        let qlen_t = Arc::clone(&qlen);

        let crash = {
            let alive = Arc::clone(&alive);
            move || {
                crashes.fetch_add(1, Ordering::Relaxed);
                let now = span_time(started, Instant::now());
                lock(&log, &poisoned).push(
                    now,
                    MonitorEvent::WorkerCrashed {
                        worker: ComponentId(id),
                        class,
                    },
                );
                // The store is last: once the manager sees !alive it
                // will join this thread, which must not block again.
                alive.store(false, Ordering::Relaxed);
            }
        };

        // The route is published after this, so no job can reach the
        // worker, and no service on it start, before this instant.
        let spawned = Instant::now();
        let join = std::thread::Builder::new()
            .name(format!("sns-rt-{}-{}", class.name().replace('/', "-"), id))
            .spawn(move || {
                let mut rng = Pcg32::new(seed);
                let me = ComponentId(id);
                // When this worker is next free: the last job's deadline,
                // or its real end if `process` overran it.
                let mut free_at = spawned;
                loop {
                    if kill_t.load(Ordering::Relaxed) {
                        crash();
                        return;
                    }
                    // The condvar wakes us for work; the timeout is only
                    // the shutdown- and kill-check cadence.
                    let rt_job = match rx.recv_timeout(Duration::from_millis(50)) {
                        Ok(j) => j,
                        Err(chan::RecvTimeoutError::Timeout) if running.load(Ordering::Relaxed) => {
                            continue
                        }
                        Err(_) => break, // shut down, or inbox closed and drained
                    };
                    let job = &rt_job.job;
                    // The simulator's single-server rule: service starts
                    // when the job reaches a free worker, so the thread's
                    // own wake-up runs inside the service. A zero-service
                    // job has nothing to hide the wake-up in; its service
                    // is its real work, which starts when it is picked up.
                    let begin = rt_job.arrival.max(free_at);
                    let factor = time_scale.max(0.0) * f64::from_bits(slow.load(Ordering::Relaxed));
                    let window = logic
                        .service_time(job, span_time(started, begin), &mut rng)
                        .mul_f64(factor);
                    let start = if window.is_zero() {
                        Instant::now()
                    } else {
                        begin
                    };
                    let deadline = start + window;
                    let service = Service {
                        job: job.id,
                        worker: me,
                        class: class_key,
                        parent: (job.sampled && deadlines.tracer.is_enabled())
                            .then(|| trace::job_span_id(job.reply_to, job.id)),
                        start: span_time(started, start),
                    };
                    if let Some(parent) = service.parent {
                        deadlines.tracer.record(trace::span(
                            trace::queue_span_id(me, job.id),
                            Some(parent),
                            trace::QUEUE,
                            trace::CAT_WORKER,
                            me,
                            class_key,
                            rt_job.enqueued,
                            service.start,
                            0,
                            true,
                        ));
                    }
                    let outcome = logic.process(job, service.start, &mut rng);
                    let end = Instant::now();
                    free_at = deadline.max(end);
                    let outcome = match outcome {
                        Ok(payload) => Ok(payload),
                        Err(WorkerError::Failed(reason)) => Err(reason),
                        Err(WorkerError::Crash) => {
                            // No reply, no settlement: the job vanishes
                            // with the "process" at its deadline (§3.1.6);
                            // dispatch state is reclaimed by the deadline
                            // sweep. The gauge drops before the death is
                            // published, as for a settled job.
                            std::thread::sleep(free_at - end);
                            qlen_t.fetch_sub(1, Ordering::Relaxed);
                            service.record(
                                &deadlines.tracer,
                                span_time(started, Instant::now()),
                                0,
                                false,
                            );
                            crash();
                            return;
                        }
                    };
                    if end < deadline {
                        let posted = Posted {
                            qlen: Arc::clone(&qlen_t),
                            service,
                            outcome,
                        };
                        if rt_job.tagged {
                            deadlines.hand_off(deadline, posted);
                        } else {
                            deadlines.hold(deadline, posted);
                        }
                        // Waking late costs nothing: the next job's
                        // service starts at the deadline regardless.
                        std::thread::sleep(deadline - end);
                    } else {
                        deadlines.settle(&qlen_t, service, outcome, span_time(started, end));
                    }
                }
                // Clean exit (inbox closed and drained): publish the
                // death so the manager reaps this handle. The graceful
                // Shutdown path deregistered us already, so the reap is
                // a join + route removal, not a peer restart.
                alive_t.store(false, Ordering::Relaxed);
            })
            .expect("spawn worker thread");

        WorkerHandle {
            id,
            class,
            node,
            route: Route {
                inbox: tx,
                qlen,
                alive,
            },
            salvage,
            kill,
            join: Some(join),
        }
    }

    /// One manager-loop step: reconcile deaths, feed load reports,
    /// tick the control plane (beacon + policy), salvage orphaned
    /// queues, sweep dispatch deadlines.
    fn control_step(&self) {
        let now = self.now();
        let mut guard = self.lock_control();
        let inner = &mut *guard;
        self.process_deaths(inner, now);
        let reports: Vec<(u64, WorkerClass, u32, NodeId)> = inner
            .workers
            .iter()
            .filter(|w| w.route.alive.load(Ordering::Relaxed))
            .map(|w| {
                (
                    w.id,
                    w.class,
                    w.route.qlen.load(Ordering::Relaxed) as u32,
                    w.node,
                )
            })
            .collect();
        for (id, class, qlen, node) in reports {
            let mut out = Vec::new();
            inner.control.on_load_report(
                ComponentId(id),
                class,
                qlen,
                now,
                || (node, false),
                &mut out,
            );
            self.apply_control(inner, out, true, now);
        }
        let view = Self::view_of(inner);
        let mut out = Vec::new();
        inner.control.on_tick(now, &view, &mut out);
        self.apply_control(inner, out, true, now);
        self.drain_morgue(inner);
        self.sweep_deadlines(inner);
    }

    /// Joins dead worker threads, moves their queues to the morgue and
    /// notifies the control plane (which decides whether a process
    /// peer is started, §3.1.3).
    fn process_deaths(&self, inner: &mut ControlInner, now: SimTime) {
        while let Some(idx) = inner
            .workers
            .iter()
            .position(|w| !w.route.alive.load(Ordering::Relaxed))
        {
            let mut dead = inner.workers.remove(idx);
            if let Some(j) = dead.join.take() {
                let _ = j.join();
            }
            self.write_routes().workers.remove(&dead.id);
            inner.morgue.push((dead.class, dead.salvage.clone()));
            let view = Self::view_of(inner);
            let mut out = Vec::new();
            inner
                .control
                .on_peer_death(ComponentId(dead.id), now, &view, &mut out);
            self.apply_control(inner, out, true, now);
        }
    }

    /// Redispatches jobs stranded in dead workers' queues onto the
    /// newest live worker of the class (the replacement, when there is
    /// one).
    fn drain_morgue(&self, inner: &mut ControlInner) {
        let morgue = std::mem::take(&mut inner.morgue);
        let mut kept = Vec::new();
        for (class, salvage) in morgue {
            let target = inner
                .workers
                .iter()
                .filter(|w| w.class == class && w.route.alive.load(Ordering::Relaxed))
                .max_by_key(|w| w.id);
            let Some(WorkerHandle { route, .. }) = target else {
                kept.push((class, salvage)); // no survivor yet: try next step
                continue;
            };
            let mut moved = 0u64;
            while let Ok(mut orphan) = salvage.try_recv() {
                // Its service here starts no earlier than it gets here;
                // its queue wait still runs from the first inbox.
                orphan.arrival = Instant::now();
                moved += u64::from(route.send(orphan));
            }
            self.redispatched.fetch_add(moved, Ordering::Relaxed);
        }
        inner.morgue = kept;
    }

    /// Times out, shard by shard, every dispatch whose deadline the
    /// plane says is past, one at a time in deadline order. Caller holds
    /// the control lock; shards are visited one at a time underneath it.
    fn sweep_deadlines(&self, inner: &mut ControlInner) {
        let mut need = Vec::new();
        self.shards.for_each(|_, shard| {
            let now = self.now();
            loop {
                let mut out = Vec::new();
                let expired = {
                    let DispatchShard { plane, rng, .. } = &mut *shard;
                    plane.expire_next(rng, now, &mut out)
                };
                let Some((job_id, verdict)) = expired else {
                    break;
                };
                Self::answer_give_up(shard, job_id, verdict);
                self.deliver_shard(shard, out, &mut need);
            }
        });
        self.need_workers_locked(inner, need);
    }

    /// Publishes the control plane's current hints to the dispatch
    /// shards immediately (test hook; ignores the beacon blackout since
    /// the call is explicit).
    pub fn refresh_hints_now(&self) {
        let mut guard = self.lock_control();
        self.refresh_hints(&mut guard);
    }

    fn refresh_hints(&self, inner: &mut ControlInner) {
        let b = inner.control.make_beacon(self.now());
        self.publish_beacon(inner, &b);
    }

    /// Live workers of a class.
    pub fn workers_of(&self, class: &str) -> usize {
        let class = WorkerClass::new(class);
        self.lock_control()
            .workers
            .iter()
            .filter(|w| w.class == class && w.route.alive.load(Ordering::Relaxed))
            .count()
    }

    /// Injects a crash into one live worker of `class`. Returns whether
    /// a victim existed.
    pub fn crash_worker(&self, class: &str) -> bool {
        let class = WorkerClass::new(class);
        let inner = self.lock_control();
        for w in &inner.workers {
            if w.class == class
                && w.route.alive.load(Ordering::Relaxed)
                && !w.kill.load(Ordering::Relaxed)
            {
                w.kill.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Kills virtual node `which` (stable creation-order index): every
    /// worker placed on it crashes and the node leaves the placement
    /// view, so replacements cannot land there until
    /// [`RtCluster::revive_node`]. Returns the number of workers
    /// killed, or `None` when the index is out of range or the node is
    /// already dead — a reported skip, never a silent re-aim at a
    /// different live node.
    pub fn kill_node(&self, which: usize) -> Option<u64> {
        let mut inner = self.lock_control();
        let v = inner.vnodes.get_mut(which).filter(|v| v.alive)?;
        v.alive = false;
        let node = v.node;
        let mut killed = 0;
        for w in &inner.workers {
            if w.node == node
                && w.route.alive.load(Ordering::Relaxed)
                && !w.kill.swap(true, Ordering::Relaxed)
            {
                killed += 1;
            }
        }
        Some(killed)
    }

    /// Revives dead virtual node `which` (stable index); the class
    /// minimums repopulate it on the next manager tick. `false` when
    /// the index is out of range or the node is already up.
    pub fn revive_node(&self, which: usize) -> bool {
        let mut inner = self.lock_control();
        match inner.vnodes.get_mut(which) {
            Some(v) if !v.alive => {
                v.alive = true;
                true
            }
            _ => false,
        }
    }

    /// Multiplies service times of workers on virtual node `which`
    /// (stable index) by `factor` (straggler injection; 1.0 restores).
    /// `false` when the index is out of range or the node is dead.
    pub fn set_node_slowdown(&self, which: usize, factor: f64) -> bool {
        let inner = self.lock_control();
        match inner.vnodes.get(which) {
            Some(v) if v.alive => {
                v.slow.store(factor.to_bits(), Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Drains virtual node `which` (stable index): the control plane
    /// stops placing workers there and gracefully shuts down the ones
    /// it runs (they drain their queues, deregister and exit; the class
    /// minimums respawn replacements on other nodes). `false` when the
    /// index is out of range, the node is dead, or it is already
    /// drained.
    pub fn drain_node(&self, which: usize) -> bool {
        let mut guard = self.lock_control();
        let inner = &mut *guard;
        let Some(node) = inner.vnodes.get(which).filter(|v| v.alive).map(|v| v.node) else {
            return false;
        };
        let now = self.now();
        let mut out = Vec::new();
        inner.control.on_drain_node(node, &mut out);
        if out.is_empty() {
            return false; // already drained: idempotent no-op upstream
        }
        self.apply_control(inner, out, false, now);
        self.refresh_hints(inner);
        true
    }

    /// Returns drained virtual node `which` (stable index) to service;
    /// with `upgraded` the node rejoins at a bumped upgrade epoch (the
    /// rolling-upgrade "restart at new incarnation" step). `false` when
    /// the index is out of range, the node is dead, or it was not
    /// drained.
    pub fn rejoin_node(&self, which: usize, upgraded: bool) -> bool {
        let mut guard = self.lock_control();
        let inner = &mut *guard;
        let Some(node) = inner.vnodes.get(which).filter(|v| v.alive).map(|v| v.node) else {
            return false;
        };
        let now = self.now();
        let mut out = Vec::new();
        if upgraded {
            inner.control.on_upgrade_node(node, &mut out);
        } else {
            inner.control.on_undrain_node(node, &mut out);
        }
        if out.is_empty() {
            return false; // was not drained
        }
        self.apply_control(inner, out, false, now);
        self.refresh_hints(inner);
        true
    }

    /// Assigns a worker class to a tenant on every dispatch shard (the
    /// multi-tenant admission bookkeeping; see
    /// [`sns_core::TenantPolicy`]).
    pub fn set_tenant(&self, class: &str, tenant: &'static str) {
        let class = WorkerClass::new(class);
        self.shards
            .for_each(|_, s| s.plane.set_tenant(class, tenant));
    }

    /// Installs a tenant's overload policy on every dispatch shard.
    /// Each shard enforces its own share of the quota
    /// (`max_outstanding` is per shard), which keeps admission off the
    /// global lock; size quotas accordingly.
    pub fn set_tenant_policy(&self, tenant: &'static str, policy: sns_core::TenantPolicy) {
        self.shards
            .for_each(|_, s| s.plane.set_tenant_policy(tenant, policy));
    }

    /// Suppresses/permits hint publication (fault injection: front-end
    /// stubs keep scheduling on stale hints, §3.1.8).
    pub fn set_beacon_blackout(&self, on: bool) {
        self.beacon_blackout.store(on, Ordering::Relaxed);
    }

    /// Snapshot of the decision log (same canonical event stream as the
    /// simulator's monitor tap).
    pub fn monitor_log(&self) -> MonitorLog {
        lock(&self.log, &self.lock_poisoned).clone()
    }

    /// The cluster's span recorder (disabled unless
    /// [`RtConfig::tracing`] was set).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Snapshot of the recorded trace, or `None` when tracing is off.
    /// Timestamps are wall-clock nanoseconds since cluster start; use
    /// [`sns_core::trace::normalized`] for time-free comparisons.
    pub fn trace_snapshot(&self) -> Option<TraceLog> {
        self.tracer.snapshot()
    }

    /// A control/dispatch plane counter (e.g. `"manager.load_reports"`,
    /// `"stub.retries"`), summed across the control plane's counters
    /// and every dispatch shard's. Accepts a [`MetricKey`] or anything
    /// that interns into one (plain `&str` keeps working).
    pub fn counter(&self, key: impl Into<MetricKey>) -> u64 {
        let key = key.into().as_str();
        let mut total = lock(&self.counters, &self.lock_poisoned)
            .get(key)
            .copied()
            .unwrap_or(0);
        self.shards
            .for_each(|_, s| total += s.ext.counters.get(key).copied().unwrap_or(0));
        total
    }

    /// Stops the manager thread (fault injection). Workers keep
    /// serving; crashed workers stay dead until a new incarnation.
    pub fn kill_manager(&self) {
        self.manager_on.store(false, Ordering::Relaxed);
        let handle = lock(&self.manager, &self.lock_poisoned).take();
        if let Some(h) = handle {
            // The manager parks between control steps; wake it so the
            // join does not wait out the rest of a beacon period.
            h.thread().unpark();
            let _ = h.join();
        }
    }

    /// Starts a manager thread under a fresh incarnation: rebuilds the
    /// control plane's soft state from the live workers (§3.1.3 — "all
    /// state is rebuilt from registrations and load reports"),
    /// reconciles deaths that happened while no manager ran, and tops
    /// populations back up to their class minimums.
    pub fn start_manager(&self) {
        let mut slot = lock(&self.manager, &self.lock_poisoned);
        if slot.is_some() || !self.running.load(Ordering::Relaxed) {
            return;
        }
        self.manager_on.store(true, Ordering::Relaxed);
        let inc = self.incarnation.fetch_add(1, Ordering::Relaxed) + 1;
        {
            let mut guard = self.lock_control();
            let inner = &mut *guard;
            let now = self.now();
            let mut control = ControlPlane::new(ControlConfig {
                sns: Self::plane_sns(&self.cfg),
                incarnation: inc,
                restart_front_ends: false,
            });
            for (class, policy) in &inner.policies {
                control.add_class(*class, policy.clone());
            }
            inner.control = control;
            let view = Self::view_of(inner);
            let mut out = Vec::new();
            inner
                .control
                .on_start(now, MANAGER, NodeId(0), &view, &mut out);
            self.apply_control(inner, out, true, now);
            // Reconcile deaths from the manager-less window, then adopt
            // the survivors into the fresh incarnation's soft state.
            self.process_deaths(inner, now);
            let live: Vec<(u64, WorkerClass, NodeId)> = inner
                .workers
                .iter()
                .filter(|w| w.route.alive.load(Ordering::Relaxed))
                .map(|w| (w.id, w.class, w.node))
                .collect();
            for (id, class, node) in live {
                inner.control.on_register_worker(
                    ComponentId(id),
                    class,
                    node,
                    false,
                    now,
                    &mut Vec::new(),
                );
            }
            let classes: Vec<(WorkerClass, u32)> = inner
                .policies
                .iter()
                .map(|(c, p)| (*c, p.min_workers))
                .collect();
            for (class, min) in classes {
                let view = Self::view_of(inner);
                let mut out = Vec::new();
                inner
                    .control
                    .ensure_workers(&class, min, now, &view, &mut out);
                self.apply_control(inner, out, true, now);
            }
            self.drain_morgue(inner);
            self.refresh_hints(inner);
        }
        let weak = self
            .self_weak
            .get()
            .cloned()
            .expect("RtCluster is built via RtCluster::start");
        let running = Arc::clone(&self.running);
        let manager_on = Arc::clone(&self.manager_on);
        let period = self.cfg.beacon_period;
        let handle = std::thread::Builder::new()
            .name("sns-rt-manager".into())
            .spawn(move || {
                let on = || running.load(Ordering::Relaxed) && manager_on.load(Ordering::Relaxed);
                while on() {
                    // Upgraded per step: don't keep the cluster alive
                    // while parked.
                    let Some(cluster) = weak.upgrade() else {
                        return;
                    };
                    cluster.control_step();
                    drop(cluster);
                    // One beacon period, cut short by `kill_manager`'s
                    // unpark (which follows its flag store, so the
                    // re-check sees it); a spurious wake-up parks again.
                    let next = Instant::now() + period;
                    while on() {
                        let left = next.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            break;
                        }
                        std::thread::park_timeout(left);
                    }
                }
            })
            .expect("spawn manager thread");
        *slot = Some(handle);
    }

    /// Stops everything: the manager thread first, then the workers
    /// (closing their inboxes so queued work is *drained*, not
    /// dropped), then the cluster queue, whose deadline thread answers
    /// what it still holds at their deadlines and exits. A job whose
    /// settlement a [`Completions`] queue holds is left to that queue's
    /// waiter, which answers it with its result. Whatever else is still
    /// outstanding — jobs stranded in dead workers' queues, jobs a
    /// crashed worker took with it — is answered with a typed failure.
    pub fn shutdown(&self) {
        self.running.store(false, Ordering::Relaxed);
        self.kill_manager();
        let mut inner = self.lock_control();
        for w in &inner.workers {
            w.route.inbox.close();
        }
        let mut workers = std::mem::take(&mut inner.workers);
        inner.morgue.clear();
        drop(inner); // don't hold the control lock while draining
        for w in &mut workers {
            if let Some(j) = w.join.take() {
                let _ = j.join();
            }
        }
        self.deadlines.queue.close();
        let deadline_thread = lock(&self.deadline_thread, &self.lock_poisoned).take();
        if let Some(h) = deadline_thread {
            let _ = h.join();
        }
        self.write_routes().workers.clear();
        self.shards.for_each(|_, s| {
            let (held, swept): (BTreeMap<_, _>, BTreeMap<_, _>) =
                std::mem::take(&mut s.ext.outstanding)
                    .into_iter()
                    .partition(|(_, o)| o.held);
            s.ext.outstanding = held;
            for (_, o) in swept {
                o.reply
                    .deliver(JobResult::Failed("cluster is shut down".into()));
            }
        });
    }
}

/// The backend-agnostic harness surface. Inherent methods keep their
/// richer signatures (e.g. [`RtCluster::submit`] returns the reply
/// channel); these implementations adapt them to the narrow trait so
/// chaos plans and invariant checkers drive rt and sim identically.
impl Cluster for RtCluster {
    fn backend(&self) -> &'static str {
        "rt"
    }

    fn submit(&self, class: &str, op: &'static str, input: Payload) {
        let rx = RtCluster::submit(self, class, op, input, None);
        lock(&self.pending, &self.lock_poisoned).push(rx);
    }

    fn settle(&self, budget: Duration) -> SettleStats {
        let pending = std::mem::take(&mut *lock(&self.pending, &self.lock_poisoned));
        let mut stats = SettleStats::default();
        if pending.is_empty() {
            // Nothing to wait for: let wall-clock recovery play out.
            std::thread::sleep(budget);
            return stats;
        }
        let deadline = Instant::now() + budget;
        for rx in pending {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(JobResult::Ok(_)) => stats.answered += 1,
                Ok(JobResult::Failed(_)) | Err(_) => stats.failed += 1,
            }
        }
        stats
    }

    fn workers_of(&self, class: &str) -> usize {
        RtCluster::workers_of(self, class)
    }

    fn crash_worker(&self, class: &str) -> bool {
        RtCluster::crash_worker(self, class)
    }

    fn kill_manager(&self) {
        RtCluster::kill_manager(self);
    }

    fn restart_manager(&self) {
        RtCluster::start_manager(self);
    }

    fn kill_node(&self, which: usize) -> Option<u64> {
        RtCluster::kill_node(self, which)
    }

    fn revive_node(&self, which: usize) -> bool {
        RtCluster::revive_node(self, which)
    }

    fn set_node_slowdown(&self, which: usize, factor: f64) -> bool {
        RtCluster::set_node_slowdown(self, which, factor)
    }

    fn drain_node(&self, which: usize) -> bool {
        RtCluster::drain_node(self, which)
    }

    fn rejoin_node(&self, which: usize, upgraded: bool) -> bool {
        RtCluster::rejoin_node(self, which, upgraded)
    }

    fn set_beacon_blackout(&self, on: bool) {
        RtCluster::set_beacon_blackout(self, on);
    }

    fn monitor_log(&self) -> MonitorLog {
        RtCluster::monitor_log(self)
    }

    fn counter(&self, key: MetricKey) -> u64 {
        RtCluster::counter(self, key)
    }

    fn trace_snapshot(&self) -> Option<TraceLog> {
        RtCluster::trace_snapshot(self)
    }
}

impl Drop for RtCluster {
    fn drop(&mut self) {
        self.running.store(false, Ordering::Relaxed);
        self.deadlines.queue.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_core::msg::Job;
    use sns_core::Blob;

    struct Echo {
        /// Crash on inputs tagged "poison".
        _private: (),
    }

    impl WorkerLogic for Echo {
        fn class(&self) -> WorkerClass {
            "echo".into()
        }
        fn service_time(&mut self, _j: &Job, _n: SimTime, _r: &mut Pcg32) -> Duration {
            Duration::from_millis(5)
        }
        fn process(
            &mut self,
            job: &Job,
            _n: SimTime,
            _r: &mut Pcg32,
        ) -> Result<Payload, WorkerError> {
            let blob = sns_core::payload_as::<Blob>(&job.input).expect("blob");
            if blob.tag == "poison" {
                return Err(WorkerError::Crash);
            }
            Ok(Blob::payload(blob.len / 2, "echoed"))
        }
    }

    fn cluster() -> Arc<RtCluster> {
        let c = RtCluster::start(
            RtConfig::new()
                .with_time_scale(0.05)
                .with_report_period(Duration::from_millis(10))
                .with_beacon_period(Duration::from_millis(20)),
        );
        c.add_workers("echo", 3, || Box::new(Echo { _private: () }));
        c
    }

    #[test]
    fn real_threads_process_real_jobs() {
        let c = cluster();
        let mut receivers = Vec::new();
        for i in 0..50 {
            receivers.push(c.submit("echo", "echo", Blob::payload(1000 + i, "x"), None));
        }
        for rx in receivers {
            match rx.recv_timeout(Duration::from_secs(10)).expect("reply") {
                JobResult::Ok(p) => assert!(p.wire_size() >= 500),
                JobResult::Failed(e) => panic!("job failed: {e}"),
            }
        }
        assert_eq!(c.jobs_done.load(Ordering::Relaxed), 50);
        c.shutdown();
    }

    #[test]
    fn crash_is_detected_and_worker_restarted() {
        let c = cluster();
        assert_eq!(c.workers_of("echo"), 3);
        let rx = c.submit("echo", "echo", Blob::payload(10, "poison"), None);
        // No reply ever comes from a crashed worker.
        assert!(rx.recv_timeout(Duration::from_millis(300)).is_err());
        // The manager notices and restores the population.
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if c.workers_of("echo") == 3 && c.restarts.load(Ordering::Relaxed) >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(c.workers_of("echo"), 3, "process peer restart");
        assert!(c.crashes.load(Ordering::Relaxed) >= 1);
        // And the survivors still serve.
        let rx = c.submit("echo", "echo", Blob::payload(100, "x"), None);
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(5)),
            Ok(JobResult::Ok(_))
        ));
        c.shutdown();
    }

    #[test]
    fn injected_crash_restores_population() {
        let c = cluster();
        assert!(c.crash_worker("echo"), "a live echo worker exists");
        assert!(!c.crash_worker("ghost"), "unknown class has no target");
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if c.workers_of("echo") == 3 && c.crashes.load(Ordering::Relaxed) >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(c.workers_of("echo"), 3);
        assert!(c.crashes.load(Ordering::Relaxed) >= 1);
        assert!(c.restarts.load(Ordering::Relaxed) >= 1);
        c.shutdown();
    }

    #[test]
    fn manager_failover_pauses_then_resumes_restarts() {
        let c = cluster();
        c.kill_manager();
        assert!(c.crash_worker("echo"));
        // With no manager, the dead worker stays dead.
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(c.workers_of("echo"), 2);
        // A new incarnation recovers the population.
        c.start_manager();
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if c.workers_of("echo") == 3 {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(c.workers_of("echo"), 3, "failover restart");
        c.shutdown();
    }

    #[test]
    fn submit_falls_back_when_hinted_worker_died() {
        let c = cluster();
        // Freeze hints, then kill a worker: hints now reference a dead id.
        c.set_beacon_blackout(true);
        c.refresh_hints_now();
        assert!(c.crash_worker("echo"));
        std::thread::sleep(Duration::from_millis(150)); // let it die
                                                        // Every submit must still land on a live worker.
        let receivers: Vec<_> = (0..20)
            .map(|_| c.submit("echo", "echo", Blob::payload(64, "x"), None))
            .collect();
        for rx in receivers {
            assert!(matches!(
                rx.recv_timeout(Duration::from_secs(5)),
                Ok(JobResult::Ok(_))
            ));
        }
        assert_eq!(c.submitted.load(Ordering::Relaxed), 20);
        c.set_beacon_blackout(false);
        c.shutdown();
    }

    #[test]
    fn unknown_class_fails_softly() {
        let c = cluster();
        let rx = c.submit("ghost", "op", Blob::payload(1, "x"), None);
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(1)),
            Ok(JobResult::Failed(_))
        ));
        c.shutdown();
    }

    #[test]
    fn load_spreads_across_threads() {
        let c = cluster();
        let receivers: Vec<_> = (0..60)
            .map(|_| c.submit("echo", "echo", Blob::payload(512, "x"), None))
            .collect();
        for rx in receivers {
            assert!(rx.recv_timeout(Duration::from_secs(10)).is_ok());
        }
        c.shutdown();
    }

    #[test]
    fn node_kill_and_revive_round_trip() {
        let c = RtCluster::start(
            RtConfig::new()
                .with_time_scale(0.05)
                .with_report_period(Duration::from_millis(10))
                .with_beacon_period(Duration::from_millis(20))
                .with_nodes(2),
        );
        c.add_workers("echo", 4, || Box::new(Echo { _private: () }));
        assert_eq!(c.workers_of("echo"), 4);
        let killed = c.kill_node(0).expect("a node is alive");
        assert!(killed >= 1, "node held at least one worker");
        // The survivor node absorbs the class minimum.
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if c.workers_of("echo") == 4 {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(c.workers_of("echo"), 4, "respawned on the surviving node");
        assert!(c.revive_node(0));
        assert!(!c.revive_node(0), "no dead node remains");
        assert!(c.set_node_slowdown(0, 2.0));
        assert!(c.set_node_slowdown(0, 1.0));
        let rx = c.submit("echo", "echo", Blob::payload(64, "x"), None);
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(5)),
            Ok(JobResult::Ok(_))
        ));
        c.shutdown();
    }

    #[test]
    fn monitor_log_records_decision_stream() {
        let c = cluster();
        assert!(c.crash_worker("echo"));
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if c.restarts.load(Ordering::Relaxed) >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        c.shutdown();
        let log = c.monitor_log();
        assert!(log.count("started") >= 1, "manager start logged");
        assert_eq!(log.count("spawned"), 4, "3 bootstrap + 1 restart");
        assert_eq!(log.count("crashed"), 1);
        assert_eq!(log.count("peer_restarted"), 1);
        assert!(c.counter("manager.load_reports") >= 1);
        assert_eq!(c.lock_poisoned.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn settled_jobs_leave_no_driver_state_behind() {
        let c = RtCluster::start(RtConfig::new().with_time_scale(0.0));
        c.add_workers("echo", 2, || Box::new(Echo { _private: () }));
        for _ in 0..100 {
            let window: Vec<_> = (0..100)
                .map(|_| c.submit("echo", "echo", Blob::payload(64, "x"), None))
                .collect();
            for rx in window {
                assert!(matches!(
                    rx.recv_timeout(Duration::from_secs(10)),
                    Ok(JobResult::Ok(_))
                ));
            }
        }
        // A job's entry is removed before its reply is sent, so with
        // every reply in hand nothing may be left — and the job left
        // its worker's gauge before that, so every gauge reads zero.
        c.shards.for_each(|i, s| {
            assert!(
                s.ext.outstanding.is_empty(),
                "shard {i} still tracks {} of 10000 settled jobs",
                s.ext.outstanding.len()
            );
        });
        for (id, route) in &read_routes(&c.routes).workers {
            assert_eq!(route.qlen.load(Ordering::Relaxed), 0, "worker {id}");
        }
        c.shutdown();
    }

    #[test]
    fn a_dropped_cluster_leaves_no_deadline_thread_behind() {
        let c = cluster();
        let rx = c.submit("echo", "echo", Blob::payload(64, "x"), None);
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(5)),
            Ok(JobResult::Ok(_))
        ));
        // The cluster queue is shared by the cluster, its workers and the
        // deadline thread; once all three are gone nothing holds it.
        let queue = Arc::downgrade(&c.deadlines);
        drop(c);
        let deadline = Instant::now() + Duration::from_secs(5);
        while queue.strong_count() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(queue.strong_count(), 0, "a thread still holds the queue");
    }

    #[test]
    fn cluster_trait_drives_rt_end_to_end() {
        let c = cluster();
        let h: &dyn Cluster = &*c;
        assert_eq!(h.backend(), "rt");
        for _ in 0..8 {
            h.submit("echo", "echo", Blob::payload(128, "x"));
        }
        let s = h.settle(Duration::from_secs(20));
        assert_eq!(s.answered, 8, "all trait-submitted jobs answered");
        assert_eq!(s.failed, 0);
        assert_eq!(h.workers_of("echo"), 3);
        assert!(h.counter(MetricKey::new("stub.dispatches")) >= 8);
        c.shutdown();
    }
}
