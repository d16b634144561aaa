//! Executor-contract suite: the properties the deterministic executor
//! and its combinators must hold for async bodies to replay
//! bit-identically. Timers are the production ones — `SvcHandle::nap`
//! tokens — filled the way the sim front end fills them. Failures
//! shrink to a minimal operation sequence via the testkit's
//! choice-stream shrinking (`SNS_TESTKIT_SEED` / `SNS_TESTKIT_CASES`).

use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sns_testkit::{gens, props, tk_assert, tk_assert_eq};

use sns_core::exec::service::{EventOutcome, Hints, SvcHandle, SvcOp};
use sns_core::exec::{race, timeout, BoxFut, Either, Executor};
use sns_core::frontend::Action;
use sns_sim::time::SimTime;

/// Drives bodies' naps like the sim `FrontEnd` does with engine timers:
/// armed naps pop in `(deadline, token)` order, each deadline advancing
/// the clock, filling its tokens and — when someone still waits on one
/// — running the executor.
struct NapDriver {
    ex: Executor,
    svc: SvcHandle,
    now: SimTime,
    /// Naps armed and not yet popped, as `(deadline, token)`.
    armed: Vec<(SimTime, u64)>,
    hints: Arc<Hints>,
    ops: Vec<SvcOp>,
}

impl NapDriver {
    fn new() -> Self {
        NapDriver {
            ex: Executor::new(),
            svc: SvcHandle::new_request(),
            now: SimTime::ZERO,
            armed: Vec::new(),
            hints: Arc::default(),
            ops: Vec::new(),
        }
    }

    /// Spawns a body built on this driver's handle and runs it to its
    /// first wait.
    fn spawn(&mut self, body: impl FnOnce(SvcHandle) -> BoxFut) -> u64 {
        let id = self.ex.spawn(body(self.svc.clone()));
        self.run();
        id
    }

    /// Polls woken tasks, then arms the naps they queued.
    fn run(&mut self) {
        self.svc.sync(self.now, &self.hints, &mut self.ops);
        self.ex.run_ready();
        self.svc.take_ops(&mut self.ops);
        for op in self.ops.drain(..) {
            if let SvcOp::Act(Action::Nap { tag, delay }) = op {
                self.armed.push((self.now.saturating_add(delay), tag));
            }
        }
    }

    /// Pops every nap due at the earliest armed deadline — released
    /// ones included, like stale engine timers popping into nothing —
    /// fills them in token order and runs once. Filling a tie before
    /// the poll (as the rt driver does) leaves it to the combinator's
    /// poll order. False when none remain.
    fn fire_next(&mut self) -> bool {
        let Some(&(due, _)) = self.armed.iter().min() else {
            return false;
        };
        let (mut popped, later): (Vec<_>, Vec<_>) =
            self.armed.drain(..).partition(|&(t, _)| t == due);
        self.armed = later;
        popped.sort_unstable();
        self.now = due;
        let mut woke = false;
        for (_, token) in popped {
            woke |= self.svc.fill(token, EventOutcome::Done);
        }
        if woke {
            self.run();
        }
        true
    }

    /// Fires naps until task `id` finishes; false if it starved.
    fn run_to_end(&mut self, id: u64) -> bool {
        while self.ex.is_live(id) {
            if !self.fire_next() {
                return false;
            }
        }
        true
    }

    /// Whether every nap still armed was released: a fill of its token
    /// finds no one waiting.
    fn released_every_nap(&self) -> bool {
        self.armed
            .iter()
            .all(|&(_, token)| !self.svc.fill(token, EventOutcome::Done))
    }
}

/// The tokens of the naps `svc` queued since the last call.
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

props! {
    /// Poll order is a pure function of wake order: for any interleaving
    /// of wakes and run_ready flushes, tasks are polled in FIFO wake
    /// order with duplicate wakes suppressed — the model below *is* the
    /// spec, and the executor must match it word for word.
    fn poll_order_replays_wake_order(
        words in gens::vec(gens::any_u64(), 1..160),
        n_tasks in gens::u64_in(1..8),
    ) {
        let n = n_tasks as usize;
        let mut ex = Executor::new();
        let polled: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let svcs: Vec<SvcHandle> = (0..n).map(|_| SvcHandle::new_request()).collect();
        for (i, svc) in svcs.iter().enumerate() {
            let svc = svc.clone();
            let log = Arc::clone(&polled);
            ex.spawn(Box::pin(async move {
                // Each nap that resolves marks one poll-after-wake.
                loop {
                    svc.nap(Duration::ZERO).await;
                    log.lock().unwrap().push(i as u64);
                }
            }) as BoxFut);
        }
        ex.run_ready(); // initial polls park every task on a nap
        // The nap each task waits on: re-armed by every poll.
        let mut naps: Vec<u64> = svcs.iter().map(|s| armed_naps(s)[0]).collect();

        // Model: FIFO wake queue with duplicate suppression; a flush
        // polls each queued task once, in wake order.
        let mut queue: VecDeque<u64> = VecDeque::new();
        let mut queued: BTreeSet<u64> = BTreeSet::new();
        let mut expected: Vec<u64> = Vec::new();
        for &w in &words {
            if w % 4 == 0 {
                ex.run_ready();
                expected.extend(queue.drain(..));
                queued.clear();
                for (t, svc) in svcs.iter().enumerate() {
                    if let Some(&token) = armed_naps(svc).last() {
                        naps[t] = token;
                    }
                }
            } else {
                let t = (w >> 2) % n_tasks;
                // A nap token is single-shot: a second wake before the
                // poll finds it already filled and queues nothing.
                let woke = svcs[t as usize].fill(naps[t as usize], EventOutcome::Done);
                tk_assert_eq!(woke, queued.insert(t));
                if woke {
                    queue.push_back(t);
                }
            }
        }
        ex.run_ready();
        expected.extend(queue.drain(..));
        tk_assert_eq!(*polled.lock().unwrap(), expected);
    }

    /// Timeout truth table under engine-ordered nap delivery: the body
    /// (a nap) beats the deadline iff it expires no later, the loser is
    /// dropped, and every nap left armed at the end of a round is
    /// released — cancellation leaks nothing, no matter the delays.
    fn timeout_resolves_by_deadline_and_cancels_cleanly(
        rounds in gens::vec(gens::any_u64(), 1..40),
    ) {
        let mut d = NapDriver::new();
        for (i, &w) in rounds.iter().enumerate() {
            let body_ms = w % 512;
            let deadline_ms = (w >> 9) % 512;
            let out: Arc<Mutex<Option<bool>>> = Arc::new(Mutex::new(None));
            let sink = Arc::clone(&out);
            let id = d.spawn(|svc| Box::pin(async move {
                let body = svc.nap(Duration::from_millis(body_ms));
                let deadline = svc.nap(Duration::from_millis(deadline_ms));
                *sink.lock().unwrap() = Some(timeout(body, deadline).await.is_some());
            }));
            tk_assert!(d.run_to_end(id), "task starved at round {i}");
            // Ties go to the body: both naps fill before the poll, and
            // race polls the body first.
            tk_assert_eq!(out.lock().unwrap().take(), Some(body_ms <= deadline_ms));
            tk_assert!(d.released_every_nap(), "round {i} leaked a nap");
        }
    }

    /// Race truth table: first expiry wins (left side on ties), the
    /// loser's nap is released by the drop — its already-armed timer
    /// pops into nothing, never a wake.
    fn race_picks_the_earlier_side_and_drops_the_loser(
        rounds in gens::vec(gens::any_u64(), 1..40),
    ) {
        let mut d = NapDriver::new();
        for (i, &w) in rounds.iter().enumerate() {
            let a_ms = w % 512;
            let b_ms = (w >> 9) % 512;
            let won: Arc<Mutex<Option<bool>>> = Arc::new(Mutex::new(None));
            let sink = Arc::clone(&won);
            let id = d.spawn(|svc| Box::pin(async move {
                let a = svc.nap(Duration::from_millis(a_ms));
                let b = svc.nap(Duration::from_millis(b_ms));
                let left = matches!(race(a, b).await, Either::Left(_));
                *sink.lock().unwrap() = Some(left);
            }));
            tk_assert!(d.run_to_end(id), "race starved at round {i}");
            tk_assert_eq!(won.lock().unwrap().take(), Some(a_ms <= b_ms));
            tk_assert!(d.released_every_nap(), "loser leaked a nap at round {i}");
        }
    }
}

/// Integration shape of the hedged distill stage: primary races a
/// delayed hedge under a give-up deadline, driven purely by
/// engine-ordered nap pops. The winner flips with the delays; every nap
/// the losers armed is released either way.
#[test]
fn hedged_race_under_timeout_resolves_deterministically() {
    // (primary_ms, hedge_after_ms, give_up_ms) → expect Some(left?)
    // (None = gave up).
    let cases = [
        (50u64, 200u64, 1_000u64, Some(true)), // primary wins
        (400, 100, 1_000, Some(false)),        // hedge fires and wins
        (900, 800, 700, None),                 // neither beats give-up
    ];
    for (primary_ms, hedge_ms, give_up_ms, want) in cases {
        let mut d = NapDriver::new();
        let out: Arc<Mutex<Option<Option<bool>>>> = Arc::new(Mutex::new(None));
        let sink = Arc::clone(&out);
        let id = d.spawn(|svc| {
            Box::pin(async move {
                let primary = svc.nap(Duration::from_millis(primary_ms));
                let hedge: BoxFut = Box::pin({
                    let svc = svc.clone();
                    async move {
                        svc.nap(Duration::from_millis(hedge_ms)).await;
                    }
                });
                let give_up = svc.nap(Duration::from_millis(give_up_ms));
                let r = timeout(race(primary, hedge), give_up).await;
                *sink.lock().unwrap() = Some(r.map(|e| matches!(e, Either::Left(_))));
            })
        });
        assert!(d.run_to_end(id), "stage starved");
        assert_eq!(
            out.lock().unwrap().take(),
            Some(want),
            "case ({primary_ms},{hedge_ms},{give_up_ms})"
        );
        assert!(
            d.released_every_nap(),
            "cancellation must release every nap"
        );
    }
}
