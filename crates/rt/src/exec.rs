//! Wall-clock driver for async service bodies: the **same futures**
//! the sim front end polls under virtual time, polled here on real
//! threads against a live [`RtCluster`].
//!
//! The split mirrors the sim front end exactly — only the axis changes:
//!
//! | concern            | sim (`FrontEnd`)             | rt (this driver)                 |
//! |--------------------|------------------------------|----------------------------------|
//! | clock              | `ctx.now()` at each poll     | the cluster's clock (span axis)  |
//! | hint snapshot      | stub hints, per version      | class populations, per poll      |
//! | `Action::Dispatch` | framework lottery dispatch   | [`RtCluster::submit_tagged`]     |
//! | `Action::Nap`      | engine timer                 | deadline = completion-queue wait |
//! | wake-up            | engine event delivery        | completion queue (worker's send) |
//!
//! Every dispatch of one [`serve`] call answers onto that call's own
//! completion queue as `(token, JobResult)`, and the front-end thread
//! blocks on the queue until the nearest nap deadline — the paper's
//! front-end thread blocked on its workers' replies (§3.1.2). A reply
//! wakes it the instant the worker sends it, a nap wakes it at its
//! deadline, and nothing in between is polled.
//!
//! `Action::DispatchTo` (pinned, cache-ring routing) has no rt
//! analogue — the live cluster routes every job through the shared
//! dispatch plane — so it degrades to a class dispatch: same worker
//! class, plane-chosen replica. Bodies that pin for *affinity* still
//! work; bodies that pin for *correctness* should shard by class.

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use sns_core::exec::service::{AsyncService, EventOutcome, SvcHandle, SvcOp};
use sns_core::exec::Executor;
use sns_core::frontend::Action;
use sns_core::msg::{ClientRequest, JobResult};
use sns_core::Payload;
use sns_sim::ComponentId;

use crate::{sleep_until, RtCluster};

/// The served request's outcome plus the stats the body emitted (the
/// sim front end writes these into the engine stats hub; here the
/// caller aggregates them).
#[derive(Debug)]
pub struct ServeOutcome {
    /// The body's reply.
    pub result: Result<Payload, String>,
    /// Whether the body flagged the answer as degraded (BASE).
    pub degraded: bool,
    /// Counters the body incremented, by key.
    pub stats: BTreeMap<&'static str, u64>,
}

/// Serves one request: polls the body to completion against the live
/// cluster, blocking the calling thread (run one request per thread,
/// like the paper's FE thread pool).
pub fn serve<S: AsyncService>(
    cluster: &RtCluster,
    svc: &mut S,
    request: ClientRequest,
) -> ServeOutcome {
    let handle = SvcHandle::new_request();
    let hint_classes = svc.hint_classes();
    let fut = svc.handle(Arc::new(request), handle.clone());
    let mut exec = Executor::new();
    let root = exec.spawn(fut);

    // The completion queue: every dispatch of this call answers here,
    // tagged with the token its body awaits. The cluster answers each
    // accepted submit exactly once, so `in_flight` counts what may
    // still arrive.
    let (done_tx, done_rx) = mpsc::channel::<(u64, JobResult)>();
    let mut in_flight = 0usize;
    let mut naps: Vec<(u64, Instant)> = Vec::new();
    let mut stats: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut degraded = false;
    let mut reply: Option<Result<Payload, String>> = None;

    let mut hints = Arc::default();
    let mut ops = Vec::new();
    let stalled = loop {
        // Hint snapshot: rt reports class populations, not identities;
        // synthesise stable ids so membership-sensitive bodies (ring
        // sizing, is-the-profile-db-up checks) see the right count.
        if !hint_classes.is_empty() {
            let synth = hint_classes.iter().map(|c| {
                let n = cluster.workers_of(c.name()) as u64;
                (c.clone(), (0..n).map(ComponentId).collect())
            });
            hints = Arc::new(synth.collect());
        }
        handle.sync(cluster.now(), &hints, &mut ops);
        exec.run_ready();
        handle.take_ops(&mut ops);
        for op in ops.drain(..) {
            match op {
                SvcOp::Incr(key, n) => *stats.entry(key).or_insert(0) += n,
                SvcOp::Observe(..) | SvcOp::Sample(..) => {}
                SvcOp::Act(act) => match act {
                    Action::Dispatch {
                        tag,
                        class,
                        op,
                        input,
                        profile,
                    }
                    | Action::DispatchTo {
                        tag,
                        class,
                        op,
                        input,
                        profile,
                        ..
                    } => {
                        cluster.submit_tagged(class.name(), &op, input, profile, tag, &done_tx);
                        in_flight += 1;
                    }
                    Action::Compute { tag, cost } => naps.push((tag, Instant::now() + cost)),
                    Action::Nap { tag, delay } => naps.push((tag, Instant::now() + delay)),
                    Action::MarkDegraded => degraded = true,
                    Action::Reply(r) => reply = reply.or(Some(r)),
                },
            }
        }
        if !exec.is_live(root) {
            break false;
        }

        // Block until the next event: a reply the moment its worker
        // sends it, or the nearest nap deadline — on time, the way a
        // worker meets its service deadline. Filled slots wake the
        // body, so loop straight back into run_ready.
        let next_nap = naps.iter().map(|&(_, deadline)| deadline).min();
        let first = match next_nap {
            Some(deadline) => sleep_until(deadline, |d| done_rx.recv_timeout(d).ok()),
            None if in_flight > 0 => done_rx.recv().ok(),
            // Nothing in flight and no timer armed: no event can ever
            // wake the body again.
            None => break true,
        };
        for (token, result) in first.into_iter().chain(done_rx.try_iter()) {
            in_flight -= 1;
            handle.fill(token, EventOutcome::Reply(result));
        }
        let now = Instant::now();
        naps.retain(|&(token, deadline)| {
            if deadline <= now {
                handle.fill(token, EventOutcome::Done);
                false
            } else {
                true
            }
        });
    };

    let result = if handle.replied() {
        reply.unwrap_or(Err("reply action lost".into()))
    } else if stalled {
        Err("service body stalled: nothing in flight and no timer armed".into())
    } else {
        *stats.entry("exec.body_no_reply").or_insert(0) += 1;
        Err("service body returned without replying".into())
    };
    ServeOutcome {
        result,
        degraded,
        stats,
    }
}
