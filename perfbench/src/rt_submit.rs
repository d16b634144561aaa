//! `rt_submit`: zero-service jobs through a warm threaded cluster.
//!
//! One submitter thread, closed loop, two phases per cluster: w16 keeps
//! sixteen jobs in flight (per-job cost → `throughput_per_s`), w1 keeps
//! one (wake latency → `lat_p50_us`/`lat_p95_us`). The cluster is
//! rebuilt several times per run so `setup_s` is a median; nothing is
//! timed before a probe job has completed (see `warm`).

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sns_core::msg::{Job, JobResult};
use sns_core::slo::SloAggregator;
use sns_core::worker::{WorkerError, WorkerLogic};
use sns_core::{Blob, Payload, WorkerClass};
use sns_rt::{RtCluster, RtConfig};
use sns_sim::rng::Pcg32;
use sns_sim::time::SimTime;

use crate::load::{Budget, Opts, Rng};
use crate::report::{mean, median, peak_rss_mb, set_latency, tail, Report};
use crate::spans::SpanSink;

const CLASS: &str = "nop";
const WORKERS: usize = 2;
const IN_FLIGHT: usize = 16;
/// Clusters built per run. `setup_s` is the median over them, and so,
/// in effect, is the thread placement: on a 2-core VM a cluster whose
/// submitter shares a core with a worker runs twice as fast for its
/// whole life, so one cluster per run would make the run bimodal.
const CLUSTERS: usize = 8;
const W16_ROUND: u64 = 25_000;
const W1_ROUND: u64 = 2_500;
const WARM_JOBS: u64 = 2_000;
/// Rounds per cluster for each second of `--seconds`. The work of a
/// run is fixed by the command line, not by how fast the host gets
/// through it: a cluster's resident set grows by about 33 bytes per job
/// it has served until it shuts down, so `peak_rss_mb` follows the job
/// count, and a cluster in the fast placement would otherwise serve
/// twice the jobs. At ~158 k jobs/s and ~40 µs a round trip, w16 fills
/// half of `--seconds` and w1 four tenths.
const W16_ROUNDS_PER_S: f64 = 0.4;
const W1_ROUNDS_PER_S: f64 = 0.5;

fn rounds_for(o: &Opts, per_s: f64) -> u64 {
    (o.seconds * per_s).round().max(1.0) as u64
}

/// Jobs of the traced w1 phase (count-bounded: every job leaves 3 spans).
const TRACED_W1: u64 = 20_000;

/// Replies with a blob as large as the input; no service time.
struct Nop;

impl WorkerLogic for Nop {
    fn class(&self) -> WorkerClass {
        CLASS.into()
    }
    fn service_time(&mut self, _: &Job, _: SimTime, _: &mut Pcg32) -> Duration {
        Duration::ZERO
    }
    fn process(&mut self, job: &Job, _: SimTime, _: &mut Pcg32) -> Result<Payload, WorkerError> {
        Ok(Blob::payload(job.input.wire_size(), "done"))
    }
}

/// Seeded inputs: payloads of 64..4160 bytes, shared by reference so
/// the generator does no allocation per job.
pub fn payloads(seed: u64) -> Vec<Payload> {
    let mut rng = Rng::new(seed);
    (0..1024)
        .map(|_| Blob::payload(64 + rng.below(4096), "x"))
        .collect()
}

/// A cluster that has answered a probe, with the ledger of what the
/// benchmark has pushed through it.
pub struct Warm {
    pub cluster: Arc<RtCluster>,
    pub setup_s: f64,
    /// Part of `setup_s` spent waiting for the first probe reply, i.e.
    /// for hints to reach the dispatch shards.
    pub first_hint_wait_ms: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Builds a cluster and warms it: all workers registered, a probe job
/// answered (so hints are published), then `warm_jobs` more pushed
/// through untimed. Everything here lands in `setup_s`, never in
/// throughput or latency.
pub fn warm(
    cfg: RtConfig,
    classes: &[(&'static str, usize)],
    add: impl Fn(&RtCluster),
    probe: impl Fn(&RtCluster) -> bool,
    warm_jobs: u64,
) -> Warm {
    let t0 = Instant::now();
    let cluster = RtCluster::start(cfg);
    add(&cluster);
    let deadline = t0 + Duration::from_secs(20);
    while classes.iter().any(|(c, n)| cluster.workers_of(c) < *n) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
    let t_hint = Instant::now();
    // A refused probe means no hint yet: retry until one lands. Those
    // refusals are the warm-up working, so they are not in the ledger.
    while !probe(&cluster) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(500));
    }
    let first_hint_wait_ms = t_hint.elapsed().as_secs_f64() * 1e3;
    let failed = (0..warm_jobs).filter(|_| !probe(&cluster)).count() as u64;
    Warm {
        cluster,
        setup_s: t0.elapsed().as_secs_f64(),
        first_hint_wait_ms,
        attempted: 1 + warm_jobs,
        failed,
    }
}

fn submit(c: &RtCluster, input: &Payload) -> Receiver<JobResult> {
    c.submit(CLASS, "op", Arc::clone(input), None)
}

/// Whether the reply is `Ok` with the expected payload size.
fn reply_ok(rx: &Receiver<JobResult>, want: u64) -> bool {
    matches!(
        rx.recv_timeout(Duration::from_secs(30)),
        Ok(JobResult::Ok(p)) if p.wire_size() == want
    )
}

fn start(o: &Opts, inputs: &[Payload], tracing: bool) -> Warm {
    let cfg = RtConfig::new()
        .with_time_scale(0.0)
        .with_seed(o.seed)
        .with_tracing(tracing);
    warm(
        cfg,
        &[(CLASS, WORKERS)],
        |c| c.add_workers(CLASS, WORKERS, || Box::new(Nop)),
        |c| reply_ok(&submit(c, &inputs[0]), inputs[0].wire_size()),
        o.size(WARM_JOBS),
    )
}

/// One w16 round: `jobs` jobs, sixteen in flight. Returns jobs/s.
fn w16_round(w: &mut Warm, inputs: &[Payload], jobs: u64) -> f64 {
    let mut in_flight: VecDeque<(Receiver<JobResult>, u64)> = VecDeque::with_capacity(IN_FLIGHT);
    let t0 = Instant::now();
    for i in 0..jobs {
        if in_flight.len() == IN_FLIGHT {
            let (rx, want) = in_flight.pop_front().expect("non-empty");
            w.failed += u64::from(!reply_ok(&rx, want));
        }
        let input = &inputs[i as usize % inputs.len()];
        in_flight.push_back((submit(&w.cluster, input), input.wire_size()));
    }
    for (rx, want) in in_flight {
        w.failed += u64::from(!reply_ok(&rx, want));
    }
    w.attempted += jobs;
    jobs as f64 / t0.elapsed().as_secs_f64()
}

/// One w1 job: the instants before `submit`, after it returned and
/// once the reply was in, and whether the reply was right.
fn w1_job(c: &RtCluster, input: &Payload) -> ([Instant; 3], bool) {
    let t0 = Instant::now();
    let rx = submit(c, input);
    let t1 = Instant::now();
    let ok = reply_ok(&rx, input.wire_size());
    ([t0, t1, Instant::now()], ok)
}

/// One w1 round: `jobs` jobs, one in flight; `each` sees every job's
/// three instants.
fn w1_round(w: &mut Warm, inputs: &[Payload], jobs: u64, mut each: impl FnMut([Instant; 3])) {
    for i in 0..jobs {
        let (stamps, ok) = w1_job(&w.cluster, &inputs[i as usize % inputs.len()]);
        w.failed += u64::from(!ok);
        each(stamps);
    }
    w.attempted += jobs;
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Shuts the cluster down (timed) and checks conservation: every job
/// the benchmark attempted was accepted once and completed once,
/// `per_request` jobs to a request.
pub fn close(w: Warm, per_request: u64, r: &mut Report) -> (Arc<RtCluster>, f64) {
    let t0 = Instant::now();
    w.cluster.shutdown();
    let shutdown_ms = t0.elapsed().as_secs_f64() * 1e3;
    let done = w.cluster.jobs_done.load(Ordering::Relaxed);
    let submitted = w.cluster.submitted.load(Ordering::Relaxed);
    r.check(
        format!(
            "jobs_done {done} == submitted {submitted} == {per_request} x {} attempted",
            w.attempted
        ),
        done == submitted && submitted == w.attempted * per_request,
    );
    r.attempted += w.attempted;
    r.failed += w.failed;
    (w.cluster, shutdown_ms)
}

/// The rt layer's share of a traced run: span-derived queue / service /
/// net means from the cluster's own recorder, and its counters.
pub fn rt_layer_metrics(c: &RtCluster, slo: &SloAggregator, r: &mut Report) {
    let rows = slo.rows();
    for (metric, part) in [
        ("rt.queue_ns", "slo/breakdown/queue"),
        ("rt.service_ns", "slo/breakdown/service"),
        ("rt.net_ns", "slo/breakdown/net"),
    ] {
        let row = rows.iter().find(|row| row.bench == part);
        r.set(metric, row.map_or(0.0, |row| row.mean_ns));
    }
    for (metric, cell) in [
        ("rt.jobs_submitted", &c.submitted),
        ("rt.jobs_done", &c.jobs_done),
        ("rt.redispatched", &c.redispatched),
        ("rt.lock_poisoned", &c.lock_poisoned),
    ] {
        r.set(metric, cell.load(Ordering::Relaxed) as f64);
    }
    for (metric, key) in [
        ("rt.stub.dispatches", "stub.dispatches"),
        ("rt.stub.retries", "stub.retries"),
        ("rt.stub.timeouts", "stub.timeouts"),
        ("rt.stub.gave_up", "stub.gave_up"),
    ] {
        r.set(metric, c.counter(key) as f64);
    }
}

pub fn run(o: &Opts, sink: &mut SpanSink, r: &mut Report) {
    let inputs = payloads(o.seed);
    if o.trace {
        traced(o, &inputs, r, sink);
        return;
    }
    let mut setups = Vec::new();
    let mut rounds = Vec::new();
    let (w16_rounds, w1_rounds) = (
        rounds_for(o, W16_ROUNDS_PER_S),
        rounds_for(o, W1_ROUNDS_PER_S),
    );
    // Round trips are reduced per cluster and the run reports the median
    // cluster, so a stretch of host interference that fattens one
    // cluster's tail does not set the run's p95. One buffer, written
    // once here, holds every cluster's samples in turn.
    let mut rtt = vec![1.0f64; (w1_rounds * o.size(W1_ROUND)) as usize];
    let mut tails = Vec::new();
    for _ in 0..CLUSTERS {
        let mut w = start(o, &inputs, false);
        setups.push(w.setup_s);
        for _ in 0..w16_rounds {
            rounds.push(w16_round(&mut w, &inputs, o.size(W16_ROUND)));
        }
        rtt.clear();
        for _ in 0..w1_rounds {
            w1_round(&mut w, &inputs, o.size(W1_ROUND), |[t0, _, t2]| {
                rtt.push(us(t2 - t0));
            });
        }
        tails.push(tail(&mut rtt));
        close(w, 1, r);
    }
    r.note(format!(
        "{} w16 rounds of {} jobs, {} clusters",
        rounds.len(),
        o.size(W16_ROUND),
        CLUSTERS
    ));
    r.set("throughput_per_s", median(&mut rounds));
    let across = |k: usize| median(&mut tails.iter().map(|t| t[k]).collect::<Vec<_>>());
    set_latency(
        r,
        [across(0), across(1), across(2)],
        rtt.len(),
        "host",
        o.quick,
    );
    r.set("setup_s", median(&mut setups));
    r.set("peak_rss_mb", peak_rss_mb());
}

/// w16 rounds on one cluster until `budget` is used (at least one);
/// returns the cluster's median jobs/s.
fn w16_median(w: &mut Warm, o: &Opts, inputs: &[Payload], budget: Duration) -> f64 {
    let budget = Budget::new(budget);
    let mut rounds = Vec::new();
    loop {
        rounds.push(w16_round(w, inputs, o.size(W16_ROUND)));
        if !budget.left() {
            return median(&mut rounds);
        }
    }
}

/// The traced run: untraced and traced clusters alternate (a cluster
/// keeps the thread placement it was born with, so one of each would
/// compare placements, not recorders), then the last traced cluster
/// runs w1 with the benchmark timing `submit` itself.
fn traced(o: &Opts, inputs: &[Payload], r: &mut Report, sink: &mut SpanSink) {
    let (mut base_tp, mut traced_tp) = (Vec::new(), Vec::new());
    let per_cluster = o.share(0.5 / CLUSTERS as f64);
    let pairs = CLUSTERS / 2;
    let mut kept = None;
    for k in 0..pairs {
        let mut base = start(o, inputs, false);
        base_tp.push(w16_median(&mut base, o, inputs, per_cluster));
        close(base, 1, r);
        let mut w = start(o, inputs, true);
        traced_tp.push(w16_median(&mut w, o, inputs, per_cluster));
        if k + 1 == pairs {
            kept = Some(w);
        } else {
            close(w, 1, r);
        }
    }
    let mut w = kept.expect("at least one traced cluster");
    r.set("rt.first_hint_wait_ms", w.first_hint_wait_ms);
    // Replies arrive before the worker settles the job, so let the
    // last w16 spans land before marking where the w1 spans begin.
    std::thread::sleep(Duration::from_millis(2));
    let before_w1 = w
        .cluster
        .trace_snapshot()
        .map_or(0, |log| log.spans().len());
    let origin = Instant::now();
    let mut stamps = Vec::new();
    let t0 = sink.now_ns();
    w1_round(&mut w, inputs, o.size(TRACED_W1), |s| stamps.push(s));
    sink.bench_span("rt_submit.w1_traced", t0);

    let (c, shutdown_ms) = close(w, 1, r);
    r.set("rt.shutdown_ms", shutdown_ms);
    let log = c.trace_snapshot().expect("tracing was configured on");
    let w1_spans = &log.spans()[before_w1..];
    let mut slo = SloAggregator::new(1);
    for s in w1_spans {
        slo.observe(s);
    }
    sink.program_spans("rt_submit", log.spans());
    rt_layer_metrics(&c, &slo, r);
    r.check(
        "rt.service_ns is the configured zero service (< 5 us)",
        r.get("rt.service_ns").is_some_and(|v| v < 5_000.0),
    );

    let ns = |t: Instant| (t - origin).as_nanos() as i128;
    let submit_call: Vec<f64> = stamps
        .iter()
        .map(|[t0, t1, _]| us(*t1 - *t0) * 1e3)
        .collect();
    let rtt: Vec<f64> = stamps
        .iter()
        .map(|[t0, _, t2]| us(*t2 - *t0) * 1e3)
        .collect();
    r.set("rt.submit_call_ns", mean(&submit_call));

    // The round trip, tiled from outside: the program's job span (net +
    // queue + service: dispatch stamp → worker settles) and, after it,
    // the submitter waking on its reply. w1 jobs are strictly
    // sequential, so the job spans sorted by start are the jobs in
    // order; the two clocks are aligned by the tightest job (a span
    // cannot start before its `submit` was called). The wall inside
    // `submit` is not a tile: the job span starts inside it and its
    // tail, waking the worker, runs beside the queue wait.
    let mut jobs: Vec<_> = w1_spans.iter().filter(|s| s.id.kind == "job").collect();
    jobs.sort_by_key(|s| s.start);
    r.check(
        format!(
            "{} job spans for {} traced w1 jobs",
            jobs.len(),
            stamps.len()
        ),
        jobs.len() == stamps.len(),
    );
    if jobs.len() == stamps.len() && !jobs.is_empty() {
        let offset = stamps
            .iter()
            .zip(&jobs)
            .map(|([t0, _, _], s)| ns(*t0) - i128::from(s.start.as_nanos()))
            .max()
            .expect("non-empty");
        let reply_wake: Vec<f64> = stamps
            .iter()
            .zip(&jobs)
            .map(|([_, _, t2], s)| (ns(*t2) - (i128::from(s.end.as_nanos()) + offset)) as f64)
            .collect();
        // Measured in situ, so the stand-alone probe is skipped.
        r.set("rt.reply.wake_ns", mean(&reply_wake));
        let tiled: f64 = ["rt.queue_ns", "rt.service_ns", "rt.net_ns"]
            .iter()
            .filter_map(|m| r.get(m))
            .sum();
        r.set(
            "rt.unexplained_share",
            (1.0 - (tiled + mean(&reply_wake)) / mean(&rtt)).abs(),
        );
    }
    r.note(format!(
        "w1 traced: mean rtt {:.0} ns over {} jobs",
        mean(&rtt),
        stamps.len()
    ));
    let (base_tp, traced_tp) = (median(&mut base_tp), median(&mut traced_tp));
    r.set("trace.overhead_share", 1.0 - traced_tp / base_tp);
    r.note(format!(
        "w16 untraced {base_tp:.0} jobs/s, traced {traced_tp:.0} jobs/s (medians over {pairs} clusters each)"
    ));
}
