//! `rt_pipeline`: 3-source TACC pipeline requests served by
//! `sns_rt::exec::serve` on two front-end threads against real TACC
//! workers whose `process` is kept and whose `service_time` is fixed
//! (random origin penalties made the p95 swing in a probe).
//!
//! Open loop first: a seeded Poisson schedule at 25 req/s, each request
//! timed from the instant it was due (→ `lat_p50_us`, `lat_p95_us`).
//! Then a closed loop, both front ends back to back
//! (→ `throughput_per_s`).

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sns_core::msg::{ClientRequest, Job};
use sns_core::slo::SloAggregator;
use sns_core::worker::{WorkerError, WorkerLogic};
use sns_core::{Payload, WorkerClass};
use sns_distillers::{HtmlMunger, MetasearchAggregator};
use sns_rt::exec::serve;
use sns_rt::{RtCluster, RtConfig};
use sns_sim::rng::Pcg32;
use sns_sim::time::SimTime;
use sns_tacc::worker::TaccWorkerHost;
use sns_tacc::{FetchRequest, OriginServer, PipelineConfig, PipelineJob, PipelineService};
use sns_workload::MimeType;

use crate::load::{poisson_schedule, Budget, Opts, Rng};
use crate::report::{mean, median, peak_rss_mb, percentile, set_latency, sort, tail, Report};
use crate::rt_submit::{self, warm, Warm};
use crate::spans::SpanSink;

const FE_THREADS: usize = 2;
/// An eighth of what the two front ends sustain back to back, so a
/// request rarely finds both busy and `lat_*` is the request path
/// itself. At 50 and 100 req/s the p95 is mostly the wait for a front
/// end, which follows how the seed's arrivals bunch: over ten seeds it
/// spread 0.07 to 0.12 of its median, against 0.02 here.
const RATE: f64 = 25.0;
const SOURCES: usize = 3;
/// Clusters built per run: `setup_s` is the median over them.
const CLUSTERS: usize = 3;
const WARM_REQUESTS: u64 = 20;
/// Shares of `--seconds`: the open loop gets most of it because its p95
/// is the noisiest number of the run (it moves with how the seed's
/// arrivals happen to bunch); closed-loop throughput settles in a
/// fraction of a second.
const OPEN_SHARE: f64 = 0.85;
const CLOSED_SHARE: f64 = 0.1;
const CLOSED_ROUNDS: usize = 2;
const FLOOR_REQUESTS: u64 = 200;

const ORIGIN_SERVICE: Duration = Duration::from_millis(1);
const DISTILL_SERVICE: Duration = Duration::from_millis(1);
const AGGREGATE_SERVICE: Duration = Duration::from_micros(500);

/// A real worker with its service time pinned: `process` does the
/// worker's own work, the modelled (slept) service is constant.
struct Fixed {
    inner: Box<dyn WorkerLogic>,
    service: Duration,
}

impl WorkerLogic for Fixed {
    fn class(&self) -> WorkerClass {
        self.inner.class()
    }
    fn service_time(&mut self, _: &Job, _: SimTime, _: &mut Pcg32) -> Duration {
        self.service
    }
    fn process(
        &mut self,
        job: &Job,
        now: SimTime,
        rng: &mut Pcg32,
    ) -> Result<Payload, WorkerError> {
        self.inner.process(job, now, rng)
    }
}

fn add_workers(c: &RtCluster, scale: u32) {
    c.add_workers(OriginServer::CLASS, 3, move || {
        Box::new(Fixed {
            inner: Box::new(OriginServer::new()),
            service: ORIGIN_SERVICE * scale,
        })
    });
    c.add_workers("distiller/html", 3, move || {
        Box::new(Fixed {
            inner: Box::new(TaccWorkerHost::transformer(
                Box::new(HtmlMunger::new()),
                BTreeMap::new(),
            )),
            service: DISTILL_SERVICE * scale,
        })
    });
    c.add_workers("aggregator/metasearch", 1, move || {
        Box::new(Fixed {
            inner: Box::new(TaccWorkerHost::aggregator(
                Box::new(MetasearchAggregator::new()),
                BTreeMap::new(),
            )),
            service: AGGREGATE_SERVICE * scale,
        })
    });
}

const ROSTER: &[(&str, usize)] = &[
    (OriginServer::CLASS, 3),
    ("distiller/html", 3),
    ("aggregator/metasearch", 1),
];

fn service() -> PipelineService {
    PipelineService::new(PipelineConfig {
        stages: vec!["html".into()],
        aggregator: Some("metasearch".into()),
        give_up: Duration::from_secs(10),
        hedge_after: Duration::from_secs(5),
        cache_final: false, // no cache class in this roster
    })
}

/// Seeded inputs: 64 distinct 3-source jobs, pages of 8..24 KiB.
fn jobs(seed: u64) -> Vec<Payload> {
    let mut rng = Rng::new(seed);
    (0..64)
        .map(|j| {
            let q = rng.below(1_000_000);
            let job: Payload = Arc::new(PipelineJob {
                sources: (0..SOURCES)
                    .map(|e| FetchRequest {
                        url: format!("http://engine{e}/results?q={q}"),
                        mime: MimeType::Html,
                        size: 8 * 1024 + rng.below(16 * 1024),
                    })
                    .collect(),
                args: BTreeMap::from([
                    ("query".to_string(), format!("query {q} {j}")),
                    ("max_results".to_string(), "10".to_string()),
                ]),
            });
            job
        })
        .collect()
}

/// Serves request `id`; true when it came back aggregated, non-empty
/// and not degraded.
fn serve_ok(c: &RtCluster, svc: &mut PipelineService, inputs: &[Payload], id: u64) -> bool {
    let out = serve(
        c,
        svc,
        ClientRequest {
            id,
            user: "perfbench".into(),
            url: format!("transend://pipeline?q={id}"),
            body: Some(Arc::clone(&inputs[id as usize % inputs.len()])),
        },
    );
    !out.degraded
        && out.stats.get("tacc.pipe_aggregated") == Some(&1)
        && matches!(&out.result, Ok(p) if p.wire_size() > 0)
}

fn start(o: &Opts, inputs: &[Payload], tracing: bool, scale: u32) -> Warm {
    let cfg = RtConfig::new()
        .with_time_scale(1.0)
        .with_seed(o.seed)
        .with_tracing(tracing);
    let svc = Mutex::new(service());
    let next = std::sync::atomic::AtomicU64::new(0);
    warm(
        cfg,
        ROSTER,
        |c| add_workers(c, scale),
        |c| {
            let id = next.fetch_add(1, Ordering::Relaxed);
            serve_ok(c, &mut svc.lock().expect("probe lock"), inputs, id)
        },
        o.size(WARM_REQUESTS),
    )
}

/// What the front-end threads timed for one open-loop request.
struct Timing {
    /// Due instant → reply.
    latency_us: f64,
    /// Due instant → a front-end thread picked it up.
    fe_wait_ns: f64,
    /// Wall of `exec::serve`.
    serve_ns: f64,
}

#[derive(Default)]
struct Queue {
    items: VecDeque<(Instant, u64)>,
    closed: bool,
}

/// Sleeps most of the way, spins the last stretch, so the generator is
/// not a scheduler tick late on every request.
fn wait_until(t: Instant) {
    loop {
        let left = t.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(300));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Open loop: one generator thread (this one) releases requests on the
/// seeded schedule; `FE_THREADS` threads serve them. Returns the
/// timings and how late each release was (µs).
fn open_loop(
    w: &mut Warm,
    inputs: &[Payload],
    seed: u64,
    horizon: Duration,
) -> (Vec<Timing>, Vec<f64>) {
    let schedule = poisson_schedule(seed, RATE, horizon);
    let queue = (Mutex::new(Queue::default()), Condvar::new());
    let mut late_us = Vec::with_capacity(schedule.len());
    let mut timings = Vec::with_capacity(schedule.len());
    let mut failed = 0u64;
    let cluster = &w.cluster;
    std::thread::scope(|s| {
        let fes: Vec<_> = (0..FE_THREADS)
            .map(|_| {
                s.spawn(|| {
                    let mut svc = service();
                    let mut mine = Vec::new();
                    let mut bad = 0u64;
                    loop {
                        let next = {
                            let mut q = queue.0.lock().expect("queue lock");
                            loop {
                                if let Some(item) = q.items.pop_front() {
                                    break Some(item);
                                }
                                if q.closed {
                                    break None;
                                }
                                q = queue.1.wait(q).expect("queue lock");
                            }
                        };
                        let Some((due, id)) = next else {
                            return (mine, bad);
                        };
                        let picked = Instant::now();
                        bad += u64::from(!serve_ok(cluster, &mut svc, inputs, id));
                        let done = Instant::now();
                        mine.push(Timing {
                            latency_us: (done - due).as_secs_f64() * 1e6,
                            fe_wait_ns: (picked - due).as_secs_f64() * 1e9,
                            serve_ns: (done - picked).as_secs_f64() * 1e9,
                        });
                    }
                })
            })
            .collect();
        let t0 = Instant::now();
        for (i, offset) in schedule.iter().enumerate() {
            let due = t0 + *offset;
            wait_until(due);
            late_us.push((Instant::now() - due).as_secs_f64() * 1e6);
            queue
                .0
                .lock()
                .expect("queue lock")
                .items
                .push_back((due, 1_000 + i as u64));
            queue.1.notify_one();
        }
        queue.0.lock().expect("queue lock").closed = true;
        queue.1.notify_all();
        for fe in fes {
            let (mine, bad) = fe.join().expect("front-end thread");
            timings.extend(mine);
            failed += bad;
        }
    });
    w.attempted += schedule.len() as u64;
    w.failed += failed;
    (timings, late_us)
}

/// Closed loop: every front-end thread serves back to back for one
/// round. Returns requests per second.
fn closed_round(w: &mut Warm, inputs: &[Payload], round: Duration) -> f64 {
    let cluster = &w.cluster;
    let t0 = Instant::now();
    let (mut served, mut failed) = (0u64, 0u64);
    std::thread::scope(|s| {
        let fes: Vec<_> = (0..FE_THREADS as u64)
            .map(|t| {
                s.spawn(move || {
                    let mut svc = service();
                    let budget = Budget::new(round);
                    let (mut n, mut bad) = (0u64, 0u64);
                    while budget.left() {
                        bad += u64::from(!serve_ok(cluster, &mut svc, inputs, t * 1_000_003 + n));
                        n += 1;
                    }
                    (n, bad)
                })
            })
            .collect();
        for fe in fes {
            let (n, bad) = fe.join().expect("front-end thread");
            served += n;
            failed += bad;
        }
    });
    w.attempted += served;
    w.failed += failed;
    served as f64 / t0.elapsed().as_secs_f64()
}

/// Jobs the pipeline body dispatches per request: three fetches, three
/// distills, one aggregate.
const DISPATCHES_PER_REQUEST: u64 = 2 * SOURCES as u64 + 1;

fn close(w: Warm, r: &mut Report) -> (Arc<RtCluster>, f64) {
    rt_submit::close(w, DISPATCHES_PER_REQUEST, r)
}

pub fn run(o: &Opts, sink: &mut SpanSink, r: &mut Report) {
    let inputs = jobs(o.seed);
    if o.trace {
        traced(o, &inputs, r, sink);
        return;
    }
    let mut setups = Vec::new();
    let mut latency_us = Vec::new();
    let mut late_us = Vec::new();
    let mut rounds = Vec::new();
    for k in 0..CLUSTERS {
        let mut w = start(o, &inputs, false, 1);
        setups.push(w.setup_s);
        let (timings, late) = open_loop(
            &mut w,
            &inputs,
            o.seed.wrapping_add(k as u64),
            o.share(OPEN_SHARE / CLUSTERS as f64),
        );
        latency_us.extend(timings.iter().map(|t| t.latency_us));
        late_us.extend(late);
        for _ in 0..CLOSED_ROUNDS {
            let round = o.share(CLOSED_SHARE / (CLUSTERS * CLOSED_ROUNDS) as f64);
            rounds.push(closed_round(&mut w, &inputs, round));
        }
        close(w, r);
    }
    sort(&mut late_us);
    r.note(format!(
        "open loop {RATE} req/s, generator late p95 {:.1} us; {} closed rounds on {FE_THREADS} FE threads",
        percentile(&late_us, 0.95),
        rounds.len()
    ));
    r.set("throughput_per_s", median(&mut rounds));
    let n = latency_us.len();
    set_latency(r, tail(&mut latency_us), n, "host", o.quick);
    r.set("setup_s", median(&mut setups));
    r.set("peak_rss_mb", peak_rss_mb());
}

/// Mean wall of `exec::serve` when every service time is zero: the
/// framework and park floor of one request.
fn floor_ns(o: &Opts, inputs: &[Payload], r: &mut Report) -> f64 {
    let mut w = start(o, inputs, false, 0);
    let mut svc = service();
    let n = o.size(FLOOR_REQUESTS);
    let mut walls = Vec::with_capacity(n as usize);
    for id in 0..n {
        let t0 = Instant::now();
        w.failed += u64::from(!serve_ok(&w.cluster, &mut svc, inputs, id));
        walls.push(t0.elapsed().as_secs_f64() * 1e9);
    }
    w.attempted += n;
    close(w, r);
    mean(&walls)
}

fn traced(o: &Opts, inputs: &[Payload], r: &mut Report, sink: &mut SpanSink) {
    // The recorder's cost: untraced and traced clusters alternate, each
    // serving one closed round, and each side reports its median. The
    // last traced cluster then serves the open loop.
    let (mut base_tp, mut traced_tp) = (Vec::new(), Vec::new());
    let round = o.share(0.3 / (2 * CLUSTERS) as f64);
    let mut kept = None;
    for k in 0..CLUSTERS {
        let mut base = start(o, inputs, false, 1);
        base_tp.push(closed_round(&mut base, inputs, round));
        close(base, r);
        let mut w = start(o, inputs, true, 1);
        traced_tp.push(closed_round(&mut w, inputs, round));
        if k + 1 == CLUSTERS {
            kept = Some(w);
        } else {
            close(w, r);
        }
    }
    let (base_tp, traced_tp) = (median(&mut base_tp), median(&mut traced_tp));

    let mut w = kept.expect("at least one traced cluster");
    r.set("rt.first_hint_wait_ms", w.first_hint_wait_ms);
    let before = w.cluster.submitted.load(Ordering::Relaxed);
    let t0 = sink.now_ns();
    let (timings, mut late_us) = open_loop(&mut w, inputs, o.seed, o.share(0.4));
    sink.bench_span("rt_pipeline.open_loop_traced", t0);
    let dispatched = w.cluster.submitted.load(Ordering::Relaxed) - before;
    let (c, shutdown_ms) = close(w, r);
    r.set("rt.shutdown_ms", shutdown_ms);

    let avg = |field: fn(&Timing) -> f64| mean(&timings.iter().map(field).collect::<Vec<_>>());
    let latency_ns = avg(|t| t.latency_us * 1e3);
    let fe_wait = avg(|t| t.fe_wait_ns);
    let serve_wall = avg(|t| t.serve_ns);
    r.set("rt.exec.serve_ns", serve_wall);
    r.set("rt.exec.fe_wait_ns", fe_wait);
    r.set(
        "rt.exec.unexplained_share",
        (1.0 - (fe_wait + serve_wall) / latency_ns).abs(),
    );
    r.set(
        "rt.exec.dispatches_per_req",
        dispatched as f64 / timings.len().max(1) as f64,
    );
    let floor = floor_ns(o, inputs, r);
    r.set("rt.exec.floor_ns", floor);
    sort(&mut late_us);
    r.set("loadgen.late_p95_us", percentile(&late_us, 0.95));
    r.set("trace.overhead_share", 1.0 - traced_tp / base_tp);
    r.note(format!(
        "open loop traced: {} requests, mean latency {latency_ns:.0} ns; closed loop untraced {base_tp:.1} req/s, traced {traced_tp:.1} req/s (medians over {CLUSTERS} clusters each)",
        timings.len()
    ));

    let log = c.trace_snapshot().expect("tracing was configured on");
    let mut slo = SloAggregator::new(1);
    slo.ingest(&log);
    sink.program_spans("rt_pipeline", log.spans());
    rt_submit::rt_layer_metrics(&c, &slo, r);
    let service_ns = r.get("rt.service_ns").unwrap_or(0.0);
    // Seven jobs per request: 3 x 1 ms + 3 x 1 ms + 0.5 ms, so the mean
    // configured service is 6.5 ms / 7. A sleep never undershoots; by how
    // much it overshoots is the host's business, so only the floor is a
    // check.
    let configured = 6.5e6 / 7.0;
    r.check(
        format!(
            "rt.service_ns {service_ns:.0} is at least the configured service ({configured:.0} ns)"
        ),
        service_ns >= configured * 0.99,
    );
}
