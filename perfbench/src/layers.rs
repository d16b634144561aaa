//! Per-layer unit costs: the wall time of one call into each layer's
//! public functions, timed from outside. They run at the start of
//! every traced run, are workload-independent, and say which
//! end-to-end metric they should move in README.md's table.
//!
//! Each probe times `ROUNDS` rounds of many calls and reports the
//! median round's mean, and leaves one `bench` span in the trace file.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use sns_cache::lru::LruCache;
use sns_cache::ring::HashRing;
use sns_cache::CacheKey;
use sns_core::control::{ClusterView, ControlConfig, ControlPlane, DispatchPlane};
use sns_core::exec::Executor;
use sns_core::msg::Job;
use sns_core::trace::SpanCtx;
use sns_core::worker::WorkerLogic;
use sns_core::{Blob, SnsConfig, WorkerClass};
use sns_distillers::HtmlMunger;
use sns_profiledb::{MemDevice, ProfileDb, Txn, Wal};
use sns_rt::chan;
use sns_san::{San, SanConfig};
use sns_sim::network::{Endpoint, Network, TrafficClass};
use sns_sim::rng::Pcg32;
use sns_sim::sched::{Scheduler, WheelScheduler};
use sns_sim::stats::{MetricKey, StatsHub};
use sns_sim::time::SimTime;
use sns_sim::{ComponentId, NodeId};
use sns_tacc::content::ContentObject;
use sns_tacc::worker::{TaccArgs, TaccWorker, TaccWorkerHost};
use sns_tacc::{FetchRequest, OriginServer};
use sns_workload::trace::{TraceGenerator, WorkloadConfig};
use sns_workload::{MimeType, ReplayLoad};

use crate::load::{host_speed, Opts, Rng};
use crate::report::{median, Report};
use crate::spans::SpanSink;

const ROUNDS: usize = 5;

/// Median over `ROUNDS` rounds of the mean ns per call of `f`, at
/// reference speed (every probe that uses this is CPU-bound).
fn per_call_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    let mut rounds = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
        rounds.push(ns * host_speed());
    }
    median(&mut rounds)
}

/// Runs every probe into `r`, except where the workload has already
/// measured the same cost in situ.
pub fn probe_all(o: &Opts, r: &mut Report, sink: &mut SpanSink) {
    let mut run = |name: &'static str, f: &dyn Fn(&Opts) -> f64| {
        if r.get(name).is_some() {
            return;
        }
        let t0 = sink.now_ns();
        r.set(name, f(o));
        sink.bench_span(name, t0);
    };
    run("rt.chan.send_recv_ns", &chan_send_recv_ns);
    run("rt.chan.wake_ns", &chan_wake_ns);
    run("rt.reply.wake_ns", &reply_wake_ns);
    run("core.control.dispatch_ns", &control_dispatch_ns);
    run("core.control.tick_ns", &control_tick_ns);
    run("core.exec.spawn_poll_ns", &exec_spawn_poll_ns);
    run("sim.sched.op_ns.small", &|o| sched_op_ns(o, 64));
    run("sim.sched.op_ns.large", &|o| {
        sched_op_ns(o, o.size(1_000_000))
    });
    run("sim.stats.incr_ns", &stats_incr_ns);
    run("sim.stats.observe_ns", &stats_observe_ns);
    run("san.unicast_ns", &san_unicast_ns);
    run("san.multicast_ns", &san_multicast_ns);
    run("san.offer_flow_ns", &san_offer_flow_ns);
    run("cache.lru_get_ns", &lru_get_ns);
    run("cache.lru_put_ns", &lru_put_ns);
    run("cache.ring_lookup_ns", &ring_lookup_ns);
    run("tacc.worker_process_ns", &worker_process_ns);
    run("distillers.html_munge_ns_per_kb", &html_munge_ns_per_kb);
    run("workload.trace_gen_ns_per_req", &trace_gen_ns_per_req);
    run("workload.replay_epoch_ns", &replay_epoch_ns);
    let t0 = sink.now_ns();
    let (commit, get) = profiledb_ns(o);
    r.set("profiledb.commit_ns", commit);
    r.set("profiledb.get_ns", get);
    sink.bench_span("profiledb", t0);
}

/// Same-thread `chan::unbounded` send + `try_recv`.
fn chan_send_recv_ns(o: &Opts) -> f64 {
    let (tx, rx) = chan::unbounded::<u64>();
    let mut i = 0u64;
    per_call_ns(o.size(200_000), || {
        i += 1;
        tx.send(i).expect("receiver alive");
        black_box(rx.try_recv().expect("just sent"));
    })
}

/// Mean ns from a sender's stamp to a blocked receiver on another
/// thread returning, over `n` hand-offs. `send` delivers the stamp;
/// `recv` blocks for it.
fn wake_ns<S, R>(n: u64, send: S, recv: R) -> f64
where
    S: Fn(Instant),
    R: Fn() -> Option<Instant> + Send,
{
    let (ack_tx, ack_rx) = mpsc::channel::<f64>();
    std::thread::scope(|s| {
        s.spawn(move || {
            while let Some(stamp) = recv() {
                let _ = ack_tx.send(stamp.elapsed().as_nanos() as f64);
            }
        });
        let mut total = 0.0;
        for _ in 0..n {
            // Let the receiver block again before the next stamp, and
            // stay on-CPU meanwhile, as a submitter between jobs does.
            let pause = Instant::now();
            while pause.elapsed() < Duration::from_micros(10) {
                std::hint::spin_loop();
            }
            send(Instant::now());
            total += ack_rx.recv().expect("receiver thread alive");
        }
        // Dropping the sending half ends the receiver thread.
        drop(send);
        total / n as f64
    })
}

/// Sender stamp → a `chan` receiver blocked on another thread returns.
fn chan_wake_ns(o: &Opts) -> f64 {
    let (tx, rx) = chan::unbounded::<Instant>();
    wake_ns(
        o.size(2_000),
        move |stamp| tx.send(stamp).expect("receiver alive"),
        move || rx.recv_timeout(Duration::from_secs(5)).ok(),
    )
}

/// The same hand-off over the `std::sync::mpsc::sync_channel(1)` that
/// carries every rt reply: what a submitter pays to wake on its reply.
fn reply_wake_ns(o: &Opts) -> f64 {
    let (tx, rx) = mpsc::sync_channel::<Instant>(1);
    wake_ns(
        o.size(2_000),
        move |stamp| tx.send(stamp).expect("receiver alive"),
        move || rx.recv_timeout(Duration::from_secs(5)).ok(),
    )
}

const CLASS: &str = "probe";

fn control_plane(workers: u64) -> ControlPlane {
    let mut control = ControlPlane::new(ControlConfig {
        sns: SnsConfig::default(),
        incarnation: 1,
        restart_front_ends: false,
    });
    for w in 0..workers {
        control.on_register_worker(
            ComponentId(10 + w),
            CLASS.into(),
            NodeId(0),
            false,
            SimTime::ZERO,
            &mut Vec::new(),
        );
    }
    control
}

/// `DispatchPlane::dispatch` + `on_response` on a 2-worker hint table.
fn control_dispatch_ns(o: &Opts) -> f64 {
    let mut plane = DispatchPlane::new(SnsConfig::default());
    plane.on_beacon(&control_plane(2).make_beacon(SimTime::ZERO));
    let class = WorkerClass::new(CLASS);
    let input = Blob::payload(256, "x");
    let mut rng = Pcg32::new(o.seed);
    let mut out = Vec::new();
    let mut t = 0u64;
    per_call_ns(o.size(100_000), || {
        t += 1_000;
        out.clear();
        let id = plane.dispatch(
            &mut rng,
            SimTime::from_nanos(t),
            ComponentId::EXTERNAL,
            class.clone(),
            "op",
            input.clone(),
            None,
            SpanCtx::root(),
            &mut out,
        );
        black_box(plane.on_response(id, SimTime::from_nanos(t + 500), &mut out));
    })
}

/// One manager step: 16 `on_load_report`s and an `on_tick`.
fn control_tick_ns(o: &Opts) -> f64 {
    let mut control = control_plane(16);
    let view = ClusterView::default();
    let class = WorkerClass::new(CLASS);
    let mut out = Vec::new();
    let mut t = 0u64;
    per_call_ns(o.size(20_000), || {
        t += 50_000_000;
        let now = SimTime::from_nanos(t);
        out.clear();
        for w in 0..16u64 {
            control.on_load_report(
                ComponentId(10 + w),
                class.clone(),
                (w % 4) as u32,
                now,
                || (NodeId(0), false),
                &mut out,
            );
        }
        control.on_tick(now, &view, &mut out);
        black_box(out.len());
    })
}

/// `Executor::spawn` of a ready future + `run_ready`.
fn exec_spawn_poll_ns(o: &Opts) -> f64 {
    let mut exec = Executor::new();
    per_call_ns(o.size(200_000), || {
        exec.spawn(Box::pin(async {}));
        black_box(exec.run_ready());
    })
}

/// Pop the earliest entry and push one a seeded distance ahead, with
/// `pending` entries standing, through the default scheduler.
fn sched_op_ns(o: &Opts, pending: u64) -> f64 {
    const SPREAD_NS: u64 = 1_000_000_000_000;
    let mut rng = Rng::new(o.seed ^ pending);
    let mut sched: WheelScheduler<u64> = WheelScheduler::new();
    let mut seq = 0u64;
    for _ in 0..pending {
        seq += 1;
        sched.push(SimTime::from_nanos(rng.below(SPREAD_NS)), seq, seq);
    }
    per_call_ns(o.size(400_000), || {
        let (at, _, item) = sched.pop().expect("standing population");
        seq += 1;
        sched.push(
            SimTime::from_nanos(at.as_nanos() + 1 + rng.below(SPREAD_NS)),
            seq,
            item,
        );
    })
}

fn stats_incr_ns(o: &Opts) -> f64 {
    let mut hub = StatsHub::new();
    let keys: Vec<MetricKey> = (0..32)
        .map(|i| MetricKey::new(&format!("probe.c{i}")))
        .collect();
    let mut i = 0usize;
    per_call_ns(o.size(1_000_000), || {
        i += 1;
        hub.incr(keys[i % keys.len()], 1);
    })
}

fn stats_observe_ns(o: &Opts) -> f64 {
    let mut hub = StatsHub::new();
    let keys: Vec<MetricKey> = (0..8)
        .map(|i| MetricKey::new(&format!("probe.s{i}")))
        .collect();
    let mut i = 0usize;
    per_call_ns(o.size(1_000_000), || {
        i += 1;
        hub.observe(keys[i % keys.len()], i as f64);
    })
}

const SAN_NODES: u32 = 16;

fn san() -> San {
    let mut san = San::new(SanConfig::switched_100mbps());
    for n in 0..SAN_NODES {
        san.register_node(NodeId(n));
    }
    san
}

fn endpoint(n: u64) -> Endpoint {
    Endpoint {
        node: NodeId((n % u64::from(SAN_NODES)) as u32),
        comp: ComponentId(1 + n % u64::from(SAN_NODES)),
    }
}

/// One datagram-mode unicast between two of 16 registered nodes.
fn san_unicast_ns(o: &Opts) -> f64 {
    let mut san = san();
    let mut rng = Pcg32::new(o.seed);
    let mut t = 0u64;
    per_call_ns(o.size(500_000), || {
        t += 1_000_000; // time moves on so link queues drain
        black_box(san.unicast(
            SimTime::from_nanos(t),
            &mut rng,
            endpoint(t / 1_000_000),
            endpoint(t / 1_000_000 + 5),
            1500,
            TrafficClass::Reliable,
        ));
    })
}

/// One datagram-mode multicast to the other 15 nodes (a beacon).
fn san_multicast_ns(o: &Opts) -> f64 {
    let mut san = san();
    let mut rng = Pcg32::new(o.seed);
    let members: Vec<Endpoint> = (1..u64::from(SAN_NODES)).map(endpoint).collect();
    let mut t = 0u64;
    per_call_ns(o.size(100_000), || {
        t += 10_000_000;
        black_box(san.multicast(
            SimTime::from_nanos(t),
            &mut rng,
            endpoint(0),
            &members,
            512,
            TrafficClass::Datagram,
        ));
    })
}

/// One `offer_flow` batch (100 messages) between two nodes.
fn san_offer_flow_ns(o: &Opts) -> f64 {
    let mut san = san();
    let mut t = 0u64;
    per_call_ns(o.size(500_000), || {
        t += 100_000_000;
        black_box(san.offer_flow(
            SimTime::from_nanos(t),
            NodeId((t / 100_000_000 % 8) as u32),
            NodeId((8 + t / 100_000_000 % 8) as u32),
            600_000,
            100,
            TrafficClass::Reliable,
        ));
    })
}

const LRU_KEYS: u64 = 10_000;

fn lru_keys() -> Vec<CacheKey> {
    (0..LRU_KEYS)
        .map(|i| CacheKey::original(format!("http://origin/s{i}.gif")))
        .collect()
}

fn lru_get_ns(o: &Opts) -> f64 {
    let keys = lru_keys();
    let mut cache: LruCache<CacheKey, Vec<u8>> = LruCache::new(1 << 24);
    for k in &keys {
        cache.put(k.clone(), vec![0u8; 256], 0, None);
    }
    let mut i = 0usize;
    per_call_ns(o.size(500_000), || {
        i = (i + 7) % keys.len();
        black_box(cache.get(&keys[i], 0).is_some());
    })
}

/// Puts into a full cache, so every put also evicts.
fn lru_put_ns(o: &Opts) -> f64 {
    let keys = lru_keys();
    let mut cache: LruCache<CacheKey, Vec<u8>> = LruCache::new(256 * LRU_KEYS / 4);
    let mut i = 0usize;
    per_call_ns(o.size(200_000), || {
        i = (i + 7) % keys.len();
        cache.put(keys[i].clone(), vec![0u8; 256], 0, None);
    })
}

fn ring_lookup_ns(o: &Opts) -> f64 {
    let mut ring = HashRing::with_vnodes(64);
    for p in 0..16u32 {
        ring.add(p);
    }
    let mut h = o.seed;
    per_call_ns(o.size(1_000_000), || {
        h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
        black_box(ring.lookup(h).is_some());
    })
}

/// A 16 KiB HTML page as the origin model synthesises it.
fn html_page() -> ContentObject {
    OriginServer::make_object(&FetchRequest {
        url: "http://origin/page.html".into(),
        mime: MimeType::Html,
        size: 16 * 1024,
    })
}

/// `TaccWorkerHost::process` of one HTML job.
fn worker_process_ns(o: &Opts) -> f64 {
    let mut host = TaccWorkerHost::transformer(Box::new(HtmlMunger::new()), BTreeMap::new());
    let job = Job {
        id: 1,
        class: host.class(),
        op: "transform".into(),
        input: html_page().into_payload(),
        profile: None,
        reply_to: ComponentId(1),
        sampled: false,
    };
    let mut rng = Pcg32::new(o.seed);
    per_call_ns(o.size(2_000), || {
        black_box(host.process(&job, SimTime::ZERO, &mut rng).is_ok());
    })
}

fn html_munge_ns_per_kb(o: &Opts) -> f64 {
    let page = html_page();
    let kb = page.len() as f64 / 1024.0;
    let mut munger = HtmlMunger::new();
    let args = TaccArgs::default();
    let mut rng = Pcg32::new(o.seed);
    per_call_ns(o.size(2_000), || {
        black_box(munger.transform(&page, &args, &mut rng).is_ok());
    }) / kb
}

/// Commits and reads on one database, rounds of each alternating so
/// reads run beside a growing log: (commit ns, get ns).
fn profiledb_ns(o: &Opts) -> (f64, f64) {
    let mut db = ProfileDb::open(Wal::new(MemDevice::new())).expect("empty log opens");
    let users: Vec<String> = (0..500).map(|u| format!("u{u}")).collect();
    let n = o.size(20_000);
    let (mut commits, mut gets) = (Vec::new(), Vec::new());
    let mut i = 0usize;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        for _ in 0..n {
            i += 1;
            db.commit(Txn::new().put(users[i % users.len()].as_str(), "quality", "25"))
                .expect("in-memory commit");
        }
        commits.push(t0.elapsed().as_nanos() as f64 / n as f64 * host_speed());
        let t0 = Instant::now();
        for _ in 0..n {
            i += 1;
            black_box(db.get(&users[i % users.len()], "quality").is_some());
        }
        gets.push(t0.elapsed().as_nanos() as f64 / n as f64 * host_speed());
    }
    (median(&mut commits), median(&mut gets))
}

/// The sim_transend trace shape, per generated request.
fn trace_gen_ns_per_req(o: &Opts) -> f64 {
    let mut rounds = Vec::new();
    for round in 0..ROUNDS as u64 {
        let mut gen = TraceGenerator::new(WorkloadConfig {
            seed: o.seed ^ round,
            users: 400,
            shared_objects: 2_000,
            ..Default::default()
        });
        let t0 = Instant::now();
        let trace = gen.constant_rate(40.0, Duration::from_secs(o.size(500)));
        rounds.push(t0.elapsed().as_nanos() as f64 / trace.len().max(1) as f64 * host_speed());
    }
    median(&mut rounds)
}

/// One epoch row of the million-user envelope.
fn replay_epoch_ns(o: &Opts) -> f64 {
    let load = ReplayLoad::million_users(o.seed).with_epoch(Duration::from_secs(1));
    let horizon = Duration::from_secs(o.size(6 * 3600));
    let mut rounds = Vec::new();
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        let mut rows = 0u64;
        for e in load.epochs(horizon) {
            rows += 1;
            black_box(e.requests);
        }
        rounds.push(t0.elapsed().as_nanos() as f64 / rows.max(1) as f64 * host_speed());
    }
    median(&mut rounds)
}
