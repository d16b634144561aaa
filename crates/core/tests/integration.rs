//! End-to-end SNS-layer tests: a full cluster (manager, workers, front
//! end, clients) over the simulated SAN, exercising the paper's core
//! availability claims — operation on stale hints through manager death,
//! process-peer restarts, timeout-driven retry, and on-demand spawning.

use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Duration;

use sns_core::exec::service::{AsyncService, EventOutcome, SvcHandle};
use sns_core::exec::BoxFut;
use sns_core::frontend::{FeConfig, ManagerFactory};
use sns_core::manager::{Manager, ManagerConfig, WorkerFactory, WorkerSpec};
use sns_core::monitor::Monitor;
use sns_core::msg::{ClientRequest, Job, JobResult, SnsMsg};
use sns_core::trace::{request_span_id, Tracer};
use sns_core::worker::{WorkerError, WorkerLogic, WorkerStub, WorkerStubConfig};
use sns_core::{Blob, FrontEnd, OverloadPolicy, Payload, SnsConfig, TenantPolicy, WorkerClass};
use sns_san::{San, SanConfig};
use sns_sim::engine::{Component, Ctx, NodeSpec, Sim, SimConfig};
use sns_sim::rng::Pcg32;
use sns_sim::time::SimTime;
use sns_sim::{ComponentId, GroupId};

/// A 20 ms CPU-bound echo worker.
struct Echo;

impl WorkerLogic for Echo {
    fn class(&self) -> WorkerClass {
        "echo".into()
    }
    fn service_time(&mut self, _job: &Job, _now: SimTime, _rng: &mut Pcg32) -> Duration {
        Duration::from_millis(20)
    }
    fn process(
        &mut self,
        job: &Job,
        _now: SimTime,
        _rng: &mut Pcg32,
    ) -> Result<Payload, WorkerError> {
        Ok(Blob::payload(job.input.wire_size() / 2, "echoed"))
    }
}

/// Service body: forward the request body to one echo worker, reply with
/// its output; fall back to a degraded original on dispatch failure.
struct EchoService;

impl AsyncService for EchoService {
    fn handle(&mut self, request: Arc<ClientRequest>, svc: SvcHandle) -> BoxFut {
        Box::pin(async move {
            let input = request
                .body
                .clone()
                .unwrap_or_else(|| Blob::payload(1000, "default"));
            match svc.dispatch("echo".into(), "echo", input, None).await {
                EventOutcome::Reply(JobResult::Ok(p)) => svc.reply(Ok(p)),
                EventOutcome::Reply(JobResult::Failed(e)) => svc.reply(Err(e)),
                _ => {
                    // BASE approximate answer: reply with the original.
                    svc.mark_degraded();
                    svc.reply(Ok(Blob::payload(100, "original")));
                }
            }
        })
    }
}

/// A client that fires `n` requests at a fixed rate and counts replies.
struct TestClient {
    fe: ComponentId,
    n: u64,
    period: Duration,
    sent: u64,
    /// Warm-up before the first request (lets the cluster bootstrap).
    delay: Duration,
}

impl Component<SnsMsg> for TestClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
        ctx.timer(self.delay + self.period, 0);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, SnsMsg>, _from: ComponentId, msg: SnsMsg) {
        if let SnsMsg::Response(r) = msg {
            ctx.stats().incr("client.responses", 1);
            if r.result.is_ok() {
                ctx.stats().incr("client.ok", 1);
            }
            if r.degraded {
                ctx.stats().incr("client.degraded", 1);
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, SnsMsg>, _token: u64) {
        if self.sent >= self.n {
            return;
        }
        self.sent += 1;
        ctx.send(
            self.fe,
            SnsMsg::Request(Arc::new(ClientRequest {
                id: self.sent,
                user: format!("u{}", self.sent % 5),
                url: format!("http://x/{}", self.sent),
                body: Some(Blob::payload(2000, "in")),
            })),
        );
        ctx.timer(self.period, 0);
    }
}

struct Cluster {
    sim: Sim<SnsMsg, San>,
    fe: ComponentId,
    manager: ComponentId,
    beacon: GroupId,
    monitor_group: GroupId,
}

fn worker_factory(beacon: GroupId, monitor: GroupId) -> WorkerFactory {
    Box::new(move || {
        Box::new(WorkerStub::new(
            Box::new(Echo),
            WorkerStubConfig {
                beacon_group: beacon,
                monitor_group: monitor,
                report_period: Duration::from_millis(500),
                cost_weight_unit: None,
            },
        ))
    })
}

fn manager_factory(
    beacon: GroupId,
    monitor: GroupId,
    sns: SnsConfig,
    min_workers: u32,
) -> ManagerFactory {
    Box::new(move |incarnation| {
        let mut classes = BTreeMap::new();
        classes.insert(
            WorkerClass::new("echo"),
            WorkerSpec::scaled(min_workers, worker_factory(beacon, monitor)),
        );
        Box::new(Manager::new(ManagerConfig {
            sns: sns.clone(),
            beacon_group: beacon,
            monitor_group: monitor,
            incarnation,
            classes,
            fe_factory: None,
        }))
    })
}

/// Builds a 6-node cluster: manager node, FE node, 3 worker nodes, 1
/// overflow node; one monitor; `min_workers` echo workers.
fn cluster(min_workers: u32) -> Cluster {
    let san = San::new(SanConfig::switched_100mbps());
    let mut sim: Sim<SnsMsg, San> = Sim::new(SimConfig::default(), san);
    let nodes: Vec<_> = (0..5)
        .map(|_| sim.add_node(NodeSpec::new(2, "dedicated")))
        .collect();
    sim.add_node(NodeSpec::new(2, "overflow"));
    let beacon = sim.create_group();
    let monitor_group = sim.create_group();
    let sns = SnsConfig::default();

    let mut mk_mgr = manager_factory(beacon, monitor_group, sns.clone(), min_workers);
    let manager = sim.spawn(nodes[0], mk_mgr(1), "manager");

    let fe = sim.spawn(
        nodes[1],
        Box::new(FrontEnd::new(
            Box::new(EchoService),
            FeConfig {
                sns: sns.clone(),
                beacon_group: beacon,
                monitor_group,
                manager_factory: Some(manager_factory(
                    beacon,
                    monitor_group,
                    sns.clone(),
                    min_workers,
                )),
            },
        )),
        "frontend",
    );
    sim.spawn(
        nodes[0],
        Box::new(Monitor::new(monitor_group, Duration::from_secs(5))),
        "monitor",
    );
    Cluster {
        sim,
        fe,
        manager,
        beacon,
        monitor_group,
    }
}

/// A second front end hosting `service` on a spare node, supervising
/// no manager.
fn spawn_fe(c: &mut Cluster, sns: SnsConfig, service: Box<dyn AsyncService>) -> ComponentId {
    let node = c.sim.nodes_with_tag("dedicated")[3];
    let fe = FrontEnd::new(
        service,
        FeConfig {
            sns,
            beacon_group: c.beacon,
            monitor_group: c.monitor_group,
            manager_factory: None,
        },
    );
    c.sim.spawn(node, Box::new(fe), "frontend")
}

/// Sends `n` requests to `fe` from the client node, after warm-up.
fn spawn_client(c: &mut Cluster, fe: ComponentId, n: u64, period: Duration) {
    let client_node = c.sim.nodes_with_tag("dedicated")[4];
    c.sim.spawn(
        client_node,
        Box::new(TestClient {
            fe,
            n,
            period,
            sent: 0,
            delay: Duration::from_secs(3),
        }),
        "client",
    );
}

#[test]
fn end_to_end_request_response() {
    let mut c = cluster(2);
    let fe = c.fe;
    let client_node = c.sim.nodes_with_tag("dedicated")[4];
    c.sim.spawn(
        client_node,
        Box::new(TestClient {
            fe,
            n: 50,
            period: Duration::from_millis(100),
            sent: 0,
            delay: Duration::from_secs(3),
        }),
        "client",
    );
    c.sim.run_until(SimTime::from_secs(20));
    let stats = c.sim.stats();
    assert_eq!(stats.counter("client.responses"), 50);
    assert_eq!(stats.counter("client.ok"), 50);
    assert_eq!(stats.counter("client.degraded"), 0);
    // Latency sanity: overhead (4 ms) + queueing + 20 ms service + wire.
    let lat = stats.summary("fe.latency_s").expect("latencies recorded");
    assert!(lat.mean() > 0.02 && lat.mean() < 0.5, "mean {}", lat.mean());
}

#[test]
fn manager_death_stale_hints_and_peer_restart() {
    let mut c = cluster(2);
    let fe = c.fe;
    let manager = c.manager;
    let client_node = c.sim.nodes_with_tag("dedicated")[4];
    c.sim.spawn(
        client_node,
        Box::new(TestClient {
            fe,
            n: 200,
            period: Duration::from_millis(50),
            sent: 0,
            delay: Duration::ZERO,
        }),
        "client",
    );
    // Let the system warm up, then kill the manager mid-run.
    c.sim.run_until(SimTime::from_secs(3));
    assert_eq!(c.sim.components_of_kind("manager").len(), 1);
    c.sim.kill_component(manager);
    c.sim.run_until(SimTime::from_secs(30));
    let stats = c.sim.stats();
    // Every request answered despite the manager dying: cached hints
    // carried the front end through (§3.1.8).
    assert_eq!(stats.counter("client.responses"), 200);
    assert_eq!(stats.counter("client.ok"), 200);
    // The front end restarted the manager (process peers)…
    assert!(stats.counter("fe.manager_restarts") >= 1);
    let managers = c.sim.components_of_kind("manager");
    assert_eq!(managers.len(), 1, "exactly one live manager after recovery");
    assert_ne!(managers[0], manager);
    // …and workers re-registered with the new incarnation: it advertises
    // them again (check via a fresh worker spawn NOT being needed —
    // still exactly two echo workers).
    assert_eq!(c.sim.components_of_kind("echo").len(), 2);
}

#[test]
fn worker_death_timeout_retry() {
    let mut c = cluster(2);
    let fe = c.fe;
    let client_node = c.sim.nodes_with_tag("dedicated")[4];
    c.sim.spawn(
        client_node,
        Box::new(TestClient {
            fe,
            n: 100,
            period: Duration::from_millis(100),
            sent: 0,
            delay: Duration::ZERO,
        }),
        "client",
    );
    c.sim.run_until(SimTime::from_secs(3));
    let workers = c.sim.components_of_kind("echo");
    assert_eq!(workers.len(), 2);
    // Kill one worker; in-flight jobs to it will time out and retry on
    // the survivor; the manager respawns the dead one.
    c.sim.kill_component(workers[0]);
    c.sim.run_until(SimTime::from_secs(30));
    let stats = c.sim.stats();
    assert_eq!(stats.counter("client.responses"), 100, "no request lost");
    // The manager restarted the worker.
    assert_eq!(c.sim.components_of_kind("echo").len(), 2);
    assert!(stats.counter("manager.worker_deaths") >= 1);
}

#[test]
fn on_demand_spawn_for_unknown_class() {
    // Start with zero echo workers: the first dispatch finds no worker,
    // the stub asks the manager, the manager spawns one, the pending
    // dispatch flushes after the next beacon.
    let mut c = cluster(0);
    let fe = c.fe;
    let client_node = c.sim.nodes_with_tag("dedicated")[4];
    c.sim.spawn(
        client_node,
        Box::new(TestClient {
            fe,
            n: 5,
            period: Duration::from_millis(200),
            sent: 0,
            delay: Duration::ZERO,
        }),
        "client",
    );
    c.sim.run_until(SimTime::from_secs(15));
    let stats = c.sim.stats();
    assert_eq!(stats.counter("client.responses"), 5);
    assert_eq!(stats.counter("client.ok"), 5);
    assert!(!c.sim.components_of_kind("echo").is_empty());
    assert!(stats.counter("manager.spawns") >= 1);
}

#[test]
fn deterministic_cluster_replay() {
    let run = || {
        let mut c = cluster(2);
        let fe = c.fe;
        let client_node = c.sim.nodes_with_tag("dedicated")[4];
        c.sim.spawn(
            client_node,
            Box::new(TestClient {
                fe,
                n: 30,
                period: Duration::from_millis(70),
                sent: 0,
                delay: Duration::ZERO,
            }),
            "client",
        );
        c.sim.run_until(SimTime::from_secs(10));
        (
            c.sim.events_dispatched(),
            c.sim.stats().counter("client.responses"),
            c.sim
                .stats()
                .summary("fe.latency_s")
                .map(|s| s.mean())
                .unwrap_or(0.0),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed ⇒ identical run");
    let _ = (a, b);
}

#[test]
fn thread_pool_queues_excess_connections() {
    // §3.1.1/§4.4: each in-flight request holds one FE thread; excess
    // connections wait in the accept queue but are never refused.
    let mut c = cluster(1);
    // Shrink the pool drastically via a fresh FE on another node.
    let tiny_pool = SnsConfig {
        fe_threads: 2,
        ..Default::default()
    };
    let small_fe = spawn_fe(&mut c, tiny_pool, Box::new(EchoService));
    // Much faster than service.
    spawn_client(&mut c, small_fe, 40, Duration::from_millis(5));
    c.sim.run_until(SimTime::from_secs(30));
    let stats = c.sim.stats();
    assert_eq!(stats.counter("client.responses"), 40, "nothing refused");
    assert!(
        stats.counter("fe.queued") > 0,
        "the 2-thread pool forced connections to queue"
    );
}

#[test]
fn manager_restarts_dead_front_end() {
    // Build a cluster whose manager owns an FE factory (the other half
    // of the process-peer relationship: "The manager detects and
    // restarts a crashed front end", §3.1.3).
    let san = San::new(SanConfig::switched_100mbps());
    let mut sim: Sim<SnsMsg, San> = Sim::new(SimConfig::default(), san);
    let nodes: Vec<_> = (0..4)
        .map(|_| sim.add_node(NodeSpec::new(2, "dedicated")))
        .collect();
    let beacon = sim.create_group();
    let monitor_group = sim.create_group();
    let sns = SnsConfig::default();

    let fe_factory: Box<dyn FnMut() -> Box<dyn sns_sim::engine::Component<SnsMsg>> + Send> = {
        let sns = sns.clone();
        Box::new(move || {
            Box::new(FrontEnd::new(
                Box::new(EchoService),
                FeConfig {
                    sns: sns.clone(),
                    beacon_group: beacon,
                    monitor_group,
                    manager_factory: None,
                },
            ))
        })
    };
    let mut classes = BTreeMap::new();
    classes.insert(
        WorkerClass::new("echo"),
        sns_core::manager::WorkerSpec::scaled(1, worker_factory(beacon, monitor_group)),
    );
    let manager = Manager::new(ManagerConfig {
        sns: sns.clone(),
        beacon_group: beacon,
        monitor_group,
        incarnation: 1,
        classes,
        fe_factory: Some(fe_factory),
    });
    sim.spawn(nodes[0], Box::new(manager), "manager");
    let fe = sim.spawn(
        nodes[1],
        Box::new(FrontEnd::new(
            Box::new(EchoService),
            FeConfig {
                sns: sns.clone(),
                beacon_group: beacon,
                monitor_group,
                manager_factory: None,
            },
        )),
        "frontend",
    );
    // Let the FE register with the manager, then kill it.
    sim.at(SimTime::from_secs(3), move |s| s.kill_component(fe));
    sim.run_until(SimTime::from_secs(10));
    let fes = sim.components_of_kind("frontend");
    assert_eq!(fes.len(), 1, "manager restarted the front end");
    assert_ne!(fes[0], fe, "it is a fresh process");
    assert!(sim.stats().counter("manager.fe_deaths") >= 1);
}

#[test]
fn monitor_sees_cluster_lifecycle() {
    let mut c = cluster(1);
    let fe = c.fe;
    let _ = (c.beacon, c.monitor_group);
    let client_node = c.sim.nodes_with_tag("dedicated")[4];
    c.sim.spawn(
        client_node,
        Box::new(TestClient {
            fe,
            n: 10,
            period: Duration::from_millis(100),
            sent: 0,
            delay: Duration::ZERO,
        }),
        "client",
    );
    c.sim.run_until(SimTime::from_secs(10));
    assert!(c.sim.stats().counter("monitor.events") > 10);
}

/// A body that finishes without calling `reply`.
struct Mute;

impl AsyncService for Mute {
    fn handle(&mut self, _request: Arc<ClientRequest>, svc: SvcHandle) -> BoxFut {
        Box::pin(async move { svc.incr("mute.bodies", 1) })
    }
}

#[test]
fn a_body_that_returns_without_replying_gets_the_error_reply() {
    let mut c = cluster(1);
    let fe = spawn_fe(&mut c, SnsConfig::default(), Box::new(Mute));
    spawn_client(&mut c, fe, 1, Duration::from_millis(100));
    c.sim.run_until(SimTime::from_secs(10));
    let stats = c.sim.stats();
    assert_eq!(stats.counter("mute.bodies"), 1);
    assert_eq!(stats.counter("exec.body_no_reply"), 1);
    assert_eq!(stats.counter("fe.error_replies"), 1);
    assert_eq!(
        stats.counter("client.responses"),
        1,
        "the client is answered"
    );
    assert_eq!(stats.counter("client.ok"), 0, "with an error");
}

/// Counts how often the front end polls the body it wraps.
struct Counted {
    polls: Arc<AtomicU64>,
    body: BoxFut,
}

impl Future for Counted {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        self.polls.fetch_add(1, Ordering::Relaxed);
        self.body.as_mut().poll(cx)
    }
}

/// Fires an echo job without awaiting it, then naps far longer than the
/// job takes, then replies.
struct FireAndForget {
    polls: Arc<AtomicU64>,
}

impl AsyncService for FireAndForget {
    fn handle(&mut self, _request: Arc<ClientRequest>, svc: SvcHandle) -> BoxFut {
        let body = Box::pin(async move {
            drop(svc.dispatch("echo".into(), "echo", Blob::payload(64, "ff"), None));
            svc.nap(Duration::from_secs(2)).await;
            svc.reply(Ok(Blob::payload(8, "done")));
        });
        Box::pin(Counted {
            polls: Arc::clone(&self.polls),
            body,
        })
    }
}

#[test]
fn a_late_reply_to_a_dropped_await_does_not_repoll_the_body() {
    let mut c = cluster(1);
    let polls = Arc::new(AtomicU64::new(0));
    let service = FireAndForget {
        polls: Arc::clone(&polls),
    };
    let fe = spawn_fe(&mut c, SnsConfig::default(), Box::new(service));
    spawn_client(&mut c, fe, 1, Duration::from_millis(100));
    c.sim.run_until(SimTime::from_secs(10));
    let stats = c.sim.stats();
    assert_eq!(stats.counter("client.ok"), 1);
    // The echo reply came back mid-nap (20 ms of service against a 2 s
    // nap) and reached nobody: first poll, then the nap's wake-up only.
    assert_eq!(stats.counter("worker.jobs_done"), 1, "the job ran");
    assert_eq!(polls.load(Ordering::Relaxed), 2);
}

/// Dispatches one echo job and flags the reply degraded in the same
/// poll, then replies with the job's outcome.
struct DispatchThenMark;

impl AsyncService for DispatchThenMark {
    fn handle(&mut self, _request: Arc<ClientRequest>, svc: SvcHandle) -> BoxFut {
        Box::pin(async move {
            let job = svc.dispatch("echo".into(), "echo", Blob::payload(64, "q"), None);
            svc.mark_degraded();
            let outcome = job.await;
            match outcome {
                EventOutcome::Reply(JobResult::Ok(p)) => svc.reply(Ok(p)),
                EventOutcome::Reply(JobResult::Failed(e)) => {
                    if e == "tenant over quota" {
                        svc.incr("test.over_quota", 1);
                    }
                    svc.reply(Err(e));
                }
                other => svc.reply(Err(format!("{other:?}"))),
            }
        })
    }
}

#[test]
fn a_dispatch_over_the_tenant_quota_fails_and_opens_no_request_span() {
    let mut c = cluster(1);
    c.sim.set_tracer(Tracer::enabled());
    let mut fe = FrontEnd::new(
        Box::new(DispatchThenMark),
        FeConfig {
            sns: SnsConfig::default(),
            beacon_group: c.beacon,
            monitor_group: c.monitor_group,
            manager_factory: None,
        },
    );
    fe.set_tenant("echo", "echo");
    fe.set_tenant_policy(
        "echo",
        TenantPolicy {
            max_outstanding: 1,
            overload: OverloadPolicy::Drop,
        },
    );
    let node = c.sim.nodes_with_tag("dedicated")[3];
    let fe = c.sim.spawn(node, Box::new(fe), "frontend");
    // The second request's dispatch comes while the first one's job is
    // still out (5 ms apart against 20 ms of service).
    spawn_client(&mut c, fe, 2, Duration::from_millis(5));
    c.sim.run_until(SimTime::from_secs(10));
    let stats = c.sim.stats();
    assert_eq!(stats.counter("stub.tenant_dropped"), 1);
    assert_eq!(stats.counter("test.over_quota"), 1);
    assert_eq!(stats.counter("client.responses"), 2);
    assert_eq!(stats.counter("client.ok"), 1);
    // The refused body's reply came after the flag queued behind its
    // dispatch, not in the middle of that poll's drain.
    assert_eq!(stats.counter("client.degraded"), 2);
    let log = c.sim.tracer().snapshot().expect("tracing is on");
    let reqs: Vec<_> = log
        .spans()
        .iter()
        .filter(|s| s.id.kind == "req")
        .map(|s| s.id)
        .collect();
    assert_eq!(
        reqs,
        [request_span_id(fe, 1)],
        "the shed request opened none"
    );
}
