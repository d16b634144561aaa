//! Differential test of the shared sans-IO control plane: the same
//! fault script — bootstrap three echo workers, kill one twice — runs
//! through the *simulator* driver (`sns_core::Manager` over the SAN)
//! and the *threaded runtime* driver (`sns_rt::RtCluster` over OS
//! threads), and both must produce the identical canonical decision
//! sequence in their monitor logs. The backends share
//! [`sns_core::ControlPlane`], so a divergence here means a driver is
//! feeding the machine different inputs, not that policy forked.
//!
//! Timestamps and raw ids necessarily differ between a virtual-time
//! simulation and wall-clock threads, so the comparison normalises:
//! events are filtered to the control plane's *decisions* (`spawned`,
//! `peer_restarted`), timestamps are stripped, and component/node
//! tokens are renamed by first appearance.
//!
//! The request *traces* are a second parity surface: both runs submit
//! the same four echo jobs through the shared [`DispatchPlane`], and
//! the [`sns_core::trace::normalized`] rendering — identity and
//! timestamps stripped, trees sorted structurally — must be
//! byte-identical across the two backends.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cluster_sns::core::invariant::MonitorLog;
use cluster_sns::core::manager::{Manager, ManagerConfig, WorkerSpec};
use cluster_sns::core::msg::{Job, SnsMsg};
use cluster_sns::core::trace::{normalized, Sampling, SpanCtx, Tracer};
use cluster_sns::core::worker::{WorkerError, WorkerLogic, WorkerStub, WorkerStubConfig};
use cluster_sns::core::{Blob, ManagerStub, MonitorTap, Payload, SnsConfig, WorkerClass};
use cluster_sns::rt::{RtCluster, RtConfig};
use cluster_sns::san::{San, SanConfig};
use cluster_sns::sim::engine::{Component, Ctx, NodeSpec, Sim, SimConfig};
use cluster_sns::sim::rng::Pcg32;
use cluster_sns::sim::{ComponentId, GroupId, SimTime};

/// Jobs each backend pushes through the shared dispatch plane.
const JOBS: u64 = 4;

struct Echo;

impl WorkerLogic for Echo {
    fn class(&self) -> WorkerClass {
        "echo".into()
    }
    fn service_time(&mut self, _j: &Job, _n: SimTime, _r: &mut Pcg32) -> Duration {
        Duration::from_millis(20)
    }
    fn process(&mut self, job: &Job, _n: SimTime, _r: &mut Pcg32) -> Result<Payload, WorkerError> {
        Ok(Blob::payload(job.input.wire_size() / 2, "echoed"))
    }
}

/// The canonical decision sequence: spawn and process-peer-restart
/// events with ids renamed by first appearance ("C0", "N0", …) so the
/// two backends' arbitrary id spaces compare equal.
fn decisions(log: &MonitorLog) -> Vec<String> {
    let mut comps: BTreeMap<String, usize> = BTreeMap::new();
    let mut nodes: BTreeMap<String, usize> = BTreeMap::new();
    let mut rename = |tok: &str| -> String {
        let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
        if let Some(rest) = tok.strip_prefix("node") {
            if digits(rest) {
                let next = nodes.len();
                return format!("N{}", *nodes.entry(tok.to_string()).or_insert(next));
            }
        }
        if let Some(rest) = tok.strip_prefix('c') {
            if digits(rest) {
                let next = comps.len();
                return format!("C{}", *comps.entry(tok.to_string()).or_insert(next));
            }
        }
        tok.to_string()
    };
    log.entries()
        .iter()
        .filter(|(_, ev)| matches!(ev.kind_key(), "spawned" | "peer_restarted"))
        .map(|(_, ev)| {
            ev.canonical()
                .split(' ')
                .map(|field| match field.split_once('=') {
                    Some((k, v)) => format!("{k}={}", rename(v)),
                    None => field.to_string(),
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

/// A bare dispatch-plane client for the sim side: mirrors the rt
/// cluster's `submit` path (jobs enter the plane with no parent span),
/// sending the next job as each response lands.
struct Submitter {
    beacon: GroupId,
    stub: ManagerStub,
    sent: u64,
}

impl Submitter {
    fn send_next(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
        if self.sent >= JOBS {
            return;
        }
        self.sent += 1;
        self.stub.dispatch(
            ctx,
            WorkerClass::new("echo"),
            "echo",
            Blob::payload(256, "probe"),
            None,
            SpanCtx::root(),
        );
    }
}

impl Component<SnsMsg> for Submitter {
    fn on_start(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
        self.stub.set_tracing(ctx.tracer().is_enabled());
        self.stub.set_sampling(ctx.tracer().sampling());
        ctx.join(self.beacon);
        // First dispatch once beacons have populated the hint cache.
        ctx.timer(Duration::from_secs(2), 1);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SnsMsg>, _from: ComponentId, msg: SnsMsg) {
        match msg {
            SnsMsg::Beacon(b) => {
                self.stub.on_beacon(&b);
                self.stub.flush_pending(ctx);
            }
            SnsMsg::WorkResponse { job_id, .. } => {
                self.stub.on_response(ctx, job_id);
                self.send_next(ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SnsMsg>, _token: u64) {
        self.send_next(ctx);
    }

    fn kind(&self) -> &'static str {
        "submitter"
    }
}

/// Simulator run of the script: 3 echo workers, 4 echo jobs from 2 s,
/// kill a worker at 6 s and again at 12 s, stop at 18 s. Returns the
/// tapped monitor log and the normalized trace rendering.
fn sim_run() -> (MonitorLog, String) {
    sim_run_sampled(Sampling::ALL)
}

/// Same script with an explicit head-sampling policy on the tracer.
fn sim_run_sampled(sampling: Sampling) -> (MonitorLog, String) {
    let mut sim: Sim<SnsMsg, San> = Sim::new(
        SimConfig::default(),
        San::new(SanConfig::switched_100mbps()),
    );
    sim.set_tracer(Tracer::sampled(sampling));
    let infra = sim.add_node(NodeSpec::new(2, "infra"));
    // One dedicated node, like the rt cluster's single default vnode,
    // so placement decisions line up 1:1.
    sim.add_node(NodeSpec::new(8, "dedicated"));
    let beacon = sim.create_group();
    let monitor_group = sim.create_group();
    let sns = SnsConfig::default();
    let report_period = sns.report_period;

    let mut classes = BTreeMap::new();
    classes.insert(
        WorkerClass::new("echo"),
        WorkerSpec::scaled(
            3,
            Box::new(move || {
                Box::new(WorkerStub::new(
                    Box::new(Echo),
                    WorkerStubConfig {
                        beacon_group: beacon,
                        monitor_group,
                        report_period,
                        cost_weight_unit: None,
                    },
                ))
            }),
        ),
    );
    sim.spawn(
        infra,
        Box::new(Manager::new(ManagerConfig {
            sns,
            beacon_group: beacon,
            monitor_group,
            incarnation: 1,
            classes,
            fe_factory: None,
        })),
        "manager",
    );
    let (tap, log) = MonitorTap::new(monitor_group);
    sim.spawn(infra, Box::new(tap), "montap");
    sim.spawn(
        infra,
        Box::new(Submitter {
            beacon,
            stub: ManagerStub::new(SnsConfig::default()),
            sent: 0,
        }),
        "submitter",
    );

    for at in [6u64, 12] {
        sim.at(SimTime::from_secs(at), |sim| {
            let victims = sim.components_of_kind("echo");
            let victim = *victims.first().expect("a live echo worker");
            sim.kill_component(victim);
        });
    }
    sim.run_until(SimTime::from_secs(18));
    let trace = sim.tracer().snapshot().expect("tracing was enabled");
    let out = log.borrow().clone();
    (out, normalized(&trace))
}

/// Threaded-runtime run of the same script: 3 echo workers, 4 echo
/// jobs, crash a worker, wait for recovery, crash another, wait again.
fn rt_run() -> (MonitorLog, String) {
    rt_run_sampled(1)
}

/// Same script with head sampling at `rate` (decision seed = the
/// cluster seed, matching `sim_run_sampled`'s explicit policy).
fn rt_run_sampled(rate: u32) -> (MonitorLog, String) {
    let c: Arc<RtCluster> = RtCluster::start(
        RtConfig::new()
            .with_time_scale(0.0) // service instantly; only the script order matters
            .with_report_period(Duration::from_millis(10))
            .with_beacon_period(Duration::from_millis(20))
            .with_tracing(true)
            .with_trace_sampling(rate),
    );
    c.add_workers("echo", 3, || Box::new(Echo));
    c.refresh_hints_now();
    for _ in 0..JOBS {
        let rx = c.submit("echo", "echo", Blob::payload(256, "probe"), None);
        rx.recv_timeout(Duration::from_secs(10))
            .expect("echo job must be answered");
    }
    for round in 1..=2u64 {
        assert!(c.crash_worker("echo"), "a live echo worker exists");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if c.workers_of("echo") == 3 && c.restarts.load(Ordering::Relaxed) >= round {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(c.workers_of("echo"), 3, "round {round} recovered");
    }
    c.shutdown();
    let trace = c.trace_snapshot().expect("tracing was enabled");
    (c.monitor_log(), normalized(&trace))
}

#[test]
fn sim_and_rt_drivers_agree_on_control_decisions() {
    let sim_decisions = decisions(&sim_run().0);
    let rt_decisions = decisions(&rt_run().0);
    // Sanity on the shape before the full diff: 3 bootstrap spawns plus
    // a (spawn, peer-restart) pair per kill.
    assert_eq!(
        sim_decisions.len(),
        7,
        "sim decision stream: {sim_decisions:?}"
    );
    assert_eq!(
        sim_decisions, rt_decisions,
        "the two drivers of the shared control plane diverged"
    );
}

/// Virtual-time spans and wall-clock spans normalise to the same causal
/// tree: one `job` root per submitted echo job, each covering the
/// worker-side `queue` and `service` spans it caused.
#[test]
fn sim_and_rt_traces_normalise_to_the_same_span_tree() {
    let sim_tree = sim_run().1;
    let rt_tree = rt_run().1;
    assert_eq!(
        sim_tree.lines().filter(|l| l.starts_with("job:")).count(),
        JOBS as usize,
        "one root per submitted job:\n{sim_tree}"
    );
    assert_eq!(
        sim_tree, rt_tree,
        "normalized span trees diverged between the sim and rt drivers"
    );
}

/// Head sampling keeps the backends in lock-step: the decision is a
/// pure function of the (shared) seed and the job id, so the *set* of
/// sampled jobs — and therefore the normalized span forest — is
/// byte-identical between the sim and rt drivers at any rate.
#[test]
fn sim_and_rt_sample_the_same_request_set() {
    // Match the rt side's derivation: rate over the default cluster seed.
    let rate = 2;
    let sampling = Sampling::per(rate, RtConfig::new().seed);
    let sim_tree = sim_run_sampled(sampling).1;
    let rt_tree = rt_run_sampled(rate).1;
    // Jobs get plane ids 1..=JOBS in both backends; predict the kept set.
    let expected: usize = (1..=JOBS).filter(|&n| sampling.decide(n)).count();
    assert!(
        expected < JOBS as usize,
        "rate {rate} must drop at least one of {JOBS} jobs for this seed"
    );
    assert_eq!(
        sim_tree.lines().filter(|l| l.starts_with("job:")).count(),
        expected,
        "sim kept exactly the predicted sampled set:\n{sim_tree}"
    );
    assert_eq!(
        sim_tree, rt_tree,
        "sampled span forests diverged between the sim and rt drivers"
    );
}
