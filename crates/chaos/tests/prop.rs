//! Seeded property suite: random recoverable [`FaultPlan`]s against a
//! small simulated TranSend cluster must satisfy the no-lost-jobs and
//! drain-bound invariants; and an intentionally broken invariant must
//! shrink to a minimal (single-event) counterexample plan.

use std::time::Duration;

use sns_chaos::{fault_plan, FaultPlan, PlanSpace, SimChaos, SimChaosConfig, SpawnBudget};
use sns_core::{MonitorTap, TapHandle};
use sns_sim::SimTime;
use sns_testkit::{check_config, Config};
use sns_transend::{TranSendBuilder, TranSendCluster};
use sns_workload::playback::{Playback, Schedule};
use sns_workload::trace::{TraceGenerator, WorkloadConfig};

/// Environment-driven config, but with cheaper defaults than the
/// testkit's 64 cases: every case here is a whole cluster run.
fn cfg(name: &str) -> Config {
    let mut c = Config::from_env(name);
    if std::env::var("SNS_TESTKIT_CASES").is_err() {
        c.cases = 10;
    }
    if std::env::var("SNS_TESTKIT_SHRINK").is_err() {
        c.shrink_budget = 96;
    }
    c
}

/// Boot spawns of [`tiny_cluster`]: 1 cache + 1 profile DB + 1 gif
/// distiller. A deterministic function of the topology, which is what
/// makes spawn budgets usable as invariants.
const BOOT_SPAWNS: usize = 3;

fn tiny_cluster(seed: u64) -> (TranSendCluster, TapHandle) {
    let mut cluster = TranSendBuilder::new()
        .with_seed(seed)
        .with_worker_nodes(3)
        .with_overflow_nodes(1)
        .with_frontends(1)
        .with_cache_partitions(1)
        .with_min_distillers(1)
        .with_distillers(["gif"])
        .with_origin_penalty_scale(0.1)
        .build();
    let node = cluster.sim.nodes_with_tag("infra")[0];
    let (tap, log) = MonitorTap::new(cluster.monitor_group);
    cluster.sim.spawn(node, Box::new(tap), "montap");
    (cluster, log)
}

fn load(seed: u64) -> Vec<(Duration, sns_workload::TraceRecord)> {
    let mut gen = TraceGenerator::new(WorkloadConfig {
        seed,
        users: 20,
        shared_objects: 60,
        private_per_user: 5,
        ..Default::default()
    });
    // Low rate over a long window so requests are in flight across the
    // whole 15–45 s fault window.
    let t = gen.constant_rate(2.0, Duration::from_secs(50));
    Playback::new(&t, Schedule::Timestamps)
        .map(|(at, r)| (at, r.clone()))
        .collect()
}

#[test]
fn random_recoverable_plans_lose_no_jobs_and_drain() {
    let space = PlanSpace::full(&["cache", "distiller/gif"], &["dedicated", "overflow"]);
    check_config(
        "chaos.no_lost_jobs",
        &cfg("chaos.no_lost_jobs"),
        (fault_plan(&space),),
        |(plan,)| {
            let (mut cluster, _log) = tiny_cluster(0xBEEF);
            let reqs = load(0x10AD);
            let n = reqs.len() as u64;
            let report = cluster.attach_client(reqs, Duration::from_secs(4));
            let chaos = SimChaos::install(&mut cluster.sim, &plan, SimChaosConfig::default());

            // Drain bound: everything must be answered by the horizon.
            let horizon = plan
                .horizon(Duration::from_secs(60))
                .max(Duration::from_secs(120));
            cluster.sim.run_until(SimTime::ZERO + horizon);

            let r = report.borrow();
            if r.responses != n || r.errors != 0 {
                return Err(format!(
                    "lost jobs under plan ({} applied): {} of {n} answered, {} errors\n{plan}",
                    chaos.applied_count(),
                    r.responses,
                    r.errors
                )
                .into());
            }
            drop(r);
            // Population restored: the pinned cache partition and exactly
            // one manager incarnation survive every recoverable plan.
            let caches = cluster
                .sim
                .components_of_kind(sns_core::intern_class("cache"))
                .len();
            if caches != 1 {
                return Err(format!("{caches} cache partitions after recovery\n{plan}").into());
            }
            let managers = cluster.sim.components_of_kind("manager").len();
            if managers != 1 {
                return Err(format!("{managers} managers after recovery\n{plan}").into());
            }
            Ok(())
        },
    );
}

/// Runs a plan against an idle tiny cluster and replays the monitor log
/// through a spawn budget fixed at the boot-spawn count — an invariant
/// that is *intentionally broken* by any successful kill (the respawn
/// exceeds the budget). Used to demonstrate shrinking.
fn spawn_budget_verdict(plan: &FaultPlan) -> Result<(), String> {
    let (mut cluster, log) = tiny_cluster(0x5EED);
    SimChaos::install(&mut cluster.sim, plan, SimChaosConfig::default());
    cluster.sim.run_until(
        SimTime::ZERO
            + plan
                .horizon(Duration::from_secs(30))
                .max(Duration::from_secs(60)),
    );
    let verdict = log.borrow().check(&mut SpawnBudget::new(BOOT_SPAWNS));
    verdict
}

#[test]
fn broken_invariant_shrinks_to_a_minimal_plan() {
    // Under a kills-only space, ANY plan with at least one kill violates
    // the boot-only spawn budget, so the shrinker must be able to walk
    // every failing plan down to a single kill event.
    let space = PlanSpace::kills_only(&["cache"]);
    let result = std::panic::catch_unwind(|| {
        check_config(
            "chaos.spawn_budget_shrinks",
            &Config {
                cases: 20,
                seed: 0xC4A0,
                shrink_budget: 768,
            },
            (fault_plan(&space),),
            |(plan,)| spawn_budget_verdict(&plan).map_err(Into::into),
        );
    });
    let msg = *result
        .expect_err("the broken invariant must produce a counterexample")
        .downcast::<String>()
        .expect("string panic");
    assert!(
        msg.contains("property 'chaos.spawn_budget_shrinks' failed"),
        "{msg}"
    );
    assert!(msg.contains("chaos.spawn_budget"), "{msg}");
    // The shrunk witness is minimal: exactly one event survives.
    let events = msg.matches("FaultEvent {").count();
    assert_eq!(events, 1, "shrinker left {events} events:\n{msg}");
    assert!(msg.contains("KillWorker"), "{msg}");
}

#[test]
#[should_panic(expected = "chaos.spawn_budget")]
fn spawn_budget_violation_panics_with_invariant_name() {
    // The acceptance-criterion demo: a fixed single-kill plan against the
    // boot-only spawn budget must fail with the invariant's name.
    let plan = FaultPlan::new().with(
        Duration::from_secs(20),
        sns_chaos::FaultKind::KillWorker {
            class: "cache".into(),
            which: 0,
        },
    );
    spawn_budget_verdict(&plan).unwrap();
}

#[test]
fn empty_plan_keeps_the_boot_spawn_budget() {
    // Control for the two tests above: with no faults the budget holds,
    // so the shrinker's minimal counterexample genuinely needs its event.
    spawn_budget_verdict(&FaultPlan::new()).unwrap();
}
