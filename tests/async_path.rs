//! The async request path, end to end: the same pipeline body must run
//! unmodified on **both** backends — deterministic virtual time behind
//! the sim front end, wall-clock threads against a live [`RtCluster`].
//! (That the async TranSend body replays the retired state machine bit
//! for bit is pinned by the goldens in `tests/determinism.rs`.)

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use cluster_sns::core::msg::{ClientRequest, SnsMsg};
use cluster_sns::core::trace::{children_of, SpanRecord, DISPATCH, REQUEST};
use cluster_sns::distillers::{HtmlMunger, MetasearchAggregator};
use cluster_sns::rt::{exec::serve, RtCluster, RtConfig};
use cluster_sns::sim::engine::{Component, Ctx};
use cluster_sns::sim::{ComponentId, SimTime};
use cluster_sns::tacc::origin::FetchRequest;
use cluster_sns::tacc::worker::TaccWorkerHost;
use cluster_sns::tacc::{OriginServer, PipelineConfig, PipelineJob, PipelineService};
use cluster_sns::transend::TranSendBuilder;
use cluster_sns::workload::MimeType;

fn pipeline_cfg() -> PipelineConfig {
    PipelineConfig {
        stages: vec!["html".into()],
        aggregator: Some("metasearch".into()),
        give_up: Duration::from_secs(8),
        hedge_after: Duration::from_secs(2),
        cache_final: true,
    }
}

fn pipeline_job(id: u64) -> PipelineJob {
    PipelineJob {
        sources: (0..3)
            .map(|e| FetchRequest {
                url: format!("http://engine{e}/results?q={id}"),
                mime: MimeType::Html,
                size: 16 * 1024,
            })
            .collect(),
        args: BTreeMap::from([
            ("query".to_string(), format!("query {id}")),
            ("max_results".to_string(), "10".to_string()),
        ]),
    }
}

/// A closed-loop sim client: after a start delay it sends request 0,
/// and each response it records sends the next, until `total` are
/// answered.
struct PipeClient {
    fe: ComponentId,
    next: u64,
    total: u64,
    /// `(id, ok, degraded)` per response, in arrival order.
    answered: Rc<RefCell<Vec<(u64, bool, bool)>>>,
}

impl PipeClient {
    fn send_next(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
        if self.next == self.total {
            return;
        }
        let id = self.next;
        self.next += 1;
        let request = ClientRequest {
            id,
            user: "tester".into(),
            url: format!("transend://pipeline?q={id}"),
            body: Some(Arc::new(pipeline_job(id))),
        };
        ctx.send(self.fe, SnsMsg::Request(Arc::new(request)));
    }
}

impl Component<SnsMsg> for PipeClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
        // Let bootstrap spawns register and the first beacon land.
        ctx.timer(Duration::from_secs(5), 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SnsMsg>, _token: u64) {
        self.send_next(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SnsMsg>, _from: ComponentId, msg: SnsMsg) {
        if let SnsMsg::Response(resp) = msg {
            let outcome = (resp.id, resp.result.is_ok(), resp.degraded);
            self.answered.borrow_mut().push(outcome);
            self.send_next(ctx);
        }
    }

    fn kind(&self) -> &'static str {
        "pipe-client"
    }
}

/// The multi-stage TACC worker body (per-source fetch → hedged distill
/// chains → aggregate → cache) behind a *sim* front end: driven by a
/// closed-loop client, every request aggregates and replies.
#[test]
fn pipeline_body_serves_requests_on_the_sim_backend() {
    let mut cluster = TranSendBuilder::new()
        .with_seed(0xEC)
        .with_worker_nodes(5)
        .with_frontends(1)
        .with_cache_partitions(2)
        .with_min_distillers(3)
        .with_distillers(["gif", "html"])
        .with_aggregators(["metasearch"])
        .with_origin_penalty_scale(0.2)
        .with_tracing(true)
        .build();
    let fe = cluster.add_frontend_with_logic(Box::new(PipelineService::new(pipeline_cfg())));

    let outcomes = Rc::new(RefCell::new(Vec::new()));
    let client = PipeClient {
        fe,
        next: 0,
        total: 4,
        answered: Rc::clone(&outcomes),
    };
    let node = cluster.client_node;
    cluster.sim.spawn(node, Box::new(client), "pipe-client");
    cluster.sim.run_until(SimTime::from_secs(400));

    let got = outcomes.borrow().clone();
    assert_eq!(got.len(), 4, "every request must be answered: {got:?}");
    for (id, ok, degraded) in &got {
        assert!(ok, "request {id} failed");
        assert!(!degraded, "request {id} degraded");
    }
    let stats = cluster.sim.stats();
    assert_eq!(stats.counter("tacc.pipe_requests"), 4);
    assert_eq!(stats.counter("tacc.pipe_aggregated"), 4);
    assert_eq!(stats.counter("tacc.pipe_errors"), 0);

    // Each source is its own fetch → distill chain, so a request takes
    // its slowest fetch, then *one* distill, then the aggregate — never
    // the distills one after another. Dispatch spans are exact in
    // virtual time, so the bound needs no slack.
    let log = cluster.trace().expect("tracing on");
    let requests: Vec<_> = log.spans().iter().filter(|s| s.name == REQUEST).collect();
    assert_eq!(requests.len(), 4);
    for req in requests {
        let jobs = children_of(&log, req.id);
        let of = |prefix: &str| -> Vec<&SpanRecord> {
            let of_class = |s: &&SpanRecord| s.name == DISPATCH && s.class.starts_with(prefix);
            jobs.iter().copied().filter(of_class).collect()
        };
        let (fetches, distills, aggregates) = (of("origin"), of("distiller/"), of("aggregator/"));
        assert_eq!(
            (fetches.len(), distills.len(), aggregates.len()),
            (3, 3, 1),
            "dispatches of request {:?}",
            req.id
        );
        let started = fetches.iter().map(|s| s.start).min().expect("3 fetches");
        let fetched = fetches.iter().map(|s| s.end).max().expect("3 fetches");
        let distill = distills.iter().map(|s| s.duration()).max().expect("3");
        let path = (fetched - started) + distill + aggregates[0].duration();
        assert!(
            aggregates[0].end - started <= path,
            "request {:?} took {:?}, its fetch + one distill + aggregate is {path:?}",
            req.id,
            aggregates[0].end - started
        );
    }
}

/// The **same** body against the threaded runtime: wall-clock driver,
/// live dispatch plane, real reply channels — fetch, distill, aggregate
/// and reply with nothing changed but the clock.
#[test]
fn pipeline_body_serves_requests_on_the_rt_backend() {
    let c = RtCluster::start(
        RtConfig::new()
            .with_time_scale(0.02)
            .with_report_period(Duration::from_millis(10))
            .with_beacon_period(Duration::from_millis(20)),
    );
    // One worker per source in each fan-out class, so a lone request
    // never has to queue.
    c.add_workers("origin", 3, || {
        Box::new(OriginServer::new().with_penalty_scale(0.02))
    });
    c.add_workers("distiller/html", 3, || {
        Box::new(TaccWorkerHost::transformer(
            Box::new(HtmlMunger::new()),
            BTreeMap::new(),
        ))
    });
    c.add_workers("aggregator/metasearch", 1, || {
        Box::new(TaccWorkerHost::aggregator(
            Box::new(MetasearchAggregator::new()),
            BTreeMap::new(),
        ))
    });

    let mut svc = PipelineService::new(PipelineConfig {
        stages: vec!["html".into()],
        aggregator: Some("metasearch".into()),
        give_up: Duration::from_secs(10),
        hedge_after: Duration::from_secs(2),
        cache_final: false, // no cache class in this roster
    });
    for id in 0..2u64 {
        let outcome = serve(
            &c,
            &mut svc,
            ClientRequest {
                id,
                user: "tester".into(),
                url: format!("transend://pipeline?q={id}"),
                body: Some(Arc::new(pipeline_job(id))),
            },
        );
        assert!(
            outcome.result.is_ok(),
            "rt request {id} failed: {:?}",
            outcome.result
        );
        assert!(!outcome.degraded, "rt request {id} degraded");
        assert_eq!(outcome.stats.get("tacc.pipe_requests"), Some(&1));
        assert_eq!(outcome.stats.get("tacc.pipe_aggregated"), Some(&1));
    }
    // Each request's three concurrent fetches (then distills) found
    // three idle workers: the shards place by the live gauges, so no
    // stage waited behind a sibling.
    assert_eq!(c.counter("stub.dispatches"), 14);
    assert_eq!(c.counter("stub.placed_busy"), 0);
    c.shutdown();
}
