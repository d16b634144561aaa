//! A three-stage TACC pipeline — fetch → distill → aggregate (→ cache)
//! — written as **one async fn** and served by a simulated cluster.
//!
//! ```sh
//! cargo run --release --example async_pipeline
//! ```
//!
//! The service body is [`cluster_sns::tacc::PipelineService`]: a single
//! `async fn run()` that starts one chain per source — fetch the page,
//! then push it through the distiller chain with a hedged retry
//! (`race`) under a give-up deadline (`timeout`) — fans in over the
//! chains as they finish (`select_some`), collates the results through
//! an aggregator, injects the answer into the cache and replies. The
//! paper's §3.1.8 tactics are combinators, not state.
//!
//! The driver printing the results is a plain engine component: it
//! sends one query, records the response and sends the next.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use cluster_sns::core::msg::{ClientRequest, SnsMsg};
use cluster_sns::sim::engine::{Component, Ctx};
use cluster_sns::sim::{ComponentId, SimTime};
use cluster_sns::tacc::origin::FetchRequest;
use cluster_sns::tacc::{PipelineConfig, PipelineJob, PipelineService};
use cluster_sns::transend::TranSendBuilder;
use cluster_sns::workload::MimeType;

/// Queries the demo sends.
const QUERIES: u64 = 8;

/// Per-query outcome: `(id, degraded, Ok(bytes) | Err(reason))`.
type Outcome = (u64, bool, Result<u64, String>);

/// Sends the queries one at a time: each response it records (with its
/// latency) sends the next.
struct QueryClient {
    fe: ComponentId,
    next: u64,
    sent_at: SimTime,
    done: Rc<RefCell<Vec<Outcome>>>,
}

impl QueryClient {
    fn send_next(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
        if self.next == QUERIES {
            return;
        }
        let id = self.next;
        self.next += 1;
        let sources = (0..3)
            .map(|e| FetchRequest {
                url: format!("http://engine{e}/results?q={id}"),
                mime: MimeType::Html,
                size: 24 * 1024,
            })
            .collect();
        let args = BTreeMap::from([
            ("query".to_string(), format!("scalable services {id}")),
            ("max_results".to_string(), "10".to_string()),
        ]);
        let request = ClientRequest {
            id,
            user: format!("user{}", id % 3),
            url: format!("transend://metasearch?q={id}"),
            body: Some(Arc::new(PipelineJob { sources, args })),
        };
        ctx.send(self.fe, SnsMsg::Request(Arc::new(request)));
        self.sent_at = ctx.now();
    }
}

impl Component<SnsMsg> for QueryClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
        // Let bootstrap spawns register and the first beacon land.
        ctx.timer(Duration::from_secs(5), 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SnsMsg>, _token: u64) {
        self.send_next(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SnsMsg>, _from: ComponentId, msg: SnsMsg) {
        let SnsMsg::Response(resp) = msg else {
            return;
        };
        let latency = ctx.now().since(self.sent_at);
        ctx.stats()
            .observe("demo.latency_ms", latency.as_secs_f64() * 1e3);
        let outcome = resp.result.as_ref().map(|p| p.wire_size());
        self.done
            .borrow_mut()
            .push((resp.id, resp.degraded, outcome.map_err(Clone::clone)));
        self.send_next(ctx);
    }

    fn kind(&self) -> &'static str {
        "pipe-client"
    }
}

fn main() {
    // A stock TranSend cluster supplies the substrate — origin, cache
    // partitions, distillers, an aggregator — then one extra front end
    // runs the async pipeline service instead of TranSend's logic.
    let mut cluster = TranSendBuilder::new()
        .with_worker_nodes(6)
        .with_frontends(1)
        .with_cache_partitions(3)
        .with_distillers(["gif", "jpeg", "html"])
        .with_aggregators(["metasearch"])
        .with_origin_penalty_scale(0.2)
        .build();
    let pipe_fe = cluster.add_frontend_with_logic(Box::new(PipelineService::new(PipelineConfig {
        stages: vec!["html".into()],
        aggregator: Some("metasearch".into()),
        give_up: Duration::from_secs(8),
        hedge_after: Duration::from_secs(2),
        cache_final: true,
    })));

    let done = Rc::new(RefCell::new(Vec::new()));
    let client = QueryClient {
        fe: pipe_fe,
        next: 0,
        sent_at: SimTime::ZERO,
        done: Rc::clone(&done),
    };
    let client_node = cluster.client_node;
    cluster
        .sim
        .spawn(client_node, Box::new(client), "pipe-client");

    cluster.sim.run_until(SimTime::from_secs(600));

    println!("== async pipeline: fetch → distill/html → metasearch → cache ==");
    for (id, degraded, outcome) in done.borrow().iter() {
        match outcome {
            Ok(bytes) => println!(
                "query {id}: {bytes} bytes{}",
                if *degraded { "  (degraded)" } else { "" }
            ),
            Err(e) => println!("query {id}: error: {e}"),
        }
    }
    println!("\n== pipeline counters ==");
    for key in [
        "tacc.pipe_requests",
        "tacc.pipe_hedges",
        "tacc.pipe_gave_up",
        "tacc.pipe_source_missing",
        "tacc.pipe_stage_degraded",
        "tacc.pipe_aggregated",
        "tacc.pipe_agg_degraded",
    ] {
        println!("{key:<26}: {}", cluster.sim.stats().counter(key));
    }
    if let Some(lat) = cluster.sim.stats_mut().summary_mut("demo.latency_ms") {
        println!(
            "latency mean / p95        : {:.0} ms / {:.0} ms",
            lat.mean(),
            lat.quantile(0.95)
        );
    }
}
