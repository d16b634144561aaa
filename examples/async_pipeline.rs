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
//! For contrast, the *legacy* expression of the same control flow — the
//! per-request state machine every front-end service was written as
//! before the executor existed, and which the front end no longer
//! hosts — looked like this (abbreviated):
//!
//! ```ignore
//! const TAG_FETCH0: u64 = 1024;   // + source index
//! const TAG_DISTILL0: u64 = 16;   // + stage index
//! const TAG_AGGREGATE: u64 = 8;
//! const TAG_GIVE_UP: u64 = 5;     // nap timer token
//!
//! fn on_request(&mut self, req, fe) -> Vec<Action> {
//!     // remember per-request state, emit one Dispatch per source…
//!     self.pending.insert(req.id, Pending::Fetching { got: vec![] });
//!     sources.map(|i, s| Action::Dispatch { tag: TAG_FETCH0 + i, .. })
//! }
//!
//! fn on_event(&mut self, st, ev, fe) -> Vec<Action> {
//!     match (self.pending.get_mut(&st), ev) {
//!         // every arrow in the dataflow is a (state, tag) arm:
//!         (Fetching { got }, WorkerReply { tag, .. })
//!             if (TAG_FETCH0..).contains(&tag) => { /* collect;
//!                 when all arrived, emit TAG_DISTILL0 dispatch */ }
//!         (Distilling { .. }, WorkerReply { tag: TAG_DISTILL0, .. })
//!             => { /* next stage, or TAG_AGGREGATE dispatch */ }
//!         (Distilling { .. }, NapDone { tag: TAG_GIVE_UP })
//!             => { /* give-up: degrade, skip to aggregate */ }
//!         (Aggregating, WorkerReply { tag: TAG_AGGREGATE, .. })
//!             => { /* inject + reply */ }
//!         // …plus DispatchFailed arms for every tag above.
//!     }
//! }
//! ```
//!
//! Same dataflow, but the sequencing lives in tag constants and a
//! cross-product of match arms. The async body below reads top to
//! bottom; the driver printing the results is itself an
//! [`cluster_sns::core::exec::component::AsyncComponent`] — the same
//! executor adapted to a whole engine component.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cluster_sns::core::exec::component::{AcBody, AsyncComponent};
use cluster_sns::core::exec::timeout;
use cluster_sns::core::msg::{ClientRequest, SnsMsg};
use cluster_sns::sim::SimTime;
use cluster_sns::tacc::origin::FetchRequest;
use cluster_sns::tacc::{PipelineConfig, PipelineJob, PipelineService};
use cluster_sns::transend::TranSendBuilder;
use cluster_sns::workload::MimeType;

/// Per-query outcome: `(id, degraded, Ok(bytes) | Err(reason))`.
type Outcomes = Arc<Mutex<Vec<(u64, bool, Result<u64, String>)>>>;

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

    // The driver is an async body too: send each query, await the
    // response (bounded), record the outcome.
    let done: Outcomes = Arc::new(Mutex::new(Vec::new()));
    let report = Arc::clone(&done);
    let body: AcBody<SnsMsg> = Box::new(move |inbox, h| {
        Box::pin(async move {
            // Let bootstrap spawns register and the first beacon land.
            h.sleep(Duration::from_secs(5)).await;
            for id in 0..8u64 {
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
                h.send(
                    pipe_fe,
                    SnsMsg::Request(Arc::new(ClientRequest {
                        id,
                        user: format!("user{}", id % 3),
                        url: format!("transend://metasearch?q={id}"),
                        body: Some(Arc::new(PipelineJob { sources, args })),
                    })),
                );
                let sent = h.now();
                // One request at a time: await its response (or give up
                // after 30 virtual seconds) before issuing the next.
                let got = timeout(inbox.recv(), h.sleep(Duration::from_secs(30))).await;
                let Some(Some((_, SnsMsg::Response(resp)))) = got else {
                    report
                        .lock()
                        .unwrap()
                        .push((id, false, Err("timed out".into())));
                    continue;
                };
                let latency = h.now().since(sent);
                h.observe("demo.latency_ms", latency.as_secs_f64() * 1e3);
                report.lock().unwrap().push((
                    resp.id,
                    resp.degraded,
                    resp.result
                        .as_ref()
                        .map(|p| p.wire_size())
                        .map_err(Clone::clone),
                ));
            }
        })
    });
    let client_node = cluster.client_node;
    cluster.sim.spawn(
        client_node,
        Box::new(AsyncComponent::new("pipe-client", body).exit_when_done()),
        "pipe-client",
    );

    cluster.sim.run_until(SimTime::from_secs(600));

    println!("== async pipeline: fetch → distill/html → metasearch → cache ==");
    for (id, degraded, outcome) in done.lock().unwrap().iter() {
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
