//! A multi-stage TACC worker path as one `async fn`: fetch → distill →
//! aggregate → cache → reply, in a single readable body.
//!
//! Written as a per-request state machine, [`PipelineService`] would be
//! spread across tag constants and `on_event` arms. Here the same
//! control flow reads top to bottom, and the paper's tactics become
//! library calls:
//!
//! * **give-up** (§3.1.8 "serve approximate answers fast") is
//!   [`sns_core::exec::timeout`] around a stage, with a framework nap
//!   as the deadline;
//! * **hedged retry** is [`sns_core::exec::race`] between the primary
//!   dispatch and a delayed backup — the loser is dropped, which
//!   releases its await slot (a late reply, if any, polls nothing);
//! * **fan-in** is [`sns_core::exec::select_some`] over one chain
//!   future per source (its fetch, then its distill stages), which
//!   resolves strictly in completion order — the sources' stages run
//!   side by side on the distiller pool, not one object after another.
//!
//! The body runs unmodified on both backends: hosted by the sim
//! [`sns_core::FrontEnd`] (virtual time), and against a live `sns_rt`
//! cluster via its wall-clock driver (`sns_rt::exec::serve` — a
//! downstream crate, hence not linkable).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use sns_cache::CacheKey;
use sns_core::exec::service::{AsyncService, EventOutcome, SvcHandle};
use sns_core::exec::{race, select_some, timeout, BoxFut, Either};
use sns_core::msg::{ClientRequest, JobResult, ProfileData};
use sns_core::{payload_as, AppData, WorkerClass};
use sns_workload::MimeType;

use crate::cache_worker::{CacheInject, CacheWorker};
use crate::content::ContentObject;
use crate::origin::{FetchRequest, OriginServer};
use crate::pipeline::PipelineSpec;
use crate::worker::{AggregateRequest, TaccArgs};

/// A pipeline request: sources to fetch and per-request arguments
/// (normally derived from the user's customisation profile).
#[derive(Debug, Clone)]
pub struct PipelineJob {
    /// Pages to fetch and push through the stage chain.
    pub sources: Vec<FetchRequest>,
    /// Distillation arguments (quality, scale, keywords, …).
    pub args: BTreeMap<String, String>,
}

impl AppData for PipelineJob {
    fn wire_size(&self) -> u64 {
        self.sources.iter().map(|s| s.wire_size()).sum::<u64>()
            + self
                .args
                .iter()
                .map(|(k, v)| (k.len() + v.len() + 8) as u64)
                .sum::<u64>()
            + 16
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Service knobs.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Distiller stage chain (class becomes `distiller/<stage>`).
    pub stages: Vec<String>,
    /// Aggregator collating multi-source results (class becomes
    /// `aggregator/<name>`); `None` replies with the first object.
    pub aggregator: Option<String>,
    /// Per-stage give-up deadline: past it the stage result is
    /// abandoned and the request degrades (BASE).
    pub give_up: Duration,
    /// Hedged-retry delay: a backup dispatch launches if the primary
    /// has not answered by then.
    pub hedge_after: Duration,
    /// Whether the final object is injected into the cache class.
    pub cache_final: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            stages: vec!["gif".into()],
            aggregator: None,
            give_up: Duration::from_secs(8),
            hedge_after: Duration::from_secs(2),
            cache_final: true,
        }
    }
}

/// The three-stage TACC pipeline as an [`AsyncService`].
pub struct PipelineService {
    cfg: Arc<PipelineConfig>,
}

impl PipelineService {
    /// Creates the service.
    pub fn new(cfg: PipelineConfig) -> Self {
        PipelineService { cfg: Arc::new(cfg) }
    }
}

impl AsyncService for PipelineService {
    fn handle(&mut self, request: Arc<ClientRequest>, svc: SvcHandle) -> BoxFut {
        let cfg = self.cfg.clone();
        Box::pin(run(cfg, request, svc))
    }
}

/// One distill stage, hedged and bounded: race the primary dispatch
/// against a delayed backup, give the pair up after `give_up`.
async fn distill_stage(
    svc: &SvcHandle,
    stage: &str,
    input: ContentObject,
    profile: Option<ProfileData>,
    hedge_after: Duration,
    give_up: Duration,
) -> Option<ContentObject> {
    let class = WorkerClass::new(format!("distiller/{stage}"));
    let primary = svc.dispatch(
        class.clone(),
        "transform",
        input.clone().into_payload(),
        profile.clone(),
    );
    let hedge_svc = svc.clone();
    let hedge: BoxFut<EventOutcome> = Box::pin(async move {
        hedge_svc.nap(hedge_after).await;
        hedge_svc.incr("tacc.pipe_hedges", 1);
        hedge_svc
            .dispatch(class, "transform", input.into_payload(), profile)
            .await
    });
    let outcome = timeout(race(primary, hedge), svc.nap(give_up)).await;
    match outcome {
        Some(Either::Left(o)) | Some(Either::Right(o)) => match o {
            EventOutcome::Reply(JobResult::Ok(p)) => ContentObject::from_payload(&p).cloned(),
            _ => None,
        },
        None => {
            svc.incr("tacc.pipe_gave_up", 1);
            None
        }
    }
}

/// One source, start to finish: fetch it, then push it through the
/// stage chain. `None` when the origin did not deliver; a failed or
/// gave-up stage keeps the object as-is. Both degrade the answer
/// instead of failing it (§3.1.8).
async fn source_chain(
    svc: SvcHandle,
    cfg: Arc<PipelineConfig>,
    src: FetchRequest,
    profile: Option<ProfileData>,
) -> Option<ContentObject> {
    let fetched = svc
        .dispatch(OriginServer::CLASS.into(), "fetch", Arc::new(src), None)
        .await;
    let Some(mut obj) = fetched
        .ok_payload()
        .and_then(|p| ContentObject::from_payload(p).cloned())
    else {
        svc.incr("tacc.pipe_source_missing", 1);
        svc.mark_degraded();
        return None;
    };
    for stage in &cfg.stages {
        match distill_stage(
            &svc,
            stage,
            obj.clone(),
            profile.clone(),
            cfg.hedge_after,
            cfg.give_up,
        )
        .await
        {
            Some(next) => obj = next,
            None => {
                svc.incr("tacc.pipe_stage_degraded", 1);
                svc.mark_degraded();
                break;
            }
        }
    }
    Some(obj)
}

/// One pipeline request, top to bottom.
async fn run(cfg: Arc<PipelineConfig>, req: Arc<ClientRequest>, svc: SvcHandle) {
    svc.incr("tacc.pipe_requests", 1);
    let job = req
        .body
        .as_ref()
        .and_then(|b| payload_as::<PipelineJob>(b).cloned())
        .unwrap_or(PipelineJob {
            sources: vec![FetchRequest {
                url: req.url.clone(),
                mime: MimeType::Gif,
                size: 32 * 1024,
            }],
            args: BTreeMap::new(),
        });
    let args = TaccArgs::from_map(job.args.clone());
    let profile: Option<ProfileData> = Some(Arc::new(args.as_map().clone()));

    // Fetch + distill: one chain per source, all started by the first
    // poll (fetches leave in source order), collected as they finish.
    let mut chains: Vec<Option<BoxFut<Option<ContentObject>>>> = job
        .sources
        .iter()
        .map(|src| {
            let chain = source_chain(svc.clone(), cfg.clone(), src.clone(), profile.clone());
            Some(Box::pin(chain) as BoxFut<_>)
        })
        .collect();
    let mut objs: Vec<ContentObject> = Vec::new();
    for _ in 0..chains.len() {
        let (_, obj) = select_some(&mut chains).await;
        objs.extend(obj);
    }
    if objs.is_empty() {
        svc.incr("tacc.pipe_errors", 1);
        svc.reply(Err("no sources reachable".into()));
        return;
    }

    // Aggregate: collate multi-source results; an unreachable
    // aggregator degrades to the first object.
    if let (Some(agg), true) = (&cfg.aggregator, objs.len() > 1) {
        let pending = svc.dispatch(
            WorkerClass::new(format!("aggregator/{agg}")),
            "aggregate",
            Arc::new(AggregateRequest {
                inputs: objs.clone(),
            }),
            profile.clone(),
        );
        match timeout(pending, svc.nap(cfg.give_up)).await {
            Some(EventOutcome::Reply(JobResult::Ok(p))) => {
                svc.incr("tacc.pipe_aggregated", 1);
                if cfg.cache_final {
                    if let Some(obj) = ContentObject::from_payload(&p) {
                        inject(&svc, &cfg, &args, obj.clone());
                    }
                }
                svc.observe("tacc.pipe_response_bytes", p.wire_size() as f64);
                svc.reply(Ok(p));
                return;
            }
            _ => {
                svc.incr("tacc.pipe_agg_degraded", 1);
                svc.mark_degraded();
            }
        }
    }

    // Cache + reply.
    let final_obj = objs.into_iter().next().expect("objs checked non-empty");
    if cfg.cache_final {
        inject(&svc, &cfg, &args, final_obj.clone());
    }
    svc.observe("tacc.pipe_response_bytes", final_obj.len() as f64);
    svc.reply(Ok(final_obj.into_payload()));
}

/// Fire-and-forget cache injection: the `Pending` is dropped at once,
/// so the dispatch runs but nobody awaits the ack.
fn inject(svc: &SvcHandle, cfg: &PipelineConfig, args: &TaccArgs, object: ContentObject) {
    let stages: Vec<&str> = cfg.stages.iter().map(String::as_str).collect();
    let variant = PipelineSpec::of(&stages).final_variant(args);
    let key = CacheKey::variant(&object.url, variant);
    drop(svc.dispatch(
        CacheWorker::CLASS.into(),
        "inject",
        Arc::new(CacheInject {
            key,
            object: object.into_payload(),
        }),
        None,
    ));
}
