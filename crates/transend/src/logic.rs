//! TranSend's front-end dispatch logic (§3.1.1) as one `async fn` per
//! request (`DESIGN.md` §6i).
//!
//! Request processing: pair the request with the user's customisation
//! preferences (write-through-cached, §3.1.4) → look up the distilled
//! variant in the virtual cache (consistent hashing across live cache
//! workers, §3.1.5) → on miss, look up / fetch the original → send it
//! through the per-MIME distillation pipeline → inject results back into
//! the cache → reply. Every failure has a BASE fallback (§3.1.8): a
//! missing profile means default preferences, a cache timeout is just a
//! miss, a failed distiller means the user gets the original content,
//! degraded but fast.
//!
//! [`TranSendAsync`] writes that flow top to bottom; the front end hosts
//! it directly, and the same body type runs against a live cluster under
//! `sns-rt`'s wall-clock driver.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

use sns_cache::{CacheKey, VirtualCache};
use sns_core::exec::service::{AsyncService, EventOutcome, SvcHandle};
use sns_core::exec::{select_some, BoxFut};
use sns_core::msg::{ClientRequest, JobResult, ProfileData};
use sns_core::{payload_as, AppData, Payload, WorkerClass};
use sns_sim::ComponentId;
use sns_tacc::cache_worker::{CacheGet, CacheGetResult, CacheInject, CacheWorker};
use sns_tacc::content::ContentObject;
use sns_tacc::origin::{FetchRequest, OriginServer};
use sns_tacc::pipeline::PipelineSpec;
use sns_tacc::profile_worker::{ProfileGet, ProfilePut, ProfileReply, ProfileWorker};
use sns_tacc::worker::TaccArgs;
use sns_workload::MimeType;

/// A user-preference update request (the §3.1.4 service interface for
/// registering customisation settings).
#[derive(Debug, Clone)]
pub struct PrefUpdate {
    /// Settings to upsert for the requesting user.
    pub settings: Vec<(String, String)>,
}

impl AppData for PrefUpdate {
    fn wire_size(&self) -> u64 {
        self.settings
            .iter()
            .map(|(k, v)| (k.len() + v.len() + 8) as u64)
            .sum::<u64>()
            + 16
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Service-level configuration.
#[derive(Debug, Clone)]
pub struct TranSendConfig {
    /// Objects below this size pass through undistilled (§4.1: "data
    /// under 1 KB is transferred to the client unmodified").
    pub distill_threshold: u64,
    /// Default distillation arguments (overridden per user by profiles).
    pub defaults: BTreeMap<String, String>,
    /// Profile-cache capacity (entries).
    pub profile_cache_cap: usize,
    /// Whether post-transformation content is cached (§4.6 turns this
    /// off to force re-distillation on every request).
    pub cache_distilled: bool,
}

impl Default for TranSendConfig {
    fn default() -> Self {
        let mut defaults = BTreeMap::new();
        defaults.insert("scale".to_string(), "2".to_string());
        defaults.insert("quality".to_string(), "25".to_string());
        TranSendConfig {
            distill_threshold: 1024,
            defaults,
            profile_cache_cap: 4096,
            cache_distilled: true,
        }
    }
}

/// A request for an aggregation service (§5.1: the Bay Area Culture
/// Page, metasearch): fetch the named sources from the wide area, then
/// collate them with the named aggregator worker.
#[derive(Debug, Clone)]
pub struct AggregateServiceRequest {
    /// Aggregator worker name (class becomes `aggregator/<name>`).
    pub aggregator: String,
    /// Pages to fetch and feed to the aggregator.
    pub sources: Vec<FetchRequest>,
    /// Service arguments delivered to the aggregator (query, month, …).
    pub args: BTreeMap<String, String>,
}

impl AppData for AggregateServiceRequest {
    fn wire_size(&self) -> u64 {
        self.aggregator.len() as u64 + self.sources.iter().map(|s| s.wire_size()).sum::<u64>() + 32
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// State shared across one front end's requests: the consistent-hash
/// ring and the write-through profile cache.
struct TsShared {
    vcache: VirtualCache<ComponentId>,
    profile_cache: BTreeMap<String, Option<ProfileData>>,
    profile_order: VecDeque<String>,
}

type Shared = Arc<Mutex<TsShared>>;

/// The TranSend service: one body per request.
pub struct TranSendAsync {
    cfg: Arc<TranSendConfig>,
    shared: Shared,
}

impl TranSendAsync {
    /// Creates the service.
    pub fn new(cfg: TranSendConfig) -> Self {
        TranSendAsync {
            cfg: Arc::new(cfg),
            shared: Arc::new(Mutex::new(TsShared {
                vcache: VirtualCache::new(),
                profile_cache: BTreeMap::new(),
                profile_order: VecDeque::new(),
            })),
        }
    }
}

impl AsyncService for TranSendAsync {
    fn hint_classes(&self) -> Vec<WorkerClass> {
        vec![
            WorkerClass::new(CacheWorker::CLASS),
            WorkerClass::new(ProfileWorker::CLASS),
        ]
    }

    fn handle(&mut self, request: Arc<ClientRequest>, svc: SvcHandle) -> BoxFut {
        Box::pin(run(
            Arc::clone(&self.cfg),
            Arc::clone(&self.shared),
            request,
            svc,
        ))
    }
}

fn lock(shared: &Shared) -> MutexGuard<'_, TsShared> {
    shared.lock().expect("transend shared state poisoned")
}

/// Syncs the ring with the live cache-worker set ("automatically
/// re-hashing when cache nodes are added or removed", §3.1.5).
fn refresh_ring(shared: &Shared, svc: &SvcHandle) {
    let live = svc.workers_of(&WorkerClass::new(CacheWorker::CLASS));
    let mut sh = lock(shared);
    if sh.vcache.partitions() == live.as_slice() {
        return; // both sorted: same membership, nothing to re-hash
    }
    let current: Vec<_> = sh.vcache.partitions().to_vec();
    for gone in current.iter().filter(|p| !live.contains(p)) {
        sh.vcache.remove_partition(gone);
    }
    for fresh in live.iter().filter(|p| !current.contains(p)) {
        sh.vcache.add_partition(*fresh);
    }
}

fn route(shared: &Shared, key: &CacheKey) -> Option<ComponentId> {
    lock(shared).vcache.route(key).copied()
}

fn cache_profile(shared: &Shared, cap: usize, user: &str, profile: Option<ProfileData>) {
    let mut sh = lock(shared);
    if !sh.profile_cache.contains_key(user) {
        sh.profile_order.push_back(user.to_string());
        if sh.profile_order.len() > cap {
            if let Some(victim) = sh.profile_order.pop_front() {
                sh.profile_cache.remove(&victim);
            }
        }
    }
    sh.profile_cache.insert(user.to_string(), profile);
}

/// The distillation plan for one fetch: arguments (defaults overridden
/// by the profile) and the per-MIME stage chain.
fn plan(
    cfg: &TranSendConfig,
    fetch: &FetchRequest,
    profile: Option<&ProfileData>,
) -> (TaccArgs, PipelineSpec) {
    let args = TaccArgs::merged(&cfg.defaults, profile);
    let mut pipeline = match fetch.mime {
        MimeType::Gif => PipelineSpec::single("gif"),
        MimeType::Jpeg => PipelineSpec::single("jpeg"),
        MimeType::Html => PipelineSpec::single("html"),
        MimeType::Other => PipelineSpec::identity(),
    };
    // Per-user composition: a keyword filter chains after the HTML
    // munger when the profile asks for it (§5.1).
    if fetch.mime == MimeType::Html && args.get("keywords").is_some() {
        pipeline = pipeline.then("keyword");
    }
    // Thin clients get the spoon-feeding simplifier as a final stage
    // (§5.1 "Real Web Access for PDAs and Smart Phones").
    if fetch.mime == MimeType::Html && args.get("device") == Some("palm") {
        pipeline = pipeline.then("pda");
    }
    if fetch.size < cfg.distill_threshold || args.get_bool("originals", false) {
        pipeline = PipelineSpec::identity();
    }
    (args, pipeline)
}

/// The cache key of what the plan produces.
fn final_key(fetch: &FetchRequest, pipeline: &PipelineSpec, args: &TaccArgs) -> CacheKey {
    let v = pipeline.final_variant(args);
    if pipeline.is_empty() {
        CacheKey::original(&fetch.url)
    } else {
        CacheKey::variant(&fetch.url, v)
    }
}

/// `p` itself, shared, if it carries a [`ContentObject`]. Content moves
/// through a request as the payload it arrived in; nothing is copied.
fn content(p: &Payload) -> Option<Payload> {
    ContentObject::from_payload(p).map(|_| Arc::clone(p))
}

/// Body length of a payload [`content`] accepted.
fn content_len(p: &Payload) -> u64 {
    ContentObject::from_payload(p).map_or(0, ContentObject::len)
}

/// Fire-and-forget cache injection: the `Pending` is dropped on the
/// spot, so the dispatch still runs but nobody awaits the ack.
fn cache_inject(shared: &Shared, svc: &SvcHandle, key: CacheKey, object: Payload) {
    if let Some(worker) = route(shared, &key) {
        drop(svc.dispatch_to(
            worker,
            CacheWorker::CLASS.into(),
            "inject",
            Arc::new(CacheInject { key, object }),
            None,
        ));
    }
}

/// A cache `get` routed on the ring: `Some(hit)` when a worker
/// answered (`hit` is `None` on a miss), `None` when the lookup failed
/// or timed out.
async fn cache_get(svc: &SvcHandle, worker: ComponentId, key: CacheKey) -> Option<Option<Payload>> {
    let outcome = svc
        .dispatch_to(
            worker,
            CacheWorker::CLASS.into(),
            "get",
            Arc::new(CacheGet { key }),
            None,
        )
        .await;
    let p = outcome.ok_payload()?;
    Some(payload_as::<CacheGetResult>(p).and_then(|r| r.object.as_ref().and_then(content)))
}

/// [`cache_get`] of the original: a hit counts `ts.cache_hit_orig`, a
/// failed lookup `ts.cache_unavailable`.
async fn cached_original(svc: &SvcHandle, worker: ComponentId, key: CacheKey) -> Option<Payload> {
    match cache_get(svc, worker, key).await {
        Some(Some(obj)) => {
            svc.incr("ts.cache_hit_orig", 1);
            Some(obj)
        }
        Some(None) => None,
        None => {
            svc.incr("ts.cache_unavailable", 1);
            None
        }
    }
}

fn reply_original_degraded(svc: &SvcHandle, original: Option<&Payload>, why: &str) {
    if let Some(orig) = original {
        svc.incr("ts.fallback_original", 1);
        svc.observe("ts.response_bytes", content_len(orig) as f64);
        svc.mark_degraded();
        svc.reply(Ok(Arc::clone(orig)));
    } else {
        svc.incr("ts.errors", 1);
        svc.reply(Err(format!("service degraded: {why}")));
    }
}

/// One TranSend request, top to bottom.
async fn run(cfg: Arc<TranSendConfig>, shared: Shared, req: Arc<ClientRequest>, svc: SvcHandle) {
    svc.incr("ts.requests", 1);
    // Preference updates go to the ACID database (§3.1.4).
    if let Some(body) = &req.body {
        if let Some(update) = payload_as::<PrefUpdate>(body) {
            lock(&shared).profile_cache.remove(&req.user);
            let ack = svc
                .dispatch(
                    ProfileWorker::CLASS.into(),
                    "put",
                    Arc::new(ProfilePut {
                        user: req.user.clone(),
                        settings: update.settings.clone(),
                    }),
                    None,
                )
                .await;
            if ack.ok_payload().is_some() {
                svc.incr("ts.pref_updates", 1);
                svc.reply(Ok(ContentObject::text(
                    "transend://prefs",
                    MimeType::Html,
                    "<html><body>preferences saved</body></html>",
                )
                .into_payload()));
            } else {
                svc.reply(Err("preference update failed".into()));
            }
            return;
        }
        if let Some(agg) = payload_as::<AggregateServiceRequest>(body).cloned() {
            run_aggregate(agg, &svc).await;
            return;
        }
    }
    let fetch = req
        .body
        .as_ref()
        .and_then(|b| payload_as::<FetchRequest>(b).cloned())
        .unwrap_or(FetchRequest {
            url: req.url.clone(),
            mime: MimeType::Other,
            size: 8 * 1024,
        });

    // Profile: write-through cache absorbs reads (§3.1.4); a missing
    // profile database means default preferences (BASE — the ACID
    // island being down degrades, not fails, the service).
    let cached = lock(&shared).profile_cache.get(&req.user).cloned();
    let profile = if let Some(hit) = cached {
        svc.incr("ts.profile_cache_hits", 1);
        hit
    } else if !svc
        .workers_of(&WorkerClass::new(ProfileWorker::CLASS))
        .is_empty()
    {
        let got = svc
            .dispatch(
                ProfileWorker::CLASS.into(),
                "get",
                Arc::new(ProfileGet {
                    user: req.user.clone(),
                }),
                None,
            )
            .await;
        if let Some(p) = got.ok_payload() {
            let profile = payload_as::<ProfileReply>(p).and_then(|r| r.profile.clone());
            cache_profile(&shared, cfg.profile_cache_cap, &req.user, profile.clone());
            profile
        } else {
            svc.incr("ts.profile_unavailable", 1);
            None
        }
    } else {
        svc.incr("ts.profile_unavailable", 1);
        None
    };

    let (args, pipeline) = plan(&cfg, &fetch, profile.as_ref());
    refresh_ring(&shared, &svc);

    // Cache lookups, falling through to the origin. The block produces
    // the original object to distill; a hit on the *final* variant
    // replies inside and returns.
    let original: Payload = 'have: {
        if !cfg.cache_distilled && !pipeline.is_empty() {
            // Distilled variants are not cached: look up the original
            // and re-distill per request (the §4.6 measurement mode).
            let key = CacheKey::original(&fetch.url);
            if let Some(worker) = route(&shared, &key) {
                if let Some(obj) = cached_original(&svc, worker, key).await {
                    break 'have obj;
                }
            } else {
                // No cache workers known (bootstrap or total cache
                // loss): the cache is only an optimisation.
                svc.incr("ts.no_cache_available", 1);
            }
        } else {
            let key = final_key(&fetch, &pipeline, &args);
            if let Some(worker) = route(&shared, &key) {
                match cache_get(&svc, worker, key).await {
                    Some(Some(obj)) => {
                        svc.incr("ts.cache_hit_final", 1);
                        svc.observe("ts.response_bytes", content_len(&obj) as f64);
                        svc.reply(Ok(obj));
                        return;
                    }
                    Some(None) if pipeline.is_empty() => svc.incr("ts.cache_miss", 1),
                    Some(None) => {
                        svc.incr("ts.cache_miss", 1);
                        let key = CacheKey::original(&fetch.url);
                        if let Some(worker) = route(&shared, &key) {
                            if let Some(obj) = cached_original(&svc, worker, key).await {
                                break 'have obj;
                            }
                        }
                    }
                    // Cache timeout/failure = miss (caching is an
                    // optimisation, §3.1.5).
                    None => svc.incr("ts.cache_unavailable", 1),
                }
            } else {
                svc.incr("ts.no_cache_available", 1);
            }
        }
        // Origin fetch.
        let fetched = svc
            .dispatch(
                OriginServer::CLASS.into(),
                "fetch",
                Arc::new(fetch.clone()),
                None,
            )
            .await;
        let Some(p) = fetched.ok_payload() else {
            reply_original_degraded(&svc, None, "origin unreachable");
            return;
        };
        let Some(obj) = content(p) else {
            svc.reply(Err("origin returned garbage".into()));
            return;
        };
        svc.incr("ts.origin_fetches", 1);
        refresh_ring(&shared, &svc);
        cache_inject(
            &shared,
            &svc,
            CacheKey::original(&fetch.url),
            Arc::clone(&obj),
        );
        obj
    };

    // The original is in hand: pass through or distill, stage by stage.
    if pipeline.is_empty() {
        svc.incr("ts.passthrough", 1);
        svc.observe("ts.response_bytes", content_len(&original) as f64);
        svc.reply(Ok(original));
        return;
    }
    let mut cur = Arc::clone(&original);
    for stage_name in pipeline.stages() {
        let distilled = svc
            .dispatch(
                WorkerClass::new(format!("distiller/{stage_name}")),
                "transform",
                cur,
                Some(Arc::new(args.as_map().clone())),
            )
            .await;
        // A failed or timed-out distiller (after retries) means the user
        // gets the original — an approximate answer delivered quickly
        // beats an exact answer delivered slowly (§3.1.8).
        let Some(p) = distilled.ok_payload() else {
            reply_original_degraded(&svc, Some(&original), "distiller unavailable");
            return;
        };
        let Some(next) = content(p) else {
            reply_original_degraded(&svc, Some(&original), "distiller garbage");
            return;
        };
        cur = next;
    }
    svc.incr("ts.distilled", 1);
    let saved = content_len(&original).saturating_sub(content_len(&cur));
    svc.observe("ts.bytes_saved", saved as f64);
    svc.observe("ts.response_bytes", content_len(&cur) as f64);
    if cfg.cache_distilled {
        refresh_ring(&shared, &svc);
        cache_inject(
            &shared,
            &svc,
            final_key(&fetch, &pipeline, &args),
            Arc::clone(&cur),
        );
    }
    svc.reply(Ok(cur));
}

/// Aggregation (§5.1): fan out the source fetches, collect them in
/// arrival order, tolerate missing sources (the culture page is useful
/// even when a source site is down), run the aggregator.
async fn run_aggregate(agg: AggregateServiceRequest, svc: &SvcHandle) {
    svc.incr("ts.agg_requests", 1);
    let mut fetches: Vec<Option<_>> = agg
        .sources
        .iter()
        .map(|src| {
            Some(svc.dispatch(
                OriginServer::CLASS.into(),
                "fetch",
                Arc::new(src.clone()),
                None,
            ))
        })
        .collect();
    let mut fetched: Vec<Option<ContentObject>> = vec![None; agg.sources.len()];
    for _ in 0..agg.sources.len() {
        let (i, outcome) = select_some(&mut fetches).await;
        if let Some(p) = outcome.ok_payload() {
            fetched[i] = ContentObject::from_payload(p).cloned();
        } else {
            svc.incr("ts.agg_source_missing", 1);
            svc.mark_degraded();
        }
    }
    let inputs: Vec<ContentObject> = fetched.into_iter().flatten().collect();
    if inputs.is_empty() {
        svc.incr("ts.errors", 1);
        svc.reply(Err("no sources reachable".into()));
        return;
    }
    let answer = svc
        .dispatch(
            WorkerClass::new(format!("aggregator/{}", agg.aggregator)),
            "aggregate",
            Arc::new(sns_tacc::worker::AggregateRequest { inputs }),
            Some(Arc::new(agg.args)),
        )
        .await;
    if let EventOutcome::Reply(JobResult::Ok(p)) = answer {
        svc.incr("ts.agg_answers", 1);
        svc.reply(Ok(p));
    } else {
        svc.incr("ts.errors", 1);
        svc.reply(Err("aggregator unavailable".into()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fetch(url: &str, mime: MimeType, size: u64) -> FetchRequest {
        FetchRequest {
            url: url.into(),
            mime,
            size,
        }
    }

    #[test]
    fn plan_selects_pipeline_by_mime_and_threshold() {
        let cfg = TranSendConfig::default();
        let stages = |mime, size| plan(&cfg, &fetch("u", mime, size), None).1;
        assert_eq!(stages(MimeType::Gif, 10_000).stages(), &["gif"]);
        assert_eq!(stages(MimeType::Jpeg, 10_000).stages(), &["jpeg"]);
        assert!(stages(MimeType::Other, 10_000).is_empty());
        // Below the 1 KB threshold: pass through unmodified (§4.1).
        assert!(stages(MimeType::Gif, 600).is_empty());
    }

    #[test]
    fn keyword_filter_chains_for_users_with_keywords() {
        let profile: ProfileData = Arc::new(BTreeMap::from([(
            "keywords".to_string(),
            "rust".to_string(),
        )]));
        let html = fetch("u", MimeType::Html, 8_000);
        let (_, pipeline) = plan(&TranSendConfig::default(), &html, Some(&profile));
        assert_eq!(pipeline.stages(), &["html", "keyword"]);
    }

    #[test]
    fn final_key_is_original_for_identity_pipeline() {
        let cfg = TranSendConfig::default();
        let tiny = fetch("http://x/tiny.gif", MimeType::Gif, 100);
        let (args, pipeline) = plan(&cfg, &tiny, None);
        let key = final_key(&tiny, &pipeline, &args);
        assert_eq!(key, CacheKey::original("http://x/tiny.gif"));
        // And distinct variants for distilled content.
        let big = fetch("http://x/big.gif", MimeType::Gif, 10_000);
        let (args, pipeline) = plan(&cfg, &big, None);
        assert_ne!(final_key(&big, &pipeline, &args).variant, 0);
    }
}
