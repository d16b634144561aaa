//! HotBot's front-end logic as one `async fn` per query: all-partitions
//! fan-out, collation, dynamic HTML generation, the recent-search cache,
//! and graceful degradation.
//!
//! §3.2: "every query goes to all workers in parallel"; partitions that
//! are down or time out simply reduce *coverage* — the query still
//! succeeds with the surviving partitions' documents (BASE approximate
//! answers: "it is acceptable to lose part of the database temporarily").

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use sns_core::exec::service::{AsyncService, EventOutcome, SvcHandle};
use sns_core::exec::{select_some, BoxFut};
use sns_core::msg::{ClientRequest, JobResult};
use sns_core::{payload_as, AppData, WorkerClass};
use sns_search::index::SearchHit;
use sns_search::qcache::QueryCache;
use sns_search::rank;
use sns_tacc::content::ContentObject;
use sns_workload::MimeType;

use crate::worker::{PartitionQuery, PartitionResults};

/// A search request from a client.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Query text.
    pub query: String,
    /// Zero-based result page (incremental delivery).
    pub page: usize,
    /// Results per page.
    pub page_size: usize,
}

impl AppData for QueryRequest {
    fn wire_size(&self) -> u64 {
        self.query.len() as u64 + 24
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The structured reply (also rendered as HTML in the content object).
#[derive(Debug, Clone)]
pub struct SearchPage {
    /// The page of hits.
    pub hits: Vec<SearchHit>,
    /// Fraction of the corpus searched, `[0,1]`.
    pub coverage: f64,
    /// Partitions that answered.
    pub partitions_answered: usize,
    /// Partitions that failed/timed out.
    pub partitions_missing: usize,
    /// The rendered result page.
    pub html: ContentObject,
}

impl AppData for SearchPage {
    fn wire_size(&self) -> u64 {
        self.html.wire_size()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// State shared across one front end's queries.
struct HbShared {
    /// Expected docs per partition (coverage accounting when some are
    /// down; refreshed from answers).
    docs_per_partition: Vec<u64>,
    /// Integrated cache of recent searches (Table 1).
    qcache: QueryCache,
}

type Shared = Arc<Mutex<HbShared>>;

/// Per-result render cost (dynamic HTML via Tcl macros, §3.2).
const RENDER_COST_PER_HIT: Duration = Duration::from_micros(200);

/// The HotBot service: one body per query.
pub struct HotBotService {
    /// Each index partition's worker class, interned once (the fan-out
    /// width is their number).
    classes: Arc<[WorkerClass]>,
    shared: Shared,
}

impl HotBotService {
    /// Creates the service for an `n`-partition corpus.
    pub fn new(partitions: usize) -> Self {
        HotBotService {
            classes: (0..partitions)
                .map(|p| WorkerClass::new(crate::partition_class(p)))
                .collect(),
            shared: Arc::new(Mutex::new(HbShared {
                docs_per_partition: vec![0; partitions],
                qcache: QueryCache::new(512),
            })),
        }
    }
}

impl AsyncService for HotBotService {
    fn hint_classes(&self) -> Vec<WorkerClass> {
        self.classes.to_vec()
    }

    fn handle(&mut self, request: Arc<ClientRequest>, svc: SvcHandle) -> BoxFut {
        Box::pin(run(
            Arc::clone(&self.classes),
            Arc::clone(&self.shared),
            request,
            svc,
        ))
    }
}

fn lock(shared: &Shared) -> MutexGuard<'_, HbShared> {
    shared.lock().expect("hotbot shared state poisoned")
}

fn render(query: &str, hits: &[SearchHit], coverage: f64) -> ContentObject {
    use std::fmt::Write as _;
    let mut html =
        format!("<html><head><title>HotBot: {query}</title></head><body><h1>{query}</h1>\n");
    if coverage < 1.0 {
        let _ = writeln!(
            html,
            "<p><i>Results from {:.0}% of the index (partial database availability).</i></p>",
            coverage * 100.0
        );
    }
    html.push_str("<ol>\n");
    for h in hits {
        let _ = writeln!(
            html,
            "<li><a href=\"http://doc/{}\">Document {}</a> (score {:.2})</li>",
            h.doc, h.doc, h.score
        );
    }
    html.push_str("</ol></body></html>\n");
    ContentObject::text(format!("hotbot://q={query}"), MimeType::Html, html)
}

/// One query, top to bottom.
async fn run(classes: Arc<[WorkerClass]>, shared: Shared, req: Arc<ClientRequest>, svc: SvcHandle) {
    svc.incr("hb.queries", 1);
    let query = req
        .body
        .as_ref()
        .and_then(|b| payload_as::<QueryRequest>(b).cloned())
        .unwrap_or(QueryRequest {
            query: req.url.clone(),
            page: 0,
            page_size: 10,
        });

    // Incremental delivery: later pages come straight from the
    // recent-search cache when present; a miss falls through to fan-out.
    if query.page > 0 {
        let mut missed = false;
        let hits = lock(&shared)
            .qcache
            .page(&query.query, query.page, query.page_size, || {
                missed = true;
                Vec::new()
            });
        if !missed {
            svc.incr("hb.qcache_hits", 1);
            let html = render(&query.query, &hits, 1.0);
            svc.reply(Ok(Arc::new(SearchPage {
                hits,
                coverage: 1.0,
                partitions_answered: 0,
                partitions_missing: 0,
                html,
            })));
            return;
        }
    }

    // Fan out to every *live* partition in parallel (§3.2); a partition
    // with no live worker is immediately counted as missing — the query
    // proceeds with reduced coverage rather than waiting for a node that
    // may be down for minutes.
    let k = (query.page + 1) * query.page_size;
    let mut missing = 0;
    let mut fanout = Vec::new();
    for &class in classes.iter() {
        if svc.with_workers(&class, <[_]>::is_empty) {
            missing += 1;
            svc.incr("hb.partition_misses", 1);
            continue;
        }
        let input = Arc::new(PartitionQuery {
            query: query.query.clone(),
            k,
        });
        fanout.push(Some(svc.dispatch(class, "query", input, None)));
    }
    let mut answered: BTreeMap<usize, PartitionResults> = BTreeMap::new();
    for _ in 0..fanout.len() {
        match select_some(&mut fanout).await.1 {
            EventOutcome::Reply(JobResult::Ok(p)) => match payload_as::<PartitionResults>(&p) {
                Some(r) => {
                    answered.insert(r.partition, r.clone());
                }
                None => missing += 1,
            },
            // Partition down: degrade coverage, never the query.
            EventOutcome::Failed(_) => {
                missing += 1;
                svc.incr("hb.partition_misses", 1);
            }
            // The partition answered with a failure.
            _ => missing += 1,
        }
    }

    // Collate all partition top-k lists into the global ranking.
    let mut all: Vec<SearchHit> = Vec::new();
    let mut docs_searched = 0u64;
    let total_known = {
        let mut sh = lock(&shared);
        for (p, r) in &answered {
            all.extend(r.hits.iter().cloned());
            docs_searched += r.docs;
            sh.docs_per_partition[*p] = r.docs;
        }
        sh.docs_per_partition.iter().sum::<u64>()
    };
    rank(&mut all);
    let coverage = match (total_known, missing) {
        (0, 0) => 1.0,
        (0, _) => answered.len() as f64 / classes.len() as f64,
        _ => docs_searched as f64 / total_known as f64,
    };
    svc.observe("hb.coverage", coverage);
    svc.sample("hb.coverage_ts", coverage);
    if missing > 0 {
        svc.incr("hb.partial_answers", 1);
        svc.mark_degraded();
    }
    // Cache the full collated list for incremental delivery.
    lock(&shared)
        .qcache
        .page(&query.query, 0, usize::MAX, || all.clone());

    let page_hits: Vec<SearchHit> = all
        .into_iter()
        .skip(query.page * query.page_size)
        .take(query.page_size)
        .collect();
    let html = render(&query.query, &page_hits, coverage);
    // Dynamic HTML generation burns front-end CPU (§3.2).
    let cost = RENDER_COST_PER_HIT * (page_hits.len().max(1) as u32);
    let page = SearchPage {
        hits: page_hits,
        coverage,
        partitions_answered: answered.len(),
        partitions_missing: missing,
        html,
    };
    svc.compute(cost).await;
    svc.incr("hb.answers", 1);
    svc.reply(Ok(Arc::new(page)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_marks_partial_coverage() {
        let hits = vec![SearchHit { doc: 1, score: 2.0 }];
        let full = render("q", &hits, 1.0);
        let partial = render("q", &hits, 25.0 / 26.0);
        let text = |o: &ContentObject| match &o.body {
            sns_tacc::content::Body::Text(t) => t.clone(),
            _ => panic!("text"),
        };
        assert!(!text(&full).contains("partial database"));
        assert!(text(&partial).contains("96% of the index"));
    }
}
