//! One search partition as an SNS worker.
//!
//! The partition's inverted index is immutable, shared read-only data
//! (the paper's "static partitioning of read-only data"): the factory
//! holds an `Arc` to it, so a restarted worker re-attaches to the same
//! index — modelling the original Inktomi cross-mounted databases /
//! RAID-backed local storage (§3.2).

use std::any::Any;
use std::sync::Arc;
use std::time::Duration;

use sns_core::msg::Job;
use sns_core::worker::{WorkerError, WorkerLogic};
use sns_core::{AppData, Payload, WorkerClass};
use sns_search::index::{InvertedIndex, SearchHit};
use sns_sim::rng::Pcg32;
use sns_sim::time::SimTime;

/// A query dispatched to one partition.
#[derive(Debug, Clone)]
pub struct PartitionQuery {
    /// Query text.
    pub query: String,
    /// Per-partition top-k to return.
    pub k: usize,
}

impl AppData for PartitionQuery {
    fn wire_size(&self) -> u64 {
        self.query.len() as u64 + 16
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// One partition's answer.
#[derive(Debug, Clone)]
pub struct PartitionResults {
    /// Partition index.
    pub partition: usize,
    /// Local top-k hits.
    pub hits: Vec<SearchHit>,
    /// Documents searchable on this partition.
    pub docs: u64,
}

impl AppData for PartitionResults {
    fn wire_size(&self) -> u64 {
        self.hits.len() as u64 * 16 + 24
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The partition worker logic.
pub struct SearchWorker {
    partition: usize,
    index: Arc<InvertedIndex>,
}

impl SearchWorker {
    /// Creates a worker serving `partition` from a shared index.
    pub fn new(partition: usize, index: Arc<InvertedIndex>) -> Self {
        SearchWorker { partition, index }
    }
}

impl WorkerLogic for SearchWorker {
    fn class(&self) -> WorkerClass {
        WorkerClass::new(crate::partition_class(self.partition))
    }

    fn service_time(&mut self, job: &Job, _now: SimTime, rng: &mut Pcg32) -> Duration {
        let base = match sns_core::payload_as::<PartitionQuery>(&job.input) {
            Some(q) => self.index.query_cost_estimate(&q.query),
            None => 100e-6,
        };
        // Small multiplicative noise for OS-level variance.
        let noise = rng.lognormal(-0.02, 0.2);
        Duration::from_secs_f64(base * noise)
    }

    fn process(
        &mut self,
        job: &Job,
        _now: SimTime,
        _rng: &mut Pcg32,
    ) -> Result<Payload, WorkerError> {
        let Some(q) = sns_core::payload_as::<PartitionQuery>(&job.input) else {
            return Err(WorkerError::Failed("bad partition query".into()));
        };
        let hits = self.index.query(&q.query, q.k);
        Ok(Arc::new(PartitionResults {
            partition: self.partition,
            hits,
            docs: self.index.doc_count(),
        }))
    }

    /// Index scans are CPU-bound.
    fn cpu_bound(&self) -> bool {
        true
    }

    /// Multi-threaded search processes served several queries at once.
    fn concurrency(&self) -> u32 {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_search::doc::CorpusGenerator;
    use sns_sim::ComponentId;

    fn worker() -> SearchWorker {
        let mut ix = InvertedIndex::new();
        for d in CorpusGenerator::with_defaults(3).generate(50) {
            ix.add(&d);
        }
        SearchWorker::new(2, Arc::new(ix))
    }

    #[test]
    fn answers_queries_with_partition_id() {
        let mut w = worker();
        let mut rng = Pcg32::new(1);
        let job = Job {
            id: 1,
            class: w.class(),
            op: "query",
            input: Arc::new(PartitionQuery {
                query: "w0 w1".into(),
                k: 5,
            }),
            profile: None,
            reply_to: ComponentId(1),
            sampled: true,
        };
        let out = w.process(&job, SimTime::ZERO, &mut rng).unwrap();
        let r = sns_core::payload_as::<PartitionResults>(&out).unwrap();
        assert_eq!(r.partition, 2);
        assert!(!r.hits.is_empty());
        assert!(r.hits.len() <= 5);
        assert_eq!(r.docs, 50);
    }

    #[test]
    fn class_names_partition() {
        let w = worker();
        assert_eq!(w.class().name(), "search/p2");
    }

    #[test]
    fn common_terms_cost_more() {
        let mut w = worker();
        let mut rng = Pcg32::new(1);
        let mk = |q: &str| Job {
            id: 1,
            class: WorkerClass::new("search/p2"),
            op: "query",
            input: Arc::new(PartitionQuery {
                query: q.into(),
                k: 5,
            }),
            profile: None,
            reply_to: ComponentId(1),
            sampled: true,
        };
        let avg = |w: &mut SearchWorker, j: &Job, rng: &mut Pcg32| -> Duration {
            (0..200)
                .map(|_| w.service_time(j, SimTime::ZERO, rng))
                .sum::<Duration>()
                / 200
        };
        let common = avg(&mut w, &mk("w0"), &mut rng);
        let rare = avg(&mut w, &mk("w19999"), &mut rng);
        assert!(common > rare);
    }
}
