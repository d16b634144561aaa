//! Static partitioning, fan-out and collation — HotBot's data layout.
//!
//! §3.2: documents are distributed randomly across partitions; every
//! query fans out to all live partitions; per-partition top-k lists are
//! collated into the global top-k. A dead partition's documents are
//! simply missing from results until it returns (graceful degradation:
//! "it is acceptable to lose part of the database temporarily").

use std::collections::BTreeSet;

use crate::doc::Document;
use crate::index::{InvertedIndex, SearchHit};

/// Outcome of a partitioned query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Collated global top-k.
    pub hits: Vec<SearchHit>,
    /// Fraction of the corpus that was searchable, in `[0,1]`.
    pub coverage: f64,
    /// Partitions that answered.
    pub partitions_answered: usize,
    /// Partitions that were down.
    pub partitions_down: usize,
}

/// A corpus statically partitioned across N indexes.
pub struct PartitionedIndex {
    parts: Vec<InvertedIndex>,
    down: BTreeSet<usize>,
    docs_per_part: Vec<u64>,
}

impl PartitionedIndex {
    /// Creates `n` empty partitions.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        PartitionedIndex {
            parts: (0..n).map(|_| InvertedIndex::new()).collect(),
            down: BTreeSet::new(),
            docs_per_part: vec![0; n],
        }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Partition a document id lands on ("distributes documents
    /// randomly": a stable hash of the id).
    pub fn partition_of(&self, doc_id: u64) -> usize {
        // Splitmix-style mix of the id for a random-looking but stable
        // placement.
        let mut z = doc_id.wrapping_mul(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        ((z ^ (z >> 31)) % self.parts.len() as u64) as usize
    }

    /// Indexes a document on its partition.
    pub fn add(&mut self, doc: &Document) {
        let p = self.partition_of(doc.id);
        self.parts[p].add(doc);
        self.docs_per_part[p] += 1;
    }

    /// Total documents indexed (including on down partitions).
    pub fn total_docs(&self) -> u64 {
        self.docs_per_part.iter().sum()
    }

    /// Documents currently searchable (live partitions only).
    pub fn searchable_docs(&self) -> u64 {
        self.docs_per_part
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.down.contains(i))
            .map(|(_, &c)| c)
            .sum()
    }

    /// Marks a partition down (node failure).
    pub fn set_down(&mut self, part: usize) {
        self.down.insert(part);
    }

    /// Brings a partition back (fast restart; its index was on local
    /// disk/RAID so contents survive, §3.2).
    pub fn set_up(&mut self, part: usize) {
        self.down.remove(&part);
    }

    /// Direct read access to one partition's index (worker-side use).
    pub fn part(&self, i: usize) -> &InvertedIndex {
        &self.parts[i]
    }

    /// Fan-out + collate. Never fails: down partitions reduce coverage
    /// instead (BASE approximate answers).
    pub fn query(&self, q: &str, k: usize) -> QueryOutcome {
        let mut all: Vec<SearchHit> = Vec::new();
        let mut answered = 0;
        for (i, part) in self.parts.iter().enumerate() {
            if self.down.contains(&i) {
                continue;
            }
            answered += 1;
            all.extend(part.query(q, k));
        }
        all.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .expect("finite scores")
                .then(a.doc.cmp(&b.doc))
        });
        all.truncate(k);
        let total = self.total_docs();
        let coverage = if total == 0 {
            1.0
        } else {
            self.searchable_docs() as f64 / total as f64
        };
        QueryOutcome {
            hits: all,
            coverage,
            partitions_answered: answered,
            partitions_down: self.down.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::CorpusGenerator;

    fn corpus(n: usize) -> Vec<Document> {
        CorpusGenerator::with_defaults(42).generate(n)
    }

    fn build(nparts: usize, docs: &[Document]) -> PartitionedIndex {
        let mut pi = PartitionedIndex::new(nparts);
        for d in docs {
            pi.add(d);
        }
        pi
    }

    #[test]
    fn partitioned_equals_monolithic_when_all_up() {
        let docs = corpus(500);
        let pi = build(7, &docs);
        let mut mono = InvertedIndex::new();
        for d in &docs {
            mono.add(d);
        }
        for q in ["w0", "w1 w5", "w10 w100 w3", "w999"] {
            let a = pi.query(q, 10);
            let b = mono.query(q, 10);
            assert_eq!(a.hits, b, "query {q:?} must collate exactly");
            assert_eq!(a.coverage, 1.0);
        }
    }

    #[test]
    fn placement_is_roughly_balanced() {
        let docs = corpus(2600);
        let pi = build(26, &docs);
        for (i, &c) in pi.docs_per_part.iter().enumerate() {
            assert!(
                (50..=150).contains(&c),
                "partition {i} holds {c} of 2600 docs"
            );
        }
    }

    #[test]
    fn one_down_partition_degrades_gracefully() {
        // The paper's 26-node example: losing one node drops 54M -> ~51M
        // docs, i.e. coverage ≈ 25/26 ≈ 0.96.
        let docs = corpus(2600);
        let mut pi = build(26, &docs);
        let full = pi.query("w0", 20);
        pi.set_down(3);
        let degraded = pi.query("w0", 20);
        assert_eq!(degraded.partitions_down, 1);
        assert_eq!(degraded.partitions_answered, 25);
        assert!(
            (degraded.coverage - 25.0 / 26.0).abs() < 0.03,
            "coverage {}",
            degraded.coverage
        );
        // Results still arrive and every surviving hit was in (or ranks
        // consistently with) the full result set.
        assert!(!degraded.hits.is_empty());
        let lost_part = 3;
        for h in &degraded.hits {
            assert_ne!(pi.partition_of(h.doc), lost_part);
        }
        // Recovery restores full coverage.
        pi.set_up(3);
        let recovered = pi.query("w0", 20);
        assert_eq!(recovered.hits, full.hits);
        assert_eq!(recovered.coverage, 1.0);
    }

    #[test]
    fn all_partitions_down_returns_empty_not_error() {
        let docs = corpus(50);
        let mut pi = build(2, &docs);
        pi.set_down(0);
        pi.set_down(1);
        let out = pi.query("w0", 5);
        assert!(out.hits.is_empty());
        assert_eq!(out.partitions_answered, 0);
        assert_eq!(out.coverage, 0.0);
    }

    #[test]
    fn searchable_docs_tracks_down_set() {
        let docs = corpus(1000);
        let mut pi = build(10, &docs);
        assert_eq!(pi.total_docs(), 1000);
        assert_eq!(pi.searchable_docs(), 1000);
        pi.set_down(0);
        assert!(pi.searchable_docs() < 1000);
        assert_eq!(pi.total_docs(), 1000);
    }
}
