//! The inverted index: postings, scoring and top-k retrieval.
//!
//! Scoring is sublinear term frequency, `score(d, q) = Σ_t∈q (1 + ln
//! tf(t, d))` over matched terms. The score of a document depends only on
//! that document's own postings, which makes per-partition top-k lists
//! *exactly* mergeable by the coordinator — no global statistics round is
//! needed (the property HotBot's static partitioning exploits).

use std::collections::BTreeMap;
use std::collections::HashMap;

use crate::doc::Document;
use crate::tokenize;

/// One query result.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Document id.
    pub doc: u64,
    /// Relevance score (higher is better).
    pub score: f64,
}

/// The ranking rule: score descending, ties broken by ascending doc id
/// (deterministic). One partition's top-k and the front end's collation
/// of every partition's top-k both rank this way.
pub fn rank(hits: &mut [SearchHit]) {
    hits.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("scores are finite")
            .then(a.doc.cmp(&b.doc))
    });
}

/// An inverted index over a set of documents.
#[derive(Debug, Default)]
pub struct InvertedIndex {
    /// term → (doc → term frequency). BTreeMaps for deterministic order.
    postings: HashMap<String, BTreeMap<u64, u32>>,
    doc_count: u64,
    /// Total postings entries (term-doc pairs), a size metric.
    postings_entries: u64,
}

impl InvertedIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes one document (title + body).
    pub fn add(&mut self, doc: &Document) {
        let mut seen_new = false;
        for token in tokenize(&doc.text()) {
            let entry = self.postings.entry(token).or_default();
            let tf = entry.entry(doc.id).or_insert(0);
            if *tf == 0 {
                self.postings_entries += 1;
                seen_new = true;
            }
            *tf += 1;
        }
        if seen_new {
            self.doc_count += 1;
        }
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> u64 {
        self.doc_count
    }

    /// Total postings entries (index size metric).
    pub fn postings_entries(&self) -> u64 {
        self.postings_entries
    }

    /// Document frequency of a term.
    pub fn df(&self, term: &str) -> usize {
        self.postings.get(term).map_or(0, |p| p.len())
    }

    /// Scores every matching document and returns the top `k` hits,
    /// ranked by score then ascending doc id (deterministic).
    pub fn query(&self, q: &str, k: usize) -> Vec<SearchHit> {
        let terms = tokenize(q);
        if terms.is_empty() || k == 0 {
            return Vec::new();
        }
        let mut scores: BTreeMap<u64, f64> = BTreeMap::new();
        for term in &terms {
            if let Some(posting) = self.postings.get(term) {
                for (&doc, &tf) in posting {
                    *scores.entry(doc).or_insert(0.0) += 1.0 + f64::from(tf).ln();
                }
            }
        }
        let mut hits: Vec<SearchHit> = scores
            .into_iter()
            .map(|(doc, score)| SearchHit { doc, score })
            .collect();
        rank(&mut hits);
        hits.truncate(k);
        hits
    }

    /// Estimated CPU seconds to evaluate a query on commodity hardware of
    /// the paper's era (drives the simulation's worker cost model): linear
    /// in the postings scanned.
    pub fn query_cost_estimate(&self, q: &str) -> f64 {
        let scanned: u64 = tokenize(q).iter().map(|t| self.df(t) as u64).sum();
        // ~1 µs per posting scanned plus fixed parse/collate overhead.
        20e-6 + scanned as f64 * 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(id: u64, body: &str) -> Document {
        Document {
            id,
            title: String::new(),
            body: body.to_string(),
        }
    }

    #[test]
    fn query_finds_matching_docs() {
        let mut ix = InvertedIndex::new();
        ix.add(&doc(1, "rust systems programming"));
        ix.add(&doc(2, "haskell functional programming"));
        ix.add(&doc(3, "cooking recipes"));
        let hits = ix.query("programming", 10);
        assert_eq!(hits.len(), 2);
        let ids: Vec<u64> = hits.iter().map(|h| h.doc).collect();
        assert!(ids.contains(&1) && ids.contains(&2));
        assert!(ix.query("rust", 10).len() == 1);
        assert!(ix.query("quantum", 10).is_empty());
    }

    #[test]
    fn repeated_terms_score_higher() {
        let mut ix = InvertedIndex::new();
        ix.add(&doc(1, "cats cats cats cats"));
        ix.add(&doc(2, "cats and dogs"));
        let hits = ix.query("cats", 10);
        assert_eq!(hits[0].doc, 1);
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn multi_term_sums_scores() {
        let mut ix = InvertedIndex::new();
        ix.add(&doc(1, "alpha beta"));
        ix.add(&doc(2, "alpha"));
        let hits = ix.query("alpha beta", 10);
        assert_eq!(hits[0].doc, 1, "matching both terms wins");
    }

    #[test]
    fn top_k_truncates_and_ties_break_by_id() {
        let mut ix = InvertedIndex::new();
        for i in 0..20 {
            ix.add(&doc(i, "same words here"));
        }
        let hits = ix.query("same", 5);
        assert_eq!(hits.len(), 5);
        let ids: Vec<u64> = hits.iter().map(|h| h.doc).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4], "ties broken by ascending id");
    }

    #[test]
    fn counts_and_df() {
        let mut ix = InvertedIndex::new();
        ix.add(&doc(1, "a b a"));
        ix.add(&doc(2, "b c"));
        assert_eq!(ix.doc_count(), 2);
        assert_eq!(ix.df("a"), 1);
        assert_eq!(ix.df("b"), 2);
        assert_eq!(ix.df("zz"), 0);
        assert_eq!(ix.postings_entries(), 4); // a@1, b@1, b@2, c@2
    }

    #[test]
    fn empty_query_is_empty() {
        let mut ix = InvertedIndex::new();
        ix.add(&doc(1, "something"));
        assert!(ix.query("", 10).is_empty());
        assert!(ix.query("   !!!", 10).is_empty());
        assert!(ix.query("something", 0).is_empty());
    }

    #[test]
    fn cost_grows_with_df() {
        let mut ix = InvertedIndex::new();
        for i in 0..100 {
            ix.add(&doc(i, "common"));
        }
        ix.add(&doc(1000, "rareword"));
        assert!(ix.query_cost_estimate("common") > ix.query_cost_estimate("rareword"));
    }
}
