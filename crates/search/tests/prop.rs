//! Property tests for the search substrate: HotBot's placement and
//! collation must equal monolithic retrieval on arbitrary corpora and
//! queries, ranking must match a naive scorer, and degradation must only
//! ever shrink the result set.

use sns_testkit::{gens, props, tk_assert, tk_assert_eq, Gen};

use sns_search::doc::Document;
use sns_search::index::{InvertedIndex, SearchHit};
use sns_search::{partition_of, rank, tokenize};

fn word() -> Gen<String> {
    gens::u32_in(0..40).map(|w| format!("w{w}"))
}

fn corpus_gen() -> Gen<Vec<Document>> {
    let n_gen = gens::usize_in(5..40);
    let words_gen = gens::vec(word(), 1..30);
    Gen::new(move |src| {
        let n = n_gen.run(src);
        (0..n as u64)
            .map(|id| Document {
                id,
                title: String::new(),
                body: words_gen.run(src).join(" "),
            })
            .collect()
    })
}

/// Naive scorer: identical semantics, O(corpus) per query.
fn naive_query(corpus: &[Document], q: &str, k: usize) -> Vec<(u64, f64)> {
    let terms = tokenize(q);
    let mut scored: Vec<(u64, f64)> = corpus
        .iter()
        .filter_map(|d| {
            let tokens = tokenize(&d.text());
            let mut score = 0.0;
            for term in &terms {
                let tf = tokens.iter().filter(|t| *t == term).count();
                if tf > 0 {
                    score += 1.0 + (tf as f64).ln();
                }
            }
            (score > 0.0).then_some((d.id, score))
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

/// HotBot's collation: each document indexed on its `partition_of`
/// partition (as `HotBotBuilder` places it), then the live partitions'
/// top-k lists ranked together and cut to `k`.
fn collate(
    corpus: &[Document],
    nparts: usize,
    down: Option<usize>,
    q: &str,
    k: usize,
) -> Vec<SearchHit> {
    let mut parts: Vec<InvertedIndex> = (0..nparts).map(|_| InvertedIndex::new()).collect();
    for d in corpus {
        parts[partition_of(d.id, nparts)].add(d);
    }
    let mut all: Vec<SearchHit> = (0..nparts)
        .filter(|&p| Some(p) != down)
        .flat_map(|p| parts[p].query(q, k))
        .collect();
    rank(&mut all);
    all.truncate(k);
    all
}

props! {
    fn index_matches_naive_scan(
        corpus in corpus_gen(),
        q in gens::vec(word(), 1..4),
    ) {
        let query = q.join(" ");
        let mut ix = InvertedIndex::new();
        for d in &corpus {
            ix.add(d);
        }
        let got = ix.query(&query, 10);
        let want = naive_query(&corpus, &query, 10);
        tk_assert_eq!(got.len(), want.len());
        for (hit, (doc, score)) in got.iter().zip(&want) {
            tk_assert_eq!(hit.doc, *doc);
            tk_assert!((hit.score - score).abs() < 1e-9);
        }
    }

    fn partitioned_equals_monolithic(
        corpus in corpus_gen(),
        nparts in gens::usize_in(1..8),
        q in gens::vec(word(), 1..4),
    ) {
        let query = q.join(" ");
        let mut mono = InvertedIndex::new();
        for d in &corpus {
            mono.add(d);
        }
        tk_assert_eq!(collate(&corpus, nparts, None, &query, 10), mono.query(&query, 10));
    }

    fn degradation_only_removes_results(
        corpus in corpus_gen(),
        down in gens::usize_in(0..4),
        q in gens::vec(word(), 1..3),
    ) {
        let query = q.join(" ");
        let full = collate(&corpus, 4, None, &query, 50);
        let degraded = collate(&corpus, 4, Some(down), &query, 50);
        for h in &degraded {
            // Every degraded hit was in the full result set, and none
            // came from the down partition.
            tk_assert!(full.contains(h), "degradation invented a result");
            tk_assert!(partition_of(h.doc, 4) != down, "a down partition answered");
        }
    }

    fn tokenize_roundtrips_clean_words(
        words in gens::vec(gens::string("[a-z]{1,8}"), 0..20),
    ) {
        let text = words.join(" ");
        tk_assert_eq!(tokenize(&text), words);
    }
}
