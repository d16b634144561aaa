//! # sns-search — the partitioned full-text search substrate (HotBot)
//!
//! The Inktomi/HotBot search engine (§1.1, §3.2) is an *aggregation*
//! service: "HotBot workers statically partition the search-engine
//! database for load balancing. Thus each worker handles a subset of the
//! database proportional to its CPU power, and every query goes to all
//! workers in parallel." This crate implements that substrate from
//! scratch:
//!
//! * [`doc`] — documents and a deterministic synthetic corpus generator
//!   (the 54 M-page crawl is not available; word frequencies are
//!   Zipf-distributed over a synthetic vocabulary);
//! * [`index`] — an inverted index with tokenisation, term-frequency
//!   scoring, top-k retrieval and the ranking rule [`rank`] that HotBot's
//!   front end also collates per-partition top-k lists with;
//! * [`partition`] — static random placement of documents on partitions
//!   ([`partition_of`]). The all-partitions fan-out and graceful
//!   degradation (a down partition removes its share of documents from
//!   coverage but never fails the query, §3.2) are HotBot's front end,
//!   `sns_hotbot::HotBotService`;
//! * [`qcache`] — the integrated cache of recent searches used for
//!   incremental delivery (Table 1).

#![warn(missing_docs)]

pub mod doc;
pub mod index;
pub mod partition;
pub mod qcache;

pub use doc::{CorpusGenerator, Document};
pub use index::{rank, InvertedIndex, SearchHit};
pub use partition::partition_of;
pub use qcache::QueryCache;

/// Splits text into lowercase alphanumeric tokens.
///
/// # Examples
///
/// ```
/// let t = sns_search::tokenize("Hello, World! x86-64");
/// assert_eq!(t, vec!["hello", "world", "x86", "64"]);
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|s| !s.is_empty())
        .map(|s| s.to_lowercase())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_basics() {
        assert_eq!(tokenize(""), Vec::<String>::new());
        assert_eq!(tokenize("  A  b "), vec!["a", "b"]);
        assert_eq!(tokenize("foo_bar"), vec!["foo", "bar"]);
    }
}
