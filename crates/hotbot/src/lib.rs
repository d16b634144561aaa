//! # sns-hotbot — the HotBot search service (§3.2)
//!
//! HotBot (the commercial Inktomi engine) is the paper's second
//! validation service, architecturally contrasted with TranSend in
//! Table 1: **static** partitioning of read-only data instead of dynamic
//! load balancing, every query fanned out to **all** workers in
//! parallel, workers **bound to their nodes** (each owns an index
//! partition), graceful degradation on partition loss ("with 26 nodes
//! the loss of one machine results in the database dropping from 54M to
//! about 51M documents"), an ACID primary/backup profile+ads database,
//! and an integrated cache of recent searches for incremental delivery.
//!
//! * [`worker::SearchWorker`] — one index partition as SNS worker logic;
//! * [`logic::HotBotService`] — the front-end fan-out/collation body
//!   (one `async fn` per query) with the recent-search cache and
//!   partial-result tolerance;
//! * [`client::HotBotClient`] — a Zipf-query client model;
//! * [`builder::HotBotBuilder`] — cluster assembly: corpus generation,
//!   partitioning, pinned per-node partition workers, front ends.

#![warn(missing_docs)]

pub mod builder;
pub mod client;
pub mod logic;
pub mod worker;

pub use builder::{HotBotBuilder, HotBotCluster};
pub use client::{HotBotClient, QueryReport};
pub use logic::{HotBotService, QueryRequest, SearchPage};
pub use worker::{PartitionResults, SearchWorker};

/// Class name for search partition `i`.
pub fn partition_class(i: usize) -> String {
    format!("search/p{i}")
}
