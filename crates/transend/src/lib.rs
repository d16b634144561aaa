//! # sns-transend — the TranSend distillation proxy (§3, §4)
//!
//! TranSend is the paper's flagship service: a scalable Web proxy that
//! caches and *distills* (lossily compresses) content for the UC
//! Berkeley dialup-IP population. This crate assembles it from the
//! layers below:
//!
//! * [`logic::TranSendAsync`] — the front-end dispatch logic (§3.1.1)
//!   as one `async fn` per request, hosted by the front end: profile
//!   lookup (with a write-through cache, §3.1.4), virtual-cache
//!   lookup via consistent hashing over live cache workers (§3.1.5),
//!   origin fetch on miss, a per-MIME-type distillation pipeline, cache
//!   injection of post-transformation content, and the §3.1.8 BASE
//!   fallbacks (serve the original, serve a different cached variant,
//!   degrade gracefully).
//! * [`client::TranSendClient`] — the traced-client model: plays a
//!   workload trace (constant-rate or timestamped, §4.1) against the
//!   front ends with client-side balancing across them (§3.1.2), and
//!   records end-to-end latency and byte savings.
//! * [`builder::TranSendBuilder`] — one-call cluster construction: SAN,
//!   nodes, manager (with per-class spawn policies), front ends,
//!   monitor, cache partitions, profile database and origin model.
//! * [`config`] — the Table 1 structural description used by the
//!   comparison harness.

#![warn(missing_docs)]

pub mod builder;
pub mod client;
pub mod config;
pub mod logic;

pub use builder::{TranSendBuilder, TranSendCluster};
pub use client::{ClientReport, TranSendClient};
pub use logic::{AggregateServiceRequest, PrefUpdate, TranSendAsync, TranSendConfig};
