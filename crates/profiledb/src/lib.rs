//! # sns-profiledb — the ACID customisation database
//!
//! The one deliberately-ACID island in an otherwise BASE system (§1.4,
//! §3.1.4): the customisation database maps a user identification token to
//! a list of key-value pairs, must survive crashes (durability), and must
//! apply multi-key profile updates atomically. TranSend used gdbm with a
//! front-end write-through read cache; HotBot used parallel Informix with
//! primary/backup failover. This crate implements the durable store from
//! scratch:
//!
//! * [`wal`] — a checksummed write-ahead log over a pluggable
//!   [`wal::LogDevice`] (in-memory simulated disk or a real file), with
//!   torn-write detection;
//! * [`db`] — [`db::ProfileDb`]: atomic multi-op transactions, recovery
//!   (committed-prefix replay), snapshot + log truncation.
//!
//! The front end's write-through read cache (§3.1.4: "user preference
//! reads are much more frequent than writes, and the reads are absorbed
//! by a write-through cache in the front end") is TranSend's own, kept
//! by its front-end body `sns_transend::TranSendAsync`; the profile
//! worker in `sns_tacc` owns the database.

#![warn(missing_docs)]

pub mod db;
pub mod wal;

pub use db::{DbError, DbStats, Profile, ProfileDb, Txn};
pub use wal::{FileDevice, LogDevice, MemDevice, Wal, WalError};
