//! The customisation database as an SNS worker (§3.1.4).
//!
//! The one ACID component: reads return the profile key-value pairs for
//! a user token; writes are atomic, WAL-durable transactions. Front ends
//! keep a write-through read cache in front of this worker, so "user
//! preference reads … are absorbed" before reaching it.

use std::any::Any;
use std::sync::Arc;
use std::time::Duration;

use sns_core::msg::{Job, ProfileData};
use sns_core::worker::{WorkerError, WorkerLogic};
use sns_core::{AppData, Payload, WorkerClass};
use sns_profiledb::{MemDevice, ProfileDb, Txn, Wal};
use sns_sim::rng::Pcg32;
use sns_sim::time::SimTime;

/// Profile read request.
#[derive(Debug, Clone)]
pub struct ProfileGet {
    /// User token.
    pub user: String,
}

impl AppData for ProfileGet {
    fn wire_size(&self) -> u64 {
        self.user.len() as u64 + 16
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Profile write request: key-value settings for one user, committed
/// atomically.
#[derive(Debug, Clone)]
pub struct ProfilePut {
    /// User token.
    pub user: String,
    /// Settings to upsert.
    pub settings: Vec<(String, String)>,
}

impl AppData for ProfilePut {
    fn wire_size(&self) -> u64 {
        self.user.len() as u64
            + self
                .settings
                .iter()
                .map(|(k, v)| (k.len() + v.len() + 8) as u64)
                .sum::<u64>()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Profile read reply.
#[derive(Debug, Clone)]
pub struct ProfileReply {
    /// The profile, if the user is registered.
    pub profile: Option<ProfileData>,
}

impl AppData for ProfileReply {
    fn wire_size(&self) -> u64 {
        self.profile
            .as_ref()
            .map(|p| {
                p.iter()
                    .map(|(k, v)| (k.len() + v.len() + 8) as u64)
                    .sum::<u64>()
            })
            .unwrap_or(8)
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The customisation-database worker.
pub struct ProfileWorker {
    db: ProfileDb<MemDevice>,
    read_time: Duration,
    commit_time: Duration,
}

impl ProfileWorker {
    /// Worker class of the profile database.
    pub const CLASS: &'static str = "profiledb";

    /// Creates an empty in-memory-device database worker.
    pub fn new() -> Self {
        ProfileWorker {
            db: ProfileDb::open(Wal::new(MemDevice::new())).expect("empty log"),
            read_time: Duration::from_millis(1),
            // A commit pays an fsync.
            commit_time: Duration::from_millis(8),
        }
    }

    /// Pre-populates profiles (service bootstrap).
    pub fn with_profiles(mut self, users: &[(&str, &[(&str, &str)])]) -> Self {
        for (user, settings) in users {
            let mut txn = Txn::new();
            for (k, v) in *settings {
                txn = txn.put(*user, *k, *v);
            }
            self.db.commit(txn).expect("bootstrap commit");
        }
        self
    }

    /// Pre-populates profiles from owned data (builder/factory use).
    pub fn seeded(profiles: &[(String, Vec<(String, String)>)]) -> Self {
        let mut w = Self::new();
        for (user, settings) in profiles {
            let mut txn = Txn::new();
            for (k, v) in settings {
                txn = txn.put(user.clone(), k.clone(), v.clone());
            }
            w.db.commit(txn).expect("bootstrap commit");
        }
        w
    }
}

impl Default for ProfileWorker {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerLogic for ProfileWorker {
    fn class(&self) -> WorkerClass {
        Self::CLASS.into()
    }

    fn service_time(&mut self, job: &Job, _now: SimTime, _rng: &mut Pcg32) -> Duration {
        match job.op {
            "get" => self.read_time,
            _ => self.commit_time,
        }
    }

    fn process(
        &mut self,
        job: &Job,
        _now: SimTime,
        _rng: &mut Pcg32,
    ) -> Result<Payload, WorkerError> {
        match job.op {
            "get" => {
                let Some(get) = sns_core::payload_as::<ProfileGet>(&job.input) else {
                    return Err(WorkerError::Failed("bad profile get".into()));
                };
                let profile = self.db.profile(&get.user).cloned().map(Arc::new);
                Ok(Arc::new(ProfileReply { profile }))
            }
            "put" => {
                let Some(put) = sns_core::payload_as::<ProfilePut>(&job.input) else {
                    return Err(WorkerError::Failed("bad profile put".into()));
                };
                let mut txn = Txn::new();
                for (k, v) in &put.settings {
                    txn = txn.put(put.user.clone(), k.clone(), v.clone());
                }
                self.db
                    .commit(txn)
                    .map_err(|e| WorkerError::Failed(e.to_string()))?;
                Ok(Arc::new(ProfileReply { profile: None }))
            }
            other => Err(WorkerError::Failed(format!("unknown profile op {other}"))),
        }
    }

    /// Dominated by log I/O, not CPU.
    fn cpu_bound(&self) -> bool {
        false
    }

    /// HotBot's parallel Informix handled ~400 req/s (§4.6); modest
    /// concurrency models that.
    fn concurrency(&self) -> u32 {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_sim::ComponentId;

    fn job(op: &'static str, input: Payload) -> Job {
        Job {
            id: 1,
            class: ProfileWorker::CLASS.into(),
            op,
            input,
            profile: None,
            reply_to: ComponentId(1),
            sampled: true,
        }
    }

    #[test]
    fn get_returns_bootstrap_profile() {
        let mut w =
            ProfileWorker::new().with_profiles(&[("u1", &[("quality", "25"), ("scale", "2")])]);
        let mut rng = Pcg32::new(1);
        let r = w
            .process(
                &job("get", Arc::new(ProfileGet { user: "u1".into() })),
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap();
        let reply = sns_core::payload_as::<ProfileReply>(&r).unwrap();
        let p = reply.profile.as_ref().unwrap();
        assert_eq!(p.get("quality").map(String::as_str), Some("25"));
    }

    #[test]
    fn unknown_user_is_none_not_error() {
        let mut w = ProfileWorker::new();
        let mut rng = Pcg32::new(1);
        let r = w
            .process(
                &job(
                    "get",
                    Arc::new(ProfileGet {
                        user: "ghost".into(),
                    }),
                ),
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap();
        assert!(sns_core::payload_as::<ProfileReply>(&r)
            .unwrap()
            .profile
            .is_none());
    }

    #[test]
    fn put_then_get() {
        let mut w = ProfileWorker::new();
        let mut rng = Pcg32::new(1);
        w.process(
            &job(
                "put",
                Arc::new(ProfilePut {
                    user: "u2".into(),
                    settings: vec![("keywords".into(), "rust".into())],
                }),
            ),
            SimTime::ZERO,
            &mut rng,
        )
        .unwrap();
        let r = w
            .process(
                &job("get", Arc::new(ProfileGet { user: "u2".into() })),
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap();
        let reply = sns_core::payload_as::<ProfileReply>(&r).unwrap();
        assert_eq!(
            reply
                .profile
                .as_ref()
                .unwrap()
                .get("keywords")
                .map(String::as_str),
            Some("rust")
        );
    }

    #[test]
    fn commit_costs_more_than_read() {
        let mut w = ProfileWorker::new();
        let mut rng = Pcg32::new(1);
        let read = w.service_time(
            &job("get", Arc::new(ProfileGet { user: "u".into() })),
            SimTime::ZERO,
            &mut rng,
        );
        let write = w.service_time(
            &job(
                "put",
                Arc::new(ProfilePut {
                    user: "u".into(),
                    settings: vec![],
                }),
            ),
            SimTime::ZERO,
            &mut rng,
        );
        assert!(write > read);
    }
}
