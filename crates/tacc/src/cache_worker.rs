//! A cache partition as an SNS worker (§3.1.5).
//!
//! The manager stub treats all live `cache` workers as one virtual cache
//! (consistent hashing lives in `sns_cache::VirtualCache`, driven by the
//! front end's service logic). Each partition is a Harvest-like LRU
//! object store holding original, intermediate and post-transformation
//! variants. Timing follows §4.4: a hit costs ~27 ms (15 ms of it TCP
//! connection overhead — the Harvest HTTP interface needs a fresh
//! connection per request); a miss is detected quickly, the *penalty* is
//! paid at the origin. "Caching in TranSend is only an optimization":
//! all stored data is BASE.

use std::any::Any;
use std::sync::Arc;
use std::time::Duration;

use sns_cache::lru::{LruCache, Weighted};
use sns_cache::timing::CacheTiming;
use sns_cache::CacheKey;
use sns_core::msg::Job;
use sns_core::worker::{WorkerError, WorkerLogic};
use sns_core::{AppData, Payload, WorkerClass};
use sns_sim::rng::Pcg32;
use sns_sim::time::SimTime;

use crate::content::ContentObject;

/// Cache lookup request payload.
#[derive(Debug, Clone)]
pub struct CacheGet {
    /// The key (URL + variant).
    pub key: CacheKey,
}

impl AppData for CacheGet {
    fn wire_size(&self) -> u64 {
        self.key.url.len() as u64 + 16
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Cache lookup response payload.
#[derive(Debug, Clone)]
pub struct CacheGetResult {
    /// The object, if present.
    pub object: Option<ContentObject>,
}

impl AppData for CacheGetResult {
    fn wire_size(&self) -> u64 {
        self.object.as_ref().map(|o| o.wire_size()).unwrap_or(8)
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Cache insertion request payload ("we modified Harvest to allow data to
/// be injected into it", §3.1.5).
#[derive(Debug, Clone)]
pub struct CacheInject {
    /// The key to store under.
    pub key: CacheKey,
    /// The object.
    pub object: ContentObject,
}

impl AppData for CacheInject {
    fn wire_size(&self) -> u64 {
        self.key.url.len() as u64 + self.object.wire_size()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

struct Stored(ContentObject);

impl Weighted for Stored {
    fn weight(&self) -> u64 {
        self.0.len().max(1)
    }
}

/// One cache partition as SNS worker logic.
pub struct CacheWorker {
    store: LruCache<CacheKey, Stored>,
    timing: CacheTiming,
    ttl: Option<Duration>,
}

impl CacheWorker {
    /// Worker class advertised by every cache partition.
    pub const CLASS: &'static str = "cache";

    /// Creates a partition with `capacity` bytes (and optional TTL).
    pub fn new(capacity: u64, ttl: Option<Duration>) -> Self {
        CacheWorker {
            store: LruCache::new(capacity),
            timing: CacheTiming::default(),
            ttl,
        }
    }
}

impl WorkerLogic for CacheWorker {
    fn class(&self) -> WorkerClass {
        WorkerClass::new(Self::CLASS)
    }

    fn service_time(&mut self, job: &Job, now: SimTime, rng: &mut Pcg32) -> Duration {
        match job.op.as_str() {
            "get" => {
                let hit = sns_core::payload_as::<CacheGet>(&job.input)
                    .map(|g| self.store.peek(&g.key, now.as_nanos()).is_some())
                    .unwrap_or(false);
                if hit {
                    self.timing.hit_time(rng)
                } else {
                    // Miss detection: connection + index probe only.
                    self.timing.tcp_overhead + Duration::from_millis(2)
                }
            }
            // Injection: connection + store.
            _ => self.timing.tcp_overhead + Duration::from_millis(4),
        }
    }

    fn process(
        &mut self,
        job: &Job,
        now: SimTime,
        _rng: &mut Pcg32,
    ) -> Result<Payload, WorkerError> {
        match job.op.as_str() {
            "get" => {
                let Some(get) = sns_core::payload_as::<CacheGet>(&job.input) else {
                    return Err(WorkerError::Failed("bad cache get payload".into()));
                };
                let object = self
                    .store
                    .get(&get.key, now.as_nanos())
                    .map(|s| s.0.clone());
                Ok(Arc::new(CacheGetResult { object }))
            }
            "put" | "inject" => {
                let Some(put) = sns_core::payload_as::<CacheInject>(&job.input) else {
                    return Err(WorkerError::Failed("bad cache put payload".into()));
                };
                self.store.put(
                    put.key.clone(),
                    Stored(put.object.clone()),
                    now.as_nanos(),
                    self.ttl,
                );
                Ok(Arc::new(CacheGetResult { object: None }))
            }
            other => Err(WorkerError::Failed(format!("unknown cache op {other}"))),
        }
    }

    /// Cache I/O is network/disk-bound, not CPU-bound.
    fn cpu_bound(&self) -> bool {
        false
    }

    /// Harvest served concurrent requests.
    fn concurrency(&self) -> u32 {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_sim::ComponentId;
    use sns_workload::MimeType;

    fn job(op: &str, input: Payload) -> Job {
        Job {
            id: 1,
            class: CacheWorker::CLASS.into(),
            op: op.into(),
            input,
            profile: None,
            reply_to: ComponentId(1),
            sampled: true,
        }
    }

    #[test]
    fn get_miss_then_put_then_hit() {
        let mut w = CacheWorker::new(1 << 20, None);
        let mut rng = Pcg32::new(1);
        let key = CacheKey::original("http://x/a.gif");
        let g = job("get", Arc::new(CacheGet { key: key.clone() }));
        let r = w.process(&g, SimTime::ZERO, &mut rng).unwrap();
        assert!(sns_core::payload_as::<CacheGetResult>(&r)
            .unwrap()
            .object
            .is_none());

        let obj = ContentObject::synthetic("http://x/a.gif", MimeType::Gif, 3000);
        let p = job(
            "put",
            Arc::new(CacheInject {
                key: key.clone(),
                object: obj.clone(),
            }),
        );
        w.process(&p, SimTime::ZERO, &mut rng).unwrap();

        let r = w.process(&g, SimTime::ZERO, &mut rng).unwrap();
        let got = sns_core::payload_as::<CacheGetResult>(&r)
            .unwrap()
            .object
            .clone();
        assert_eq!(got, Some(obj));
    }

    #[test]
    fn hit_service_time_exceeds_miss_probe() {
        let mut w = CacheWorker::new(1 << 20, None);
        let mut rng = Pcg32::new(2);
        let key = CacheKey::original("u");
        let g = job("get", Arc::new(CacheGet { key: key.clone() }));
        let miss_t = w.service_time(&g, SimTime::ZERO, &mut rng);
        let obj = ContentObject::synthetic("u", MimeType::Gif, 100);
        let p = job("put", Arc::new(CacheInject { key, object: obj }));
        w.process(&p, SimTime::ZERO, &mut rng).unwrap();
        // Average hit times over draws (they are stochastic).
        let hit_t: Duration = (0..100)
            .map(|_| w.service_time(&g, SimTime::ZERO, &mut rng))
            .sum::<Duration>()
            / 100;
        assert!(hit_t > miss_t, "hit {hit_t:?} vs miss probe {miss_t:?}");
        assert!(hit_t < Duration::from_millis(120));
    }

    #[test]
    fn variants_stored_separately() {
        let mut w = CacheWorker::new(1 << 20, None);
        let mut rng = Pcg32::new(3);
        let orig = CacheKey::original("u");
        let varnt = CacheKey::variant("u", 7);
        let obj = ContentObject::synthetic("u", MimeType::Gif, 100);
        w.process(
            &job(
                "put",
                Arc::new(CacheInject {
                    key: varnt.clone(),
                    object: obj,
                }),
            ),
            SimTime::ZERO,
            &mut rng,
        )
        .unwrap();
        let miss = w
            .process(
                &job("get", Arc::new(CacheGet { key: orig })),
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap();
        assert!(sns_core::payload_as::<CacheGetResult>(&miss)
            .unwrap()
            .object
            .is_none());
        let hit = w
            .process(
                &job("get", Arc::new(CacheGet { key: varnt })),
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap();
        assert!(sns_core::payload_as::<CacheGetResult>(&hit)
            .unwrap()
            .object
            .is_some());
    }

    #[test]
    fn unknown_op_fails_softly() {
        let mut w = CacheWorker::new(1024, None);
        let mut rng = Pcg32::new(4);
        let r = w.process(
            &job(
                "flush",
                Arc::new(CacheGet {
                    key: CacheKey::original("u"),
                }),
            ),
            SimTime::ZERO,
            &mut rng,
        );
        assert!(matches!(r, Err(WorkerError::Failed(_))));
    }
}
