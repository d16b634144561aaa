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
    /// The stored [`ContentObject`] payload, if present: a hit shares
    /// the partition's copy instead of cloning it.
    pub object: Option<Payload>,
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
    /// The object: a [`ContentObject`] payload, as the producer sent it.
    pub object: Payload,
}

impl AppData for CacheInject {
    fn wire_size(&self) -> u64 {
        self.key.url.len() as u64 + self.object.wire_size()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A stored object. The partition copies an object once, on insert, so
/// what it holds is exact-size whatever spare capacity the producer's
/// buffers had; every hit then shares that copy.
struct Stored(Arc<ContentObject>);

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
        Self::CLASS.into()
    }

    fn service_time(&mut self, job: &Job, now: SimTime, rng: &mut Pcg32) -> Duration {
        match job.op {
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
        match job.op {
            "get" => {
                let Some(get) = sns_core::payload_as::<CacheGet>(&job.input) else {
                    return Err(WorkerError::Failed("bad cache get payload".into()));
                };
                let object = self
                    .store
                    .get(&get.key, now.as_nanos())
                    .map(|s| Arc::clone(&s.0) as Payload);
                Ok(Arc::new(CacheGetResult { object }))
            }
            "put" | "inject" => {
                let Some((key, object)) = sns_core::payload_as::<CacheInject>(&job.input)
                    .and_then(|put| Some((&put.key, ContentObject::from_payload(&put.object)?)))
                else {
                    return Err(WorkerError::Failed("bad cache put payload".into()));
                };
                self.store.put(
                    key.clone(),
                    Stored(Arc::new(object.clone())),
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
    use crate::content::Body;
    use sns_sim::ComponentId;
    use sns_workload::MimeType;

    fn job(op: &'static str, input: Payload) -> Job {
        Job {
            id: 1,
            class: CacheWorker::CLASS.into(),
            op,
            input,
            profile: None,
            reply_to: ComponentId(1),
            sampled: true,
        }
    }

    fn get(w: &mut CacheWorker, key: &CacheKey) -> Option<Payload> {
        let g = job("get", Arc::new(CacheGet { key: key.clone() }));
        let r = w.process(&g, SimTime::ZERO, &mut Pcg32::new(0)).unwrap();
        sns_core::payload_as::<CacheGetResult>(&r)
            .unwrap()
            .object
            .clone()
    }

    fn put(w: &mut CacheWorker, key: &CacheKey, object: Payload) -> Result<Payload, WorkerError> {
        let p = job(
            "put",
            Arc::new(CacheInject {
                key: key.clone(),
                object,
            }),
        );
        w.process(&p, SimTime::ZERO, &mut Pcg32::new(0))
    }

    #[test]
    fn get_miss_then_put_then_hit() {
        let mut w = CacheWorker::new(1 << 20, None);
        let key = CacheKey::original("http://x/a.gif");
        assert!(get(&mut w, &key).is_none());

        let obj = ContentObject::synthetic("http://x/a.gif", MimeType::Gif, 3000);
        put(&mut w, &key, obj.clone().into_payload()).unwrap();

        let got = get(&mut w, &key).unwrap();
        assert_eq!(ContentObject::from_payload(&got), Some(&obj));
    }

    #[test]
    fn hits_share_one_stored_copy_made_on_insert() {
        let mut w = CacheWorker::new(1 << 20, None);
        let key = CacheKey::variant("http://x/p.html", 9);
        let mut body = String::with_capacity(4096);
        body.push_str("<html><body>short</body></html>");
        let injected = ContentObject::text("http://x/p.html", MimeType::Html, body).into_payload();
        put(&mut w, &key, Arc::clone(&injected)).unwrap();

        let a = get(&mut w, &key).unwrap();
        let b = get(&mut w, &key).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "two hits must share the stored payload"
        );
        assert!(
            !Arc::ptr_eq(&a, &injected),
            "the partition copies on insert rather than keeping the producer's object"
        );
        let stored = ContentObject::from_payload(&a).unwrap();
        assert_eq!(Some(stored), ContentObject::from_payload(&injected));
        let Body::Text(text) = &stored.body else {
            panic!("stored body changed kind");
        };
        assert_eq!(text.capacity(), text.len(), "stored body is exact-size");
    }

    #[test]
    fn stored_weight_is_content_length() {
        let mut w = CacheWorker::new(1 << 20, None);
        let obj = ContentObject::synthetic("u", MimeType::Jpeg, 12_345);
        put(&mut w, &CacheKey::original("u"), obj.into_payload()).unwrap();
        assert_eq!(w.store.used(), 12_345);
    }

    #[test]
    fn put_of_non_content_payload_is_refused() {
        let mut w = CacheWorker::new(1 << 20, None);
        let key = CacheKey::original("u");
        let not_content: Payload = Arc::new(CacheGet { key: key.clone() });
        let r = put(&mut w, &key, not_content);
        assert!(
            matches!(r, Err(WorkerError::Failed(ref why)) if why == "bad cache put payload"),
            "{r:?}"
        );
        assert!(w.store.is_empty());
        assert!(get(&mut w, &key).is_none());
    }

    #[test]
    fn hit_service_time_exceeds_miss_probe() {
        let mut w = CacheWorker::new(1 << 20, None);
        let mut rng = Pcg32::new(2);
        let key = CacheKey::original("u");
        let g = job("get", Arc::new(CacheGet { key: key.clone() }));
        let miss_t = w.service_time(&g, SimTime::ZERO, &mut rng);
        let obj = ContentObject::synthetic("u", MimeType::Gif, 100);
        put(&mut w, &key, obj.into_payload()).unwrap();
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
        let orig = CacheKey::original("u");
        let varnt = CacheKey::variant("u", 7);
        let obj = ContentObject::synthetic("u", MimeType::Gif, 100);
        put(&mut w, &varnt, obj.into_payload()).unwrap();
        assert!(get(&mut w, &orig).is_none());
        assert!(get(&mut w, &varnt).is_some());
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
