//! The simulated Internet: an origin-server worker front ends fetch from
//! on cache misses.
//!
//! §4.4: "The miss penalty (i.e., the time to fetch data from the
//! Internet) varies widely, from 100 ms through 100 seconds", and
//! dominates end-to-end latency. The origin worker synthesises the
//! object (real generated HTML for `text/html`; a synthetic byte model
//! for images) after a miss-penalty-distributed delay, with high
//! concurrency (the Internet serves many fetches at once) and no CPU
//! occupancy on the cluster.

use std::any::Any;
use std::sync::Arc;
use std::time::Duration;

use sns_cache::timing::CacheTiming;
use sns_core::msg::Job;
use sns_core::worker::{WorkerError, WorkerLogic};
use sns_core::{AppData, Payload, WorkerClass};
use sns_sim::rng::Pcg32;
use sns_sim::time::SimTime;
use sns_workload::MimeType;

use crate::content::{synth_html, ContentObject};

/// An origin fetch request (what the FE knows from the trace record).
#[derive(Debug, Clone)]
pub struct FetchRequest {
    /// Object URL.
    pub url: String,
    /// Its MIME type.
    pub mime: MimeType,
    /// Its content length.
    pub size: u64,
}

impl AppData for FetchRequest {
    fn wire_size(&self) -> u64 {
        self.url.len() as u64 + 32
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The origin-server worker.
pub struct OriginServer {
    timing: CacheTiming,
    /// Scales the miss penalty (1.0 = the paper's distribution). Lowered
    /// in experiments that must not be dominated by fetch time.
    pub penalty_scale: f64,
}

impl OriginServer {
    /// Worker class of the origin model.
    pub const CLASS: &'static str = "origin";

    /// Creates an origin with the §4.4 miss-penalty distribution.
    pub fn new() -> Self {
        OriginServer {
            timing: CacheTiming::default(),
            penalty_scale: 1.0,
        }
    }

    /// Scales the fetch delay (e.g. 0.05 for LAN-like origins in the
    /// scalability experiment where the cache is pre-warmed anyway).
    pub fn with_penalty_scale(mut self, scale: f64) -> Self {
        self.penalty_scale = scale;
        self
    }

    /// Deterministically synthesises the object for a fetch request.
    pub fn make_object(req: &FetchRequest) -> ContentObject {
        match req.mime {
            MimeType::Html => {
                // Generate real HTML whose length approximates the traced
                // size: ~6 bytes/word of prose plus image tags.
                let target_words = (req.size / 8).clamp(10, 20_000) as usize;
                let vocab = [
                    "the", "culture", "event", "calendar", "bay", "area", "music", "theatre",
                    "gallery", "saturday", "sunday", "january", "march", "october", "15", "3",
                    "21", "ticket", "free", "student", "berkeley", "campus", "network", "service",
                    "latency",
                ];
                let mut words: Vec<&str> = (0..target_words)
                    .map(|i| vocab[(i * 7 + i / 13) % vocab.len()])
                    .collect();
                // Sprinkle explicit "<month> <day>" event listings so
                // culture-page-style pages really contain schedules.
                let events = [("january", "15"), ("march", "3"), ("october", "21")];
                let mut e = 0;
                let mut i = 5;
                while i + 1 < words.len() {
                    let (month, day) = events[e % events.len()];
                    words[i] = month;
                    words[i + 1] = day;
                    e += 1;
                    i += 23;
                }
                let n_images = (req.size / 4000).min(12) as usize;
                ContentObject::text(
                    &req.url,
                    MimeType::Html,
                    synth_html(&req.url, n_images, &words),
                )
            }
            mime => ContentObject::synthetic(&req.url, mime, req.size),
        }
    }
}

impl Default for OriginServer {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerLogic for OriginServer {
    fn class(&self) -> WorkerClass {
        Self::CLASS.into()
    }

    fn service_time(&mut self, _job: &Job, _now: SimTime, rng: &mut Pcg32) -> Duration {
        self.timing.miss_penalty(rng).mul_f64(self.penalty_scale)
    }

    fn process(
        &mut self,
        job: &Job,
        _now: SimTime,
        _rng: &mut Pcg32,
    ) -> Result<Payload, WorkerError> {
        let Some(req) = sns_core::payload_as::<FetchRequest>(&job.input) else {
            return Err(WorkerError::Failed("bad fetch request".into()));
        };
        Ok(Arc::new(Self::make_object(req)))
    }

    /// Waiting on the wide area, not on cluster CPU.
    fn cpu_bound(&self) -> bool {
        false
    }

    /// The Internet is highly concurrent.
    fn concurrency(&self) -> u32 {
        256
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_sim::ComponentId;

    fn job(req: FetchRequest) -> Job {
        Job {
            id: 1,
            class: OriginServer::CLASS.into(),
            op: "fetch",
            input: Arc::new(req),
            profile: None,
            reply_to: ComponentId(1),
            sampled: true,
        }
    }

    #[test]
    fn html_fetch_is_real_markup_of_roughly_right_size() {
        let req = FetchRequest {
            url: "http://origin/p.html".into(),
            mime: MimeType::Html,
            size: 5000,
        };
        let obj = OriginServer::make_object(&req);
        let crate::content::Body::Text(t) = &obj.body else {
            panic!("html must be text");
        };
        assert!(t.starts_with("<html>"));
        let ratio = obj.len() as f64 / 5000.0;
        assert!((0.3..3.0).contains(&ratio), "size ratio {ratio}");
    }

    #[test]
    fn image_fetch_is_synthetic_with_exact_size() {
        let req = FetchRequest {
            url: "http://origin/i.jpg".into(),
            mime: MimeType::Jpeg,
            size: 12_000,
        };
        let obj = OriginServer::make_object(&req);
        assert_eq!(obj.len(), 12_000);
        assert_eq!(obj.mime, MimeType::Jpeg);
    }

    #[test]
    fn fetch_delay_spans_miss_penalty_range() {
        let mut o = OriginServer::new();
        let mut rng = Pcg32::new(9);
        let j = job(FetchRequest {
            url: "u".into(),
            mime: MimeType::Gif,
            size: 100,
        });
        let mut max = Duration::ZERO;
        for _ in 0..1000 {
            let t = o.service_time(&j, SimTime::ZERO, &mut rng);
            assert!(t >= Duration::from_millis(100));
            assert!(t <= Duration::from_secs(100));
            max = max.max(t);
        }
        assert!(max > Duration::from_secs(2), "heavy tail exercised");
    }

    #[test]
    fn penalty_scale_shrinks_delay() {
        let mut o = OriginServer::new().with_penalty_scale(0.01);
        let mut rng = Pcg32::new(9);
        let j = job(FetchRequest {
            url: "u".into(),
            mime: MimeType::Gif,
            size: 100,
        });
        for _ in 0..100 {
            assert!(o.service_time(&j, SimTime::ZERO, &mut rng) < Duration::from_secs(2));
        }
    }

    #[test]
    fn process_roundtrip() {
        let mut o = OriginServer::new();
        let mut rng = Pcg32::new(9);
        let j = job(FetchRequest {
            url: "http://x/a.gif".into(),
            mime: MimeType::Gif,
            size: 2000,
        });
        let p = o.process(&j, SimTime::ZERO, &mut rng).unwrap();
        let obj = ContentObject::from_payload(&p).unwrap();
        assert_eq!(obj.url, "http://x/a.gif");
        assert_eq!(obj.len(), 2000);
    }
}
