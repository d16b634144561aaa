//! Synthetic trace generation with reference locality.
//!
//! Object population model (for the §4.4 cache studies): a *shared* pool
//! of Zipf-popular objects (cross-user locality — the reason larger
//! populations see higher hit rates) plus a *private* per-user working
//! set. Each object has a stable identity: its MIME type and size are
//! derived deterministically from the workload seed and object name, so
//! repeated references see the same bytes.

use std::fmt::Write as _;
use std::time::Duration;

use sns_sim::hash::fnv1a;
use sns_sim::rng::Pcg32;

use crate::bursts::ArrivalProcess;
use crate::mix::MimeMix;
use crate::sizes::SizeModel;
use crate::zipf::Zipf;
use crate::MimeType;

/// Workload shape parameters.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// RNG seed; everything derives from it.
    pub seed: u64,
    /// Active user population (paper: ~8000 over the trace).
    pub users: u32,
    /// Size of the shared Zipf-popular object pool.
    pub shared_objects: usize,
    /// Private working-set size per user.
    pub private_per_user: u32,
    /// Probability a reference goes to the shared pool.
    pub shared_prob: f64,
    /// Zipf exponent of shared-pool popularity.
    pub zipf_alpha: f64,
    /// Probability a request revisits one of the user's own recent
    /// objects (per-user temporal locality: back buttons, frames,
    /// repeat visits). This is what makes per-user working sets real —
    /// and what a too-small cache destroys (§4.4 falloff).
    pub revisit_prob: f64,
    /// MIME mix of generated objects.
    pub mix: MimeMix,
    /// Size model of generated objects.
    pub sizes: SizeModel,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 0x7ace,
            users: 8000,
            shared_objects: 40_000,
            private_per_user: 200,
            shared_prob: 0.65,
            zipf_alpha: 0.85,
            revisit_prob: 0.25,
            mix: MimeMix::default(),
            sizes: SizeModel::default(),
        }
    }
}

/// One traced request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Offset from trace start.
    pub at: Duration,
    /// Requesting user id.
    pub user: u32,
    /// Object URL.
    pub url: String,
    /// Object MIME type.
    pub mime: MimeType,
    /// Object content length in bytes.
    pub size: u64,
}

/// A sequence of trace records ordered by time.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The records, non-decreasing in `at`.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serialises to a TSV string
    /// (`at_ns \t user \t url \t mime_ext \t size`).
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                r.at.as_nanos(),
                r.user,
                r.url,
                r.mime.extension(),
                r.size
            );
        }
        out
    }

    /// Parses the TSV format produced by [`Trace::to_tsv`].
    pub fn from_tsv(s: &str) -> Result<Trace, String> {
        let mut records = Vec::new();
        for (ln, line) in s.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let mut f = line.split('\t');
            let mut next = |what: &str| {
                f.next()
                    .ok_or_else(|| format!("line {}: missing {what}", ln + 1))
            };
            let at_ns: u128 = next("time")?
                .parse()
                .map_err(|e| format!("line {}: bad time: {e}", ln + 1))?;
            let user: u32 = next("user")?
                .parse()
                .map_err(|e| format!("line {}: bad user: {e}", ln + 1))?;
            let url = next("url")?.to_string();
            let mime = match next("mime")? {
                "gif" => MimeType::Gif,
                "html" => MimeType::Html,
                "jpg" => MimeType::Jpeg,
                "bin" => MimeType::Other,
                other => return Err(format!("line {}: unknown mime {other}", ln + 1)),
            };
            let size: u64 = next("size")?
                .parse()
                .map_err(|e| format!("line {}: bad size: {e}", ln + 1))?;
            records.push(TraceRecord {
                at: Duration::from_nanos(at_ns as u64),
                user,
                url,
                mime,
                size,
            });
        }
        Ok(Trace { records })
    }
}

/// Generates traces (or single requests on the fly) from a
/// [`WorkloadConfig`].
pub struct TraceGenerator {
    cfg: WorkloadConfig,
    zipf: Zipf,
    rng: Pcg32,
    /// Per-user recently visited objects (bounded).
    recent: std::collections::HashMap<u32, std::collections::VecDeque<(String, MimeType, u64)>>,
}

impl TraceGenerator {
    /// Creates a generator; all randomness derives from `cfg.seed`.
    pub fn new(cfg: WorkloadConfig) -> Self {
        let zipf = Zipf::new(cfg.shared_objects.max(1), cfg.zipf_alpha);
        let rng = Pcg32::new(cfg.seed);
        TraceGenerator {
            cfg,
            zipf,
            rng,
            recent: std::collections::HashMap::new(),
        }
    }

    /// The config in use.
    pub fn config(&self) -> &WorkloadConfig {
        &self.cfg
    }

    /// Stable per-object properties: every reference to an object name
    /// sees the same MIME type and size.
    fn object_props(&self, name: &str) -> (MimeType, u64) {
        let h = fnv1a(name.as_bytes()) ^ self.cfg.seed;
        let mut orng = Pcg32::new(h);
        let mime = self.cfg.mix.sample(&mut orng);
        let size = self.cfg.sizes.sample(mime, &mut orng);
        (mime, size)
    }

    /// Draws the next request at the given time offset.
    pub fn request_at(&mut self, at: Duration) -> TraceRecord {
        let user = self.rng.below(u64::from(self.cfg.users.max(1))) as u32;
        // Temporal locality: revisit one of this user's recent objects.
        if self.rng.chance(self.cfg.revisit_prob) {
            if let Some(recent) = self.recent.get(&user) {
                if !recent.is_empty() {
                    let i = self.rng.below(recent.len() as u64) as usize;
                    let (url, mime, size) = recent[i].clone();
                    return TraceRecord {
                        at,
                        user,
                        url,
                        mime,
                        size,
                    };
                }
            }
        }
        let name = if self.rng.chance(self.cfg.shared_prob) {
            let rank = self.zipf.sample(&mut self.rng);
            format!("s{rank}")
        } else {
            let idx = self.rng.below(u64::from(self.cfg.private_per_user.max(1)));
            format!("p{user}-{idx}")
        };
        let (mime, size) = self.object_props(&name);
        let url = format!("http://origin/{name}.{}", mime.extension());
        let recent = self.recent.entry(user).or_default();
        recent.push_back((url.clone(), mime, size));
        if recent.len() > 8 {
            recent.pop_front();
        }
        TraceRecord {
            at,
            user,
            url,
            mime,
            size,
        }
    }

    /// Generates a constant-rate trace (exponential inter-arrivals), the
    /// playback engine's tunable-rate mode.
    pub fn constant_rate(&mut self, rate: f64, horizon: Duration) -> Trace {
        assert!(rate > 0.0);
        let mut records = Vec::new();
        let mut t = 0.0f64;
        loop {
            t += self.rng.exp(1.0 / rate);
            if t >= horizon.as_secs_f64() {
                break;
            }
            records.push(self.request_at(Duration::from_secs_f64(t)));
        }
        Trace { records }
    }

    /// Generates a trace following the Figure 6 diurnal/bursty arrival
    /// process.
    pub fn bursty(&mut self, process: &ArrivalProcess, horizon: Duration) -> Trace {
        let arrivals = process.arrivals(horizon, &mut self.rng);
        let records = arrivals.into_iter().map(|at| self.request_at(at)).collect();
        Trace { records }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> WorkloadConfig {
        WorkloadConfig {
            users: 100,
            shared_objects: 500,
            private_per_user: 20,
            ..Default::default()
        }
    }

    #[test]
    fn object_properties_are_stable() {
        let mut g = TraceGenerator::new(small_cfg());
        let mut seen: std::collections::HashMap<String, (MimeType, u64)> =
            std::collections::HashMap::new();
        let t = g.constant_rate(50.0, Duration::from_secs(60));
        assert!(t.len() > 1000);
        for r in &t.records {
            let e = seen.entry(r.url.clone()).or_insert((r.mime, r.size));
            assert_eq!(*e, (r.mime, r.size), "object identity must be stable");
        }
    }

    #[test]
    fn constant_rate_matches_target() {
        let mut g = TraceGenerator::new(small_cfg());
        let t = g.constant_rate(20.0, Duration::from_secs(600));
        let rate = t.len() as f64 / 600.0;
        assert!((rate - 20.0).abs() < 1.5, "rate {rate}");
        assert!(t.records.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn shared_pool_creates_cross_user_locality() {
        let mut g = TraceGenerator::new(small_cfg());
        let t = g.constant_rate(50.0, Duration::from_secs(200));
        // Count objects referenced by more than one distinct user.
        let mut by_url: std::collections::HashMap<&str, std::collections::BTreeSet<u32>> =
            std::collections::HashMap::new();
        for r in &t.records {
            by_url.entry(&r.url).or_default().insert(r.user);
        }
        let multi = by_url.values().filter(|s| s.len() > 1).count();
        assert!(multi > 50, "shared objects must be referenced across users");
    }

    #[test]
    fn tsv_roundtrip() {
        let mut g = TraceGenerator::new(small_cfg());
        let t = g.constant_rate(10.0, Duration::from_secs(30));
        let tsv = t.to_tsv();
        let t2 = Trace::from_tsv(&tsv).unwrap();
        assert_eq!(t.records, t2.records);
    }

    #[test]
    fn tsv_rejects_garbage() {
        assert!(Trace::from_tsv("not\ta\tvalid\tline").is_err());
        assert!(Trace::from_tsv("1\t2\tu\tgif\tx").is_err());
        assert!(Trace::from_tsv("").unwrap().is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let gen = |seed| {
            let mut cfg = small_cfg();
            cfg.seed = seed;
            let mut g = TraceGenerator::new(cfg);
            g.constant_rate(10.0, Duration::from_secs(20)).to_tsv()
        };
        assert_eq!(gen(1), gen(1));
        assert_ne!(gen(1), gen(2));
    }
}
