//! The TACC building-block traits and the host that runs them as SNS
//! workers.
//!
//! A [`TaccWorker`] is a *stateless* transformation on a single content
//! object; an [`Aggregator`] collates several objects into one. Both
//! receive [`TaccArgs`] — the per-user customisation parameters delivered
//! with each request (§2.3) — so "the same workers \[can\] be reused for
//! different services" (e.g. one image scaler parameterised for slow
//! modems or for PDA screens).
//!
//! [`TaccWorkerHost`] adapts either kind into an [`sns_core::WorkerLogic`]
//! so the SNS layer can replicate, load-balance, restart and reap it
//! without knowing what it computes.

use std::any::Any;
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::sync::Arc;
use std::time::Duration;

use sns_core::msg::{Job, ProfileData};
use sns_core::worker::{WorkerError, WorkerLogic};
use sns_core::{AppData, Payload, WorkerClass};
use sns_sim::hash::Fnv1a;
use sns_sim::rng::Pcg32;
use sns_sim::time::SimTime;
use sns_workload::MimeType;

use crate::content::ContentObject;

/// Why a TACC operation failed.
#[derive(Debug, Clone)]
pub enum TaccError {
    /// Input the worker cannot handle; the front end falls back to the
    /// original content (§3.1.8 approximate answers).
    Unsupported(String),
    /// Pathological input crashes the worker process (§3.1.6: "Although
    /// pathological input data occasionally causes a distiller to crash,
    /// the process-peer fault tolerance … means we don't have to worry").
    PathologicalInput,
}

/// Per-request worker arguments: the user's customisation profile merged
/// over service defaults, held as the shared map a job carries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaccArgs {
    map: ProfileData,
}

impl TaccArgs {
    /// Builds args from service defaults overlaid with the user profile,
    /// sharing the defaults (no profile) or the profile (it sets every
    /// default) instead of copying either.
    pub fn merged(defaults: &ProfileData, profile: Option<&ProfileData>) -> Self {
        let map = match profile {
            None => Arc::clone(defaults),
            Some(p) if defaults.keys().all(|k| p.contains_key(k)) => Arc::clone(p),
            Some(p) => {
                let mut map = BTreeMap::clone(defaults);
                map.extend(p.iter().map(|(k, v)| (k.clone(), v.clone())));
                Arc::new(map)
            }
        };
        TaccArgs { map }
    }

    /// Creates args from a plain map.
    pub fn from_map(map: BTreeMap<String, String>) -> Self {
        TaccArgs { map: Arc::new(map) }
    }

    /// Reads a string argument.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }

    /// Reads a numeric argument with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Reads a boolean argument with a default.
    pub fn get_bool(&self, key: &str, default: bool) -> bool {
        self.get(key)
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(default)
    }

    /// Stable hash of (worker, args): the cache-variant discriminator for
    /// post-transformation content (§2.3 "caches can store
    /// post-transformation … content").
    pub fn variant_hash(&self, worker: &str) -> u64 {
        let mut h = Fnv1a::default();
        h.write(worker.as_bytes());
        for (k, v) in self.map.iter() {
            h.write(k.as_bytes());
            h.write(b"=");
            h.write(v.as_bytes());
            h.write(b";");
        }
        h.finish() | 1 // never 0: 0 means "original" in CacheKey
    }

    /// The underlying map, shared: a job can carry it as its profile.
    pub fn as_map(&self) -> &ProfileData {
        &self.map
    }
}

/// A stateless transformation on one content object.
pub trait TaccWorker: Send {
    /// Short name (`"gif"`, `"jpeg"`, `"html"`, …); the SNS class becomes
    /// `distiller/<name>`.
    fn name(&self) -> &'static str;

    /// Whether this worker can transform the given MIME type.
    fn accepts(&self, mime: MimeType) -> bool;

    /// Predicted CPU cost for an input (drives Figure 7 / Table 2).
    fn cost(&self, input: &ContentObject, args: &TaccArgs, rng: &mut Pcg32) -> Duration;

    /// Transforms the object.
    fn transform(
        &mut self,
        input: &ContentObject,
        args: &TaccArgs,
        rng: &mut Pcg32,
    ) -> Result<ContentObject, TaccError>;
}

/// A collation of several content objects into one.
pub trait Aggregator: Send {
    /// Short name; the SNS class becomes `aggregator/<name>`.
    fn name(&self) -> &'static str;

    /// Predicted CPU cost.
    fn cost(&self, inputs: &[ContentObject], args: &TaccArgs, rng: &mut Pcg32) -> Duration;

    /// Collates the inputs.
    fn aggregate(
        &mut self,
        inputs: &[ContentObject],
        args: &TaccArgs,
        rng: &mut Pcg32,
    ) -> Result<ContentObject, TaccError>;
}

/// Payload for aggregation jobs: the already-fetched inputs.
#[derive(Debug, Clone)]
pub struct AggregateRequest {
    /// Objects to collate.
    pub inputs: Vec<ContentObject>,
}

impl AppData for AggregateRequest {
    fn wire_size(&self) -> u64 {
        self.inputs.iter().map(|o| o.wire_size()).sum::<u64>() + 16
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

enum Kind {
    Transform(Box<dyn TaccWorker>),
    Aggregate(Box<dyn Aggregator>),
}

/// Adapter running a TACC building block as SNS worker logic.
pub struct TaccWorkerHost {
    kind: Kind,
    class: WorkerClass,
    defaults: ProfileData,
}

impl TaccWorkerHost {
    /// Hosts a transformation worker as class `distiller/<name>`.
    pub fn transformer(w: Box<dyn TaccWorker>, defaults: BTreeMap<String, String>) -> Self {
        let class = WorkerClass::new(format!("distiller/{}", w.name()));
        TaccWorkerHost {
            kind: Kind::Transform(w),
            class,
            defaults: Arc::new(defaults),
        }
    }

    /// Hosts an aggregator as class `aggregator/<name>`.
    pub fn aggregator(a: Box<dyn Aggregator>, defaults: BTreeMap<String, String>) -> Self {
        let class = WorkerClass::new(format!("aggregator/{}", a.name()));
        TaccWorkerHost {
            kind: Kind::Aggregate(a),
            class,
            defaults: Arc::new(defaults),
        }
    }

    fn args(&self, job: &Job) -> TaccArgs {
        TaccArgs::merged(&self.defaults, job.profile.as_ref())
    }
}

impl WorkerLogic for TaccWorkerHost {
    fn class(&self) -> WorkerClass {
        self.class
    }

    fn service_time(&mut self, job: &Job, _now: SimTime, rng: &mut Pcg32) -> Duration {
        let args = self.args(job);
        match &self.kind {
            Kind::Transform(w) => match ContentObject::from_payload(&job.input) {
                Some(obj) => w.cost(obj, &args, rng),
                None => Duration::from_micros(100),
            },
            Kind::Aggregate(a) => match sns_core::payload_as::<AggregateRequest>(&job.input) {
                Some(req) => a.cost(&req.inputs, &args, rng),
                None => Duration::from_micros(100),
            },
        }
    }

    fn process(
        &mut self,
        job: &Job,
        _now: SimTime,
        rng: &mut Pcg32,
    ) -> Result<Payload, WorkerError> {
        let args = self.args(job);
        let result = match &mut self.kind {
            Kind::Transform(w) => {
                let Some(obj) = ContentObject::from_payload(&job.input) else {
                    return Err(WorkerError::Failed("not a content object".into()));
                };
                if !w.accepts(obj.mime) {
                    return Err(WorkerError::Failed(format!(
                        "{} does not accept {}",
                        w.name(),
                        obj.mime
                    )));
                }
                w.transform(obj, &args, rng)
            }
            Kind::Aggregate(a) => {
                let Some(req) = sns_core::payload_as::<AggregateRequest>(&job.input) else {
                    return Err(WorkerError::Failed("not an aggregate request".into()));
                };
                a.aggregate(&req.inputs, &args, rng)
            }
        };
        match result {
            Ok(out) => Ok(Arc::new(out)),
            Err(TaccError::Unsupported(why)) => Err(WorkerError::Failed(why)),
            Err(TaccError::PathologicalInput) => Err(WorkerError::Crash),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_sim::ComponentId;

    struct Halver;
    impl TaccWorker for Halver {
        fn name(&self) -> &'static str {
            "halver"
        }
        fn accepts(&self, mime: MimeType) -> bool {
            mime == MimeType::Gif
        }
        fn cost(&self, input: &ContentObject, _a: &TaccArgs, _r: &mut Pcg32) -> Duration {
            Duration::from_nanos(input.len() * 1000)
        }
        fn transform(
            &mut self,
            input: &ContentObject,
            args: &TaccArgs,
            _rng: &mut Pcg32,
        ) -> Result<ContentObject, TaccError> {
            if args.get_bool("poison", false) {
                return Err(TaccError::PathologicalInput);
            }
            let mut out = input.clone();
            if let crate::content::Body::Synthetic { len, .. } = &mut out.body {
                *len /= 2;
            }
            out.quality *= 0.5;
            out.lineage.push("halver".into());
            Ok(out)
        }
    }

    fn job(obj: ContentObject, profile: Option<ProfileData>) -> Job {
        Job {
            id: 1,
            class: "distiller/halver".into(),
            op: "transform",
            input: obj.into_payload(),
            profile,
            reply_to: ComponentId(1),
            sampled: true,
        }
    }

    #[test]
    fn host_transforms_and_names_class() {
        let mut host = TaccWorkerHost::transformer(Box::new(Halver), BTreeMap::new());
        assert_eq!(host.class().name(), "distiller/halver");
        let mut rng = Pcg32::new(1);
        let j = job(ContentObject::synthetic("u", MimeType::Gif, 1000), None);
        assert_eq!(
            host.service_time(&j, SimTime::ZERO, &mut rng),
            Duration::from_millis(1)
        );
        let out = host.process(&j, SimTime::ZERO, &mut rng).unwrap();
        let obj = ContentObject::from_payload(&out).unwrap();
        assert_eq!(obj.len(), 500);
        assert_eq!(obj.lineage, vec!["halver"]);
        assert_eq!(obj.quality, 0.5);
    }

    #[test]
    fn host_rejects_wrong_mime() {
        let mut host = TaccWorkerHost::transformer(Box::new(Halver), BTreeMap::new());
        let mut rng = Pcg32::new(1);
        let j = job(ContentObject::synthetic("u", MimeType::Jpeg, 1000), None);
        match host.process(&j, SimTime::ZERO, &mut rng) {
            Err(WorkerError::Failed(_)) => {}
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn pathological_input_becomes_crash() {
        let mut host = TaccWorkerHost::transformer(Box::new(Halver), BTreeMap::new());
        let mut rng = Pcg32::new(1);
        let mut profile = BTreeMap::new();
        profile.insert("poison".to_string(), "1".to_string());
        let j = job(
            ContentObject::synthetic("u", MimeType::Gif, 1000),
            Some(Arc::new(profile)),
        );
        assert!(matches!(
            host.process(&j, SimTime::ZERO, &mut rng),
            Err(WorkerError::Crash)
        ));
    }

    #[test]
    fn profile_overrides_defaults_in_args() {
        let mut defaults = BTreeMap::new();
        defaults.insert("quality".into(), "50".into());
        defaults.insert("scale".into(), "2".into());
        let mut profile = BTreeMap::new();
        profile.insert("quality".to_string(), "25".to_string());
        let args = TaccArgs::merged(&Arc::new(defaults), Some(&Arc::new(profile)));
        assert_eq!(args.get_f64("quality", 0.0), 25.0);
        assert_eq!(args.get_f64("scale", 0.0), 2.0);
    }

    #[test]
    fn variant_hash_distinguishes_args_and_workers() {
        let a = TaccArgs::from_map(BTreeMap::from([("q".into(), "25".into())]));
        let b = TaccArgs::from_map(BTreeMap::from([("q".into(), "50".into())]));
        assert_ne!(a.variant_hash("gif"), b.variant_hash("gif"));
        assert_ne!(a.variant_hash("gif"), a.variant_hash("jpeg"));
        assert_eq!(a.variant_hash("gif"), a.variant_hash("gif"));
        assert_ne!(a.variant_hash("gif"), 0);
    }
}
