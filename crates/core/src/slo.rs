//! Span-derived SLO summaries: streaming per-service / per-tenant
//! latency percentiles and the depth-1 request-path breakdown.
//!
//! The paper's SNS layer assumes a continuously *operated* service
//! (§3: the monitor "reports errors", operators watch utilization);
//! what makes that cheap in practice is deriving service-level
//! indicators from the sampled span stream instead of logging every
//! request. An [`SloAggregator`] consumes [`SpanRecord`]s one at a
//! time — from a [`TraceLog`] snapshot or as they stream out of a
//! sink — and maintains bounded-memory log-linear histograms:
//!
//! * **request latency** — `req` spans (front-end round trips), plus
//!   root `job` spans for drivers that submit straight into the
//!   dispatch plane (the rt `submit` path);
//! * **per-service latency** — `job` spans grouped by worker class;
//! * **per-tenant latency** — the same, folded through a class→tenant
//!   assignment ([`SloAggregator::set_tenant`]);
//! * **depth-1 breakdown** — each dispatch's time split into
//!   queue-wait (`wq`), worker service (`ws`) and the remainder
//!   (dispatch + network), joined streamingly by job id.
//!
//! Because the input is head-sampled (see [`crate::trace::Sampling`]),
//! every histogram count is an unbiased 1-in-`rate` estimate:
//! [`SloRow`]s report the observed count as `samples` and the
//! scaled-up `count × rate` as `iters`, and the closure invariant
//! `samples × rate ≈ admitted requests` is what the cluster-ops suite
//! checks under chaos.
//!
//! Rows serialise in the `BENCH_*.json` trajectory format (a strict
//! superset of `sns_testkit::bench::BenchRow` — one extra `p95_ns`
//! field), so SLO rows append to the same files and the same CI
//! row-count guards see them.

use std::collections::BTreeMap;

use sns_sim::time::SimTime;

use crate::trace::{SpanId, SpanRecord, TraceLog};

/// Subbucket resolution: 2^3 = 8 subbuckets per octave, bounding the
/// relative quantile error at ~1/16 ≈ 6%.
const SUB_BITS: u32 = 3;
const SUBS: u64 = 1 << SUB_BITS;
/// 512 buckets cover 0 ns ..= u64::MAX ns.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUBS as usize;

/// A bounded-memory log-linear histogram over nanosecond durations:
/// fixed 512 × u64 storage, ~6% relative quantile error, O(1) record.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    sum: f64,
    min: u64,
    max: u64,
    /// Last sampled span id to land in each occupied bucket: the
    /// exemplar link from a percentile back to a concrete trace.
    exemplars: BTreeMap<usize, SpanId>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUBS {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros();
    let sub = (ns >> (octave - SUB_BITS)) & (SUBS - 1);
    ((u64::from(octave) - u64::from(SUB_BITS) + 1) * SUBS + sub) as usize
}

/// Inclusive lower bound of a bucket (inverse of [`bucket_of`]).
fn bucket_low(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUBS {
        return idx;
    }
    let octave = idx / SUBS - 1 + u64::from(SUB_BITS);
    let sub = idx % SUBS;
    (SUBS + sub) << (octave - u64::from(SUB_BITS))
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            total: 0,
            sum: 0.0,
            min: u64::MAX,
            max: 0,
            exemplars: BTreeMap::new(),
        }
    }

    /// Records one duration, in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.sum += ns as f64;
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    /// Records one duration and remembers `id` as the bucket's
    /// exemplar (last writer wins; storage is bounded by the 512
    /// buckets). Quantile rows then link back to a concrete trace via
    /// [`Histogram::exemplar`].
    pub fn record_exemplar(&mut self, ns: u64, id: SpanId) {
        self.record(ns);
        self.exemplars.insert(bucket_of(ns), id);
    }

    /// The exemplar nearest the `q`-quantile's bucket: the span id of
    /// a real observation with approximately that latency. `None` when
    /// nothing was recorded via [`Histogram::record_exemplar`].
    pub fn exemplar(&self, q: f64) -> Option<SpanId> {
        if self.total == 0 || self.exemplars.is_empty() {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * (self.total - 1) as f64).round() as u64;
        let mut seen = 0u64;
        let mut idx = BUCKETS - 1;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen > target {
                idx = i;
                break;
            }
        }
        if let Some(id) = self.exemplars.get(&idx) {
            return Some(*id);
        }
        // Nearest occupied bucket with an exemplar, preferring the
        // slower side (the more interesting tail witness).
        for d in 1..BUCKETS {
            if let Some(id) = self.exemplars.get(&(idx + d)) {
                return Some(*id);
            }
            if d <= idx {
                if let Some(id) = self.exemplars.get(&(idx - d)) {
                    return Some(*id);
                }
            }
        }
        None
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of recorded durations (exact, not bucketed).
    pub fn sum_ns(&self) -> f64 {
        self.sum
    }

    /// Mean recorded duration.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Smallest recorded duration (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded duration.
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (0.0 ..= 1.0) as a bucket-midpoint estimate,
    /// clamped to the observed min/max.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * (self.total - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen > target {
                let low = bucket_low(idx);
                let width = bucket_low((idx + 1).min(BUCKETS - 1)).saturating_sub(low);
                let mid = low + width / 2;
                return mid.clamp(self.min, self.max) as f64;
            }
        }
        self.max as f64
    }
}

/// One rendered SLO summary row (`BenchRow` superset: adds `p95_ns`).
#[derive(Debug, Clone)]
pub struct SloRow {
    /// Row name, e.g. `slo/request` or `slo/service/distiller-gif`.
    pub bench: String,
    /// Estimated population: observed count × sampling rate.
    pub iters: u64,
    /// Mean latency, ns.
    pub mean_ns: f64,
    /// Median, ns.
    pub p50_ns: f64,
    /// 95th percentile, ns.
    pub p95_ns: f64,
    /// 99th percentile, ns.
    pub p99_ns: f64,
    /// Fastest observation, ns.
    pub min_ns: f64,
    /// Slowest observation, ns.
    pub max_ns: f64,
    /// Observed (sampled) count.
    pub samples: u64,
    /// Trace id (canonical `kind:c<owner>:<n>` form) of a sampled
    /// observation near the p50 bucket — a concrete trace to pull up
    /// next to the number.
    pub p50_exemplar: Option<String>,
    /// Exemplar near the p95 bucket.
    pub p95_exemplar: Option<String>,
    /// Exemplar near the p99 bucket: the row's tail witness.
    pub p99_exemplar: Option<String>,
}

/// Partially joined per-job breakdown state (bounded by in-flight
/// sampled jobs: entries are removed when the closing `job` span
/// arrives).
#[derive(Debug, Default, Clone, Copy)]
struct OpenJob {
    queue_ns: u64,
    service_ns: u64,
}

/// Streaming SLO aggregation over a (sampled) span stream. See the
/// module docs for the derivation rules.
#[derive(Debug, Clone)]
pub struct SloAggregator {
    rate: u32,
    tenants: BTreeMap<String, String>,
    request: Histogram,
    by_class: BTreeMap<String, Histogram>,
    by_tenant: BTreeMap<String, Histogram>,
    overhead: Histogram,
    compute: Histogram,
    queue: Histogram,
    service: Histogram,
    net: Histogram,
    open: BTreeMap<(u64, u64), OpenJob>,
}

fn dur_ns(s: &SpanRecord) -> u64 {
    s.end.since(s.start).as_nanos() as u64
}

impl SloAggregator {
    /// An empty aggregator for a stream head-sampled at `rate`
    /// (`<= 1` = every request present).
    pub fn new(rate: u32) -> Self {
        SloAggregator {
            rate: rate.max(1),
            tenants: BTreeMap::new(),
            request: Histogram::new(),
            by_class: BTreeMap::new(),
            by_tenant: BTreeMap::new(),
            overhead: Histogram::new(),
            compute: Histogram::new(),
            queue: Histogram::new(),
            service: Histogram::new(),
            net: Histogram::new(),
            open: BTreeMap::new(),
        }
    }

    /// The 1-in-`rate` sampling this aggregator scales counts by.
    pub fn rate(&self) -> u32 {
        self.rate
    }

    /// Assigns a worker class to a tenant; `job` spans of that class
    /// additionally feed `slo/tenant/<tenant>`.
    pub fn set_tenant(&mut self, class: &str, tenant: &str) {
        self.tenants.insert(class.to_string(), tenant.to_string());
    }

    /// Consumes one span. Order-tolerant within a request, but the
    /// closing `job` span must arrive after its `wq`/`ws` children —
    /// which both backends guarantee (the dispatch span is emitted when
    /// the response reaches the submitter).
    pub fn observe(&mut self, s: &SpanRecord) {
        match s.id.kind {
            "req" => self.request.record_exemplar(dur_ns(s), s.id),
            "ovh" => self.overhead.record_exemplar(dur_ns(s), s.id),
            "cpu" => self.compute.record_exemplar(dur_ns(s), s.id),
            "wq" | "ws" => {
                if let Some(p) = s.parent {
                    let open = self.open.entry((p.owner.0, p.n)).or_default();
                    if s.id.kind == "wq" {
                        open.queue_ns += dur_ns(s);
                    } else {
                        open.service_ns += dur_ns(s);
                    }
                }
                if s.id.kind == "wq" {
                    self.queue.record_exemplar(dur_ns(s), s.id);
                } else {
                    self.service.record_exemplar(dur_ns(s), s.id);
                }
            }
            "job" => {
                let total = dur_ns(s);
                if s.parent.is_none() {
                    // Plane-root dispatch: the request-level latency for
                    // drivers without a front end.
                    self.request.record_exemplar(total, s.id);
                }
                if !s.class.is_empty() {
                    self.by_class
                        .entry(s.class.to_string())
                        .or_default()
                        .record_exemplar(total, s.id);
                    if let Some(tenant) = self.tenants.get(s.class) {
                        self.by_tenant
                            .entry(tenant.clone())
                            .or_default()
                            .record_exemplar(total, s.id);
                    }
                }
                let open = self
                    .open
                    .remove(&(s.id.owner.0, s.id.n))
                    .unwrap_or_default();
                self.net
                    .record_exemplar(total.saturating_sub(open.queue_ns + open.service_ns), s.id);
            }
            _ => {}
        }
    }

    /// Consumes a whole trace snapshot in emission order.
    pub fn ingest(&mut self, log: &TraceLog) {
        for s in log.spans() {
            self.observe(s);
        }
    }

    /// Observed (sampled) request-level spans so far. The closure
    /// invariant: `sampled_requests() × rate` estimates the number of
    /// admitted requests, within sampling noise.
    pub fn sampled_requests(&self) -> u64 {
        self.request.count()
    }

    /// The depth-1 breakdown as `(component, total ns)` sums —
    /// the normalization input for the `trace_diff` gate.
    pub fn breakdown_sums(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("overhead", self.overhead.sum_ns()),
            ("compute", self.compute.sum_ns()),
            ("queue", self.queue.sum_ns()),
            ("service", self.service.sum_ns()),
            ("net", self.net.sum_ns()),
        ]
    }

    /// All summary rows with at least one observation, in a stable
    /// order: request, per-service, per-tenant, breakdown components.
    pub fn rows(&self) -> Vec<SloRow> {
        let mut rows = Vec::new();
        let mut push = |name: String, h: &Histogram| {
            if h.count() == 0 {
                return;
            }
            rows.push(SloRow {
                bench: name,
                iters: h.count() * u64::from(self.rate),
                mean_ns: h.mean(),
                p50_ns: h.quantile(0.50),
                p95_ns: h.quantile(0.95),
                p99_ns: h.quantile(0.99),
                min_ns: h.min_ns() as f64,
                max_ns: h.max_ns() as f64,
                samples: h.count(),
                p50_exemplar: h.exemplar(0.50).map(|id| id.render()),
                p95_exemplar: h.exemplar(0.95).map(|id| id.render()),
                p99_exemplar: h.exemplar(0.99).map(|id| id.render()),
            });
        };
        push("slo/request".into(), &self.request);
        for (class, h) in &self.by_class {
            push(format!("slo/service/{}", class.replace('/', "-")), h);
        }
        for (tenant, h) in &self.by_tenant {
            push(format!("slo/tenant/{tenant}"), h);
        }
        for (name, h) in [
            ("overhead", &self.overhead),
            ("compute", &self.compute),
            ("queue", &self.queue),
            ("service", &self.service),
            ("net", &self.net),
        ] {
            push(format!("slo/breakdown/{name}"), h);
        }
        rows
    }

    /// Renders [`SloAggregator::rows`] as a JSON array in the
    /// `BENCH_*.json` trajectory format under `group`.
    pub fn to_json_rows(&self, group: &str) -> String {
        let rows = self.rows();
        let mut out = String::from("[\n");
        for (i, r) in rows.iter().enumerate() {
            let mut exemplars = String::new();
            for (field, ex) in [
                ("p50_exemplar", &r.p50_exemplar),
                ("p95_exemplar", &r.p95_exemplar),
                ("p99_exemplar", &r.p99_exemplar),
            ] {
                if let Some(id) = ex {
                    exemplars.push_str(&format!(",\"{field}\":\"{id}\""));
                }
            }
            out.push_str(&format!(
                "  {{\"group\":\"{}\",\"bench\":\"{}\",\"iters\":{},\"mean_ns\":{:.1},\
                 \"p50_ns\":{:.1},\"p95_ns\":{:.1},\"p99_ns\":{:.1},\"min_ns\":{:.1},\
                 \"max_ns\":{:.1},\"samples\":{}{}}}{}\n",
                group,
                r.bench,
                r.iters,
                r.mean_ns,
                r.p50_ns,
                r.p95_ns,
                r.p99_ns,
                r.min_ns,
                r.max_ns,
                r.samples,
                exemplars,
                if i + 1 < rows.len() { "," } else { "" },
            ));
        }
        out.push(']');
        out
    }
}

/// Convenience: milliseconds → the nanosecond scale histograms use.
pub fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{span, SpanId};
    use sns_sim::ComponentId;

    #[test]
    fn histogram_buckets_partition_the_u64_range() {
        // Adjacent bucket bounds tile: low(i+1) follows low(i).
        for i in 0..BUCKETS - 1 {
            assert!(bucket_low(i) < bucket_low(i + 1), "bucket {i} ordered");
            assert_eq!(
                bucket_of(bucket_low(i)),
                i,
                "lower bound maps to its bucket"
            );
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_stay_within_the_resolution_band() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 1000); // 1 µs .. 10 ms, uniform
        }
        assert_eq!(h.count(), 10_000);
        for (q, exact) in [(0.5, 5_000_500.0), (0.95, 9_500_000.0), (0.99, 9_900_000.0)] {
            let got = h.quantile(q);
            let rel = (got - exact).abs() / exact;
            assert!(rel < 0.08, "q{q}: got {got}, exact {exact}, rel {rel}");
        }
        assert_eq!(h.min_ns(), 1000);
        assert_eq!(h.max_ns(), 10_000_000);
        assert!((h.mean() - 5_000_500.0).abs() < 1.0);
    }

    fn rec(
        kind: &'static str,
        owner: u64,
        n: u64,
        parent: Option<SpanId>,
        a: u64,
        b: u64,
    ) -> SpanRecord {
        span(
            SpanId {
                kind,
                owner: ComponentId(owner),
                n,
            },
            parent,
            "x",
            "test",
            ComponentId(owner),
            if kind == "job" { "echo" } else { "" },
            ms(a),
            ms(b),
            0,
            true,
        )
    }

    #[test]
    fn aggregator_joins_the_depth_1_breakdown_by_job_id() {
        let mut slo = SloAggregator::new(4);
        slo.set_tenant("echo", "transend");
        let job = SpanId {
            kind: "job",
            owner: ComponentId(50),
            n: 7,
        };
        // queue 2 ms, service 5 ms, total 10 ms → net 3 ms.
        slo.observe(&rec("wq", 9, 7, Some(job), 1, 3));
        slo.observe(&rec("ws", 9, 7, Some(job), 3, 8));
        slo.observe(&rec("job", 50, 7, None, 0, 10));
        assert_eq!(slo.sampled_requests(), 1, "root job = one request");
        let sums: BTreeMap<_, _> = slo.breakdown_sums().into_iter().collect();
        assert_eq!(sums["queue"], 2_000_000.0);
        assert_eq!(sums["service"], 5_000_000.0);
        assert_eq!(sums["net"], 3_000_000.0);
        assert!(slo.open.is_empty(), "join state drains with the job span");
        let rows = slo.rows();
        let find = |b: &str| rows.iter().find(|r| r.bench == b).expect("row");
        assert_eq!(find("slo/request").samples, 1);
        assert_eq!(find("slo/request").iters, 4, "scaled by the rate");
        assert_eq!(find("slo/service/echo").samples, 1);
        assert_eq!(find("slo/tenant/transend").samples, 1);
        assert_eq!(find("slo/breakdown/net").samples, 1);
    }

    #[test]
    fn rows_render_in_the_bench_trajectory_format() {
        let mut slo = SloAggregator::new(1);
        slo.observe(&rec("req", 3, 1, None, 0, 4));
        let json = slo.to_json_rows("sim");
        assert!(json.starts_with("[\n") && json.ends_with(']'));
        assert!(json.contains("\"group\":\"sim\""));
        assert!(json.contains("\"bench\":\"slo/request\""));
        assert!(json.contains("\"p95_ns\":"), "superset field present");
        assert!(json.contains("\"samples\":1"));
        assert!(
            json.contains("\"p99_exemplar\":\"req:c3:1\""),
            "the row links to the concrete trace: {json}"
        );
    }

    #[test]
    fn exemplars_link_percentile_buckets_to_trace_ids() {
        let mut h = Histogram::new();
        // 97 fast observations and three slow outliers: the p99
        // exemplar must name a slow span, the p50 one a fast span.
        for i in 0..97u64 {
            h.record_exemplar(
                1_000_000 + i,
                SpanId {
                    kind: "req",
                    owner: ComponentId(7),
                    n: i,
                },
            );
        }
        for i in 997..1000u64 {
            h.record_exemplar(
                900_000_000,
                SpanId {
                    kind: "req",
                    owner: ComponentId(7),
                    n: i,
                },
            );
        }
        assert!(h.exemplar(0.99).expect("tail exemplar").n >= 997);
        assert!(h.exemplar(0.50).expect("median exemplar").n < 97);
        // A histogram fed without exemplars yields none.
        let mut plain = Histogram::new();
        plain.record(5);
        assert!(plain.exemplar(0.5).is_none());
    }
}
