//! Measurement collection: counters, histograms and time series.
//!
//! Components and the engine itself record observations into a shared
//! [`StatsHub`]; experiment harnesses read them back after (or during) a
//! run to regenerate the paper's tables and figures. All collections are
//! keyed by interned names in hash maps; the readers that iterate them
//! sort by name, so report order stays deterministic. A hub interns a
//! name only on its own first write of it; every later write is one
//! lookup in the hub's map and never touches the process-wide interner.

use crate::hash::FastMap;
use crate::time::SimTime;

/// An interned metric name: a cheap, `Copy` handle for names built at
/// run time (`format!`) so that repeated recording does not allocate.
///
/// Every `StatsHub` write method accepts `impl AsRef<str>`, so a held
/// key, a `&str` and a `String` all name the same metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey(&'static str);

impl MetricKey {
    /// Interns `name` and returns its key.
    pub fn new(name: &str) -> Self {
        MetricKey(crate::intern(name))
    }

    /// The canonical name.
    pub fn as_str(&self) -> &'static str {
        self.0
    }
}

impl From<&str> for MetricKey {
    fn from(name: &str) -> Self {
        MetricKey::new(name)
    }
}

impl AsRef<str> for MetricKey {
    fn as_ref(&self) -> &str {
        self.0
    }
}

impl std::fmt::Display for MetricKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

/// A streaming summary of scalar observations (count / mean / min / max /
/// variance via Welford, plus an exact reservoir-free percentile store for
/// modest sample counts).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    /// Exact samples retained for percentile queries (capped).
    samples: Vec<f64>,
    /// Whether `samples` is currently sorted (lazy quantile support).
    sorted: bool,
    cap: usize,
    /// Every `stride`-th observation is retained once the cap is hit.
    stride: u64,
}

impl Summary {
    /// Creates a summary retaining up to `cap` exact samples for
    /// percentile queries.
    pub fn with_capacity(cap: usize) -> Self {
        Summary {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            cap,
            stride: 1,
            ..Default::default()
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
        if self.cap > 0 {
            if self.samples.len() == self.cap {
                // Thin the retained set: keep every other sample and double
                // the stride so long runs stay bounded but representative.
                let mut kept = Vec::with_capacity(self.cap / 2);
                for (i, &s) in self.samples.iter().enumerate() {
                    if i % 2 == 0 {
                        kept.push(s);
                    }
                }
                self.samples = kept;
                self.stride *= 2;
            }
            if self.count.is_multiple_of(self.stride) {
                self.samples.push(x);
                self.sorted = false;
            }
        }
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of all observations (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Smallest observation (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Approximate `q`-quantile (`q` in `[0,1]`) from retained samples.
    ///
    /// Sorts the retained samples in place the first time it is called
    /// (and again only after new observations arrive), so a batch of
    /// quantile reads after a run costs one sort instead of one
    /// clone-and-sort per call. The retained set's ordering carries no
    /// meaning — thinning keeps every other element, which is equally
    /// representative of the distribution either way.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
            self.sorted = true;
        }
        let idx = ((self.samples.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        self.samples[idx]
    }
}

/// A time-stamped series of scalar values (e.g. a queue length over time).
#[derive(Debug, Clone, Default)]
pub struct Series {
    points: Vec<(SimTime, f64)>,
}

impl Series {
    /// Appends a point; callers must append in non-decreasing time order.
    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(self.points.last().is_none_or(|&(lt, _)| lt <= t));
        self.points.push((t, v));
    }

    /// All recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Last recorded value, if any.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.points.last().copied()
    }

    /// Time-weighted average over the recorded span (treats the series as a
    /// step function held between points).
    pub fn time_weighted_mean(&self) -> f64 {
        if self.points.len() < 2 {
            return self.points.first().map_or(0.0, |&(_, v)| v);
        }
        let mut area = 0.0;
        for w in self.points.windows(2) {
            let dt = (w[1].0 - w[0].0).as_secs_f64();
            area += w[0].1 * dt;
        }
        let span = (self.points[self.points.len() - 1].0 - self.points[0].0).as_secs_f64();
        if span == 0.0 {
            self.points[0].1
        } else {
            area / span
        }
    }
}

/// Applies `write` to the value stored under `name`: one map lookup
/// when the map already holds the name; otherwise a value made by
/// `new`, stored under the interned name.
fn update<V>(
    map: &mut FastMap<&'static str, V>,
    name: &str,
    new: impl FnOnce() -> V,
    write: impl FnOnce(&mut V),
) {
    match map.get_mut(name) {
        Some(v) => write(v),
        None => {
            let mut v = new();
            write(&mut v);
            map.insert(crate::intern(name), v);
        }
    }
}

/// The shared sink all components record into.
///
/// Keys are interned `&'static str`s, but a write looks its name up in
/// the hub's own map first and calls [`crate::intern`] only for a name
/// this hub has never seen, so a steady-state write takes no lock and
/// never allocates. Reads take plain `&str` and never intern.
#[derive(Debug, Default)]
pub struct StatsHub {
    counters: FastMap<&'static str, u64>,
    summaries: FastMap<&'static str, Summary>,
    series: FastMap<&'static str, Series>,
}

impl StatsHub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the named counter.
    pub fn incr(&mut self, name: impl AsRef<str>, n: u64) {
        update(&mut self.counters, name.as_ref(), || 0, |c| *c += n);
    }

    /// Reads a counter (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records a scalar observation into the named summary.
    pub fn observe(&mut self, name: impl AsRef<str>, x: f64) {
        update(
            &mut self.summaries,
            name.as_ref(),
            || Summary::with_capacity(16_384),
            |s| s.record(x),
        );
    }

    /// Reads a summary if present.
    pub fn summary(&self, name: &str) -> Option<&Summary> {
        self.summaries.get(name)
    }

    /// Mutable summary access (quantile reads sort lazily in place).
    pub fn summary_mut(&mut self, name: &str) -> Option<&mut Summary> {
        self.summaries.get_mut(name)
    }

    /// Appends to the named time series.
    pub fn sample(&mut self, name: impl AsRef<str>, t: SimTime, v: f64) {
        update(&mut self.series, name.as_ref(), Series::default, |s| {
            s.push(t, v)
        });
    }

    /// Reads a series if present.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.get(name)
    }

    /// Iterates all series in name order, e.g. for plotting.
    pub fn all_series(&self) -> impl Iterator<Item = (&str, &Series)> {
        by_name(self.series.iter().map(|(&k, v)| (k, v)))
    }

    /// Iterates all counters in name order.
    pub fn all_counters(&self) -> impl Iterator<Item = (&str, u64)> {
        by_name(self.counters.iter().map(|(&k, &v)| (k, v)))
    }
}

/// A map's entries sorted by name (each name appears once).
fn by_name<'a, V>(entries: impl Iterator<Item = (&'a str, V)>) -> std::vec::IntoIter<(&'a str, V)> {
    let mut all: Vec<_> = entries.collect();
    all.sort_unstable_by_key(|&(name, _)| name);
    all.into_iter()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_moments() {
        let mut s = Summary::with_capacity(1000);
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_quantiles() {
        let mut s = Summary::with_capacity(10_000);
        for i in 0..1000 {
            s.record(i as f64);
        }
        assert!((s.quantile(0.5) - 499.0).abs() < 10.0);
        assert!((s.quantile(0.95) - 949.0).abs() < 15.0);
    }

    #[test]
    fn summary_thinning_keeps_stats_exact() {
        let mut s = Summary::with_capacity(64);
        for i in 0..10_000 {
            s.record(i as f64);
        }
        // Mean/min/max/count are exact regardless of sample thinning.
        assert_eq!(s.count(), 10_000);
        assert!((s.mean() - 4999.5).abs() < 1e-6);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 9999.0);
        // Quantiles remain sane.
        let med = s.quantile(0.5);
        assert!((med - 5000.0).abs() < 1500.0, "median {med}");
    }

    #[test]
    fn series_time_weighted_mean() {
        let mut s = Series::default();
        s.push(SimTime::from_secs(0), 0.0);
        s.push(SimTime::from_secs(10), 10.0); // value 0 held for 10 s
        s.push(SimTime::from_secs(20), 0.0); // value 10 held for 10 s
        assert!((s.time_weighted_mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn hub_roundtrip() {
        let mut hub = StatsHub::new();
        hub.incr("requests", 3);
        hub.incr("requests", 2);
        assert_eq!(hub.counter("requests"), 5);
        hub.observe("latency", 1.0);
        hub.observe("latency", 3.0);
        assert_eq!(hub.summary("latency").unwrap().count(), 2);
        hub.sample("qlen", SimTime::from_secs(1), 4.0);
        assert_eq!(hub.series("qlen").unwrap().points().len(), 1);
        assert_eq!(hub.counter("missing"), 0);
    }

    #[test]
    fn str_string_and_held_key_writes_share_one_metric() {
        let mut hub = StatsHub::new();
        let key = MetricKey::new("hub.test.shared");
        hub.incr("hub.test.shared", 1);
        hub.incr(String::from("hub.test.shared"), 2);
        hub.incr(key, 4);
        assert_eq!(hub.counter("hub.test.shared"), 7);
        hub.observe(key, 1.0);
        hub.observe("hub.test.shared", 2.0);
        hub.observe(format!("hub.test.{}", "shared"), 3.0);
        assert_eq!(hub.summary("hub.test.shared").unwrap().count(), 3);
        assert_eq!(hub.all_counters().count(), 1);

        // A name first written by `incr` lands in name order.
        hub.incr(String::from("hub.test.a_first"), 1);
        hub.incr("hub.test.zz_last", 1);
        let names: Vec<&str> = hub.all_counters().map(|(k, _)| k).collect();
        assert_eq!(
            names,
            ["hub.test.a_first", "hub.test.shared", "hub.test.zz_last"]
        );
    }
}
