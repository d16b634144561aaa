//! The wall-clock micro-benchmark harness that replaces criterion.
//!
//! Auto-calibrated batching (so `Instant` overhead does not dominate
//! nanosecond-scale routines), a warmup phase, and per-batch samples
//! recorded into the repo's own [`Summary`] for mean/p50/p99. Results
//! print as a table and serialise as JSON rows (`BENCH_*.json` trajectory
//! format: one object per benchmark with `group`, `bench`, `iters`,
//! `mean_ns`, `p50_ns`, `p99_ns`, `min_ns`, `max_ns`, `samples`).

use std::time::{Duration, Instant};

pub use std::hint::black_box;

use sns_sim::stats::Summary;

/// Harness timing knobs.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Warmup wall-clock budget per benchmark.
    pub warmup: Duration,
    /// Measurement wall-clock budget per benchmark.
    pub measure: Duration,
    /// Target wall-clock per timed batch (controls batch size).
    pub batch_target: Duration,
    /// Minimum timed batches per benchmark, regardless of the
    /// wall-clock budget. A routine slower than `measure` would
    /// otherwise report a single sample — a point estimate masquerading
    /// as a distribution — making any p50/p99 regression band
    /// meaningless. Macro benches set this ≥ 5.
    pub min_samples: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            warmup: Duration::from_millis(150),
            measure: Duration::from_millis(500),
            batch_target: Duration::from_micros(50),
            min_samples: 1,
        }
    }
}

/// One benchmark's results, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Group (suite) name.
    pub group: String,
    /// Benchmark name.
    pub bench: String,
    /// Total timed iterations.
    pub iters: u64,
    /// Mean ns/iter.
    pub mean_ns: f64,
    /// Median ns/iter (over per-batch means).
    pub p50_ns: f64,
    /// 99th percentile ns/iter (over per-batch means).
    pub p99_ns: f64,
    /// Fastest per-batch mean.
    pub min_ns: f64,
    /// Slowest per-batch mean.
    pub max_ns: f64,
    /// Number of timed batches (the percentile population).
    pub samples: u64,
}

/// A named collection of benchmarks sharing one configuration.
pub struct BenchSuite {
    group: String,
    cfg: BenchConfig,
    rows: Vec<BenchRow>,
}

impl BenchSuite {
    /// Creates a suite with default timing.
    pub fn new(group: impl Into<String>) -> Self {
        Self::with_config(group, BenchConfig::default())
    }

    /// Creates a suite with explicit timing knobs.
    pub fn with_config(group: impl Into<String>, cfg: BenchConfig) -> Self {
        let group = group.into();
        println!("== bench group '{group}'");
        BenchSuite {
            group,
            cfg,
            rows: Vec::new(),
        }
    }

    /// Benchmarks `f` called in a tight loop. Return values are passed
    /// through [`black_box`] so the work is not optimised away.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        // Calibrate the batch size against the routine's own speed.
        let probe_start = Instant::now();
        black_box(f());
        let probe = probe_start.elapsed().max(Duration::from_nanos(1));
        let batch = (self.cfg.batch_target.as_nanos() / probe.as_nanos()).clamp(1, 1 << 20) as u64;

        let warmup_until = Instant::now() + self.cfg.warmup;
        while Instant::now() < warmup_until {
            for _ in 0..batch {
                black_box(f());
            }
        }

        let mut summary = Summary::with_capacity(16_384);
        let mut iters = 0u64;
        let measure_until = Instant::now() + self.cfg.measure;
        while Instant::now() < measure_until || summary.count() < self.cfg.min_samples {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let ns = t.elapsed().as_nanos() as f64 / batch as f64;
            summary.record(ns);
            iters += batch;
        }
        self.push_row(name, iters, summary);
    }

    /// Benchmarks `routine` on a fresh, untimed `setup()` input per
    /// sample — the criterion `iter_batched` pattern for routines that
    /// consume their input or mutate shared state.
    pub fn bench_batched<S, R>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
    ) {
        let warmup_until = Instant::now() + self.cfg.warmup;
        loop {
            let input = setup();
            black_box(routine(input));
            if Instant::now() >= warmup_until {
                break;
            }
        }
        let mut summary = Summary::with_capacity(16_384);
        let mut iters = 0u64;
        let measure_until = Instant::now() + self.cfg.measure;
        loop {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            summary.record(t.elapsed().as_nanos() as f64);
            iters += 1;
            if Instant::now() >= measure_until && summary.count() >= self.cfg.min_samples {
                break;
            }
        }
        self.push_row(name, iters, summary);
    }

    /// Adds a row from per-iteration times the caller measured itself —
    /// for benches that interleave several configurations round by
    /// round instead of timing each in one block.
    pub fn record(&mut self, name: &str, samples_ns: &[f64]) {
        let mut summary = Summary::with_capacity(samples_ns.len());
        for &ns in samples_ns {
            summary.record(ns);
        }
        self.push_row(name, samples_ns.len() as u64, summary);
    }

    fn push_row(&mut self, name: &str, iters: u64, mut summary: Summary) {
        let row = BenchRow {
            group: self.group.clone(),
            bench: name.to_string(),
            iters,
            mean_ns: summary.mean(),
            p50_ns: summary.quantile(0.5),
            p99_ns: summary.quantile(0.99),
            min_ns: summary.min(),
            max_ns: summary.max(),
            samples: summary.count(),
        };
        println!(
            "  {:<32} {:>12.1} ns/iter  (p50 {:>10.1}  p99 {:>10.1}  n={})",
            row.bench, row.mean_ns, row.p50_ns, row.p99_ns, row.iters
        );
        self.rows.push(row);
    }

    /// All results so far.
    pub fn rows(&self) -> &[BenchRow] {
        &self.rows
    }

    /// Serialises results as a JSON array of row objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"group\":{},\"bench\":{},\"iters\":{},\"mean_ns\":{:.1},\
                 \"p50_ns\":{:.1},\"p99_ns\":{:.1},\"min_ns\":{:.1},\"max_ns\":{:.1},\
                 \"samples\":{}}}{}\n",
                json_str(&r.group),
                json_str(&r.bench),
                r.iters,
                r.mean_ns,
                r.p50_ns,
                r.p99_ns,
                r.min_ns,
                r.max_ns,
                r.samples,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        out.push(']');
        out
    }

    /// Writes [`BenchSuite::to_json`] to `path` (conventionally
    /// `BENCH_<group>.json`).
    pub fn write_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> BenchConfig {
        BenchConfig {
            warmup: Duration::from_millis(5),
            measure: Duration::from_millis(20),
            batch_target: Duration::from_micros(20),
            min_samples: 1,
        }
    }

    #[test]
    fn bench_produces_sane_rows_and_json() {
        let mut suite = BenchSuite::with_config("selftest", fast_cfg());
        suite.bench("sum_1k", || (0..1000u64).sum::<u64>());
        suite.bench_batched(
            "vec_drain",
            || (0..256u64).collect::<Vec<_>>(),
            |mut v| v.drain(..).sum::<u64>(),
        );
        assert_eq!(suite.rows().len(), 2);
        for r in suite.rows() {
            assert!(r.iters > 0);
            assert!(r.mean_ns > 0.0);
            assert!(r.min_ns <= r.p50_ns && r.p50_ns <= r.max_ns);
            assert!(r.p50_ns <= r.p99_ns);
        }
        let json = suite.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"bench\":\"sum_1k\""));
        assert!(json.contains("\"group\":\"selftest\""));
        assert_eq!(json.matches("mean_ns").count(), 2);
    }

    #[test]
    fn min_samples_floors_the_batch_count_for_slow_routines() {
        // A routine slower than the whole measurement budget: without
        // the floor both loops would stop after one timed batch.
        let mut suite = BenchSuite::with_config(
            "selftest",
            BenchConfig {
                warmup: Duration::from_millis(1),
                measure: Duration::from_millis(1),
                batch_target: Duration::from_micros(1),
                min_samples: 5,
            },
        );
        suite.bench("slow", || std::thread::sleep(Duration::from_millis(2)));
        suite.bench_batched(
            "slow_batched",
            || (),
            |()| std::thread::sleep(Duration::from_millis(2)),
        );
        for r in suite.rows() {
            assert!(r.samples >= 5, "{} got {} samples", r.bench, r.samples);
        }
    }

    #[test]
    fn record_builds_a_row_from_caller_timed_samples() {
        let mut suite = BenchSuite::with_config("selftest", fast_cfg());
        suite.record("timed_elsewhere", &[30.0, 10.0, 20.0]);
        let r = &suite.rows()[0];
        assert_eq!((r.iters, r.samples), (3, 3));
        assert_eq!((r.min_ns, r.max_ns, r.mean_ns), (10.0, 30.0, 20.0));
    }

    #[test]
    fn json_escaping_is_sound() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("tab\there"), "\"tab\\u0009here\"");
    }
}
