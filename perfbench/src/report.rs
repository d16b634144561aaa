//! Metric tables, the result line and the small numeric helpers every
//! workload shares (percentiles, medians, JSON text).
//!
//! The two tables below are the single source of the names, units,
//! directions and bounds: `--list` prints them, `--benchmark-json`
//! renders the root `BENCHMARK.json` from them, and a unit test keeps
//! the checked-in file byte-equal to that rendering.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use Better::{Higher, Lower};

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of either table. `bound` is the share of the parent's
/// median by which an end-to-end metric may worsen; per-layer metrics
/// carry none.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees, measured with tracing off. Every
/// workload reports all five; README.md says what an "op" is on each and
/// on which clock its latency is read.
///
/// A metric has one bound for all six workloads, so its noisiest
/// workload sets it. Each is 1.5 × the largest disagreement two sets of
/// ten runs of one binary showed for that metric on any workload, under
/// the driver's protocol on the authoring host, rounded up to the next
/// 0.05 and capped at the schema's 0.25 (README.md has the table). For
/// the first three that workload is `rt_submit`, whose every number is
/// cross-core wake-ups and moves with the hypervisor's mood: one of two
/// sets spread 0.154 on throughput and sat 0.139 and 0.214 above the
/// other on the two latencies.
pub const END_TO_END: &[Spec] = &[
    e2e("throughput_per_s", "1/s", Higher, 0.25),
    e2e("lat_p50_us", "us", Lower, 0.25),
    e2e("lat_p95_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single-layer numbers from the traced run. A layer a workload does
/// not touch reports 0 there; unit costs (`*_ns` probes of one public
/// call) are measured on every traced run.
pub const PER_LAYER: &[Spec] = &[
    // rt: the threaded request path.
    layer("rt.submit_call_ns", "ns", Lower),
    layer("rt.queue_ns", "ns", Lower),
    layer("rt.service_ns", "ns", Lower),
    layer("rt.net_ns", "ns", Lower),
    layer("rt.unexplained_share", "ratio", Lower),
    layer("rt.first_hint_wait_ms", "ms", Lower),
    layer("rt.shutdown_ms", "ms", Lower),
    layer("rt.jobs_submitted", "count", Higher),
    layer("rt.jobs_done", "count", Higher),
    layer("rt.redispatched", "count", Lower),
    layer("rt.lock_poisoned", "count", Lower),
    layer("rt.stub.dispatches", "count", Lower),
    layer("rt.stub.retries", "count", Lower),
    layer("rt.stub.timeouts", "count", Lower),
    layer("rt.stub.gave_up", "count", Lower),
    layer("rt.chan.send_recv_ns", "ns", Lower),
    layer("rt.chan.wake_ns", "ns", Lower),
    layer("rt.reply.wake_ns", "ns", Lower),
    layer("rt.exec.serve_ns", "ns", Lower),
    layer("rt.exec.floor_ns", "ns", Lower),
    layer("rt.exec.fe_wait_ns", "ns", Lower),
    layer("rt.exec.dispatches_per_req", "count", Lower),
    layer("rt.exec.unexplained_share", "ratio", Lower),
    // core: the sans-IO planes both backends share.
    layer("core.control.dispatch_ns", "ns", Lower),
    layer("core.control.tick_ns", "ns", Lower),
    layer("core.exec.spawn_poll_ns", "ns", Lower),
    // sim: scheduler, engine, stats hub.
    layer("sim.sched.op_ns.small", "ns", Lower),
    layer("sim.sched.op_ns.large", "ns", Lower),
    layer("sim.engine.host_ns_per_event", "ns", Lower),
    layer("sim.engine.events_per_request", "count", Lower),
    layer("sim.stats.incr_ns", "ns", Lower),
    layer("sim.stats.observe_ns", "ns", Lower),
    // san: datagram and flow pricing.
    layer("san.unicast_ns", "ns", Lower),
    layer("san.multicast_ns", "ns", Lower),
    layer("san.offer_flow_ns", "ns", Lower),
    layer("san.net.unicast_dropped", "count", Lower),
    layer("san.net.multicast_dropped", "count", Lower),
    // cache.
    layer("cache.lru_get_ns", "ns", Lower),
    layer("cache.lru_put_ns", "ns", Lower),
    layer("cache.ring_lookup_ns", "ns", Lower),
    layer("cache.hit_ratio", "ratio", Higher),
    // tacc / distillers / profiledb / workload.
    layer("tacc.worker_process_ns", "ns", Lower),
    layer("distillers.html_munge_ns_per_kb", "ns", Lower),
    layer("profiledb.commit_ns", "ns", Lower),
    layer("profiledb.get_ns", "ns", Lower),
    layer("workload.trace_gen_ns_per_req", "ns", Lower),
    layer("workload.replay_epoch_ns", "ns", Lower),
    // transend: simulated-time composition of a request, and how much
    // of the host time the unit costs above explain.
    layer("transend.simshare.overhead", "ratio", Lower),
    layer("transend.simshare.compute", "ratio", Lower),
    layer("transend.simshare.queue", "ratio", Lower),
    layer("transend.simshare.service", "ratio", Lower),
    layer("transend.simshare.net", "ratio", Lower),
    layer("transend.explained_share", "ratio", Higher),
    // the benchmark's own generator and the recorder's cost.
    layer("loadgen.late_p95_us", "us", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

/// The workloads, with the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "rt_submit",
        "zero-service jobs on a warm 2-worker RtCluster: the submit-dispatch-chan-worker-reply path does all the work",
    ),
    (
        "rt_pipeline",
        "3-source TACC pipeline requests through exec::serve with fixed slept service: executor, park tick and reply signalling show here, not on rt_submit",
    ),
    (
        "sim_transend",
        "the whole TranSend service in virtual time: handlers (FE logic, cache, distillers, manager, SAN pricing) dominate host time",
    ),
    (
        "sim_route",
        "64-component message ring with empty handlers: engine dispatch dominates and the queue stays tiny",
    ),
    (
        "sim_timers",
        "a million standing re-arming timers: the scheduler dominates, engine and handlers do nothing",
    ),
    (
        "san_flow_day",
        "24 h million-user envelope priced through San::offer_flow: flow pricing and replay do all the work, the engine none",
    ),
];

/// Seconds one driver run measures (`run_seconds` in BENCHMARK.json).
pub const RUN_SECONDS: u32 = 15;

/// The exact text of the root `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"why\": {}}}{}",
            json_str(name),
            json_str(why),
            comma(i, WORKLOADS.len())
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str()),
            m.bound.expect("end-to-end metrics carry a bound"),
            comma(i, END_TO_END.len())
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str()),
            comma(i, PER_LAYER.len())
        );
    }
    s.push_str("  ]\n}\n");
    s
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

/// The `--list` text: one line per workload and per metric.
pub fn list_text() -> String {
    let mut s = String::new();
    for (name, why) in WORKLOADS {
        let _ = writeln!(s, "workload {name}: {why}");
    }
    for m in END_TO_END {
        let _ = writeln!(
            s,
            "end_to_end {} unit={} better={} bound={}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound")
        );
    }
    for m in PER_LAYER {
        let _ = writeln!(
            s,
            "per_layer {} unit={} better={}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    s
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What one workload run produced: named values, named output checks
/// and the operation ledger. A value that is not finite, a missing
/// metric or a false check all make the run incorrect.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    checks: Vec<(String, bool)>,
    /// Operations attempted (jobs, requests, events, envelope messages).
    pub attempted: u64,
    /// Operations that failed, were refused or came back degraded.
    pub failed: u64,
    /// Free-form diagnostic lines (p99s, digests, sample counts).
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn failed_checks(&self) -> Vec<&str> {
        self.checks
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|(w, _)| w.as_str())
            .collect()
    }

    /// Whether every check passed, nothing failed and every metric of
    /// `table` is present and finite.
    pub fn correct(&self, table: &[Spec]) -> bool {
        self.failed == 0
            && self.attempted >= 1
            && self.checks.iter().all(|(_, ok)| *ok)
            && table
                .iter()
                .all(|m| self.values.get(m.name).is_some_and(|v| v.is_finite()))
    }

    /// The human-readable block: every metric of `table` by name with
    /// its unit, then checks and notes.
    pub fn text(&self, table: &[Spec]) -> String {
        let mut s = String::new();
        for m in table {
            match self.values.get(m.name) {
                Some(v) => {
                    let _ = writeln!(s, "  {:<34} {:>16.4} {}", m.name, v, m.unit);
                }
                None => {
                    let _ = writeln!(s, "  {:<34} {:>16} {}", m.name, "MISSING", m.unit);
                }
            }
        }
        let _ = writeln!(
            s,
            "  attempted {}  failed {}  failed_share {:.6}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for (what, ok) in &self.checks {
            let _ = writeln!(s, "  check {}: {}", if *ok { "ok  " } else { "FAIL" }, what);
        }
        for n in &self.notes {
            let _ = writeln!(s, "  note {n}");
        }
        s
    }

    /// The one-object result line the driver reads.
    pub fn result_line(&self, table: &[Spec]) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(table),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for m in table {
            let Some(v) = self.values.get(m.name).filter(|v| v.is_finite()) else {
                continue;
            };
            if !first {
                s.push_str(", ");
            }
            first = false;
            let _ = write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                v,
                json_str(m.unit)
            );
        }
        s.push_str("}}");
        s
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0,1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

/// Whether `n` samples support reporting the `q`-quantile: at least ten
/// samples must lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    n as f64 * (1.0 - q) >= 10.0
}

/// Sorts in place and returns the median.
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    percentile(values, 0.5)
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Records the op latency of a run: p50 and p95 (µs on `clock`) as the
/// end-to-end metrics, p99 as a note, and the check that `n` samples
/// support a p95 (a `quick` smoke run is too short to, and reports no
/// numbers anyway).
pub fn set_latency(
    report: &mut Report,
    [p50, p95, p99]: [f64; 3],
    n: usize,
    clock: &str,
    quick: bool,
) {
    report.check(
        format!("{n} latency samples support a p95 (ten beyond)"),
        quick || supports(n, 0.95),
    );
    report.set("lat_p50_us", p50);
    report.set("lat_p95_us", p95);
    report.note(format!(
        "lat_* read on the {clock} clock; lat_p99_us {p99:.2} ({}; diagnostic only)",
        if supports(n, 0.99) {
            "supported"
        } else {
            "fewer than ten samples beyond"
        }
    ));
}

/// Sorts in place and returns p50, p95 and p99.
pub fn tail(samples: &mut [f64]) -> [f64; 3] {
    sort(samples);
    [0.50, 0.95, 0.99].map(|q| percentile(samples, q))
}

/// Peak resident set of this process in MB (`VmHWM`), 0 when the
/// platform has no `/proc`.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a byte stream: the `sim_digest` hash.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert!(!supports(199, 0.95));
        assert!(supports(200, 0.95));
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("l1\nl2\t\u{1}"), "\"l1\\nl2\\t\\u0001\"");
        assert_eq!(json_str("µs → é"), "\"µs → é\"");
    }

    #[test]
    fn list_matches_the_checked_in_benchmark_json() {
        let checked_in = include_str!("../../BENCHMARK.json");
        assert_eq!(
            checked_in,
            benchmark_json(),
            "BENCHMARK.json drifted from the metric tables: regenerate it with --benchmark-json"
        );
        // `--list` is rendered from the same tables: every name, unit
        // and bound of the file appears in it.
        let list = list_text();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(list.contains(&format!(" {} unit={} ", m.name, m.unit)));
            assert!(checked_in.contains(&format!("\"name\": \"{}\"", m.name)));
        }
        for (name, _) in WORKLOADS {
            assert!(list.contains(&format!("workload {name}:")));
        }
    }

    #[test]
    fn contract_limits_hold() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(benchmark_json().len() <= 64 * 1024);
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for n in &names {
            assert!(n.len() <= 64 && n.as_bytes()[0].is_ascii_alphanumeric());
            assert!(n
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        for m in END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25));
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn a_failing_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        for m in END_TO_END {
            r.set(m.name, 1.0);
        }
        r.attempted = 10;
        assert!(r.correct(END_TO_END));
        r.check("delivered == offered", false);
        assert!(!r.correct(END_TO_END));
        assert!(r.result_line(END_TO_END).starts_with("{\"correct\": false"));
        assert_eq!(r.failed_checks(), vec!["delivered == offered"]);

        let missing = Report {
            attempted: 1,
            ..Default::default()
        };
        assert!(
            !missing.correct(END_TO_END),
            "a missing metric is incorrect"
        );
        let mut failed = Report::default();
        for m in END_TO_END {
            failed.set(m.name, 1.0);
        }
        failed.attempted = 10;
        failed.failed = 1;
        assert!(
            !failed.correct(END_TO_END),
            "a failed operation is incorrect"
        );
    }
}
