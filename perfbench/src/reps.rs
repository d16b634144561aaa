//! What the four virtual-time workloads share: a repetition's numbers,
//! the repeat-until-the-time-is-used loops, the digest and the fold
//! into end-to-end metrics.

use std::time::Duration;

use sns_sim::stats::StatsHub;
use sns_sim::time::SimTime;

use crate::load::Budget;
use crate::report::{median, peak_rss_mb, Digest, Report};

/// Hash of everything a finished run exposes: final clock, events
/// dispatched and every counter. Equal across repetitions of a seed,
/// and a simulator-speed change must leave it as it was.
pub fn sim_digest(now: SimTime, events: u64, stats: &StatsHub) -> Digest {
    let mut d = Digest::default();
    d.u64(now.as_nanos());
    d.u64(events);
    for (name, v) in stats.all_counters() {
        d.bytes(name.as_bytes());
        d.u64(v);
    }
    d
}

/// One repetition's numbers. Host times are in reference seconds (see
/// `load::host_speed`), converted once, here.
pub struct Rep {
    pub setup_s: f64,
    /// Host time of the measured part.
    pub run_s: f64,
    /// The same in plain wall seconds, for the note.
    pub wall_s: f64,
    /// Operations done in the measured part.
    pub ops: u64,
    pub digest: u64,
}

impl Rep {
    /// `speed` is the host's speed around the repetition; the two times
    /// are wall seconds.
    pub fn new(speed: f64, setup_wall_s: f64, run_wall_s: f64, ops: u64, digest: u64) -> Self {
        Rep {
            setup_s: setup_wall_s * speed,
            run_s: run_wall_s * speed,
            wall_s: run_wall_s,
            ops,
            digest,
        }
    }

    fn throughput(&self) -> f64 {
        self.ops as f64 / self.run_s
    }
}

fn median_throughput(reps: &[Rep]) -> f64 {
    let mut v: Vec<f64> = reps.iter().map(Rep::throughput).collect();
    median(&mut v)
}

/// Repeats `rep` until the time is used (at least three times).
pub fn repeat(budget: Duration, mut rep: impl FnMut() -> Rep) -> Vec<Rep> {
    let budget = Budget::new(budget);
    let mut reps = Vec::new();
    while reps.len() < 3 || budget.left() {
        reps.push(rep());
    }
    reps
}

/// The traced run's repetitions: untraced and traced alternate, so a
/// drift in host speed lands on both sides alike.
pub fn repeat_pairs(budget: Duration, mut rep: impl FnMut(bool) -> Rep) -> (Vec<Rep>, Vec<Rep>) {
    let budget = Budget::new(budget);
    let (mut base, mut traced) = (Vec::new(), Vec::new());
    while base.len() < 3 || budget.left() {
        base.push(rep(false));
        traced.push(rep(true));
    }
    (base, traced)
}

/// `1 - traced / untraced` of the median throughputs.
pub fn overhead_share(base: &[Rep], traced: &[Rep]) -> f64 {
    1.0 - median_throughput(traced) / median_throughput(base)
}

/// Folds repetitions into `throughput_per_s`, `setup_s`, `peak_rss_mb`
/// and the shared checks (the workload sets its own `lat_*`). Returns
/// the throughput.
pub fn summarize(reps: &[Rep], what: &str, r: &mut Report) -> f64 {
    let mut wall: Vec<f64> = reps.iter().map(|p| p.ops as f64 / p.wall_s).collect();
    let mut setups: Vec<f64> = reps.iter().map(|p| p.setup_s).collect();
    let digest = reps[0].digest;
    r.check(
        format!(
            "sim_digest {digest:016x} equal across {} repetitions",
            reps.len()
        ),
        reps.iter().all(|p| p.digest == digest),
    );
    r.check(
        format!("every repetition did the same {} {what}", reps[0].ops),
        reps.iter().all(|p| p.ops == reps[0].ops) && reps[0].ops > 0,
    );
    r.note(format!("sim_digest {digest:016x}"));
    let throughput = median_throughput(reps);
    let wall = median(&mut wall);
    r.note(format!(
        "throughput_per_s and setup_s are per reference second; per wall second the throughput was {wall:.0} /s (host at {:.3} of reference speed)",
        wall / throughput
    ));
    r.attempted += reps.iter().map(|p| p.ops).sum::<u64>();
    r.set("throughput_per_s", throughput);
    r.set("setup_s", median(&mut setups));
    r.set("peak_rss_mb", peak_rss_mb());
    throughput
}
