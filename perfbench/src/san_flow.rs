//! `san_flow_day`: a 24-hour, million-user load envelope priced through
//! the flow-level SAN. `sns-workload`'s replay generates one row per
//! simulated second, `San::offer_flow` prices it as four aggregate
//! flows; the event engine is not involved at all.
//!
//! `throughput_per_s` is envelope messages priced per host second. The
//! op is one envelope message and `lat_*` the delivery delay the flow
//! model gave it, on the simulated clock: the model's result, which
//! repeats exactly per seed. An untimed pass records it (and feeds the
//! output checks); the timed repetitions record nothing.

use std::time::{Duration, Instant};

use sns_san::{San, SanConfig, SanMode};
use sns_sim::network::{Network, TrafficClass};
use sns_sim::time::SimTime;
use sns_sim::NodeId;
use sns_workload::replay::EpochLoad;
use sns_workload::ReplayLoad;

use crate::load::{host_speed, Opts};
use crate::report::{set_latency, Digest, Report};
use crate::reps::{repeat, summarize, Rep};
use crate::spans::SpanSink;

/// Node pairs the envelope is spread over.
const PAIRS: u32 = 4;
const EPOCH: Duration = Duration::from_secs(1);
/// The day is priced in twelve 2-hour slices; the first is warm-up.
const SLICE: Duration = Duration::from_secs(2 * 3600);
const SLICES: u64 = 12;

fn san() -> San {
    // The SAN's utilisation-averaging epoch must match the envelope's:
    // each offer_flow call charges one epoch's load.
    let mut san = San::new(
        SanConfig::switched_100mbps()
            .with_mode(SanMode::Flow)
            .with_flow_epoch(EPOCH),
    );
    for n in 0..2 * PAIRS {
        san.register_node(NodeId(n));
    }
    san
}

#[derive(Default)]
struct Priced {
    offered: u64,
    delivered: u64,
    dropped: u64,
    delay_ns: u128,
    calls: u64,
    /// (delay ns, messages delivered with it) of every call, kept only
    /// by the untimed pass. (A delay is milliseconds and a call a few
    /// hundred messages; 32 bits each keep the pass's memory small
    /// beside the program's.)
    delays: Option<Vec<(u32, u32)>>,
}

/// Delivery delay in µs below which `q` of the delivered messages fell;
/// `sorted` holds (delay ns, messages) ascending.
fn delay_quantile_us(sorted: &[(u32, u32)], delivered: u64, q: f64) -> f64 {
    let rank = (delivered as f64 * q) as u64;
    let mut seen = 0u64;
    for &(delay_ns, msgs) in sorted {
        seen += u64::from(msgs);
        if seen > rank {
            return f64::from(delay_ns) / 1e3;
        }
    }
    sorted.last().map_or(0.0, |&(ns, _)| f64::from(ns) / 1e3)
}

/// Prices the next slice of the envelope.
fn price_slice(epochs: &mut impl Iterator<Item = EpochLoad>, san: &mut San, p: &mut Priced) {
    for e in epochs.take((SLICE.as_nanos() / EPOCH.as_nanos()) as usize) {
        if e.requests == 0 {
            continue;
        }
        let per = e.requests / u64::from(PAIRS);
        let rem = e.requests % u64::from(PAIRS);
        let now = SimTime::ZERO + e.start;
        for pair in 0..PAIRS {
            let msgs = per + u64::from(u64::from(pair) < rem);
            if msgs == 0 {
                continue;
            }
            let report = san.offer_flow(
                now,
                NodeId(pair),
                NodeId(PAIRS + pair),
                e.bytes * msgs / e.requests,
                msgs,
                TrafficClass::Reliable,
            );
            p.offered += msgs;
            p.delivered += report.delivered;
            p.dropped += report.dropped;
            p.delay_ns += report.delay.as_nanos() * u128::from(report.delivered);
            p.calls += 1;
            if let Some(delays) = &mut p.delays {
                let delay_ns = u32::try_from(report.delay.as_nanos());
                let msgs = u32::try_from(report.delivered);
                delays.push((
                    delay_ns.expect("a delivery delay is far below 4 s"),
                    msgs.expect("one call carries far fewer than 2^32 messages"),
                ));
            }
        }
    }
}

/// One pass over the day: a fresh envelope and SAN, the first slice
/// priced as warm-up (set-up), the remaining ones timed together.
fn one(o: &Opts, record: bool) -> (Rep, Priced) {
    let slices = o.size(SLICES).max(2);
    let before = host_speed();
    let t0 = Instant::now();
    let load = ReplayLoad::million_users(o.seed).with_epoch(EPOCH);
    let mut epochs = load.epochs(SLICE * slices as u32);
    let mut san = san();
    let mut p = Priced {
        delays: record.then(Vec::new),
        ..Default::default()
    };
    price_slice(&mut epochs, &mut san, &mut p);
    let setup_wall_s = t0.elapsed().as_secs_f64();

    let warm = p.offered;
    let t1 = Instant::now();
    for _ in 1..slices {
        price_slice(&mut epochs, &mut san, &mut p);
    }
    let run_wall_s = t1.elapsed().as_secs_f64();
    let speed = (before + host_speed()) / 2.0;

    let mut d = Digest::default();
    for v in [p.offered, p.delivered, p.dropped, p.calls] {
        d.u64(v);
    }
    d.bytes(&p.delay_ns.to_le_bytes());
    let s = san.stats();
    for v in [
        s.delivered,
        s.bytes_carried,
        s.flow_fast_path,
        s.flow_fallbacks,
    ] {
        d.u64(v);
    }
    let rep = Rep::new(speed, setup_wall_s, run_wall_s, p.offered - warm, d.value());
    (rep, p)
}

pub fn run(o: &Opts, sink: &mut SpanSink, r: &mut Report) {
    let t0 = sink.now_ns();
    let (recorded, mut p) = one(o, true);
    let share = if o.trace { 0.5 } else { 0.9 };
    let reps = repeat(o.share(share), || one(o, false).0);
    r.check(
        format!(
            "delivered {} == offered {}, dropped {} == 0",
            p.delivered, p.offered, p.dropped
        ),
        p.delivered == p.offered && p.dropped == 0 && p.offered > 0,
    );
    r.check(
        "the recording pass priced the day as the timed repetitions did",
        recorded.digest == reps[0].digest,
    );
    r.failed += p.dropped;
    let mut delays = p.delays.take().expect("the first pass records");
    delays.sort_unstable();
    let tail = [0.50, 0.95, 0.99].map(|q| delay_quantile_us(&delays, p.delivered, q));
    set_latency(r, tail, delays.len(), "simulated", o.quick);
    r.note(format!(
        "mean simulated delivery delay {:.3} us over {} offer_flow calls",
        p.delay_ns as f64 / p.delivered.max(1) as f64 / 1e3,
        p.calls
    ));
    summarize(&reps, "envelope messages", r);
    if o.trace {
        // No recorder sits on this path: the traced run differs from
        // the untraced one only by the benchmark's own spans.
        sink.bench_span("san_flow_day.repetitions", t0);
        r.set("trace.overhead_share", 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_quantiles_weigh_calls_by_their_messages() {
        // 90 messages at 1 µs, 9 at 2 µs, 1 at 3 µs.
        let sorted = [(1_000, 90), (2_000, 9), (3_000, 1)];
        assert_eq!(delay_quantile_us(&sorted, 100, 0.50), 1.0);
        assert_eq!(delay_quantile_us(&sorted, 100, 0.95), 2.0);
        assert_eq!(delay_quantile_us(&sorted, 100, 0.99), 3.0);
    }
}
