//! Scaling of the simulator by abstraction level: the million-user
//! diurnal replay ([`sns_workload::ReplayLoad`], peak rotated to the
//! window) through the SAN at both fidelity levels. `replay/datagram_window`
//! walks every request through the exact per-message model,
//! `replay/flow_window` offers the same epochs as aggregate flows
//! (`San::offer_flow`), and `replay/flow_24h` is the headline full-day
//! flow-level replay. Rows are appended to `BENCH_sim.json`.
//!
//! Fidelity before speed: the bin asserts the two windows agree on
//! delivered counts and mean delay (coarse band — the fine bands live in
//! the `flow_shapes` suite), then that flow mode is ≥10× faster on the
//! matched window. The speedup is algorithmic, so it holds on any host.
//!
//! ```sh
//! cargo run -p sns-bench --release --bin sim_scale [-- OUTPUT.json]
//! ```

use std::time::Duration;

use sns_san::{San, SanConfig, SanMode};
use sns_sim::network::{Delivery, Endpoint, Network, TrafficClass};
use sns_sim::time::SimTime;
use sns_sim::{ComponentId, NodeId, Pcg32};
use sns_testkit::{BenchConfig, BenchSuite};
use sns_workload::ReplayLoad;

/// Nodes on each side of the replayed SAN traffic matrix.
const REPLAY_PAIRS: u32 = 4;
/// Replay window compared across fidelity levels.
const WINDOW_SECS: u64 = 60;
/// The full-day headline replay.
const DAY_SECS: u64 = 24 * 3600;

/// The replay envelope: one million users, peak rotated onto the window
/// so the matched comparison runs at the diurnal maximum (~1300 req/s).
fn replay_load() -> ReplayLoad {
    let mut load = ReplayLoad::million_users(0xF10).with_epoch(Duration::from_secs(1));
    load.arrivals.diurnal.peak_hour = 0.0;
    load
}

fn replay_san(mode: SanMode) -> San {
    // The SAN's utilisation-averaging epoch must match the envelope's
    // aggregation epoch: each offer_flow call charges one epoch's load.
    let mut san = San::new(
        SanConfig::switched_100mbps()
            .with_mode(mode)
            .with_flow_epoch(Duration::from_secs(1)),
    );
    for n in 0..2 * REPLAY_PAIRS {
        san.register_node(NodeId(n));
    }
    san
}

/// Replays `secs` of the envelope per-request through the exact model.
/// Returns (delivered, mean delay seconds, requests replayed).
fn datagram_replay(secs: u64) -> (u64, f64, u64) {
    let load = replay_load();
    let mut san = replay_san(SanMode::Datagram);
    let mut rng = Pcg32::new(7);
    let (mut delivered, mut delay_sum, mut total) = (0u64, 0f64, 0u64);
    for e in load.epochs(Duration::from_secs(secs)) {
        if e.requests == 0 {
            continue;
        }
        let size = e.bytes / e.requests;
        let step = Duration::from_secs(1).div_f64(e.requests as f64);
        for k in 0..e.requests {
            let at = SimTime::ZERO + e.start + step.mul_f64(k as f64);
            let pair = (k % u64::from(REPLAY_PAIRS)) as u32;
            let from = Endpoint {
                node: NodeId(pair),
                comp: ComponentId(1),
            };
            let to = Endpoint {
                node: NodeId(REPLAY_PAIRS + pair),
                comp: ComponentId(2),
            };
            match san.unicast(at, &mut rng, from, to, size, TrafficClass::Reliable) {
                Delivery::At(t) => {
                    delivered += 1;
                    delay_sum += t.since(at).as_secs_f64();
                }
                Delivery::Dropped => {}
            }
            total += 1;
        }
    }
    (delivered, delay_sum / delivered.max(1) as f64, total)
}

/// Replays `secs` of the same envelope as per-epoch aggregate flows.
fn flow_replay(secs: u64) -> (u64, f64, u64) {
    let load = replay_load();
    let mut san = replay_san(SanMode::Flow);
    let (mut delivered, mut delay_sum, mut total) = (0u64, 0f64, 0u64);
    for e in load.epochs(Duration::from_secs(secs)) {
        if e.requests == 0 {
            continue;
        }
        let per = e.requests / u64::from(REPLAY_PAIRS);
        let rem = e.requests % u64::from(REPLAY_PAIRS);
        let now = SimTime::ZERO + e.start;
        for pair in 0..REPLAY_PAIRS {
            let msgs = per + u64::from(u64::from(pair) < rem);
            if msgs == 0 {
                continue;
            }
            let bytes = e.bytes * msgs / e.requests;
            let r = san.offer_flow(
                now,
                NodeId(pair),
                NodeId(REPLAY_PAIRS + pair),
                bytes,
                msgs,
                TrafficClass::Reliable,
            );
            delivered += r.delivered;
            delay_sum += r.delay.as_secs_f64() * r.delivered as f64;
            total += msgs;
        }
    }
    (delivered, delay_sum / delivered.max(1) as f64, total)
}

/// Rebuilds `path` as one JSON row array: every pre-existing row except
/// stale `replay/*` ones, then the given fresh rows.
fn append_rows(path: &str, new_rows_json: &str) {
    let row_lines = |s: &str, drop_ours: bool| -> Vec<String> {
        s.lines()
            .filter(|l| l.contains("\"bench\":"))
            .filter(|l| !(drop_ours && l.contains("\"bench\":\"replay/")))
            .map(|l| l.trim_end().trim_end_matches(',').to_string())
            .collect()
    };
    let mut rows = match std::fs::read_to_string(path) {
        Ok(existing) => row_lines(&existing, true),
        Err(_) => Vec::new(),
    };
    rows.extend(row_lines(new_rows_json, false));
    let body = rows.join(",\n");
    std::fs::write(path, format!("[\n{body}\n]")).expect("write bench rows");
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sim.json".to_string());
    let mut suite = BenchSuite::with_config(
        "sim",
        BenchConfig {
            warmup: Duration::from_millis(60),
            measure: Duration::from_millis(300),
            min_samples: 3,
            ..Default::default()
        },
    );

    // Fidelity before speed: matched window, same envelope, both
    // fidelity levels.
    let (d_del, d_delay, d_total) = datagram_replay(WINDOW_SECS);
    let (f_del, f_delay, f_total) = flow_replay(WINDOW_SECS);
    assert_eq!(d_total, f_total, "both replays offer the same envelope");
    assert_eq!(
        d_del, f_del,
        "reliable traffic arrives in full at either fidelity"
    );
    assert!(
        f_delay / d_delay > 0.5 && f_delay / d_delay < 2.0,
        "flow delay {f_delay}s vs datagram {d_delay}s off the coarse band"
    );

    suite.bench("replay/datagram_window", || datagram_replay(WINDOW_SECS));
    suite.bench("replay/flow_window", || flow_replay(WINDOW_SECS));
    suite.bench("replay/flow_24h", || flow_replay(DAY_SECS));

    let row = |name: &str| {
        suite
            .rows()
            .iter()
            .find(|r| r.bench == name)
            .expect("row exists")
    };
    let dgram = row("replay/datagram_window").min_ns;
    let flow = row("replay/flow_window").min_ns;
    let day = row("replay/flow_24h").min_ns;
    println!(
        "-- flow-level replay {:.0}x faster than datagram on the matched {WINDOW_SECS}s peak \
         window ({d_total} requests); full 24h flow replay {:.1} ms/run vs ~{:.0} s estimated \
         per-datagram",
        dgram / flow,
        day / 1e6,
        dgram * (DAY_SECS / WINDOW_SECS) as f64 / 1e9,
    );
    assert!(
        dgram / flow >= 10.0,
        "flow-level replay must be >=10x faster than per-datagram on the matched window: \
         {dgram:.0} ns vs {flow:.0} ns"
    );

    append_rows(&out, &suite.to_json());
    println!("appended {} bench rows to {out}", suite.rows().len());
}
