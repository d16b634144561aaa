//! Million-user replay envelopes: the ROADMAP's Internet-scale target.
//!
//! §2 of the paper argues a SAN-coupled cluster should absorb the load of
//! a *population*, not a machine room — TranSend served ~8000 dialup
//! users at 5.8 req/s average, and the operations data the TerraServer
//! experience reports is the same shape at four orders of magnitude more
//! users. Replaying such a day per-request would mean hundreds of
//! millions of simulator events; the flow-level SAN mode
//! (`sns_san::SanMode::Flow`) instead consumes *epoch aggregates* — one
//! (requests, bytes) offer per epoch per traffic relation.
//!
//! [`ReplayLoad`] produces exactly that: a lazy iterator of
//! [`EpochLoad`] rows scaling the calibrated Figure 6 arrival process
//! ([`super::bursts::ArrivalProcess`]) to an arbitrary population, with
//! an optional [`FlashCrowd`] overlay for the §1 "flash crowd"
//! scenario. Nothing is ever materialised per request: a 24-hour
//! million-user day is ~864 000 epoch rows at the default 100 ms epoch,
//! generated on demand in O(1) memory.

use std::time::Duration;

use sns_sim::rng::Pcg32;

use crate::bursts::ArrivalProcess;

/// The traced TranSend population the calibrated rates correspond to
/// (§4.1: ~8000 active users behind 600 modems).
pub const TRACED_USERS: u64 = 8_000;

/// Mean response size implied by the paper's §4.1 MIME mix and Figure 5
/// per-type means (GIF 50% × 3428 B + HTML 22% × 5131 B + JPEG 18% ×
/// 12070 B + other 10% ≈ 10 KB), ≈ 6 KB.
pub const MEAN_RESPONSE_BYTES: f64 = 6_016.0;

/// A flash-crowd overlay: a multiplicative surge ramping linearly to
/// `magnitude`, holding, then decaying linearly back to 1.
///
/// This is the §1 motivating scenario ("the slashdot effect") layered on
/// top of the diurnal cycle; the default puts a 6× surge at 20:00,
/// slightly before the diurnal peak.
#[derive(Debug, Clone)]
pub struct FlashCrowd {
    /// Offset into the replay at which the surge starts ramping.
    pub start: Duration,
    /// Linear ramp-up time to full magnitude.
    pub ramp: Duration,
    /// Time held at full magnitude.
    pub hold: Duration,
    /// Linear decay time back to baseline.
    pub decay: Duration,
    /// Peak rate multiplier (≥ 1).
    pub magnitude: f64,
}

impl Default for FlashCrowd {
    fn default() -> Self {
        FlashCrowd {
            start: Duration::from_secs(20 * 3600),
            ramp: Duration::from_secs(5 * 60),
            hold: Duration::from_secs(20 * 60),
            decay: Duration::from_secs(30 * 60),
            magnitude: 6.0,
        }
    }
}

impl FlashCrowd {
    /// Rate multiplier at offset `t` (1.0 outside the surge window).
    pub fn multiplier_at(&self, t: Duration) -> f64 {
        if t < self.start {
            return 1.0;
        }
        let dt = (t - self.start).as_secs_f64();
        let (ramp, hold, decay) = (
            self.ramp.as_secs_f64(),
            self.hold.as_secs_f64(),
            self.decay.as_secs_f64(),
        );
        let m = self.magnitude;
        if dt < ramp {
            1.0 + (m - 1.0) * dt / ramp
        } else if dt < ramp + hold {
            m
        } else if dt < ramp + hold + decay {
            m - (m - 1.0) * (dt - ramp - hold) / decay
        } else {
            1.0
        }
    }
}

/// One epoch of aggregated offered load: what the flow-level replay
/// feeds to `sns_san::San::offer_flow` instead of per-request events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochLoad {
    /// Offset of the epoch's start into the replay.
    pub start: Duration,
    /// Requests arriving during the epoch.
    pub requests: u64,
    /// Total response bytes for those requests.
    pub bytes: u64,
}

/// A population-scaled, optionally flash-crowded replay envelope.
///
/// Chains like the other builders:
///
/// ```
/// use sns_workload::replay::{FlashCrowd, ReplayLoad};
/// use std::time::Duration;
///
/// let load = ReplayLoad::million_users(7)
///     .with_flash_crowd(FlashCrowd::default())
///     .with_epoch(Duration::from_secs(1));
/// let first: Vec<_> = load.epochs(Duration::from_secs(10)).collect();
/// assert_eq!(first.len(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct ReplayLoad {
    /// The unit-scale (traced-population) arrival process.
    pub arrivals: ArrivalProcess,
    /// Population multiplier over [`TRACED_USERS`].
    pub scale: f64,
    /// Optional flash-crowd overlay.
    pub flash: Option<FlashCrowd>,
    /// Aggregation epoch; also the granularity of flow-mode offers.
    pub epoch: Duration,
    /// Mean response size in bytes.
    pub mean_bytes: f64,
    seed: u64,
}

impl ReplayLoad {
    /// A replay for `users` simultaneous users, rates scaled linearly
    /// from the traced 8000-user calibration.
    pub fn new(users: u64, seed: u64) -> Self {
        assert!(users > 0, "population must be non-empty");
        ReplayLoad {
            arrivals: ArrivalProcess::paper_default(seed),
            scale: users as f64 / TRACED_USERS as f64,
            flash: None,
            epoch: Duration::from_millis(100),
            mean_bytes: MEAN_RESPONSE_BYTES,
            seed,
        }
    }

    /// The headline configuration: one million users (125× the traced
    /// population, ≈725 req/s mean, ≈1300 req/s diurnal peak).
    pub fn million_users(seed: u64) -> Self {
        Self::new(1_000_000, seed)
    }

    /// Adds a flash-crowd surge on top of the diurnal cycle.
    pub fn with_flash_crowd(mut self, f: FlashCrowd) -> Self {
        self.flash = Some(f);
        self
    }

    /// Sets the aggregation epoch.
    pub fn with_epoch(mut self, epoch: Duration) -> Self {
        assert!(epoch > Duration::ZERO, "epoch must be > 0");
        self.epoch = epoch;
        self
    }

    /// Population-scaled instantaneous rate (req/s) at offset `t`.
    pub fn rate_at(&self, t: Duration) -> f64 {
        let flash = self.flash.as_ref().map_or(1.0, |f| f.multiplier_at(t));
        self.arrivals.rate_at(t) * self.scale * flash
    }

    /// Lazily yields one [`EpochLoad`] per epoch over `[0, horizon)`.
    ///
    /// Request counts are Poisson samples of the epoch's expected load
    /// (normal approximation above λ=64, exact below), deterministic per
    /// (seed, epoch index) — the same epoch always generates the same
    /// row no matter how the iterator is consumed.
    pub fn epochs(&self, horizon: Duration) -> Epochs<'_> {
        Epochs {
            load: self,
            index: 0,
            end: (horizon.as_nanos() / self.epoch.as_nanos().max(1)) as u64,
        }
    }

    /// Expected request total over `[0, horizon)` (the deterministic
    /// envelope integral; actual sampled totals fluctuate ~√N around it).
    pub fn expected_requests(&self, horizon: Duration) -> f64 {
        let mut sum = 0.0;
        let step = self.epoch.as_secs_f64();
        let n = (horizon.as_nanos() / self.epoch.as_nanos().max(1)) as u64;
        for i in 0..n {
            let mid = Duration::from_secs_f64((i as f64 + 0.5) * step);
            sum += self.rate_at(mid) * step;
        }
        sum
    }

    fn sample_epoch(&self, index: u64) -> EpochLoad {
        let step = self.epoch.as_secs_f64();
        let start = Duration::from_secs_f64(index as f64 * step);
        let mid = Duration::from_secs_f64((index as f64 + 0.5) * step);
        let lambda = self.rate_at(mid) * step;
        // Per-epoch forked RNG: O(1) state, order-independent.
        let mut rng = Pcg32::new(self.seed ^ index.wrapping_mul(0x9E3779B97F4A7C15));
        let requests = if lambda > 64.0 {
            rng.normal(lambda, lambda.sqrt()).max(0.0).round() as u64
        } else {
            // Knuth's exact method is fine at small λ.
            let limit = (-lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.f64_open();
                if p <= limit {
                    break k;
                }
                k += 1;
            }
        };
        // Size jitter: the per-epoch mean wobbles a few percent around
        // the mix mean (individual sizes are heavy-tailed, but epoch
        // sums of hundreds of requests concentrate).
        let mean = self.mean_bytes * rng.normal(1.0, 0.03).clamp(0.8, 1.2);
        EpochLoad {
            start,
            requests,
            bytes: (requests as f64 * mean) as u64,
        }
    }
}

/// Lazy epoch iterator returned by [`ReplayLoad::epochs`].
#[derive(Debug)]
pub struct Epochs<'a> {
    load: &'a ReplayLoad,
    index: u64,
    end: u64,
}

impl Iterator for Epochs<'_> {
    type Item = EpochLoad;

    fn next(&mut self) -> Option<EpochLoad> {
        if self.index >= self.end {
            return None;
        }
        let row = self.load.sample_epoch(self.index);
        self.index += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.end - self.index) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Epochs<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn million_user_day_matches_scaled_mean() {
        let load = ReplayLoad::million_users(5).with_epoch(Duration::from_secs(60));
        let day = Duration::from_secs(24 * 3600);
        let total: u64 = load.epochs(day).map(|e| e.requests).sum();
        // 5.8 req/s × 125 ≈ 725 req/s mean → ≈62.6M requests/day. The
        // cascade preserves the mean only approximately; allow ±20%.
        let mean_rate = total as f64 / day.as_secs_f64();
        assert!(
            (mean_rate - 725.0).abs() / 725.0 < 0.2,
            "mean rate {mean_rate} req/s"
        );
        let expected = load.expected_requests(day);
        assert!((total as f64 - expected).abs() / expected < 0.05);
    }

    #[test]
    fn epochs_are_deterministic_and_order_independent() {
        let load = ReplayLoad::new(50_000, 9);
        let horizon = Duration::from_secs(30);
        let all: Vec<_> = load.epochs(horizon).collect();
        let again: Vec<_> = load.epochs(horizon).collect();
        assert_eq!(all, again);
        // Skipping ahead yields the same rows as consuming in order.
        let tail: Vec<_> = load.epochs(horizon).skip(100).collect();
        assert_eq!(&all[100..], &tail[..]);
    }

    #[test]
    fn flash_crowd_lifts_the_surge_window_only() {
        let base = ReplayLoad::million_users(3);
        let fc = FlashCrowd {
            start: Duration::from_secs(1000),
            ramp: Duration::from_secs(10),
            hold: Duration::from_secs(100),
            decay: Duration::from_secs(10),
            magnitude: 8.0,
        };
        let surged = base.clone().with_flash_crowd(fc);
        let before = Duration::from_secs(500);
        let during = Duration::from_secs(1060);
        assert_eq!(base.rate_at(before), surged.rate_at(before));
        assert!((surged.rate_at(during) / base.rate_at(during) - 8.0).abs() < 1e-9);
        let after = Duration::from_secs(1300);
        assert_eq!(base.rate_at(after), surged.rate_at(after));
    }

    #[test]
    fn epoch_bytes_track_requests() {
        let load = ReplayLoad::million_users(1);
        for e in load.epochs(Duration::from_secs(5)) {
            if e.requests == 0 {
                assert_eq!(e.bytes, 0);
                continue;
            }
            let per = e.bytes as f64 / e.requests as f64;
            assert!(
                per > 0.5 * MEAN_RESPONSE_BYTES && per < 1.5 * MEAN_RESPONSE_BYTES,
                "per-request bytes {per}"
            );
        }
    }

    #[test]
    fn iterator_is_lazy_and_sized() {
        // A full million-user day at 100 ms epochs: 864k rows. Taking 3
        // must not sample the rest.
        let load = ReplayLoad::million_users(2);
        let day = Duration::from_secs(24 * 3600);
        let it = load.epochs(day);
        assert_eq!(it.len(), 864_000);
        assert_eq!(it.take(3).count(), 3);
    }
}
