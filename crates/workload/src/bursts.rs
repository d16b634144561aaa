//! The Figure 6 arrival process: a diurnal cycle overlaid with
//! self-similar bursts.
//!
//! §4.2: "Burstiness is a fundamental property of a great variety of
//! computing systems, and can be observed across all time scales." The
//! traced load shows a strong 24-hour cycle (5.8 req/s average, 12.6
//! req/s peak over 2-minute buckets) with finer-grained bursts at the
//! 30-second and 1-second scales.
//!
//! The model is a deterministic multiplicative cascade (binomial
//! *b-model*, the standard construction for self-similar traffic) applied
//! on top of a sinusoid-plus-floor diurnal rate, sampled as an
//! inhomogeneous Poisson process by thinning.

use std::time::Duration;

use sns_sim::rng::Pcg32;

/// The 24-hour deterministic rate component.
#[derive(Debug, Clone)]
pub struct DiurnalProfile {
    /// Mean request rate (req/s) over a full day.
    pub mean_rate: f64,
    /// Relative amplitude of the daily swing in `[0,1)`.
    pub amplitude: f64,
    /// Hour of day (0–24) at which load peaks.
    pub peak_hour: f64,
}

impl Default for DiurnalProfile {
    /// Calibrated to Figure 6(a): 5.8 req/s average with evening peak.
    fn default() -> Self {
        DiurnalProfile {
            mean_rate: 5.8,
            amplitude: 0.75,
            peak_hour: 22.0,
        }
    }
}

impl DiurnalProfile {
    /// Instantaneous diurnal rate (req/s) at an offset into the day.
    pub fn rate_at(&self, t: Duration) -> f64 {
        let hours = t.as_secs_f64() / 3600.0 % 24.0;
        let phase = (hours - self.peak_hour) / 24.0 * std::f64::consts::TAU;
        self.mean_rate * (1.0 + self.amplitude * phase.cos())
    }
}

/// Multiplicative cascade burst modulation.
///
/// The day is recursively halved `levels` times; at each node one half is
/// weighted `2b` and the other `2(1-b)` (choice decided by a hash of the
/// node so the cascade is deterministic per seed). The product along the
/// path to a leaf is that leaf interval's burst multiplier; its mean over
/// leaves is 1, so the diurnal mean is preserved.
#[derive(Debug, Clone)]
pub struct BurstCascade {
    /// Cascade bias in `(0.5, 1)`; higher = burstier. 0.5 disables.
    pub bias: f64,
    /// Number of halving levels (leaf width = span / 2^levels).
    pub levels: u32,
    /// Total span the cascade covers.
    pub span: Duration,
    seed: u64,
}

impl BurstCascade {
    /// Creates a cascade over `span` with `levels` halvings.
    pub fn new(span: Duration, levels: u32, bias: f64, seed: u64) -> Self {
        assert!((0.5..1.0).contains(&bias), "bias in [0.5, 1)");
        assert!(levels <= 40);
        BurstCascade {
            bias,
            levels,
            span,
            seed,
        }
    }

    fn heavy_side(&self, level: u32, prefix: u64) -> bool {
        // Deterministic per (seed, level, prefix): a splitmix-style hash.
        let mut z = self
            .seed
            .wrapping_add((u64::from(level) << 48) ^ prefix)
            .wrapping_mul(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        (z ^ (z >> 31)) & 1 == 1
    }

    /// Burst multiplier at time offset `t` (mean ≈ 1 over the span).
    pub fn multiplier_at(&self, t: Duration) -> f64 {
        let span_ns = self.span.as_nanos().max(1) as u64;
        let pos = (t.as_nanos() as u64) % span_ns;
        // Walk down the cascade: at each level decide which half `pos`
        // falls in and multiply by that side's weight.
        let mut mult = 1.0;
        let mut lo = 0u64;
        let mut width = span_ns;
        let mut prefix = 1u64;
        for level in 0..self.levels {
            width /= 2;
            if width == 0 {
                break;
            }
            let right = pos >= lo + width;
            if right {
                lo += width;
            }
            prefix = (prefix << 1) | u64::from(right);
            let heavy_right = self.heavy_side(level, prefix >> 1);
            let is_heavy = right == heavy_right;
            mult *= if is_heavy {
                2.0 * self.bias
            } else {
                2.0 * (1.0 - self.bias)
            };
        }
        mult
    }
}

/// The full Figure 6 arrival process: diurnal × cascade, sampled by
/// Poisson thinning.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    /// Deterministic daily cycle.
    pub diurnal: DiurnalProfile,
    /// Burst modulation.
    pub cascade: BurstCascade,
    /// Extra cap applied to the instantaneous rate (safety).
    pub max_rate: f64,
}

impl ArrivalProcess {
    /// Creates the default paper-calibrated process for a given seed.
    pub fn paper_default(seed: u64) -> Self {
        ArrivalProcess {
            diurnal: DiurnalProfile::default(),
            // An ~34-minute cascade with 11 halvings (leaf width 1 s):
            // bursts exist at every bucket scale Figure 6 uses (1 s,
            // 30 s, 120 s) but the *daily* envelope stays diurnal, so
            // 2-minute-bucket peaks land near the paper's 12.6 req/s
            // over a 5.8 req/s mean while 1-second buckets still spike
            // to ~20 req/s.
            cascade: BurstCascade::new(Duration::from_secs(2048), 11, 0.55, seed),
            max_rate: 30.0,
        }
    }

    /// Instantaneous rate λ(t) in req/s.
    pub fn rate_at(&self, t: Duration) -> f64 {
        (self.diurnal.rate_at(t) * self.cascade.multiplier_at(t)).min(self.max_rate)
    }

    /// Generates arrival offsets over `[0, horizon)` by thinning.
    pub fn arrivals(&self, horizon: Duration, rng: &mut Pcg32) -> Vec<Duration> {
        let lambda_max = self.max_rate;
        let mut out = Vec::new();
        let mut t = 0.0f64;
        let horizon_s = horizon.as_secs_f64();
        loop {
            t += rng.exp(1.0 / lambda_max);
            if t >= horizon_s {
                break;
            }
            let d = Duration::from_secs_f64(t);
            if rng.f64() < self.rate_at(d) / lambda_max {
                out.push(d);
            }
        }
        out
    }

    /// Buckets arrival counts for plotting (Figure 6 histograms).
    pub fn bucketize(arrivals: &[Duration], bucket: Duration, horizon: Duration) -> Vec<u64> {
        let nb = (horizon.as_nanos() / bucket.as_nanos().max(1)) as usize;
        let mut out = vec![0u64; nb.max(1)];
        for &a in arrivals {
            let i = (a.as_nanos() / bucket.as_nanos().max(1)) as usize;
            if i < out.len() {
                out[i] += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_mean_and_swing() {
        let d = DiurnalProfile::default();
        let n = 24 * 60;
        let rates: Vec<f64> = (0..n)
            .map(|i| d.rate_at(Duration::from_secs(i as u64 * 60)))
            .collect();
        let mean = rates.iter().sum::<f64>() / n as f64;
        assert!((mean - 5.8).abs() < 0.05, "mean {mean}");
        let max = rates.iter().cloned().fold(0.0, f64::max);
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max > 9.0 && min < 2.5, "swing {min}..{max}");
    }

    #[test]
    fn cascade_preserves_mean_and_is_bursty() {
        let c = BurstCascade::new(Duration::from_secs(3600), 12, 0.65, 9);
        let n = 4096;
        let mults: Vec<f64> = (0..n)
            .map(|i| c.multiplier_at(Duration::from_secs_f64(i as f64 * 3600.0 / n as f64)))
            .collect();
        let mean = mults.iter().sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.15, "cascade mean {mean}");
        let max = mults.iter().cloned().fold(0.0, f64::max);
        assert!(max > 3.0, "cascade must produce bursts, max {max}");
    }

    #[test]
    fn cascade_is_deterministic() {
        let c1 = BurstCascade::new(Duration::from_secs(3600), 10, 0.62, 42);
        let c2 = BurstCascade::new(Duration::from_secs(3600), 10, 0.62, 42);
        for i in 0..100 {
            let t = Duration::from_secs(i * 36);
            assert_eq!(c1.multiplier_at(t), c2.multiplier_at(t));
        }
    }

    #[test]
    fn arrivals_roughly_match_mean_rate() {
        let p = ArrivalProcess::paper_default(3);
        let mut rng = Pcg32::new(3);
        let horizon = Duration::from_secs(2 * 3600);
        let arr = p.arrivals(horizon, &mut rng);
        let rate = arr.len() as f64 / horizon.as_secs_f64();
        // Two evening-ish hours; just require a sane band.
        assert!(rate > 1.0 && rate < 30.0, "rate {rate}");
        // Sorted, in-range.
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
        assert!(arr.iter().all(|&a| a < horizon));
    }

    #[test]
    fn figure6_band_statistics() {
        // Full-day run: 2-minute buckets must average ≈5.8 req/s with a
        // peak comfortably above the mean (paper: 12.6 max).
        let p = ArrivalProcess::paper_default(11);
        let mut rng = Pcg32::new(11);
        let day = Duration::from_secs(24 * 3600);
        let arr = p.arrivals(day, &mut rng);
        let buckets = ArrivalProcess::bucketize(&arr, Duration::from_secs(120), day);
        let mean_rate = buckets.iter().sum::<u64>() as f64 / buckets.len() as f64 / 120.0;
        let max_rate = *buckets.iter().max().unwrap() as f64 / 120.0;
        assert!((mean_rate - 5.8).abs() < 0.9, "day mean {mean_rate}");
        assert!(
            max_rate > 1.5 * mean_rate,
            "peak {max_rate} vs mean {mean_rate}"
        );
    }
}
