//! Deterministic pseudo-random number generation for simulations.
//!
//! The engine deliberately avoids the external `rand` crate: every
//! experiment in this repository must be bit-reproducible from its seed
//! across crate upgrades, so the generator (PCG-32, O'Neill 2014) and all
//! distribution transforms live here, frozen.

/// A 32-bit permuted congruential generator (PCG-XSH-RR).
///
/// State transitions use the 64-bit LCG multiplier from the PCG reference
/// implementation; output is a xorshift-high + random-rotate permutation of
/// the state. The generator is seeded via SplitMix64 so that small or
/// correlated user seeds still produce well-distributed streams.
///
/// # Examples
///
/// ```
/// use sns_sim::rng::Pcg32;
/// let mut a = Pcg32::new(42);
/// let mut b = Pcg32::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
    /// Cached second output of the Box-Muller transform.
    gauss_spare: Option<f64>,
}

const PCG_MULT: u64 = 6364136223846793005;

/// SplitMix64 step, used for seeding.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Pcg32 {
    /// Creates a generator from a user seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let init_state = splitmix64(&mut sm);
        let init_inc = splitmix64(&mut sm) | 1; // stream selector must be odd
        let mut rng = Pcg32 {
            state: 0,
            inc: init_inc,
            gauss_spare: None,
        };
        rng.state = init_state.wrapping_add(init_inc);
        rng.next_u32();
        rng
    }

    /// Derives an independent child stream; used to give subsystems their
    /// own generators without sharing a sequence.
    pub fn fork(&mut self) -> Pcg32 {
        let seed = self.next_u64();
        Pcg32::new(seed)
    }

    /// Returns the next 32 uniformly distributed bits.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Returns the next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `(0, 1]`; safe as a `ln()` argument.
    pub fn f64_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` using Lemire rejection; panics if
    /// `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Widening-multiply rejection sampling (unbiased).
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (bound.wrapping_neg() % bound) {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponentially distributed value with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.f64_open().ln()
    }

    /// Standard normal via Box-Muller (with spare caching).
    pub fn gauss(&mut self) -> f64 {
        if let Some(s) = self.gauss_spare.take() {
            return s;
        }
        let u1 = self.f64_open();
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.gauss()
    }

    /// Log-normal parameterised by the underlying normal's `mu`/`sigma`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.gauss()).exp()
    }

    /// Picks an index in `[0, weights.len())` with probability proportional
    /// to its weight. Panics on an empty or all-zero slice.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must have positive sum");
        let mut x = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Uniformly chooses an element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// Fisher-Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_from_seed() {
        let mut a = Pcg32::new(123);
        let mut b = Pcg32::new(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Pcg32::new(1);
        let mut b = Pcg32::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Pcg32::new(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.f64_open();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn below_is_bounded_and_covers() {
        let mut r = Pcg32::new(9);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = r.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exp_mean_close() {
        let mut r = Pcg32::new(11);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exp(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn gauss_moments() {
        let mut r = Pcg32::new(13);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.gauss()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn weighted_respects_zero_weight() {
        let mut r = Pcg32::new(17);
        for _ in 0..1000 {
            let i = r.weighted(&[0.0, 1.0, 0.0]);
            assert_eq!(i, 1);
        }
    }

    #[test]
    fn weighted_proportions() {
        let mut r = Pcg32::new(19);
        let mut counts = [0usize; 3];
        let n = 90_000;
        for _ in 0..n {
            counts[r.weighted(&[1.0, 2.0, 3.0])] += 1;
        }
        let f = |c: usize| c as f64 / n as f64;
        assert!((f(counts[0]) - 1.0 / 6.0).abs() < 0.01);
        assert!((f(counts[1]) - 2.0 / 6.0).abs() < 0.01);
        assert!((f(counts[2]) - 3.0 / 6.0).abs() < 0.01);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Pcg32::new(23);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fork_streams_independent() {
        let mut parent = Pcg32::new(31);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }
}
