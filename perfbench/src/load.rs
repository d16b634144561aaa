//! Seeded input generation and the time budget of a run. The program
//! under test only ever sees what these produce (and its own
//! `with_seed`).

use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's own generator, so workload inputs do
/// not move when the simulator's RNG does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }

    /// Uniform in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// Due offsets of a Poisson arrival process at `rate` per second over
/// `[0, horizon)`: exponential gaps, ascending.
pub fn poisson_schedule(seed: u64, rate: f64, horizon: Duration) -> Vec<Duration> {
    assert!(rate > 0.0, "rate must be positive");
    let mut rng = Rng::new(seed);
    let mut due = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -rng.unit().ln() / rate;
        if t >= horizon.as_secs_f64() {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// Steps of the reference work in one pass, and how many of them make
/// one *reference second*: the unit the CPU-bound host times of the
/// virtual-time workloads are reported in. On the authoring host's base
/// clock a pass takes 217 µs, so a reference second is a wall second
/// there; on any host it is the same amount of work, which is what two
/// commits are compared by.
const REFERENCE_STEPS: u64 = 50_000;
const REFERENCE_STEPS_PER_S: f64 = REFERENCE_STEPS as f64 / 217e-6;

/// The host's speed right now in reference seconds per wall second
/// (`> 1` while the host runs fast).
///
/// Why not plain wall time: the authoring host (a shared 2-vCPU VM)
/// changes clock speed in steps of 10–25 % that last tens of seconds.
/// Eight back-to-back `sim_route` runs of one binary gave 26.0 to
/// 33.2 M events per wall second and 26.2 to 27.3 M per reference
/// second. The driver refuses a benchmark whose ten runs spread wider
/// than the metric's bound, and the wall-clock spread of 0.20 leaves no
/// room under the 0.25 a bound may be at most. A fixed piece of work
/// timed beside each measurement (a dependent integer chain with loads
/// from a 64 KiB table, best of five passes) moves by the same factor,
/// and dividing it out leaves the program's own cost. The wall-clock
/// figure is printed beside every number that was converted.
pub fn host_speed() -> f64 {
    static TABLE: std::sync::OnceLock<Vec<u64>> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut rng = Rng::new(0x5eed);
        (0..8192).map(|_| rng.next_u64()).collect()
    });
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..REFERENCE_STEPS {
            x = (x ^ table[(x >> 51) as usize]).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x ^= x >> 29;
        }
        std::hint::black_box(x);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    REFERENCE_STEPS as f64 / best / REFERENCE_STEPS_PER_S
}

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    /// Seconds of measuring (already divided by ten under `--quick`).
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: a tenth of the length and of the fixed sizes. Never
    /// for numbers.
    pub quick: bool,
}

impl Opts {
    /// A fixed size, cut to a tenth under `--quick`.
    pub fn size(&self, full: u64) -> u64 {
        if self.quick {
            (full / 10).max(1)
        } else {
            full
        }
    }

    /// A share of the measuring time.
    pub fn share(&self, part: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * part)
    }
}

/// A deadline for "repeat until the time is used" loops.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    end: Instant,
}

impl Budget {
    pub fn new(d: Duration) -> Self {
        Budget {
            end: Instant::now() + d,
        }
    }

    pub fn left(&self) -> bool {
        Instant::now() < self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_repeats_per_seed_and_hits_its_rate() {
        let a = poisson_schedule(7, 100.0, Duration::from_secs(50));
        let b = poisson_schedule(7, 100.0, Duration::from_secs(50));
        let c = poisson_schedule(8, 100.0, Duration::from_secs(50));
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "another seed, another schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "ascending");
        assert!(a.last().is_some_and(|t| *t < Duration::from_secs(50)));
        let n = a.len() as f64;
        assert!((4500.0..5500.0).contains(&n), "≈ rate × horizon, got {n}");
    }

    #[test]
    fn quick_cuts_sizes_to_a_tenth() {
        let full = Opts {
            seed: 1,
            seconds: 10.0,
            trace: false,
            quick: false,
        };
        let quick = Opts {
            quick: true,
            seconds: 1.0,
            ..full
        };
        assert_eq!(full.size(50_000), 50_000);
        assert_eq!(quick.size(50_000), 5_000);
        assert_eq!(quick.size(3), 1);
    }
}
