//! The property runner: seeded case iteration, discard handling,
//! shrinking and failure reporting.
//!
//! Unlike proptest, runs are **deterministic by default**: the base seed
//! is a fixed constant mixed with the property name, so CI and laptops
//! explore identical cases. `SNS_TESTKIT_SEED` overrides the base seed
//! (printed on failure for reproduction), `SNS_TESTKIT_CASES` the case
//! count, and `SNS_TESTKIT_SHRINK` the shrink budget (property re-runs
//! spent minimising a counterexample).

use std::panic::{catch_unwind, AssertUnwindSafe};

use sns_sim::hash::fnv1a;

use crate::gen::GenSet;
use crate::shrink::{shrink, Rerun};
use crate::source::Source;

/// Why a property case did not pass.
#[derive(Debug, Clone)]
pub struct Failed {
    message: String,
    discard: bool,
}

impl Failed {
    /// A genuine failure with a message.
    pub fn msg(message: impl Into<String>) -> Self {
        Failed {
            message: message.into(),
            discard: false,
        }
    }

    /// A discarded case (unmet assumption); does not count as a failure.
    pub fn discard() -> Self {
        Failed {
            message: "assumption not met".into(),
            discard: true,
        }
    }
}

impl From<String> for Failed {
    fn from(message: String) -> Self {
        Failed::msg(message)
    }
}

impl From<&str> for Failed {
    fn from(message: &str) -> Self {
        Failed::msg(message)
    }
}

/// Runner knobs; read from the environment by [`Config::from_env`].
#[derive(Debug, Clone)]
pub struct Config {
    /// Passing cases required (default 64).
    pub cases: u32,
    /// Base seed; mixed with the case index per run.
    pub seed: u64,
    /// Maximum property re-runs spent shrinking (default 512).
    pub shrink_budget: u32,
}

/// Fixed default base seed ("SNSTESTK" in ASCII).
pub const DEFAULT_SEED: u64 = 0x534e_5354_4553_544b;

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(v) => Some(v),
        Err(_) => panic!("{name} must be an integer, got {raw:?}"),
    }
}

impl Config {
    /// Environment-driven configuration for the named property.
    pub fn from_env(name: &str) -> Self {
        Config {
            cases: env_u64("SNS_TESTKIT_CASES").map_or(64, |v| v as u32),
            seed: env_u64("SNS_TESTKIT_SEED").unwrap_or(DEFAULT_SEED ^ fnv1a(name.as_bytes())),
            shrink_budget: env_u64("SNS_TESTKIT_SHRINK").map_or(512, |v| v as u32),
        }
    }
}

fn case_seed(base: u64, case: u64) -> u64 {
    let mut z = base.wrapping_add(case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

enum Outcome {
    Pass,
    Discard,
    Fail(String),
}

fn run_source<G, F>(gens: &G, prop: &F, mut src: Source) -> (Outcome, Vec<u64>)
where
    G: GenSet,
    F: Fn(G::Value) -> Result<(), Failed>,
{
    let result = catch_unwind(AssertUnwindSafe(|| {
        let value = gens.generate(&mut src);
        prop(value)
    }));
    let outcome = match result {
        Ok(Ok(())) => Outcome::Pass,
        Ok(Err(f)) if f.discard => Outcome::Discard,
        Ok(Err(f)) => Outcome::Fail(f.message),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "panicked".into());
            Outcome::Fail(format!("panic: {msg}"))
        }
    };
    (outcome, src.into_recorded())
}

/// Checks a property against generated inputs with the environment
/// configuration; panics with a seed and a shrunk counterexample on
/// failure. `gens` is a tuple of [`crate::Gen`]s; `prop` receives the
/// generated argument tuple.
pub fn check<G, F>(name: &str, gens: G, prop: F)
where
    G: GenSet,
    F: Fn(G::Value) -> Result<(), Failed>,
{
    check_config(name, &Config::from_env(name), gens, prop);
}

/// [`check`] with an explicit configuration.
pub fn check_config<G, F>(name: &str, cfg: &Config, gens: G, prop: F)
where
    G: GenSet,
    F: Fn(G::Value) -> Result<(), Failed>,
{
    let mut passed = 0u32;
    let mut discarded = 0u32;
    let max_attempts = cfg.cases.saturating_mul(10).max(cfg.cases);
    for attempt in 0..u64::from(max_attempts) {
        if passed >= cfg.cases {
            return;
        }
        let src = Source::live(case_seed(cfg.seed, attempt));
        let (outcome, stream) = run_source(&gens, &prop, src);
        match outcome {
            Outcome::Pass => passed += 1,
            Outcome::Discard => discarded += 1,
            Outcome::Fail(first_msg) => {
                fail(name, cfg, &gens, &prop, attempt, stream, first_msg);
            }
        }
    }
    if passed < cfg.cases {
        panic!(
            "[sns-testkit] property '{name}' gave up: only {passed}/{} cases passed \
             after {discarded} discards (weaken assumptions or raise SNS_TESTKIT_CASES)",
            cfg.cases
        );
    }
}

fn fail<G, F>(
    name: &str,
    cfg: &Config,
    gens: &G,
    prop: &F,
    case: u64,
    stream: Vec<u64>,
    first_msg: String,
) -> !
where
    G: GenSet,
    F: Fn(G::Value) -> Result<(), Failed>,
{
    let (best, steps) = shrink(stream, cfg.shrink_budget, |cand| {
        let (outcome, consumed) = run_source(gens, prop, Source::replay(cand));
        Rerun {
            fails: matches!(outcome, Outcome::Fail(_)),
            consumed,
        }
    });
    // Re-run the winning stream once more for the report (panic-guarded:
    // the failure may itself be a panic).
    let (outcome, consumed) = run_source(gens, prop, Source::replay(best));
    let final_msg = match outcome {
        Outcome::Fail(msg) => msg,
        _ => first_msg,
    };
    let shrunk = catch_unwind(AssertUnwindSafe(|| {
        let mut src = Source::replay(consumed);
        format!("{:#?}", gens.generate(&mut src))
    }))
    .unwrap_or_else(|_| "<generation panicked while printing>".into());
    panic!(
        "[sns-testkit] property '{name}' failed at case {case}\n  \
         base seed: {seed:#x} — rerun with SNS_TESTKIT_SEED={seed}\n  \
         shrunk counterexample ({steps} shrink rounds, budget {budget}):\n  {shrunk}\n  \
         failure: {final_msg}",
        seed = cfg.seed,
        budget = cfg.shrink_budget,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gens;

    fn quiet_cfg() -> Config {
        Config {
            cases: 64,
            seed: 0xfeed,
            shrink_budget: 512,
        }
    }

    #[test]
    fn passing_property_passes() {
        check_config(
            "sum_commutes",
            &quiet_cfg(),
            (gens::any_u32(), gens::any_u32()),
            |(a, b)| {
                if u64::from(a) + u64::from(b) == u64::from(b) + u64::from(a) {
                    Ok(())
                } else {
                    Err("math broke".into())
                }
            },
        );
    }

    #[test]
    fn failing_property_reports_shrunk_seedful_counterexample() {
        let result = std::panic::catch_unwind(|| {
            check_config(
                "no_big_values",
                &quiet_cfg(),
                (gens::vec(gens::u64_in(0..1000), 0..20),),
                |(v,)| {
                    if v.iter().any(|&x| x >= 100) {
                        Err(format!("saw {v:?}").into())
                    } else {
                        Ok(())
                    }
                },
            );
        });
        let msg = *result
            .unwrap_err()
            .downcast::<String>()
            .expect("string panic");
        assert!(msg.contains("SNS_TESTKIT_SEED="), "{msg}");
        assert!(msg.contains("no_big_values"), "{msg}");
        // The shrunk witness is the minimal one: a single element, 100.
        assert!(msg.contains("100"), "{msg}");
        assert!(!msg.contains("101"), "shrinker left slack: {msg}");
    }

    #[test]
    fn panics_are_failures_too() {
        let result = std::panic::catch_unwind(|| {
            check_config(
                "index_panics",
                &quiet_cfg(),
                (gens::vec(gens::any_u8(), 0..8),),
                |(v,)| {
                    let _ = v[3]; // panics whenever len <= 3
                    Ok(())
                },
            );
        });
        let msg = *result
            .unwrap_err()
            .downcast::<String>()
            .expect("string panic");
        assert!(msg.contains("panic"), "{msg}");
    }

    #[test]
    fn discards_do_not_fail_but_exhaustion_does() {
        // Mild assumption: passes.
        check_config("mild_assumption", &quiet_cfg(), (gens::any_u8(),), |(x,)| {
            if x < 16 {
                Err(Failed::discard())
            } else {
                Ok(())
            }
        });
        // Impossible assumption: gives up with a clear message.
        let result = std::panic::catch_unwind(|| {
            check_config(
                "impossible_assumption",
                &quiet_cfg(),
                (gens::any_u8(),),
                |(_,)| Err(Failed::discard()),
            );
        });
        let msg = *result
            .unwrap_err()
            .downcast::<String>()
            .expect("string panic");
        assert!(msg.contains("gave up"), "{msg}");
    }

    #[test]
    fn same_seed_same_cases() {
        use std::cell::RefCell;
        let observed = RefCell::new(Vec::new());
        let run = || {
            observed.borrow_mut().clear();
            check_config("determinism", &quiet_cfg(), (gens::any_u64(),), |(x,)| {
                observed.borrow_mut().push(x);
                Ok(())
            });
            observed.borrow().clone()
        };
        assert_eq!(run(), run());
    }
}
