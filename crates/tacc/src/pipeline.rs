//! Unix-pipeline-like composition of TACC workers (§2.3).
//!
//! "Our initial implementation allows Unix-pipeline-like chaining of an
//! arbitrary number of stateless transformations and aggregations." A
//! [`PipelineSpec`] names the stages; the front end's dispatch logic
//! executes them in order, feeding each stage's output to the next, and
//! computes the cache-variant hash of any prefix so intermediate results
//! can be cached (§2.3: caches store "even intermediate-state content").

use crate::worker::TaccArgs;

/// An ordered chain of TACC worker names.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PipelineSpec {
    stages: Vec<String>,
}

impl PipelineSpec {
    /// An empty pipeline (identity: content passes through unmodified).
    pub fn identity() -> Self {
        PipelineSpec::default()
    }

    /// Builds from a list of stage names.
    pub fn of(stages: &[&str]) -> Self {
        PipelineSpec {
            stages: stages.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Concatenates two pipelines (associative).
    pub fn compose(mut self, other: &PipelineSpec) -> Self {
        self.stages.extend(other.stages.iter().cloned());
        self
    }

    /// The stage names in execution order.
    pub fn stages(&self) -> &[String] {
        &self.stages
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the pipeline is the identity.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Cache-variant hash of the first `prefix_len` stages under `args`:
    /// the key under which that intermediate result may be cached.
    /// `prefix_len == 0` yields 0, the "original content" variant.
    pub fn variant_of_prefix(&self, prefix_len: usize, args: &TaccArgs) -> u64 {
        Self::variant_of(
            self.stages.iter().take(prefix_len).map(String::as_str),
            args,
        )
    }

    /// Cache-variant hash of a chain of stage names under `args`, for a
    /// caller that keeps its stages elsewhere: the per-stage hashes
    /// chained order-sensitively, 0 (the original) for no stages.
    pub fn variant_of<'a>(stages: impl IntoIterator<Item = &'a str>, args: &TaccArgs) -> u64 {
        let chain = |acc: u64, stage| {
            let h = args.variant_hash(stage);
            acc.rotate_left(17)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(h)
        };
        let mut stages = stages.into_iter();
        stages
            .next()
            .map_or(0, |first| stages.fold(chain(0, first), chain) | 1)
    }

    /// Variant hash of the full pipeline.
    pub fn final_variant(&self, args: &TaccArgs) -> u64 {
        self.variant_of_prefix(self.stages.len(), args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn args(q: &str) -> TaccArgs {
        TaccArgs::from_map(BTreeMap::from([("q".to_string(), q.to_string())]))
    }

    #[test]
    fn composition_is_associative() {
        let a = PipelineSpec::of(&["x"]);
        let b = PipelineSpec::of(&["y"]);
        let c = PipelineSpec::of(&["z"]);
        let left = a.clone().compose(&b).compose(&c);
        let right = a.compose(&b.compose(&c));
        assert_eq!(left, right);
        assert_eq!(left.stages(), &["x", "y", "z"]);
    }

    #[test]
    fn identity_is_neutral() {
        let p = PipelineSpec::of(&["gif", "html"]);
        assert_eq!(p.clone().compose(&PipelineSpec::identity()), p);
        assert_eq!(PipelineSpec::identity().compose(&p), p);
    }

    #[test]
    fn variants_depend_on_order_args_and_prefix() {
        let p1 = PipelineSpec::of(&["a", "b"]);
        let p2 = PipelineSpec::of(&["b", "a"]);
        let q = args("25");
        assert_ne!(p1.final_variant(&q), p2.final_variant(&q));
        assert_ne!(p1.final_variant(&q), p1.final_variant(&args("50")));
        assert_ne!(p1.variant_of_prefix(1, &q), p1.variant_of_prefix(2, &q));
        assert_eq!(p1.variant_of_prefix(0, &q), 0, "prefix 0 is the original");
        assert_ne!(p1.final_variant(&q), 0);
    }

    #[test]
    fn prefix_variants_are_shared_across_longer_pipelines() {
        // A cached intermediate from [a] is reusable when running [a, b].
        let short = PipelineSpec::of(&["a"]);
        let long = PipelineSpec::of(&["a", "b"]);
        let q = args("25");
        assert_eq!(
            short.final_variant(&q),
            long.variant_of_prefix(1, &q),
            "same prefix ⇒ same cached variant"
        );
    }
}
