//! Property tests for the TACC layer: args merging, variant hashing and
//! pipeline-prefix caching discipline.

use std::collections::BTreeMap;
use std::sync::Arc;

use sns_testkit::{gens, props, tk_assert, tk_assert_eq, tk_assert_ne, tk_assume, Gen};

use sns_tacc::pipeline::PipelineSpec;
use sns_tacc::worker::TaccArgs;

fn kv_map() -> Gen<BTreeMap<String, String>> {
    gens::btree_map(
        gens::string("[a-z]{1,6}"),
        gens::string("[a-z0-9]{0,6}"),
        0..6,
    )
}

fn stages() -> Gen<Vec<String>> {
    gens::vec(gens::string("[a-z]{1,8}"), 0..5)
}

props! {
    fn profile_always_wins_over_defaults(defaults in kv_map(), profile in kv_map()) {
        let merged = TaccArgs::merged(&Arc::new(defaults.clone()), Some(&Arc::new(profile.clone())));
        for (k, v) in &profile {
            tk_assert_eq!(merged.get(k), Some(v.as_str()));
        }
        for (k, v) in &defaults {
            if !profile.contains_key(k) {
                tk_assert_eq!(merged.get(k), Some(v.as_str()));
            }
        }
    }

    fn merged_shares_a_covering_profile_and_else_equals_the_copying_merge(
        defaults in kv_map(),
        profile in kv_map(),
        cover in gens::any_bool(),
    ) {
        let mut profile = profile;
        if cover {
            for (k, v) in &defaults {
                profile.entry(k.clone()).or_insert_with(|| v.clone());
            }
        }
        // The merge as it was before args shared their map: copy the
        // defaults, then write every profile entry over them.
        let mut copied = defaults.clone();
        for (k, v) in &profile {
            copied.insert(k.clone(), v.clone());
        }
        let (defaults, profile) = (Arc::new(defaults), Arc::new(profile));
        let merged = TaccArgs::merged(&defaults, Some(&profile));
        tk_assert_eq!(merged.as_map().as_ref(), &copied);
        let covers = defaults.keys().all(|k| profile.contains_key(k));
        tk_assert_eq!(Arc::ptr_eq(merged.as_map(), &profile), covers);
        tk_assert!(Arc::ptr_eq(TaccArgs::merged(&defaults, None).as_map(), &defaults));
    }

    fn variant_hash_is_stable_and_never_original(
        map in kv_map(),
        worker in gens::string("[a-z]{1,8}"),
    ) {
        let a = TaccArgs::from_map(map.clone());
        let b = TaccArgs::from_map(map);
        tk_assert_eq!(a.variant_hash(&worker), b.variant_hash(&worker));
        tk_assert_ne!(a.variant_hash(&worker), 0, "0 is reserved for originals");
    }

    fn pipeline_prefixes_share_variants_with_shorter_pipelines(
        st in stages(),
        map in kv_map(),
    ) {
        let args = TaccArgs::from_map(map);
        let full = PipelineSpec::of(&st.iter().map(String::as_str).collect::<Vec<_>>());
        for cut in 0..=st.len() {
            let shorter = PipelineSpec::of(
                &st[..cut].iter().map(String::as_str).collect::<Vec<_>>(),
            );
            tk_assert_eq!(
                shorter.final_variant(&args),
                full.variant_of_prefix(cut, &args),
                "prefix {} must cache under the same variant",
                cut
            );
        }
    }

    fn composition_is_associative_for_arbitrary_pipelines(
        a in stages(), b in stages(), c in stages(),
    ) {
        let p = |v: &Vec<String>| {
            PipelineSpec::of(&v.iter().map(String::as_str).collect::<Vec<_>>())
        };
        let left = p(&a).compose(&p(&b)).compose(&p(&c));
        let right = p(&a).compose(&p(&b).compose(&p(&c)));
        tk_assert_eq!(left, right);
    }

    fn distinct_stage_orders_get_distinct_variants(
        st in gens::vec(gens::string("[a-z]{2,6}"), 2..5),
        map in kv_map(),
    ) {
        let mut st = st;
        st.dedup();
        tk_assume!(st.len() >= 2);
        let args = TaccArgs::from_map(map);
        let fwd = PipelineSpec::of(&st.iter().map(String::as_str).collect::<Vec<_>>());
        let mut rev_stages = st.clone();
        rev_stages.reverse();
        tk_assume!(rev_stages != st);
        let rev = PipelineSpec::of(&rev_stages.iter().map(String::as_str).collect::<Vec<_>>());
        tk_assert_ne!(fwd.final_variant(&args), rev.final_variant(&args));
    }
}
