//! Property tests for the workload model: trace serialisation
//! round-trips, object identity is stable, and samplers stay within
//! bounds.

use std::time::Duration;

use sns_testkit::{gens, props, tk_assert, tk_assert_eq, Gen};

use sns_sim::rng::Pcg32;
use sns_workload::trace::{Trace, TraceGenerator, TraceRecord, WorkloadConfig};
use sns_workload::zipf::Zipf;
use sns_workload::MimeType;

fn record_gen() -> Gen<TraceRecord> {
    let ns = gens::u64_in(0..1_000_000_000);
    let user = gens::any_u32();
    let url = gens::string("[a-zA-Z0-9/:._-]{1,40}");
    let mime = gens::usize_in(0..4);
    let size = gens::u64_in(1..1_000_000);
    Gen::new(move |src| TraceRecord {
        at: Duration::from_nanos(ns.run(src)),
        user: user.run(src),
        url: url.run(src),
        mime: [
            MimeType::Gif,
            MimeType::Html,
            MimeType::Jpeg,
            MimeType::Other,
        ][mime.run(src)],
        size: size.run(src),
    })
}

props! {
    fn tsv_roundtrip_arbitrary_records(records in gens::vec(record_gen(), 0..40)) {
        let mut records = records;
        records.sort_by_key(|r| r.at);
        let trace = Trace { records };
        let parsed = Trace::from_tsv(&trace.to_tsv()).unwrap();
        tk_assert_eq!(parsed.records, trace.records);
    }

    fn object_identity_is_stable_across_generators(seed in gens::any_u64()) {
        let cfg = WorkloadConfig {
            seed,
            users: 20,
            shared_objects: 50,
            private_per_user: 5,
            ..Default::default()
        };
        let mut g1 = TraceGenerator::new(cfg.clone());
        let mut g2 = TraceGenerator::new(cfg);
        let t1 = g1.constant_rate(20.0, Duration::from_secs(10));
        let t2 = g2.constant_rate(20.0, Duration::from_secs(10));
        tk_assert_eq!(t1.records, t2.records);
    }

    fn zipf_samples_in_range(
        n in gens::usize_in(1..5000),
        alpha in gens::f64_in(0.1..2.5),
        seed in gens::any_u64(),
    ) {
        let z = Zipf::new(n, alpha);
        let mut rng = Pcg32::new(seed);
        for _ in 0..200 {
            tk_assert!(z.sample(&mut rng) < n);
        }
    }
}
