//! Cross-crate TACC composition: real distiller chains executed through
//! the worker host adapter, variant-hash cache-key discipline, and the
//! rewebber round trip — the §2.3 "Unix pipeline" claim.

use std::collections::BTreeMap;
use std::sync::Arc;

use cluster_sns::core::msg::Job;
use cluster_sns::core::payload_as;
use cluster_sns::core::worker::WorkerLogic;
use cluster_sns::distillers::{GifDistiller, HtmlMunger, KeywordFilter};
use cluster_sns::sim::ComponentId;
use cluster_sns::sim::{Pcg32, SimTime};
use cluster_sns::tacc::content::{synth_html, Body, ContentObject};
use cluster_sns::tacc::pipeline::PipelineSpec;
use cluster_sns::tacc::worker::{TaccArgs, TaccWorkerHost};
use cluster_sns::workload::MimeType;

fn run_stage(
    host: &mut TaccWorkerHost,
    obj: ContentObject,
    profile: &BTreeMap<String, String>,
    rng: &mut Pcg32,
) -> ContentObject {
    let job = Job {
        id: 1,
        class: host.class(),
        op: "transform",
        input: obj.into_payload(),
        profile: Some(Arc::new(profile.clone())),
        reply_to: ComponentId(1),
        sampled: true,
    };
    let out = host.process(&job, SimTime::ZERO, rng).expect("stage ok");
    payload_as::<ContentObject>(&out).expect("content").clone()
}

#[test]
fn html_then_keyword_chain_does_both_transformations() {
    let mut rng = Pcg32::new(1);
    let mut munger = TaccWorkerHost::transformer(Box::new(HtmlMunger::new()), BTreeMap::new());
    let mut filter = TaccWorkerHost::transformer(Box::new(KeywordFilter::new()), BTreeMap::new());
    let words: Vec<&str> = "the cluster serves network services with cluster workers over and over"
        .split(' ')
        .collect();
    let page = ContentObject::text(
        "http://h/p",
        MimeType::Html,
        synth_html("http://h/p", 2, &words),
    );
    let mut profile = BTreeMap::new();
    profile.insert("keywords".to_string(), "cluster".to_string());
    profile.insert("quality".to_string(), "25".to_string());

    let munged = run_stage(&mut munger, page, &profile, &mut rng);
    let filtered = run_stage(&mut filter, munged, &profile, &mut rng);

    assert_eq!(filtered.lineage, vec!["html", "keyword"]);
    let Body::Text(t) = &filtered.body else {
        panic!("text body")
    };
    assert!(t.contains("transend-toolbar"), "munger stage applied");
    assert!(t.contains("ts-original=1"), "original links added");
    assert!(
        t.contains("color:red"),
        "keyword stage applied on the munged output"
    );
    // The keyword filter must not have mangled the markup the munger
    // produced (attributes are exempt from highlighting).
    assert!(t.contains("data-ts-quality=\"25\""));
}

#[test]
fn pipeline_variants_isolate_users_with_different_args() {
    let pipeline = PipelineSpec::of(&["gif"]);
    let low = TaccArgs::from_map(BTreeMap::from([("quality".to_string(), "10".to_string())]));
    let high = TaccArgs::from_map(BTreeMap::from([("quality".to_string(), "90".to_string())]));
    // Different preferences must cache under different variants…
    assert_ne!(pipeline.final_variant(&low), pipeline.final_variant(&high));
    // …and actually produce different bytes.
    let mut rng = Pcg32::new(2);
    let mut gif = GifDistiller::new();
    use cluster_sns::tacc::worker::TaccWorker;
    let img = ContentObject::synthetic("u", MimeType::Gif, 30_000);
    let small = gif.transform(&img, &low, &mut rng).unwrap();
    let large = gif.transform(&img, &high, &mut rng).unwrap();
    assert!(small.len() < large.len());
}

#[test]
fn worker_host_enforces_mime_discipline_across_the_chain() {
    let mut rng = Pcg32::new(3);
    let mut gif = TaccWorkerHost::transformer(Box::new(GifDistiller::new()), BTreeMap::new());
    // GIF distiller outputs JPEG (format conversion): feeding its output
    // back into itself must be rejected as a soft failure, which the
    // front end turns into a fallback, not a crash.
    let img = ContentObject::synthetic("u", MimeType::Gif, 10_000);
    let once = run_stage(&mut gif, img, &BTreeMap::new(), &mut rng);
    assert_eq!(once.mime, MimeType::Jpeg);
    let job = Job {
        id: 2,
        class: gif.class(),
        op: "transform",
        input: once.into_payload(),
        profile: None,
        reply_to: ComponentId(1),
        sampled: true,
    };
    let err = gif.process(&job, SimTime::ZERO, &mut rng);
    assert!(matches!(
        err,
        Err(cluster_sns::core::worker::WorkerError::Failed(_))
    ));
}
