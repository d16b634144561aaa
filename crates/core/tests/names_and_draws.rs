//! Class names and worker draws stay what they were when a class held an
//! `Arc<str>` and the lottery built its ticket list: beacon hint order,
//! lottery candidates and every RNG draw depend on both.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use sns_testkit::{gens, props, tk_assert_eq};

use sns_core::control::{DispatchEffect, DispatchPlane};
use sns_core::msg::{BeaconData, WorkerHint};
use sns_core::trace::SpanCtx;
use sns_core::{Blob, SnsConfig, WorkerClass};
use sns_sim::rng::Pcg32;
use sns_sim::time::SimTime;
use sns_sim::{ComponentId, NodeId};

fn hash_of(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

#[test]
fn a_literal_class_is_the_interned_class() {
    let literal = WorkerClass::from("distiller/gif");
    let interned = WorkerClass::new(String::from("distiller/gif"));
    assert_eq!(literal, interned);
    assert_eq!(hash_of(&literal), hash_of(&interned));
    assert_eq!(literal.cmp(&interned), std::cmp::Ordering::Equal);
    assert_eq!(interned.name(), "distiller/gif");
}

/// The lottery as it was: collect the candidates' tickets into a
/// vector, then `Pcg32::weighted` over it (its body copied here, so a
/// change to the library's version cannot move this reference).
fn vec_lottery(rng: &mut Pcg32, candidates: &[(ComponentId, f64)]) -> Option<ComponentId> {
    if candidates.is_empty() {
        return None;
    }
    let tickets: Vec<f64> = candidates
        .iter()
        .map(|&(_, est)| 1.0 / (1.0 + est))
        .collect();
    let total: f64 = tickets.iter().sum();
    assert!(total > 0.0, "weights must have positive sum");
    let mut x = rng.f64() * total;
    for (i, w) in tickets.iter().enumerate() {
        x -= w;
        if x < 0.0 {
            return Some(candidates[i].0);
        }
    }
    Some(candidates[tickets.len() - 1].0)
}

props! {
    fn classes_compare_hash_and_sort_by_content_as_arc_str_did(
        names in gens::vec(gens::string("[a-z/0-9]{0,6}"), 0..12),
    ) {
        let statics: Vec<&'static str> =
            names.iter().map(|n| &*Box::leak(n.clone().into_boxed_str())).collect();
        // Literals and interned copies of the same names, interleaved.
        let mut classes: Vec<WorkerClass> = statics
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                if i % 2 == 0 {
                    WorkerClass::from(n)
                } else {
                    WorkerClass::new(n)
                }
            })
            .collect();
        let mut arcs: Vec<Arc<str>> = names.iter().map(|n| Arc::from(n.as_str())).collect();
        for ((name, &s), c) in names.iter().zip(&statics).zip(&classes) {
            tk_assert_eq!(*c, WorkerClass::new(name));
            tk_assert_eq!(hash_of(c), hash_of(&WorkerClass::from(s)));
        }
        classes.sort();
        arcs.sort();
        let sorted: Vec<&str> = classes.iter().map(|c| c.name()).collect();
        let expected: Vec<&str> = arcs.iter().map(|a| &**a).collect();
        tk_assert_eq!(sorted, expected);
    }

    fn vector_free_lottery_draws_as_the_ticket_vector_did(
        qlens in gens::vec(gens::f64_in(0.0..12.0), 1..9),
        pinned in gens::vec(gens::usize_in(0..9), 0..12),
        delta_correction in gens::any_bool(),
        seed in gens::any_u64(),
    ) {
        let class = WorkerClass::from("w");
        let workers: Vec<ComponentId> =
            (0..qlens.len() as u64).map(|i| ComponentId(10 + i)).collect();
        let hints = workers
            .iter()
            .zip(&qlens)
            .map(|(&worker, &est_qlen)| WorkerHint {
                worker,
                node: NodeId(0),
                est_qlen,
                overflow: false,
            })
            .collect();
        let mut plane = DispatchPlane::new(SnsConfig::default());
        plane.set_delta_correction(delta_correction);
        plane.on_beacon(&BeaconData {
            manager: ComponentId(1),
            incarnation: 1,
            hints: BTreeMap::from([(class, hints)]),
            at: SimTime::ZERO,
        });
        // Deltas: pinned dispatches raise their workers' estimates.
        let mut out = Vec::new();
        for &i in &pinned {
            let worker = workers[i % workers.len()];
            let (input, span) = (Blob::payload(1, "x"), SpanCtx::root());
            let t = SimTime::ZERO;
            plane.dispatch_to(t, ComponentId(2), worker, class, "op", input, None, span, &mut out);
        }
        let candidates: Vec<(ComponentId, f64)> = workers
            .iter()
            .map(|&w| (w, plane.estimate(&class, w).expect("hinted")))
            .collect();
        let mut reference = Pcg32::new(seed);
        let want = vec_lottery(&mut reference, &candidates);

        let mut rng = Pcg32::new(seed);
        out.clear();
        let (input, span) = (Blob::payload(1, "x"), SpanCtx::root());
        let t = SimTime::ZERO;
        plane.dispatch(&mut rng, t, ComponentId(2), class, "op", input, None, span, &mut out);
        let got = out.iter().find_map(|e| match e {
            DispatchEffect::SendJob { worker, .. } => Some(*worker),
            _ => None,
        });
        tk_assert_eq!(got, want);
        tk_assert_eq!(rng.next_u64(), reference.next_u64(), "same draws consumed");
    }
}
