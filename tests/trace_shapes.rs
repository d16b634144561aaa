//! Shape checks on the end-to-end request traces (`sns_core::trace`):
//! a TranSend run with tracing on must export one valid JSON object per
//! span as JSONL, and each request's depth-1 child spans —
//! front-end overhead plus the dispatches issued on its behalf — must
//! partition the request's lifetime exactly, so the per-stage latency
//! breakdown (Figure 7) sums to the measured end-to-end latency.
//!
//! The Perfetto protobuf exporter gets its own checks: a golden-bytes
//! round trip over a small fixed log (any byte change is a format
//! break someone must consciously re-bless), and a property test over
//! generated span trees asserting the encoded TrackEvent stream
//! preserves every parent/child edge and timestamp through a minimal
//! independent protobuf reader.
//!
//! The workload is pass-through (`MimeType::Other` → identity
//! pipeline): the only dispatch that *overlaps* the reply is the
//! fire-and-forget cache inject, which starts exactly at reply time
//! and is therefore excluded by the strict `start < end` filter below.

use std::time::Duration;

use std::collections::BTreeMap;

use cluster_sns::core::trace::{
    job_span_id, normalized, queue_span_id, request_span_id, span, to_jsonl, to_perfetto, SpanId,
    SpanRecord, TraceLog,
};
use cluster_sns::sim::{ComponentId, SimTime};
use cluster_sns::transend::TranSendBuilder;
use cluster_sns::workload::trace::TraceRecord;
use cluster_sns::workload::MimeType;
use sns_testkit::{gens, props, tk_assert, tk_assert_eq};

/// A small pass-through workload: distinct binary objects, one request
/// every 400 ms.
fn passthrough_items(n: u64) -> Vec<(Duration, TraceRecord)> {
    (0..n)
        .map(|i| {
            (
                Duration::from_millis(400 * i),
                TraceRecord {
                    at: Duration::from_millis(400 * i),
                    user: 7,
                    url: format!("bin://object/{i}"),
                    mime: MimeType::Other,
                    size: 16 * 1024,
                },
            )
        })
        .collect()
}

/// Minimal structural JSON validation: balanced braces/brackets outside
/// strings, correct escape handling, nothing after the top-level value.
fn assert_valid_json(s: &str) {
    let mut depth: i64 = 0;
    let mut in_str = false;
    let mut escaped = false;
    let mut closed = false;
    for c in s.chars() {
        if closed {
            panic!("trailing garbage after top-level JSON value");
        }
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced close");
                if depth == 0 {
                    closed = true;
                }
            }
            _ => {}
        }
    }
    assert!(closed, "JSON value never closed");
}

#[test]
fn transend_trace_is_valid_jsonl_and_spans_sum_to_latency() {
    let mut cluster = TranSendBuilder::new()
        .with_seed(0x7a11)
        .with_worker_nodes(5)
        .with_frontends(1)
        .with_cache_partitions(2)
        .with_min_distillers(1)
        .with_origin_penalty_scale(0.1)
        .with_tracing(true)
        .build();
    let report = cluster.attach_client(passthrough_items(12), Duration::from_secs(3));
    cluster.sim.run_until(SimTime::from_secs(60));
    assert_eq!(report.borrow().responses, 12, "all requests answered");

    let log = cluster.trace().expect("tracing was enabled");
    assert!(!log.is_empty());

    // JSONL export: one structurally valid JSON object per span.
    let jsonl = to_jsonl(&log);
    assert_eq!(jsonl.lines().count(), log.len());
    jsonl.lines().for_each(assert_valid_json);

    // The normalized rendering has one root per answered request.
    let tree = normalized(&log);
    let roots = tree.lines().filter(|l| l.starts_with("req:")).count();
    assert_eq!(roots, 12, "one request root per response:\n{tree}");

    // Figure-7 property: every request's depth-1 children (overhead +
    // dispatches started strictly before the reply) partition its
    // lifetime, so stage durations sum to end-to-end latency.
    let mut requests = 0u64;
    for root in log.spans().iter().filter(|s| s.id.kind == "req") {
        requests += 1;
        let children: Vec<_> = log
            .spans()
            .iter()
            .filter(|s| s.parent == Some(root.id) && s.start < root.end)
            .collect();
        assert!(
            children.len() >= 2,
            "request {} should break into overhead + dispatches",
            root.id.render()
        );
        let stage_sum: u128 = children.iter().map(|s| s.duration().as_nanos()).sum();
        assert_eq!(
            stage_sum,
            root.duration().as_nanos(),
            "stages of {} must sum to its end-to-end latency (children: {:?})",
            root.id.render(),
            children
        );
    }
    assert_eq!(requests, 12);
}

// ---------------------------------------------------------------------
// Minimal protobuf reader for the Perfetto export — written against the
// wire format directly (varint + length-delimited fields only), so the
// exporter is checked by something other than its own code.
// ---------------------------------------------------------------------

enum Field<'a> {
    Varint(u64),
    Bytes(&'a [u8]),
}

fn read_varint(buf: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = buf[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Splits a message into `(field_number, field)` pairs.
fn read_fields(buf: &[u8]) -> Vec<(u32, Field<'_>)> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < buf.len() {
        let key = read_varint(buf, &mut pos);
        let field = (key >> 3) as u32;
        match key & 7 {
            0 => out.push((field, Field::Varint(read_varint(buf, &mut pos)))),
            2 => {
                let len = read_varint(buf, &mut pos) as usize;
                out.push((field, Field::Bytes(&buf[pos..pos + len])));
                pos += len;
            }
            wt => panic!("unexpected wire type {wt} for field {field}"),
        }
    }
    out
}

/// The decoded shape of a Perfetto export: named tracks with their
/// parent edges, plus the flat `(timestamp, track, type)` event stream.
struct Decoded {
    /// track uuid → (name, parent uuid; 0 = none).
    tracks: BTreeMap<u64, (String, u64)>,
    /// (timestamp ns, track uuid, TrackEvent type).
    events: Vec<(u64, u64, u64)>,
}

fn decode_perfetto(bytes: &[u8]) -> Decoded {
    let mut d = Decoded {
        tracks: BTreeMap::new(),
        events: Vec::new(),
    };
    for (field, packet) in read_fields(bytes) {
        assert_eq!(field, 1, "top level is Trace.packet only");
        let Field::Bytes(packet) = packet else {
            panic!("packet must be length-delimited");
        };
        let mut ts = 0u64;
        for (field, value) in read_fields(packet) {
            match (field, value) {
                (8, Field::Varint(v)) => ts = v,
                (10, Field::Varint(seq)) => assert_eq!(seq, 1, "one trusted sequence"),
                (60, Field::Bytes(desc)) => {
                    let (mut uuid, mut name, mut parent) = (0, String::new(), 0);
                    for (field, value) in read_fields(desc) {
                        match (field, value) {
                            (1, Field::Varint(v)) => uuid = v,
                            (2, Field::Bytes(b)) => name = String::from_utf8(b.to_vec()).unwrap(),
                            (5, Field::Varint(v)) => parent = v,
                            _ => panic!("unexpected TrackDescriptor field {field}"),
                        }
                    }
                    let prev = d.tracks.insert(uuid, (name, parent));
                    assert!(prev.is_none(), "track {uuid} described twice");
                }
                (11, Field::Bytes(ev)) => {
                    let (mut kind, mut track) = (0, 0);
                    for (field, value) in read_fields(ev) {
                        match (field, value) {
                            (9, Field::Varint(v)) => kind = v,
                            (11, Field::Varint(v)) => track = v,
                            (22, Field::Bytes(_)) | (23, Field::Bytes(_)) => {}
                            _ => panic!("unexpected TrackEvent field {field}"),
                        }
                    }
                    d.events.push((ts, track, kind));
                }
                _ => panic!("unexpected TracePacket field {field}"),
            }
        }
    }
    d
}

/// A three-span log (request → dispatch → queue wait) plus a monitor
/// instant, fixed for the golden-bytes check.
fn golden_log() -> TraceLog {
    let fe = ComponentId(5);
    let w = ComponentId(9);
    let req = request_span_id(fe, 1);
    let job = job_span_id(fe, 1);
    let mut log = TraceLog::new();
    log.push(span(
        req,
        None,
        "request",
        "fe",
        fe,
        "",
        SimTime::ZERO,
        SimTime::from_millis(9),
        640,
        true,
    ));
    log.push(span(
        job,
        Some(req),
        "dispatch",
        "stub",
        w,
        "echo",
        SimTime::from_millis(2),
        SimTime::from_millis(9),
        640,
        true,
    ));
    log.push(span(
        queue_span_id(w, 1),
        Some(job),
        "queue_wait",
        "worker",
        w,
        "echo",
        SimTime::from_millis(3),
        SimTime::from_millis(4),
        0,
        true,
    ));
    log.push_instant("beacon_miss", "monitor", fe, SimTime::from_millis(6));
    log
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn perfetto_export_matches_the_golden_bytes_and_round_trips() {
    let bytes = to_perfetto(&golden_log());
    assert_eq!(
        hex(&bytes),
        concat!(
            "0a0b5001e203060806120263350a1c5001e2031708e0b7d486f7eff5c4fb0112",
            "087265713a63353a3128060a22400050015a1c480158e0b7d486f7eff5c4fb01",
            "b201026665ba0107726571756573740a1640c0a8a50450015a0d480258e0b7d4",
            "86f7eff5c4fb010a0b5001e20306080a120263390a255001e20320089dbc95f9",
            "c0d9cafe9c0112086a6f623a63353a3128e0b7d486f7eff5c4fb010a27408089",
            "7a50015a1f4801589dbc95f9c0d9cafe9c01b2010473747562ba010864697370",
            "617463680a1640c0a8a50450015a0d4802589dbc95f9c0d9cafe9c010a245001",
            "e2031f08a6cb97accdb4cc909201120777713a63393a31289dbc95f9c0d9cafe",
            "9c010a2c40c08db70150015a23480158a6cb97accdb4cc909201b20106776f72",
            "6b6572ba010a71756575655f776169740a16408092f40150015a0d480258a6cb",
            "97accdb4cc9092010a2540809bee0250015a1c48035806b201076d6f6e69746f",
            "72ba010b626561636f6e5f6d697373",
        ),
        "Perfetto encoding changed; if intentional, re-bless the golden hex"
    );

    let d = decode_perfetto(&bytes);
    // Tracks: two component tracks (c5, c9) + one per non-monitor span.
    assert_eq!(d.tracks.len(), 5, "2 component + 3 span tracks");
    let by_name: BTreeMap<&str, u64> = d
        .tracks
        .iter()
        .map(|(uuid, (name, _))| (name.as_str(), *uuid))
        .collect();
    let parent_of = |name: &str| d.tracks[&by_name[name]].1;
    assert_eq!(
        parent_of("req:c5:1"),
        by_name["c5"],
        "root hangs off its component"
    );
    assert_eq!(parent_of("job:c5:1"), by_name["req:c5:1"]);
    assert_eq!(parent_of("wq:c9:1"), by_name["job:c5:1"]);
    // Events: begin+end per span, one instant on the component track.
    let ms = |v: u64| v * 1_000_000;
    assert_eq!(
        d.events,
        vec![
            (0, by_name["req:c5:1"], 1),
            (ms(9), by_name["req:c5:1"], 2),
            (ms(2), by_name["job:c5:1"], 1),
            (ms(9), by_name["job:c5:1"], 2),
            (ms(3), by_name["wq:c9:1"], 1),
            (ms(4), by_name["wq:c9:1"], 2),
            (ms(6), by_name["c5"], 3),
        ]
    );
}

/// Raw material for one generated span: (parent choice, start, extra).
type RawSpan = (u64, u64, u64);

/// Decodes a generated raw tuple list into a well-formed span forest:
/// node `i` may only parent under an earlier node, so emission order is
/// causal order, like the real tracer's.
fn forest(raw: &[RawSpan]) -> Vec<SpanRecord> {
    raw.iter()
        .enumerate()
        .map(|(i, &(pick, start, extra))| {
            let parent = (i > 0 && pick % (i as u64 + 1) != 0).then(|| (pick % i as u64) as usize);
            let id = SpanId {
                kind: "job",
                owner: ComponentId(1 + extra % 3),
                n: i as u64 + 1,
            };
            span(
                id,
                parent.map(|p| SpanId {
                    kind: "job",
                    owner: ComponentId(1 + raw[p].2 % 3),
                    n: p as u64 + 1,
                }),
                "dispatch",
                "stub",
                ComponentId(1 + extra % 3),
                "echo",
                SimTime::from_nanos(start),
                SimTime::from_nanos(start + 1 + extra % 1_000_000),
                0,
                true,
            )
        })
        .collect()
}

props! {
    /// Any causally ordered span forest survives Perfetto encoding:
    /// every span's track exists, parents under its causal parent's
    /// track (or its component's, for roots), and carries begin/end
    /// events at exactly the span's start/end nanosecond timestamps.
    fn perfetto_preserves_nesting_and_timestamps(
        raw in gens::vec(
            gens::u64_in(0..u64::MAX).flat_map(|a| {
                gens::u64_in(0..1_000_000_000)
                    .flat_map(move |b| gens::u64_in(0..u64::MAX).map(move |c| (a, b, c)))
            }),
            1..16,
        )
    ) {
        let spans = forest(&raw);
        let mut log = TraceLog::new();
        for s in &spans {
            log.push(*s);
        }
        let d = decode_perfetto(&to_perfetto(&log));
        let by_name: BTreeMap<String, u64> = d
            .tracks
            .iter()
            .map(|(uuid, (name, _))| (name.clone(), *uuid))
            .collect();
        for s in &spans {
            let uuid = *by_name
                .get(&s.id.render())
                .expect("every span got a described track");
            let want_parent = match s.parent {
                Some(p) => by_name[&p.render()],
                None => by_name[&format!("c{}", s.who.0)],
            };
            tk_assert_eq!(d.tracks[&uuid].1, want_parent, "parent edge of {}", s.id.render());
            let begin = d.events.iter().position(|&e| e == (s.start.as_nanos(), uuid, 1));
            let end = d.events.iter().position(|&e| e == (s.end.as_nanos(), uuid, 2));
            tk_assert!(begin.is_some(), "begin event of {}", s.id.render());
            tk_assert!(end.is_some(), "end event of {}", s.id.render());
            tk_assert!(begin < end, "begin precedes end for {}", s.id.render());
        }
        // Nothing extra: two events per span, no stray tracks.
        tk_assert_eq!(d.events.len(), spans.len() * 2);
        let components: std::collections::BTreeSet<u64> =
            spans.iter().map(|s| s.who.0).collect();
        tk_assert_eq!(d.tracks.len(), spans.len() + components.len());
    }
}
