//! End-to-end request tracing (see `OBSERVABILITY.md`): the span model
//! the SNS layer emits and the std-only exporters that turn a recorded
//! [`TraceLog`] into something a human (or a trace viewer) can read.
//!
//! The recording substrate — [`Tracer`], [`SpanId`], [`SpanRecord`],
//! [`TraceLog`] — lives in `sns_sim::trace` because the engine kernel
//! holds the tracer; this module re-exports it and adds everything
//! SNS-specific on top:
//!
//! * **the id scheme**: request spans are numbered by the front end
//!   that admitted them ([`request_span_id`]); job spans are derived
//!   from the dispatching component and the [`crate::msg::Job`] id
//!   ([`job_span_id`]), which is exactly the pair (`reply_to`, `id`)
//!   that travels inside the job message — so a worker can parent its
//!   queue/service spans under the dispatch span *without any extra
//!   protocol field*, in both backends;
//! * **two exporters**: newline-delimited JSON ([`to_jsonl`]), the
//!   byte-stable form the determinism goldens and diffs read, and the
//!   Perfetto *protobuf* format ([`PerfettoSink`], [`to_perfetto`]) —
//!   a hand-rolled, std-only TrackEvent encoder that streams packets
//!   with bounded memory — for viewing in ui.perfetto.dev;
//! * **head sampling** ([`Sampling`], [`SpanCtx`]): the always-on
//!   production mode — one keep/skip decision per request made where
//!   the request enters the system and carried through the `Job`, so
//!   both backends sample identical request sets for the same seed;
//! * **the parity rendering** ([`normalized`]): a timestamp-free,
//!   identity-free rendering of the causal forest, byte-comparable
//!   between a simulator run (virtual time) and a threaded-runtime run
//!   (wall-clock time) of the same scenario.
//!
//! Span names, categories and class tags are interned `&'static str`s
//! (the `sns_sim::intern` pool that also backs `MetricKey`), so span
//! construction on the hot path never allocates.
//!
//! ## Example
//!
//! ```
//! use sns_core::trace::{self, Tracer};
//! use sns_sim::{ComponentId, SimTime};
//!
//! let tracer = Tracer::enabled();
//! tracer.record(trace::span(
//!     trace::request_span_id(ComponentId(7), 1),
//!     None,
//!     trace::REQUEST,
//!     trace::CAT_FE,
//!     ComponentId(7),
//!     "",
//!     SimTime::ZERO,
//!     SimTime::from_millis(12),
//!     1024,
//!     true,
//! ));
//! let log = tracer.snapshot().unwrap();
//! assert!(trace::to_jsonl(&log).starts_with("{\"id\":\"req:c7:1\""));
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::hash::Hasher;
use std::io;

use sns_sim::hash::Fnv1a;
use sns_sim::time::SimTime;
use sns_sim::ComponentId;

pub use sns_sim::trace::{Sampling, SpanId, SpanRecord, TraceLog, Tracer};

/// Span context a caller hands to a dispatch: the causal parent (the
/// front end's request span) plus the request's head-sampling decision.
/// Both travel together because a dispatch span must never be kept
/// while its request span is dropped (or vice versa) — sampling keeps
/// whole trees.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanCtx {
    /// Causal parent for the dispatch span, when the caller has one.
    pub parent: Option<SpanId>,
    /// The head decision already made for this request, or `None` for a
    /// root dispatch — then the dispatch plane decides from the job id.
    pub sampled: Option<bool>,
}

impl SpanCtx {
    /// A root dispatch with no enclosing request: the plane makes the
    /// head decision from the job id, so sim and rt (where job ids
    /// align) sample the same set.
    pub fn root() -> Self {
        SpanCtx {
            parent: None,
            sampled: None,
        }
    }

    /// A dispatch under `parent` whose request already decided
    /// `sampled` at admission.
    pub fn under(parent: SpanId, sampled: bool) -> Self {
        SpanCtx {
            parent: Some(parent),
            sampled: Some(sampled),
        }
    }
}

/// Root span covering one client request inside a front end.
pub const REQUEST: &str = "request";
/// Per-request TCP/kernel overhead burned before service logic runs.
pub const OVERHEAD: &str = "overhead";
/// A local front-end compute burst (page assembly, collation).
pub const COMPUTE: &str = "compute";
/// A dispatched job, from lottery to response (includes queue wait,
/// retries and the network in both directions).
pub const DISPATCH: &str = "dispatch";
/// Time a job waited in a worker's queue before service began.
pub const QUEUE: &str = "queue";
/// Time a worker spent servicing a job.
pub const SERVICE: &str = "service";

/// Category for spans emitted by the front-end framework.
pub const CAT_FE: &str = "fe";
/// Category for spans emitted by the dispatch plane (manager stub).
pub const CAT_STUB: &str = "stub";
/// Category for spans emitted by worker stubs / worker threads.
pub const CAT_WORKER: &str = "worker";
/// Category for instantaneous monitor events mirrored into the trace.
pub const CAT_MONITOR: &str = "monitor";

/// Id of the root span for request `req_id` admitted by front end `fe`.
pub fn request_span_id(fe: ComponentId, req_id: u64) -> SpanId {
    SpanId {
        kind: "req",
        owner: fe,
        n: req_id,
    }
}

/// Id of the dispatch span for job `job_id` dispatched by `reply_to`.
/// Both values travel inside [`crate::msg::Job`], so the worker side
/// derives the same id without extra protocol state.
pub fn job_span_id(reply_to: ComponentId, job_id: u64) -> SpanId {
    SpanId {
        kind: "job",
        owner: reply_to,
        n: job_id,
    }
}

/// Id of the admission-overhead span for request `req_id` on front end
/// `fe` (the §4.4 TCP/kernel cost burned before service logic runs).
pub fn overhead_span_id(fe: ComponentId, req_id: u64) -> SpanId {
    SpanId {
        kind: "ovh",
        owner: fe,
        n: req_id,
    }
}

/// Id of a local front-end compute span (`compute_id` is the front
/// end's compute counter, unique across its requests).
pub fn compute_span_id(fe: ComponentId, compute_id: u64) -> SpanId {
    SpanId {
        kind: "cpu",
        owner: fe,
        n: compute_id,
    }
}

/// Id of the queue-wait span for job `job_id` inside worker `worker`.
pub fn queue_span_id(worker: ComponentId, job_id: u64) -> SpanId {
    SpanId {
        kind: "wq",
        owner: worker,
        n: job_id,
    }
}

/// Id of the service span for job `job_id` inside worker `worker`.
pub fn service_span_id(worker: ComponentId, job_id: u64) -> SpanId {
    SpanId {
        kind: "ws",
        owner: worker,
        n: job_id,
    }
}

/// Builds a [`SpanRecord`] (plain constructor, mirrors the field
/// order; keeps emission sites to one expression).
#[allow(clippy::too_many_arguments)]
pub fn span(
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    cat: &'static str,
    who: ComponentId,
    class: &'static str,
    start: SimTime,
    end: SimTime,
    bytes: u64,
    ok: bool,
) -> SpanRecord {
    SpanRecord {
        id,
        parent,
        name,
        cat,
        who,
        class,
        start,
        end,
        bytes,
        ok,
    }
}

/// Renders `log` as newline-delimited JSON, one span per line, in
/// emission order, with the raw model fields (`id`, `parent`, `name`,
/// `cat`, `who`, `class`, `start_ns`, `end_ns`, `bytes`, `ok`).
/// Same-seed runs produce byte-identical output (this is the
/// determinism surface checked in `tests/determinism.rs`).
pub fn to_jsonl(log: &TraceLog) -> String {
    let mut out = String::new();
    for s in log.spans() {
        let _ = write!(out, "{{\"id\":\"{}\",", s.id.render());
        match s.parent {
            Some(p) => {
                let _ = write!(out, "\"parent\":\"{}\",", p.render());
            }
            None => out.push_str("\"parent\":null,"),
        }
        out.push_str("\"name\":\"");
        escape_into(&mut out, s.name);
        out.push_str("\",\"cat\":\"");
        escape_into(&mut out, s.cat);
        let _ = write!(out, "\",\"who\":{},\"class\":\"", s.who.0);
        escape_into(&mut out, s.class);
        let _ = writeln!(
            out,
            "\",\"start_ns\":{},\"end_ns\":{},\"bytes\":{},\"ok\":{}}}",
            s.start.as_nanos(),
            s.end.as_nanos(),
            s.bytes,
            s.ok
        );
    }
    out
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

// ---------------------------------------------------------------------
// Perfetto protobuf (TrackEvent) — hand-rolled, std-only.
//
// Wire layout (field numbers from perfetto's trace.proto family):
//   Trace            { repeated TracePacket packet = 1; }
//   TracePacket      { uint64 timestamp = 8;
//                      uint32 trusted_packet_sequence_id = 10;
//                      TrackEvent track_event = 11;
//                      TrackDescriptor track_descriptor = 60; }
//   TrackDescriptor  { uint64 uuid = 1; string name = 2;
//                      uint64 parent_uuid = 5; }
//   TrackEvent       { Type type = 9;  // 1=BEGIN 2=END 3=INSTANT
//                      uint64 track_uuid = 11;
//                      repeated string categories = 22;
//                      string name = 23; }
// ---------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn put_field_varint(out: &mut Vec<u8>, field: u32, v: u64) {
    put_varint(out, (field as u64) << 3); // wire type 0
    put_varint(out, v);
}

fn put_field_bytes(out: &mut Vec<u8>, field: u32, bytes: &[u8]) {
    put_varint(out, ((field as u64) << 3) | 2);
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// The TrackEvent `type` enum values this exporter emits.
const SLICE_BEGIN: u64 = 1;
const SLICE_END: u64 = 2;
const INSTANT: u64 = 3;

/// Track uuid of the component-level track for `who` (the parent of
/// root spans and the home of monitor instants). Offset by one so
/// `ComponentId(0)` never maps to uuid 0 (unset in proto semantics).
fn component_track_uuid(who: ComponentId) -> u64 {
    who.0 + 1
}

/// Track uuid of the per-span track: FNV-1a over the id triple with
/// the high bit forced, so span tracks can never collide with the
/// low-numbered component tracks.
fn span_track_uuid(id: SpanId) -> u64 {
    let mut h = Fnv1a::default();
    h.write(id.kind.as_bytes());
    h.write(&[0xff]);
    h.write(&id.owner.0.to_le_bytes());
    h.write(&id.n.to_le_bytes());
    h.finish() | (1 << 63)
}

/// Streaming Perfetto protobuf exporter: feed spans in log order via
/// [`PerfettoSink::span`], then [`PerfettoSink::finish`]. Memory is
/// bounded by the number of distinct *components* seen (one `u64` per
/// component track already described), never by the span count — each
/// span's track descriptor and begin/end events are written and
/// forgotten as the span arrives, so a long-running capture can stream
/// to disk indefinitely. Open the output at <https://ui.perfetto.dev>.
///
/// Every span gets its own track, parented (via `parent_uuid`) under
/// its causal parent's track — or under its component's track for
/// roots — so the viewer renders the exact causal tree and sibling
/// spans never collapse into one another.
pub struct PerfettoSink<W: io::Write> {
    w: W,
    /// Component tracks already described (bounded by component count).
    components: BTreeSet<u64>,
    err: Option<io::Error>,
}

impl<W: io::Write> PerfettoSink<W> {
    /// Creates a sink streaming packets into `w`.
    pub fn new(w: W) -> Self {
        PerfettoSink {
            w,
            components: BTreeSet::new(),
            err: None,
        }
    }

    fn packet(&mut self, body: &[u8]) {
        if self.err.is_some() {
            return;
        }
        let mut framed = Vec::with_capacity(body.len() + 4);
        put_field_bytes(&mut framed, 1, body); // Trace.packet
        if let Err(e) = self.w.write_all(&framed) {
            self.err = Some(e);
        }
    }

    /// Emits the component track descriptor once per component.
    fn ensure_component_track(&mut self, who: ComponentId) -> u64 {
        let uuid = component_track_uuid(who);
        if self.components.insert(uuid) {
            let mut desc = Vec::new();
            put_field_varint(&mut desc, 1, uuid);
            put_field_bytes(&mut desc, 2, format!("c{}", who.0).as_bytes());
            let mut body = Vec::new();
            put_field_varint(&mut body, 10, 1);
            put_field_bytes(&mut body, 60, &desc);
            self.packet(&body);
        }
        uuid
    }

    fn event(&mut self, ts: u64, track: u64, kind: u64, s: Option<&SpanRecord>) {
        let mut ev = Vec::new();
        put_field_varint(&mut ev, 9, kind);
        put_field_varint(&mut ev, 11, track);
        if let Some(s) = s {
            put_field_bytes(&mut ev, 22, s.cat.as_bytes());
            put_field_bytes(&mut ev, 23, s.name.as_bytes());
        }
        let mut body = Vec::new();
        put_field_varint(&mut body, 8, ts);
        put_field_varint(&mut body, 10, 1);
        put_field_bytes(&mut body, 11, &ev);
        self.packet(&body);
    }

    /// Consumes one span, in log order.
    pub fn span(&mut self, s: &SpanRecord) {
        let component = self.ensure_component_track(s.who);
        if s.id.kind == "mon" {
            // Monitor instants live on the component track directly.
            self.event(s.start.as_nanos(), component, INSTANT, Some(s));
            return;
        }
        let track = span_track_uuid(s.id);
        let parent = s.parent.map(span_track_uuid).unwrap_or(component);
        let mut desc = Vec::new();
        put_field_varint(&mut desc, 1, track);
        put_field_bytes(&mut desc, 2, s.id.render().as_bytes());
        put_field_varint(&mut desc, 5, parent);
        let mut body = Vec::new();
        put_field_varint(&mut body, 10, 1);
        put_field_bytes(&mut body, 60, &desc);
        self.packet(&body);
        if s.start == s.end {
            self.event(s.start.as_nanos(), track, INSTANT, Some(s));
        } else {
            self.event(s.start.as_nanos(), track, SLICE_BEGIN, Some(s));
            self.event(s.end.as_nanos(), track, SLICE_END, None);
        }
    }

    /// Flushes and returns the writer (or the first write error).
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Renders `log` as a complete Perfetto protobuf trace in memory.
/// Byte-deterministic per log; open the result at
/// <https://ui.perfetto.dev> (see `OBSERVABILITY.md`).
pub fn to_perfetto(log: &TraceLog) -> Vec<u8> {
    let mut sink = PerfettoSink::new(Vec::new());
    for s in log.spans() {
        sink.span(s);
    }
    sink.finish().expect("Vec<u8> writes are infallible")
}

/// Renders the causal forest without timestamps or component
/// identities: one line per span — `kind:n name cat class=<c> ok|fail`
/// — indented under its parent, roots sorted by (`kind`, `n`) and
/// children by (`start`, `kind`, `n`). Monitor instants are excluded.
///
/// Because worker *identity* is a scheduling decision (the lottery
/// draws from backend-local RNG streams) while the causal *shape* is
/// policy, this rendering is the sim-vs-rt parity surface used by
/// `tests/control_plane_parity.rs`: same scenario, byte-equal forests.
pub fn normalized(log: &TraceLog) -> String {
    let spans = log.spans();
    let mut roots: Vec<usize> = Vec::new();
    let mut children: BTreeMap<SpanId, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.id.kind == "mon" {
            continue;
        }
        match s.parent {
            Some(p) => children.entry(p).or_default().push(i),
            None => roots.push(i),
        }
    }
    let order = |&i: &usize| {
        let s = &spans[i];
        (s.start, s.id.kind, s.id.n)
    };
    roots.sort_by_key(|&i| (spans[i].id.kind, spans[i].id.n));
    for v in children.values_mut() {
        v.sort_by_key(order);
    }
    let mut out = String::new();
    let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&i| (i, 0)).collect();
    while let Some((i, depth)) = stack.pop() {
        let s = &spans[i];
        for _ in 0..depth {
            out.push_str("  ");
        }
        let _ = writeln!(
            out,
            "{}:{} {} {} class={} {}",
            s.id.kind,
            s.id.n,
            s.name,
            s.cat,
            if s.class.is_empty() { "-" } else { s.class },
            if s.ok { "ok" } else { "fail" }
        );
        if let Some(kids) = children.get(&s.id) {
            for &k in kids.iter().rev() {
                stack.push((k, depth + 1));
            }
        }
    }
    out
}

/// Direct children of `parent` in `log`, in emission order.
pub fn children_of(log: &TraceLog, parent: SpanId) -> Vec<&SpanRecord> {
    log.spans()
        .iter()
        .filter(|s| s.parent == Some(parent))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log() -> TraceLog {
        let t = Tracer::enabled();
        let fe = ComponentId(5);
        let w = ComponentId(9);
        let req = request_span_id(fe, 1);
        let job = job_span_id(fe, 1);
        t.record(span(
            job,
            Some(req),
            DISPATCH,
            CAT_STUB,
            w,
            "echo",
            SimTime::from_millis(2),
            SimTime::from_millis(9),
            640,
            true,
        ));
        t.record(span(
            queue_span_id(w, 1),
            Some(job),
            QUEUE,
            CAT_WORKER,
            w,
            "echo",
            SimTime::from_millis(3),
            SimTime::from_millis(4),
            0,
            true,
        ));
        t.record(span(
            req,
            None,
            REQUEST,
            CAT_FE,
            fe,
            "",
            SimTime::ZERO,
            SimTime::from_millis(9),
            640,
            true,
        ));
        t.instant("spawned", CAT_MONITOR, ComponentId(1), SimTime::ZERO);
        t.snapshot().unwrap()
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let out = to_jsonl(&log());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"id\":\"job:c5:1\",\"parent\":\"req:c5:1\""));
        assert!(lines[2].contains("\"parent\":null"));
        assert!(lines[2].contains("\"start_ns\":0,\"end_ns\":9000000"));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
            assert_eq!(l.matches('"').count() % 2, 0, "balanced quotes: {l}");
        }
    }

    #[test]
    fn normalized_drops_identity_and_time_but_keeps_shape() {
        let n = normalized(&log());
        assert_eq!(
            n,
            "req:1 request fe class=- ok\n  job:1 dispatch stub class=echo ok\n    wq:1 queue worker class=echo ok\n"
        );
    }

    #[test]
    fn children_lookup_follows_parent_links() {
        let l = log();
        let kids = children_of(&l, request_span_id(ComponentId(5), 1));
        assert_eq!(kids.len(), 1);
        assert_eq!(kids[0].name, DISPATCH);
    }

    #[test]
    fn varints_encode_the_protobuf_base128_scheme() {
        let enc = |v: u64| {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            out
        };
        assert_eq!(enc(0), [0x00]);
        assert_eq!(enc(1), [0x01]);
        assert_eq!(enc(127), [0x7f]);
        assert_eq!(enc(128), [0x80, 0x01]);
        assert_eq!(enc(300), [0xac, 0x02]);
        assert_eq!(enc(u64::MAX).len(), 10);
    }

    #[test]
    fn perfetto_track_uuids_partition_components_and_spans() {
        assert_eq!(component_track_uuid(ComponentId(0)), 1, "uuid 0 is unset");
        let a = span_track_uuid(request_span_id(ComponentId(5), 1));
        let b = span_track_uuid(request_span_id(ComponentId(5), 2));
        let c = span_track_uuid(job_span_id(ComponentId(5), 1));
        assert!(a != b && a != c && b != c, "distinct ids, distinct tracks");
        for u in [a, b, c] {
            assert!(u & (1 << 63) != 0, "span tracks carry the high bit");
        }
    }

    #[test]
    fn perfetto_export_is_framed_as_trace_packets() {
        let bytes = to_perfetto(&log());
        assert!(!bytes.is_empty());
        // Every top-level field is Trace.packet (tag 0x0A) and the
        // declared lengths tile the buffer exactly.
        let mut i = 0;
        let mut packets = 0;
        while i < bytes.len() {
            assert_eq!(bytes[i], 0x0A, "Trace.packet tag at {i}");
            i += 1;
            let mut len = 0u64;
            let mut shift = 0;
            loop {
                let b = bytes[i];
                i += 1;
                len |= ((b & 0x7f) as u64) << shift;
                shift += 7;
                if b & 0x80 == 0 {
                    break;
                }
            }
            i += len as usize;
            packets += 1;
        }
        assert_eq!(i, bytes.len(), "packet lengths tile the trace");
        // 3 spans (descriptor + begin + end each) + 1 instant + its
        // component track + 2 span-owning component tracks.
        assert!(packets >= 12, "got {packets} packets");
        assert_eq!(bytes, to_perfetto(&log()), "byte-deterministic");
    }
}
