//! Span output of a traced run. Spans stay in memory while the
//! benchmark measures and are written once, when it ends, as JSONL
//! under `<target dir>/perfbench/`.
//!
//! Two kinds share the file: `bench` spans the benchmark records around
//! its own calls into a layer, and `program` spans copied from the
//! program's existing recorder (switched on by configuration only).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use sns_core::trace::SpanRecord;

use crate::report::json_str;

/// Program spans kept per source; the rest are counted, not written.
const PROGRAM_SPAN_CAP: usize = 50_000;

pub struct SpanSink {
    file: String,
    origin: Instant,
    lines: String,
}

impl SpanSink {
    pub fn new(workload: &str, seed: u64) -> Self {
        SpanSink {
            file: format!("{workload}-seed{seed}.jsonl"),
            origin: Instant::now(),
            lines: String::new(),
        }
    }

    /// Nanoseconds since the sink was made: the clock of `bench` spans.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a benchmark-side span from `start_ns` to now.
    pub fn bench_span(&mut self, name: &str, start_ns: u64) {
        let end_ns = self.now_ns();
        let _ = writeln!(
            self.lines,
            "{{\"kind\": \"bench\", \"name\": {}, \"start_ns\": {start_ns}, \"end_ns\": {end_ns}}}",
            json_str(name)
        );
    }

    /// Copies the program's own spans (its clock: ns since cluster or
    /// simulation start).
    pub fn program_spans(&mut self, source: &str, spans: &[SpanRecord]) {
        for s in spans.iter().take(PROGRAM_SPAN_CAP) {
            let parent = s
                .parent
                .map_or("null".to_string(), |p| json_str(&p.render()));
            let _ = writeln!(
                self.lines,
                "{{\"kind\": \"program\", \"source\": {}, \"id\": {}, \"parent\": {parent}, \
                 \"name\": {}, \"cat\": {}, \"class\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"bytes\": {}, \"ok\": {}}}",
                json_str(source),
                json_str(&s.id.render()),
                json_str(s.name),
                json_str(s.cat),
                json_str(s.class),
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.bytes,
                s.ok
            );
        }
        if spans.len() > PROGRAM_SPAN_CAP {
            let _ = writeln!(
                self.lines,
                "{{\"kind\": \"truncated\", \"source\": {}, \"recorded\": {}, \"written\": {PROGRAM_SPAN_CAP}}}",
                json_str(source),
                spans.len()
            );
        }
    }

    /// Writes the file next to the build outputs (two levels above the
    /// running binary, i.e. the cargo target directory).
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let exe = std::env::current_exe()?;
        let target = exe
            .parent()
            .and_then(|p| p.parent())
            .ok_or_else(|| std::io::Error::other("binary is not inside a target directory"))?;
        let dir = target.join("perfbench");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(&self.file);
        std::fs::write(&path, &self.lines)?;
        Ok(path)
    }
}
