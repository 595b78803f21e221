//! Cross-process distributed tracing for the DRM plane.
//!
//! The collector's spans ([`mod@crate::span`]) nest through a
//! thread-local stack, which goes blind the moment a call crosses a
//! socket: the server's spans land in the server's collector with no
//! causal link back to the client call that triggered them. This
//! module adds the missing layer:
//!
//! - [`TraceContext`] — a `(trace_id, span_id, parent_span_id)`
//!   triple minted per client call and carried across process
//!   boundaries in a fixed 24-byte little-endian wire encoding
//!   ([`TraceContext::WIRE_LEN`]), small enough to ride in a frame
//!   header extension;
//! - [`span`] / [`span_with_parent`] — RAII guards recording
//!   [`TraceSpan`]s that chain through a thread-local context stack
//!   in-process and through an explicit remote parent cross-process;
//! - [`annotate`] — attaches `key=value` annotations (fault
//!   injections, error classes) to the innermost open trace span,
//!   from code that does not own the guard;
//! - [`FileSink`] — a write-through JSONL sink with buffered I/O that
//!   flushes on drop, plus an in-memory bounded buffer ([`drain`])
//!   for in-process analysis and tests.
//!
//! Tracing is gated independently from the metrics collector so the
//! overhead bench can pin tracing-on against tracing-off without
//! silencing counters. Disabled tracing costs one relaxed atomic load
//! per potential span.
//!
//! Span ids embed the process id in their upper half so two processes
//! participating in one trace can never collide; trace ids are mixed
//! from the process id, wall clock and a counter so concurrent client
//! fleets produce distinct traces.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;

/// Maximum completed spans retained in the in-memory buffer. Beyond
/// this the oldest are dropped and [`dropped_spans`] counts them.
pub const BUFFER_CAP: usize = 65_536;

/// The causal identity of one span, as carried across the wire.
///
/// `parent_span_id == 0` marks a trace root (span ids are never 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Identifies the whole end-to-end trace.
    pub trace_id: u64,
    /// Identifies this span within the trace.
    pub span_id: u64,
    /// The span this one descends from (0 = root).
    pub parent_span_id: u64,
}

impl TraceContext {
    /// Encoded size on the wire: three little-endian `u64`s.
    pub const WIRE_LEN: usize = 24;

    /// Encodes the context into its fixed wire form.
    #[must_use]
    pub fn encode(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        out[0..8].copy_from_slice(&self.trace_id.to_le_bytes());
        out[8..16].copy_from_slice(&self.span_id.to_le_bytes());
        out[16..24].copy_from_slice(&self.parent_span_id.to_le_bytes());
        out
    }

    /// Decodes a context from the start of `buf`; `None` when `buf`
    /// is shorter than [`Self::WIRE_LEN`] or the span id is 0 (which
    /// no tracer ever mints).
    #[must_use]
    pub fn decode(buf: &[u8]) -> Option<TraceContext> {
        if buf.len() < Self::WIRE_LEN {
            return None;
        }
        let word = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
        let ctx = TraceContext { trace_id: word(0), span_id: word(8), parent_span_id: word(16) };
        if ctx.span_id == 0 {
            return None;
        }
        Some(ctx)
    }
}

/// One completed span of a distributed trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's id (unique across participating processes).
    pub span_id: u64,
    /// Parent span id (0 = trace root).
    pub parent_span_id: u64,
    /// Static phase name, e.g. `"drm.call"` or `"tcp.roundtrip"`.
    pub name: &'static str,
    /// Label of the recording process (see [`set_process_label`]).
    pub process: String,
    /// Wall-clock start, nanoseconds since the UNIX epoch, so spans
    /// from different processes on one machine order sensibly.
    pub start_unix_ns: u64,
    /// Monotonic duration in nanoseconds.
    pub duration_ns: u64,
    /// `key=value` annotations (fault injections, error classes, ...).
    pub annotations: Vec<(&'static str, String)>,
}

thread_local! {
    /// Stack of open trace contexts on this thread, innermost last.
    static CTX_STACK: RefCell<Vec<TraceContext>> = const { RefCell::new(Vec::new()) };
    /// Annotations waiting to be claimed by the open span they target.
    static PENDING_ANNOTATIONS: RefCell<Vec<(u64, &'static str, String)>> =
        const { RefCell::new(Vec::new()) };
}

/// The process-wide tracer state behind the module-level functions.
struct Tracer {
    enabled: AtomicBool,
    /// Low 32 bits of the next span id; the pid forms the high bits.
    next_span: AtomicU64,
    /// Salt folded into minted trace ids.
    trace_salt: AtomicU64,
    dropped: AtomicU64,
    buffer: Mutex<VecDeque<TraceSpan>>,
    sink: Mutex<Option<BufWriter<File>>>,
    process_label: Mutex<String>,
}

static TRACER: Tracer = Tracer {
    enabled: AtomicBool::new(false),
    next_span: AtomicU64::new(1),
    trace_salt: AtomicU64::new(0),
    dropped: AtomicU64::new(0),
    buffer: Mutex::new(VecDeque::new()),
    sink: Mutex::new(None),
    process_label: Mutex::new(String::new()),
};

/// splitmix64 — the same cheap mixer the fault plane uses for
/// deterministic hashing; here it only needs to spread trace ids.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn unix_now_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Turns tracing on for this process.
pub fn enable() {
    if TRACER.trace_salt.load(Ordering::Relaxed) == 0 {
        TRACER
            .trace_salt
            .store(mix64(u64::from(std::process::id()) ^ unix_now_ns()) | 1, Ordering::Relaxed);
    }
    TRACER.enabled.store(true, Ordering::Relaxed);
}

/// Turns tracing off (already-open guards still record on drop).
pub fn disable() {
    TRACER.enabled.store(false, Ordering::Relaxed);
}

/// Whether tracing is on. One relaxed load — the fast path.
#[must_use]
pub fn is_enabled() -> bool {
    TRACER.enabled.load(Ordering::Relaxed)
}

/// Sets the label stamped on this process's spans (e.g. `"serve"`,
/// `"load"`). Defaults to `pid<N>` when never set.
pub fn set_process_label(label: &str) {
    *TRACER.process_label.lock() = label.to_owned();
}

fn process_label() -> String {
    let held = TRACER.process_label.lock();
    if held.is_empty() {
        format!("pid{}", std::process::id())
    } else {
        held.clone()
    }
}

/// Mints a span id unique across processes: pid in the high 32 bits,
/// a process-local counter in the low 32.
fn next_span_id() -> u64 {
    let low = TRACER.next_span.fetch_add(1, Ordering::Relaxed) & 0xffff_ffff;
    (u64::from(std::process::id()) << 32) | low
}

fn mint_trace_id(span_id: u64) -> u64 {
    mix64(span_id ^ TRACER.trace_salt.load(Ordering::Relaxed)) | 1
}

/// The innermost open trace context on this thread, if any. This is
/// what a transport encodes into an outgoing frame.
#[must_use]
pub fn current() -> Option<TraceContext> {
    if !is_enabled() {
        return None;
    }
    CTX_STACK.with(|s| s.borrow().last().copied())
}

/// Attaches `key=value` to the innermost open trace span on this
/// thread. A no-op when tracing is off or no span is open — safe to
/// call from deep library code (e.g. the fault injector seam).
pub fn annotate(key: &'static str, value: impl Into<String>) {
    if !is_enabled() {
        return;
    }
    let Some(ctx) = CTX_STACK.with(|s| s.borrow().last().copied()) else {
        return;
    };
    PENDING_ANNOTATIONS.with(|p| p.borrow_mut().push((ctx.span_id, key, value.into())));
}

/// Opens a trace span. Chains under the innermost open span on this
/// thread, or roots a fresh trace when none is open. Inert (free)
/// while tracing is disabled.
#[must_use]
pub fn span(name: &'static str) -> TraceGuard {
    if !is_enabled() {
        return TraceGuard::inert(name);
    }
    let parent = CTX_STACK.with(|s| s.borrow().last().copied());
    let span_id = next_span_id();
    let ctx = match parent {
        Some(p) => TraceContext { trace_id: p.trace_id, span_id, parent_span_id: p.span_id },
        None => TraceContext { trace_id: mint_trace_id(span_id), span_id, parent_span_id: 0 },
    };
    TraceGuard::open(name, ctx)
}

/// Opens a trace span under an explicit remote parent — the server
/// side of a cross-process call adopts the context decoded from the
/// request frame so its spans stitch into the caller's trace.
#[must_use]
pub fn span_with_parent(name: &'static str, parent: TraceContext) -> TraceGuard {
    if !is_enabled() {
        return TraceGuard::inert(name);
    }
    let ctx = TraceContext {
        trace_id: parent.trace_id,
        span_id: next_span_id(),
        parent_span_id: parent.span_id,
    };
    TraceGuard::open(name, ctx)
}

/// RAII guard for an open trace span; recording happens on drop.
pub struct TraceGuard {
    ctx: Option<TraceContext>,
    name: &'static str,
    start: Instant,
    start_unix_ns: u64,
    annotations: Vec<(&'static str, String)>,
}

impl TraceGuard {
    fn inert(name: &'static str) -> Self {
        TraceGuard {
            ctx: None,
            name,
            start: Instant::now(),
            start_unix_ns: 0,
            annotations: Vec::new(),
        }
    }

    fn open(name: &'static str, ctx: TraceContext) -> Self {
        CTX_STACK.with(|s| s.borrow_mut().push(ctx));
        TraceGuard {
            ctx: Some(ctx),
            name,
            start: Instant::now(),
            start_unix_ns: unix_now_ns(),
            annotations: Vec::new(),
        }
    }

    /// The context this guard opened (`None` when inert). A transport
    /// encodes this into the outgoing frame.
    #[must_use]
    pub fn context(&self) -> Option<TraceContext> {
        self.ctx
    }

    /// Attaches `key=value`; chainable at the creation site.
    #[must_use]
    pub fn with(mut self, key: &'static str, value: impl Into<String>) -> Self {
        if self.ctx.is_some() {
            self.annotations.push((key, value.into()));
        }
        self
    }

    /// Attaches `key=value` to an already-created guard.
    pub fn note(&mut self, key: &'static str, value: impl Into<String>) {
        if self.ctx.is_some() {
            self.annotations.push((key, value.into()));
        }
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        let Some(ctx) = self.ctx else {
            return;
        };
        let duration = self.start.elapsed();
        CTX_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last().map(|c| c.span_id) == Some(ctx.span_id) {
                s.pop();
            } else if let Some(pos) = s.iter().rposition(|c| c.span_id == ctx.span_id) {
                s.remove(pos);
            }
        });
        let mut annotations = std::mem::take(&mut self.annotations);
        PENDING_ANNOTATIONS.with(|p| {
            let mut p = p.borrow_mut();
            let mut i = 0;
            while i < p.len() {
                if p[i].0 == ctx.span_id {
                    let (_, key, value) = p.remove(i);
                    annotations.push((key, value));
                } else {
                    i += 1;
                }
            }
        });
        record(TraceSpan {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_span_id: ctx.parent_span_id,
            name: self.name,
            process: process_label(),
            start_unix_ns: self.start_unix_ns,
            duration_ns: u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX),
            annotations,
        });
    }
}

fn record(span: TraceSpan) {
    {
        let mut sink = TRACER.sink.lock();
        if let Some(writer) = sink.as_mut() {
            let mut line = String::new();
            span_jsonl(&span, &mut line);
            let _ = writer.write_all(line.as_bytes());
        }
    }
    let mut buffer = TRACER.buffer.lock();
    if buffer.len() >= BUFFER_CAP {
        buffer.pop_front();
        TRACER.dropped.fetch_add(1, Ordering::Relaxed);
    }
    buffer.push_back(span);
}

/// Spans evicted from the in-memory buffer since process start.
#[must_use]
pub fn dropped_spans() -> u64 {
    TRACER.dropped.load(Ordering::Relaxed)
}

/// Drains and returns the in-memory span buffer, oldest first.
#[must_use]
pub fn drain() -> Vec<TraceSpan> {
    std::mem::take(&mut *TRACER.buffer.lock()).into()
}

/// Flushes the file sink, if one is installed.
pub fn flush() {
    if let Some(writer) = TRACER.sink.lock().as_mut() {
        let _ = writer.flush();
    }
}

/// A handle on an installed JSONL trace sink. Spans are written
/// through a [`BufWriter`] as they complete; dropping the handle
/// flushes and uninstalls the sink, so durability does not depend on
/// an explicit export call.
pub struct FileSink {
    _private: (),
}

impl FileSink {
    /// Creates (truncates) `path` and installs it as the process-wide
    /// trace sink. Replaces (and flushes) any previous sink.
    pub fn create(path: &Path) -> std::io::Result<FileSink> {
        let file = File::create(path)?;
        let old = TRACER.sink.lock().replace(BufWriter::new(file));
        if let Some(mut old) = old {
            let _ = old.flush();
        }
        Ok(FileSink { _private: () })
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        if let Some(mut writer) = TRACER.sink.lock().take() {
            let _ = writer.flush();
        }
    }
}

/// Serializes one span as a JSONL line (with trailing newline) into
/// `out`. Ids render as fixed-width hex strings — they use the full
/// `u64` range, which does not survive JSON number parsers.
pub fn span_jsonl(span: &TraceSpan, out: &mut String) {
    let _ = write!(
        out,
        "{{\"type\":\"trace_span\",\"trace_id\":\"{:016x}\",\"span_id\":\"{:016x}\",\"parent_span_id\":\"{:016x}\"",
        span.trace_id, span.span_id, span.parent_span_id,
    );
    out.push_str(",\"name\":");
    crate::export::push_json_str(span.name, out);
    out.push_str(",\"process\":");
    crate::export::push_json_str(&span.process, out);
    let _ = write!(
        out,
        ",\"start_unix_ns\":{},\"duration_ns\":{}",
        span.start_unix_ns, span.duration_ns
    );
    if !span.annotations.is_empty() {
        out.push_str(",\"annotations\":{");
        for (i, (k, v)) in span.annotations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::export::push_json_str(k, out);
            out.push(':');
            crate::export::push_json_str(v, out);
        }
        out.push('}');
    }
    out.push_str("}\n");
}

/// Renders a batch of spans as JSONL.
#[must_use]
pub fn to_jsonl(spans: &[TraceSpan]) -> String {
    let mut out = String::new();
    for span in spans {
        span_jsonl(span, &mut out);
    }
    out
}

/// A trace span re-read from a JSONL sink — the `wideleak trace`
/// subcommand's input shape. Names and annotation keys become owned
/// strings on the way back in.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedTraceSpan {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id (0 = trace root).
    pub parent_span_id: u64,
    /// Phase name.
    pub name: String,
    /// Recording process label.
    pub process: String,
    /// Wall-clock start (UNIX epoch nanoseconds).
    pub start_unix_ns: u64,
    /// Duration in nanoseconds.
    pub duration_ns: u64,
    /// `key=value` annotations.
    pub annotations: Vec<(String, String)>,
}

/// Parses one JSONL line; `None` unless it is a `trace_span` record.
#[must_use]
pub fn parse_span_line(line: &str) -> Option<ParsedTraceSpan> {
    if crate::export::json_str(line, "type").as_deref() != Some("trace_span") {
        return None;
    }
    let hex =
        |key| crate::export::json_str(line, key).and_then(|s| u64::from_str_radix(&s, 16).ok());
    let mut annotations = Vec::new();
    if let Some(at) = line.find("\"annotations\":{") {
        let body = &line[at + "\"annotations\":{".len()..];
        let mut rest = body;
        while let Some(k_end) = rest.strip_prefix('"').and_then(|r| r.find('"')) {
            let key = rest[1..=k_end].trim_end_matches('"').to_owned();
            let Some(v_start) = rest.find("\":\"") else { break };
            let tail = &rest[v_start + 3..];
            let Some(v_end) = tail.find('"') else { break };
            annotations.push((key, tail[..v_end].to_owned()));
            let after = &tail[v_end + 1..];
            match after.strip_prefix(',') {
                Some(next) => rest = next,
                None => break,
            }
        }
    }
    Some(ParsedTraceSpan {
        trace_id: hex("trace_id")?,
        span_id: hex("span_id")?,
        parent_span_id: hex("parent_span_id")?,
        name: crate::export::json_str(line, "name")?,
        process: crate::export::json_str(line, "process")?,
        start_unix_ns: crate::export::json_u64(line, "start_unix_ns")?,
        duration_ns: crate::export::json_u64(line, "duration_ns")?,
        annotations,
    })
}

/// Parses a whole JSONL document, skipping non-trace lines.
#[must_use]
pub fn parse_jsonl(text: &str) -> Vec<ParsedTraceSpan> {
    text.lines().filter_map(parse_span_line).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests in this module share the process-wide tracer, so they
    /// funnel through one lock to keep drains from interleaving.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_fresh_tracer<R>(f: impl FnOnce() -> R) -> R {
        let _guard = TEST_LOCK.lock();
        enable();
        let _ = drain();
        let r = f();
        disable();
        let _ = drain();
        r
    }

    #[test]
    fn context_wire_round_trip() {
        let ctx = TraceContext { trace_id: u64::MAX, span_id: 1, parent_span_id: 0 };
        assert_eq!(TraceContext::decode(&ctx.encode()), Some(ctx));
        // Truncated and zero-span-id buffers decode to None.
        assert_eq!(TraceContext::decode(&ctx.encode()[..23]), None);
        let zero = TraceContext { trace_id: 7, span_id: 0, parent_span_id: 0 };
        assert_eq!(TraceContext::decode(&zero.encode()), None);
    }

    #[test]
    fn spans_chain_in_process_and_root_fresh_traces() {
        with_fresh_tracer(|| {
            {
                let root = span("root");
                let root_ctx = root.context().unwrap();
                assert_eq!(root_ctx.parent_span_id, 0);
                {
                    let child = span("child");
                    let child_ctx = child.context().unwrap();
                    assert_eq!(child_ctx.trace_id, root_ctx.trace_id);
                    assert_eq!(child_ctx.parent_span_id, root_ctx.span_id);
                }
            }
            let spans = drain();
            assert_eq!(spans.len(), 2);
            // Children record before parents (guard drop order).
            assert_eq!(spans[0].name, "child");
            assert_eq!(spans[1].name, "root");
            assert_eq!(spans[0].trace_id, spans[1].trace_id);
        });
    }

    #[test]
    fn remote_parent_adoption_stitches_processes() {
        with_fresh_tracer(|| {
            let remote = TraceContext { trace_id: 42, span_id: 7, parent_span_id: 0 };
            {
                let server = span_with_parent("server.handle", remote);
                let ctx = server.context().unwrap();
                assert_eq!(ctx.trace_id, 42);
                assert_eq!(ctx.parent_span_id, 7);
                drop(span("server.inner"));
            }
            let spans = drain();
            assert!(spans.iter().all(|s| s.trace_id == 42));
            let inner = spans.iter().find(|s| s.name == "server.inner").unwrap();
            let server = spans.iter().find(|s| s.name == "server.handle").unwrap();
            assert_eq!(inner.parent_span_id, server.span_id);
        });
    }

    #[test]
    fn annotations_attach_to_the_innermost_open_span() {
        with_fresh_tracer(|| {
            {
                let _outer = span("outer");
                {
                    let _inner = span("inner");
                    annotate("fault", "tcp.reset");
                }
                annotate("late", "outer-only");
            }
            let spans = drain();
            let inner = spans.iter().find(|s| s.name == "inner").unwrap();
            assert_eq!(inner.annotations, vec![("fault", "tcp.reset".to_owned())]);
            let outer = spans.iter().find(|s| s.name == "outer").unwrap();
            assert_eq!(outer.annotations, vec![("late", "outer-only".to_owned())]);
        });
    }

    #[test]
    fn a_full_buffer_evicts_the_oldest_spans() {
        const EXTRA: usize = 3;
        with_fresh_tracer(|| {
            let dropped_before = dropped_spans();
            for i in 0..BUFFER_CAP + EXTRA {
                drop(span("fill").with("i", i.to_string()));
            }
            assert_eq!(dropped_spans() - dropped_before, EXTRA as u64);
            let spans = drain();
            assert_eq!(spans.len(), BUFFER_CAP);
            assert_eq!(spans[0].annotations, vec![("i", EXTRA.to_string())]);
            let newest = &spans[BUFFER_CAP - 1];
            assert_eq!(newest.annotations, vec![("i", (BUFFER_CAP + EXTRA - 1).to_string())]);
        });
    }

    #[test]
    fn disabled_tracing_is_inert() {
        let _guard = TEST_LOCK.lock();
        disable();
        let _ = drain();
        {
            let g = span("noop");
            assert!(g.context().is_none());
            annotate("k", "v");
        }
        assert!(drain().is_empty());
        assert_eq!(current(), None);
    }

    #[test]
    fn jsonl_round_trips() {
        let original = TraceSpan {
            trace_id: 0xdead_beef_dead_beef,
            span_id: 0x1234,
            parent_span_id: 0,
            name: "drm.call",
            process: "load".to_owned(),
            start_unix_ns: 1_700_000_000_000_000_000,
            duration_ns: 12_345,
            annotations: vec![("fault", "wire.bad_crc".to_owned()), ("kind", "Decrypt".to_owned())],
        };
        let text = to_jsonl(std::slice::from_ref(&original));
        let parsed = parse_jsonl(&text);
        assert_eq!(parsed.len(), 1);
        let p = &parsed[0];
        assert_eq!(p.trace_id, original.trace_id);
        assert_eq!(p.span_id, original.span_id);
        assert_eq!(p.parent_span_id, 0);
        assert_eq!(p.name, "drm.call");
        assert_eq!(p.process, "load");
        assert_eq!(p.start_unix_ns, original.start_unix_ns);
        assert_eq!(p.duration_ns, original.duration_ns);
        assert_eq!(
            p.annotations,
            vec![
                ("fault".to_owned(), "wire.bad_crc".to_owned()),
                ("kind".to_owned(), "Decrypt".to_owned())
            ]
        );
    }

    #[test]
    fn file_sink_writes_through_and_flushes_on_drop() {
        with_fresh_tracer(|| {
            let dir = std::env::temp_dir();
            let path = dir.join(format!("wideleak-trace-sink-{}.jsonl", std::process::id()));
            {
                let _sink = FileSink::create(&path).unwrap();
                drop(span("durable"));
                // No explicit flush: the Drop impl must make this durable.
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            let parsed = parse_jsonl(&text);
            assert_eq!(parsed.len(), 1);
            assert_eq!(parsed[0].name, "durable");
        });
    }
}
