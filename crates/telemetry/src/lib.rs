//! `wideleak-telemetry`: structured tracing, metrics and run-report
//! export for the WideLeak DRM stack.
//!
//! The paper's study and attack pipelines cross every layer of the
//! simulated Android stack — binder transactions, OEMCrypto sessions,
//! OTT backend requests, per-app monitoring. This crate gives all of
//! them one lightweight observability substrate:
//!
//! - [`span()`] / [`span!`] — RAII guards measuring a named region with
//!   parent/child nesting (thread-local stack) and key=value fields;
//!   each span also feeds a latency histogram of the same name;
//! - [`incr`] / [`add`] — named monotonic counters;
//! - [`observe`] — named fixed-bucket histograms with p50/p90/p99;
//! - [`LatencyHistogram`] — the exact, mergeable histogram every
//!   percentile in the workspace is read from;
//! - [`export`] — a run [`Snapshot`] rendered as JSONL (one object per
//!   line), and a JSONL export read back and rendered as a
//!   human-readable summary table.
//!
//! The global collector starts **disabled**: every entry point checks
//! one relaxed atomic load and returns inert guards, so uninstrumented
//! runs pay no measurable cost. `wideleak --telemetry out.jsonl ...`
//! calls [`enable`] and exports at exit.
//!
//! Completed spans sit in one ring of at most [`trace::BUFFER_CAP`]
//! records. Once it is full each new span evicts the oldest, counted on
//! the `telemetry.spans.dropped` counter, so a long-lived collector
//! (`wideleak serve --metrics`) holds bounded memory and its exports
//! show the loss.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod expose;
pub mod metrics;
pub mod span;
pub mod trace;
pub mod trace_report;

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

pub use export::to_jsonl;
pub use expose::ExpositionServer;
pub use metrics::{CounterHandle, Histogram, HistogramSummary, LatencyHistogram, Registry};
pub use span::{FieldValue, SpanGuard, SpanRecord};
pub use trace::{TraceContext, TraceGuard, TraceSpan};

/// The counter of spans a collector evicted from its full ring.
const SPANS_DROPPED: &str = "telemetry.spans.dropped";

/// The telemetry sink: spans, counters, gauges and histograms.
///
/// Instantiable for unit tests; production code uses the process-wide
/// instance behind [`global`] via the crate-level helpers.
pub struct Collector {
    enabled: AtomicBool,
    epoch: Instant,
    next_span_id: AtomicU64,
    spans: Mutex<VecDeque<SpanRecord>>,
    registry: Registry,
}

impl Collector {
    /// A collector that records immediately (used by tests).
    #[must_use]
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A collector that starts disabled (the global's initial state).
    #[must_use]
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> Self {
        Collector {
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            next_span_id: AtomicU64::new(1),
            spans: Mutex::new(VecDeque::new()),
            registry: Registry::default(),
        }
    }

    /// Whether recording is on. One relaxed load — the fast path.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since this collector was created.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub(crate) fn next_span_id(&self) -> u64 {
        self.next_span_id.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn record_span(&self, record: SpanRecord) {
        let mut spans = self.spans.lock();
        if spans.len() >= trace::BUFFER_CAP {
            spans.pop_front();
            self.registry.counter(SPANS_DROPPED).fetch_add(1, Ordering::Relaxed);
        }
        spans.push_back(record);
    }

    /// Opens a span; inert (free) when disabled.
    #[must_use]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if self.is_enabled() {
            SpanGuard::open(self, name)
        } else {
            SpanGuard::inert(name)
        }
    }

    /// Adds `n` to the named counter.
    pub fn add(&self, name: &str, n: u64) {
        if self.is_enabled() {
            self.registry.counter(name).fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increments the named counter by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn set_gauge(&self, name: &str, value: u64) {
        if self.is_enabled() {
            self.registry.gauge(name).store(value, Ordering::Relaxed);
        }
    }

    /// Raises the named gauge to `value` if it is below it (high-water
    /// mark semantics).
    pub fn max_gauge(&self, name: &str, value: u64) {
        if self.is_enabled() {
            self.registry.gauge(name).fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Records a latency into the named histogram.
    pub fn observe(&self, name: &str, d: Duration) {
        if self.is_enabled() {
            self.registry.histogram(name).observe(d);
        }
    }

    /// The metric registry (for direct handle access in hot loops).
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A consistent copy of everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut spans: Vec<SpanRecord> = self.spans.lock().iter().cloned().collect();
        spans.sort_by_key(|s| s.id);
        Snapshot {
            spans,
            counters: self.registry.counter_values(),
            gauges: self.registry.gauge_values(),
            histograms: self.registry.histogram_summaries(),
        }
    }

    /// Clears all recorded data (enabled state is unchanged).
    pub fn reset(&self) {
        self.spans.lock().clear();
        self.registry.clear();
        self.next_span_id.store(1, Ordering::Relaxed);
    }
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

/// A consistent copy of a collector's recorded state, ready to export.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Completed spans, ordered by id.
    pub spans: Vec<SpanRecord>,
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values (last-write-wins), sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

static GLOBAL: OnceLock<Collector> = OnceLock::new();

/// The process-wide collector. Starts disabled.
pub fn global() -> &'static Collector {
    GLOBAL.get_or_init(Collector::disabled)
}

/// Turns on global recording.
pub fn enable() {
    global().set_enabled(true);
}

/// Turns off global recording.
pub fn disable() {
    global().set_enabled(false);
}

/// Whether global recording is on.
#[must_use]
pub fn is_enabled() -> bool {
    global().is_enabled()
}

/// Opens a span on the global collector. Inert when disabled.
#[must_use]
pub fn span(name: &'static str) -> SpanGuard<'static> {
    global().span(name)
}

/// Increments a global counter by one.
pub fn incr(name: &str) {
    global().incr(name);
}

/// Adds `n` to a global counter.
pub fn add(name: &str, n: u64) {
    global().add(name, n);
}

/// Sets a global gauge to `value` (last write wins).
pub fn set_gauge(name: &str, value: u64) {
    global().set_gauge(name, value);
}

/// Raises a global gauge to `value` if it is below it.
pub fn max_gauge(name: &str, value: u64) {
    global().max_gauge(name, value);
}

/// Records a latency into a global histogram.
pub fn observe(name: &str, d: Duration) {
    global().observe(name, d);
}

/// Snapshots the global collector.
#[must_use]
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Clears the global collector's recorded data.
pub fn reset() {
    global().reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_records_nothing() {
        let c = Collector::disabled();
        {
            let _g = c.span("noop").field("k", 1u64);
        }
        c.incr("n");
        c.observe("h", Duration::from_micros(5));
        let s = c.snapshot();
        assert!(s.spans.is_empty());
        assert!(s.counters.is_empty());
        assert!(s.histograms.is_empty());
    }

    #[test]
    fn spans_nest_and_time_monotonically() {
        let c = Collector::new();
        {
            let outer = c.span("outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = c.span("inner").field("depth", 2u64);
                std::thread::sleep(Duration::from_millis(1));
            }
            drop(outer);
        }
        let s = c.snapshot();
        assert_eq!(s.spans.len(), 2);
        let inner = s.spans.iter().find(|x| x.name == "inner").unwrap();
        let outer = s.spans.iter().find(|x| x.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        // The outer span contains the inner one in time.
        assert!(inner.start_ns >= outer.start_ns);
        assert!(outer.duration_ns >= inner.duration_ns);
        assert!(inner.duration_ns >= 1_000_000, "inner too short");
        // Each span fed a histogram of its own name.
        assert_eq!(s.histograms.len(), 2);
        assert_eq!(s.histograms[0].0, "inner");
    }

    #[test]
    fn siblings_share_a_parent() {
        let c = Collector::new();
        {
            let _p = c.span("parent");
            drop(c.span("a"));
            drop(c.span("b"));
        }
        let s = c.snapshot();
        let p = s.spans.iter().find(|x| x.name == "parent").unwrap();
        for name in ["a", "b"] {
            let child = s.spans.iter().find(|x| x.name == name).unwrap();
            assert_eq!(child.parent, Some(p.id), "span {name}");
        }
    }

    #[test]
    fn out_of_order_guard_drop_keeps_stack_consistent() {
        let c = Collector::new();
        let a = c.span("a");
        let b = c.span("b");
        drop(a); // dropped before its child `b`
        drop(b);
        let _after = c.span("after");
        drop(_after);
        let s = c.snapshot();
        let after = s.spans.iter().find(|x| x.name == "after").unwrap();
        // `after` must not claim the already-closed spans as parents.
        assert_eq!(after.parent, None);
    }

    #[test]
    fn counters_accumulate() {
        let c = Collector::new();
        c.incr("x");
        c.add("x", 4);
        let s = c.snapshot();
        assert_eq!(s.counters, vec![("x".to_owned(), 5)]);
    }

    #[test]
    fn gauges_record_last_value_and_high_water() {
        let c = Collector::new();
        c.set_gauge("depth", 5);
        c.set_gauge("depth", 2);
        c.max_gauge("peak", 3);
        c.max_gauge("peak", 1);
        let s = c.snapshot();
        assert_eq!(s.gauges, vec![("depth".to_owned(), 2), ("peak".to_owned(), 3)]);
    }

    #[test]
    fn full_span_ring_drops_the_oldest_and_counts_them() {
        let c = Collector::new();
        for _ in 0..trace::BUFFER_CAP + 3 {
            drop(c.span("s"));
        }
        let s = c.snapshot();
        assert_eq!(s.spans.len(), trace::BUFFER_CAP);
        // Ids start at 1, so ids 1–3 are the ones lost.
        assert_eq!(s.spans.first().map(|r| r.id), Some(4));
        assert_eq!(s.spans.last().map(|r| r.id), Some(trace::BUFFER_CAP as u64 + 3));
        assert_eq!(s.counters, vec![(SPANS_DROPPED.to_owned(), 3)]);
    }

    #[test]
    fn reset_clears_all_stores() {
        let c = Collector::new();
        drop(c.span("s"));
        c.incr("n");
        c.reset();
        let s = c.snapshot();
        assert!(s.spans.is_empty() && s.counters.is_empty());
    }
}
