//! Structured spans: RAII guards measuring a named region of work,
//! with parent/child nesting tracked through a thread-local stack and
//! key=value fields attached at creation.
//!
//! Dropping a guard records a [`SpanRecord`] into the collector and
//! feeds the span's duration into a histogram of the same name, so
//! every instrumented region gets p50/p90/p99 latencies for free.

use std::cell::RefCell;
use std::time::Instant;

use crate::Collector;

thread_local! {
    /// Stack of open span ids on this thread, innermost last.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A typed field value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// A completed span as stored in the collector.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within the collector (1-based; 0 is never issued).
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Static span name, e.g. `"binder.transact.in_process"`.
    pub name: &'static str,
    /// Key=value fields attached at creation.
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Start offset in nanoseconds since the collector epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds (monotonic clock).
    pub duration_ns: u64,
}

/// RAII guard for an open span. Created by [`Collector::span`] or the
/// crate-level [`crate::span()`]; recording happens on drop.
///
/// When telemetry is disabled the guard is inert: no allocation, no id,
/// no record.
pub struct SpanGuard<'c> {
    collector: Option<&'c Collector>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
    start: Instant,
    start_ns: u64,
}

impl<'c> SpanGuard<'c> {
    pub(crate) fn inert(name: &'static str) -> Self {
        SpanGuard {
            collector: None,
            id: 0,
            parent: None,
            name,
            fields: Vec::new(),
            start: Instant::now(),
            start_ns: 0,
        }
    }

    pub(crate) fn open(collector: &'c Collector, name: &'static str) -> Self {
        let id = collector.next_span_id();
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        SpanGuard {
            collector: Some(collector),
            id,
            parent,
            name,
            fields: Vec::new(),
            start: Instant::now(),
            start_ns: collector.now_ns(),
        }
    }

    /// Attaches a key=value field; chainable at the creation site.
    #[must_use]
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        if self.collector.is_some() {
            self.fields.push((key, value.into()));
        }
        self
    }

    /// The span id (0 when inert).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(collector) = self.collector else {
            return;
        };
        let duration = self.start.elapsed();
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // The innermost entry is this span unless guards were
            // dropped out of order; remove by id to stay correct then.
            if s.last() == Some(&self.id) {
                s.pop();
            } else if let Some(pos) = s.iter().rposition(|&x| x == self.id) {
                s.remove(pos);
            }
        });
        collector.record_span(SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            fields: std::mem::take(&mut self.fields),
            start_ns: self.start_ns,
            duration_ns: u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX),
        });
        collector.observe(self.name, duration);
    }
}

/// Opens a span on the global collector with optional `key = value`
/// fields: `span!("binder.transact", kind = call.kind())`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::span($name)$(.field(stringify!($key), $value))+
    };
}
