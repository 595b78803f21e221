//! Counters, fixed-bucket latency histograms and the exact histogram
//! every percentile in the workspace is read from.
//!
//! Counters and [`Histogram`]s are lock-free on the hot path: a counter
//! is an `AtomicU64` handed out as an `Arc`, and a histogram is a fixed
//! array of atomic bucket counts indexed by the position of the highest
//! set bit of the observed nanosecond value. Registration (first use of
//! a name) takes a short-lived write lock; every subsequent observation
//! is a relaxed atomic increment. [`LatencyHistogram`] is the exact,
//! single-owner one: it keeps every distinct value with its count, so
//! merging two of them equals recording the concatenated samples.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

/// Number of power-of-two latency buckets. Bucket `i` covers
/// `[2^i, 2^(i+1))` nanoseconds, so 64 buckets span the full `u64`
/// range (bucket 0 also absorbs a zero observation).
pub const BUCKETS: usize = 64;

/// Returns the bucket index for a nanosecond observation.
#[must_use]
pub fn bucket_index(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        63 - ns.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` in nanoseconds.
#[must_use]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// An exact latency histogram: every distinct recorded value with the
/// number of times it was recorded.
///
/// Count, sum, min and max are read off the entries, so they cannot
/// disagree with them. `merge` adds entries value by value, which is
/// commutative and associative and equals recording the concatenated
/// samples, so merged percentiles are those of the raw samples.
/// [`LatencyHistogram::percentile`] is the workspace's one percentile
/// rule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    entries: BTreeMap<u64, u64>,
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of `value`; `n == 0` records nothing.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n > 0 {
            *self.entries.entry(value).or_insert(0) += n;
        }
    }

    /// Folds another histogram in. Commutative and associative, so a
    /// merged result is independent of the order shards arrive in.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (value, n) in other.entries() {
            self.record_n(value, n);
        }
    }

    /// The `(value, count)` entries in ascending value order, every
    /// count nonzero.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = (u64, u64)> + '_ {
        self.entries.iter().map(|(&value, &n)| (value, n))
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.entries.values().sum()
    }

    fn wide_sum(&self) -> u128 {
        self.entries().map(|(value, n)| u128::from(value) * u128::from(n)).sum()
    }

    /// Sum of all recorded samples, saturating at `u64::MAX`.
    #[must_use]
    pub fn sum(&self) -> u64 {
        u64::try_from(self.wide_sum()).unwrap_or(u64::MAX)
    }

    /// Smallest recorded sample, `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        self.entries.keys().next().copied()
    }

    /// Largest recorded sample, `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        self.entries.keys().next_back().copied()
    }

    /// Integer mean (floor), `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<u64> {
        let count = u128::from(self.count());
        (count > 0).then(|| {
            u64::try_from(self.wide_sum() / count).expect("the mean lies between min and max")
        })
    }

    /// The nearest-rank `num/den` percentile (`num <= den`), `None` when
    /// empty: the sample at zero-based rank `(count - 1) * num / den` of
    /// the sorted samples.
    #[must_use]
    pub fn percentile(&self, num: u64, den: u64) -> Option<u64> {
        let last = self.count().checked_sub(1)?;
        let rank = u128::from(last) * u128::from(num) / u128::from(den);
        let mut seen = 0u128;
        for (value, n) in self.entries() {
            seen += u128::from(n);
            if seen > rank {
                return Some(value);
            }
        }
        self.max()
    }
}

/// Collects a batch of samples. Sorting the batch and recording each
/// run of equal values once is several times cheaper than recording
/// the samples one by one when values repeat.
impl FromIterator<u64> for LatencyHistogram {
    fn from_iter<I: IntoIterator<Item = u64>>(samples: I) -> Self {
        let mut sorted: Vec<u64> = samples.into_iter().collect();
        sorted.sort_unstable();
        let mut h = LatencyHistogram::new();
        for run in sorted.chunk_by(|a, b| a == b) {
            h.record_n(run[0], run.len() as u64);
        }
        h
    }
}

/// A fixed-bucket latency histogram with power-of-two bucket bounds.
///
/// Observations are recorded lock-free. A summary reads its
/// percentiles from a [`LatencyHistogram`] that holds each non-empty
/// bucket at its upper bound, clamped to the observed maximum, so
/// `min <= p50 <= p90 <= p95 <= p99 <= max` always holds.
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one latency observation.
    pub fn observe(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.counts[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// An immutable summary of the current state.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        let max_ns = self.max_ns.load(Ordering::Relaxed);
        let mut view = LatencyHistogram::new();
        for (i, n) in self.counts.iter().enumerate() {
            view.record_n(bucket_upper_bound(i).min(max_ns), n.load(Ordering::Relaxed));
        }
        let count = view.count();
        let p = |num| view.percentile(num, 100).unwrap_or(0);
        HistogramSummary {
            count,
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            min_ns: if count == 0 { 0 } else { self.min_ns.load(Ordering::Relaxed) },
            max_ns,
            p50_ns: p(50),
            p90_ns: p(90),
            p95_ns: p(95),
            p99_ns: p(99),
        }
    }
}

/// Point-in-time percentile summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations in nanoseconds.
    pub sum_ns: u64,
    /// Smallest observation (0 when empty).
    pub min_ns: u64,
    /// Largest observation.
    pub max_ns: u64,
    /// Estimated median.
    pub p50_ns: u64,
    /// Estimated 90th percentile.
    pub p90_ns: u64,
    /// Estimated 95th percentile.
    pub p95_ns: u64,
    /// Estimated 99th percentile.
    pub p99_ns: u64,
}

impl HistogramSummary {
    /// Mean observation in nanoseconds (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Name-keyed registries for counters, gauges and histograms.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<HashMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<HashMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<HashMap<String, Arc<Histogram>>>,
    /// Bumped by [`Registry::clear`]; lets cached handles detect that
    /// their `Arc` no longer backs a registered metric.
    generation: AtomicU64,
}

impl Registry {
    /// Returns the counter handle for `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        if let Some(c) = self.counters.read().get(name) {
            return Arc::clone(c);
        }
        let mut w = self.counters.write();
        Arc::clone(w.entry(name.to_owned()).or_default())
    }

    /// Returns the gauge handle for `name`, registering it on first use.
    /// A gauge is a last-write-wins value (e.g. a queue depth), unlike
    /// the monotonic counters.
    pub fn gauge(&self, name: &str) -> Arc<AtomicU64> {
        if let Some(g) = self.gauges.read().get(name) {
            return Arc::clone(g);
        }
        let mut w = self.gauges.write();
        Arc::clone(w.entry(name.to_owned()).or_default())
    }

    /// Returns the histogram handle for `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().get(name) {
            return Arc::clone(h);
        }
        let mut w = self.histograms.write();
        Arc::clone(w.entry(name.to_owned()).or_default())
    }

    /// All counters as `(name, value)`, sorted by name.
    #[must_use]
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        let mut out: Vec<_> = self
            .counters
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        out.sort();
        out
    }

    /// All gauges as `(name, value)`, sorted by name.
    #[must_use]
    pub fn gauge_values(&self) -> Vec<(String, u64)> {
        let mut out: Vec<_> = self
            .gauges
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        out.sort();
        out
    }

    /// All histogram summaries as `(name, summary)`, sorted by name.
    #[must_use]
    pub fn histogram_summaries(&self) -> Vec<(String, HistogramSummary)> {
        let mut out: Vec<_> =
            self.histograms.read().iter().map(|(k, v)| (k.clone(), v.summary())).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The clear-generation of this registry. Handles cached against an
    /// older generation must re-resolve through [`Registry::counter`].
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Drops all registered counters, gauges and histograms.
    pub fn clear(&self) {
        self.counters.write().clear();
        self.gauges.write().clear();
        self.histograms.write().clear();
        self.generation.fetch_add(1, Ordering::AcqRel);
    }
}

/// A pre-registered handle onto a global counter for hot paths.
///
/// [`crate::incr`] resolves its counter through a name lookup (and its
/// callers often build the name with `format!`) on every increment; a
/// `CounterHandle` does the lookup once and afterwards pays one relaxed
/// atomic add. The handle survives [`crate::reset`]: it remembers the
/// registry generation it resolved against and re-resolves when the
/// registry has been cleared since.
///
/// Designed to live in a `static`:
///
/// ```
/// use wideleak_telemetry::CounterHandle;
/// static REQUESTS: CounterHandle = CounterHandle::new("server.requests");
/// REQUESTS.incr();
/// ```
pub struct CounterHandle {
    name: &'static str,
    /// Registry generation `slot` was resolved against, plus one so that
    /// the initial value (0) never matches a real generation.
    resolved_at: AtomicU64,
    slot: RwLock<Option<Arc<AtomicU64>>>,
}

impl CounterHandle {
    /// Creates an unresolved handle; the counter registers on first use.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        CounterHandle { name, resolved_at: AtomicU64::new(0), slot: RwLock::new(None) }
    }

    /// The counter name this handle resolves.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` to the counter on the global collector. No-op while
    /// telemetry is disabled (one relaxed load, like [`crate::add`]).
    pub fn add(&self, n: u64) {
        let collector = crate::global();
        if !collector.is_enabled() {
            return;
        }
        let generation = collector.registry().generation();
        if self.resolved_at.load(Ordering::Acquire) == generation + 1 {
            if let Some(counter) = self.slot.read().as_ref() {
                counter.fetch_add(n, Ordering::Relaxed);
                return;
            }
        }
        // First use, or the registry was cleared since we resolved:
        // re-register and cache the fresh handle.
        let counter = collector.registry().counter(self.name);
        counter.fetch_add(n, Ordering::Relaxed);
        *self.slot.write() = Some(counter);
        self.resolved_at.store(generation + 1, Ordering::Release);
    }

    /// Increments the counter by one.
    pub fn incr(&self) {
        self.add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_upper_bound(0), 1);
        assert_eq!(bucket_upper_bound(9), 1023);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
    }

    #[test]
    fn histogram_tracks_min_max_and_count() {
        let h = Histogram::default();
        for ns in [100u64, 200, 3_000, 40_000] {
            h.observe(Duration::from_nanos(ns));
        }
        let s = h.summary();
        assert_eq!(s.count, 4);
        assert_eq!(s.min_ns, 100);
        assert_eq!(s.max_ns, 40_000);
        assert_eq!(s.sum_ns, 43_300);
    }

    #[test]
    fn empty_histogram_summary_is_zero() {
        let s = Histogram::default().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_ns, 0);
        assert_eq!(s.min_ns, 0);
        assert_eq!(s.max_ns, 0);
    }

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        let h = Histogram::default();
        // 90 fast observations (~1us) and 10 slow ones (~1ms).
        for _ in 0..90 {
            h.observe(Duration::from_nanos(1_000));
        }
        for _ in 0..10 {
            h.observe(Duration::from_nanos(1_000_000));
        }
        let s = h.summary();
        // p50 must fall inside the 1us bucket [1024, 2047].
        assert!(s.p50_ns < 2_048, "p50={}", s.p50_ns);
        // p95 and p99 must land in the slow bucket, clamped to max.
        assert_eq!(s.p95_ns, 1_000_000);
        assert_eq!(s.p99_ns, 1_000_000);
        assert!(s.p50_ns <= s.p90_ns && s.p90_ns <= s.p95_ns && s.p95_ns <= s.p99_ns);
    }

    #[test]
    fn histogram_percentiles_match_sorted_samples() {
        let samples = [3u64, 9, 9, 14, 14, 14, 27, 101, 205, 301];
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let q = |num: u64, den: u64| samples[((samples.len() as u64 - 1) * num / den) as usize];
        assert_eq!(h.percentile(50, 100), Some(q(50, 100)));
        assert_eq!(h.percentile(95, 100), Some(q(95, 100)));
        assert_eq!(h.percentile(99, 100), Some(q(99, 100)));
        assert_eq!(h.min(), Some(3));
        assert_eq!(h.max(), Some(301));
        assert_eq!(h.sum(), samples.iter().sum::<u64>());
        assert_eq!(h.mean(), Some(samples.iter().sum::<u64>() / samples.len() as u64));
    }

    #[test]
    fn histogram_merge_equals_concatenation() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for &s in &[5u64, 8, 8, 60] {
            a.record(s);
            all.record(s);
        }
        for &s in &[1u64, 8, 200] {
            b.record(s);
            all.record(s);
        }
        let mut merged = LatencyHistogram::new();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged, all);
        // Merging an empty histogram is the identity.
        merged.merge(&LatencyHistogram::new());
        assert_eq!(merged, all);
        // Collecting a batch records the same entries.
        assert_eq!([5u64, 8, 8, 60, 1, 8, 200].into_iter().collect::<LatencyHistogram>(), all);
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(50, 100), None);
    }

    #[test]
    fn registry_reuses_handles_by_name() {
        let r = Registry::default();
        r.counter("a").fetch_add(2, Ordering::Relaxed);
        r.counter("a").fetch_add(3, Ordering::Relaxed);
        r.counter("b").fetch_add(1, Ordering::Relaxed);
        assert_eq!(r.counter_values(), vec![("a".to_owned(), 5), ("b".to_owned(), 1)]);
    }

    #[test]
    fn gauges_are_last_write_wins_and_sorted() {
        let r = Registry::default();
        r.gauge("queue").store(5, Ordering::Relaxed);
        r.gauge("queue").store(2, Ordering::Relaxed);
        r.gauge("peak").fetch_max(7, Ordering::Relaxed);
        r.gauge("peak").fetch_max(3, Ordering::Relaxed);
        assert_eq!(r.gauge_values(), vec![("peak".to_owned(), 7), ("queue".to_owned(), 2)]);
    }

    #[test]
    fn clear_bumps_generation_and_drops_all_stores() {
        let r = Registry::default();
        let g0 = r.generation();
        r.counter("c").fetch_add(1, Ordering::Relaxed);
        r.gauge("g").store(9, Ordering::Relaxed);
        r.clear();
        assert_eq!(r.generation(), g0 + 1);
        assert!(r.counter_values().is_empty());
        assert!(r.gauge_values().is_empty());
    }

    #[test]
    fn counter_handle_survives_registry_clear() {
        static HANDLE: CounterHandle = CounterHandle::new("metrics.test.survives_clear");
        crate::enable();
        HANDLE.add(3);
        let registry = crate::global().registry();
        assert_eq!(registry.counter(HANDLE.name()).load(Ordering::Relaxed), 3);
        registry.clear();
        // The cached Arc now backs an orphaned counter; the handle must
        // re-resolve so the increment lands in the fresh registration.
        HANDLE.incr();
        assert_eq!(registry.counter(HANDLE.name()).load(Ordering::Relaxed), 1);
    }
}
