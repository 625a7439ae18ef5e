//! Lock-free metric instruments and the global name-keyed registry.
//!
//! Three instrument kinds, all safe to share across threads and all one
//! relaxed atomic op on the hot path:
//!
//! * [`Counter`] — monotone `u64` event count,
//! * [`Gauge`] — signed instantaneous value (queue depths, in-flight work),
//! * [`Histogram`] — fixed-bucket log-scale latency distribution in
//!   nanoseconds, with ≤ 25 % relative bucket width, from which
//!   p50/p90/p99/max are derived at read time.
//!
//! Instruments live in a process-global registry keyed by name. Labels use
//! the Prometheus convention *inside the name itself* — e.g.
//! `pscc_catalog_deltas_total{graph="serve"}` — so the registry stays a
//! flat string map and the exposition layer needs no label model. Callers
//! on hot paths cache the returned [`Arc`] instead of re-looking it up.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if cfg!(feature = "telemetry-off") {
            return;
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depth, in-flight operations).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        if cfg!(feature = "telemetry-off") {
            return;
        }
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        if cfg!(feature = "telemetry-off") {
            return;
        }
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Increments now and decrements when the returned guard drops —
    /// panic-safe bracketing for "in-flight" gauges.
    pub fn inc_scoped(&self) -> GaugeGuard<'_> {
        self.inc();
        GaugeGuard { gauge: self }
    }
}

/// Decrements its [`Gauge`] on drop. Created by [`Gauge::inc_scoped`].
#[derive(Debug)]
pub struct GaugeGuard<'a> {
    gauge: &'a Gauge,
}

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.gauge.dec();
    }
}

/// Number of buckets in every [`Histogram`].
///
/// Four sub-buckets per power-of-two octave: values 0–3 get exact buckets,
/// then each octave `[2^e, 2^{e+1})` splits into four, giving ≤ 25 %
/// relative bucket width. 160 buckets cover `[0, 7·2^38)` nanoseconds
/// (≈ 32 minutes); larger values saturate into the top bucket.
pub const HISTOGRAM_BUCKETS: usize = 160;

/// Bucket index for a nanosecond value (see [`HISTOGRAM_BUCKETS`]).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < 4 {
        v as usize
    } else {
        let e = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (e - 2)) & 3) as usize;
        (4 * (e - 1) + sub).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive lower bound of bucket `idx`, in nanoseconds.
#[inline]
pub fn bucket_lower(idx: usize) -> u64 {
    if idx < 4 {
        idx as u64
    } else {
        let e = idx / 4 + 1;
        let sub = (idx % 4) as u64;
        (4 + sub) << (e - 2)
    }
}

/// Exclusive upper bound of bucket `idx`, in nanoseconds.
///
/// The top (saturation) bucket is unbounded; `u64::MAX` stands in for ∞.
#[inline]
pub fn bucket_upper(idx: usize) -> u64 {
    if idx + 1 >= HISTOGRAM_BUCKETS {
        u64::MAX
    } else {
        bucket_lower(idx + 1)
    }
}

/// A fixed-bucket log-scale latency histogram over `u64` nanoseconds.
///
/// Recording is wait-free: one relaxed `fetch_add` per of bucket, count,
/// and sum, plus a relaxed `fetch_max` for the exact maximum. Quantiles
/// are computed at read time from a [`HistogramSnapshot`].
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records a duration (saturating to `u64` nanoseconds).
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_nanos(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records a raw nanosecond value.
    #[inline]
    pub fn record_nanos(&self, v: u64) {
        if cfg!(feature = "telemetry-off") {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the current state out for quantile math and diffing.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], from which quantiles are
/// interpolated. Diffable via [`HistogramSnapshot::since`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of all recorded values, in nanoseconds.
    pub sum: u64,
    /// Exact maximum recorded value, in nanoseconds.
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (used when diffing against an absent baseline).
    pub fn empty() -> Self {
        Self { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// Whether no values were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Count in bucket `idx` (for tests and renderers).
    pub fn bucket(&self, idx: usize) -> u64 {
        self.buckets[idx]
    }

    /// The `q`-quantile in nanoseconds (`q` clamped to `[0, 1]`), linearly
    /// interpolated inside the containing bucket; `0.0` when empty.
    ///
    /// The reported value lies within the log-scale bucket holding the
    /// exact sample quantile, so its relative error is bounded by the
    /// bucket width (≤ 25 %). The top of the highest non-empty bucket is
    /// capped at the exact recorded maximum.
    pub fn quantile_nanos(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (cum + c) as f64 >= rank {
                let lo = bucket_lower(idx) as f64;
                let hi = (bucket_upper(idx).min(self.max).max(bucket_lower(idx))) as f64;
                let frac = ((rank - cum as f64) / c as f64).clamp(0.0, 1.0);
                return (lo + (hi - lo) * frac).min(self.max as f64);
            }
            cum += c;
        }
        self.max as f64
    }

    /// Mean recorded value in nanoseconds (`0.0` when empty).
    pub fn mean_nanos(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bucket-wise difference `self − earlier` (saturating), for windowed
    /// percentiles in tests and benches.
    ///
    /// `max` keeps the later snapshot's value: the exact maximum of only
    /// the window is not recoverable from two cumulative snapshots.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
        }
    }
}

/// The process-global instrument registry (one map per instrument kind).
#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Returns the counter registered under `name`, creating it on first use.
///
/// Hot paths should cache the `Arc` (e.g. in a `OnceLock` or a struct
/// field) instead of re-resolving the name per event.
pub fn counter(name: &str) -> Arc<Counter> {
    let mut map = registry().counters.lock().expect("registry poisoned");
    map.entry(name.to_string()).or_default().clone()
}

/// Returns the gauge registered under `name`, creating it on first use.
pub fn gauge(name: &str) -> Arc<Gauge> {
    let mut map = registry().gauges.lock().expect("registry poisoned");
    map.entry(name.to_string()).or_default().clone()
}

/// Returns the histogram registered under `name`, creating it on first use.
pub fn histogram(name: &str) -> Arc<Histogram> {
    let mut map = registry().histograms.lock().expect("registry poisoned");
    map.entry(name.to_string()).or_default().clone()
}

/// Visits every registered instrument (used by the snapshot layer).
pub(crate) fn visit(
    mut on_counter: impl FnMut(&str, u64),
    mut on_gauge: impl FnMut(&str, i64),
    mut on_histogram: impl FnMut(&str, HistogramSnapshot),
) {
    for (name, c) in registry().counters.lock().expect("registry poisoned").iter() {
        on_counter(name, c.get());
    }
    for (name, g) in registry().gauges.lock().expect("registry poisoned").iter() {
        on_gauge(name, g.get());
    }
    for (name, h) in registry().histograms.lock().expect("registry poisoned").iter() {
        on_histogram(name, h.snapshot());
    }
}

#[cfg(test)]
#[cfg(not(feature = "telemetry-off"))]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        g.inc();
        g.dec();
        assert_eq!(g.get(), 4);
        {
            let _guard = g.inc_scoped();
            assert_eq!(g.get(), 5);
        }
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn bucket_boundaries_are_contiguous_and_exact_below_four() {
        // Values 0..4 land in their own exact buckets.
        for v in 0..4u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower(v as usize), v);
        }
        // Every bucket's lower bound maps back to that bucket, and bounds
        // tile the axis with no gaps or overlaps.
        for idx in 0..HISTOGRAM_BUCKETS - 1 {
            let lo = bucket_lower(idx);
            let hi = bucket_upper(idx);
            assert!(lo < hi, "bucket {idx}: empty range {lo}..{hi}");
            assert_eq!(bucket_index(lo), idx, "lower bound of {idx}");
            assert_eq!(bucket_index(hi - 1), idx, "last value of {idx}");
            assert_eq!(bucket_index(hi), idx + 1, "first value past {idx}");
            assert_eq!(bucket_upper(idx), bucket_lower(idx + 1));
        }
        // Relative width ≤ 25% for every bucket past the exact region.
        for idx in 4..HISTOGRAM_BUCKETS - 1 {
            let (lo, hi) = (bucket_lower(idx), bucket_upper(idx));
            let rel = (hi - lo) as f64 / lo as f64;
            assert!(rel <= 0.25 + 1e-12, "bucket {idx}: relative width {rel}");
        }
    }

    #[test]
    fn saturation_at_top_bucket() {
        let h = Histogram::new();
        h.record_nanos(u64::MAX);
        h.record_nanos(bucket_lower(HISTOGRAM_BUCKETS - 1));
        let s = h.snapshot();
        assert_eq!(s.bucket(HISTOGRAM_BUCKETS - 1), 2);
        assert_eq!(s.count, 2);
        assert_eq!(s.max, u64::MAX);
        // Quantiles never exceed the exact observed max even when the top
        // bucket is formally unbounded.
        assert!(s.quantile_nanos(0.99) <= u64::MAX as f64);
        assert!(s.quantile_nanos(0.0) >= bucket_lower(HISTOGRAM_BUCKETS - 1) as f64);
    }

    #[test]
    fn percentile_interpolation_single_bucket() {
        // All mass in one bucket: quantiles interpolate linearly between
        // the bucket's bounds and stay within them.
        let h = Histogram::new();
        for _ in 0..100 {
            h.record_nanos(1000);
        }
        let s = h.snapshot();
        let idx = bucket_index(1000);
        let (lo, hi) = (bucket_lower(idx) as f64, s.max as f64);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let v = s.quantile_nanos(q);
            assert!(v >= lo && v <= hi, "q={q}: {v} outside [{lo}, {hi}]");
        }
        assert_eq!(s.quantile_nanos(1.0), s.max as f64);
    }

    #[test]
    fn percentiles_order_and_split_mass() {
        let h = Histogram::new();
        // 90 fast (≈1µs) + 10 slow (≈1ms) samples: p50 must sit near the
        // fast mode, p99 near the slow one.
        for _ in 0..90 {
            h.record_nanos(1_000);
        }
        for _ in 0..10 {
            h.record_nanos(1_000_000);
        }
        let s = h.snapshot();
        let p50 = s.quantile_nanos(0.50);
        let p90 = s.quantile_nanos(0.90);
        let p99 = s.quantile_nanos(0.99);
        assert!(p50 <= p90 && p90 <= p99, "quantiles must be monotone");
        assert!(p50 < 1_500.0, "p50 {p50} should be in the fast mode");
        assert!(p99 > 800_000.0, "p99 {p99} should be in the slow mode");
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 1_000_000);
    }

    #[test]
    fn snapshot_since_diffs_bucketwise() {
        let h = Histogram::new();
        h.record_nanos(10);
        let before = h.snapshot();
        h.record_nanos(10);
        h.record_nanos(2000);
        let window = h.snapshot().since(&before);
        assert_eq!(window.count, 2);
        assert_eq!(window.sum, 2010);
        assert_eq!(window.bucket(bucket_index(10)), 1);
        assert_eq!(window.bucket(bucket_index(2000)), 1);
    }

    #[test]
    fn zero_and_empty_cases() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.quantile_nanos(0.5), 0.0);
        assert_eq!(s.mean_nanos(), 0.0);
        let h = Histogram::new();
        h.record_nanos(0);
        assert_eq!(h.snapshot().quantile_nanos(0.5), 0.0);
    }

    #[test]
    fn registry_returns_same_instrument_for_same_name() {
        let a = counter("pscc_test_registry_total{case=\"same\"}");
        let b = counter("pscc_test_registry_total{case=\"same\"}");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert!(Arc::ptr_eq(&a, &b));
        let h1 = histogram("pscc_test_registry_nanos");
        let h2 = histogram("pscc_test_registry_nanos");
        assert!(Arc::ptr_eq(&h1, &h2));
        let g1 = gauge("pscc_test_registry_depth");
        let g2 = gauge("pscc_test_registry_depth");
        assert!(Arc::ptr_eq(&g1, &g2));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Histogram quantiles agree with exact sorted-sample quantiles to
        /// within one log-scale bucket: the reported value must lie inside
        /// the bucket containing the exact sample quantile.
        #[test]
        fn quantiles_match_exact_within_bucket(
            samples in proptest::collection::vec(0u64..5_000_000_000, 1..400),
            qs in proptest::collection::vec(0u32..101, 1..8),
        ) {
            let h = Histogram::new();
            for &v in &samples {
                h.record_nanos(v);
            }
            let snap = h.snapshot();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for &qi in &qs {
                let q = qi as f64 / 100.0;
                let rank = q * sorted.len() as f64;
                let pos = (rank.ceil() as usize).clamp(1, sorted.len()) - 1;
                let exact = sorted[pos];
                let got = snap.quantile_nanos(q);
                let idx = bucket_index(exact);
                let lo = bucket_lower(idx) as f64;
                let hi = bucket_upper(idx).min(snap.max) as f64;
                proptest::prop_assert!(
                    got >= lo && got <= hi.max(lo),
                    "q={q}: histogram {got} outside bucket [{lo}, {hi}] of exact {exact}"
                );
            }
        }
    }
}

#[cfg(test)]
#[cfg(feature = "telemetry-off")]
mod off_tests {
    use super::*;

    #[test]
    fn everything_is_a_no_op_when_compiled_out() {
        let c = Counter::new();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
        let g = Gauge::new();
        g.set(5);
        g.inc();
        assert_eq!(g.get(), 0);
        let h = Histogram::new();
        h.record_nanos(1234);
        assert!(h.snapshot().is_empty());
        assert!(!crate::enabled());
    }
}
