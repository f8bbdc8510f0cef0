//! Lock-free log-linear histogram over `u64` values.
//!
//! Promoted from `crates/serve/src/metrics.rs`: 8 sub-buckets per
//! power-of-two octave (≤ 12.5% relative error), 256 buckets covering
//! the full `u64` range. Quantiles interpolate linearly *within* the
//! bucket holding the target rank (clamped to the exactly-tracked
//! min/max, so `quantile(1.0)` is the true maximum). On top of the
//! promoted core it gains `sum`/`min`/`max` tracking, snapshotting,
//! `merge_from`, a `const` constructor so a registry of histograms can
//! live in a `static`, and per-bucket *exemplars*: the highest trace id
//! to land in each bucket, so a tail bucket points at a concrete
//! replayable request timeline (see [`crate::stitch`]).

use std::sync::atomic::{AtomicU64, Ordering};

const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;

/// Number of buckets; public so property tests can sweep every boundary.
pub const BUCKETS: usize = 256;

/// Bucket index for a recorded value: identity below [`SUB`], then
/// log-linear (octave = position of the MSB, sub-bucket = the next
/// [`SUB_BITS`] bits).
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let octave = (msb - SUB_BITS) as usize;
    let sub = ((v >> (msb - SUB_BITS)) & (SUB - 1)) as usize;
    ((octave + 1) * SUB as usize + sub).min(BUCKETS - 1)
}

/// Smallest value mapping to bucket `idx` (inverse of [`bucket_index`]).
#[must_use]
pub fn bucket_floor(idx: usize) -> u64 {
    if idx < SUB as usize {
        return idx as u64;
    }
    let octave = idx / SUB as usize - 1;
    let sub = (idx % SUB as usize) as u64;
    (SUB + sub) << octave
}

/// Log-linear histogram with lock-free `SeqCst` recording.
///
/// Everything is `AtomicU64`, so the hot path never takes a lock and a
/// snapshot can be read from any thread. (`Ordering::Relaxed` would do
/// for monotone counters, but dv-lint R2 reserves it for
/// `crates/runtime`; the `SeqCst` cost is noise next to a scored image.)
pub struct LogLinearHistogram {
    buckets: [AtomicU64; BUCKETS],
    /// Per-bucket exemplar: the highest trace id recorded into the
    /// bucket (0 = none). `fetch_max` makes capture commutative, so the
    /// exemplar is a pure function of the recorded (value, trace) set —
    /// deterministic under any thread interleaving.
    exemplars: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl LogLinearHistogram {
    /// An empty histogram. `const` so registries of histograms can be
    /// `static`-initialised without runtime allocation.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            exemplars: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    pub fn record(&self, v: u64) {
        self.record_with_exemplar(v, 0);
    }

    /// Records one value and stamps `trace` as the bucket's exemplar if
    /// it is the highest trace id seen there (`trace` 0 = no exemplar).
    /// One extra lock-free `fetch_max` over [`record`](Self::record) —
    /// cheap enough to stay on even when span tracing is compiled out.
    pub fn record_with_exemplar(&self, v: u64, trace: u64) {
        let idx = bucket_index(v);
        self.buckets[idx].fetch_add(1, Ordering::SeqCst);
        if trace != 0 {
            self.exemplars[idx].fetch_max(trace, Ordering::SeqCst);
        }
        self.count.fetch_add(1, Ordering::SeqCst);
        self.sum.fetch_add(v, Ordering::SeqCst);
        self.min.fetch_min(v, Ordering::SeqCst);
        self.max.fetch_max(v, Ordering::SeqCst);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::SeqCst)
    }

    /// Sum of recorded values (wrapping beyond `u64::MAX`).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::SeqCst)
    }

    /// Smallest recorded value, or 0 when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count() == 0 {
            return 0;
        }
        self.min.load(Ordering::SeqCst)
    }

    /// Largest recorded value, or 0 when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::SeqCst)
    }

    /// Exact mean of recorded values, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum() as f64 / n as f64
    }

    /// The bucket index holding the `ceil(q * count)`-th smallest
    /// recorded value, plus the count of values in buckets before it.
    fn rank_bucket(&self, q: f64) -> Option<(usize, u64, u64)> {
        let count = self.count.load(Ordering::SeqCst);
        if count == 0 {
            return None;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for idx in 0..BUCKETS {
            let n = self.buckets[idx].load(Ordering::SeqCst);
            if n > 0 && seen + n >= target {
                return Some((idx, target - seen, n));
            }
            seen += n;
        }
        None
    }

    /// Approximate quantile (`q` in `[0, 1]`), or 0 when nothing was
    /// recorded: the target rank's position *within* its bucket is
    /// interpolated linearly across the bucket's value range, then
    /// clamped to the exactly-tracked `[min, max]` — so `quantile(1.0)`
    /// is the true maximum and no quantile undershoots the minimum.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let Some((idx, pos, n)) = self.rank_bucket(q) else {
            // Racing a concurrent record can leave count ahead of the
            // bucket array; fall back to the largest occupied value.
            return if self.count() == 0 { 0 } else { self.max() };
        };
        let lo = bucket_floor(idx);
        let hi = if idx + 1 < BUCKETS {
            bucket_floor(idx + 1)
        } else {
            lo + 1
        };
        let within = ((hi - lo) as u128 * pos as u128 / n as u128) as u64;
        (lo + within).clamp(self.min(), self.max())
    }

    /// The exemplar trace id of the bucket holding quantile `q` (0 when
    /// the histogram is empty or no traced value landed in that bucket).
    /// This is what links a `p99` readout back to a concrete stitched
    /// request timeline.
    #[must_use]
    pub fn quantile_exemplar(&self, q: f64) -> u64 {
        match self.rank_bucket(q) {
            Some((idx, _, _)) => self.exemplars[idx].load(Ordering::SeqCst),
            None => 0,
        }
    }

    /// The exemplar trace id recorded into bucket `idx` (0 = none).
    #[must_use]
    pub fn bucket_exemplar(&self, idx: usize) -> u64 {
        self.exemplars[idx.min(BUCKETS - 1)].load(Ordering::SeqCst)
    }

    /// Adds every sample of `other` into `self`. Bucket-exact: merging
    /// is associative and commutative, and quantiles of a merge equal
    /// quantiles of recording both streams into one histogram.
    pub fn merge_from(&self, other: &Self) {
        for idx in 0..BUCKETS {
            let n = other.buckets[idx].load(Ordering::SeqCst);
            if n > 0 {
                self.buckets[idx].fetch_add(n, Ordering::SeqCst);
            }
            let ex = other.exemplars[idx].load(Ordering::SeqCst);
            if ex > 0 {
                self.exemplars[idx].fetch_max(ex, Ordering::SeqCst);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::SeqCst), Ordering::SeqCst);
        self.sum
            .fetch_add(other.sum.load(Ordering::SeqCst), Ordering::SeqCst);
        self.min
            .fetch_min(other.min.load(Ordering::SeqCst), Ordering::SeqCst);
        self.max
            .fetch_max(other.max.load(Ordering::SeqCst), Ordering::SeqCst);
    }

    /// Zeroes all buckets and statistics.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::SeqCst);
        }
        for e in &self.exemplars {
            e.store(0, Ordering::SeqCst);
        }
        self.count.store(0, Ordering::SeqCst);
        self.sum.store(0, Ordering::SeqCst);
        self.min.store(u64::MAX, Ordering::SeqCst);
        self.max.store(0, Ordering::SeqCst);
    }

    /// A point-in-time copy of the summary statistics.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }
}

impl Default for LogLinearHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time summary of a [`LogLinearHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Median (within-bucket interpolated).
    pub p50: u64,
    /// 90th percentile (within-bucket interpolated).
    pub p90: u64,
    /// 95th percentile (within-bucket interpolated).
    pub p95: u64,
    /// 99th percentile (within-bucket interpolated).
    pub p99: u64,
    /// 99.9th percentile (within-bucket interpolated).
    pub p999: u64,
}

impl HistogramSnapshot {
    /// Arithmetic mean of recorded values (0 when empty). Exact, unlike
    /// the bucketed quantiles: `sum` and `count` are tracked precisely,
    /// which is what makes e.g. a mean latency readable straight off a
    /// `serve.latency_us` export.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_floors_match() {
        let mut last = 0;
        for v in [0u64, 1, 7, 8, 9, 15, 16, 31, 100, 1000, 65_535, 1 << 40] {
            let idx = bucket_index(v);
            assert!(idx >= last, "index not monotone at {v}");
            last = idx;
            assert!(bucket_floor(idx) <= v, "floor above value at {v}");
            if idx + 1 < BUCKETS {
                assert!(bucket_floor(idx + 1) > v, "value past next floor at {v}");
            }
        }
    }

    #[test]
    fn quantiles_land_in_the_right_buckets() {
        let h = LogLinearHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        // ≤ 12.5% bucket error plus midpoint rounding.
        assert!((400..=650).contains(&p50), "p50 {p50}");
        assert!((850..=1200).contains(&p99), "p99 {p99}");
        assert_eq!(h.quantile(0.0).max(1), h.quantile(0.001).max(1));
    }

    /// Hand-built histograms pin the interpolation arithmetic exactly:
    /// rank position within the bucket scales linearly across the
    /// bucket's value range, clamped to the tracked `[min, max]`.
    #[test]
    fn interpolated_quantiles_pin_exact_values() {
        // A single value: every quantile clamps to it.
        let h = LogLinearHistogram::new();
        h.record(10);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 10, "q {q}");
        }

        // Four spread values, one per bucket: rank r lands at the top
        // edge of its bucket (pos = n = 1), clamped at the extremes.
        // Buckets: 100∈[96,104), 200∈[192,208), 300∈[288,320),
        // 400∈[384,416).
        let h = LogLinearHistogram::new();
        for v in [100u64, 200, 300, 400] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.25), 104);
        assert_eq!(h.quantile(0.50), 208);
        assert_eq!(h.quantile(0.75), 320);
        assert_eq!(h.quantile(1.0), 400, "p100 clamps to the exact max");

        // Uniform 1..=1000: p50 rank 500 sits 21 deep in the 32-wide
        // bucket [480,512) → 501; p90 rank 900 sits 5 deep in [896,960)
        // → 901; p999 interpolates past max and clamps back to 1000.
        let h = LogLinearHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.50), 501);
        assert_eq!(h.quantile(0.90), 901);
        assert_eq!(h.quantile(0.999), 1000);
        let s = h.snapshot();
        assert_eq!(s.p50, 501);
        assert_eq!(s.p999, 1000);
    }

    #[test]
    fn exemplars_capture_the_highest_trace_per_bucket() {
        let h = LogLinearHistogram::new();
        h.record_with_exemplar(100, 7);
        h.record_with_exemplar(100, 9);
        h.record_with_exemplar(100, 3);
        h.record_with_exemplar(5000, 42);
        h.record(5000); // trace 0 never overwrites an exemplar
        assert_eq!(h.bucket_exemplar(bucket_index(100)), 9);
        assert_eq!(h.bucket_exemplar(bucket_index(5000)), 42);
        assert_eq!(h.bucket_exemplar(bucket_index(17)), 0, "untouched bucket");
        // The quantile walk and the exemplar walk agree on the bucket.
        assert_eq!(h.quantile_exemplar(0.25), 9);
        assert_eq!(h.quantile_exemplar(1.0), 42);

        let merged = LogLinearHistogram::new();
        merged.record_with_exemplar(100, 8);
        merged.merge_from(&h);
        assert_eq!(merged.bucket_exemplar(bucket_index(100)), 9, "merge max");

        h.reset();
        assert_eq!(h.quantile_exemplar(0.5), 0);
        assert_eq!(h.bucket_exemplar(bucket_index(100)), 0);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LogLinearHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.count(), 0);
        let s = h.snapshot();
        assert_eq!(s.p99, 0);
    }

    #[test]
    fn min_max_sum_track_exactly() {
        let h = LogLinearHistogram::new();
        for v in [5u64, 900, 17, 3, 250] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5 + 900 + 17 + 3 + 250);
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 900);
    }

    #[test]
    fn reset_returns_to_empty() {
        let h = LogLinearHistogram::new();
        h.record(42);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
    }
}
