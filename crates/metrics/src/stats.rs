//! Online latency statistics and histograms.

/// Online accumulator for packet latencies (or any non-negative integer
/// metric): count, mean, min/max, and an exact histogram for percentiles.
///
/// The histogram is indexed by value, which is appropriate here: latencies
/// in the paper's experiments are small integers (tens to hundreds of
/// time cycles).
///
/// All state is integer (`u128` sum, exact histogram), so
/// [`LatencyStats::merge`] is *exact* and order-insensitive — merging
/// per-shard accumulators in any order reproduces the sequential
/// accumulator bit-for-bit, which is what lets the sharded engine claim
/// bit-identical statistics (`PartialEq` exists to state exactly that in
/// tests).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyStats {
    count: u64,
    sum: u128,
    min: Option<u64>,
    max: Option<u64>,
    hist: Histogram,
}

impl LatencyStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += u128::from(value);
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
        self.hist.record(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean (`L_avg`); 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Maximum (`L_max`); 0 if empty.
    pub fn max(&self) -> u64 {
        self.max.unwrap_or(0)
    }

    /// Minimum; 0 if empty.
    pub fn min(&self) -> u64 {
        self.min.unwrap_or(0)
    }

    /// Smallest value `v` such that at least `p` (in `0.0..=1.0`) of the
    /// observations are `<= v`; 0 if empty.
    pub fn percentile(&self, p: f64) -> u64 {
        self.hist.percentile(p)
    }

    /// The underlying histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.hist.merge(&other.hist);
    }

    /// Exact sum of all observations (checkpoint serialization; pair
    /// with [`LatencyStats::from_raw`]).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact minimum, `None` if empty (checkpoint serialization —
    /// distinguishes "no observations" from an observed 0, which
    /// [`LatencyStats::min`] collapses).
    pub fn min_opt(&self) -> Option<u64> {
        self.min
    }

    /// Exact maximum, `None` if empty (checkpoint serialization).
    pub fn max_opt(&self) -> Option<u64> {
        self.max
    }

    /// Rebuild an accumulator from serialized raw state. The caller is
    /// responsible for consistency (`count == hist.total()`, min/max
    /// bracketing the histogram support); an engine snapshot restores
    /// exactly what [`LatencyStats::sum`]/[`LatencyStats::min_opt`]/
    /// [`LatencyStats::max_opt`]/[`LatencyStats::histogram`] captured,
    /// which makes the round trip bit-exact.
    pub fn from_raw(
        count: u64,
        sum: u128,
        min: Option<u64>,
        max: Option<u64>,
        hist: Histogram,
    ) -> Self {
        Self {
            count,
            sum,
            min,
            max,
            hist,
        }
    }
}

/// Exact integer histogram (bucket per value), saturating at
/// [`Histogram::OVERFLOW_CAP`].
///
/// Bucket storage always ends at the largest recorded value (`record`
/// and `merge` both resize exactly), so equal observation multisets
/// compare equal under the derived `PartialEq` regardless of how they
/// were accumulated.
///
/// # Memory model
///
/// Storage is one `u64` per value up to the largest recorded one, which
/// is appropriate for small-integer metrics (latencies) but would let a
/// single huge value — e.g. a corrupted timestamp difference — demand a
/// multi-gigabyte allocation (or, on 32-bit targets, panic converting
/// the value to an index). Values at or above [`Histogram::OVERFLOW_CAP`]
/// therefore **saturate** into a single terminal overflow bucket, and
/// the histogram remembers it via [`Histogram::saturated`]. The overflow
/// bucket mixes distinct values, so percentiles that land in it are
/// lower bounds; check the flag before trusting the tail.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    total: u64,
    saturated: bool,
}

impl Histogram {
    /// Values at or above this cap share one terminal overflow bucket
    /// (2^20 exact buckets = 8 MiB of counts at most).
    pub const OVERFLOW_CAP: u64 = 1 << 20;

    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation of `value`. Values at or above
    /// [`Histogram::OVERFLOW_CAP`] saturate into the terminal overflow
    /// bucket (see the type-level memory model).
    pub fn record(&mut self, value: u64) {
        if value >= Self::OVERFLOW_CAP {
            self.saturated = true;
        }
        let i = usize::try_from(value.min(Self::OVERFLOW_CAP)).expect("capped value fits usize");
        if i >= self.buckets.len() {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += 1;
        self.total += 1;
    }

    /// Whether any recorded (or merged-in) value saturated into the
    /// terminal overflow bucket at [`Histogram::OVERFLOW_CAP`].
    pub fn saturated(&self) -> bool {
        self.saturated
    }

    /// Number of observations of exactly `value`.
    pub fn count_at(&self, value: u64) -> u64 {
        self.buckets.get(value as usize).copied().unwrap_or(0)
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Smallest value covering fraction `p` of the mass (`p` clamped to
    /// `0.0..=1.0`); 0 if empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        let target = (p * self.total as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (v, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return v as u64;
            }
        }
        (self.buckets.len().saturating_sub(1)) as u64
    }

    /// Merge another histogram into this one (exact: per-value counts
    /// add, and the overflow buckets — same terminal index on both
    /// sides — add like any other bucket).
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &c) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += c;
        }
        self.total += other.total;
        self.saturated |= other.saturated;
    }

    /// Non-empty `(value, count)` pairs in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| (v as u64, c))
    }

    /// Rebuild a histogram from sparse `(value, count)` pairs — the
    /// exact shape [`Histogram::iter`] emits — plus the saturation
    /// flag. Values are *not* re-capped: a serialized histogram only
    /// ever contains already-capped indices, so the round trip through
    /// a checkpoint is bit-exact (storage ends at the largest pair, as
    /// after live accumulation).
    pub fn from_counts(pairs: impl IntoIterator<Item = (u64, u64)>, saturated: bool) -> Self {
        let mut h = Histogram {
            buckets: Vec::new(),
            total: 0,
            saturated,
        };
        for (v, c) in pairs {
            let i = usize::try_from(v).expect("bucket index fits usize");
            if i >= h.buckets.len() {
                h.buckets.resize(i + 1, 0);
            }
            h.buckets[i] += c;
            h.total += c;
        }
        h
    }
}

/// HDR-style log-bucketed histogram for wide-range latency tails.
///
/// Where [`Histogram`] spends one bucket per exact value (right for the
/// paper's small-integer latencies), `LogHistogram` covers `0..2^40`
/// with 4 sub-buckets per octave — 157 fixed buckets total — trading
/// exactness for constant memory: any bucketed percentile is reported
/// as its bucket's *upper bound*, an overestimate by less than 25% of
/// the true value. The exact maximum is tracked separately (delivery
/// bound violations must not be blurred by bucketing), and values at or
/// above [`LogHistogram::OVERFLOW_CAP`] saturate into the terminal
/// bucket, mirroring [`Histogram`]'s saturation semantics.
///
/// All state is integer, so [`LogHistogram::merge`] is exact and
/// order-insensitive — per-shard histograms merge bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    total: u64,
    max: u64,
    saturated: bool,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Values at or above this cap share the terminal bucket and set
    /// the saturation flag.
    pub const OVERFLOW_CAP: u64 = 1 << 40;

    /// Number of buckets: indices 0..=3 are exact, then 4 sub-buckets
    /// per octave up to the terminal bucket for `OVERFLOW_CAP`.
    const NUM_BUCKETS: usize = 157;

    /// Empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; Self::NUM_BUCKETS],
            total: 0,
            max: 0,
            saturated: false,
        }
    }

    /// Bucket index of `value` (must be `<= OVERFLOW_CAP`): values
    /// below 4 get exact buckets; value `v` with top bit at position
    /// `b >= 2` lands in sub-bucket `(v >> (b - 2)) - 4` of octave `b`.
    fn index(value: u64) -> usize {
        if value < 4 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros() as usize;
        let exp = msb - 2;
        let sub = ((value >> exp) - 4) as usize;
        4 + exp * 4 + sub
    }

    /// Upper bound (inclusive) of bucket `i` — what percentiles report.
    fn upper_bound(i: usize) -> u64 {
        if i < 4 {
            return i as u64;
        }
        let exp = (i - 4) / 4;
        let sub = ((i - 4) % 4) as u64;
        ((sub + 5) << exp) - 1
    }

    /// Record one observation. Values at or above
    /// [`LogHistogram::OVERFLOW_CAP`] saturate into the terminal
    /// bucket and set [`LogHistogram::saturated`].
    pub fn record(&mut self, value: u64) {
        if value >= Self::OVERFLOW_CAP {
            self.saturated = true;
        }
        let i = Self::index(value.min(Self::OVERFLOW_CAP));
        self.buckets[i] += 1;
        self.total += 1;
        self.max = self.max.max(value);
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Exact maximum recorded value; 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether any value saturated at [`LogHistogram::OVERFLOW_CAP`].
    pub fn saturated(&self) -> bool {
        self.saturated
    }

    /// Upper bound of the smallest bucket covering fraction `p`
    /// (clamped to `0.0..=1.0`) of the mass; 0 if empty. Overestimates
    /// the true percentile by less than 25% (4 sub-buckets per octave),
    /// and never exceeds the exact [`LogHistogram::max`], which caps
    /// the terminal bucket's report.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        let target = (p * self.total as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Self::upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one (exact: buckets add
    /// elementwise, max takes the max, saturation ORs).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, &b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
        self.saturated |= other.saturated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = LatencyStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.percentile(0.5), 0);
    }

    #[test]
    fn basic_accumulation() {
        let mut s = LatencyStats::new();
        for v in [3, 5, 7, 5] {
            s.record(v);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), 3);
        assert_eq!(s.max(), 7);
    }

    #[test]
    fn percentiles() {
        let mut s = LatencyStats::new();
        for v in 1..=100 {
            s.record(v);
        }
        assert_eq!(s.percentile(0.5), 50);
        assert_eq!(s.percentile(0.99), 99);
        assert_eq!(s.percentile(1.0), 100);
        assert_eq!(s.percentile(0.0), 1);
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyStats::new();
        a.record(1);
        a.record(10);
        let mut b = LatencyStats::new();
        b.record(5);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 10);
        assert!((a.mean() - 16.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_iter_skips_empty_buckets() {
        let mut h = Histogram::new();
        h.record(2);
        h.record(2);
        h.record(9);
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs, vec![(2, 2), (9, 1)]);
        assert_eq!(h.count_at(3), 0);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn histogram_saturates_instead_of_allocating_unbounded_buckets() {
        let mut h = Histogram::new();
        assert!(!h.saturated());
        // A hostile or buggy value must not OOM the vec-indexed storage:
        // it lands in the terminal overflow bucket and sets the flag.
        h.record(u64::MAX);
        h.record(Histogram::OVERFLOW_CAP);
        h.record(Histogram::OVERFLOW_CAP - 1);
        assert!(h.saturated());
        assert_eq!(h.count_at(Histogram::OVERFLOW_CAP), 2);
        assert_eq!(h.count_at(Histogram::OVERFLOW_CAP - 1), 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn histogram_from_counts_round_trips_iter() {
        let mut h = Histogram::new();
        for v in [0, 3, 3, 7, 1000, u64::MAX] {
            h.record(v);
        }
        let rebuilt = Histogram::from_counts(h.iter(), h.saturated());
        assert_eq!(rebuilt, h);
    }

    #[test]
    fn latency_stats_from_raw_round_trips() {
        let mut s = LatencyStats::new();
        for v in [3, 5, 7, 5, 900] {
            s.record(v);
        }
        let rebuilt = LatencyStats::from_raw(
            s.count(),
            s.sum(),
            s.min_opt(),
            s.max_opt(),
            Histogram::from_counts(s.histogram().iter(), s.histogram().saturated()),
        );
        assert_eq!(rebuilt, s);
        // Empty round trip preserves the None min/max (not Some(0)).
        let empty = LatencyStats::new();
        let rebuilt = LatencyStats::from_raw(0, 0, None, None, Histogram::new());
        assert_eq!(rebuilt, empty);
    }

    #[test]
    fn log_histogram_buckets_are_contiguous_and_monotone() {
        // Every value maps to a valid bucket whose upper bound is >= it,
        // and bucket indices are monotone in the value.
        let mut prev = 0usize;
        for v in 0..4096u64 {
            let i = LogHistogram::index(v);
            assert!(i < LogHistogram::NUM_BUCKETS, "index {i} for {v}");
            assert!(i >= prev, "monotone at {v}");
            assert!(LogHistogram::upper_bound(i) >= v);
            prev = i;
        }
        for v in [1u64 << 20, (1 << 40) - 1] {
            let i = LogHistogram::index(v);
            assert!(i < LogHistogram::NUM_BUCKETS, "index {i} for {v}");
            assert!(LogHistogram::upper_bound(i) >= v);
        }
        assert_eq!(LogHistogram::index(LogHistogram::OVERFLOW_CAP), 156);
    }

    #[test]
    fn log_histogram_percentile_error_is_bounded() {
        let mut h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (p, exact) in [(0.5, 5_000u64), (0.95, 9_500), (0.99, 9_900)] {
            let got = h.percentile(p);
            assert!(got >= exact, "p{p} {got} under exact {exact}");
            assert!(
                (got - exact) as f64 <= 0.25 * exact as f64,
                "p{p} {got} overestimates exact {exact} by more than 25%"
            );
        }
        assert_eq!(h.percentile(1.0), 10_000); // capped by the exact max
        assert_eq!(h.max(), 10_000);
    }

    #[test]
    fn log_histogram_saturates_and_merges_exactly() {
        let mut a = LogHistogram::new();
        a.record(u64::MAX);
        assert!(a.saturated());
        assert_eq!(a.max(), u64::MAX);
        let mut b = LogHistogram::new();
        b.record(7);
        b.record(300);
        // Merging shard halves reproduces the combined histogram.
        let mut whole = LogHistogram::new();
        for v in [u64::MAX, 7, 300] {
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn log_histogram_empty_is_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.total(), 0);
        assert!(!h.saturated());
    }

    #[test]
    fn histogram_merge_propagates_saturation() {
        let mut saturated = Histogram::new();
        saturated.record(u64::MAX);
        let mut clean = Histogram::new();
        clean.record(7);
        assert!(!clean.saturated());
        clean.merge(&saturated);
        assert!(clean.saturated());
        assert_eq!(clean.count_at(Histogram::OVERFLOW_CAP), 1);
        assert_eq!(clean.total(), 2);
    }
}
