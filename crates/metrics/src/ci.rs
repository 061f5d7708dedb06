//! Confidence-interval math for replicated experiments: Welford online
//! mean/variance, Student-t 95% intervals, and overlap-aware A/B
//! verdicts.
//!
//! The sweep and perf harnesses replicate every measurement across R
//! independent RNG seeds (see `fadr_sim::lane_seed`) and report
//! `mean ± half_width` per point instead of a single noisy sample. The
//! t-quantile table is exact for 1–30 degrees of freedom and rounds
//! *down in df* (up in quantile) between the tabulated breakpoints
//! above 30, so reported intervals are conservative: never narrower
//! than the true t-interval.

/// Online mean/variance accumulator (Welford's algorithm): numerically
/// stable single-pass computation of the sample mean and the unbiased
/// (n−1) sample variance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulator over an iterator of samples.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut s = Self::new();
        for x in samples {
            s.push(x);
        }
        s
    }

    /// Record one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of observations.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Sample mean; 0.0 if empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (n−1 denominator); 0.0 with fewer than
    /// two observations (the degenerate case a t-interval reports as
    /// infinitely wide, not as zero-width).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation (square root of [`RunningStats::variance`]).
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// The t-based 95% confidence interval for the mean. With fewer
    /// than two samples the half-width is infinite: one sample carries
    /// no spread information, and an honest harness must say so rather
    /// than print a zero-width interval.
    pub fn ci95(&self) -> MeanCi {
        let half_width = if self.n < 2 {
            f64::INFINITY
        } else {
            t_quantile_975(self.n - 1) * (self.variance() / self.n as f64).sqrt()
        };
        MeanCi {
            mean: self.mean,
            half_width,
            n: self.n,
        }
    }
}

/// Two-sided 97.5% Student-t quantile for `df` degrees of freedom (the
/// multiplier of a 95% confidence interval). Exact for `df` 1–30;
/// between the tabulated breakpoints above 30 the next *lower* df's
/// (larger) quantile is used, so derived intervals are conservative;
/// 1.96 (the normal limit) beyond 120.
pub fn t_quantile_975(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[df as usize - 1],
        31..=39 => TABLE[29],
        40..=59 => 2.021,
        60..=119 => 2.000,
        120..=999 => 1.980,
        _ => 1.960,
    }
}

/// A mean with its 95% confidence half-width: the `mean ± half_width`
/// a replicated sweep point reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanCi {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the 95% interval (infinite when `n < 2`).
    pub half_width: f64,
    /// Number of samples behind the estimate.
    pub n: u64,
}

impl MeanCi {
    /// 95% interval over an iterator of samples.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Self {
        RunningStats::from_samples(samples).ci95()
    }

    /// Lower edge of the interval.
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper edge of the interval.
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether the two intervals overlap (shared mass means the data
    /// cannot distinguish the means at this confidence).
    pub fn overlaps(&self, other: &MeanCi) -> bool {
        self.lo() <= other.hi() && other.lo() <= self.hi()
    }
}

impl std::fmt::Display for MeanCi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.half_width.is_finite() {
            write!(f, "{:.4} ± {:.4}", self.mean, self.half_width)
        } else {
            write!(f, "{:.4} ± ∞", self.mean)
        }
    }
}

/// Overlap-aware A/B verdict for lower-is-better measurements (run
/// times): a difference only counts when the 95% intervals are
/// disjoint. This replaces the bare 2-sample comparison the perf
/// harness used to make, which on a ±10% container read noise as
/// signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate's interval lies entirely below the baseline's.
    Faster,
    /// The candidate's interval lies entirely above the baseline's.
    Slower,
    /// The intervals overlap: the data cannot distinguish the two.
    WithinNoise,
}

impl Verdict {
    /// Verdict for a lower-is-better `candidate` against `baseline`.
    /// Overlapping (or infinite) intervals yield
    /// [`Verdict::WithinNoise`] — with `n < 2` on either side no
    /// difference can ever be claimed.
    pub fn of_lower_better(candidate: &MeanCi, baseline: &MeanCi) -> Verdict {
        if candidate.overlaps(baseline) {
            Verdict::WithinNoise
        } else if candidate.hi() < baseline.lo() {
            Verdict::Faster
        } else {
            Verdict::Slower
        }
    }

    /// Lowercase label (`faster` / `slower` / `within-noise`).
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Faster => "faster",
            Verdict::Slower => "slower",
            Verdict::WithinNoise => "within-noise",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fixture: mean/variance/CI of a hand-computed sample set.
    ///
    /// samples = [2, 4, 4, 4, 5, 5, 7, 9]: mean 5, sum of squared
    /// deviations 32, sample variance 32/7, std-err sqrt(32/7/8),
    /// t(df=7) = 2.365.
    #[test]
    fn welford_matches_hand_computed_fixture() {
        let s = RunningStats::from_samples([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        let ci = s.ci95();
        let expect_hw = 2.365 * (32.0 / 7.0 / 8.0_f64).sqrt();
        assert!(
            (ci.half_width - expect_hw).abs() < 1e-9,
            "hw {}",
            ci.half_width
        );
    }

    #[test]
    fn welford_is_stable_under_large_offsets() {
        // The naive sum-of-squares formula catastrophically cancels
        // here; Welford must not.
        let offset = 1e9;
        let s = RunningStats::from_samples([offset + 1.0, offset + 2.0, offset + 3.0]);
        assert!((s.mean() - (offset + 2.0)).abs() < 1e-6);
        assert!((s.variance() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn single_sample_has_infinite_interval() {
        let ci = MeanCi::from_samples([42.0]);
        assert_eq!(ci.n, 1);
        assert_eq!(ci.mean, 42.0);
        assert!(ci.half_width.is_infinite());
        // An infinite interval overlaps everything: no verdict but
        // within-noise is ever possible.
        let other = MeanCi::from_samples([1.0, 1.1, 0.9]);
        assert_eq!(Verdict::of_lower_better(&ci, &other), Verdict::WithinNoise);
        assert_eq!(Verdict::of_lower_better(&other, &ci), Verdict::WithinNoise);
    }

    #[test]
    fn zero_variance_has_zero_width_interval() {
        let ci = MeanCi::from_samples([3.0, 3.0, 3.0, 3.0]);
        assert_eq!(ci.mean, 3.0);
        assert_eq!(ci.half_width, 0.0);
        // Degenerate equal intervals still touch: self-vs-self is
        // within noise, not "faster".
        assert_eq!(Verdict::of_lower_better(&ci, &ci), Verdict::WithinNoise);
    }

    #[test]
    fn empty_stats_are_degenerate() {
        let s = RunningStats::new();
        assert_eq!(s.n(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.ci95().half_width.is_infinite());
    }

    #[test]
    fn t_table_spot_checks() {
        assert!((t_quantile_975(1) - 12.706).abs() < 1e-9);
        assert!((t_quantile_975(7) - 2.365).abs() < 1e-9);
        assert!((t_quantile_975(30) - 2.042).abs() < 1e-9);
        // Between breakpoints the *lower* df's larger quantile applies
        // (conservative), monotone nonincreasing overall.
        assert_eq!(t_quantile_975(35), t_quantile_975(30));
        assert_eq!(t_quantile_975(45), 2.021);
        assert_eq!(t_quantile_975(100), 2.000);
        assert_eq!(t_quantile_975(5000), 1.960);
        let mut prev = f64::INFINITY;
        for df in 1..200 {
            let t = t_quantile_975(df);
            assert!(t <= prev, "t not monotone at df={df}");
            prev = t;
        }
    }

    #[test]
    fn disjoint_intervals_give_directional_verdicts() {
        let fast = MeanCi::from_samples([1.0, 1.1, 0.9, 1.0]);
        let slow = MeanCi::from_samples([2.0, 2.1, 1.9, 2.0]);
        assert_eq!(Verdict::of_lower_better(&fast, &slow), Verdict::Faster);
        assert_eq!(Verdict::of_lower_better(&slow, &fast), Verdict::Slower);
        assert_eq!(Verdict::Faster.label(), "faster");
        assert_eq!(Verdict::WithinNoise.label(), "within-noise");
    }

    #[test]
    fn overlapping_intervals_are_within_noise() {
        // Means differ but spreads overlap: an honest harness refuses
        // to call it.
        let a = MeanCi::from_samples([1.0, 2.0, 3.0]);
        let b = MeanCi::from_samples([2.0, 3.0, 4.0]);
        assert_eq!(Verdict::of_lower_better(&a, &b), Verdict::WithinNoise);
    }

    #[test]
    fn running_stats_match_two_pass_computation() {
        // Seeded LCG samples; compare Welford against the textbook
        // two-pass mean/variance.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let samples: Vec<f64> = (0..257)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 11) as f64 / (1u64 << 53) as f64 * 100.0
            })
            .collect();
        let s = RunningStats::from_samples(samples.iter().copied());
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (samples.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.variance() - var).abs() < 1e-6);
    }
}
