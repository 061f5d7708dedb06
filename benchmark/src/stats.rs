//! Sample summaries and the two-sided comparison rule.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here matches one
//! computed from the same numbers in Python.

/// Median of `xs` (`NaN` when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => {
            let hi = v.swap_remove(n / 2);
            (v[n / 2 - 1] + hi) / 2.0
        }
    }
}

/// First and third quartiles of `xs`, as `statistics.quantiles(xs, n=4)`
/// computes them (`NaN` when empty; both equal the value for one sample).
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let ld = v.len();
    if ld == 0 {
        return (f64::NAN, f64::NAN);
    }
    if ld == 1 {
        return (v[0], v[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative for tiny samples, where Python extrapolates too.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median, quartiles, maximum and count of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarize `xs`.
    pub fn of(xs: &[f64]) -> Self {
        let (q1, q3) = quartiles(xs);
        Self {
            median: median(xs),
            q1,
            q3,
            max: xs.iter().copied().fold(f64::NAN, f64::max),
            n: xs.len(),
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, failures).
    Lower,
    /// Larger is better (throughputs).
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Whether `a` is strictly better than `b`.
    fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }

    /// How much worse `head` is than `base`, as a share of `base` (or in
    /// absolute terms when `base` is 0); negative when it is better.
    fn worsening(self, base: f64, head: f64) -> f64 {
        let d = match self {
            Better::Lower => head - base,
            Better::Higher => base - head,
        };
        if base == 0.0 {
            d
        } else {
            d / base.abs()
        }
    }
}

/// The outcome of comparing a base side (the parent) with a head side
/// (the change) on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Over at least [`MIN_PAIRS`] pairs, the head wins 9 of every 10
    /// and its median beats the base's by more than the base's
    /// interquartile distance.
    Improved,
    /// The head's median is worse than the base's by more than the bound.
    Regressed,
    /// A side's spread exceeds the bound, and the head does not read
    /// better than the base on every run.
    Unresolved,
    /// Within the bound, with no claim of a gain: no verdict.
    Within,
}

impl Verdict {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Within => "within-bound",
        }
    }
}

/// A full comparison of two samples of one metric.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// Base side summary.
    pub base: Summary,
    /// Head side summary.
    pub head: Summary,
    /// Pairs (base run `i`, head run `i`) the head won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Pairs a gain needs: choosing-metrics § 8 asks for at least ten.
pub const MIN_PAIRS: usize = 10;

/// Compare `base` and `head` runs of one metric.
///
/// `bound` is the share of the base median by which the head may be
/// worse before it counts as a regression; `floor` is an absolute
/// difference below which neither a regression nor an unresolved spread
/// is called (set-up times of a few milliseconds jitter by more than any
/// share of themselves).
pub fn compare(base: &[f64], head: &[f64], better: Better, bound: f64, floor: f64) -> Comparison {
    let b = Summary::of(base);
    let h = Summary::of(head);
    let pairs = base.len().min(head.len());
    let wins = base
        .iter()
        .zip(head)
        .filter(|&(&x, &y)| better.beats(y, x))
        .count();
    let all_better = base
        .iter()
        .all(|&x| head.iter().all(|&y| better.beats(y, x)));
    let gain = pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && better.beats(h.median, b.median)
        && (h.median - b.median).abs() > b.q3 - b.q1;
    let worse = better.worsening(b.median, h.median) > bound && (h.median - b.median).abs() > floor;
    // Spread beyond the bound, and beyond the floor, leaves it open.
    let wide = |s: &Summary| s.q3 - s.q1 > (bound * s.median.abs()).max(floor);
    let verdict = if (wide(&b) || wide(&h)) && !all_better {
        Verdict::Unresolved
    } else if worse {
        Verdict::Regressed
    } else if gain {
        Verdict::Improved
    } else {
        Verdict::Within
    };
    Comparison {
        base: b,
        head: h,
        wins,
        pairs,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 5.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn summary_fields() {
        let s = Summary::of(&[9.0, 10.0, 11.0, 10.0, 10.0]);
        assert_eq!((s.median, s.max, s.n), (10.0, 11.0, 5));
        assert_eq!((s.q1, s.q3), quartiles(&[9.0, 10.0, 11.0, 10.0, 10.0]));
    }

    fn noisy(center: f64) -> Vec<f64> {
        [
            0.99, 1.01, 1.0, 0.995, 1.005, 1.002, 0.998, 1.0, 1.003, 0.997,
        ]
        .iter()
        .map(|f| f * center)
        .collect()
    }

    #[test]
    fn identical_samples_give_no_verdict() {
        let a = noisy(2.0);
        let c = compare(&a, &a, Better::Lower, 0.1, 0.0);
        assert_eq!(c.verdict, Verdict::Within);
        assert_eq!(c.wins, 0);
        assert_eq!(c.pairs, 10);
    }

    #[test]
    fn shifted_samples_give_a_verdict() {
        let base = noisy(2.0);
        let faster = noisy(1.5);
        let slower = noisy(2.6);
        assert_eq!(
            compare(&base, &faster, Better::Lower, 0.1, 0.0).verdict,
            Verdict::Improved
        );
        assert_eq!(
            compare(&base, &slower, Better::Lower, 0.1, 0.0).verdict,
            Verdict::Regressed
        );
        // The same shift reads the other way for a higher-is-better metric.
        assert_eq!(
            compare(&base, &slower, Better::Higher, 0.1, 0.0).verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let base: Vec<f64> = (10..20).map(f64::from).collect();
        let head: Vec<f64> = base.iter().map(|x| x + 0.5).collect();
        assert_eq!(
            compare(&base, &head, Better::Lower, 0.1, 0.0).verdict,
            Verdict::Unresolved
        );
        let far: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(
            compare(&base, &far, Better::Lower, 0.1, 0.0).verdict,
            Verdict::Improved
        );
        // Too few pairs for a gain, however large the shift.
        assert_eq!(
            compare(&base[..4], &far[..4], Better::Lower, 0.1, 0.0).verdict,
            Verdict::Within
        );
    }

    #[test]
    fn floor_and_zero_base() {
        let c = compare(&[0.010; 4], &[0.015; 4], Better::Lower, 0.1, 0.02);
        assert_eq!(c.verdict, Verdict::Within);
        let jittery = [0.007, 0.013, 0.008, 0.012];
        let c = compare(&[0.0075; 4], &jittery, Better::Lower, 0.25, 0.02);
        assert_eq!(c.verdict, Verdict::Within);
        let c = compare(&[0.0075; 4], &jittery, Better::Lower, 0.25, 0.0);
        assert_eq!(c.verdict, Verdict::Unresolved);
        // A zero-bound count: any increase from zero regresses.
        let c = compare(&[0.0; 3], &[0.0, 0.5, 0.0], Better::Lower, 0.0, 0.0);
        assert_eq!(c.verdict, Verdict::Unresolved);
        let c = compare(&[0.0; 3], &[0.5; 3], Better::Lower, 0.0, 0.0);
        assert_eq!(c.verdict, Verdict::Regressed);
    }
}
