//! Minimal wall-clock benchmarking: timed samples, summary statistics,
//! and interleaved A/B comparisons with overlap-aware 95% intervals.
//!
//! The build environment has no registry access, so the harness ships
//! its own timing loop instead of Criterion: each measurement runs a
//! warm-up iteration, then `samples` timed iterations, and reports
//! min / median / mean seconds. The `perf` binary prints them; the
//! tracked performance ledger is the `benchmark/` package.

use std::time::Instant;

use fadr_metrics::{MeanCi, Verdict};

/// One timed measurement: a label plus its per-sample wall-clock times.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Workload label, e.g. `table6_n10`.
    pub name: String,
    /// Wall-clock seconds of each timed sample.
    pub secs: Vec<f64>,
}

impl Measurement {
    /// Fastest sample (the usual headline number: least noise).
    pub fn min(&self) -> f64 {
        self.secs.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Median sample.
    pub fn median(&self) -> f64 {
        let mut s = self.secs.clone();
        s.sort_by(f64::total_cmp);
        s[s.len() / 2]
    }

    /// Mean sample.
    pub fn mean(&self) -> f64 {
        self.secs.iter().sum::<f64>() / self.secs.len() as f64
    }
}

/// Time `f` with one warm-up iteration plus `samples` timed iterations.
///
/// The closure's return value is consumed with [`std::hint::black_box`]
/// so the optimizer cannot elide the work.
pub fn time<T>(name: &str, samples: usize, mut f: impl FnMut() -> T) -> Measurement {
    assert!(samples >= 1, "need at least one sample");
    std::hint::black_box(f());
    time_cold(name, samples, f)
}

/// Time `f` with `samples` timed iterations and **no** warm-up.
///
/// For the minutes-long `--large` scenarios a warm-up run doubles the
/// wall clock for nothing: one run touches far more memory than any
/// cache that a warm-up could prime.
pub fn time_cold<T>(name: &str, samples: usize, mut f: impl FnMut() -> T) -> Measurement {
    assert!(samples >= 1, "need at least one sample");
    let secs = (0..samples)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    Measurement {
        name: name.to_string(),
        secs,
    }
}

/// An interleaved A/B comparison with overlap-aware 95% intervals: the
/// statistically honest replacement for comparing two lone samples.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Baseline measurement.
    pub a: Measurement,
    /// Candidate measurement.
    pub b: Measurement,
    /// 95% interval of the baseline's per-sample times.
    pub a_ci: MeanCi,
    /// 95% interval of the candidate's per-sample times.
    pub b_ci: MeanCi,
    /// Overlap-aware verdict for the candidate (lower is better); any
    /// interval overlap yields [`Verdict::WithinNoise`].
    pub verdict: Verdict,
}

/// Time `fa` (baseline) against `fb` (candidate) with one warm-up each
/// and `samples` *interleaved* timed pairs (A, B, A, B, …), so slow
/// drift in the host — thermal throttling, a neighbor container waking
/// up — lands on both sides instead of biasing whichever ran second.
///
/// The verdict is overlap-aware: with fewer than two samples per side
/// no difference can ever be claimed, so `samples >= 2` is required.
pub fn compare<TA, TB>(
    name_a: &str,
    name_b: &str,
    samples: usize,
    mut fa: impl FnMut() -> TA,
    mut fb: impl FnMut() -> TB,
) -> CompareReport {
    assert!(
        samples >= 2,
        "a verdict needs at least two samples per side"
    );
    std::hint::black_box(fa());
    std::hint::black_box(fb());
    let mut a_secs = Vec::with_capacity(samples);
    let mut b_secs = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        std::hint::black_box(fa());
        a_secs.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        std::hint::black_box(fb());
        b_secs.push(start.elapsed().as_secs_f64());
    }
    let a_ci = MeanCi::from_samples(a_secs.iter().copied());
    let b_ci = MeanCi::from_samples(b_secs.iter().copied());
    CompareReport {
        a: Measurement {
            name: name_a.to_string(),
            secs: a_secs,
        },
        b: Measurement {
            name: name_b.to_string(),
            secs: b_secs,
        },
        verdict: Verdict::of_lower_better(&b_ci, &a_ci),
        a_ci,
        b_ci,
    }
}

/// Print a comparison in a compact, stable one-line format.
pub fn compare_line(r: &CompareReport) -> String {
    format!(
        "{} [{} s] vs {} [{} s]: {}",
        r.a.name,
        r.a_ci,
        r.b.name,
        r.b_ci,
        r.verdict.label()
    )
}

/// Print a measurement in a compact, stable one-line format.
pub fn report_line(m: &Measurement) -> String {
    format!(
        "{:<28} min {:>9.4}s  median {:>9.4}s  mean {:>9.4}s  ({} samples)",
        m.name,
        m.min(),
        m.median(),
        m.mean(),
        m.secs.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_collects_samples() {
        let mut calls = 0;
        let m = time("noop", 3, || calls += 1);
        assert_eq!(m.secs.len(), 3);
        assert_eq!(calls, 4, "warm-up plus three samples");
        assert!(m.min() <= m.median() && m.median() <= m.secs.iter().copied().fold(0.0, f64::max));
        assert!(report_line(&m).starts_with("noop"));
    }

    #[test]
    fn time_cold_skips_warm_up() {
        let mut calls = 0;
        let m = time_cold("noop", 2, || calls += 1);
        assert_eq!(m.secs.len(), 2);
        assert_eq!(calls, 2, "no warm-up iteration");
    }

    #[test]
    fn compare_interleaves_and_judges_self_within_noise() {
        let mut a_calls = 0;
        let mut b_calls = 0;
        let r = compare("a", "b", 3, || a_calls += 1, || b_calls += 1);
        assert_eq!(a_calls, 4, "warm-up plus three samples");
        assert_eq!(b_calls, 4);
        assert_eq!(r.a.secs.len(), 3);
        assert_eq!(r.b.secs.len(), 3);
        // Identical no-op workloads must never earn a directional
        // verdict (the --compare self fail-closed check relies on it
        // for real workloads; here both sides are literally the same).
        assert!(compare_line(&r).contains(r.verdict.label()));
    }

    #[test]
    fn compare_flags_a_real_difference() {
        let slow = || std::thread::sleep(std::time::Duration::from_millis(25));
        let fast = || {};
        let r = compare("slow", "fast", 4, slow, fast);
        assert_eq!(r.verdict, Verdict::Faster, "{}", compare_line(&r));
        let r = compare("fast", "slow", 4, fast, slow);
        assert_eq!(r.verdict, Verdict::Slower, "{}", compare_line(&r));
    }
}
