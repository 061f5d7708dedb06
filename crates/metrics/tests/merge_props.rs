//! Merge-algebra property tests for the per-lane sinks.
//!
//! The batched lane engine merges per-lane [`Histogram`]s and
//! [`LatencyStats`] into aggregate views; for those aggregates to be
//! trustworthy the merge must be a commutative, associative monoid
//! action that exactly equals accumulating the concatenated sample
//! stream — including when values saturate into the terminal overflow
//! bucket. These properties were verified by inspection (all-integer
//! histogram state); the tests here are regression guards.

use fadr_metrics::{Histogram, LatencyStats};

/// Deterministic LCG so the property inputs need no RNG dependency.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
}

/// Per-lane sample sets: small latencies, a mid band, and a slice of
/// values at/above the overflow cap so saturation participates.
fn lane_samples(lanes: usize, per_lane: usize) -> Vec<Vec<u64>> {
    let mut rng = Lcg(0x1A7E);
    (0..lanes)
        .map(|k| {
            (0..per_lane)
                .map(|i| match (k + i) % 5 {
                    0..=2 => rng.next() % 200,
                    3 => rng.next() % Histogram::OVERFLOW_CAP,
                    _ => Histogram::OVERFLOW_CAP + rng.next() % 1000,
                })
                .collect()
        })
        .collect()
}

fn hist_of(samples: &[u64]) -> Histogram {
    let mut h = Histogram::default();
    for &v in samples {
        h.record(v);
    }
    h
}

fn stats_of(samples: &[u64]) -> LatencyStats {
    let mut s = LatencyStats::new();
    for &v in samples {
        s.record(v);
    }
    s
}

#[test]
fn histogram_merge_equals_concatenated_samples() {
    for lanes in [1usize, 2, 7, 32] {
        let per_lane = lane_samples(lanes, 257);
        let concatenated: Vec<u64> = per_lane.iter().flatten().copied().collect();
        let want = hist_of(&concatenated);
        let mut merged = Histogram::default();
        for lane in &per_lane {
            merged.merge(&hist_of(lane));
        }
        assert_eq!(merged, want, "R={lanes}: merge ≠ concatenation");
        assert!(merged.saturated(), "inputs must exercise saturation");
    }
}

#[test]
fn histogram_merge_is_permutation_invariant() {
    let per_lane = lane_samples(7, 101);
    let hists: Vec<Histogram> = per_lane.iter().map(|l| hist_of(l)).collect();
    let mut forward = Histogram::default();
    for h in &hists {
        forward.merge(h);
    }
    let mut reverse = Histogram::default();
    for h in hists.iter().rev() {
        reverse.merge(h);
    }
    // An interleaved order: evens then odds.
    let mut interleaved = Histogram::default();
    for h in hists
        .iter()
        .step_by(2)
        .chain(hists.iter().skip(1).step_by(2))
    {
        interleaved.merge(h);
    }
    assert_eq!(forward, reverse);
    assert_eq!(forward, interleaved);
}

#[test]
fn histogram_merge_commutative_and_associative_under_saturation() {
    let a = hist_of(&[1, 5, 5, Histogram::OVERFLOW_CAP + 3]);
    let b = hist_of(&[5, 7, u64::MAX]);
    let c = hist_of(&[0, 1, Histogram::OVERFLOW_CAP]);

    // a ⊕ b == b ⊕ a
    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(ab, ba, "merge not commutative");

    // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
    let mut left = ab;
    left.merge(&c);
    let mut bc = b.clone();
    bc.merge(&c);
    let mut right = a.clone();
    right.merge(&bc);
    assert_eq!(left, right, "merge not associative");
    assert!(left.saturated());
}

#[test]
fn histogram_empty_is_merge_identity() {
    let h = hist_of(&[3, 9, Histogram::OVERFLOW_CAP + 1]);
    let mut left = Histogram::default();
    left.merge(&h);
    let mut right = h.clone();
    right.merge(&Histogram::default());
    assert_eq!(left, h);
    assert_eq!(right, h);
}

#[test]
fn latency_stats_merge_equals_concatenated_samples() {
    for lanes in [2usize, 7, 32] {
        let per_lane = lane_samples(lanes, 181);
        let concatenated: Vec<u64> = per_lane.iter().flatten().copied().collect();
        let want = stats_of(&concatenated);
        let mut merged = LatencyStats::new();
        for lane in &per_lane {
            merged.merge(&stats_of(lane));
        }
        assert_eq!(merged, want, "R={lanes}: stats merge ≠ concatenation");
        // Mean/min/max/percentile views agree too (implied by Eq, but
        // these are the numbers the report tables print).
        assert_eq!(merged.count(), want.count());
        assert_eq!(merged.min(), want.min());
        assert_eq!(merged.max(), want.max());
        assert_eq!(merged.percentile(0.95), want.percentile(0.95));
    }
}

#[test]
fn latency_stats_merge_with_empty_lanes() {
    // R lanes where some delivered nothing: empties must be identities
    // on both sides (min/max are Options internally — an empty lane
    // must not drag min to 0).
    let loaded = stats_of(&[4, 10, 2]);
    let mut left = LatencyStats::new();
    left.merge(&loaded);
    let mut right = loaded.clone();
    right.merge(&LatencyStats::new());
    assert_eq!(left, loaded);
    assert_eq!(right, loaded);
    assert_eq!(left.min(), 2);
}
