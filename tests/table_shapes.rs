//! Shape tests for the § 7 evaluation: reduced-scale versions of the
//! paper's tables must reproduce the qualitative findings (who wins, by
//! roughly what factor, how quantities scale with n), even where absolute
//! values differ from the 1991 testbed.

use fadroute::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn static_run(n: usize, pattern: &Pattern, packets: usize, seed: u64) -> StaticResult {
    let size = 1usize << n;
    let cfg = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(HypercubeFullyAdaptive::new(n), cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    let backlog = static_backlog(pattern, size, packets, &mut rng);
    let res = sim.run_static(&backlog);
    assert!(res.drained);
    res
}

fn dynamic_run(n: usize, pattern: Pattern, cycles: u64, seed: u64) -> DynamicResult {
    let size = 1usize << n;
    let cfg = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(HypercubeFullyAdaptive::new(n), cfg);
    sim.run_dynamic(1.0, move |s, rng| pattern.draw(s, size, rng), cycles)
}

/// Tables 1–4 (1 packet): all patterns complete at essentially
/// uncongested latency; Complement is exactly 2n+1, and Random ≈ n+1.
#[test]
fn tables_1_to_4_shape() {
    let n = 9;
    let random = static_run(n, &Pattern::Random, 1, 1);
    let complement = static_run(n, &Pattern::complement(n), 1, 1);
    let transpose = static_run(n, &Pattern::transpose(n), 1, 1);
    let mut rng = StdRng::seed_from_u64(4);
    let leveled = static_run(n, &Pattern::leveled_permutation(n, &mut rng), 1, 1);

    assert_eq!(complement.stats.max(), 2 * n as u64 + 1);
    assert!((complement.stats.mean() - (2 * n + 1) as f64).abs() < 1e-9);
    assert!((random.stats.mean() - (n as f64 + 1.0)).abs() < 1.0);
    // Transpose sits between random and complement; leveled is the lightest.
    assert!(transpose.stats.mean() < complement.stats.mean());
    assert!(leveled.stats.mean() <= random.stats.mean() + 0.5);
}

/// Tables 5–8 (n packets): congestion ordering
/// random/leveled < transpose < complement, as in the paper.
#[test]
fn tables_5_to_8_ordering() {
    let n = 9;
    let random = static_run(n, &Pattern::Random, n, 2);
    let complement = static_run(n, &Pattern::complement(n), n, 2);
    let transpose = static_run(n, &Pattern::transpose(n), n, 2);
    let mut rng = StdRng::seed_from_u64(5);
    let leveled = static_run(n, &Pattern::leveled_permutation(n, &mut rng), n, 2);

    assert!(complement.stats.mean() > transpose.stats.mean());
    assert!(transpose.stats.mean() > random.stats.mean());
    assert!(leveled.stats.mean() < complement.stats.mean());
}

/// Static latency grows with n (Tables 1 and 5 columns read downward).
#[test]
fn static_latency_grows_with_n() {
    let a = static_run(7, &Pattern::Random, 1, 3).stats.mean();
    let b = static_run(9, &Pattern::Random, 1, 3).stats.mean();
    let c = static_run(11, &Pattern::Random, 1, 3).stats.mean();
    assert!(a < b && b < c, "{a} {b} {c}");
}

/// Tables 9–12 (λ = 1): the effective injection rate ordering is
/// random > leveled > transpose > complement, and complement's rate is
/// roughly half of random's (paper: 93% vs 55% at n = 10).
#[test]
fn dynamic_injection_rate_ordering() {
    let n = 9;
    let cycles = 300;
    let random = dynamic_run(n, Pattern::Random, cycles, 7);
    let complement = dynamic_run(n, Pattern::complement(n), cycles, 7);
    let transpose = dynamic_run(n, Pattern::transpose(n), cycles, 7);
    let mut rng = StdRng::seed_from_u64(8);
    let leveled = dynamic_run(n, Pattern::leveled_permutation(n, &mut rng), cycles, 7);

    let (ir_r, ir_c, ir_t, ir_l) = (
        random.injection_rate(),
        complement.injection_rate(),
        transpose.injection_rate(),
        leveled.injection_rate(),
    );
    assert!(
        ir_r > ir_t && ir_t > ir_c,
        "random {ir_r}, transpose {ir_t}, complement {ir_c}"
    );
    assert!(ir_l > ir_t, "leveled {ir_l} should beat transpose {ir_t}");
    assert!(
        ir_c < 0.75 * ir_r,
        "complement should be much harder than random"
    );
    // Latency ordering mirrors it.
    assert!(complement.stats.mean() > random.stats.mean());
}

/// Dynamic injection rate falls as n grows (each table's I_r column).
#[test]
fn injection_rate_falls_with_n() {
    let a = dynamic_run(8, Pattern::Random, 300, 9).injection_rate();
    let b = dynamic_run(11, Pattern::Random, 300, 9).injection_rate();
    assert!(b < a, "I_r must fall with n: {a} -> {b}");
}

/// The capacity finding recorded in EXPERIMENTS.md: central queues of
/// capacity >= n reproduce the paper's *exact* Complement column
/// (L_avg = L_max = 2n+1) under n-packet static injection.
#[test]
fn capacity_n_reproduces_paper_complement_exactly() {
    let n = 9;
    let size = 1usize << n;
    let cfg = SimConfig {
        queue_capacity: n,
        seed: 11,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(HypercubeFullyAdaptive::new(n), cfg);
    let mut rng = StdRng::seed_from_u64(11);
    let backlog = static_backlog(&Pattern::complement(n), size, n, &mut rng);
    let res = sim.run_static(&backlog);
    assert!(res.drained);
    assert_eq!(res.stats.max(), 2 * n as u64 + 1);
    assert!((res.stats.mean() - (2 * n + 1) as f64).abs() < 1e-9);
}

/// The harness regenerates a table with paper reference columns attached.
#[test]
fn bench_runner_produces_comparable_tables() {
    // Reuse the bench crate through its public API.
    let opts = fadr_bench::runner::RunOptions {
        dynamic_cycles: 100,
        ..fadr_bench::runner::RunOptions::default()
    };
    let row = fadr_bench::runner::run_row(fadr_bench::runner::spec(2), 10, opts).unwrap();
    assert_eq!(row.l_max, 21);
    let paper = fadr_bench::paper::static_ref(2, 10).unwrap();
    assert_eq!(row.l_max, paper.1);
}
