//! Congestion profile by Hamming level: the § 3 motivation, measured.
//!
//! Without dynamic links, messages must finish all 0→1 corrections before
//! any 1→0 correction, so "congestion around node 1…1 is likely to take
//! place". This experiment measures mean central-queue occupancy per
//! Hamming level (distance from the hang node) under complement traffic,
//! for the static hang vs the fully-adaptive algorithm, read from a
//! `CounterSink` that samples every central queue at each cycle's end.
//!
//! ```text
//! cargo run --release --example congestion_profile
//! ```

use fadroute::prelude::*;
use fadroute::sim::CounterSink;
use fadroute::topology::hamming_weight;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn profile<RF: RoutingFunction>(rf: RF, n: usize) -> (String, Vec<f64>) {
    let name = rf.name();
    let size = 1usize << n;
    let counters = CounterSink::new(size, rf.num_classes());
    let mut sim = Simulator::with_recorder(rf, SimConfig::default(), counters);
    let mut rng = StdRng::seed_from_u64(7);
    let backlog = static_backlog(&Pattern::complement(n), size, n, &mut rng);
    let res = sim.run_static(&backlog);
    assert!(res.drained);
    // Aggregate mean occupancy (q_A + q_B) by Hamming level.
    let counters = sim.into_recorder();
    let mut by_level = vec![0.0f64; n + 1];
    let mut counts = vec![0usize; n + 1];
    for v in 0..size {
        let lvl = hamming_weight(v);
        by_level[lvl] += counters.queue_mean(v, 0) + counters.queue_mean(v, 1);
        counts[lvl] += 1;
    }
    for (s, c) in by_level.iter_mut().zip(&counts) {
        *s /= *c as f64;
    }
    (name, by_level)
}

fn main() {
    let n = 8;
    println!("mean central-queue occupancy per Hamming level, complement, {n} packets/node:\n");
    let (name_s, static_prof) = profile(HypercubeStaticHang::new(n), n);
    let (name_a, adaptive_prof) = profile(HypercubeFullyAdaptive::new(n), n);
    println!(
        "{:>6}  {:>12}  {:>12}",
        "level", "static-hang", "fully-adapt"
    );
    for lvl in 0..=n {
        let bar = |v: f64| "#".repeat((v * 12.0).round() as usize);
        println!(
            "{lvl:>6}  {:>12.3}  {:>12.3}   {}",
            static_prof[lvl],
            adaptive_prof[lvl],
            bar(static_prof[lvl])
        );
    }
    let peak_s = static_prof.iter().copied().fold(0.0, f64::max);
    let peak_a = adaptive_prof.iter().copied().fold(0.0, f64::max);
    println!(
        "\npeak level-mean occupancy: {name_s} = {peak_s:.3}, {name_a} = {peak_a:.3} \
         ({}x reduction from dynamic links)",
        (peak_s / peak_a.max(1e-9)).round()
    );
}
