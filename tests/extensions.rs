//! Integration tests for the extension layers: arbitrary hang roots,
//! k-dimensional meshes, the generic adaptive SBP baseline, and the
//! occupancy instrumentation.

use fadroute::prelude::*;
use fadroute::sim::CounterSink;
use fadroute::topology::hamming_weight;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hanging the cube from any root preserves Theorem 1, and by symmetry a
/// relabelled workload gives statistically equivalent latencies. (Not
/// bit-identical: the simulator's read-phase arbitration iterates input
/// buffers in node-index order, which the XOR relabelling permutes.)
#[test]
fn rooted_hang_is_symmetric_under_relabelling() {
    let n = 6;
    let size = 1usize << n;
    let root = 0b101010;

    // Workload: complement (equivariant under XOR relabelling).
    let mut rng = StdRng::seed_from_u64(3);
    let backlog = static_backlog(&Pattern::complement(n), size, n, &mut rng);

    let mut sim0 = Simulator::new(HypercubeFullyAdaptive::new(n), SimConfig::default());
    let res0 = sim0.run_static(&backlog);

    // Relabel the workload by the root: src' = src ^ root, dst' = dst ^ root.
    let mut relabeled = vec![Vec::new(); size];
    for (src, dsts) in backlog.iter().enumerate() {
        relabeled[src ^ root] = dsts.iter().map(|&d| d ^ root).collect();
    }
    let mut simr = Simulator::new(
        HypercubeFullyAdaptive::hung_from(n, root),
        SimConfig::default(),
    );
    let resr = simr.run_static(&relabeled);

    assert!(res0.drained && resr.drained);
    assert_eq!(res0.delivered, resr.delivered);
    let (a, b) = (res0.stats.mean(), resr.stats.mean());
    assert!(
        (a - b).abs() / b < 0.1,
        "means should be close: {a:.2} vs {b:.2}"
    );
    assert!(res0.stats.min() == resr.stats.min());
}

/// Rooted hang under an arbitrary (non-equivariant) workload still drains
/// and stays minimal.
#[test]
fn rooted_hang_routes_random_traffic() {
    let n = 6;
    let size = 1usize << n;
    let mut rng = StdRng::seed_from_u64(5);
    let backlog = static_backlog(&Pattern::Random, size, 2, &mut rng);
    let mut sim = Simulator::new(
        HypercubeFullyAdaptive::hung_from(n, 17),
        SimConfig::default(),
    );
    let res = sim.run_static(&backlog);
    assert!(res.drained);
    assert_eq!(res.delivered, 2 * size as u64);
}

/// The k-dimensional mesh generalization simulates correctly: lone
/// packets take 2·Manhattan + 1 on a 3-D mesh, and loaded runs drain.
#[test]
fn meshkd_3d_simulation() {
    let rf = MeshKDFullyAdaptive::new(&[4, 3, 3]);
    let dist = {
        let m = rf.mesh().clone();
        move |a: usize, b: usize| m.distance(a, b)
    };
    let nodes = 36;
    let mut sim = Simulator::new(rf, SimConfig::default());
    let mut backlog = vec![Vec::new(); nodes];
    backlog[0] = vec![35];
    let res = sim.run_static(&backlog);
    assert!(res.drained);
    assert_eq!(res.stats.max(), 2 * dist(0, 35) as u64 + 1);

    let mut rng = StdRng::seed_from_u64(9);
    let backlog = static_backlog(&Pattern::Random, nodes, 5, &mut rng);
    let mut sim = Simulator::new(MeshKDFullyAdaptive::new(&[4, 3, 3]), SimConfig::default());
    let res = sim.run_static(&backlog);
    assert!(res.drained);
    assert_eq!(res.delivered, 5 * nodes as u64);
}

/// AdaptiveSbp is fully adaptive on every undirected topology we ship,
/// and its simulated latency matches the paper's 2-queue scheme within a
/// small factor under random traffic (the § 1 resource argument).
#[test]
fn adaptive_sbp_parity_with_two_queue_scheme() {
    let n = 7;
    let size = 1usize << n;
    let mut rng = StdRng::seed_from_u64(13);
    let backlog = static_backlog(&Pattern::Random, size, n, &mut rng);

    let mut sim_fa = Simulator::new(HypercubeFullyAdaptive::new(n), SimConfig::default());
    let res_fa = sim_fa.run_static(&backlog);
    let mut sim_sbp = Simulator::new(AdaptiveSbp::new(Hypercube::new(n)), SimConfig::default());
    let res_sbp = sim_sbp.run_static(&backlog);

    assert!(res_fa.drained && res_sbp.drained);
    let (a, b) = (res_fa.stats.mean(), res_sbp.stats.mean());
    assert!(
        (a - b).abs() / b < 0.25,
        "2-queue {a:.2} vs SBP {b:.2}: should be within 25%"
    );
}

/// Per-queue occupancy (a `CounterSink`) reproduces § 3's congestion
/// claim: under complement traffic the static hang's high Hamming levels
/// are much more occupied than the fully-adaptive algorithm's.
#[test]
fn occupancy_probe_shows_hotspot_relief() {
    let n = 7;
    let size = 1usize << n;
    let profile = |adaptive: bool| -> Vec<f64> {
        let cfg = SimConfig::default();
        let mut rng = StdRng::seed_from_u64(7);
        let backlog = static_backlog(&Pattern::complement(n), size, n, &mut rng);
        let mut by_level = vec![0.0f64; n + 1];
        let mut counts = vec![0usize; n + 1];
        let counters = CounterSink::new(size, 2);
        let probe = if adaptive {
            let mut sim = Simulator::with_recorder(HypercubeFullyAdaptive::new(n), cfg, counters);
            assert!(sim.run_static(&backlog).drained);
            sim.into_recorder()
        } else {
            let mut sim = Simulator::with_recorder(HypercubeStaticHang::new(n), cfg, counters);
            assert!(sim.run_static(&backlog).drained);
            sim.into_recorder()
        };
        for v in 0..size {
            let lvl = hamming_weight(v);
            by_level[lvl] += probe.queue_mean(v, 0) + probe.queue_mean(v, 1);
            counts[lvl] += 1;
        }
        for (s, c) in by_level.iter_mut().zip(&counts) {
            *s /= *c as f64;
        }
        by_level
    };
    let hang = profile(false);
    let adaptive = profile(true);
    let peak_hang = hang.iter().copied().fold(0.0, f64::max);
    let peak_adaptive = adaptive.iter().copied().fold(0.0, f64::max);
    // The static hang concentrates near 1…1 (top level among the most
    // occupied), the adaptive algorithm flattens the profile.
    assert!(
        hang[n] + hang[n - 1] > hang[0] + hang[1] + 1.0,
        "hang profile must tilt up"
    );
    assert!(
        peak_hang > 1.3 * peak_adaptive,
        "dynamic links must relieve the peak: {peak_hang:.2} vs {peak_adaptive:.2}"
    );
}

/// Occupancy accounting is exact on a hand-checkable run.
#[test]
fn occupancy_probe_counts_are_consistent() {
    let n = 4;
    let counters = CounterSink::new(16, 2);
    let mut sim = Simulator::with_recorder(
        HypercubeFullyAdaptive::new(n),
        SimConfig::default(),
        counters,
    );
    let mut backlog = vec![Vec::new(); 16];
    backlog[0] = vec![15];
    let res = sim.run_static(&backlog);
    assert!(res.drained);
    let probe = sim.into_recorder();
    assert_eq!(probe.cycles, res.cycles);
    // One packet: every queue's peak occupancy is at most 1.
    for v in 0..16 {
        for c in 0..2 {
            assert!(probe.queue_peak(v, c) <= 1);
        }
    }
    // And the packet spent exactly (hops) queue residencies of 1 cycle
    // each: total occupancy-cycles across all queues = number of fill
    // cycles it waited = hops (uncontended: 1 cycle per queue).
    let total = probe.mean_total() * probe.cycles as f64;
    assert_eq!(total, 4.0, "one packet, 4 hops, 1 cycle per residence");
}
