//! Calibration and behavioural tests of the simulator against the paper's
//! § 7 methodology and the closed-form cases its tables imply.

use std::collections::HashMap;

use fadr_core::{
    EcubeSbp, HypercubeFullyAdaptive, HypercubeStaticHang, MeshFullyAdaptive, MeshXY,
    ShuffleExchangeRouting, TorusTwoPhase,
};
use fadr_qdg::RoutingFunction;
use fadr_sim::{Recorder, SimConfig, Simulator};
use fadr_topology::{hamming_distance, Topology};
use fadr_workloads::{static_backlog, Pattern};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cfg(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        ..SimConfig::default()
    }
}

/// Table 2's exact law: Complement with one packet per node is entirely
/// conflict-free under the fully-adaptive algorithm, and every packet's
/// latency is exactly `2n + 1` time cycles.
#[test]
fn complement_one_packet_latency_is_2n_plus_1() {
    for n in [3usize, 6, 8, 10] {
        let rf = HypercubeFullyAdaptive::new(n);
        let mut sim = Simulator::new(rf, cfg(1));
        let mut rng = StdRng::seed_from_u64(1);
        let backlog = static_backlog(&Pattern::complement(n), 1 << n, 1, &mut rng);
        let res = sim.run_static(&backlog);
        assert!(res.drained);
        assert_eq!(res.delivered, 1 << n);
        let want = (2 * n + 1) as f64;
        assert_eq!(res.stats.max(), 2 * n as u64 + 1, "n={n}");
        assert!(
            (res.stats.mean() - want).abs() < 1e-9,
            "n={n}: {}",
            res.stats.mean()
        );
    }
}

/// A single packet in an empty network takes exactly `2·distance + 1`
/// time cycles, for every (src, dst) pair of a small cube.
#[test]
fn lone_packet_latency_equals_2d_plus_1() {
    let n = 4;
    for src in 0..1usize << n {
        for dst in 0..1usize << n {
            if src == dst {
                continue;
            }
            let rf = HypercubeFullyAdaptive::new(n);
            let mut sim = Simulator::new(rf, cfg(7));
            let mut backlog = vec![Vec::new(); 1 << n];
            backlog[src].push(dst);
            let res = sim.run_static(&backlog);
            assert!(res.drained);
            let want = 2 * hamming_distance(src, dst) as u64 + 1;
            assert_eq!(res.stats.max(), want, "{src}->{dst}");
            assert_eq!(res.stats.min(), want);
        }
    }
}

/// Self-addressed packets (fixed points of Transpose) deliver locally
/// with latency 1.
#[test]
fn self_addressed_packets_deliver_locally() {
    let rf = HypercubeFullyAdaptive::new(4);
    let mut sim = Simulator::new(rf, cfg(3));
    let mut backlog = vec![Vec::new(); 16];
    backlog[5] = vec![5, 5];
    let res = sim.run_static(&backlog);
    assert!(res.drained);
    assert_eq!(res.delivered, 2);
    assert_eq!(res.stats.max(), 1);
    // The two packets must queue behind the size-1 injection buffer:
    // delivered in consecutive cycles, same reported latency 1 each.
    assert_eq!(res.stats.min(), 1);
}

/// Static random routing drains completely at every size, and mean latency
/// sits near `2·(n/2) + 1 = n + 1` (Table 1's shape).
#[test]
fn random_static_one_packet_matches_table1_shape() {
    for n in [6usize, 8, 10] {
        let rf = HypercubeFullyAdaptive::new(n);
        let mut sim = Simulator::new(rf, cfg(42));
        let mut rng = StdRng::seed_from_u64(42);
        let backlog = static_backlog(&Pattern::Random, 1 << n, 1, &mut rng);
        let res = sim.run_static(&backlog);
        assert!(res.drained);
        let mean = res.stats.mean();
        let ideal = n as f64 + 1.0;
        assert!(
            (mean - ideal).abs() < 0.8,
            "n={n}: mean {mean} vs uncongested ideal {ideal}"
        );
    }
}

/// n-packet static runs drain for all four paper patterns.
#[test]
fn n_packet_static_runs_drain_for_all_patterns() {
    let n = 6;
    let size = 1usize << n;
    let mut rng = StdRng::seed_from_u64(9);
    let patterns = [
        Pattern::Random,
        Pattern::complement(n),
        Pattern::transpose(n),
        Pattern::leveled_permutation(n, &mut rng),
    ];
    for p in &patterns {
        let rf = HypercubeFullyAdaptive::new(n);
        let mut sim = Simulator::new(rf, cfg(9));
        let mut rng2 = StdRng::seed_from_u64(10);
        let backlog = static_backlog(p, size, n, &mut rng2);
        let res = sim.run_static(&backlog);
        assert!(res.drained, "{} not drained", p.name());
        assert_eq!(res.delivered, (size * n) as u64);
    }
}

/// Dynamic injection at λ = 1: the network saturates but keeps delivering,
/// and the effective injection rate is high for random traffic (Table 9
/// reports 93% at n = 10; we check a generous band at n = 8).
#[test]
fn dynamic_random_lambda1_sustains_high_injection_rate() {
    let rf = HypercubeFullyAdaptive::new(8);
    let mut sim = Simulator::new(rf, cfg(5));
    let res = sim.run_dynamic(1.0, |src, rng| Pattern::Random.draw(src, 1 << 8, rng), 400);
    assert_eq!(res.attempts, 256 * 400);
    let rate = res.injection_rate();
    assert!(rate > 0.85, "injection rate {rate}");
    assert!(res.delivered > 0);
    // Latency must exceed the uncongested ideal but stay finite/sane.
    assert!(res.stats.mean() > 9.0);
    assert!(res.stats.mean() < 30.0);
}

/// Dynamic complement at λ = 1 is much harder than random (Table 10 vs
/// Table 9): its injection rate must be clearly lower.
#[test]
fn dynamic_complement_is_harder_than_random() {
    let run = |pattern: Pattern| {
        let rf = HypercubeFullyAdaptive::new(8);
        let mut sim = Simulator::new(rf, cfg(6));
        sim.run_dynamic(1.0, move |src, rng| pattern.draw(src, 1 << 8, rng), 400)
    };
    let random = run(Pattern::Random);
    let complement = run(Pattern::complement(8));
    assert!(
        complement.injection_rate() < random.injection_rate() - 0.1,
        "complement {} vs random {}",
        complement.injection_rate(),
        random.injection_rate()
    );
    assert!(complement.stats.mean() > random.stats.mean());
}

/// The fully-adaptive algorithm beats the static hang on Complement with
/// n packets per node (the congestion near 1…1 that § 3 describes).
#[test]
fn dynamic_links_beat_static_hang_on_complement() {
    let n = 7;
    let size = 1usize << n;
    let mut rng = StdRng::seed_from_u64(11);
    let backlog = static_backlog(&Pattern::complement(n), size, n, &mut rng);

    let mut adaptive = Simulator::new(HypercubeFullyAdaptive::new(n), cfg(11));
    let res_a = adaptive.run_static(&backlog);
    let mut hang = Simulator::new(HypercubeStaticHang::new(n), cfg(11));
    let res_h = hang.run_static(&backlog);
    assert!(res_a.drained && res_h.drained);
    assert!(
        res_a.stats.mean() <= res_h.stats.mean(),
        "adaptive {} vs static hang {}",
        res_a.stats.mean(),
        res_h.stats.mean()
    );
}

/// Tiny central queues (capacity 1) still never deadlock — the paper's
/// deadlock-freedom argument does not depend on queue size.
#[test]
fn capacity_one_queues_never_deadlock() {
    let n = 5;
    let size = 1usize << n;
    let mut rng = StdRng::seed_from_u64(13);
    let backlog = static_backlog(&Pattern::complement(n), size, n, &mut rng);
    let config = SimConfig {
        queue_capacity: 1,
        seed: 13,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(HypercubeFullyAdaptive::new(n), config);
    let res = sim.run_static(&backlog);
    assert!(res.drained, "stalled at cycle {}", res.cycles);
}

/// E-cube with a structured buffer pool drains too (the baseline works),
/// but is slower than the fully-adaptive scheme on transpose.
#[test]
fn ecube_sbp_drains_and_is_no_faster_on_transpose() {
    let n = 6;
    let size = 1usize << n;
    let mut rng = StdRng::seed_from_u64(17);
    let backlog = static_backlog(&Pattern::transpose(n), size, n, &mut rng);
    let mut ecube = Simulator::new(EcubeSbp::new(n), cfg(17));
    let res_e = ecube.run_static(&backlog);
    let mut adaptive = Simulator::new(HypercubeFullyAdaptive::new(n), cfg(17));
    let res_a = adaptive.run_static(&backlog);
    assert!(res_e.drained && res_a.drained);
    assert!(res_a.stats.mean() <= res_e.stats.mean() + 1e-9);
}

/// Mesh: both algorithms drain on grid transpose; lone-packet latency is
/// `2·Manhattan + 1`.
#[test]
fn mesh_simulation_works() {
    let side = 8;
    let mesh_rf = MeshFullyAdaptive::new(side, side);
    let topo_dist = {
        let m = *mesh_rf.mesh();
        move |a: usize, b: usize| m.distance(a, b)
    };
    let mut sim = Simulator::new(mesh_rf, cfg(19));
    let mut backlog = vec![Vec::new(); side * side];
    backlog[3] = vec![60];
    let res = sim.run_static(&backlog);
    assert!(res.drained);
    assert_eq!(res.stats.max(), 2 * topo_dist(3, 60) as u64 + 1);

    let mut rng = StdRng::seed_from_u64(19);
    let backlog = static_backlog(&Pattern::grid_transpose(side), side * side, 4, &mut rng);
    let mut sim = Simulator::new(MeshFullyAdaptive::new(side, side), cfg(19));
    assert!(sim.run_static(&backlog).drained);
    let mut sim = Simulator::new(MeshXY::new(side, side), cfg(19));
    assert!(sim.run_static(&backlog).drained);
}

/// Shuffle-exchange: an *uncontended* packet arrives within `3n` hops
/// (latency ≤ 2·3n + 1) for every (src, dst) pair, and loaded runs drain
/// in both the adaptive and static variants.
#[test]
fn shuffle_exchange_lone_packets_arrive_within_3n() {
    let n = 4;
    let size = 1usize << n;
    for src in 0..size {
        for dst in 0..size {
            if src == dst {
                continue;
            }
            let mut sim = Simulator::new(ShuffleExchangeRouting::new(n), cfg(23));
            let mut backlog = vec![Vec::new(); size];
            backlog[src].push(dst);
            let res = sim.run_static(&backlog);
            assert!(res.drained, "{src}->{dst} stalled");
            assert!(
                res.stats.max() <= (2 * 3 * n + 1) as u64,
                "{src}->{dst}: latency {} exceeds 2*3n+1",
                res.stats.max()
            );
        }
    }
}

#[test]
fn shuffle_exchange_loaded_runs_drain() {
    for dynamic in [true, false] {
        let n = 5;
        let rf = if dynamic {
            ShuffleExchangeRouting::new(n)
        } else {
            ShuffleExchangeRouting::without_dynamic_links(n)
        };
        let mut sim = Simulator::new(rf, cfg(23));
        let size = 1usize << n;
        let mut rng = StdRng::seed_from_u64(23);
        let backlog = static_backlog(&Pattern::Random, size, 2, &mut rng);
        let res = sim.run_static(&backlog);
        assert!(
            res.drained,
            "dynamic={dynamic} stalled at cycle {}",
            res.cycles
        );
        assert_eq!(res.delivered, 2 * size as u64);
    }
}

/// Torus: drains under random traffic and a lone packet takes
/// `2·wrap-distance + 1`.
#[test]
fn torus_simulation_works() {
    let rf = TorusTwoPhase::new(7, 7);
    let dist = {
        let t = *rf.torus();
        move |a: usize, b: usize| t.distance(a, b)
    };
    let mut sim = Simulator::new(rf, cfg(29));
    let mut backlog = vec![Vec::new(); 49];
    backlog[0] = vec![48];
    let res = sim.run_static(&backlog);
    assert!(res.drained);
    assert_eq!(res.stats.max(), 2 * dist(0, 48) as u64 + 1);

    let mut rng = StdRng::seed_from_u64(29);
    let backlog = static_backlog(&Pattern::Random, 49, 5, &mut rng);
    let mut sim = Simulator::new(TorusTwoPhase::new(7, 7), cfg(29));
    assert!(sim.run_static(&backlog).drained);
}

/// Determinism: identical seeds give identical results.
#[test]
fn runs_are_deterministic() {
    let run = || {
        let rf = HypercubeFullyAdaptive::new(6);
        let mut sim = Simulator::new(rf, cfg(99));
        sim.run_dynamic(0.7, |src, rng| Pattern::Random.draw(src, 64, rng), 200)
    };
    let a = run();
    let b = run();
    assert_eq!(a.injected, b.injected);
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(a.stats.mean(), b.stats.mean());
    assert_eq!(a.stats.max(), b.stats.max());
}

/// Leveled permutations behave like Table 4/8/12: drain statically and
/// sustain dynamic injection.
#[test]
fn leveled_permutation_runs() {
    let n = 7;
    let size = 1usize << n;
    let mut rng = StdRng::seed_from_u64(31);
    let pat = Pattern::leveled_permutation(n, &mut rng);
    let mut rng2 = StdRng::seed_from_u64(32);
    let backlog = static_backlog(&pat, size, n, &mut rng2);
    let mut sim = Simulator::new(HypercubeFullyAdaptive::new(n), cfg(31));
    assert!(sim.run_static(&backlog).drained);

    let mut sim = Simulator::new(HypercubeFullyAdaptive::new(n), cfg(31));
    let res = sim.run_dynamic(1.0, move |src, rng| pat.draw(src, size, rng), 300);
    assert!(res.injection_rate() > 0.5);
}

/// Partial-lambda dynamic injection stays light: at λ = 0.05 the mean
/// latency approaches the uncongested `n + 1`.
#[test]
fn low_lambda_dynamic_is_nearly_uncongested() {
    let n = 8;
    let rf = HypercubeFullyAdaptive::new(n);
    let mut sim = Simulator::new(rf, cfg(37));
    let res = sim.run_dynamic(
        0.05,
        |src, rng| Pattern::Random.draw(src, 1 << n, rng),
        2_000,
    );
    let mean = res.stats.mean();
    assert!((mean - (n as f64 + 1.0)).abs() < 1.0, "mean {mean}");
    assert!(res.injection_rate() > 0.99);
}

/// Counts delivered packets whose hop count differs from the topology
/// distance between their endpoints, from the event stream alone.
struct HopCheck<'t> {
    topo: &'t dyn Topology,
    /// `(src, dst)` of every packet in flight, by packet id.
    endpoints: HashMap<u64, (u32, u32)>,
    violations: u64,
}

impl<'t> HopCheck<'t> {
    fn new(topo: &'t dyn Topology) -> Self {
        Self {
            topo,
            endpoints: HashMap::new(),
            violations: 0,
        }
    }
}

impl Recorder for HopCheck<'_> {
    fn on_inject(&mut self, _cycle: u64, pkt: u64, src: u32, dst: u32) {
        self.endpoints.insert(pkt, (src, dst));
    }

    fn on_deliver(&mut self, _cycle: u64, pkt: u64, _latency: u64, hops: u32, _class: u8) {
        let (src, dst) = self
            .endpoints
            .remove(&pkt)
            .expect("delivered packet was injected");
        if hops as usize != self.topo.distance(src as usize, dst as usize) {
            self.violations += 1;
        }
    }
}

/// At-scale minimality: on a 1024-node cube under loaded random traffic,
/// every delivered packet took exactly Hamming-distance hops.
#[test]
fn minimality_holds_at_scale() {
    let n = 10;
    let size = 1usize << n;
    let rf = HypercubeFullyAdaptive::new(n);
    let check = HopCheck::new(rf.topology());
    let mut sim = Simulator::with_recorder(rf, SimConfig::default(), check);
    let mut rng = StdRng::seed_from_u64(41);
    let backlog = static_backlog(&Pattern::Random, size, 3, &mut rng);
    let res = sim.run_static(&backlog);
    assert!(res.drained);
    assert_eq!(sim.recorder().violations, 0);
}

/// The shuffle-exchange is *not* minimal: its hop counts legitimately
/// exceed the BFS distance, and the event stream shows that.
#[test]
fn shuffle_exchange_is_detectably_non_minimal() {
    let n = 4;
    let size = 1usize << n;
    let rf = ShuffleExchangeRouting::new(n);
    let check = HopCheck::new(rf.topology());
    let mut sim = Simulator::with_recorder(rf, SimConfig::default(), check);
    let mut rng = StdRng::seed_from_u64(43);
    let backlog = static_backlog(&Pattern::Random, size, 2, &mut rng);
    let res = sim.run_static(&backlog);
    assert!(res.drained);
    assert!(sim.recorder().violations > 0);
}
