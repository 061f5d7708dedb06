//! Behavioural unit tests of the § 7.1 engine mechanics: arbitration
//! fairness, capacity enforcement, fill-order effects, and timing lower
//! bounds.

use fadr_core::{HypercubeFullyAdaptive, MeshFullyAdaptive, ShuffleExchangeRouting};
use fadr_qdg::RoutingFunction;
use fadr_sim::{CounterSink, FillOrder, SimConfig, Simulator};
use fadr_topology::{hamming_distance, Topology};
use fadr_workloads::{static_backlog, Pattern};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Latency can never beat `2·distance + 1` — one move per cycle, two
/// routing steps per node.
#[test]
fn latency_lower_bound_holds_under_load() {
    let n = 7;
    let size = 1usize << n;
    let mut rng = StdRng::seed_from_u64(3);
    let backlog = static_backlog(&Pattern::Random, size, n, &mut rng);
    let mut sim = Simulator::new(HypercubeFullyAdaptive::new(n), SimConfig::default());
    let res = sim.run_static(&backlog);
    assert!(res.drained);
    // Minimum over all packets of latency: >= 2*1 + 1 = 3 for distance-1
    // pairs (and random never draws distance 0).
    assert!(res.stats.min() >= 3);
}

/// Central queues never exceed their configured capacity (checked via
/// a `CounterSink`'s per-queue peak).
#[test]
fn queue_capacity_is_enforced() {
    for cap in [1usize, 2, 5] {
        let n = 6;
        let size = 1usize << n;
        let cfg = SimConfig {
            queue_capacity: cap,
            ..SimConfig::default()
        };
        let counters = CounterSink::new(size, 2);
        let mut sim = Simulator::with_recorder(HypercubeFullyAdaptive::new(n), cfg, counters);
        let mut rng = StdRng::seed_from_u64(5);
        let backlog = static_backlog(&Pattern::complement(n), size, n, &mut rng);
        assert!(sim.run_static(&backlog).drained);
        let probe = sim.recorder();
        for v in 0..size {
            for c in 0..2 {
                assert!(
                    probe.queue_peak(v, c) as usize <= cap,
                    "cap {cap} exceeded at node {v} class {c}: {}",
                    probe.queue_peak(v, c)
                );
            }
        }
    }
}

/// All three fill orders drain and give identical results for a lone
/// packet (no contention to arbitrate) but may differ under load.
#[test]
fn fill_orders_agree_when_uncontended() {
    let n = 6;
    let size = 1usize << n;
    let mut lone_latencies = Vec::new();
    for order in [
        FillOrder::LowToHigh,
        FillOrder::HighToLow,
        FillOrder::Rotating,
    ] {
        let cfg = SimConfig {
            fill_order: order,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(HypercubeFullyAdaptive::new(n), cfg);
        let mut backlog = vec![Vec::new(); size];
        backlog[5] = vec![5 ^ 0b111000];
        let res = sim.run_static(&backlog);
        assert!(res.drained);
        lone_latencies.push(res.stats.max());
    }
    let want = 2 * hamming_distance(5, 5 ^ 0b111000) as u64 + 1;
    assert!(
        lone_latencies.iter().all(|&l| l == want),
        "{lone_latencies:?}"
    );
}

/// Loaded runs under different fill orders all drain (the § 7.1 rule is a
/// policy choice, not a correctness requirement).
#[test]
fn fill_orders_all_drain_under_load() {
    let n = 6;
    let size = 1usize << n;
    for order in [
        FillOrder::LowToHigh,
        FillOrder::HighToLow,
        FillOrder::Rotating,
    ] {
        let cfg = SimConfig {
            fill_order: order,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(HypercubeFullyAdaptive::new(n), cfg);
        let mut rng = StdRng::seed_from_u64(11);
        let backlog = static_backlog(&Pattern::transpose(n), size, n, &mut rng);
        let res = sim.run_static(&backlog);
        assert!(res.drained, "{order:?} stalled");
        assert_eq!(res.delivered, (size * n) as u64);
    }
}

/// Fairness under a many-to-one hotspot: every source's packets are
/// delivered (rotating read priority prevents starvation), and the
/// latency spread stays bounded relative to the serialization floor.
#[test]
fn hotspot_does_not_starve_any_source() {
    let side = 6;
    let nodes = side * side;
    let target = side * side / 2;
    let mut rng = StdRng::seed_from_u64(13);
    let backlog = static_backlog(&Pattern::Hotspot(target), nodes, 2, &mut rng);
    let total: u64 = backlog.iter().map(|b| b.len() as u64).sum();
    let mut sim = Simulator::new(MeshFullyAdaptive::new(side, side), SimConfig::default());
    let res = sim.run_static(&backlog);
    assert!(res.drained);
    assert_eq!(res.delivered, total);
    // The hotspot consumes at most ~1 packet per incoming direction per
    // cycle; the drain time must be within a small factor of the
    // serialization floor total/4.
    assert!(res.cycles as u64 >= total / 4);
    assert!(res.cycles as u64 <= 4 * total);
}

/// Deterministic replay: two simulators with the same seed and workload
/// produce identical latency histograms (not just identical means).
#[test]
fn deterministic_histograms() {
    let n = 6;
    let size = 1usize << n;
    let run = || {
        let mut sim = Simulator::new(HypercubeFullyAdaptive::new(n), SimConfig::default());
        let mut rng = StdRng::seed_from_u64(17);
        let backlog = static_backlog(&Pattern::Random, size, 4, &mut rng);
        let res = sim.run_static(&backlog);
        let h: Vec<(u64, u64)> = res.stats.histogram().iter().collect();
        h
    };
    assert_eq!(run(), run());
}

/// The topology exposed by the simulator matches the routing function's.
#[test]
fn simulator_reflects_routing_function() {
    let rf = HypercubeFullyAdaptive::new(5);
    let name = fadr_qdg::RoutingFunction::name(&rf);
    let sim = Simulator::new(rf, SimConfig::default());
    assert_eq!(sim.num_nodes(), 32);
    assert_eq!(fadr_qdg::RoutingFunction::name(sim.routing()), name);
    assert_eq!(sim.routing().cube().dims(), 5);
    let _ = sim.routing().cube().num_nodes();
    let _ = Topology::name(sim.routing().cube());
}

/// Regression: a stutter whose target class differs from the current
/// residence (the shuffle-exchange's degenerate one-node cycles cross a
/// phase boundary in place) must physically migrate the packet between
/// class queues, respecting the target's capacity. The per-class
/// occupancy accounting is therefore exact: no class ever exceeds the
/// configured capacity, and the phase-2 classes actually fill up at the
/// degenerate nodes (under the old bookkeeping the packet stayed in its
/// phase-1 queue while routing as phase-2).
#[test]
fn se_stutter_migrates_between_class_queues() {
    let n = 4;
    let size = 1usize << n;
    for cap in [1usize, 2, 5] {
        let cfg = SimConfig {
            queue_capacity: cap,
            seed: 0x5e5e,
            ..SimConfig::default()
        };
        let rf = ShuffleExchangeRouting::new(n);
        let nc = rf.num_classes();
        let mut sim = Simulator::with_recorder(rf, cfg, CounterSink::new(size, nc));
        let mut rng = StdRng::seed_from_u64(41);
        let backlog = static_backlog(&Pattern::Random, size, 2 * n, &mut rng);
        let total: u64 = backlog.iter().map(|b| b.len() as u64).sum();
        let res = sim.run_static(&backlog);
        assert!(res.drained, "cap {cap} stalled");
        assert_eq!(res.delivered, total);
        let probe = sim.recorder();
        let mut phase2_peak = 0;
        for v in 0..size {
            for c in 0..nc {
                let peak = probe.queue_peak(v, c);
                assert!(
                    peak as usize <= cap,
                    "cap {cap} exceeded at node {v} class {c}: {peak}"
                );
                if c >= nc / 2 {
                    phase2_peak = phase2_peak.max(peak);
                }
            }
        }
        assert!(
            phase2_peak > 0,
            "no packet was ever counted in a phase-2 class"
        );
    }
}
