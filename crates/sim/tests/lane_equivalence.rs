//! Lane-identity differential suite: every lane of a batched
//! [`LaneSim`] run must be **bit-identical** to a standalone sequential
//! [`Simulator`] run seeded with that lane's seed — same result struct
//! (statistics and histograms included via `PartialEq`), same
//! delivered-packet journal event for event, same occupancy probe,
//! same throughput series, same minimality count.
//!
//! The matrix covers scheme × topology × workload (dynamic Bernoulli
//! injection at two rates and a hotspot pattern; static random
//! backlogs) × lane counts R ∈ {1, 2, 7, 32}, plus the three fill
//! orders, memo-table reuse across runs, and explicit per-lane seeds.

use fadr_core::{
    EcubeSbp, HypercubeFullyAdaptive, HypercubeStaticHang, MeshFullyAdaptive, MeshKDFullyAdaptive,
    ShuffleExchangeRouting, TorusTwoPhase,
};
use fadr_metrics::JournalSink;
use fadr_qdg::RoutingFunction;
use fadr_sim::{lane_seed, FillOrder, LaneSim, SimConfig, Simulator, StopReason};
use fadr_workloads::{static_backlog, Pattern};
use rand::rngs::StdRng;
use rand::SeedableRng;

const LANE_COUNTS: [usize; 4] = [1, 2, 7, 32];

/// Journals big enough that no event is ever dropped from the ring.
const JOURNAL_CAP: usize = 1 << 16;

fn instrumented_cfg() -> SimConfig {
    SimConfig {
        track_occupancy: true,
        check_minimality: true,
        throughput_window: 8,
        ..SimConfig::default()
    }
}

/// Run lane `k`'s standalone sequential twin: same config but seeded
/// with the lane's seed, journal attached.
fn sequential_dynamic<R: RoutingFunction + Clone>(
    rf: &R,
    cfg: SimConfig,
    seed: u64,
    pattern: &Pattern,
    lambda: f64,
    cycles: u64,
) -> (
    fadr_sim::DynamicResult,
    JournalSink,
    Simulator<R, JournalSink>,
) {
    let size = rf.topology().num_nodes();
    let mut sim = Simulator::with_recorder(
        rf.clone(),
        SimConfig { seed, ..cfg },
        JournalSink::new(JOURNAL_CAP),
    );
    let res = sim.run_dynamic(lambda, |s, rng| pattern.draw(s, size, rng), cycles);
    let journal = sim.recorder().clone();
    (res, journal, sim)
}

fn assert_journals_match(name: &str, lane: usize, lanes: usize, a: &JournalSink, b: &JournalSink) {
    assert_eq!(
        a.count(),
        b.count(),
        "{name} R={lanes} lane={lane}: journal event count diverged"
    );
    assert_eq!(
        a.hash(),
        b.hash(),
        "{name} R={lanes} lane={lane}: journal hash diverged"
    );
    assert_eq!(
        a.lines(),
        b.lines(),
        "{name} R={lanes} lane={lane}: journal lines diverged"
    );
}

/// Dynamic-injection lane identity for one routing family at one λ.
fn assert_dynamic_lane_identity<R>(name: &str, rf: R, pattern: &Pattern, lambda: f64, cycles: u64)
where
    R: RoutingFunction + Clone,
{
    let cfg = instrumented_cfg();
    let size = rf.topology().num_nodes();
    for lanes in LANE_COUNTS {
        let mut batch = LaneSim::new(rf.clone(), cfg, lanes);
        let mut journals = vec![JournalSink::new(JOURNAL_CAP); lanes];
        let results = batch.run_dynamic_recorded(
            lambda,
            |s, rng| pattern.draw(s, size, rng),
            cycles,
            &mut journals,
        );
        assert_eq!(results.len(), lanes);
        for k in 0..lanes {
            let seed = lane_seed(cfg.seed, k);
            assert_eq!(batch.seeds()[k], seed, "{name}: seed schedule diverged");
            let (seq_res, seq_journal, seq) =
                sequential_dynamic(&rf, cfg, seed, pattern, lambda, cycles);
            assert_eq!(
                results[k], seq_res,
                "{name} R={lanes} lane={k}: result diverged"
            );
            assert_journals_match(name, k, lanes, &journals[k], &seq_journal);
            assert_eq!(
                batch.lane_occupancy(k),
                seq.occupancy(),
                "{name} R={lanes} lane={k}: occupancy diverged"
            );
            assert_eq!(
                batch.lane_throughput(k),
                seq.throughput(),
                "{name} R={lanes} lane={k}: throughput diverged"
            );
            assert_eq!(
                batch.lane_minimality_violations(k),
                seq.minimality_violations(),
                "{name} R={lanes} lane={k}: minimality count diverged"
            );
        }
    }
}

/// Static-injection lane identity: lanes differ through per-lane
/// backlogs (static runs consume no engine RNG), generated from each
/// lane's seed so the sequential twin sees the identical workload.
fn assert_static_lane_identity<R>(name: &str, rf: R)
where
    R: RoutingFunction + Clone,
{
    let cfg = instrumented_cfg();
    let size = rf.topology().num_nodes();
    for lanes in LANE_COUNTS {
        let backlogs: Vec<Vec<Vec<usize>>> = (0..lanes)
            .map(|k| {
                let mut rng = StdRng::seed_from_u64(lane_seed(cfg.seed, k) ^ 0xBAC1);
                static_backlog(&Pattern::Random, size, 2, &mut rng)
            })
            .collect();
        let mut batch = LaneSim::new(rf.clone(), cfg, lanes);
        let mut journals = vec![JournalSink::new(JOURNAL_CAP); lanes];
        let results = batch.run_static_recorded(&backlogs, &mut journals);
        for k in 0..lanes {
            let mut seq = Simulator::with_recorder(
                rf.clone(),
                SimConfig {
                    seed: lane_seed(cfg.seed, k),
                    ..cfg
                },
                JournalSink::new(JOURNAL_CAP),
            );
            let seq_res = seq.run_static(&backlogs[k]);
            assert_eq!(seq_res.stop, StopReason::Drained, "{name}: run broken");
            assert_eq!(
                results[k], seq_res,
                "{name} R={lanes} lane={k}: static result diverged"
            );
            assert_journals_match(name, k, lanes, &journals[k], seq.recorder());
            assert_eq!(
                batch.lane_occupancy(k),
                seq.occupancy(),
                "{name} R={lanes} lane={k}: occupancy diverged"
            );
        }
    }
}

// --- scheme × topology matrix --------------------------------------------

#[test]
fn hypercube_fully_adaptive_lanes() {
    assert_dynamic_lane_identity(
        "hc-adaptive",
        HypercubeFullyAdaptive::new(4),
        &Pattern::Random,
        0.7,
        120,
    );
    assert_static_lane_identity("hc-adaptive", HypercubeFullyAdaptive::new(4));
}

#[test]
fn hypercube_static_hang_lanes() {
    assert_dynamic_lane_identity(
        "hc-hang",
        HypercubeStaticHang::new(4),
        &Pattern::Random,
        0.7,
        120,
    );
    assert_static_lane_identity("hc-hang", HypercubeStaticHang::new(4));
}

#[test]
fn hypercube_ecube_sbp_lanes() {
    assert_dynamic_lane_identity("hc-ecube", EcubeSbp::new(4), &Pattern::Random, 0.7, 120);
    assert_static_lane_identity("hc-ecube", EcubeSbp::new(4));
}

#[test]
fn mesh_fully_adaptive_lanes() {
    assert_dynamic_lane_identity(
        "mesh",
        MeshFullyAdaptive::new(5, 5),
        &Pattern::Random,
        0.7,
        120,
    );
    assert_static_lane_identity("mesh", MeshFullyAdaptive::new(5, 5));
}

#[test]
fn mesh_kd_lanes() {
    assert_dynamic_lane_identity(
        "mesh-kd",
        MeshKDFullyAdaptive::new(&[3, 3, 3]),
        &Pattern::Random,
        0.7,
        120,
    );
    assert_static_lane_identity("mesh-kd", MeshKDFullyAdaptive::new(&[3, 3, 3]));
}

#[test]
fn torus_two_phase_lanes() {
    assert_dynamic_lane_identity(
        "torus",
        TorusTwoPhase::new(4, 4),
        &Pattern::Random,
        0.7,
        120,
    );
    assert_static_lane_identity("torus", TorusTwoPhase::new(4, 4));
}

#[test]
fn shuffle_exchange_lanes() {
    assert_dynamic_lane_identity(
        "shuffle",
        ShuffleExchangeRouting::new(4),
        &Pattern::Random,
        0.7,
        120,
    );
    assert_static_lane_identity("shuffle", ShuffleExchangeRouting::new(4));
}

// --- workload axis --------------------------------------------------------

#[test]
fn saturating_load_lane_identity() {
    // λ = 1 skips the Bernoulli draw entirely (a different RNG
    // consumption path) and keeps queues at capacity, exercising
    // blocked arrivals and retries.
    assert_dynamic_lane_identity(
        "hc-adaptive-sat",
        HypercubeFullyAdaptive::new(4),
        &Pattern::Random,
        1.0,
        100,
    );
}

#[test]
fn hotspot_workload_lane_identity() {
    assert_dynamic_lane_identity(
        "mesh-hotspot",
        MeshFullyAdaptive::new(4, 4),
        &Pattern::Hotspot(5),
        0.5,
        140,
    );
}

// --- fill orders ----------------------------------------------------------

#[test]
fn fill_orders_lane_identity() {
    // The lane engine's mask-iterated fill must match the sequential
    // scan under all three orders (ascending, descending, rotating).
    for order in [
        FillOrder::LowToHigh,
        FillOrder::HighToLow,
        FillOrder::Rotating,
    ] {
        let cfg = SimConfig {
            fill_order: order,
            ..instrumented_cfg()
        };
        let rf = HypercubeFullyAdaptive::new(4);
        let lanes = 7;
        let mut batch = LaneSim::new(rf, cfg, lanes);
        let results = batch.run_dynamic(0.8, |s, rng| Pattern::Random.draw(s, 16, rng), 100);
        for (k, res) in results.iter().enumerate() {
            let mut seq = Simulator::new(
                rf,
                SimConfig {
                    seed: lane_seed(cfg.seed, k),
                    ..cfg
                },
            );
            let seq_res = seq.run_dynamic(0.8, |s, rng| Pattern::Random.draw(s, 16, rng), 100);
            assert_eq!(*res, seq_res, "order={order:?} lane={k}: diverged");
        }
    }
}

// --- engine reuse and explicit seeds --------------------------------------

#[test]
fn memo_table_reuse_across_runs_is_exact() {
    // A second run on the same engine starts with a fully warm memo
    // table; results must not change, and the table must have grown.
    let rf = TorusTwoPhase::new(4, 4);
    let mut batch = LaneSim::new(rf, instrumented_cfg(), 4);
    let first = batch.run_dynamic(0.6, |s, rng| Pattern::Random.draw(s, 16, rng), 150);
    let entries = batch.memo_entries();
    assert!(entries > 0, "memo table never populated");
    let second = batch.run_dynamic(0.6, |s, rng| Pattern::Random.draw(s, 16, rng), 150);
    assert_eq!(first, second, "warm-table rerun diverged");
    assert_eq!(
        entries,
        batch.memo_entries(),
        "identical rerun grew the table"
    );
}

#[test]
fn explicit_lane_seeds_map_to_sequential_runs() {
    // Arbitrary caller-chosen seeds (the table runner's rep formula
    // shape) must behave exactly like sequential runs with those seeds.
    let rf = MeshFullyAdaptive::new(4, 4);
    let cfg = instrumented_cfg();
    let seeds = vec![0xFAD2, 0xFAD2 ^ (3 << 16), 0xDEAD_BEEF, 1];
    let mut batch = LaneSim::with_lane_seeds(rf, cfg, seeds.clone());
    let results = batch.run_dynamic(0.7, |s, rng| Pattern::Random.draw(s, 16, rng), 120);
    for (k, &seed) in seeds.iter().enumerate() {
        let mut seq = Simulator::new(rf, SimConfig { seed, ..cfg });
        let seq_res = seq.run_dynamic(0.7, |s, rng| Pattern::Random.draw(s, 16, rng), 120);
        assert_eq!(results[k], seq_res, "seed {seed:#x}: diverged");
    }
}

// --- fallback scans -------------------------------------------------------

#[test]
fn wide_nodes_take_the_fallback_scans() {
    // EcubeSbp(9) gives every node 81 output and 81 input buffers: more
    // than the mask-iterated fill (64) and read (63) paths cover, so the
    // core's plain fill and read scans run on both engines here.
    let rf = EcubeSbp::new(9);
    let size = rf.topology().num_nodes();
    let cfg = instrumented_cfg();
    let lanes = 2;
    let mut batch = LaneSim::new(rf, cfg, lanes);
    let mut journals = vec![JournalSink::new(1 << 18); lanes];
    let dest = |s, rng: &mut StdRng| Pattern::Random.draw(s, size, rng);
    let results = batch.run_dynamic_recorded(0.5, dest, 24, &mut journals);
    for (k, res) in results.iter().enumerate() {
        let seed = lane_seed(cfg.seed, k);
        let mut seq =
            Simulator::with_recorder(rf, SimConfig { seed, ..cfg }, JournalSink::new(1 << 18));
        assert_eq!(
            *res,
            seq.run_dynamic(0.5, dest, 24),
            "lane={k}: result diverged"
        );
        assert!(res.delivered > 0, "lane={k}: nothing delivered");
        assert_journals_match("ecube9-dyn", k, lanes, &journals[k], seq.recorder());
        assert_eq!(batch.lane_occupancy(k), seq.occupancy(), "lane={k}");
    }

    let backlogs: Vec<Vec<Vec<usize>>> = (0..lanes)
        .map(|k| {
            let mut rng = StdRng::seed_from_u64(lane_seed(cfg.seed, k) ^ 0xBAC1);
            static_backlog(&Pattern::Random, size, 1, &mut rng)
        })
        .collect();
    let mut journals = vec![JournalSink::new(1 << 18); lanes];
    let results = batch.run_static_recorded(&backlogs, &mut journals);
    for (k, res) in results.iter().enumerate() {
        let seed = lane_seed(cfg.seed, k);
        let mut seq =
            Simulator::with_recorder(rf, SimConfig { seed, ..cfg }, JournalSink::new(1 << 18));
        let seq_res = seq.run_static(&backlogs[k]);
        assert_eq!(seq_res.stop, StopReason::Drained, "lane={k}: run broken");
        assert_eq!(*res, seq_res, "lane={k}: static result diverged");
        assert_journals_match("ecube9-static", k, lanes, &journals[k], seq.recorder());
        assert_eq!(batch.lane_occupancy(k), seq.occupancy(), "lane={k}");
    }
}
