//! Table-source differential suite: a [`Simulator`] built by
//! [`Simulator::with_table`] must be **bit-identical** to a computed
//! [`Simulator::with_recorder`] run with the same seed — same result
//! struct (statistics and histograms included via `PartialEq`), same
//! delivered-packet journal event for event, same occupancy probe,
//! same throughput series, same minimality count.
//!
//! The matrix covers scheme × topology × workload (dynamic Bernoulli
//! injection at two rates and a hotspot pattern; static random
//! backlogs) × R ∈ {1, 2, 7, 32} seeds sharing one table, plus the
//! three fill orders, one simulator reused across runs, explicit seeds
//! through the [`LaneSim`] batch wrapper, and a table built for another
//! network.

use std::sync::Arc;

use fadr_core::{
    EcubeSbp, HypercubeFullyAdaptive, HypercubeStaticHang, MeshFullyAdaptive, MeshKDFullyAdaptive,
    ShuffleExchangeRouting, TorusTwoPhase,
};
use fadr_metrics::JournalSink;
use fadr_qdg::RoutingFunction;
use fadr_sim::{
    lane_seed, lane_seeds, FillOrder, LaneSim, NoRecorder, Recorder, SimConfig, Simulator,
    StateTable, StopReason,
};
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

/// A simulator on the shared `table`, seeded `seed`.
fn on_table<R: RoutingFunction + Clone, Rec: Recorder>(
    rf: &R,
    cfg: SimConfig,
    seed: u64,
    rec: Rec,
    table: &Arc<StateTable>,
) -> Simulator<R, Rec, Arc<StateTable>> {
    Simulator::with_table(
        rf.clone(),
        SimConfig { seed, ..cfg },
        rec,
        Arc::clone(table),
    )
}

/// Run seed `seed`'s computed twin: same config, journal attached.
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

/// Dynamic-injection identity for one routing family at one λ: R seeds
/// on one shared table, each against its computed twin.
fn assert_dynamic_lane_identity<R>(name: &str, rf: R, pattern: &Pattern, lambda: f64, cycles: u64)
where
    R: RoutingFunction + Clone,
{
    let cfg = instrumented_cfg();
    let size = rf.topology().num_nodes();
    for lanes in LANE_COUNTS {
        let table = StateTable::build(&rf);
        let seeds = lane_seeds(cfg.seed, lanes);
        let runs: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let mut tab = on_table(&rf, cfg, seed, JournalSink::new(JOURNAL_CAP), &table);
                let res = tab.run_dynamic(lambda, |s, rng| pattern.draw(s, size, rng), cycles);
                (res, tab)
            })
            .collect();
        assert_eq!(runs.len(), lanes);
        for (k, (res, tab)) in runs.iter().enumerate() {
            let seed = lane_seed(cfg.seed, k);
            assert_eq!(seeds[k], seed, "{name}: seed schedule diverged");
            let (seq_res, seq_journal, seq) =
                sequential_dynamic(&rf, cfg, seed, pattern, lambda, cycles);
            assert_eq!(*res, seq_res, "{name} R={lanes} lane={k}: result diverged");
            assert_journals_match(name, k, lanes, tab.recorder(), &seq_journal);
            assert_eq!(
                tab.occupancy(),
                seq.occupancy(),
                "{name} R={lanes} lane={k}: occupancy diverged"
            );
            assert_eq!(
                tab.throughput(),
                seq.throughput(),
                "{name} R={lanes} lane={k}: throughput diverged"
            );
            assert_eq!(
                tab.minimality_violations(),
                seq.minimality_violations(),
                "{name} R={lanes} lane={k}: minimality count diverged"
            );
        }
    }
}

/// Static-injection identity: the seeds differ through their backlogs
/// (static runs consume no engine RNG), generated from each seed so the
/// computed twin sees the identical workload.
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
        let table = StateTable::build(&rf);
        let runs: Vec<_> = backlogs
            .iter()
            .enumerate()
            .map(|(k, backlog)| {
                let rec = JournalSink::new(JOURNAL_CAP);
                let mut tab = on_table(&rf, cfg, lane_seed(cfg.seed, k), rec, &table);
                (tab.run_static(backlog), tab)
            })
            .collect();
        for (k, (res, tab)) in runs.iter().enumerate() {
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
                *res, seq_res,
                "{name} R={lanes} lane={k}: static result diverged"
            );
            assert_journals_match(name, k, lanes, tab.recorder(), seq.recorder());
            assert_eq!(
                tab.occupancy(),
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
    // The table's rank-indexed option pick must match the computed
    // source's scan under all three orders (ascending, descending,
    // rotating).
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
        let table = StateTable::build(&rf);
        for (k, seed) in lane_seeds(cfg.seed, 7).into_iter().enumerate() {
            let mut tab = on_table(&rf, cfg, seed, NoRecorder, &table);
            let res = tab.run_dynamic(0.8, |s, rng| Pattern::Random.draw(s, 16, rng), 100);
            let mut seq = Simulator::new(rf, SimConfig { seed, ..cfg });
            let seq_res = seq.run_dynamic(0.8, |s, rng| Pattern::Random.draw(s, 16, rng), 100);
            assert_eq!(res, seq_res, "order={order:?} lane={k}: diverged");
        }
    }
}

// --- engine reuse and explicit seeds --------------------------------------

#[test]
fn memo_table_reuse_across_runs_is_exact() {
    // A second run on the same simulators reuses their state and the
    // shared table; results must not change, and the table, fixed at
    // construction, must not grow.
    let rf = TorusTwoPhase::new(4, 4);
    let cfg = instrumented_cfg();
    let mut batch = LaneSim::with_lane_seeds(rf, cfg, lane_seeds(cfg.seed, 4));
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
    // One table-sourced simulator, reused: each run reproduces lane 0.
    let table = StateTable::build(&rf);
    let mut sim = on_table(&rf, cfg, lane_seed(cfg.seed, 0), NoRecorder, &table);
    for run in 0..2 {
        let res = sim.run_dynamic(0.6, |s, rng| Pattern::Random.draw(s, 16, rng), 150);
        assert_eq!(res, first[0], "run {run} on a reused simulator diverged");
    }
}

#[test]
fn explicit_lane_seeds_map_to_sequential_runs() {
    // Arbitrary caller-chosen seeds (the table runner's rep formula
    // shape) must behave exactly like sequential runs with those seeds,
    // through the `LaneSim` wrapper the benchmark package drives.
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

#[test]
#[should_panic(expected = "the routing-state table was built for 8 nodes, the router has 16")]
fn with_table_rejects_a_table_of_another_network() {
    let table = StateTable::build(&HypercubeFullyAdaptive::new(3));
    let _ = Simulator::with_table(
        HypercubeFullyAdaptive::new(4),
        SimConfig::default(),
        NoRecorder,
        table,
    );
}

// --- fallback scans -------------------------------------------------------

#[test]
fn wide_nodes_take_the_fallback_scans() {
    // EcubeSbp(9) gives every node 81 output and 81 input buffers: more
    // than the mask-iterated fill (64) and read (63) paths cover, so the
    // core's plain fill and read scans run on both sources here.
    let rf = EcubeSbp::new(9);
    let size = rf.topology().num_nodes();
    let cfg = instrumented_cfg();
    let lanes = 2;
    let table = StateTable::build(&rf);
    let mut tabs: Vec<_> = lane_seeds(cfg.seed, lanes)
        .into_iter()
        .map(|seed| on_table(&rf, cfg, seed, JournalSink::new(1 << 18), &table))
        .collect();
    let dest = |s, rng: &mut StdRng| Pattern::Random.draw(s, size, rng);
    for (k, tab) in tabs.iter_mut().enumerate() {
        let res = tab.run_dynamic(0.5, dest, 24);
        let seed = lane_seed(cfg.seed, k);
        let mut seq =
            Simulator::with_recorder(rf, SimConfig { seed, ..cfg }, JournalSink::new(1 << 18));
        assert_eq!(
            res,
            seq.run_dynamic(0.5, dest, 24),
            "lane={k}: result diverged"
        );
        assert!(res.delivered > 0, "lane={k}: nothing delivered");
        assert_journals_match("ecube9-dyn", k, lanes, tab.recorder(), seq.recorder());
        assert_eq!(tab.occupancy(), seq.occupancy(), "lane={k}");
    }

    let backlogs: Vec<Vec<Vec<usize>>> = (0..lanes)
        .map(|k| {
            let mut rng = StdRng::seed_from_u64(lane_seed(cfg.seed, k) ^ 0xBAC1);
            static_backlog(&Pattern::Random, size, 1, &mut rng)
        })
        .collect();
    for (k, tab) in tabs.iter_mut().enumerate() {
        // Fresh journals: the dynamic run above already filled them.
        *tab.recorder_mut() = JournalSink::new(1 << 18);
        let res = tab.run_static(&backlogs[k]);
        let seed = lane_seed(cfg.seed, k);
        let mut seq =
            Simulator::with_recorder(rf, SimConfig { seed, ..cfg }, JournalSink::new(1 << 18));
        let seq_res = seq.run_static(&backlogs[k]);
        assert_eq!(seq_res.stop, StopReason::Drained, "lane={k}: run broken");
        assert_eq!(res, seq_res, "lane={k}: static result diverged");
        assert_journals_match("ecube9-static", k, lanes, tab.recorder(), seq.recorder());
        assert_eq!(tab.occupancy(), seq.occupancy(), "lane={k}");
    }
}
