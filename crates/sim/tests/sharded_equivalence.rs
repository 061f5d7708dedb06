//! Shard-equivalence suite: [`ShardedSimulator`] must be **bit-identical**
//! to the sequential [`Simulator`] — same statistics, same traces, same
//! counters and per-queue occupancy — for every routing family in the
//! table set, at every shard count, on both static and dynamic workloads.
//!
//! Shard counts 2 / 3 / 7 deliberately include values that don't divide
//! the node counts evenly (uneven ranges) and, for the 8-node networks,
//! a shard count close to the node count (near-maximal cross-shard
//! traffic).

use fadr_core::{
    EcubeSbp, HypercubeFullyAdaptive, HypercubeStaticHang, MeshFullyAdaptive, MeshKDFullyAdaptive,
    ShuffleExchangeRouting, TorusTwoPhase,
};
use fadr_qdg::RoutingFunction;
use fadr_sim::{FaultKind, FaultPlan, ShardedSimulator, SimConfig, Simulator, SinkSet, StopReason};
use fadr_workloads::{static_backlog, Pattern};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SHARD_COUNTS: [usize; 3] = [2, 3, 7];

/// A sink set holding a `CounterSink` (routing counters and per-queue
/// occupancy) for `rf`'s network.
fn counters<R: RoutingFunction>(rf: &R) -> SinkSet {
    SinkSet::new().with_counters(rf.topology().num_nodes(), rf.num_classes())
}

/// Static run on both engines with a `CounterSink` attached; assert the
/// result and the merged counters match bit for bit.
fn assert_static_equiv<R>(name: &str, rf: R)
where
    R: RoutingFunction + Clone + Send,
    R::Msg: Send,
{
    let cfg = SimConfig::default();
    let size = rf.topology().num_nodes();
    let mut rng = StdRng::seed_from_u64(0xE0);
    let backlog = static_backlog(&Pattern::Random, size, 2, &mut rng);

    let mut seq = Simulator::with_recorder(rf.clone(), cfg, counters(&rf));
    let seq_res = seq.run_static(&backlog);
    assert_eq!(seq_res.stop, StopReason::Drained, "{name}: seed run broken");
    let seq_counters = seq.into_recorder().counters;

    for shards in SHARD_COUNTS {
        let mut shr = ShardedSimulator::with_recorders(rf.clone(), cfg, shards, |_| counters(&rf));
        let shr_res = shr.run_static(&backlog);
        assert_eq!(seq_res, shr_res, "{name} shards={shards}: result diverged");
        assert_eq!(
            seq_counters,
            shr.into_recorder().counters,
            "{name} shards={shards}: counters diverged"
        );
    }
}

/// Dynamic run (Bernoulli injection, random destinations) on both
/// engines; assert results and merged counters match bit for bit.
fn assert_dynamic_equiv<R>(name: &str, rf: R)
where
    R: RoutingFunction + Clone + Send,
    R::Msg: Send,
{
    let cfg = SimConfig::default();
    let size = rf.topology().num_nodes();
    let lambda = 0.7;
    let cycles = 120;

    let mut seq = Simulator::with_recorder(rf.clone(), cfg, counters(&rf));
    let seq_res = seq.run_dynamic(lambda, |s, rng| Pattern::Random.draw(s, size, rng), cycles);
    assert!(seq_res.delivered > 0, "{name}: seed run delivered nothing");
    let seq_counters = seq.into_recorder().counters;

    for shards in SHARD_COUNTS {
        let mut shr = ShardedSimulator::with_recorders(rf.clone(), cfg, shards, |_| counters(&rf));
        let shr_res = shr.run_dynamic(lambda, |s, rng| Pattern::Random.draw(s, size, rng), cycles);
        assert_eq!(seq_res, shr_res, "{name} shards={shards}: result diverged");
        assert_eq!(
            seq_counters,
            shr.into_recorder().counters,
            "{name} shards={shards}: counters diverged"
        );
    }
}

// --- every routing family in the table set -------------------------------

#[test]
fn hypercube_fully_adaptive_static_and_dynamic() {
    assert_static_equiv("hc-adaptive", HypercubeFullyAdaptive::new(4));
    assert_dynamic_equiv("hc-adaptive", HypercubeFullyAdaptive::new(4));
}

#[test]
fn hypercube_static_hang_static_and_dynamic() {
    assert_static_equiv("hc-hang", HypercubeStaticHang::new(4));
    assert_dynamic_equiv("hc-hang", HypercubeStaticHang::new(4));
}

#[test]
fn hypercube_ecube_sbp_static_and_dynamic() {
    assert_static_equiv("hc-ecube", EcubeSbp::new(4));
    assert_dynamic_equiv("hc-ecube", EcubeSbp::new(4));
}

#[test]
fn mesh_fully_adaptive_static_and_dynamic() {
    assert_static_equiv("mesh", MeshFullyAdaptive::new(5, 5));
    assert_dynamic_equiv("mesh", MeshFullyAdaptive::new(5, 5));
}

#[test]
fn mesh_kd_static_and_dynamic() {
    assert_static_equiv("mesh-kd", MeshKDFullyAdaptive::new(&[3, 3, 3]));
    assert_dynamic_equiv("mesh-kd", MeshKDFullyAdaptive::new(&[3, 3, 3]));
}

#[test]
fn torus_two_phase_static_and_dynamic() {
    assert_static_equiv("torus", TorusTwoPhase::new(4, 4));
    assert_dynamic_equiv("torus", TorusTwoPhase::new(4, 4));
}

#[test]
fn shuffle_exchange_static_and_dynamic() {
    assert_static_equiv("shuffle", ShuffleExchangeRouting::new(4));
    assert_dynamic_equiv("shuffle", ShuffleExchangeRouting::new(4));
}

// --- recorder (counters + traces) equivalence ----------------------------

/// Per-shard counter and trace sinks, merged in shard order, must equal
/// the single sequential sink — including full trace *lines*, which pin
/// packet ids, per-hop channels, classes, and cycles. The wait-for-graph
/// probe, which the engine assembles from every shard's queues, must
/// match too.
#[test]
fn sinks_match_sequential_bit_for_bit() {
    let seq_sinks = assert_sinks_match(None, 0.8, 80, 48);
    let seq_graph = seq_sinks.waitgraph.as_ref().unwrap();
    assert!(
        seq_graph.max_chain_depth >= 2,
        "the run must block some chain: {seq_graph:?}"
    );

    // Faults are the only way one packet records two hops of one cycle
    // on two shards: a reroute on the sender's shard, then a link on the
    // receiver's. Flaky links with a retry limit of 1 reroute, a dead
    // link forces degraded routing, and a dead node drops packets (and
    // partitions the run). Every packet is traced. The flaky links leave
    // high-numbered nodes, so some rerouted packets cross the same cycle
    // into a lower-numbered shard, whose sink merges first: hops kept in
    // merge order would put that link before the reroute.
    let mut plan = FaultPlan::new(0x7ACE, 1);
    for (from, to) in [(15, 14), (11, 3)] {
        plan.push(
            0,
            FaultKind::FlakyLink {
                from,
                to,
                until: 120,
                threshold: 60,
            },
        );
    }
    plan.push(10, FaultKind::LinkDown { from: 3, to: 7 });
    plan.push(30, FaultKind::NodeDown { node: 9 });
    let seq_sinks = assert_sinks_match(Some(&plan), 0.9, 120, 1 << 16);
    let trace = seq_sinks.trace.as_ref().unwrap();
    assert_eq!(trace.skipped, 0, "the trace must cover every packet");
    let lines = trace.lines();
    assert!(
        lines.iter().any(|l| l.contains("\"dropped\": ")),
        "the plan must drop a traced packet"
    );
    let (reroutes, paired) = reroutes(&lines);
    assert!(reroutes >= 1, "the plan must reroute a traced packet");
    assert!(
        paired >= 1,
        "some reroute must share its cycle with the next hop ({reroutes} reroutes)"
    );
}

/// Count the trace's reroute hops, and those followed by another hop of
/// the same cycle.
fn reroutes(lines: &[&str]) -> (usize, usize) {
    let (mut all, mut paired) = (0, 0);
    for line in lines {
        let hops: Vec<(&str, &str)> = line
            .split("{\"c\": ")
            .skip(1)
            .map(|h| {
                let cycle = h.split(',').next().unwrap();
                let kind = h.split("\"kind\": \"").nth(1).unwrap();
                (cycle, kind.split('"').next().unwrap())
            })
            .collect();
        all += hops.iter().filter(|h| h.1 == "reroute").count();
        paired += hops
            .windows(2)
            .filter(|w| w[0].1 == "reroute" && w[0].0 == w[1].0)
            .count();
    }
    (all, paired)
}

/// Run hypercube(4) at rate `lambda` for `cycles` cycles under `plan` on
/// both engines, with counter, trace (`trace` packets) and wait-for-graph
/// sinks; assert that the result and the flushed sinks merged from every
/// shard count equal the sequential ones, and return those.
fn assert_sinks_match(plan: Option<&FaultPlan>, lambda: f64, cycles: u64, trace: usize) -> SinkSet {
    let rf = HypercubeFullyAdaptive::new(4);
    let cfg = SimConfig::default();
    let size = 16;
    let mk = || {
        SinkSet::new()
            .with_counters(size, 2)
            .with_trace(trace)
            .with_waitgraph()
    };

    let mut seq = Simulator::with_recorder(rf, cfg, mk());
    if let Some(plan) = plan {
        seq = seq.with_faults(plan.clone());
    }
    let seq_res = seq.run_dynamic(lambda, |s, rng| Pattern::Random.draw(s, size, rng), cycles);
    let mut seq_sinks = seq.into_recorder();
    seq_sinks.flush();

    for shards in SHARD_COUNTS {
        let mut shr = ShardedSimulator::with_recorders(rf, cfg, shards, |_| mk());
        if let Some(plan) = plan {
            shr = shr.with_faults(plan.clone());
        }
        let shr_res = shr.run_dynamic(lambda, |s, rng| Pattern::Random.draw(s, size, rng), cycles);
        assert_eq!(seq_res, shr_res, "shards={shards}");
        let mut shr_sinks = shr.into_recorder();
        shr_sinks.flush();
        assert_eq!(
            seq_sinks.counters, shr_sinks.counters,
            "shards={shards}: counters diverged"
        );
        let seq_trace = seq_sinks.trace.as_ref().unwrap();
        let shr_trace = shr_sinks.trace.as_ref().unwrap();
        assert_eq!(
            seq_trace.lines(),
            shr_trace.lines(),
            "shards={shards}: trace lines diverged"
        );
        assert_eq!(seq_trace.skipped, shr_trace.skipped, "shards={shards}");
        assert_eq!(
            seq_sinks.waitgraph, shr_sinks.waitgraph,
            "shards={shards}: wait-for graph diverged"
        );
    }
    seq_sinks
}

/// Same check on a static workload, where traces include queue events
/// from the backlog draining through a congested network.
#[test]
fn sinks_match_sequential_on_static_runs() {
    let rf = MeshFullyAdaptive::new(4, 4);
    let cfg = SimConfig::default();
    let size = 16;
    let classes = rf.num_classes();
    let mk = move || SinkSet::new().with_counters(size, classes).with_trace(32);
    let mut rng = StdRng::seed_from_u64(0xE5);
    let backlog = static_backlog(&Pattern::Random, size, 3, &mut rng);

    let mut seq = Simulator::with_recorder(rf, cfg, mk());
    let seq_res = seq.run_static(&backlog);
    let mut seq_sinks = seq.into_recorder();
    seq_sinks.flush();

    for shards in SHARD_COUNTS {
        let mut shr = ShardedSimulator::with_recorders(rf, cfg, shards, |_| mk());
        let shr_res = shr.run_static(&backlog);
        assert_eq!(seq_res, shr_res, "shards={shards}");
        let mut shr_sinks = shr.into_recorder();
        shr_sinks.flush();
        assert_eq!(seq_sinks.counters, shr_sinks.counters, "shards={shards}");
        assert_eq!(
            seq_sinks.trace.as_ref().unwrap().lines(),
            shr_sinks.trace.as_ref().unwrap().lines(),
            "shards={shards}: trace lines diverged"
        );
    }
}

// --- watchdog equivalence -------------------------------------------------

/// One watchdog, three witnesses: the engine watchdog on the sequential
/// engine and on every shard count must abort a wedged network at the
/// same cycle, with the same stall evidence, as the reference
/// [`fadr_sim::WatchdogSink`].
#[test]
fn sharded_watchdog_matches_sequential_stall_report() {
    let rf = HypercubeFullyAdaptive::new(3);
    // Capacity 0 wedges the network: packets can never leave their
    // injection buffers, so no delivery ever happens.
    let cfg = SimConfig {
        queue_capacity: 0,
        ..SimConfig::default()
    };
    let size = 8;
    let k = 25;

    let mut seq = Simulator::with_recorder(rf, cfg, SinkSet::new().with_watchdog(k));
    let seq_res = seq.run_dynamic(1.0, |s, rng| Pattern::Random.draw(s, size, rng), 200);
    assert_eq!(seq_res.stop, StopReason::Aborted);
    let seq_sinks = seq.into_recorder();
    let seq_stall = seq_sinks
        .stall()
        .expect("sequential watchdog fired")
        .clone();

    let mut eng = Simulator::new(rf, cfg).with_watchdog(k);
    let eng_res = eng.run_dynamic(1.0, |s, rng| Pattern::Random.draw(s, size, rng), 200);
    assert_eq!(eng_res, seq_res, "engine watchdog: result diverged");
    assert_eq!(
        eng.stall_report(),
        Some(&seq_stall),
        "engine watchdog: stall report diverged"
    );

    for shards in SHARD_COUNTS {
        let mut shr = ShardedSimulator::new(rf, cfg, shards).with_watchdog(k);
        let shr_res = shr.run_dynamic(1.0, |s, rng| Pattern::Random.draw(s, size, rng), 200);
        assert_eq!(shr_res.stop, StopReason::Aborted, "shards={shards}");
        assert_eq!(
            shr_res.cycles, seq_res.cycles,
            "shards={shards}: abort cycle diverged"
        );
        let shr_stall = shr.stall_report().expect("sharded watchdog fired");
        assert_eq!(
            &seq_stall, shr_stall,
            "shards={shards}: stall report diverged"
        );
    }
}

// --- workload sanity at shard boundaries ---------------------------------

/// A single-shard `ShardedSimulator` is exactly the sequential engine
/// (degenerate partition), and `shards > nodes` clamps.
#[test]
fn degenerate_shard_counts_work() {
    let rf = HypercubeFullyAdaptive::new(3);
    let cfg = SimConfig::default();
    let backlog: Vec<Vec<usize>> = (0..8).map(|v| vec![v ^ 7]).collect();
    let seq = Simulator::new(rf, cfg).run_static(&backlog);
    for shards in [1, 8, 100] {
        let res = ShardedSimulator::new(rf, cfg, shards).run_static(&backlog);
        assert_eq!(seq, res, "shards={shards}");
    }
}

/// Repeated runs on the same `ShardedSimulator` instance are
/// independent: `reset` clears all shard state. Recorders are not reset
/// between runs, so two identical runs count everything twice.
#[test]
fn sharded_runs_are_repeatable() {
    let rf = TorusTwoPhase::new(4, 4);
    let cfg = SimConfig::default();
    let mut rng = StdRng::seed_from_u64(0xE7);
    let backlog = static_backlog(&Pattern::Random, 16, 2, &mut rng);
    let mut once = ShardedSimulator::with_recorders(rf, cfg, 3, |_| counters(&rf));
    let first = once.run_static(&backlog);
    let mut twice = once.into_recorder().counters.expect("counters attached");
    twice.merge(&twice.clone());

    let mut sim = ShardedSimulator::with_recorders(rf, cfg, 3, |_| counters(&rf));
    assert_eq!(first, sim.run_static(&backlog));
    assert_eq!(first, sim.run_static(&backlog));
    assert_eq!(sim.into_recorder().counters, Some(twice));
}

// --- fallback scans -------------------------------------------------------

/// EcubeSbp(9) gives every node 81 output and 81 input buffers, past the
/// mask-iterated fill (64) and read (63) paths, so the core's plain fill
/// and read scans run on every shard here: results and merged journals
/// must still match the sequential engine.
#[test]
fn wide_nodes_take_the_fallback_scans() {
    let rf = EcubeSbp::new(9);
    let size = rf.topology().num_nodes();
    let cfg = SimConfig::default();
    let mk = || counters(&rf).with_journal(1 << 18);
    let assert_same = |what: &str, a: SinkSet, b: SinkSet| {
        assert_eq!(a.counters, b.counters, "{what}: counters diverged");
        let (a, b) = (a.journal.expect("journal"), b.journal.expect("journal"));
        assert_eq!(
            (a.count(), a.hash()),
            (b.count(), b.hash()),
            "{what}: journal diverged"
        );
        assert_eq!(a.lines(), b.lines(), "{what}: journal lines diverged");
    };

    let dest = |s, rng: &mut StdRng| Pattern::Random.draw(s, size, rng);
    let mut seq = Simulator::with_recorder(rf, cfg, mk());
    let seq_res = seq.run_dynamic(0.5, dest, 24);
    assert!(seq_res.delivered > 0, "seed run delivered nothing");
    let mut shr = ShardedSimulator::with_recorders(rf, cfg, 2, |_| mk());
    assert_eq!(
        seq_res,
        shr.run_dynamic(0.5, dest, 24),
        "dynamic result diverged"
    );
    assert_same("dynamic", seq.into_recorder(), shr.into_recorder());

    let mut rng = StdRng::seed_from_u64(0xE9);
    let backlog = static_backlog(&Pattern::Random, size, 1, &mut rng);
    let mut seq = Simulator::with_recorder(rf, cfg, mk());
    let seq_res = seq.run_static(&backlog);
    assert_eq!(seq_res.stop, StopReason::Drained, "seed run broken");
    let mut shr = ShardedSimulator::with_recorders(rf, cfg, 2, |_| mk());
    assert_eq!(seq_res, shr.run_static(&backlog), "static result diverged");
    assert_same("static", seq.into_recorder(), shr.into_recorder());
}
