//! Differential fault-injection suite: under any seeded [`FaultPlan`],
//! the [`ShardedSimulator`] must stay **bit-identical** to the
//! sequential [`Simulator`] — same results, same drop/lost accounting,
//! same partitioned-destination sets — and whenever the surviving
//! network remains strongly connected, degraded routing must still
//! drain every static backlog with zero deadlock reports (the § 2
//! conditions hold on the surviving sub-network).
//!
//! The sweep is a hand-rolled seeded property harness: 256 cases of
//! (routing family × random backlog/traffic × random fault plan), each
//! derived from a fixed master seed so failures replay exactly. Each
//! case also runs sequentially with the scheme wrapped as non-minimal
//! ([`RowPath`]), which sends every degraded option set through the
//! distance rows: it must match the intact-destination fast path.

use fadr_core::{HypercubeFullyAdaptive, MeshFullyAdaptive, MeshKDFullyAdaptive, TorusTwoPhase};
use fadr_qdg::{BufferClass, QueueId, RoutingFunction, Transition};
use fadr_sim::{FaultKind, FaultPlan, ShardedSimulator, SimConfig, Simulator, SinkSet, StopReason};
use fadr_topology::{NodeId, Port, Topology};
use fadr_workloads::{static_backlog, Pattern};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const MASTER_SEED: u64 = 0xFA01_7EE7;
const CASES: u64 = 256;
const SHARD_COUNTS: [usize; 2] = [2, 3];

/// A scheme that disclaims minimality and is otherwise `R`: degraded
/// routing then filters every option set by the surviving distance rows,
/// never by the intact-destination set.
#[derive(Clone)]
struct RowPath<R>(R);

impl<R: RoutingFunction> RoutingFunction for RowPath<R> {
    type Msg = R::Msg;

    fn topology(&self) -> &dyn Topology {
        self.0.topology()
    }

    fn num_classes(&self) -> usize {
        self.0.num_classes()
    }

    fn initial_msg(&self, src: NodeId, dst: NodeId) -> R::Msg {
        self.0.initial_msg(src, dst)
    }

    fn destination(&self, msg: &R::Msg) -> NodeId {
        self.0.destination(msg)
    }

    fn deliverable(&self, node: NodeId, msg: &R::Msg) -> bool {
        self.0.deliverable(node, msg)
    }

    fn for_each_transition(
        &self,
        at: QueueId,
        msg: &R::Msg,
        f: &mut dyn FnMut(Transition<R::Msg>),
    ) {
        self.0.for_each_transition(at, msg, f);
    }

    fn buffer_classes(&self, node: NodeId, port: Port) -> Vec<BufferClass> {
        self.0.buffer_classes(node, port)
    }

    fn is_minimal(&self) -> bool {
        false
    }

    fn max_hops(&self) -> usize {
        self.0.max_hops()
    }

    fn name(&self) -> String {
        self.0.name()
    }

    fn state_key(&self, node: NodeId, class: u8, msg: &R::Msg) -> Option<u64> {
        self.0.state_key(node, class, msg)
    }

    fn transitions(&self, at: QueueId, msg: &R::Msg) -> Vec<Transition<R::Msg>> {
        self.0.transitions(at, msg)
    }
}

/// All directed channels of `rf`'s topology as `(from, to)` pairs.
fn links<R: RoutingFunction>(rf: &R) -> Vec<(u32, u32)> {
    let topo = rf.topology();
    let mut out = Vec::new();
    for v in 0..topo.num_nodes() {
        for p in 0..topo.max_ports() {
            if let Some(w) = topo.neighbor(v, p) {
                out.push((v as u32, w as u32));
            }
        }
    }
    out
}

/// Draw a random fault plan: up to 5 events mixing permanent link/node
/// kills, finite queue freezes, and finite flaky windows, all scheduled
/// inside the first 30 routing cycles so every run exercises them.
fn random_plan(rng: &mut StdRng, size: usize, classes: usize, links: &[(u32, u32)]) -> FaultPlan {
    let mut plan = FaultPlan::new(rng.next_u64(), rng.gen_range(0..4u32));
    for _ in 0..rng.gen_range(0..=5usize) {
        let cycle = rng.gen_range(0..30u64);
        let (from, to) = links[rng.gen_range(0..links.len())];
        let kind = match rng.gen_range(0..10u8) {
            0..=3 => FaultKind::LinkDown { from, to },
            4 => FaultKind::NodeDown {
                node: rng.gen_range(0..size as u32),
            },
            5 | 6 => FaultKind::QueueFreeze {
                node: rng.gen_range(0..size as u32),
                class: rng.gen_range(0..classes as u8),
                duration: rng.gen_range(2..20u64),
            },
            _ => FaultKind::FlakyLink {
                from,
                to,
                until: cycle + rng.gen_range(5..40u64),
                threshold: rng.gen_range(10..=95u8),
            },
        };
        plan.push(cycle, kind);
    }
    plan
}

/// Whether the network survives `plan` fully intact as a graph: no node
/// dies and the digraph minus the permanently dead links stays strongly
/// connected. (Queue freezes and flaky windows are finite, so they
/// never affect this.) When true, degraded routing must drain every
/// static backlog — any other outcome is a deadlock/livelock bug.
fn survives_connected<R: RoutingFunction>(rf: &R, plan: &FaultPlan) -> bool {
    let size = rf.topology().num_nodes();
    if plan.final_dead_nodes(size).iter().any(|&d| d) {
        return false;
    }
    let dead = plan.final_dead_links();
    let mut fwd = vec![Vec::new(); size];
    let mut rev = vec![Vec::new(); size];
    for (f, t) in links(rf) {
        if !dead.contains(&(f, t)) {
            fwd[f as usize].push(t as usize);
            rev[t as usize].push(f as usize);
        }
    }
    let reaches_all = |adj: &[Vec<usize>]| {
        let mut seen = vec![false; size];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(v) = stack.pop() {
            for &w in &adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        seen.iter().all(|&s| s)
    };
    reaches_all(&fwd) && reaches_all(&rev)
}

/// One differential case: run the same faulted workload on the
/// sequential engine and on the sharded engine at every shard count,
/// and assert bit-identical results. Even case ids run a static
/// backlog, odd ids a dynamic (Bernoulli) workload.
fn run_case<R>(name: &str, rf: R, case: u64)
where
    R: RoutingFunction + Clone + Send,
    R::Msg: Send,
{
    let mut rng = StdRng::seed_from_u64(MASTER_SEED ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let size = rf.topology().num_nodes();
    let all_links = links(&rf);
    let plan = random_plan(&mut rng, size, rf.num_classes(), &all_links);
    let cfg = SimConfig {
        queue_capacity: 64,
        seed: MASTER_SEED.wrapping_add(case),
        max_cycles: 50_000,
        ..SimConfig::default()
    };

    if case.is_multiple_of(2) {
        let per_node = rng.gen_range(1..=2usize);
        let backlog = static_backlog(&Pattern::Random, size, per_node, &mut rng);

        let mut seq = Simulator::new(rf.clone(), cfg).with_faults(plan.clone());
        let seq_res = seq.run_static(&backlog);
        let seq_part = seq.partitioned_destinations();
        let mut rows = Simulator::new(RowPath(rf.clone()), cfg).with_faults(plan.clone());
        assert_eq!(
            seq_res,
            rows.run_static(&backlog),
            "{name} case {case}: static result diverged from the row path\nplan: {plan:?}"
        );
        assert_eq!(
            seq_part,
            rows.partitioned_destinations(),
            "{name} case {case}: partition set diverged from the row path\nplan: {plan:?}"
        );
        assert_ne!(
            seq_res.stop,
            StopReason::MaxCycles,
            "{name} case {case}: sequential static run hit the cycle cap (hang)"
        );
        if survives_connected(&rf, &plan) {
            assert_eq!(
                seq_res.stop,
                StopReason::Drained,
                "{name} case {case}: connected faulted network failed to drain"
            );
            assert!(
                seq_part.is_empty() && seq_res.dropped == 0 && seq_res.lost == 0,
                "{name} case {case}: connected network reported partition/drops"
            );
        }
        for shards in SHARD_COUNTS {
            let mut shr = ShardedSimulator::new(rf.clone(), cfg, shards).with_faults(plan.clone());
            let shr_res = shr.run_static(&backlog);
            assert_eq!(
                seq_res, shr_res,
                "{name} case {case} shards={shards}: static result diverged\nplan: {plan:?}"
            );
            assert_eq!(
                seq_part,
                shr.partitioned_destinations(),
                "{name} case {case} shards={shards}: partition set diverged\nplan: {plan:?}"
            );
        }
    } else {
        let lambda = 0.5;
        let cycles = 80;
        let mut seq = Simulator::new(rf.clone(), cfg).with_faults(plan.clone());
        let seq_res = seq.run_dynamic(lambda, |s, rng| Pattern::Random.draw(s, size, rng), cycles);
        let seq_part = seq.partitioned_destinations();
        let mut rows = Simulator::new(RowPath(rf.clone()), cfg).with_faults(plan.clone());
        assert_eq!(
            seq_res,
            rows.run_dynamic(lambda, |s, rng| Pattern::Random.draw(s, size, rng), cycles),
            "{name} case {case}: dynamic result diverged from the row path\nplan: {plan:?}"
        );
        assert_eq!(
            seq_part,
            rows.partitioned_destinations(),
            "{name} case {case}: partition set diverged from the row path\nplan: {plan:?}"
        );
        if survives_connected(&rf, &plan) {
            assert_eq!(
                seq_res.stop,
                StopReason::HorizonReached,
                "{name} case {case}: connected dynamic run aborted"
            );
            assert!(
                seq_part.is_empty() && seq_res.dropped == 0,
                "{name} case {case}"
            );
        }
        for shards in SHARD_COUNTS {
            let mut shr = ShardedSimulator::new(rf.clone(), cfg, shards).with_faults(plan.clone());
            let shr_res =
                shr.run_dynamic(lambda, |s, rng| Pattern::Random.draw(s, size, rng), cycles);
            assert_eq!(
                seq_res, shr_res,
                "{name} case {case} shards={shards}: dynamic result diverged\nplan: {plan:?}"
            );
            assert_eq!(
                seq_part,
                shr.partitioned_destinations(),
                "{name} case {case} shards={shards}: partition set diverged\nplan: {plan:?}"
            );
        }
    }
}

fn run_family(case: u64) {
    match case % 4 {
        0 => run_case("hc3", HypercubeFullyAdaptive::new(3), case),
        1 => run_case("mesh4x4", MeshFullyAdaptive::new(4, 4), case),
        2 => run_case("torus4x4", TorusTwoPhase::new(4, 4), case),
        _ => run_case("mesh-kd", MeshKDFullyAdaptive::new(&[2, 3, 2]), case),
    }
}

// The 256-case sweep, split in four so `cargo test` can run the chunks
// on separate test threads.

#[test]
fn differential_sweep_chunk_0() {
    for case in 0..CASES / 4 {
        run_family(case);
    }
}

#[test]
fn differential_sweep_chunk_1() {
    for case in CASES / 4..CASES / 2 {
        run_family(case);
    }
}

#[test]
fn differential_sweep_chunk_2() {
    for case in CASES / 2..3 * CASES / 4 {
        run_family(case);
    }
}

#[test]
fn differential_sweep_chunk_3() {
    for case in 3 * CASES / 4..CASES {
        run_family(case);
    }
}

// --- directed scenarios ---------------------------------------------------

/// Killing every channel into one node makes it an unreachable
/// destination: both engines must end with `StopReason::Partitioned`
/// promptly (not spin to the cycle cap), agree on the partitioned set,
/// and the watchdog must classify the abort as `"partitioned"`.
#[test]
fn destination_partition_reports_not_hangs() {
    let rf = HypercubeFullyAdaptive::new(3);
    let size = 8usize;
    let victim = 7u32;
    let mut plan = FaultPlan::new(1, 0);
    for (f, t) in links(&rf) {
        if t == victim {
            plan.push(2, FaultKind::LinkDown { from: f, to: t });
        }
    }
    // Every other node offers one packet addressed to the victim.
    let backlog: Vec<Vec<usize>> = (0..size)
        .map(|v| {
            if v as u32 == victim {
                vec![]
            } else {
                vec![victim as usize]
            }
        })
        .collect();
    let cfg = SimConfig::default();

    let mut seq = Simulator::with_recorder(rf, cfg, SinkSet::new().with_watchdog(64))
        .with_faults(plan.clone());
    let seq_res = seq.run_static(&backlog);
    assert_eq!(seq_res.stop, StopReason::Partitioned);
    assert!(!seq_res.drained);
    assert!(
        seq_res.cycles < 1_000,
        "partition abort should be prompt, ran {} cycles",
        seq_res.cycles
    );
    assert_eq!(seq.partitioned_destinations(), vec![victim]);
    let rec = seq.into_recorder();
    let stall = rec.stall().expect("watchdog must report the partition");
    assert_eq!(stall.verdict(), "partitioned");
    assert_eq!(stall.partitioned, vec![victim]);

    for shards in SHARD_COUNTS {
        let mut shr = ShardedSimulator::new(rf, cfg, shards)
            .with_faults(plan.clone())
            .with_watchdog(64);
        let shr_res = shr.run_static(&backlog);
        assert_eq!(seq_res, shr_res, "shards={shards}");
        assert_eq!(
            shr.partitioned_destinations(),
            vec![victim],
            "shards={shards}"
        );
        let stall = shr
            .stall_report()
            .expect("sharded watchdog must report the partition");
        assert_eq!(stall.verdict(), "partitioned", "shards={shards}");
    }
}

/// A mesh that loses one directed link, freezes a queue, and suffers a
/// flaky window — but stays strongly connected — must drain a full
/// random backlog with no watchdog report at all: degraded routing
/// preserves the § 2 conditions on the surviving sub-network.
#[test]
fn connected_degraded_network_drains_clean() {
    let rf = MeshFullyAdaptive::new(4, 4);
    let size = 16usize;
    let all_links = links(&rf);
    assert!(all_links.contains(&(5, 6)) && all_links.contains(&(10, 9)));
    let mut plan = FaultPlan::new(7, 2);
    plan.push(1, FaultKind::LinkDown { from: 5, to: 6 });
    plan.push(
        3,
        FaultKind::QueueFreeze {
            node: 9,
            class: 0,
            duration: 12,
        },
    );
    plan.push(
        0,
        FaultKind::FlakyLink {
            from: 10,
            to: 9,
            until: 25,
            threshold: 60,
        },
    );
    assert!(
        survives_connected(&rf, &plan),
        "scenario must stay connected"
    );

    let mut rng = StdRng::seed_from_u64(0xD1A6);
    let backlog = static_backlog(&Pattern::Random, size, 2, &mut rng);
    let cfg = SimConfig::default();

    let mut seq = Simulator::with_recorder(rf, cfg, SinkSet::new().with_watchdog(2_000))
        .with_faults(plan.clone());
    let seq_res = seq.run_static(&backlog);
    assert_eq!(seq_res.stop, StopReason::Drained);
    assert_eq!((seq_res.dropped, seq_res.lost), (0, 0));
    assert!(seq.partitioned_destinations().is_empty());
    let rec = seq.into_recorder();
    assert!(
        rec.stall().is_none(),
        "no deadlock report on a connected network"
    );

    for shards in SHARD_COUNTS {
        let mut shr = ShardedSimulator::new(rf, cfg, shards).with_faults(plan.clone());
        let shr_res = shr.run_static(&backlog);
        assert_eq!(seq_res, shr_res, "shards={shards}");
    }
}

/// A node that dies with backlog still to inject: the un-injected
/// packets are `lost`, in-flight packets at the node are `dropped`, and
/// both engines account for every packet identically.
#[test]
fn node_down_accounts_for_every_packet() {
    let rf = MeshFullyAdaptive::new(4, 4);
    let size = 16usize;
    let victim = 5u32;
    let mut plan = FaultPlan::new(3, 0);
    plan.push(4, FaultKind::NodeDown { node: victim });

    // The victim has a deep backlog it will not live to inject; nobody
    // sends *to* the victim, so the only unreachable destination work
    // is whatever was in flight at death.
    let mut rng = StdRng::seed_from_u64(0xACC7);
    let mut backlog = static_backlog(&Pattern::Random, size, 1, &mut rng);
    for (src, dsts) in backlog.iter_mut().enumerate() {
        dsts.retain(|&d| d != victim as usize);
        if src == victim as usize {
            *dsts = vec![0, 1, 2, 3, 8, 9, 10, 11];
        }
    }
    let total: u64 = backlog.iter().map(|d| d.len() as u64).sum();
    let cfg = SimConfig::default();

    let mut seq = Simulator::new(rf, cfg).with_faults(plan.clone());
    let seq_res = seq.run_static(&backlog);
    assert_eq!(
        seq_res.stop,
        StopReason::Drained,
        "surviving mesh must drain"
    );
    assert!(
        seq_res.lost > 0,
        "victim's backlog must be written off as lost"
    );
    assert_eq!(
        seq_res.delivered + seq_res.dropped + seq_res.lost,
        total,
        "every offered packet must be accounted for"
    );

    for shards in SHARD_COUNTS {
        let mut shr = ShardedSimulator::new(rf, cfg, shards).with_faults(plan.clone());
        let shr_res = shr.run_static(&backlog);
        assert_eq!(seq_res, shr_res, "shards={shards}");
    }
}
