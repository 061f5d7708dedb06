//! Shard-panic containment: a routing function that panics inside a
//! worker thread must surface as a structured [`ShardPanicked`] error
//! from the [`Engine`] entry points — every sibling worker is drained (the
//! poisoned phase barrier wakes them), the blamed shard is the one that
//! unwound *first*, and the caller's thread survives to run the next
//! case. This is what lets the fuzzer treat an engine panic as a
//! reportable counterexample instead of a harness abort.

use fadr_core::HypercubeFullyAdaptive;
use fadr_qdg::{BufferClass, QueueId, RoutingFunction, Transition};
use fadr_sim::{
    DynamicOutcome, DynamicResult, Engine, ShardPanicked, ShardedSimulator, SimConfig, Simulator,
    StaticOutcome, StaticResult,
};
use fadr_topology::{NodeId, Port, Topology};
use fadr_workloads::{static_backlog, Pattern};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A whole static run through the [`Engine`] error channel.
fn try_static<E: Engine>(e: &mut E, work: &[Vec<NodeId>]) -> Result<StaticResult, ShardPanicked> {
    match e.run_static_until(work, None)? {
        StaticOutcome::Finished(res) => Ok(res),
        StaticOutcome::Paused(_) => unreachable!("no pause requested"),
    }
}

/// A whole dynamic run through the [`Engine`] error channel.
fn try_dynamic<E: Engine>(
    e: &mut E,
    lambda: f64,
    dest: impl Fn(NodeId, &mut StdRng) -> NodeId + Sync,
    cycles: u64,
) -> Result<DynamicResult, ShardPanicked> {
    match e.run_dynamic_until(lambda, dest, cycles, None)? {
        DynamicOutcome::Finished(res) => Ok(res),
        DynamicOutcome::Paused(_) => unreachable!("no pause requested"),
    }
}

/// A scheme that panics the first time routing is evaluated at `victim`.
#[derive(Clone)]
struct PanicAt<R: RoutingFunction> {
    inner: R,
    victim: NodeId,
}

impl<R: RoutingFunction> RoutingFunction for PanicAt<R> {
    type Msg = R::Msg;

    fn topology(&self) -> &dyn Topology {
        self.inner.topology()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn initial_msg(&self, src: NodeId, dst: NodeId) -> Self::Msg {
        self.inner.initial_msg(src, dst)
    }

    fn destination(&self, msg: &Self::Msg) -> NodeId {
        self.inner.destination(msg)
    }

    fn deliverable(&self, node: NodeId, msg: &Self::Msg) -> bool {
        self.inner.deliverable(node, msg)
    }

    fn for_each_transition(
        &self,
        at: QueueId,
        msg: &Self::Msg,
        f: &mut dyn FnMut(Transition<Self::Msg>),
    ) {
        assert!(at.node != self.victim, "synthetic routing fault");
        self.inner.for_each_transition(at, msg, f);
    }

    fn buffer_classes(&self, node: NodeId, port: Port) -> Vec<BufferClass> {
        self.inner.buffer_classes(node, port)
    }

    fn is_minimal(&self) -> bool {
        self.inner.is_minimal()
    }

    fn max_hops(&self) -> usize {
        self.inner.max_hops()
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

fn backlog(size: usize) -> Vec<Vec<NodeId>> {
    let mut rng = StdRng::seed_from_u64(0x5A1C);
    static_backlog(&Pattern::Random, size, 2, &mut rng)
}

/// The blamed shard is the victim's owner, the payload is the original
/// panic message (not the sibling-barrier echo), and the calling thread
/// survives to run a healthy case afterwards.
#[test]
fn worker_panic_is_contained_and_attributed() {
    let rf = HypercubeFullyAdaptive::new(4);
    let size = rf.topology().num_nodes();
    let work = backlog(size);
    for shards in [2, 3] {
        for victim in [0usize, 9, 15] {
            let rf = PanicAt { inner: rf, victim };
            let mut shr = ShardedSimulator::new(rf, SimConfig::default(), shards);
            let err = try_static(&mut shr, &work).expect_err("victimized run must fail");
            assert!(err.shard < shards, "shard index out of range: {err:?}");
            assert!(
                err.payload.contains("synthetic routing fault"),
                "blamed a sibling echo instead of the original panic: {err:?}"
            );
            assert!(
                err.to_string().contains("worker panicked"),
                "display form lost the panic framing: {err}"
            );
        }
    }
    // The process is intact: a fresh healthy run on the same thread
    // still drains.
    let mut ok = ShardedSimulator::new(rf, SimConfig::default(), 3);
    let res = try_static(&mut ok, &work).expect("healthy run");
    assert!(res.drained);
}

/// Dynamic runs surface the same structured error.
#[test]
fn dynamic_worker_panic_is_contained() {
    let rf = PanicAt {
        inner: HypercubeFullyAdaptive::new(3),
        victim: 5,
    };
    let size = rf.topology().num_nodes();
    let mut shr = ShardedSimulator::new(rf, SimConfig::default(), 2);
    let err = try_dynamic(
        &mut shr,
        0.9,
        |s, rng| Pattern::Random.draw(s, size, rng),
        50,
    )
    .expect_err("victimized run must fail");
    assert!(err.payload.contains("synthetic routing fault"), "{err:?}");
}

/// The panicking inherent entry point keeps its panic semantics but
/// now panics with the structured, shard-attributed message.
#[test]
fn plain_run_panics_with_structured_message() {
    let rf = PanicAt {
        inner: HypercubeFullyAdaptive::new(3),
        victim: 2,
    };
    let work = backlog(rf.topology().num_nodes());
    let caught = std::panic::catch_unwind(move || {
        let mut shr = ShardedSimulator::new(rf, SimConfig::default(), 2);
        shr.run_static(&work);
    })
    .expect_err("run_static must still panic");
    let msg = caught
        .downcast_ref::<String>()
        .cloned()
        .expect("panic payload is the formatted ShardPanicked");
    assert!(msg.contains("worker panicked"), "{msg}");
    assert!(msg.contains("synthetic routing fault"), "{msg}");
}

/// `ShardPanicked` is a value: comparable, cloneable, printable — what a
/// fuzzer needs to fold it into a case verdict.
#[test]
fn shard_panicked_is_a_plain_value() {
    let e = ShardPanicked {
        shard: 3,
        payload: "boom".into(),
    };
    assert_eq!(e.clone(), e);
    assert_eq!(e.to_string(), "shard 3 worker panicked: boom");
    let _: &dyn std::error::Error = &e;
}

/// Sanity: the wrapper is transparent when no node is victimized (the
/// victim id is outside the network), so the containment tests above
/// are exercising the panic path and nothing else.
#[test]
fn wrapper_without_victim_is_transparent() {
    let inner = HypercubeFullyAdaptive::new(3);
    let rf = PanicAt {
        inner,
        victim: 0xFFFF,
    };
    let work = backlog(8);
    let mut seq = Simulator::new(inner, SimConfig::default());
    let mut shr = ShardedSimulator::new(rf, SimConfig::default(), 2);
    let a = seq.run_static(&work);
    let b = try_static(&mut shr, &work).expect("transparent run");
    assert_eq!(a, b);
}
