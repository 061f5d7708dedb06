//! Model checking of routing functions on concrete network instances.
//!
//! These checks mechanize the paper's § 2 requirements plus the properties
//! its theorems claim (minimality, full adaptivity, bounded path length).
//! They enumerate every `(src, dst)` pair and every reachable
//! `(queue, message-state)` configuration, so they are meant for *small*
//! instances (hypercubes up to n ≈ 5, meshes up to ≈ 6×6); the point is
//! that the very same [`RoutingFunction`] implementation is then scaled up
//! by the simulator.

use std::collections::HashMap;

use fadr_topology::graph as tgraph;

use crate::explore::{build_qdg, explore_pair, StateGraph};
use crate::graph::Digraph;
use crate::{HopKind, LinkKind, QueueId, QueueKind, RoutingFunction, Transition};

/// A failed check, with a human-readable location plus the structured
/// queue ids involved (a cycle in order, or the queue a state is stuck
/// at) so tools — e.g. `fadr-verify`'s counterexample extractor — can
/// consume the location without parsing the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the failed check.
    pub check: &'static str,
    /// What went wrong and where.
    pub detail: String,
    /// The queues implicated: the full cycle (in order) for cycle
    /// violations, the state's queue (and hop target, where relevant)
    /// otherwise. Empty when no specific queue is implicated.
    pub queues: Vec<QueueId>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

impl std::error::Error for Violation {}

fn fail(check: &'static str, detail: String) -> Result<(), Violation> {
    Err(Violation {
        check,
        detail,
        queues: Vec::new(),
    })
}

fn fail_at(check: &'static str, detail: String, queues: Vec<QueueId>) -> Result<(), Violation> {
    Err(Violation {
        check,
        detail,
        queues,
    })
}

/// Structural sanity of the routing function (the paper's "one hop away"
/// requirement and the constraints on injection/delivery queues):
///
/// * internal hops stay on the same node; link hops follow an existing port
///   to exactly the neighbor;
/// * no transition targets an injection queue; transitions from the
///   injection queue are internal and static;
/// * central classes are `< num_classes()`; every link hop's buffer class
///   is declared by [`RoutingFunction::buffer_classes`];
/// * link hops only target central queues (delivery is reached by an
///   internal hop at the destination), and [`RoutingFunction::deliverable`]
///   agrees with the transition relation.
pub fn verify_structure<R: RoutingFunction + ?Sized>(rf: &R) -> Result<(), Violation> {
    let topo = rf.topology();
    let n = topo.num_nodes();
    // Cast audit: the identity classifier (`QueueClass::concrete`)
    // encodes node ids as `u32` levels. A (lazy) topology claiming more
    // nodes than fit is a typed rejection here, not a cast panic in the
    // certifier's classification pass.
    if u32::try_from(n).is_err() {
        return fail(
            "structure",
            format!("num_nodes = {n} exceeds the u32 node-id space of the class encoding"),
        );
    }
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            let sg = explore_pair(rf, src, dst);
            for (i, (q, msg)) in sg.states.iter().enumerate() {
                if q.kind == QueueKind::Deliver {
                    continue;
                }
                let ts = &sg.transitions[i];
                if q.kind == QueueKind::Inject {
                    for t in ts {
                        if t.hop != HopKind::Internal || t.kind != LinkKind::Static {
                            return fail(
                                "structure",
                                format!("{q}: injection hop must be internal+static, got {t:?}"),
                            );
                        }
                    }
                }
                let here_deliverable = rf.deliverable(q.node, msg);
                let has_deliver_hop = ts.iter().any(|t| t.to.kind == QueueKind::Deliver);
                if q.kind != QueueKind::Inject && here_deliverable != has_deliver_hop {
                    return fail(
                        "structure",
                        format!("{q}: deliverable()={here_deliverable} but deliver-hop={has_deliver_hop} for {msg:?}"),
                    );
                }
                if here_deliverable && q.kind != QueueKind::Inject && ts.len() != 1 {
                    return fail(
                        "structure",
                        format!(
                            "{q}: deliverable state must have exactly the delivery hop, got {ts:?}"
                        ),
                    );
                }
                for t in ts {
                    check_transition(rf, q.node, t)?;
                }
            }
        }
    }
    Ok(())
}

fn check_transition<R: RoutingFunction + ?Sized>(
    rf: &R,
    node: usize,
    t: &Transition<R::Msg>,
) -> Result<(), Violation> {
    let topo = rf.topology();
    if t.to.kind == QueueKind::Inject {
        return fail(
            "structure",
            format!("transition into injection queue {}", t.to),
        );
    }
    if let QueueKind::Central(c) = t.to.kind {
        if usize::from(c) >= rf.num_classes() {
            return fail("structure", format!("class {c} out of range at {}", t.to));
        }
    }
    match t.hop {
        HopKind::Internal => {
            if t.to.node != node {
                return fail(
                    "structure",
                    format!("internal hop changes node {node} -> {}", t.to.node),
                );
            }
        }
        HopKind::Link(p) => {
            match topo.neighbor(node, p) {
                Some(v) if v == t.to.node => {}
                other => {
                    return fail(
                        "structure",
                        format!(
                            "link hop {node} --{p}--> {} but neighbor is {other:?}",
                            t.to.node
                        ),
                    )
                }
            }
            let class = match (t.kind, t.to.kind) {
                (LinkKind::Static, QueueKind::Central(c)) => crate::BufferClass::Static(c),
                (LinkKind::Dynamic, QueueKind::Central(_)) => crate::BufferClass::Dynamic,
                _ => {
                    return fail(
                        "structure",
                        format!("link hop must target a central queue, got {}", t.to),
                    )
                }
            };
            if !rf.buffer_classes(node, p).contains(&class) {
                return fail(
                    "structure",
                    format!("buffer class {class:?} not declared on {node} --{p}-->"),
                );
            }
        }
    }
    Ok(())
}

/// Deadlock freedom, following the paper's § 2 argument:
///
/// 1. the static-link QDG (over all `(src, dst)` routes) is acyclic;
/// 2. every reachable non-delivered state has at least one transition and
///    at least one *static* transition (so a message that took a dynamic
///    link "will still have the possibility of taking a static link" —
///    condition 3);
/// 3. per pair, the static-only state graph is acyclic and every maximal
///    static path ends in the correct delivery queue `d_dst` (no dead
///    ends, guaranteed progress through the underlying DAG).
pub fn verify_deadlock_free<R: RoutingFunction + ?Sized>(rf: &R) -> Result<(), Violation> {
    let qdg = build_qdg(rf);
    if let Some(cycle) = qdg.static_cycle() {
        let pretty: Vec<String> = cycle.iter().map(ToString::to_string).collect();
        return fail_at(
            "deadlock-free",
            format!("static QDG has a cycle: {}", pretty.join(" -> ")),
            cycle,
        );
    }
    let topo = rf.topology();
    let n = topo.num_nodes();
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            let sg = explore_pair(rf, src, dst);
            check_static_progress(&sg, dst)?;
        }
    }
    Ok(())
}

fn check_static_progress<M: Clone + std::fmt::Debug>(
    sg: &StateGraph<M>,
    dst: usize,
) -> Result<(), Violation> {
    // Static-only successor graph over state indices.
    let mut static_graph = Digraph::new(sg.states.len());
    for (i, ts) in sg.transitions.iter().enumerate() {
        if sg.is_delivered(i) {
            continue;
        }
        if ts.is_empty() {
            return fail_at(
                "deadlock-free",
                format!(
                    "dead end: no transitions at {} for {:?}",
                    sg.states[i].0, sg.states[i].1
                ),
                vec![sg.states[i].0],
            );
        }
        let mut has_static = false;
        for (t, &j) in ts.iter().zip(&sg.succ[i]) {
            if t.kind == LinkKind::Static {
                has_static = true;
                static_graph.add_edge(i, j);
            }
        }
        if !has_static {
            return fail_at(
                "deadlock-free",
                format!(
                    "condition 3 violated: no static continuation at {} for {:?}",
                    sg.states[i].0, sg.states[i].1
                ),
                vec![sg.states[i].0],
            );
        }
    }
    if let Some(cycle) = static_graph.find_cycle() {
        return fail_at(
            "deadlock-free",
            format!(
                "static state cycle through {} (src={}, dst={})",
                sg.states[cycle[0]].0, sg.src, sg.dst
            ),
            cycle.iter().map(|&i| sg.states[i].0).collect(),
        );
    }
    // Acyclic + every non-delivered state has a static successor ⇒ every
    // maximal static path ends at a delivered state; verify it is d_dst.
    for (i, (q, msg)) in sg.states.iter().enumerate() {
        if sg.is_delivered(i) && q.node != dst {
            return fail_at(
                "deadlock-free",
                format!(
                    "delivered at wrong node: {} instead of {dst} ({msg:?})",
                    q.node
                ),
                vec![*q],
            );
        }
    }
    Ok(())
}

/// Minimality: every link hop of every reachable state strictly decreases
/// the network distance to the destination (so all routes have exactly
/// `distance(src, dst)` link hops).
pub fn verify_minimal<R: RoutingFunction + ?Sized>(rf: &R) -> Result<(), Violation> {
    let topo = rf.topology();
    let n = topo.num_nodes();
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            let sg = explore_pair(rf, src, dst);
            for (i, (q, msg)) in sg.states.iter().enumerate() {
                if sg.is_delivered(i) {
                    continue;
                }
                for t in &sg.transitions[i] {
                    if matches!(t.hop, HopKind::Link(_))
                        && topo.distance(t.to.node, dst) + 1 != topo.distance(q.node, dst)
                    {
                        return fail_at(
                            "minimal",
                            format!(
                                "non-minimal hop {} -> {} toward {dst} (msg {msg:?})",
                                q.node, t.to.node
                            ),
                            vec![*q, t.to],
                        );
                    }
                }
            }
        }
    }
    Ok(())
}

/// Full adaptivity: for every `(src, dst)`, *every* shortest node path of
/// the topology is realizable by some sequence of transitions ("all
/// possible minimal paths … are of potential use at the time a message is
/// injected"). Exponential in path count; small instances only.
pub fn verify_fully_adaptive<R: RoutingFunction + ?Sized>(rf: &R) -> Result<(), Violation> {
    let topo = rf.topology();
    let n = topo.num_nodes();
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            let sg = explore_pair(rf, src, dst);
            // For each state, the node path is determined by the hops taken;
            // collect all realizable node paths that end delivered.
            let mut realizable: Vec<Vec<usize>> = Vec::new();
            let mut stack: Vec<(usize, Vec<usize>)> = vec![(0, vec![src])];
            while let Some((i, path)) = stack.pop() {
                if sg.is_delivered(i) {
                    realizable.push(path);
                    continue;
                }
                for (t, &j) in sg.transitions[i].iter().zip(&sg.succ[i]) {
                    let mut p = path.clone();
                    if matches!(t.hop, HopKind::Link(_)) {
                        p.push(t.to.node);
                    }
                    stack.push((j, p));
                }
            }
            for want in tgraph::all_shortest_paths(topo, src, dst) {
                if !realizable.contains(&want) {
                    return fail(
                        "fully-adaptive",
                        format!("shortest path {want:?} not realizable (src={src}, dst={dst})"),
                    );
                }
            }
        }
    }
    Ok(())
}

/// Livelock freedom / bounded paths: the *full* (static + dynamic) state
/// graph of every pair is acyclic and no route exceeds
/// [`RoutingFunction::max_hops`] link hops.
pub fn verify_bounded_paths<R: RoutingFunction + ?Sized>(rf: &R) -> Result<(), Violation> {
    let topo = rf.topology();
    let n = topo.num_nodes();
    let bound = rf.max_hops();
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            let sg = explore_pair(rf, src, dst);
            let mut full = Digraph::new(sg.states.len());
            for (i, row) in sg.succ.iter().enumerate() {
                for &j in row {
                    full.add_edge(i, j);
                }
            }
            let Some(order) = full.topological_order() else {
                return fail(
                    "bounded-paths",
                    format!("state cycle (possible livelock) for src={src}, dst={dst}"),
                );
            };
            // Longest link-hop count from the injection state.
            let mut hops: HashMap<usize, usize> = HashMap::new();
            hops.insert(0, 0);
            for &i in &order {
                let Some(&h) = hops.get(&i) else { continue };
                for (t, &j) in sg.transitions[i].iter().zip(&sg.succ[i]) {
                    let extra = usize::from(matches!(t.hop, HopKind::Link(_)));
                    let e = hops.entry(j).or_insert(0);
                    *e = (*e).max(h + extra);
                }
            }
            if let Some((&i, &h)) = hops.iter().find(|&(_, &h)| h > bound) {
                return fail_at(
                    "bounded-paths",
                    format!(
                        "route of {h} hops exceeds bound {bound} at {} (src={src}, dst={dst})",
                        sg.states[i].0
                    ),
                    vec![sg.states[i].0],
                );
            }
        }
    }
    Ok(())
}

/// Summary of a full verification run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Algorithm name.
    pub algorithm: String,
    /// Topology name.
    pub topology: String,
    /// Number of queues in the QDG.
    pub num_queues: usize,
    /// Static edges in the QDG.
    pub static_edges: usize,
    /// Dynamic edges in the QDG.
    pub dynamic_edges: usize,
    /// Whether minimality was checked (only if the algorithm claims it).
    pub checked_minimal: bool,
    /// Whether full adaptivity was checked.
    pub checked_fully_adaptive: bool,
}

/// Run structure, deadlock-freedom, bounded-path, and (if claimed)
/// minimality checks; optionally the exponential full-adaptivity check.
pub fn verify_all<R: RoutingFunction + ?Sized>(
    rf: &R,
    check_full_adaptivity: bool,
) -> Result<Report, Violation> {
    verify_structure(rf)?;
    verify_deadlock_free(rf)?;
    verify_bounded_paths(rf)?;
    if rf.is_minimal() {
        verify_minimal(rf)?;
    }
    if check_full_adaptivity {
        verify_fully_adaptive(rf)?;
    }
    let qdg = build_qdg(rf);
    Ok(Report {
        algorithm: rf.name(),
        topology: rf.topology().name(),
        num_queues: qdg.queues.len(),
        static_edges: qdg.static_graph.num_edges(),
        dynamic_edges: qdg.dynamic_edges.len(),
        checked_minimal: rf.is_minimal(),
        checked_fully_adaptive: check_full_adaptivity,
    })
}

/// Minimal routing functions used as known-outcome fixtures by this
/// crate's own tests and by downstream analysis suites (`fadr-lint`'s
/// negative corpus): a single-queue e-cube (whose QDG is *cyclic* — the
/// classic store-and-forward deadlock) and the paper's underlying
/// two-queue "hang" function without dynamic links (acyclic, partially
/// adaptive).
pub mod test_fixtures {
    use fadr_topology::{Hypercube, NodeId, Port, Topology};

    use crate::sym::Symmetry;
    use crate::{BufferClass, HopKind, LinkKind, QueueId, QueueKind, RoutingFunction, Transition};

    /// Message state for the test fixtures: just the destination.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    pub struct DstMsg {
        /// Destination node.
        pub dst: NodeId,
    }

    impl crate::SnapshotMsg for DstMsg {
        fn encode(&self, out: &mut Vec<u64>) {
            out.push(self.dst as u64);
        }

        fn decode(words: &[u64]) -> Option<Self> {
            match words {
                [dst] => Some(Self {
                    dst: usize::try_from(*dst).ok()?,
                }),
                _ => None,
            }
        }
    }

    /// Oblivious ascending-dimension (e-cube) routing with a single central
    /// queue per node. Store-and-forward e-cube is NOT deadlock-free: its
    /// QDG is cyclic; the tests assert the checker catches this.
    pub struct EcubeHypercube {
        cube: Hypercube,
    }

    impl EcubeHypercube {
        /// E-cube with one central queue on the n-cube.
        pub fn new(dims: usize) -> Self {
            Self {
                cube: Hypercube::new(dims),
            }
        }
    }

    impl RoutingFunction for EcubeHypercube {
        type Msg = DstMsg;

        fn topology(&self) -> &dyn Topology {
            &self.cube
        }

        fn num_classes(&self) -> usize {
            1
        }

        fn initial_msg(&self, _src: NodeId, dst: NodeId) -> DstMsg {
            DstMsg { dst }
        }

        fn destination(&self, msg: &DstMsg) -> NodeId {
            msg.dst
        }

        fn deliverable(&self, node: NodeId, msg: &DstMsg) -> bool {
            node == msg.dst
        }

        fn for_each_transition(
            &self,
            at: QueueId,
            msg: &DstMsg,
            f: &mut dyn FnMut(Transition<DstMsg>),
        ) {
            match at.kind {
                QueueKind::Inject => f(Transition {
                    kind: LinkKind::Static,
                    hop: HopKind::Internal,
                    to: QueueId::central(at.node, 0),
                    msg: msg.clone(),
                }),
                QueueKind::Central(_) => {
                    if at.node == msg.dst {
                        f(Transition {
                            kind: LinkKind::Static,
                            hop: HopKind::Internal,
                            to: QueueId::deliver(at.node),
                            msg: msg.clone(),
                        });
                    } else {
                        let dim = (at.node ^ msg.dst).trailing_zeros() as usize;
                        f(Transition {
                            kind: LinkKind::Static,
                            hop: HopKind::Link(dim),
                            to: QueueId::central(at.node ^ (1 << dim), 0),
                            msg: msg.clone(),
                        });
                    }
                }
                QueueKind::Deliver => {}
            }
        }

        fn buffer_classes(&self, _node: NodeId, _port: Port) -> Vec<BufferClass> {
            vec![BufferClass::Static(0)]
        }

        fn is_minimal(&self) -> bool {
            true
        }

        fn max_hops(&self) -> usize {
            self.cube.dims()
        }

        fn name(&self) -> String {
            "ecube-1q (test fixture)".into()
        }
    }

    // Identity symmetry (sound for any scheme) so the fixtures plug
    // straight into class-graph-based analyses.
    impl Symmetry for EcubeHypercube {}

    /// The paper's *underlying* hypercube routing function (§ 3): hang the
    /// cube from 0…0, correct 0→1 in phase A (queue class 0), then 1→0 in
    /// phase B (queue class 1). No dynamic links: partially adaptive,
    /// acyclic QDG.
    pub struct HangHypercubeStatic {
        cube: Hypercube,
    }

    impl HangHypercubeStatic {
        /// Static hang (no dynamic links) on the n-cube.
        pub fn new(dims: usize) -> Self {
            Self {
                cube: Hypercube::new(dims),
            }
        }

        fn entry_class(&self, node: NodeId, dst: NodeId) -> u8 {
            u8::from(self.cube.zero_corrections(node, dst) == 0)
        }
    }

    impl RoutingFunction for HangHypercubeStatic {
        type Msg = DstMsg;

        fn topology(&self) -> &dyn Topology {
            &self.cube
        }

        fn num_classes(&self) -> usize {
            2
        }

        fn initial_msg(&self, _src: NodeId, dst: NodeId) -> DstMsg {
            DstMsg { dst }
        }

        fn destination(&self, msg: &DstMsg) -> NodeId {
            msg.dst
        }

        fn deliverable(&self, node: NodeId, msg: &DstMsg) -> bool {
            node == msg.dst
        }

        fn for_each_transition(
            &self,
            at: QueueId,
            msg: &DstMsg,
            f: &mut dyn FnMut(Transition<DstMsg>),
        ) {
            let emit_link = |dim: usize, f: &mut dyn FnMut(Transition<DstMsg>)| {
                let v = at.node ^ (1usize << dim);
                f(Transition {
                    kind: LinkKind::Static,
                    hop: HopKind::Link(dim),
                    to: QueueId::central(v, self.entry_class(v, msg.dst)),
                    msg: msg.clone(),
                });
            };
            match at.kind {
                QueueKind::Inject => f(Transition {
                    kind: LinkKind::Static,
                    hop: HopKind::Internal,
                    to: QueueId::central(at.node, self.entry_class(at.node, msg.dst)),
                    msg: msg.clone(),
                }),
                QueueKind::Central(_) => {
                    if at.node == msg.dst {
                        f(Transition {
                            kind: LinkKind::Static,
                            hop: HopKind::Internal,
                            to: QueueId::deliver(at.node),
                            msg: msg.clone(),
                        });
                        return;
                    }
                    let zeros = self.cube.zero_corrections(at.node, msg.dst);
                    let work = if zeros != 0 {
                        zeros
                    } else {
                        self.cube.one_corrections(at.node, msg.dst)
                    };
                    for dim in 0..self.cube.dims() {
                        if work & (1 << dim) != 0 {
                            emit_link(dim, f);
                        }
                    }
                }
                QueueKind::Deliver => {}
            }
        }

        fn buffer_classes(&self, node: NodeId, port: Port) -> Vec<BufferClass> {
            // Upward (0→1) channels carry phase-A traffic that may finish
            // phase A on arrival; downward channels carry phase-B traffic.
            if node & (1 << port) == 0 {
                vec![BufferClass::Static(0), BufferClass::Static(1)]
            } else {
                vec![BufferClass::Static(1)]
            }
        }

        fn is_minimal(&self) -> bool {
            true
        }

        fn max_hops(&self) -> usize {
            self.cube.dims()
        }

        fn name(&self) -> String {
            "hang-static (test fixture)".into()
        }
    }

    impl Symmetry for HangHypercubeStatic {}
}

#[cfg(test)]
mod tests {
    use super::test_fixtures::{EcubeHypercube, HangHypercubeStatic};
    use super::*;

    #[test]
    fn ecube_structure_is_sound() {
        verify_structure(&EcubeHypercube::new(3)).unwrap();
    }

    /// A lazy topology may claim more nodes than `u32` node ids can
    /// encode; the structure check rejects it with a typed violation
    /// before any classifier can hit the cast.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn structure_rejects_node_counts_beyond_u32() {
        use fadr_topology::{NodeId, Port, Topology};

        struct HugeLazyTopo;
        impl Topology for HugeLazyTopo {
            fn num_nodes(&self) -> usize {
                (u32::MAX as usize) + 2
            }
            fn max_ports(&self) -> usize {
                0
            }
            fn neighbor(&self, _node: NodeId, _port: Port) -> Option<NodeId> {
                None
            }
            fn name(&self) -> String {
                "huge-lazy".into()
            }
            fn reverse_port(&self, _node: NodeId, _port: Port) -> Option<Port> {
                None
            }
            fn as_dyn(&self) -> &dyn Topology {
                self
            }
        }

        struct HugeLazy(HugeLazyTopo);
        impl RoutingFunction for HugeLazy {
            type Msg = ();
            fn topology(&self) -> &dyn Topology {
                &self.0
            }
            fn num_classes(&self) -> usize {
                1
            }
            fn initial_msg(&self, _src: NodeId, _dst: NodeId) {}
            fn destination(&self, (): &()) -> NodeId {
                0
            }
            fn deliverable(&self, _node: NodeId, (): &()) -> bool {
                false
            }
            fn for_each_transition(
                &self,
                _at: QueueId,
                (): &(),
                _f: &mut dyn FnMut(Transition<()>),
            ) {
            }
            fn buffer_classes(&self, _node: NodeId, _port: Port) -> Vec<crate::BufferClass> {
                Vec::new()
            }
            fn is_minimal(&self) -> bool {
                false
            }
            fn max_hops(&self) -> usize {
                1
            }
            fn name(&self) -> String {
                "huge-lazy".into()
            }
        }

        let err = verify_structure(&HugeLazy(HugeLazyTopo)).unwrap_err();
        assert_eq!(err.check, "structure");
        assert!(err.detail.contains("u32"), "{}", err.detail);
    }

    #[test]
    fn ecube_single_queue_is_deadlock_prone() {
        // The classic store-and-forward deadlock: the checker must find the
        // cyclic static QDG.
        let err = verify_deadlock_free(&EcubeHypercube::new(3)).unwrap_err();
        assert_eq!(err.check, "deadlock-free");
        assert!(err.detail.contains("cycle"), "{}", err.detail);
        // Structured location: the cycle itself, all central queues, and
        // it really is a cycle of the static QDG.
        assert!(err.queues.len() >= 2, "{:?}", err.queues);
        let qdg = build_qdg(&EcubeHypercube::new(3));
        for (i, q) in err.queues.iter().enumerate() {
            assert!(matches!(q.kind, QueueKind::Central(_)));
            let next = err.queues[(i + 1) % err.queues.len()];
            assert!(qdg.static_graph.has_edge(qdg.index[q], qdg.index[&next]));
        }
    }

    #[test]
    fn ecube_is_minimal_and_bounded() {
        verify_minimal(&EcubeHypercube::new(3)).unwrap();
        verify_bounded_paths(&EcubeHypercube::new(3)).unwrap();
    }

    #[test]
    fn ecube_is_not_fully_adaptive() {
        let err = verify_fully_adaptive(&EcubeHypercube::new(2)).unwrap_err();
        assert_eq!(err.check, "fully-adaptive");
    }

    #[test]
    fn hang_static_passes_deadlock_checks() {
        let rf = HangHypercubeStatic::new(3);
        verify_structure(&rf).unwrap();
        verify_deadlock_free(&rf).unwrap();
        verify_minimal(&rf).unwrap();
        verify_bounded_paths(&rf).unwrap();
    }

    #[test]
    fn hang_static_is_not_fully_adaptive() {
        // From 11 to 00 in the 2-cube: both orders of the two 1→0
        // corrections are shortest paths, but phase A is empty and phase B
        // allows both, so this *particular* pair is adaptive; use a pair
        // with mixed corrections instead: 10 -> 01 must fix 0→1 first.
        let err = verify_fully_adaptive(&HangHypercubeStatic::new(2)).unwrap_err();
        assert_eq!(err.check, "fully-adaptive");
    }

    #[test]
    fn verify_all_reports_counts() {
        let rep = verify_all(&HangHypercubeStatic::new(3), false).unwrap();
        // i, d, qA, qB per node, except q_A of the all-ones node (unused).
        assert_eq!(rep.num_queues, 8 * 4 - 1);
        assert_eq!(rep.dynamic_edges, 0);
        assert!(rep.checked_minimal);
        assert!(!rep.checked_fully_adaptive);
    }
}
