//! Hypercube routing: the paper's § 3 fully-adaptive algorithm, its
//! underlying partially-adaptive "hang", and the oblivious e-cube baseline.

use fadr_qdg::sym::{QueueClass, Symmetry};
use fadr_qdg::{BufferClass, HopKind, LinkKind, QueueId, QueueKind, RoutingFunction, Transition};
use fadr_topology::{Hypercube, NodeId, Port, Topology};

use crate::{CLASS_A, CLASS_B};

/// Classifier shared by the hypercube hang schemes: central queues by
/// Hamming level relative to the hang root (phase-A levels rise along
/// static links, phase-B levels fall, and no static link leaves phase B
/// for phase A — so the class graph is a DAG).
fn cube_class(root: NodeId, q: QueueId) -> QueueClass {
    match q.kind {
        QueueKind::Inject => QueueClass::inject(),
        QueueKind::Deliver => QueueClass::deliver(),
        QueueKind::Central(c) => QueueClass::central(c, (q.node ^ root).count_ones()),
    }
}

/// One destination per Hamming level: `root ^ 0…01…1` with `w` ones. Any
/// destination maps onto its level representative by a dimension
/// permutation fixing `root`, which relabels routes to routes and
/// preserves [`cube_class`].
fn cube_representatives(dims: usize, root: NodeId) -> Vec<NodeId> {
    (0..=dims).map(|w| root ^ ((1usize << w) - 1)).collect()
}

/// Message routing state for the hypercube algorithms: only the
/// destination — the phase is recomputed from the current node at every
/// queue entry ("after performing the last 0→1 correction, the message
/// will enter the `q_B` queue").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CubeMsg {
    /// Destination node address.
    pub dst: NodeId,
}

/// The central-queue class a message entering `node` occupies: `q_A`
/// while any `0→1` correction remains, `q_B` afterwards (§ 3).
#[inline]
pub fn entry_class(cube: &Hypercube, node: NodeId, dst: NodeId) -> u8 {
    if cube.zero_corrections(node, dst) != 0 {
        CLASS_A
    } else {
        CLASS_B
    }
}

/// Corrections of a message at `node` toward `dst` when the cube is hung
/// from `root` (\[PFGS91\]: "interconnections can be hung from an arbitrary
/// node"): relabelling every address by `x ^ root` reduces the general
/// hang to the paper's hang from `0…0`.
///
/// Returns `(phase_a_work, phase_b_work)`: the dimensions to correct
/// while moving away from `root` (the relabelled `0→1`s) and toward it.
#[inline]
pub fn hung_corrections(node: NodeId, dst: NodeId, root: NodeId) -> (usize, usize) {
    let diff = node ^ dst;
    let down = dst ^ root; // bits where dst is "below" (away from root)
    (diff & down, diff & !down)
}

/// A hypercube scheme's relative state key: `tag` above the two
/// `dims`-bit masks `a` and `b`. `None` past 28 dimensions, where the
/// masks no longer fit beside an 8-bit tag.
fn cube_key(dims: usize, tag: u8, a: usize, b: usize) -> Option<u64> {
    (dims <= 28).then(|| (u64::from(tag) << 56) | ((a as u64) << 28) | b as u64)
}

fn internal<M>(to: QueueId, msg: M) -> Transition<M> {
    Transition {
        kind: LinkKind::Static,
        hop: HopKind::Internal,
        to,
        msg,
    }
}

/// § 3's fully-adaptive minimal hypercube routing.
///
/// The cube is hung from node `0…0`. In phase A (queue `q_A`, class 0) a
/// message turns incorrect 0s into 1s over *static* links, moving towards
/// `1…1`; in phase B (queue `q_B`, class 1) it turns incorrect 1s into 0s
/// moving back up. The *dynamic* links let a phase-A message also correct
/// an incorrect 1 into a 0 whenever it finds space, making every minimal
/// path available at injection time (Theorem 1) — two central queues per
/// node suffice.
#[derive(Debug, Clone, Copy)]
pub struct HypercubeFullyAdaptive {
    cube: Hypercube,
    root: NodeId,
}

impl HypercubeFullyAdaptive {
    /// Fully-adaptive routing on the n-dimensional hypercube, hung from
    /// the paper's node `0…0`.
    pub fn new(dims: usize) -> Self {
        Self::hung_from(dims, 0)
    }

    /// The \[PFGS91\] generalization: hang the cube from an arbitrary
    /// `root` node. All guarantees (Theorem 1) carry over by the
    /// relabelling `x ↦ x ^ root`.
    pub fn hung_from(dims: usize, root: NodeId) -> Self {
        let cube = Hypercube::new(dims);
        assert!(root < cube.num_nodes(), "root out of range");
        Self { cube, root }
    }

    /// The underlying hypercube.
    pub fn cube(&self) -> &Hypercube {
        &self.cube
    }

    /// The node the cube is hung from.
    pub fn root(&self) -> NodeId {
        self.root
    }

    #[inline]
    fn entry(&self, node: NodeId, dst: NodeId) -> u8 {
        u8::from(hung_corrections(node, dst, self.root).0 == 0)
    }
}

impl RoutingFunction for HypercubeFullyAdaptive {
    type Msg = CubeMsg;

    fn topology(&self) -> &dyn Topology {
        &self.cube
    }

    fn num_classes(&self) -> usize {
        2
    }

    fn initial_msg(&self, _src: NodeId, dst: NodeId) -> CubeMsg {
        CubeMsg { dst }
    }

    fn destination(&self, msg: &CubeMsg) -> NodeId {
        msg.dst
    }

    fn deliverable(&self, node: NodeId, msg: &CubeMsg) -> bool {
        node == msg.dst
    }

    fn for_each_transition(
        &self,
        at: QueueId,
        msg: &CubeMsg,
        f: &mut dyn FnMut(Transition<CubeMsg>),
    ) {
        let u = at.node;
        let dst = msg.dst;
        match at.kind {
            QueueKind::Inject => {
                f(internal(QueueId::central(u, self.entry(u, dst)), *msg));
            }
            QueueKind::Central(class) => {
                if u == dst {
                    f(internal(QueueId::deliver(u), *msg));
                    return;
                }
                debug_assert!(
                    self.can_hold(u, class, msg),
                    "phase invariant: q_A iff a downward correction remains"
                );
                let (zeros, ones) = hung_corrections(u, dst, self.root);
                // Phase A corrects both kinds of bit, phase B the ones;
                // set bits ascending are the dimensions in port order.
                let mut work = match class {
                    CLASS_A => zeros | ones,
                    CLASS_B => ones,
                    _ => 0,
                };
                while work != 0 {
                    let dim = work.trailing_zeros() as usize;
                    let bit = 1usize << dim;
                    work &= work - 1;
                    let v = u ^ bit;
                    let (kind, to) = if zeros & bit != 0 {
                        // Mandatory phase-A correction (static, downwards).
                        (LinkKind::Static, self.entry(v, dst))
                    } else if class == CLASS_A {
                        // Opportunistic upward correction (dynamic); the
                        // message keeps its pending downward work, so a
                        // static continuation always remains (condition 3).
                        (LinkKind::Dynamic, CLASS_A)
                    } else {
                        // Phase-B correction (static, upwards).
                        (LinkKind::Static, CLASS_B)
                    };
                    f(Transition {
                        kind,
                        hop: HopKind::Link(dim),
                        to: QueueId::central(v, to),
                        msg: *msg,
                    });
                }
            }
            QueueKind::Deliver => {}
        }
    }

    fn buffer_classes(&self, node: NodeId, port: Port) -> Vec<BufferClass> {
        if (node ^ self.root) & (1usize << port) == 0 {
            // Downward channel (away from the root): phase-A static
            // traffic, which may complete phase A on arrival and enter q_B.
            vec![BufferClass::Static(CLASS_A), BufferClass::Static(CLASS_B)]
        } else {
            // Upward channel (toward the root): phase-B static plus
            // phase-A dynamic traffic.
            vec![BufferClass::Static(CLASS_B), BufferClass::Dynamic]
        }
    }

    fn is_minimal(&self) -> bool {
        true
    }

    fn max_hops(&self) -> usize {
        self.cube.dims()
    }

    /// (class, zeros, ones) from [`hung_corrections`] with the scheme's
    /// root. Every node has the same n two-buffer channels, so a fill
    /// position is `2·port + index`, and a correction bit fixes its
    /// channel's direction: a `zeros` bit is a downward channel, a
    /// `ones` bit an upward one. So the key fixes every position: 3ⁿ − 1
    /// keys against N(N − 1) states.
    fn state_key(&self, node: NodeId, class: u8, msg: &CubeMsg) -> Option<u64> {
        let (zeros, ones) = hung_corrections(node, msg.dst, self.root);
        cube_key(self.cube.dims(), class, zeros, ones)
    }

    /// The phase invariant: q_A iff a downward correction remains.
    fn can_hold(&self, node: NodeId, class: u8, msg: &CubeMsg) -> bool {
        class == self.entry(node, msg.dst)
    }

    fn name(&self) -> String {
        if self.root == 0 {
            format!("hypercube-fully-adaptive(n={})", self.cube.dims())
        } else {
            format!(
                "hypercube-fully-adaptive(n={}, root={})",
                self.cube.dims(),
                self.root
            )
        }
    }
}

impl Symmetry for HypercubeFullyAdaptive {
    fn queue_class(&self, q: QueueId) -> QueueClass {
        cube_class(self.root, q)
    }

    fn dst_representatives(&self) -> Vec<NodeId> {
        cube_representatives(self.cube.dims(), self.root)
    }

    fn symmetry(&self) -> String {
        format!(
            "dimension permutations fixing root {}: classes by Hamming level, one representative destination per level",
            self.root
        )
    }

    fn is_reduced(&self) -> bool {
        true
    }
}

/// The *underlying* § 3 algorithm without dynamic links: hang the cube
/// from `0…0` and correct all 0→1 bits (in any order) before any 1→0 bit.
///
/// This is the partially-adaptive scheme of \[BGSS89\]/\[Kon90\] that the
/// paper starts from; it concentrates traffic near `1…1`, which the
/// dynamic links of [`HypercubeFullyAdaptive`] relieve.
///
/// It declares no [`RoutingFunction::state_key`]: its upward channels
/// carry one buffer and its downward channels two, so a port's fill
/// position depends on the node's lower address bits.
#[derive(Debug, Clone, Copy)]
pub struct HypercubeStaticHang {
    cube: Hypercube,
}

impl HypercubeStaticHang {
    /// Static-hang routing on the n-dimensional hypercube.
    pub fn new(dims: usize) -> Self {
        Self {
            cube: Hypercube::new(dims),
        }
    }

    /// The underlying hypercube.
    pub fn cube(&self) -> &Hypercube {
        &self.cube
    }
}

impl RoutingFunction for HypercubeStaticHang {
    type Msg = CubeMsg;

    fn topology(&self) -> &dyn Topology {
        &self.cube
    }

    fn num_classes(&self) -> usize {
        2
    }

    fn initial_msg(&self, _src: NodeId, dst: NodeId) -> CubeMsg {
        CubeMsg { dst }
    }

    fn destination(&self, msg: &CubeMsg) -> NodeId {
        msg.dst
    }

    fn deliverable(&self, node: NodeId, msg: &CubeMsg) -> bool {
        node == msg.dst
    }

    fn for_each_transition(
        &self,
        at: QueueId,
        msg: &CubeMsg,
        f: &mut dyn FnMut(Transition<CubeMsg>),
    ) {
        let u = at.node;
        let dst = msg.dst;
        match at.kind {
            QueueKind::Inject => {
                f(internal(
                    QueueId::central(u, entry_class(&self.cube, u, dst)),
                    *msg,
                ));
            }
            QueueKind::Central(class) => {
                if u == dst {
                    f(internal(QueueId::deliver(u), *msg));
                    return;
                }
                // Set bits ascending are the dimensions in port order.
                let mut work = if class == CLASS_A {
                    self.cube.zero_corrections(u, dst)
                } else {
                    self.cube.one_corrections(u, dst)
                };
                while work != 0 {
                    let dim = work.trailing_zeros() as usize;
                    work &= work - 1;
                    let v = u ^ (1usize << dim);
                    f(Transition {
                        kind: LinkKind::Static,
                        hop: HopKind::Link(dim),
                        to: QueueId::central(v, entry_class(&self.cube, v, dst)),
                        msg: *msg,
                    });
                }
            }
            QueueKind::Deliver => {}
        }
    }

    fn buffer_classes(&self, node: NodeId, port: Port) -> Vec<BufferClass> {
        if node & (1usize << port) == 0 {
            vec![BufferClass::Static(CLASS_A), BufferClass::Static(CLASS_B)]
        } else {
            vec![BufferClass::Static(CLASS_B)]
        }
    }

    fn is_minimal(&self) -> bool {
        true
    }

    fn max_hops(&self) -> usize {
        self.cube.dims()
    }

    /// The phase invariant: q_A iff a downward correction remains.
    fn can_hold(&self, node: NodeId, class: u8, msg: &CubeMsg) -> bool {
        class == entry_class(&self.cube, node, msg.dst)
    }

    fn name(&self) -> String {
        format!("hypercube-static-hang(n={})", self.cube.dims())
    }
}

impl Symmetry for HypercubeStaticHang {
    fn queue_class(&self, q: QueueId) -> QueueClass {
        cube_class(0, q)
    }

    fn dst_representatives(&self) -> Vec<NodeId> {
        cube_representatives(self.cube.dims(), 0)
    }

    fn symmetry(&self) -> String {
        "dimension permutations fixing root 0: classes by Hamming level, one representative destination per level".into()
    }

    fn is_reduced(&self) -> bool {
        true
    }
}

/// Message state of [`EcubeSbp`]: destination plus hops taken (the
/// structured-buffer-pool class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EcubeMsg {
    /// Destination node address.
    pub dst: NodeId,
    /// Link hops taken so far; the message occupies queue class `hops`.
    pub hops: u8,
}

/// Oblivious e-cube (ascending dimension-order) routing, made
/// deadlock-free with a structured buffer pool (\[Gun81\], \[MS80\]): a
/// message that has taken `k` hops occupies central queue class `k`, so
/// `n + 1` classes are needed — the resource-hungry classical baseline
/// the paper's § 1 contrasts its 2-queue schemes against.
#[derive(Debug, Clone, Copy)]
pub struct EcubeSbp {
    cube: Hypercube,
}

impl EcubeSbp {
    /// E-cube + structured-buffer-pool routing on the n-cube.
    pub fn new(dims: usize) -> Self {
        Self {
            cube: Hypercube::new(dims),
        }
    }

    /// The underlying hypercube.
    pub fn cube(&self) -> &Hypercube {
        &self.cube
    }
}

impl RoutingFunction for EcubeSbp {
    type Msg = EcubeMsg;

    fn topology(&self) -> &dyn Topology {
        &self.cube
    }

    fn num_classes(&self) -> usize {
        self.cube.dims() + 1
    }

    fn initial_msg(&self, _src: NodeId, dst: NodeId) -> EcubeMsg {
        EcubeMsg { dst, hops: 0 }
    }

    fn destination(&self, msg: &EcubeMsg) -> NodeId {
        msg.dst
    }

    fn deliverable(&self, node: NodeId, msg: &EcubeMsg) -> bool {
        node == msg.dst
    }

    fn for_each_transition(
        &self,
        at: QueueId,
        msg: &EcubeMsg,
        f: &mut dyn FnMut(Transition<EcubeMsg>),
    ) {
        let u = at.node;
        match at.kind {
            QueueKind::Inject => f(internal(QueueId::central(u, 0), *msg)),
            QueueKind::Central(_) => {
                if u == msg.dst {
                    f(internal(QueueId::deliver(u), *msg));
                    return;
                }
                let dim = (u ^ msg.dst).trailing_zeros() as usize;
                let next = EcubeMsg {
                    dst: msg.dst,
                    hops: msg.hops + 1,
                };
                f(Transition {
                    kind: LinkKind::Static,
                    hop: HopKind::Link(dim),
                    to: QueueId::central(u ^ (1 << dim), next.hops),
                    msg: next,
                });
            }
            QueueKind::Deliver => {}
        }
    }

    fn buffer_classes(&self, _node: NodeId, _port: Port) -> Vec<BufferClass> {
        (1..=self.cube.dims() as u8)
            .map(BufferClass::Static)
            .collect()
    }

    fn is_minimal(&self) -> bool {
        true
    }

    fn max_hops(&self) -> usize {
        self.cube.dims()
    }

    /// The buffer-pool invariant: class `hops`, and e-cube order has
    /// corrected only dimensions below the lowest one left.
    fn can_hold(&self, node: NodeId, class: u8, msg: &EcubeMsg) -> bool {
        class == msg.hops && u32::from(msg.hops) <= (node ^ msg.dst).trailing_zeros()
    }

    /// (hops, node ^ dst): every channel declares the same n classes,
    /// and the lowest differing bit picks the port, so the key fixes the
    /// one move's fill position and its successor's key.
    fn state_key(&self, node: NodeId, _class: u8, msg: &EcubeMsg) -> Option<u64> {
        cube_key(self.cube.dims(), msg.hops, 0, node ^ msg.dst)
    }

    fn name(&self) -> String {
        format!("hypercube-ecube-sbp(n={})", self.cube.dims())
    }
}

impl Symmetry for EcubeSbp {
    fn queue_class(&self, q: QueueId) -> QueueClass {
        match q.kind {
            QueueKind::Inject => QueueClass::inject(),
            QueueKind::Deliver => QueueClass::deliver(),
            // The hop counter *is* the level: every link hop increments it.
            QueueKind::Central(c) => QueueClass::central(c, 0),
        }
    }

    fn symmetry(&self) -> String {
        "structured buffer pool: classes by hop count (node-independent), all destinations".into()
    }

    fn is_reduced(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fadr_qdg::explore::build_qdg;
    use fadr_qdg::verify;

    #[test]
    fn fully_adaptive_passes_all_checks_n3() {
        let rf = HypercubeFullyAdaptive::new(3);
        let rep = verify::verify_all(&rf, true).unwrap();
        assert!(rep.dynamic_edges > 0, "dynamic links must be present");
        assert!(rep.checked_fully_adaptive);
    }

    #[test]
    fn fully_adaptive_passes_all_checks_n4() {
        verify::verify_all(&HypercubeFullyAdaptive::new(4), true).unwrap();
    }

    #[test]
    fn static_hang_is_deadlock_free_but_not_fully_adaptive() {
        let rf = HypercubeStaticHang::new(3);
        verify::verify_all(&rf, false).unwrap();
        let err = verify::verify_fully_adaptive(&rf).unwrap_err();
        assert_eq!(err.check, "fully-adaptive");
    }

    #[test]
    fn ecube_sbp_is_deadlock_free_via_buffer_classes() {
        verify::verify_all(&EcubeSbp::new(3), false).unwrap();
    }

    #[test]
    fn ecube_sbp_uses_linear_classes() {
        let rf = EcubeSbp::new(4);
        assert_eq!(rf.num_classes(), 5);
    }

    #[test]
    fn fully_adaptive_qdg_shape_n3() {
        // Figure 1 of the paper: the 3-cube hung from 000 with dynamic
        // links. Check the expected static edge q_A[000] -> q_A[001] and
        // the dynamic edge q_A[001] -> q_A[000].
        let rf = HypercubeFullyAdaptive::new(3);
        let qdg = build_qdg(&rf);
        let a = qdg.index[&QueueId::central(0b000, CLASS_A)];
        let b = qdg.index[&QueueId::central(0b001, CLASS_A)];
        assert!(qdg.static_graph.has_edge(a, b));
        assert!(qdg.dynamic_edges.contains(&(b, a)));
        assert!(qdg.static_is_acyclic());
        // The full graph (with dynamic links) is cyclic — that is the point
        // of the dynamically-acyclic relaxation.
        assert!(!qdg.full_graph.is_acyclic());
    }

    #[test]
    fn phase_a_message_enters_qb_exactly_after_last_zero_correction() {
        let rf = HypercubeFullyAdaptive::new(4);
        // 0101 -> 1100: zeros to fix: bit 3; ones: bit 0.
        let msg = CubeMsg { dst: 0b1100 };
        let ts = rf.transitions(QueueId::central(0b0101, CLASS_A), &msg);
        // Static: dim 3 to 1101 which still has a 1->0 pending -> q_A? No:
        // zeros(1101, 1100) = 0, so it enters q_B. Dynamic: dim 0 to 0100.
        let stat: Vec<_> = ts.iter().filter(|t| t.kind == LinkKind::Static).collect();
        let dynm: Vec<_> = ts.iter().filter(|t| t.kind == LinkKind::Dynamic).collect();
        assert_eq!(stat.len(), 1);
        assert_eq!(stat[0].to, QueueId::central(0b1101, CLASS_B));
        assert_eq!(dynm.len(), 1);
        assert_eq!(dynm[0].to, QueueId::central(0b0100, CLASS_A));
    }

    #[test]
    fn transitions_emitted_in_ascending_dimension_order() {
        let rf = HypercubeFullyAdaptive::new(4);
        let msg = CubeMsg { dst: 0b1111 };
        let ts = rf.transitions(QueueId::central(0b0000, CLASS_A), &msg);
        let dims: Vec<_> = ts
            .iter()
            .map(|t| match t.hop {
                HopKind::Link(p) => p,
                _ => panic!("expected link"),
            })
            .collect();
        assert_eq!(dims, vec![0, 1, 2, 3]);
    }
}

#[cfg(test)]
mod rooted_tests {
    use super::*;
    use fadr_qdg::verify;

    #[test]
    fn arbitrary_roots_preserve_theorem_1() {
        for root in [0b001usize, 0b101, 0b111] {
            let rf = HypercubeFullyAdaptive::hung_from(3, root);
            verify::verify_all(&rf, true).unwrap_or_else(|e| panic!("root {root}: {e}"));
        }
    }

    #[test]
    fn rooted_hang_relabels_corrections() {
        // Hung from 111, a message 000 -> 011 must first move AWAY from
        // 111 (correct the relabelled zeros): down = dst ^ root = 100,
        // so... diff = 011, zeros = diff & down = 0, ones = 011: it is a
        // pure phase-B message (000 is already "below" 011 w.r.t. 111).
        let (zeros, ones) = hung_corrections(0b000, 0b011, 0b111);
        assert_eq!(zeros, 0);
        assert_eq!(ones, 0b011);
        // And from the paper's root 0 it is a pure phase-A message.
        let (zeros, ones) = hung_corrections(0b000, 0b011, 0b000);
        assert_eq!(zeros, 0b011);
        assert_eq!(ones, 0);
    }

    #[test]
    fn rooted_entry_queue_matches_relabelling() {
        let rf = HypercubeFullyAdaptive::hung_from(4, 0b1010);
        let msg = CubeMsg { dst: 0b0101 };
        // src = 1010 (= root): every differing bit moves away from the
        // root, so the message starts in q_A.
        let ts = rf.transitions(QueueId::inject(0b1010), &msg);
        assert_eq!(ts[0].to, QueueId::central(0b1010, CLASS_A));
        // src = 0101 toward 1010 under root 1010: every correction moves
        // toward the root: q_B.
        let rf2 = HypercubeFullyAdaptive::hung_from(4, 0b0101);
        let msg2 = CubeMsg {
            dst: 0b0101 ^ 0b1111,
        };
        let ts2 = rf2.transitions(QueueId::inject(0b0101), &msg2);
        assert_eq!(ts2[0].to.kind, fadr_qdg::QueueKind::Central(CLASS_A));
    }

    #[test]
    fn root_symmetry_in_simulation_name() {
        assert!(HypercubeFullyAdaptive::hung_from(3, 5)
            .name()
            .contains("root=5"));
        assert!(!HypercubeFullyAdaptive::new(3).name().contains("root"));
    }
}
