//! 2-D mesh routing: the paper's § 4 fully-adaptive algorithm, the
//! partially-adaptive "hung" scheme it extends, and oblivious XY routing.

use fadr_qdg::sym::{QueueClass, Symmetry};
use fadr_qdg::{BufferClass, HopKind, LinkKind, QueueId, QueueKind, RoutingFunction, Transition};
use fadr_topology::{Mesh2D, NodeId, Port, Topology};

use crate::{CLASS_A, CLASS_B};

/// Classifier shared by the two-phase mesh schemes: the paper's levels —
/// phase A hangs the mesh from `(0,0)` (level `x + y` rises along static
/// links), phase B from `(w-1, h-1)` (its level rises as `x + y` falls),
/// and no static link returns from phase B to phase A.
fn mesh_class(mesh: &Mesh2D, q: QueueId) -> QueueClass {
    match q.kind {
        QueueKind::Inject => QueueClass::inject(),
        QueueKind::Deliver => QueueClass::deliver(),
        QueueKind::Central(c) => {
            let (x, y) = mesh.coords(q.node);
            let level = if c == CLASS_A {
                x + y
            } else {
                (mesh.width() - 1 - x) + (mesh.height() - 1 - y)
            };
            QueueClass::central(c, u32::try_from(level).expect("mesh level fits u32"))
        }
    }
}

/// Message routing state for the mesh algorithms: only the destination;
/// the phase is recomputed at every queue entry ("a message changes from
/// phase A to phase B if it has nothing to correct in phase A").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeshMsg {
    /// Destination node id.
    pub dst: NodeId,
}

/// Mesh ports, following [`Mesh2D`]'s numbering.
const XP: Port = 0;
const XN: Port = 1;
const YP: Port = 2;
const YN: Port = 3;

/// The queue class a message entering `node` occupies: `q_A` while some
/// `+x`/`+y` correction remains (`z > x or w > y`), `q_B` afterwards.
#[inline]
pub fn entry_class(mesh: &Mesh2D, node: NodeId, dst: NodeId) -> u8 {
    let (x, y) = mesh.coords(node);
    let (z, w) = mesh.coords(dst);
    if z > x || w > y {
        CLASS_A
    } else {
        CLASS_B
    }
}

fn internal(to: QueueId, msg: MeshMsg) -> Transition<MeshMsg> {
    Transition {
        kind: LinkKind::Static,
        hop: HopKind::Internal,
        to,
        msg,
    }
}

fn link(
    kind: LinkKind,
    port: Port,
    mesh: &Mesh2D,
    from: NodeId,
    class_at: impl Fn(NodeId) -> u8,
    msg: MeshMsg,
) -> Transition<MeshMsg> {
    let v = mesh.neighbor(from, port).expect("move off the mesh");
    Transition {
        kind,
        hop: HopKind::Link(port),
        to: QueueId::central(v, class_at(v)),
        msg,
    }
}

/// § 4's fully-adaptive minimal mesh routing.
///
/// The mesh is hung from `(0,0)` for phase A (level `x + y` increasing
/// over static links) and from `(w-1, h-1)` for phase B. The dynamic
/// links let a phase-A message take *any* minimal move — also `-x`/`-y` —
/// "if it still has some descending path to pass through", i.e. while a
/// `+` correction remains. Fully adaptive, minimal, deadlock- and
/// livelock-free with two central queues per node (Theorem 2).
///
/// It declares no [`RoutingFunction::state_key`]: boundary nodes have
/// fewer ports, which shifts their fill positions, so a relative key
/// would need a per-node position map.
#[derive(Debug, Clone, Copy)]
pub struct MeshFullyAdaptive {
    mesh: Mesh2D,
}

impl MeshFullyAdaptive {
    /// Fully-adaptive routing on a `width × height` mesh.
    pub fn new(width: usize, height: usize) -> Self {
        Self {
            mesh: Mesh2D::new(width, height),
        }
    }

    /// The underlying mesh.
    pub fn mesh(&self) -> &Mesh2D {
        &self.mesh
    }
}

impl RoutingFunction for MeshFullyAdaptive {
    type Msg = MeshMsg;

    fn topology(&self) -> &dyn Topology {
        &self.mesh
    }

    fn num_classes(&self) -> usize {
        2
    }

    fn initial_msg(&self, _src: NodeId, dst: NodeId) -> MeshMsg {
        MeshMsg { dst }
    }

    fn destination(&self, msg: &MeshMsg) -> NodeId {
        msg.dst
    }

    fn deliverable(&self, node: NodeId, msg: &MeshMsg) -> bool {
        node == msg.dst
    }

    fn for_each_transition(
        &self,
        at: QueueId,
        msg: &MeshMsg,
        f: &mut dyn FnMut(Transition<MeshMsg>),
    ) {
        let m = &self.mesh;
        let u = at.node;
        let dst = msg.dst;
        let class_at = |v: NodeId| entry_class(m, v, dst);
        match at.kind {
            QueueKind::Inject => f(internal(QueueId::central(u, class_at(u)), *msg)),
            QueueKind::Central(class) => {
                if u == dst {
                    f(internal(QueueId::deliver(u), *msg));
                    return;
                }
                debug_assert!(self.can_hold(u, class, msg), "phase invariant");
                let (x, y) = m.coords(u);
                let (z, w) = m.coords(dst);
                if class == CLASS_A {
                    // Static + moves, then dynamic minimal - moves; port
                    // order +x, -x, +y, -y matches the topology numbering.
                    if z > x {
                        f(link(LinkKind::Static, XP, m, u, class_at, *msg));
                    }
                    if z < x && w > y {
                        f(link(LinkKind::Dynamic, XN, m, u, class_at, *msg));
                    }
                    if w > y {
                        f(link(LinkKind::Static, YP, m, u, class_at, *msg));
                    }
                    if w < y && z > x {
                        f(link(LinkKind::Dynamic, YN, m, u, class_at, *msg));
                    }
                } else {
                    if z < x {
                        f(link(LinkKind::Static, XN, m, u, |_| CLASS_B, *msg));
                    }
                    if w < y {
                        f(link(LinkKind::Static, YN, m, u, |_| CLASS_B, *msg));
                    }
                }
            }
            QueueKind::Deliver => {}
        }
    }

    fn buffer_classes(&self, _node: NodeId, port: Port) -> Vec<BufferClass> {
        match port {
            // + channels: phase-A static traffic, possibly finishing
            // phase A on arrival.
            XP | YP => vec![BufferClass::Static(CLASS_A), BufferClass::Static(CLASS_B)],
            // - channels: phase-B static plus phase-A dynamic traffic.
            _ => vec![BufferClass::Static(CLASS_B), BufferClass::Dynamic],
        }
    }

    fn is_minimal(&self) -> bool {
        true
    }

    fn max_hops(&self) -> usize {
        self.mesh.width() + self.mesh.height() - 2
    }

    /// The phase invariant: q_A iff a `+` move remains.
    fn can_hold(&self, node: NodeId, class: u8, msg: &MeshMsg) -> bool {
        class == entry_class(&self.mesh, node, msg.dst)
    }

    fn name(&self) -> String {
        format!(
            "mesh-fully-adaptive({}x{})",
            self.mesh.width(),
            self.mesh.height()
        )
    }
}

impl Symmetry for MeshFullyAdaptive {
    fn queue_class(&self, q: QueueId) -> QueueClass {
        mesh_class(&self.mesh, q)
    }

    fn symmetry(&self) -> String {
        "mesh diagonal levels (A: x+y from (0,0); B: from the far corner), all destinations".into()
    }

    fn is_reduced(&self) -> bool {
        true
    }
}

/// The first § 4 scheme: the mesh hung from `(0,0)` and `(w-1,h-1)` with
/// *no* dynamic links. Minimal and deadlock-free, but e.g. a message
/// going `-x`/`+y` has exactly one path (no adaptivity at all).
#[derive(Debug, Clone, Copy)]
pub struct MeshStaticHang {
    mesh: Mesh2D,
}

impl MeshStaticHang {
    /// Static-hang routing on a `width × height` mesh.
    pub fn new(width: usize, height: usize) -> Self {
        Self {
            mesh: Mesh2D::new(width, height),
        }
    }

    /// The underlying mesh.
    pub fn mesh(&self) -> &Mesh2D {
        &self.mesh
    }
}

impl RoutingFunction for MeshStaticHang {
    type Msg = MeshMsg;

    fn topology(&self) -> &dyn Topology {
        &self.mesh
    }

    fn num_classes(&self) -> usize {
        2
    }

    fn initial_msg(&self, _src: NodeId, dst: NodeId) -> MeshMsg {
        MeshMsg { dst }
    }

    fn destination(&self, msg: &MeshMsg) -> NodeId {
        msg.dst
    }

    fn deliverable(&self, node: NodeId, msg: &MeshMsg) -> bool {
        node == msg.dst
    }

    fn for_each_transition(
        &self,
        at: QueueId,
        msg: &MeshMsg,
        f: &mut dyn FnMut(Transition<MeshMsg>),
    ) {
        let m = &self.mesh;
        let u = at.node;
        let dst = msg.dst;
        let class_at = |v: NodeId| entry_class(m, v, dst);
        match at.kind {
            QueueKind::Inject => f(internal(QueueId::central(u, class_at(u)), *msg)),
            QueueKind::Central(class) => {
                if u == dst {
                    f(internal(QueueId::deliver(u), *msg));
                    return;
                }
                let (x, y) = m.coords(u);
                let (z, w) = m.coords(dst);
                if class == CLASS_A {
                    if z > x {
                        f(link(LinkKind::Static, XP, m, u, class_at, *msg));
                    }
                    if w > y {
                        f(link(LinkKind::Static, YP, m, u, class_at, *msg));
                    }
                } else {
                    if z < x {
                        f(link(LinkKind::Static, XN, m, u, |_| CLASS_B, *msg));
                    }
                    if w < y {
                        f(link(LinkKind::Static, YN, m, u, |_| CLASS_B, *msg));
                    }
                }
            }
            QueueKind::Deliver => {}
        }
    }

    fn buffer_classes(&self, _node: NodeId, port: Port) -> Vec<BufferClass> {
        match port {
            XP | YP => vec![BufferClass::Static(CLASS_A), BufferClass::Static(CLASS_B)],
            _ => vec![BufferClass::Static(CLASS_B)],
        }
    }

    fn is_minimal(&self) -> bool {
        true
    }

    fn max_hops(&self) -> usize {
        self.mesh.width() + self.mesh.height() - 2
    }

    fn name(&self) -> String {
        format!(
            "mesh-static-hang({}x{})",
            self.mesh.width(),
            self.mesh.height()
        )
    }
}

impl Symmetry for MeshStaticHang {
    fn queue_class(&self, q: QueueId) -> QueueClass {
        mesh_class(&self.mesh, q)
    }

    fn symmetry(&self) -> String {
        "mesh diagonal levels (A: x+y from (0,0); B: from the far corner), all destinations".into()
    }

    fn is_reduced(&self) -> bool {
        true
    }
}

/// Oblivious XY (dimension-order) mesh routing with four direction-class
/// central queues (`X+`, `X-`, `Y+`, `Y-`).
///
/// With a single queue per node, store-and-forward XY routing deadlocks
/// (opposite-direction traffic forms 2-cycles in the QDG); one class per
/// travel direction restores acyclicity at the cost of *four* queues —
/// twice what the paper's fully-adaptive scheme needs.
#[derive(Debug, Clone, Copy)]
pub struct MeshXY {
    mesh: Mesh2D,
}

/// Queue classes of [`MeshXY`].
const CX_P: u8 = 0;
const CX_N: u8 = 1;
const CY_P: u8 = 2;
const CY_N: u8 = 3;

impl MeshXY {
    /// XY routing on a `width × height` mesh.
    pub fn new(width: usize, height: usize) -> Self {
        Self {
            mesh: Mesh2D::new(width, height),
        }
    }

    /// The underlying mesh.
    pub fn mesh(&self) -> &Mesh2D {
        &self.mesh
    }

    fn entry_class(&self, node: NodeId, dst: NodeId) -> u8 {
        let (x, y) = self.mesh.coords(node);
        let (z, w) = self.mesh.coords(dst);
        if z > x {
            CX_P
        } else if z < x {
            CX_N
        } else if w > y {
            CY_P
        } else {
            CY_N
        }
    }
}

impl RoutingFunction for MeshXY {
    type Msg = MeshMsg;

    fn topology(&self) -> &dyn Topology {
        &self.mesh
    }

    fn num_classes(&self) -> usize {
        4
    }

    fn initial_msg(&self, _src: NodeId, dst: NodeId) -> MeshMsg {
        MeshMsg { dst }
    }

    fn destination(&self, msg: &MeshMsg) -> NodeId {
        msg.dst
    }

    fn deliverable(&self, node: NodeId, msg: &MeshMsg) -> bool {
        node == msg.dst
    }

    fn for_each_transition(
        &self,
        at: QueueId,
        msg: &MeshMsg,
        f: &mut dyn FnMut(Transition<MeshMsg>),
    ) {
        let m = &self.mesh;
        let u = at.node;
        let dst = msg.dst;
        match at.kind {
            QueueKind::Inject => f(internal(
                QueueId::central(u, self.entry_class(u, dst)),
                *msg,
            )),
            QueueKind::Central(class) => {
                if u == dst {
                    f(internal(QueueId::deliver(u), *msg));
                    return;
                }
                let (x, y) = m.coords(u);
                let (z, w) = m.coords(dst);
                let port = if z > x {
                    XP
                } else if z < x {
                    XN
                } else if w > y {
                    YP
                } else {
                    YN
                };
                // A message reaching its destination keeps its travelling
                // class for the final (internal) delivery hop.
                let class_at = |v: NodeId| {
                    if v == dst {
                        class
                    } else {
                        self.entry_class(v, dst)
                    }
                };
                f(link(LinkKind::Static, port, m, u, class_at, *msg));
            }
            QueueKind::Deliver => {}
        }
    }

    fn buffer_classes(&self, _node: NodeId, port: Port) -> Vec<BufferClass> {
        match port {
            // X traffic may finish its x correction on arrival and enter a
            // Y class.
            XP => vec![
                BufferClass::Static(CX_P),
                BufferClass::Static(CY_P),
                BufferClass::Static(CY_N),
            ],
            XN => vec![
                BufferClass::Static(CX_N),
                BufferClass::Static(CY_P),
                BufferClass::Static(CY_N),
            ],
            YP => vec![BufferClass::Static(CY_P)],
            _ => vec![BufferClass::Static(CY_N)],
        }
    }

    fn is_minimal(&self) -> bool {
        true
    }

    fn max_hops(&self) -> usize {
        self.mesh.width() + self.mesh.height() - 2
    }

    /// The direction invariant: the class names the next correction.
    fn can_hold(&self, node: NodeId, class: u8, msg: &MeshMsg) -> bool {
        class == self.entry_class(node, msg.dst)
    }

    fn name(&self) -> String {
        format!("mesh-xy({}x{})", self.mesh.width(), self.mesh.height())
    }
}

impl Symmetry for MeshXY {
    fn queue_class(&self, q: QueueId) -> QueueClass {
        match q.kind {
            QueueKind::Inject => QueueClass::inject(),
            QueueKind::Deliver => QueueClass::deliver(),
            QueueKind::Central(c) => {
                let (x, y) = self.mesh.coords(q.node);
                // Distance already travelled in the class's direction:
                // rises along every link hop that stays in the class.
                let level = match c {
                    CX_P => x,
                    CX_N => self.mesh.width() - 1 - x,
                    CY_P => y,
                    _ => self.mesh.height() - 1 - y,
                };
                QueueClass::central(c, u32::try_from(level).expect("mesh level fits u32"))
            }
        }
    }

    fn symmetry(&self) -> String {
        "XY direction classes levelled by distance travelled; X classes feed Y classes only".into()
    }

    fn is_reduced(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fadr_qdg::verify;

    #[test]
    fn fully_adaptive_passes_all_checks_4x4() {
        let rep = verify::verify_all(&MeshFullyAdaptive::new(4, 4), true).unwrap();
        assert!(rep.dynamic_edges > 0);
    }

    #[test]
    fn fully_adaptive_passes_all_checks_rectangular() {
        verify::verify_all(&MeshFullyAdaptive::new(5, 3), true).unwrap();
    }

    #[test]
    fn static_hang_is_deadlock_free_but_not_fully_adaptive() {
        let rf = MeshStaticHang::new(3, 3);
        verify::verify_all(&rf, false).unwrap();
        let err = verify::verify_fully_adaptive(&rf).unwrap_err();
        assert_eq!(err.check, "fully-adaptive");
    }

    #[test]
    fn xy_is_deadlock_free_and_minimal() {
        verify::verify_all(&MeshXY::new(4, 3), false).unwrap();
    }

    #[test]
    fn xy_is_not_fully_adaptive() {
        let err = verify::verify_fully_adaptive(&MeshXY::new(3, 3)).unwrap_err();
        assert_eq!(err.check, "fully-adaptive");
    }

    #[test]
    fn paper_example_pure_phase_b_message_has_one_static_path() {
        // § 4: from (x,y) to (v,w) with v < x and w < y the *hung* scheme
        // has no adaptivity at all: phase A is empty, and phase B itself
        // allows both -x and -y... the no-adaptivity example in the paper
        // is v < x, w > y: correct +y in phase A, then -x in phase B.
        let rf = MeshStaticHang::new(4, 4);
        let m = rf.mesh;
        let src = m.node_at(2, 0);
        let dst = m.node_at(0, 2);
        let sg = fadr_qdg::explore::explore_pair(&rf, src, dst);
        // Count distinct realizable node paths: must be exactly 1.
        let mut paths = 0;
        let mut stack = vec![(0usize, 0usize)];
        while let Some((i, _)) = stack.pop() {
            if sg.is_delivered(i) {
                paths += 1;
                continue;
            }
            for &j in &sg.succ[i] {
                stack.push((j, 0));
            }
        }
        assert_eq!(paths, 1, "hung scheme must have a unique route here");

        // The fully-adaptive scheme, by contrast, realizes all C(4,2) = 6
        // shortest paths for this pair (checked globally by
        // verify_fully_adaptive; spot-check path count here).
        let rf2 = MeshFullyAdaptive::new(4, 4);
        let sg2 = fadr_qdg::explore::explore_pair(&rf2, src, dst);
        let mut complete = std::collections::HashSet::new();
        let mut stack: Vec<(usize, Vec<usize>)> = vec![(0, vec![src])];
        while let Some((i, path)) = stack.pop() {
            if sg2.is_delivered(i) {
                complete.insert(path);
                continue;
            }
            for (t, &j) in sg2.transitions[i].iter().zip(&sg2.succ[i]) {
                let mut p = path.clone();
                if matches!(t.hop, fadr_qdg::HopKind::Link(_)) {
                    p.push(t.to.node);
                }
                stack.push((j, p));
            }
        }
        assert_eq!(complete.len(), 6);
    }

    #[test]
    fn phase_a_dynamic_moves_require_remaining_plus_work() {
        let rf = MeshFullyAdaptive::new(4, 4);
        let m = rf.mesh;
        // (2,1) -> (0,3): -x is minimal and +y work remains, so -x is a
        // dynamic option; -y is not minimal, +x not minimal.
        let msg = MeshMsg {
            dst: m.node_at(0, 3),
        };
        let ts = rf.transitions(QueueId::central(m.node_at(2, 1), CLASS_A), &msg);
        let kinds: Vec<_> = ts.iter().map(|t| (t.kind, t.to.node)).collect();
        assert_eq!(
            kinds,
            vec![
                (LinkKind::Dynamic, m.node_at(1, 1)),
                (LinkKind::Static, m.node_at(2, 2)),
            ]
        );
    }
}
