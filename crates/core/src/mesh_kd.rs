//! The k-dimensional generalization of the § 4 mesh algorithm.
//!
//! The paper notes its 2-D technique "can be easily generalized for
//! k-dimensional meshes, for any arbitrary k": hang the mesh from the
//! all-zeros corner (phase A, level `Σ coords` rising over static links)
//! and from the opposite corner (phase B, level falling); dynamic links
//! let a phase-A message take *any* minimal move while some `+`
//! correction remains. Still two central queues per node, for any k.

use fadr_qdg::sym::{QueueClass, Symmetry};
use fadr_qdg::{BufferClass, HopKind, LinkKind, QueueId, QueueKind, RoutingFunction, Transition};
use fadr_topology::{MeshKD, NodeId, Port, Topology};

use crate::{CLASS_A, CLASS_B};

/// Message routing state: only the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeshKDMsg {
    /// Destination node id.
    pub dst: NodeId,
}

/// Fully-adaptive minimal routing on a k-dimensional mesh with two
/// central queues per node.
#[derive(Debug, Clone)]
pub struct MeshKDFullyAdaptive {
    mesh: MeshKD,
}

impl MeshKDFullyAdaptive {
    /// Fully-adaptive routing on the mesh with the given extents.
    pub fn new(extents: &[usize]) -> Self {
        Self {
            mesh: MeshKD::new(extents),
        }
    }

    /// The underlying mesh.
    pub fn mesh(&self) -> &MeshKD {
        &self.mesh
    }

    /// Whether any `+`-direction correction remains (phase A membership).
    fn has_plus_work(&self, node: NodeId, dst: NodeId) -> bool {
        (0..self.mesh.dims()).any(|d| self.mesh.coord(dst, d) > self.mesh.coord(node, d))
    }

    fn entry_class(&self, node: NodeId, dst: NodeId) -> u8 {
        if self.has_plus_work(node, dst) {
            CLASS_A
        } else {
            CLASS_B
        }
    }
}

impl RoutingFunction for MeshKDFullyAdaptive {
    type Msg = MeshKDMsg;

    fn topology(&self) -> &dyn Topology {
        &self.mesh
    }

    fn num_classes(&self) -> usize {
        2
    }

    fn initial_msg(&self, _src: NodeId, dst: NodeId) -> MeshKDMsg {
        MeshKDMsg { dst }
    }

    fn destination(&self, msg: &MeshKDMsg) -> NodeId {
        msg.dst
    }

    fn deliverable(&self, node: NodeId, msg: &MeshKDMsg) -> bool {
        node == msg.dst
    }

    fn for_each_transition(
        &self,
        at: QueueId,
        msg: &MeshKDMsg,
        f: &mut dyn FnMut(Transition<MeshKDMsg>),
    ) {
        let u = at.node;
        let dst = msg.dst;
        match at.kind {
            QueueKind::Inject => f(Transition {
                kind: LinkKind::Static,
                hop: HopKind::Internal,
                to: QueueId::central(u, self.entry_class(u, dst)),
                msg: *msg,
            }),
            QueueKind::Central(class) => {
                if u == dst {
                    f(Transition {
                        kind: LinkKind::Static,
                        hop: HopKind::Internal,
                        to: QueueId::deliver(u),
                        msg: *msg,
                    });
                    return;
                }
                debug_assert!(self.can_hold(u, class, msg), "phase invariant");
                for d in 0..self.mesh.dims() {
                    let (cu, cd) = (self.mesh.coord(u, d), self.mesh.coord(dst, d));
                    if cd > cu {
                        // `+` move: static in phase A (phase-B messages
                        // have no such work).
                        let v = self.mesh.neighbor(u, 2 * d).expect("+ move stays inside");
                        f(Transition {
                            kind: LinkKind::Static,
                            hop: HopKind::Link(2 * d),
                            to: QueueId::central(v, self.entry_class(v, dst)),
                            msg: *msg,
                        });
                    } else if cd < cu {
                        // `-` move: dynamic while in phase A, static in
                        // phase B.
                        let v = self
                            .mesh
                            .neighbor(u, 2 * d + 1)
                            .expect("- move stays inside");
                        let (kind, to_class) = if class == CLASS_A {
                            (LinkKind::Dynamic, CLASS_A)
                        } else {
                            (LinkKind::Static, CLASS_B)
                        };
                        f(Transition {
                            kind,
                            hop: HopKind::Link(2 * d + 1),
                            to: QueueId::central(v, to_class),
                            msg: *msg,
                        });
                    }
                }
            }
            QueueKind::Deliver => {}
        }
    }

    fn buffer_classes(&self, _node: NodeId, port: Port) -> Vec<BufferClass> {
        if port.is_multiple_of(2) {
            // `+` channels: phase-A static traffic, possibly completing
            // phase A on arrival.
            vec![BufferClass::Static(CLASS_A), BufferClass::Static(CLASS_B)]
        } else {
            // `-` channels: phase-B static plus phase-A dynamic traffic.
            vec![BufferClass::Static(CLASS_B), BufferClass::Dynamic]
        }
    }

    fn is_minimal(&self) -> bool {
        true
    }

    fn max_hops(&self) -> usize {
        self.mesh.extents().iter().map(|e| e - 1).sum()
    }

    /// The phase invariant: q_A iff a `+` move remains.
    fn can_hold(&self, node: NodeId, class: u8, msg: &MeshKDMsg) -> bool {
        class == self.entry_class(node, msg.dst)
    }

    fn name(&self) -> String {
        let e: Vec<String> = self
            .mesh
            .extents()
            .iter()
            .map(ToString::to_string)
            .collect();
        format!("meshkd-fully-adaptive({})", e.join("x"))
    }
}

impl Symmetry for MeshKDFullyAdaptive {
    fn queue_class(&self, q: QueueId) -> QueueClass {
        match q.kind {
            QueueKind::Inject => QueueClass::inject(),
            QueueKind::Deliver => QueueClass::deliver(),
            QueueKind::Central(c) => {
                let level: usize = (0..self.mesh.dims())
                    .map(|d| {
                        let cu = self.mesh.coord(q.node, d);
                        if c == CLASS_A {
                            cu
                        } else {
                            self.mesh.extents()[d] - 1 - cu
                        }
                    })
                    .sum();
                QueueClass::central(c, u32::try_from(level).expect("mesh level fits u32"))
            }
        }
    }

    fn symmetry(&self) -> String {
        "k-D mesh diagonal levels (A: Σ coords from the origin corner; B: from the far corner), all destinations".into()
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
    fn three_d_mesh_passes_all_checks() {
        let rf = MeshKDFullyAdaptive::new(&[3, 3, 2]);
        let rep = verify::verify_all(&rf, true).unwrap();
        assert!(rep.dynamic_edges > 0);
        assert_eq!(rf.num_classes(), 2);
    }

    #[test]
    fn four_d_mesh_is_deadlock_free() {
        // Full adaptivity checking is exponential; structural +
        // deadlock + minimality checks only at 4-D.
        verify::verify_all(&MeshKDFullyAdaptive::new(&[2, 2, 2, 2]), false).unwrap();
    }

    #[test]
    fn one_d_mesh_degenerates_to_a_line() {
        let rf = MeshKDFullyAdaptive::new(&[6]);
        verify::verify_all(&rf, true).unwrap();
        assert_eq!(rf.max_hops(), 5);
    }

    #[test]
    fn two_d_instance_agrees_with_mesh2d_routing() {
        use crate::mesh::MeshFullyAdaptive;
        // Same transition sets on a 3x4 mesh for every (queue, msg).
        let kd = MeshKDFullyAdaptive::new(&[3, 4]);
        let m2 = MeshFullyAdaptive::new(3, 4);
        for src in 0..12 {
            for dst in 0..12 {
                if src == dst {
                    continue;
                }
                let sg_kd = fadr_qdg::explore::explore_pair(&kd, src, dst);
                let sg_m2 = fadr_qdg::explore::explore_pair(&m2, src, dst);
                // Same reachable queue sets (message states differ in type).
                let mut qk: Vec<_> = sg_kd.states.iter().map(|(q, _)| *q).collect();
                let mut q2: Vec<_> = sg_m2.states.iter().map(|(q, _)| *q).collect();
                qk.sort();
                qk.dedup();
                q2.sort();
                q2.dedup();
                assert_eq!(qk, q2, "{src}->{dst}");
            }
        }
    }
}
