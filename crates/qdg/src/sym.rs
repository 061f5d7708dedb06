//! Scheme-declared symmetry metadata for scalable static certification.
//!
//! The exhaustive checker in [`crate::verify`] explores every `(src, dst)`
//! pair — exact, but quadratic in the node count. The `fadr-verify` crate
//! instead builds the static QDG per queue *class*: a scheme that knows
//! its own symmetry implements [`Symmetry`] to map every concrete queue to
//! a [`QueueClass`] (an orbit of the scheme's automorphism group, labelled
//! by an automorphism-invariant *level*) and to nominate a set of
//! representative destinations whose routes cover every class-level
//! dependency up to automorphism.
//!
//! Soundness direction: the classifier is *invariant* (every concrete
//! static edge maps to a class edge), so an acyclic class graph lifts to
//! an acyclic concrete static QDG — any rank function over classes ranks
//! the concrete queues through the classifier. The converse does **not**
//! hold: a class cycle may be an artifact of the quotient, which is why
//! the certifier falls back to the identity classifier before rejecting.
//! The default implementation *is* that identity classifier (every queue
//! its own class, every destination a representative), which is trivially
//! sound for any scheme.
//!
//! A scheme declares one more symmetry beside [`Symmetry`]: the relative
//! state key [`RoutingFunction::state_key`], which names the states that
//! move alike at every node so the simulator's routing-state table can
//! share one row between them. Its contract is documented on the method;
//! like this one it is trusted by its user and checked elsewhere (by the
//! `state-key` lint).

use std::fmt;

use fadr_topology::NodeId;

use crate::{QueueId, QueueKind, RoutingFunction};

/// The class of a queue under a scheme's declared symmetry: the central
/// queue kind (which already carries the § 2 buffer class) plus a
/// scheme-specific level invariant (e.g. the Hamming weight of the node
/// for the hypercube hang, `x + y` for the mesh).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueueClass {
    /// Queue kind; [`QueueKind::Central`] carries the buffer class.
    pub kind: QueueKind,
    /// Automorphism-invariant level of the queue's node.
    pub level: u32,
}

impl QueueClass {
    /// Class of an injection queue (all injection queues share level 0:
    /// they have no incoming QDG edges, so lumping them is always sound).
    pub fn inject() -> Self {
        Self {
            kind: QueueKind::Inject,
            level: 0,
        }
    }

    /// Class of a delivery queue (no outgoing QDG edges; lumped).
    pub fn deliver() -> Self {
        Self {
            kind: QueueKind::Deliver,
            level: 0,
        }
    }

    /// Class of a central queue at the given invariant level.
    pub fn central(class: u8, level: u32) -> Self {
        Self {
            kind: QueueKind::Central(class),
            level,
        }
    }

    /// The identity classifier: every queue its own class (level = node).
    pub fn concrete(q: QueueId) -> Self {
        let level = u32::try_from(q.node).expect("node id fits u32");
        match q.kind {
            QueueKind::Inject => Self {
                kind: QueueKind::Inject,
                level,
            },
            QueueKind::Deliver => Self {
                kind: QueueKind::Deliver,
                level,
            },
            QueueKind::Central(c) => Self::central(c, level),
        }
    }

    /// The concrete queue a class of the identity classifier denotes.
    /// Only meaningful for classes produced by [`QueueClass::concrete`].
    pub fn as_concrete_queue(self) -> QueueId {
        QueueId {
            node: self.level as usize,
            kind: self.kind,
        }
    }
}

impl fmt::Display for QueueClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            QueueKind::Inject => write!(f, "i@{}", self.level),
            QueueKind::Central(c) => write!(f, "q{}@{}", c, self.level),
            QueueKind::Deliver => write!(f, "d@{}", self.level),
        }
    }
}

/// A routing function that additionally declares its symmetry structure.
///
/// # Contract
///
/// Implementations promise that for every destination `d` there is an
/// automorphism `σ` of the scheme with `σ(d)` in
/// [`Symmetry::dst_representatives`] such that `σ` maps routes to routes,
/// commutes with the transition relation, and **preserves
/// [`Symmetry::queue_class`]**. Then every static QDG edge induced by
/// some `(src, d)` appears, as a class edge, among the routes of a
/// representative destination — so the class graph built from the
/// representatives alone covers the whole network, and the per-state
/// progress checks on representative destinations cover all destinations.
///
/// The promise is *trusted* by the certifier (and documented per scheme
/// in DESIGN.md § 10); the cross-validation suite checks it against the
/// exhaustive explorer on small instances. The defaults — identity
/// classifier, all destinations — make the promise vacuous and are sound
/// for any scheme.
pub trait Symmetry: RoutingFunction {
    /// The class of queue `q` under the scheme's automorphism group.
    fn queue_class(&self, q: QueueId) -> QueueClass {
        QueueClass::concrete(q)
    }

    /// Representative destinations covering all destinations up to
    /// class-preserving automorphism.
    fn dst_representatives(&self) -> Vec<NodeId> {
        (0..self.topology().num_nodes()).collect()
    }

    /// Human-readable description of the symmetry argument.
    fn symmetry(&self) -> String {
        "concrete (identity classifier, all destinations)".into()
    }

    /// Whether the classifier actually merges queues or drops
    /// destinations (`false` for the identity defaults). The certifier
    /// uses this to decide whether a class cycle needs a concrete rebuild
    /// before it may be reported as a real counterexample.
    fn is_reduced(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concrete_classifier_roundtrips() {
        for q in [
            QueueId::inject(3),
            QueueId::central(5, 1),
            QueueId::deliver(0),
        ] {
            assert_eq!(QueueClass::concrete(q).as_concrete_queue(), q);
        }
    }

    #[test]
    fn class_display() {
        assert_eq!(QueueClass::inject().to_string(), "i@0");
        assert_eq!(QueueClass::central(1, 3).to_string(), "q1@3");
        assert_eq!(QueueClass::deliver().to_string(), "d@0");
    }

    #[test]
    fn classes_order_by_kind_then_level() {
        assert!(QueueClass::central(0, 9) < QueueClass::central(1, 0));
        assert!(QueueClass::central(0, 1) < QueueClass::central(0, 2));
    }
}
