//! Queue dependency graphs and routing-function verification.
//!
//! This crate implements the formal framework of § 2 of the SPAA'91 paper
//! *"Fully-Adaptive Minimal Deadlock-Free Packet Routing in Hypercubes,
//! Meshes, and Other Networks"*:
//!
//! * every node carries an **injection queue**, a **delivery queue**, and a
//!   small fixed set of **central queues** ([`QueueId`] / [`QueueKind`]);
//! * a **routing function** `R̃(q, d)` maps (current queue, destination) to
//!   the set of queues a message may hop to next, each hop labelled as a
//!   **static** or a **dynamic** link ([`LinkKind`]); the static links alone
//!   form the *underlying* routing function `R`;
//! * the **queue dependency graph** (QDG) has the queues as vertices and an
//!   edge `q → q'` whenever some route uses `q'` right after `q`. If the
//!   static-link QDG is acyclic and the three conditions of § 2 hold
//!   (dynamic hops stay within one network hop, `R ⊆ R̃`, and a message
//!   arriving over a dynamic link always retains a static continuation),
//!   then the greedy routing algorithm is deadlock-free.
//!
//! Routing algorithms implement [`RoutingFunction`]; [`explore::Qdg`] builds
//! the reachable-state graph, and [`verify`] model-checks the § 2
//! conditions, minimality, full adaptivity, and bounded path length on
//! concrete (small) network instances.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dot;
pub mod explore;
pub mod graph;
pub mod hasher;
pub mod sym;
pub mod verify;
pub mod walk;

use std::fmt;
use std::hash::Hash;

use fadr_topology::{NodeId, Port, Topology};

/// Which of a node's queues a [`QueueId`] denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QueueKind {
    /// The node's injection queue (`i_n` in the paper); size 1 in § 7.1.
    Inject,
    /// A central routing queue of the given class (e.g. `q_A` = class 0 and
    /// `q_B` = class 1 for the hypercube and mesh algorithms).
    Central(u8),
    /// The node's delivery queue (`d_n`); modelled as unbounded.
    Deliver,
}

/// A queue in the network: a node plus one of its queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueueId {
    /// The node the queue belongs to.
    pub node: NodeId,
    /// Which of the node's queues.
    pub kind: QueueKind,
}

impl QueueId {
    /// The injection queue of `node`.
    pub fn inject(node: NodeId) -> Self {
        Self {
            node,
            kind: QueueKind::Inject,
        }
    }

    /// Central queue `class` of `node`.
    pub fn central(node: NodeId, class: u8) -> Self {
        Self {
            node,
            kind: QueueKind::Central(class),
        }
    }

    /// The delivery queue of `node`.
    pub fn deliver(node: NodeId) -> Self {
        Self {
            node,
            kind: QueueKind::Deliver,
        }
    }
}

impl fmt::Display for QueueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            QueueKind::Inject => write!(f, "i[{}]", self.node),
            QueueKind::Central(c) => write!(f, "q{}[{}]", c, self.node),
            QueueKind::Deliver => write!(f, "d[{}]", self.node),
        }
    }
}

/// Whether a queue-to-queue hop belongs to the underlying DAG (`Static`)
/// or is one of the adaptivity-adding extensions (`Dynamic`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// A link of the underlying acyclic routing function `R`.
    Static,
    /// A dynamic link of the extension `R̃` (may close QDG cycles; a message
    /// taking one must still have a static continuation — § 2, condition 3).
    Dynamic,
}

/// How a hop is physically realized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HopKind {
    /// Between two queues of the same node (injection → central,
    /// central → delivery, or a phase change).
    Internal,
    /// Across the physical channel leaving the current node via `Port`.
    Link(Port),
}

/// One possible next hop of a message: the link's kind, its physical
/// realization, the target queue, and the message's updated routing state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition<M> {
    /// Static or dynamic link.
    pub kind: LinkKind,
    /// Internal move or physical channel.
    pub hop: HopKind,
    /// The queue the message would occupy next.
    pub to: QueueId,
    /// The message's routing state after the hop.
    pub msg: M,
}

/// The traffic class of a physical channel's buffer pair (§ 6): static
/// traffic has one input/output buffer per *target queue class*, dynamic
/// traffic one buffer pair per channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BufferClass {
    /// Buffer feeding the target central queue class on the far side.
    Static(u8),
    /// The channel's single dynamic-traffic buffer.
    Dynamic,
}

/// Fixed-width encoding of a message's routing state for engine snapshots.
///
/// The simulator's checkpoint format (`fadr-snapshot/3`) serializes each
/// in-flight packet's [`RoutingFunction::Msg`] as a short sequence of `u64`
/// words. Implementations must round-trip exactly: `decode(encode(m)) ==
/// Some(m)`, and `decode` must reject word slices of the wrong length so a
/// corrupted snapshot fails loudly instead of resuming a different run.
pub trait SnapshotMsg: Sized {
    /// Append the message's fields to `out` as `u64` words.
    fn encode(&self, out: &mut Vec<u64>);
    /// Rebuild a message from the words written by [`SnapshotMsg::encode`];
    /// `None` if `words` has the wrong length or invalid field values.
    fn decode(words: &[u64]) -> Option<Self>;
}

/// A routing function `R̃` in the paper's § 2 sense, together with enough
/// structure to drive both the model checker and the packet simulator.
///
/// Implementations describe, for every queue and message routing state, the
/// set of possible next hops, each labelled static/dynamic. The *underlying*
/// function `R` is the restriction to [`LinkKind::Static`] hops.
pub trait RoutingFunction {
    /// Per-message routing state (destination plus algorithm-specific
    /// fields such as the phase or the shuffle counter). Must be small and
    /// cheap to clone; the simulator stores one per in-flight packet.
    type Msg: Clone + Eq + Hash + fmt::Debug;

    /// The network this function routes on.
    fn topology(&self) -> &dyn Topology;

    /// Number of central queue classes per node (2 for the paper's
    /// hypercube and mesh algorithms, 4 for the shuffle-exchange).
    fn num_classes(&self) -> usize;

    /// Routing state of a fresh message from `src` to `dst` sitting in the
    /// injection queue `i_src`. Requires `src != dst`.
    fn initial_msg(&self, src: NodeId, dst: NodeId) -> Self::Msg;

    /// Destination node recorded in a message state.
    fn destination(&self, msg: &Self::Msg) -> NodeId;

    /// Whether a message in state `msg` arriving at `node` is consumed
    /// there, i.e. its only transition from the node's central queue is the
    /// internal hop into the delivery queue. The simulator uses this to
    /// move arriving packets straight from the input buffer to the delivery
    /// queue (the two steps are collapsed in § 7.1's latency accounting).
    fn deliverable(&self, node: NodeId, msg: &Self::Msg) -> bool;

    /// Enumerate `R̃(at, Dest(msg))`, invoking `f` once per possible hop.
    ///
    /// Must be callable with `at.kind` being [`QueueKind::Inject`] or
    /// [`QueueKind::Central`]; delivery queues have no outgoing hops.
    /// Hop order matters to the simulator: the paper's node fills output
    /// buffers "from low to high dimensions", so implementations emit
    /// link hops in ascending port order, static before dynamic per port.
    fn for_each_transition(
        &self,
        at: QueueId,
        msg: &Self::Msg,
        f: &mut dyn FnMut(Transition<Self::Msg>),
    );

    /// Buffer classes present on the directed channel `node --port-->`
    /// (§ 6's per-link input/output buffer sets).
    fn buffer_classes(&self, node: NodeId, port: Port) -> Vec<BufferClass>;

    /// Whether the algorithm claims minimality (checked by
    /// [`verify::verify_minimal`] on concrete instances).
    fn is_minimal(&self) -> bool;

    /// Upper bound on the number of link hops of any route, used by the
    /// livelock/bounded-path check (e.g. `3n` for the shuffle-exchange).
    fn max_hops(&self) -> usize;

    /// Human-readable algorithm name.
    fn name(&self) -> String;

    /// A relative key for the central state `(node, class, msg)`, or
    /// `None` (the default) to key the state by itself.
    ///
    /// A scheme whose moves do not depend on the node's address returns
    /// one key for every state that moves alike, and the simulator's
    /// routing-state table (`fadr_sim::StateTable`) then stores one row
    /// per key instead of one per state. A state's *fill position* for
    /// a link move is the index of the move's output buffer among its
    /// node's output buffers, in `fadr_sim::Layout` order: ports
    /// ascending, each port's [`RoutingFunction::buffer_classes`] in
    /// declared order.
    ///
    /// # Contract
    ///
    /// Take any two reachable central states with the same key. They
    /// must have:
    ///
    /// * the same central class;
    /// * the same link moves, listed by fill position (ties in emission
    ///   order), each written as (fill position at their node, arrival
    ///   class, successor key or "delivers");
    /// * the same stutter moves, in emission order, each written as
    ///   (arrival class, successor key).
    ///
    /// A successor state without a key stands for itself. A scheme
    /// cannot declare a key when one key's fill positions differ between
    /// nodes, as when a port's buffer classes depend on the node's
    /// address. The table trusts the contract; `fadr-lint`'s `state-key`
    /// lint checks it over every reachable state, as the
    /// cross-validation suite checks [`sym::Symmetry`].
    fn state_key(&self, _node: NodeId, _class: u8, _msg: &Self::Msg) -> Option<u64> {
        None
    }

    /// Whether central queue `class` at `node`, short of the message's
    /// destination, can hold a message in state `msg`: the invariant the
    /// scheme's transitions assume, such as its phase or a bounded
    /// counter (`true` by default). Debug builds assert it there, and
    /// the simulator's snapshot restore rejects a queued packet that
    /// breaks it.
    fn can_hold(&self, _node: NodeId, _class: u8, _msg: &Self::Msg) -> bool {
        true
    }

    /// Collect all transitions into a vector (convenience; the simulator
    /// uses [`RoutingFunction::for_each_transition`] directly).
    fn transitions(&self, at: QueueId, msg: &Self::Msg) -> Vec<Transition<Self::Msg>> {
        let mut out = Vec::new();
        self.for_each_transition(at, msg, &mut |t| out.push(t));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_id_display() {
        assert_eq!(QueueId::inject(3).to_string(), "i[3]");
        assert_eq!(QueueId::central(5, 1).to_string(), "q1[5]");
        assert_eq!(QueueId::deliver(0).to_string(), "d[0]");
    }

    #[test]
    fn queue_id_ordering_groups_by_kind_then_node() {
        let a = QueueId::central(1, 0);
        let b = QueueId::central(1, 1);
        assert!(a < b);
    }
}
