//! Symmetry-reduced construction of the static class-dependency graph.
//!
//! The exhaustive checker in `fadr_qdg::verify` explores every
//! `(src, dst)` pair — O(N²) explorations. The builder is instead a
//! visitor of the one per-destination state walk ([`fadr_qdg::walk`]),
//! which seeds every source's injection state at once and so visits
//! exactly the union of the per-pair state graphs in O(N) walks.
//!
//! On top of it, the scheme's [`Symmetry`] declaration quotients queues
//! into [`QueueClass`]es and may nominate representative destinations.
//! Every concrete static edge observed during exploration contributes its
//! class edge, so when all destinations are explored the class graph is
//! an *invariant abstraction*: acyclicity of the class graph implies
//! acyclicity of the concrete static QDG (ranks over classes lift through
//! the classifier). Scheme-declared trust enters only when the
//! representative set is a proper subset of the destinations.
//!
//! Alongside the graph the builder turns the walk's per-state facts into
//! the paper's § 2 checks, returning the first violation: no dead ends,
//! every non-delivered state keeps a static continuation (condition 3),
//! delivery happens at the destination only — and, because same-queue
//! "stutter" transitions are invisible at the QDG level (matching
//! `build_qdg`), no cycle among the static stutters the walk reports.

use fadr_qdg::graph::{Digraph, QueueMemo};
use fadr_qdg::hasher::{FxHashMap, FxHashSet};
use fadr_qdg::sym::{QueueClass, Symmetry};
use fadr_qdg::verify::Violation;
use fadr_qdg::walk::{Step, Walk};
use fadr_qdg::{LinkKind, QueueId};
use fadr_topology::NodeId;

/// A concrete static transition witnessing a class edge: the route to
/// `dst` in message state `msg` hops `from → to`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeWitness {
    /// Concrete source queue of the hop.
    pub from: QueueId,
    /// Concrete target queue of the hop.
    pub to: QueueId,
    /// The destination whose routes induce the edge.
    pub dst: NodeId,
    /// Debug rendering of the message state taking the hop.
    pub msg: String,
}

/// Per-class witness that its states retain a static continuation
/// (evidence for the paper's § 2 condition 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EscapeWitness {
    /// The class being witnessed.
    pub class: QueueClass,
    /// A concrete queue of the class.
    pub from: QueueId,
    /// The static continuation observed from it.
    pub to: QueueId,
    /// The destination the witness route belongs to.
    pub dst: NodeId,
}

/// The static dependency graph over queue classes, with witnesses.
pub struct ClassGraph {
    /// Dense class index → class.
    pub classes: Vec<QueueClass>,
    /// Class → dense index.
    pub index: FxHashMap<QueueClass, usize>,
    /// Static class-dependency graph.
    pub static_graph: Digraph,
    /// Number of distinct dynamic class edges observed.
    pub dynamic_class_edges: usize,
    /// One concrete witness per distinct static class edge.
    pub witnesses: FxHashMap<(usize, usize), EdgeWitness>,
    /// One static-continuation witness per class, sorted by class.
    pub escapes: Vec<EscapeWitness>,
    /// The destinations explored.
    pub dsts: Vec<NodeId>,
    /// Whether `dsts` covers every node.
    pub all_dsts: bool,
    /// Distinct concrete queues encountered with outgoing transitions.
    pub queues_seen: usize,
    /// Total `(queue, message)` states explored across destinations.
    pub states_explored: usize,
}

impl ClassGraph {
    /// The dense index of `q`'s class, interning the class on first
    /// sight. `memo` remembers each queue's index, so a transition costs
    /// a `queue_class` call and a map probe only the first time its
    /// queue is seen.
    fn class_index<R: Symmetry + ?Sized>(
        &mut self,
        memo: &mut QueueMemo,
        rf: &R,
        q: QueueId,
    ) -> usize {
        let i = memo.get_or_insert_with(q, || {
            let c = rf.queue_class(q);
            let fresh = self.classes.len();
            let i = *self.index.entry(c).or_insert(fresh);
            if i == fresh {
                self.classes.push(c);
                self.static_graph.ensure_vertex(i);
            }
            u32::try_from(i).expect("class count fits u32")
        });
        i as usize
    }
}

fn violation(detail: String, queues: Vec<QueueId>) -> Violation {
    Violation {
        check: "deadlock-free",
        detail,
        queues,
    }
}

/// Build the class graph and run the per-state § 2 checks.
///
/// With `force_all_dsts` the scheme's representative set is ignored and
/// every destination is explored (the classifier is still applied); the
/// certifier uses this together with [`crate::Concrete`] for the exact
/// fallback pass.
pub fn build<R: Symmetry + ?Sized>(rf: &R, force_all_dsts: bool) -> Result<ClassGraph, Violation> {
    let n = rf.topology().num_nodes();
    let dsts: Vec<NodeId> = if force_all_dsts {
        (0..n).collect()
    } else {
        rf.dst_representatives()
    };
    let all_dsts = dsts.len() == n;
    let mut cg = ClassGraph {
        classes: Vec::new(),
        index: FxHashMap::default(),
        static_graph: Digraph::default(),
        dynamic_class_edges: 0,
        witnesses: FxHashMap::default(),
        escapes: Vec::new(),
        dsts: dsts.clone(),
        all_dsts,
        queues_seen: 0,
        states_explored: 0,
    };
    let mut dynamic: FxHashSet<(usize, usize)> = FxHashSet::default();
    let mut escapes: FxHashMap<usize, EscapeWitness> = FxHashMap::default();
    let mut memo = QueueMemo::new(n, rf.num_classes());
    let mut walk = Walk::default();
    for &dst in &dsts {
        let stutter = walk.run(rf, dst, |q, msg, step| {
            let ts = match step {
                Step::Delivered if q.node != dst => {
                    return Err(violation(
                        format!(
                            "delivered at wrong node: {} instead of {dst} ({msg:?})",
                            q.node
                        ),
                        vec![q],
                    ));
                }
                Step::Delivered => return Ok(()),
                Step::DeadEnd => {
                    return Err(violation(
                        format!("dead end: no transitions at {q} for {msg:?} (dst={dst})"),
                        vec![q],
                    ));
                }
                Step::Moves {
                    has_static: false, ..
                } => {
                    return Err(violation(
                        format!(
                            "condition 3 violated: no static continuation at {q} for {msg:?} (dst={dst})"
                        ),
                        vec![q],
                    ));
                }
                Step::Moves { ts, .. } => ts,
            };
            let a = cg.class_index(&mut memo, rf, q);
            // A stutter holds its queue slot: no class edge (matching
            // `build_qdg`); the walk checks its state-level cycles.
            for t in ts.iter().filter(|t| t.to != q) {
                let b = cg.class_index(&mut memo, rf, t.to);
                match t.kind {
                    LinkKind::Static => {
                        if cg.static_graph.add_edge(a, b) {
                            cg.witnesses.insert(
                                (a, b),
                                EdgeWitness {
                                    from: q,
                                    to: t.to,
                                    dst,
                                    msg: format!("{msg:?}"),
                                },
                            );
                        }
                        escapes.entry(a).or_insert_with(|| EscapeWitness {
                            class: cg.classes[a],
                            from: q,
                            to: t.to,
                            dst,
                        });
                    }
                    LinkKind::Dynamic => {
                        dynamic.insert((a, b));
                    }
                }
            }
            Ok(())
        })?;
        if let Some(&(q, _)) = stutter {
            return Err(violation(
                format!("static stutter cycle at {q} (dst={dst})"),
                vec![q],
            ));
        }
    }
    cg.dynamic_class_edges = dynamic.len();
    cg.states_explored = walk.states_explored();
    cg.queues_seen = walk.queues_seen();
    let mut esc: Vec<EscapeWitness> = escapes.into_values().collect();
    esc.sort_by_key(|e| e.class);
    cg.escapes = esc;
    Ok(cg)
}

#[cfg(test)]
mod tests {
    use fadr_qdg::walk::stutter_cycle;

    #[test]
    fn stutter_cycle_finds_self_loop() {
        assert!(stutter_cycle(&[(3, 3)]).is_some());
    }

    #[test]
    fn stutter_cycle_finds_two_cycle_but_not_chain() {
        assert_eq!(stutter_cycle(&[(0, 1), (1, 2)]), None);
        assert!(stutter_cycle(&[(0, 1), (1, 0)]).is_some());
    }
}
