//! Exhaustive construction of the queue dependency graph and of the
//! per-(source, destination) reachable-state graphs.
//!
//! The QDG of § 2 is defined over *routes that actually occur*: there is an
//! edge `q → q'` iff some injection/destination pair produces a route using
//! `q'` immediately after `q`. We therefore build it by exploring, for every
//! ordered pair `(src, dst)`, all message states reachable from the
//! injection queue under `R̃`.

use std::collections::{HashMap, VecDeque};

use crate::graph::Digraph;
use crate::{LinkKind, QueueId, QueueKind, RoutingFunction, Transition};

/// The queue dependency graph of a routing function on a concrete network.
#[derive(Debug, Clone)]
pub struct Qdg {
    /// Dense queue index → queue id.
    pub queues: Vec<QueueId>,
    /// Queue id → dense index.
    pub index: HashMap<QueueId, usize>,
    /// Static-link subgraph (the underlying `D = (Q, A_s)`).
    pub static_graph: Digraph,
    /// Full graph `D̃ = (Q, A_s ∪ A_d)`.
    pub full_graph: Digraph,
    /// Edges that occur (at least) as dynamic links.
    pub dynamic_edges: Vec<(usize, usize)>,
}

impl Qdg {
    /// Dense index of a queue, inserting it if new.
    fn intern(&mut self, q: QueueId) -> usize {
        if let Some(&i) = self.index.get(&q) {
            return i;
        }
        let i = self.queues.len();
        self.queues.push(q);
        self.index.insert(q, i);
        self.static_graph.ensure_vertex(i);
        self.full_graph.ensure_vertex(i);
        i
    }

    /// Whether the underlying (static) QDG is acyclic — the paper's
    /// sufficient condition for deadlock freedom of the greedy algorithm.
    pub fn static_is_acyclic(&self) -> bool {
        self.static_graph.is_acyclic()
    }

    /// A cycle of the static QDG, as queue ids, if one exists.
    pub fn static_cycle(&self) -> Option<Vec<QueueId>> {
        self.static_graph
            .find_cycle()
            .map(|c| c.into_iter().map(|i| self.queues[i]).collect())
    }

    /// The paper's `Level(q)` over the static DAG; `None` if the static
    /// QDG is cyclic (the scheme is rejected — levels don't exist).
    pub fn static_levels(&self) -> Option<HashMap<QueueId, usize>> {
        let lv = self.static_graph.levels()?;
        Some(self.queues.iter().copied().zip(lv).collect())
    }
}

/// Build the QDG by exploring every `(src, dst)` pair with `src != dst`.
pub fn build_qdg<R: RoutingFunction + ?Sized>(rf: &R) -> Qdg {
    let n = rf.topology().num_nodes();
    let mut qdg = Qdg {
        queues: Vec::new(),
        index: HashMap::new(),
        static_graph: Digraph::default(),
        full_graph: Digraph::default(),
        dynamic_edges: Vec::new(),
    };
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            let states = explore_pair(rf, src, dst);
            for (state_idx, (q, msg)) in states.states.iter().enumerate() {
                let a = qdg.intern(*q);
                let _ = msg;
                for t in &states.transitions[state_idx] {
                    // A "stutter" back into the same queue (e.g. the
                    // shuffle-exchange's degenerate one-node cycles) holds
                    // its existing slot rather than acquiring a new one, so
                    // it creates no queue dependency.
                    if t.to == *q {
                        continue;
                    }
                    let b = qdg.intern(t.to);
                    qdg.full_graph.add_edge(a, b);
                    match t.kind {
                        LinkKind::Static => {
                            qdg.static_graph.add_edge(a, b);
                        }
                        LinkKind::Dynamic => {
                            if !qdg.dynamic_edges.contains(&(a, b)) {
                                qdg.dynamic_edges.push((a, b));
                            }
                        }
                    }
                }
            }
        }
    }
    qdg
}

/// Reachable-state graph for one `(src, dst)` pair: every `(queue, msg)`
/// state reachable from the injection queue, with its outgoing transitions.
#[derive(Debug, Clone)]
pub struct StateGraph<M> {
    /// The `(queue, message-state)` pairs, index 0 being the injection state.
    pub states: Vec<(QueueId, M)>,
    /// Outgoing transitions per state (empty for delivery states).
    pub transitions: Vec<Vec<Transition<M>>>,
    /// Dense successor indices per state aligned with `transitions`
    /// (`usize::MAX` marks a transition into a delivery queue, which is
    /// also materialized as a state with no successors).
    pub succ: Vec<Vec<usize>>,
    /// The source node explored from.
    pub src: usize,
    /// The destination node explored to.
    pub dst: usize,
}

impl<M> StateGraph<M> {
    /// Whether state `i` is a delivery state (message has arrived).
    pub fn is_delivered(&self, i: usize) -> bool {
        self.states[i].0.kind == QueueKind::Deliver
    }
}

/// Explore all states reachable for one `(src, dst)` pair.
pub fn explore_pair<R: RoutingFunction + ?Sized>(
    rf: &R,
    src: usize,
    dst: usize,
) -> StateGraph<R::Msg> {
    assert_ne!(src, dst, "explore_pair requires src != dst");
    let init = (QueueId::inject(src), rf.initial_msg(src, dst));
    let mut index: HashMap<(QueueId, R::Msg), usize> = HashMap::new();
    let mut states = vec![init.clone()];
    index.insert(init, 0);
    let mut transitions: Vec<Vec<Transition<R::Msg>>> = Vec::new();
    let mut succ: Vec<Vec<usize>> = Vec::new();
    let mut frontier = VecDeque::from([0usize]);
    while let Some(i) = frontier.pop_front() {
        // `states` only grows, so clone the state out to appease borrows.
        let (q, msg) = states[i].clone();
        let ts = if q.kind == QueueKind::Deliver {
            Vec::new()
        } else {
            rf.transitions(q, &msg)
        };
        let mut row = Vec::with_capacity(ts.len());
        for t in &ts {
            let key = (t.to, t.msg.clone());
            let j = *index.entry(key.clone()).or_insert_with(|| {
                let j = states.len();
                states.push(key);
                frontier.push_back(j);
                j
            });
            row.push(j);
        }
        // States are processed in insertion order, so rows align.
        debug_assert_eq!(transitions.len(), i);
        transitions.push(ts);
        succ.push(row);
    }
    StateGraph {
        states,
        transitions,
        succ,
        src,
        dst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::test_fixtures::EcubeHypercube;

    #[test]
    fn ecube_pair_exploration_is_a_single_path() {
        let rf = EcubeHypercube::new(3);
        let sg = explore_pair(&rf, 0b000, 0b101);
        // Oblivious: one injection state, one state per hop node, one
        // delivery state; dims 0 then 2 corrected.
        let nodes: Vec<_> = sg.states.iter().map(|(q, _)| q.node).collect();
        assert_eq!(nodes, vec![0b000, 0b000, 0b001, 0b101, 0b101]);
        assert!(sg.is_delivered(4));
        assert!(!sg.is_delivered(3));
    }

    #[test]
    fn ecube_qdg_is_static_only_but_cyclic() {
        // Single-queue store-and-forward e-cube: the QDG contains e.g.
        // q[00] -> q[01] -> q[11] -> q[10] -> q[00].
        let rf = EcubeHypercube::new(3);
        let qdg = build_qdg(&rf);
        assert!(qdg.dynamic_edges.is_empty());
        assert!(!qdg.static_is_acyclic());
        assert!(qdg.static_cycle().is_some());
        // Levels are undefined on a cyclic static QDG: callers get None,
        // not a panic (the fuzzer feeds cyclic QDGs deliberately).
        assert!(qdg.static_levels().is_none());
        // 8 inject + 8 central + 8 deliver queues.
        assert_eq!(qdg.queues.len(), 24);
    }

    #[test]
    fn hang_static_levels_start_at_injection() {
        use crate::verify::test_fixtures::HangHypercubeStatic;
        let rf = HangHypercubeStatic::new(3);
        let qdg = build_qdg(&rf);
        assert!(qdg.static_is_acyclic());
        let levels = qdg.static_levels().expect("acyclic static QDG has levels");
        // Injection queues are sources (level 0), and phase-B queues sit
        // strictly above the phase-A queue of the same node.
        for v in 0..rf.topology().num_nodes() {
            assert_eq!(levels[&QueueId::inject(v)], 0);
            // q_A of the all-ones node is never used (phase A requires a
            // pending 0→1 correction), so compare only where both exist.
            if let (Some(a), Some(b)) = (
                levels.get(&QueueId::central(v, 0)),
                levels.get(&QueueId::central(v, 1)),
            ) {
                assert!(b > a, "node {v}: level(qB)={b} <= level(qA)={a}");
            }
        }
    }
}
