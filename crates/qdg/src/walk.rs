//! One walk per destination over a routing function's reachable states.
//!
//! A route's transitions depend only on its `(queue, message)` state,
//! never on its source, so one breadth-first walk per **destination**,
//! seeded with every source's injection state, visits exactly the union
//! of the per-pair state graphs of [`crate::explore::explore_pair`] in
//! O(N) walks instead of O(N²). `fadr-lint`'s scheme lints and
//! `fadr-verify`'s class-graph builder are visitors of this one walk.
//! `explore_pair` and `fadr-verify`'s certificate checker keep loops of
//! their own on purpose: they are the independent references the walk
//! is tested against.
//!
//! [`Walk::run`] seeds the injection states in source order, expands
//! states in the order it first sees them and interns every successor
//! before its visitor sees the state. It ends each destination by
//! returning a state on a static stutter cycle, if one exists: a stutter
//! moves a message within its queue, so it adds no QDG edge and the rank
//! argument cannot see such a cycle. A visitor that returns `Err` stops
//! the walk. Buffers are cleared, not freed, between destinations, so
//! peak memory is that of the largest destination.

use std::hash::Hash;

use fadr_topology::NodeId;

use crate::hasher::{FxHashMap, FxHashSet};
use crate::{LinkKind, QueueId, QueueKind, RoutingFunction, Transition};

/// What a reachable state does, as [`Walk::run`] hands it to its visitor.
pub enum Step<'a, M> {
    /// A delivery-queue state: the message was delivered at its node.
    Delivered,
    /// A non-delivered state with no transition: the message is stuck.
    DeadEnd,
    /// A state with moves.
    Moves {
        /// The state's transitions, in the routing function's order.
        ts: &'a [Transition<M>],
        /// Whether one of them is static (§ 2 condition 3).
        has_static: bool,
    },
}

/// The per-destination state walk (see the [module docs](self)).
pub struct Walk<M> {
    index: FxHashMap<(QueueId, M), u32>,
    states: Vec<(QueueId, M)>,
    ts: Vec<Transition<M>>,
    /// Static stutter edges of the current destination, by state index.
    stutter: Vec<(u32, u32)>,
    queues: FxHashSet<QueueId>,
    states_explored: usize,
}

impl<M> Default for Walk<M> {
    fn default() -> Self {
        Self {
            index: FxHashMap::default(),
            states: Vec::new(),
            ts: Vec::new(),
            stutter: Vec::new(),
            queues: FxHashSet::default(),
            states_explored: 0,
        }
    }
}

impl<M: Clone + Eq + Hash> Walk<M> {
    /// Walk every state reachable toward `dst`, handing each to `visit`
    /// as `(queue, message, step)`. Returns the visitor's first `Err`,
    /// or else a state on a static stutter cycle, if one exists.
    pub fn run<R, E, F>(
        &mut self,
        rf: &R,
        dst: NodeId,
        mut visit: F,
    ) -> Result<Option<&(QueueId, M)>, E>
    where
        R: RoutingFunction<Msg = M> + ?Sized,
        F: FnMut(QueueId, &M, Step<'_, M>) -> Result<(), E>,
    {
        self.index.clear();
        self.states.clear();
        self.stutter.clear();
        for src in (0..rf.topology().num_nodes()).filter(|&src| src != dst) {
            let seed = (QueueId::inject(src), rf.initial_msg(src, dst));
            intern(&mut self.index, &mut self.states, seed);
        }
        let mut i = 0;
        while i < self.states.len() {
            let (q, msg) = self.states[i].clone();
            let cur = u32::try_from(i).expect("state count fits u32");
            i += 1;
            if q.kind == QueueKind::Deliver {
                visit(q, &msg, Step::Delivered)?;
                continue;
            }
            self.ts.clear();
            let ts = &mut self.ts;
            rf.for_each_transition(q, &msg, &mut |t| ts.push(t));
            if self.ts.is_empty() {
                visit(q, &msg, Step::DeadEnd)?;
                continue;
            }
            self.queues.insert(q);
            let mut has_static = false;
            for t in &self.ts {
                let j = intern(&mut self.index, &mut self.states, (t.to, t.msg.clone()));
                if t.kind == LinkKind::Static {
                    has_static = true;
                    if t.to == q {
                        self.stutter.push((cur, j));
                    }
                }
            }
            let ts = &self.ts;
            visit(q, &msg, Step::Moves { ts, has_static })?;
        }
        self.states_explored += self.states.len();
        Ok(stutter_cycle(&self.stutter).map(|s| &self.states[s as usize]))
    }

    /// The states of the last destination walked, in the order first seen.
    pub fn states(&self) -> &[(QueueId, M)] {
        &self.states
    }

    /// `(queue, message)` states explored, summed over the destinations
    /// walked to the end.
    pub fn states_explored(&self) -> usize {
        self.states_explored
    }

    /// Distinct queues seen with at least one transition, over every
    /// destination walked.
    pub fn queues_seen(&self) -> usize {
        self.queues.len()
    }
}

/// The dense index of `state`, appending it to `states` if new.
fn intern<M: Clone + Eq + Hash>(
    index: &mut FxHashMap<(QueueId, M), u32>,
    states: &mut Vec<(QueueId, M)>,
    state: (QueueId, M),
) -> u32 {
    let fresh = u32::try_from(states.len()).expect("state count fits u32");
    *index.entry(state).or_insert_with_key(|state| {
        states.push(state.clone());
        fresh
    })
}

/// A state index on a cycle of static stutter edges `(from, to)`, if
/// one exists (iterative three-colour DFS from the lowest source).
pub fn stutter_cycle(edges: &[(u32, u32)]) -> Option<u32> {
    let mut adj: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
    for &(a, b) in edges {
        adj.entry(a).or_default().push(b);
    }
    let mut roots: Vec<u32> = adj.keys().copied().collect();
    roots.sort_unstable();
    let mut color: FxHashMap<u32, u8> = FxHashMap::default(); // 1 = gray, 2 = black
    for &start in &roots {
        if color.contains_key(&start) {
            continue;
        }
        color.insert(start, 1);
        let mut stack: Vec<(u32, usize)> = vec![(start, 0)];
        while let Some(frame) = stack.last_mut() {
            let v = frame.0;
            let next = adj.get(&v).and_then(|s| s.get(frame.1).copied());
            frame.1 += 1;
            match next {
                Some(w) => match color.get(&w).copied() {
                    Some(1) => return Some(w),
                    Some(_) => {}
                    None => {
                        color.insert(w, 1);
                        stack.push((w, 0));
                    }
                },
                None => {
                    color.insert(v, 2);
                    stack.pop();
                }
            }
        }
    }
    None
}
