//! The scheme-lint engine: one exact BFS per destination over the
//! concrete instance (identity classifier, all destinations — lints
//! never trust a scheme's symmetry declaration), accumulating per-state
//! findings and the concrete static QDG for the order lints.
//!
//! The exploration mirrors the certifier's source-eliminated form: a
//! route's transitions depend only on the `(queue, message)` state, so
//! one BFS per destination seeded with *every* source's injection state
//! visits exactly the union of the per-pair state graphs in O(N)
//! explorations instead of O(N²).

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt::Debug;
use std::hash::Hash;

use fadr_qdg::graph::Digraph;
use fadr_qdg::sym::Symmetry;
use fadr_qdg::{BufferClass, HopKind, LinkKind, QueueId, QueueKind, Transition};
use fadr_sim::Layout;
use fadr_topology::graph::{Csr, DistanceRows};
use fadr_topology::NodeId;

use crate::{Collector, Finding, LintId};

/// Exploration statistics surfaced in the [`crate::Report`].
pub(crate) struct Stats {
    pub states_explored: usize,
    pub queues_seen: usize,
}

/// A concrete witness for a static QDG edge: some route to `dst` in
/// message state `msg` takes the hop (the edge's endpoints are already
/// named by the enclosing cycle finding).
struct EdgeWitness {
    dst: NodeId,
    msg: String,
}

/// Queue interner: dense vertex indices for the static [`Digraph`].
#[derive(Default)]
struct Interner {
    queues: Vec<QueueId>,
    index: HashMap<QueueId, usize>,
}

impl Interner {
    fn intern(&mut self, q: QueueId) -> usize {
        if let Some(&i) = self.index.get(&q) {
            return i;
        }
        let i = self.queues.len();
        self.queues.push(q);
        self.index.insert(q, i);
        i
    }
}

pub(crate) fn run<R: Symmetry + ?Sized>(rf: &R, col: &mut Collector<'_>) -> Stats {
    let topo = rf.topology();
    let n = topo.num_nodes();
    // Distance-to-dst rows from the bit-parallel reverse BFS, one
    // traversal per 64 destinations: exact even on directed topologies
    // (the shuffle part of SE is one-way), without O(states)
    // `Topology::distance` calls whose default implementation BFSes per
    // query.
    let check_minimal = rf.is_minimal() && col.enabled(LintId::NonMinimalHop);
    let mut dist =
        check_minimal.then(|| DistanceRows::in_order(Csr::from_topology(topo, |_, _| true)));

    let mut intern = Interner::default();
    let mut static_g = Digraph::default();
    let mut witnesses: HashMap<(usize, usize), EdgeWitness> = HashMap::new();
    let mut stats = Stats {
        states_explored: 0,
        queues_seen: 0,
    };
    // Dedup sets so a violation reported once per queue (or queue pair)
    // does not recur for every destination exhibiting it.
    let mut dead_end_seen: HashSet<QueueId> = HashSet::new();
    let mut wrong_delivery_seen: HashSet<QueueId> = HashSet::new();
    let mut no_escape_seen: HashSet<QueueId> = HashSet::new();
    let mut stutter_seen: HashSet<QueueId> = HashSet::new();
    let mut nonminimal_seen: HashSet<(QueueId, QueueId)> = HashSet::new();
    let mut queues_seen: HashSet<QueueId> = HashSet::new();
    // (node, port) → buffer classes actually exercised by some route.
    let mut used_buffers: HashMap<(NodeId, usize), BTreeSet<BufferClass>> = HashMap::new();
    let mut used_central_classes: BTreeSet<u8> = BTreeSet::new();
    let mut key_check = col.enabled(LintId::StateKey).then(KeyCheck::new);

    let mut buf: Vec<Transition<R::Msg>> = Vec::new();
    for dst in 0..n {
        let dist_to_dst = dist.as_mut().map(|d| d.row(dst));
        // BFS seeded with every source's injection state.
        let mut index: HashMap<(QueueId, R::Msg), u32> = HashMap::new();
        let mut states: Vec<(QueueId, R::Msg)> = Vec::new();
        for src in 0..n {
            if src == dst {
                continue;
            }
            let key = (QueueId::inject(src), rf.initial_msg(src, dst));
            if !index.contains_key(&key) {
                index.insert(key.clone(), as_u32(states.len()));
                states.push(key);
            }
        }
        let mut stutter: Vec<(u32, u32)> = Vec::new();
        let mut i = 0usize;
        while i < states.len() {
            let (q, msg) = states[i].clone();
            let cur = as_u32(i);
            i += 1;
            if q.kind == QueueKind::Deliver {
                if q.node != dst && wrong_delivery_seen.insert(q) {
                    col.emit(Finding {
                        lint: LintId::WrongDelivery,
                        message: format!("delivered at node {} instead of {dst}", q.node),
                        queues: vec![q],
                        nodes: vec![q.node],
                        dst: Some(dst),
                        state: Some(format!("{msg:?}")),
                    });
                }
                continue;
            }
            buf.clear();
            rf.for_each_transition(q, &msg, &mut |t| buf.push(t));
            if buf.is_empty() {
                if dead_end_seen.insert(q) {
                    col.emit(Finding {
                        lint: LintId::DeadEnd,
                        message: format!("no transition at {q}: the message is stuck"),
                        queues: vec![q],
                        nodes: vec![q.node],
                        dst: Some(dst),
                        state: Some(format!("{msg:?}")),
                    });
                }
                continue;
            }
            queues_seen.insert(q);
            if let QueueKind::Central(c) = q.kind {
                used_central_classes.insert(c);
                if let Some(kc) = &mut key_check {
                    kc.check(rf, col, (q, c, &msg), &buf, dst);
                }
            }
            let a = intern.intern(q);
            let mut has_static = false;
            for t in &buf {
                let key = (t.to, t.msg.clone());
                let j = match index.get(&key) {
                    Some(&j) => j,
                    None => {
                        let j = as_u32(states.len());
                        index.insert(key.clone(), j);
                        states.push(key);
                        j
                    }
                };
                if let HopKind::Link(port) = t.hop {
                    if let Some(used) = buffer_class_of(t) {
                        used_buffers.entry((q.node, port)).or_default().insert(used);
                        check_declared(rf, col, q, port, used, t, dst);
                    }
                    if let Some(dist) = &dist_to_dst {
                        let (du, dv) = (dist[q.node], dist[t.to.node]);
                        if dv.checked_add(1) != Some(du) && nonminimal_seen.insert((q, t.to)) {
                            col.emit(Finding {
                                lint: LintId::NonMinimalHop,
                                message: format!(
                                    "hop {q} -> {} does not approach dst {dst} \
                                     (distance {} -> {}) though the scheme claims minimality",
                                    t.to,
                                    fmt_dist(du),
                                    fmt_dist(dv),
                                ),
                                queues: vec![q, t.to],
                                nodes: vec![q.node, t.to.node],
                                dst: Some(dst),
                                state: Some(format!("{msg:?}")),
                            });
                        }
                    }
                }
                if t.to == q {
                    // A stutter holds its queue slot: no QDG edge, but a
                    // possible state-level cycle the rank argument misses.
                    if t.kind == LinkKind::Static {
                        has_static = true;
                        stutter.push((cur, j));
                    }
                    continue;
                }
                if t.kind == LinkKind::Static {
                    has_static = true;
                    let b = intern.intern(t.to);
                    if !static_g.has_edge(a, b) {
                        static_g.add_edge(a, b);
                        witnesses.insert(
                            (a, b),
                            EdgeWitness {
                                dst,
                                msg: format!("{msg:?}"),
                            },
                        );
                    }
                }
            }
            if !has_static && no_escape_seen.insert(q) {
                col.emit(Finding {
                    lint: LintId::NoStaticEscape,
                    message: format!(
                        "state at {q} has only dynamic continuations: a message that \
                         arrived over a dynamic link may never regain the static DAG"
                    ),
                    queues: vec![q],
                    nodes: vec![q.node],
                    dst: Some(dst),
                    state: Some(format!("{msg:?}")),
                });
            }
        }
        stats.states_explored += states.len();
        if let Some(s) = stutter_cycle(&stutter) {
            let (q, msg) = &states[s as usize];
            if stutter_seen.insert(*q) {
                col.emit(Finding {
                    lint: LintId::StutterCycle,
                    message: format!(
                        "static stutter cycle at {q}: states cycle in place without \
                         acquiring a new queue, invisible to the QDG rank argument"
                    ),
                    queues: vec![*q],
                    nodes: vec![q.node],
                    dst: Some(dst),
                    state: Some(format!("{msg:?}")),
                });
            }
        }
    }
    stats.queues_seen = queues_seen.len();

    order_lints(col, &intern, &static_g, &witnesses, rf);
    provisioning_lints(rf, col, &used_buffers, &used_central_classes);
    stats
}

// Cast audit: state indices are dense positions in the per-destination
// exploration, which is itself bounded far below `u32::MAX` states by
// memory long before this cast could fail.
fn as_u32(n: usize) -> u32 {
    u32::try_from(n).expect("state count fits u32")
}

fn fmt_dist(d: u32) -> String {
    if d == u32::MAX {
        "unreachable".into()
    } else {
        d.to_string()
    }
}

/// The § 6 buffer a link hop occupies on its channel: static traffic has
/// one buffer pair per target central class, dynamic traffic one per
/// channel. Hops landing in non-central queues use no § 6 buffer.
fn buffer_class_of<M>(t: &Transition<M>) -> Option<BufferClass> {
    match (t.kind, t.to.kind) {
        (LinkKind::Dynamic, _) => Some(BufferClass::Dynamic),
        (LinkKind::Static, QueueKind::Central(c)) => Some(BufferClass::Static(c)),
        (LinkKind::Static, _) => None,
    }
}

fn check_declared<R: Symmetry + ?Sized>(
    rf: &R,
    col: &mut Collector<'_>,
    q: QueueId,
    port: usize,
    used: BufferClass,
    t: &Transition<R::Msg>,
    dst: NodeId,
) {
    if !col.enabled(LintId::UndeclaredBufferClass) {
        return;
    }
    if rf.buffer_classes(q.node, port).contains(&used) {
        return;
    }
    col.emit(Finding {
        lint: LintId::UndeclaredBufferClass,
        message: format!(
            "hop {q} -> {} uses {used:?} on channel {}--port {port}-->, \
             which the channel does not declare",
            t.to, q.node
        ),
        queues: vec![q, t.to],
        nodes: vec![q.node],
        dst: Some(dst),
        state: Some(format!("{:?}", t.msg)),
    });
}

/// Where a keyed state's move leads, in the routing-state table's
/// terms: delivery on arrival, a keyed row, or an unkeyed state (which
/// stands for itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Succ {
    Delivers,
    Key,
    /// `Move::to` indexes [`KeyCheck::unkeyed`].
    State,
}

/// One move as the routing-state table stores it: the fill position
/// (`u32::MAX` for a stutter), the arrival class and the successor
/// (`to` is the key, or the unkeyed state's index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Move {
    to: u64,
    pos: u32,
    class: u8,
    succ: Succ,
}

/// The `state-key` check of the `RoutingFunction::state_key` contract:
/// each key's first-seen class and moves, compared with every later
/// state of the key. A state's moves are listed as the table lists
/// them: link moves by fill position (ties in emission order), then
/// stutters in emission order. Fill positions come from the scheme's
/// `fadr_sim::Layout`, built on the first keyed state. The records are
/// flat — a key index, 8-byte records and one arena of 16-byte moves —
/// so the comparisons mostly stay in cache.
struct KeyCheck<M> {
    layout: Option<Layout>,
    index: HashMap<u64, u32>,
    /// Per key: its class and its moves' range in `moves`.
    records: Vec<(u32, u16, u8)>,
    moves: Vec<Move>,
    /// Per key: its first state (read only to report a finding).
    firsts: Vec<(QueueId, M)>,
    /// Unkeyed successor states, by index.
    unkeyed: Vec<(QueueId, M)>,
    unkeyed_index: HashMap<(QueueId, M), u64>,
    reported: HashSet<u64>,
    scratch: Vec<Move>,
}

impl<M: Clone + Eq + Hash + Debug> KeyCheck<M> {
    fn new() -> Self {
        Self {
            layout: None,
            index: HashMap::new(),
            records: Vec::new(),
            moves: Vec::new(),
            firsts: Vec::new(),
            unkeyed: Vec::new(),
            unkeyed_index: HashMap::new(),
            reported: HashSet::new(),
            scratch: Vec::new(),
        }
    }

    /// Check central state `(q, class, msg)` with transitions `ts`
    /// against the first state of its key. States the table never holds
    /// are skipped: unkeyed ones, deliverable ones (arrivals there
    /// deliver), and ones with a transition the table cannot express,
    /// which other lints report.
    fn check<R: Symmetry<Msg = M> + ?Sized>(
        &mut self,
        rf: &R,
        col: &mut Collector<'_>,
        (q, class, msg): (QueueId, u8, &M),
        ts: &[Transition<M>],
        dst: NodeId,
    ) {
        let Some(key) = rf.state_key(q.node, class, msg) else {
            return;
        };
        if rf.deliverable(q.node, msg) || !self.table_moves(rf, q, ts) {
            return;
        }
        let id = match self.index.entry(key) {
            Entry::Occupied(e) => *e.get() as usize,
            Entry::Vacant(e) => {
                e.insert(u32::try_from(self.records.len()).expect("key count fits u32"));
                let start = u32::try_from(self.moves.len()).expect("move count fits u32");
                let len = u16::try_from(self.scratch.len()).expect("fan-out fits u16");
                self.records.push((start, len, class));
                self.moves.extend_from_slice(&self.scratch);
                self.firsts.push((q, msg.clone()));
                return;
            }
        };
        let (start, len, class0) = self.records[id];
        let moves0 = &self.moves[start as usize..start as usize + usize::from(len)];
        if (class0, moves0) == (class, &self.scratch[..]) || !self.reported.insert(key) {
            return;
        }
        let (q0, msg0) = &self.firsts[id];
        col.emit(Finding {
            lint: LintId::StateKey,
            message: format!(
                "{q0} in state {msg0:?} and {q} in state {msg:?} share state key {key:#x} \
                 but differ: {} vs {}",
                self.render(class0, moves0),
                self.render(class, &self.scratch)
            ),
            queues: vec![*q0, q],
            nodes: vec![q0.node, q.node],
            dst: Some(dst),
            state: Some(format!("{msg:?}")),
        });
    }

    /// Write central state `q`'s moves `ts` into `scratch` in the
    /// routing-state table's terms; false when a transition has no
    /// table form (a link into a non-central queue or onto an
    /// undeclared buffer class, or an internal hop to another node or a
    /// non-central queue).
    fn table_moves<R: Symmetry<Msg = M> + ?Sized>(
        &mut self,
        rf: &R,
        q: QueueId,
        ts: &[Transition<M>],
    ) -> bool {
        let layout = self.layout.get_or_insert_with(|| Layout::new(rf));
        self.scratch.clear();
        for t in ts {
            let QueueKind::Central(class) = t.to.kind else {
                return false;
            };
            let pos = match t.hop {
                HopKind::Link(port) => {
                    match buffer_class_of(t).and_then(|bc| fill_pos(layout, q.node, port, bc)) {
                        Some(pos) => pos,
                        None => return false,
                    }
                }
                HopKind::Internal if t.to.node == q.node => u32::MAX,
                HopKind::Internal => return false,
            };
            let (succ, to) = if pos != u32::MAX && rf.deliverable(t.to.node, &t.msg) {
                (Succ::Delivers, 0)
            } else if let Some(k) = rf.state_key(t.to.node, class, &t.msg) {
                (Succ::Key, k)
            } else {
                let fresh = self.unkeyed.len() as u64;
                let id = *self
                    .unkeyed_index
                    .entry((t.to, t.msg.clone()))
                    .or_insert(fresh);
                if id == fresh {
                    self.unkeyed.push((t.to, t.msg.clone()));
                }
                (Succ::State, id)
            };
            self.scratch.push(Move {
                to,
                pos,
                class,
                succ,
            });
        }
        self.scratch.sort_by_key(|m| m.pos);
        true
    }

    fn render(&self, class: u8, moves: &[Move]) -> String {
        let list: Vec<String> = moves
            .iter()
            .map(|m| {
                let at = if m.pos == u32::MAX {
                    "stutter".to_string()
                } else {
                    format!("pos {}", m.pos)
                };
                let to = match m.succ {
                    Succ::Delivers => "delivers".to_string(),
                    Succ::Key => format!("key {:#x}", m.to),
                    Succ::State => {
                        let (q, msg) = &self.unkeyed[m.to as usize];
                        format!("{q} {msg:?}")
                    }
                };
                format!("{at} -> q{} {to}", m.class)
            })
            .collect();
        format!("class {class} [{}]", list.join(", "))
    }
}

/// The fill position of `node`'s output buffer of class `bc` on `port`
/// (its index among the node's output buffers), if the channel declares
/// the class.
fn fill_pos(layout: &Layout, node: NodeId, port: usize, bc: BufferClass) -> Option<u32> {
    let chan = layout.chan(node, port)? as usize;
    let start = layout.chan_buf_start[chan] as usize;
    let classes = &layout.buf_class[start..start + usize::from(layout.chan_buf_len[chan])];
    let i = classes.iter().position(|&c| c == bc)?;
    Some(layout.buf_out_pos[start + i])
}

/// The class-order lints over the accumulated concrete static QDG.
///
/// A cyclic static QDG is split by *where* the cycle lives: a cycle
/// confined to a single central class is a provisioning bug (however the
/// classes are ordered, the class cannot break its own cycle — add one,
/// cf. `classes_per_phase`), while a cycle spanning classes means the
/// class order itself admits no rank function.
fn order_lints<R: Symmetry + ?Sized>(
    col: &mut Collector<'_>,
    intern: &Interner,
    static_g: &Digraph,
    witnesses: &HashMap<(usize, usize), EdgeWitness>,
    rf: &R,
) {
    if static_g.is_acyclic() {
        quotient_lint(col, intern, static_g, rf);
        return;
    }
    let mut classes: BTreeSet<u8> = BTreeSet::new();
    for q in &intern.queues {
        if let QueueKind::Central(c) = q.kind {
            classes.insert(c);
        }
    }
    let mut confined = false;
    for &c in &classes {
        if !col.enabled(LintId::ClassCapacityExhausted) {
            break;
        }
        let within = static_g.restricted(&|v| intern.queues[v].kind == QueueKind::Central(c));
        let Some(cycle) = within.shortest_cycle() else {
            continue;
        };
        confined = true;
        let queues: Vec<QueueId> = cycle.iter().map(|&v| intern.queues[v]).collect();
        let w = witnesses.get(&(cycle[0], cycle[1 % cycle.len()]));
        col.emit(Finding {
            lint: LintId::ClassCapacityExhausted,
            message: format!(
                "static cycle of {} queue(s) confined to central class {c}: no \
                 ordering of the classes can break it — the class is under-provisioned",
                cycle.len()
            ),
            nodes: queues.iter().map(|q| q.node).collect(),
            queues,
            dst: w.map(|w| w.dst),
            state: w.map(|w| w.msg.clone()),
        });
    }
    if !confined && col.enabled(LintId::UnrankableClassOrder) {
        let cycle = static_g
            .shortest_cycle()
            .expect("cyclic graph has a shortest cycle");
        let queues: Vec<QueueId> = cycle.iter().map(|&v| intern.queues[v]).collect();
        let w = witnesses.get(&(cycle[0], cycle[1 % cycle.len()]));
        col.emit(Finding {
            lint: LintId::UnrankableClassOrder,
            message: format!(
                "static QDG cycle of {} queue(s) spanning several buffer classes: \
                 no rank function over the static class order exists",
                cycle.len()
            ),
            nodes: queues.iter().map(|q| q.node).collect(),
            queues,
            dst: w.map(|w| w.dst),
            state: w.map(|w| w.msg.clone()),
        });
    }
}

/// With a concrete static QDG that is acyclic, check the scheme's
/// *declared* quotient: if the declared classifier folds the DAG into a
/// cyclic class graph, the certifier will be forced into its exact
/// concrete fallback — legal, but the declared symmetry buys nothing.
fn quotient_lint<R: Symmetry + ?Sized>(
    col: &mut Collector<'_>,
    intern: &Interner,
    static_g: &Digraph,
    rf: &R,
) {
    if !rf.is_reduced() || !col.enabled(LintId::NonMonotoneClassOrder) {
        return;
    }
    let mut class_index: BTreeMap<fadr_qdg::sym::QueueClass, usize> = BTreeMap::new();
    let mut class_of = Vec::with_capacity(intern.queues.len());
    for &q in &intern.queues {
        let c = rf.queue_class(q);
        let next = class_index.len();
        class_of.push(*class_index.entry(c).or_insert(next));
    }
    let mut quotient = Digraph::new(class_index.len());
    let mut sample: HashMap<(usize, usize), (QueueId, QueueId)> = HashMap::new();
    for (v, q) in intern.queues.iter().enumerate() {
        for &u in static_g.successors(v) {
            let (a, b) = (class_of[v], class_of[u]);
            // Unlike the concrete graph, a class-level self-loop IS a
            // cycle: two distinct queues of one class depend on each other.
            quotient.add_edge(a, b);
            sample.entry((a, b)).or_insert((*q, intern.queues[u]));
        }
    }
    let Some(cycle) = quotient.shortest_cycle() else {
        return;
    };
    let classes: Vec<String> = {
        let rev: BTreeMap<usize, String> = class_index
            .iter()
            .map(|(c, &i)| (i, c.to_string()))
            .collect();
        cycle.iter().map(|v| rev[v].clone()).collect()
    };
    let (from, to) = sample[&(cycle[0], cycle[1 % cycle.len()])];
    col.emit(Finding {
        lint: LintId::NonMonotoneClassOrder,
        message: format!(
            "declared symmetry quotient is cyclic ({}) although the concrete \
             static QDG is acyclic: the certifier must fall back to the exact pass",
            classes.join(" -> ")
        ),
        queues: vec![from, to],
        nodes: vec![from.node, to.node],
        dst: None,
        state: None,
    });
}

/// The § 6 provisioning warnings: declared-but-unused channel buffers
/// and never-occupied central classes.
fn provisioning_lints<R: Symmetry + ?Sized>(
    rf: &R,
    col: &mut Collector<'_>,
    used_buffers: &HashMap<(NodeId, usize), BTreeSet<BufferClass>>,
    used_central_classes: &BTreeSet<u8>,
) {
    let topo = rf.topology();
    if col.enabled(LintId::ShadowedBufferClass) {
        // Aggregate per buffer class: one warning naming the count of
        // channels shadowing it plus a sample, not one per channel.
        let mut shadowed: BTreeMap<BufferClass, (usize, (NodeId, usize))> = BTreeMap::new();
        for node in 0..topo.num_nodes() {
            for (port, _) in fadr_topology::out_edges(topo, node) {
                let used = used_buffers.get(&(node, port));
                for declared in rf.buffer_classes(node, port) {
                    if used.is_some_and(|u| u.contains(&declared)) {
                        continue;
                    }
                    shadowed.entry(declared).or_insert((0, (node, port))).0 += 1;
                }
            }
        }
        for (class, (count, (node, port))) in shadowed {
            col.emit(Finding {
                lint: LintId::ShadowedBufferClass,
                message: format!(
                    "{class:?} is declared but never used on {count} channel(s) \
                     (e.g. {node}--port {port}-->): the buffers cost hardware for nothing"
                ),
                queues: Vec::new(),
                nodes: vec![node],
                dst: None,
                state: None,
            });
        }
    }
    // Class ids are 8-bit throughout the § 6 buffer encoding; a scheme
    // declaring more classes than fit is a structural finding, not a
    // cast panic (the fuzzer's mutation axis constructs exactly this).
    if rf.num_classes() > 256 {
        col.emit(Finding {
            lint: LintId::ClassCountOverflow,
            message: format!(
                "num_classes = {} exceeds the 256-class id space of the \
                 § 6 buffer encoding",
                rf.num_classes()
            ),
            queues: Vec::new(),
            nodes: Vec::new(),
            dst: None,
            state: None,
        });
    }
    if col.enabled(LintId::UnreachableClass) {
        for c in 0..rf.num_classes().min(256) {
            let c = u8::try_from(c).expect("class index bounded to 256 above");
            if !used_central_classes.contains(&c) {
                col.emit(Finding {
                    lint: LintId::UnreachableClass,
                    message: format!(
                        "central queue class {c} (of num_classes = {}) is never \
                         occupied by any route",
                        rf.num_classes()
                    ),
                    queues: Vec::new(),
                    nodes: Vec::new(),
                    dst: None,
                    state: None,
                });
            }
        }
    }
}

/// Cycle detection over one destination's static stutter transitions
/// (iterative three-color DFS; returns a state index on some cycle).
fn stutter_cycle(edges: &[(u32, u32)]) -> Option<u32> {
    let mut adj: HashMap<u32, Vec<u32>> = HashMap::new();
    for &(a, b) in edges {
        adj.entry(a).or_default().push(b);
    }
    let mut roots: Vec<u32> = adj.keys().copied().collect();
    roots.sort_unstable();
    let mut color: HashMap<u32, u8> = HashMap::new(); // 1 = gray, 2 = black
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reverse_bfs_on_a_directed_path() {
        // 0 -> 1 -> 2: distances TO 2 are [2, 1, 0]; TO 0 only from 0.
        let path = Csr::build(3, |u, out| {
            if u < 2 {
                out.push(u as u32 + 1);
            }
        });
        let mut dist = DistanceRows::new(path);
        assert_eq!(dist.row(2), [2, 1, 0]);
        assert_eq!(dist.row(0), [0, u32::MAX, u32::MAX]);
    }

    #[test]
    fn stutter_cycle_detects_self_loop_and_two_cycle() {
        assert!(stutter_cycle(&[(3, 3)]).is_some());
        assert!(stutter_cycle(&[(0, 1), (1, 0)]).is_some());
        assert_eq!(stutter_cycle(&[(0, 1), (1, 2)]), None);
    }

    #[test]
    fn buffer_class_of_link_hops() {
        use fadr_qdg::Transition;
        let t = |kind, to: QueueId| Transition {
            kind,
            hop: HopKind::Link(0),
            to,
            msg: (),
        };
        assert_eq!(
            buffer_class_of(&t(LinkKind::Static, QueueId::central(1, 2))),
            Some(BufferClass::Static(2))
        );
        assert_eq!(
            buffer_class_of(&t(LinkKind::Dynamic, QueueId::central(1, 0))),
            Some(BufferClass::Dynamic)
        );
        assert_eq!(
            buffer_class_of(&t(LinkKind::Static, QueueId::deliver(1))),
            None
        );
    }
}
