//! Re-certification of a scheme under permanent faults: the degraded
//! QDG on the surviving network.
//!
//! The simulator's fault layer (`fadr_sim::fault`) restricts routing,
//! once any permanent fault exists, to moves that strictly shorten the
//! **surviving-graph** distance to the destination, with a static
//! escape hop (restarting the routing state at the next node) as
//! fallback whenever no static move survives. [`Faulted`] models that
//! degraded routing function exactly, as a [`RoutingFunction`] over the
//! surviving network, so the ordinary certifier pipeline
//! ([`crate::certify`] + [`crate::check_certificate`]) applies
//! unchanged: an accepted fault plan ships with a rank-function
//! certificate for its degraded QDG, a rejected one with a concrete
//! counterexample (a dead-end state when the plan disconnects some
//! destination, or a static cycle among the degraded edges).
//!
//! Dead nodes are compacted away: the wrapper renumbers the surviving
//! nodes `0..m` and presents a [`SurvivingTopology`] over them, so
//! every exploration seed and destination is live by construction.
//! Messages keep the inner scheme's representation (original node ids);
//! only the queue ids visible to the certifier are compacted. Traffic
//! to a dead node is not modelled — the simulator drops or
//! partition-reports it rather than routing it.
//!
//! Semantics mirrored from the engine's degraded mode, point for point:
//!
//! * link moves survive iff their channel and target node are alive and
//!   the target strictly decreases the surviving-graph distance to the
//!   destination (`d[to] == d[here] - 1`);
//! * in-place class changes (stutters) are dropped;
//! * if no *static* move survives, the escape hop — the lowest-port
//!   live out-channel making shortest-path progress — is appended as a
//!   static transition whose target state is the restarted
//!   `initial_msg` at the receiving node's entry class (the engine's
//!   `accept_arrival` discards the staged state on an escape hop);
//! * a state with no surviving move and no escape emits nothing, which
//!   the class-graph builder reports as a dead end: the concrete
//!   counterexample for a partitioning plan.

use fadr_qdg::sym::Symmetry;
use fadr_qdg::{BufferClass, HopKind, LinkKind, QueueId, QueueKind, RoutingFunction, Transition};
use fadr_topology::graph::{Csr, DistanceRows};
use fadr_topology::{NodeId, Port, Topology};

use crate::hasher::FxHashSet;

/// The surviving network: live nodes renumbered densely, with dead
/// channels removed. Built by [`Faulted::new`].
pub struct SurvivingTopology {
    name: String,
    max_ports: usize,
    /// `adj[compact node][port]` — compact neighbor over a live channel.
    adj: Vec<Vec<Option<NodeId>>>,
}

impl Topology for SurvivingTopology {
    fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    fn max_ports(&self) -> usize {
        self.max_ports
    }

    fn neighbor(&self, node: NodeId, port: Port) -> Option<NodeId> {
        self.adj[node].get(port).copied().flatten()
    }

    fn reverse_port(&self, node: NodeId, port: Port) -> Option<Port> {
        // A channel and its reverse fail independently, so the link is
        // bidirectional only if the reverse channel also survives.
        let w = self.neighbor(node, port)?;
        (0..self.max_ports).find(|&p| self.adj[w].get(p).copied().flatten() == Some(node))
    }

    fn name(&self) -> String {
        self.name.clone()
    }

    fn as_dyn(&self) -> &dyn Topology {
        self
    }
}

/// A scheme's degraded routing function after a set of permanent faults
/// (see the [module docs](self)). Implements [`RoutingFunction`] over
/// the compacted surviving network and the identity [`Symmetry`]
/// (faults break a scheme's symmetry, so the reduction is never
/// trusted).
pub struct Faulted<'a, R: RoutingFunction + ?Sized> {
    rf: &'a R,
    surv: SurvivingTopology,
    /// Compact node id → original node id.
    orig_of: Vec<NodeId>,
    /// Original node id → compact id (`usize::MAX` = dead).
    comp_of: Vec<usize>,
    /// Permanently dead directed channels, original ids.
    dead_link: FxHashSet<(NodeId, NodeId)>,
    /// Surviving-graph distance rows by original ids, every row filled
    /// (`u32::MAX` = unreachable). `Some` iff any permanent fault
    /// actually bit (a dead node, or a dead link naming a real
    /// channel); without one the wrapper forwards the scheme untouched,
    /// exactly like the engine's `has_dead` gate.
    dist: Option<DistanceRows>,
    name: String,
}

impl<'a, R: RoutingFunction + ?Sized> Faulted<'a, R> {
    /// Wrap `rf` with the permanent faults of a plan: `dead_nodes[v]`
    /// marks node `v` dead, `dead_links` lists dead directed channels
    /// (original node ids — the shapes of
    /// `fadr_sim::FaultPlan::final_dead_nodes` / `final_dead_links`).
    pub fn new(rf: &'a R, dead_nodes: &[bool], dead_links: &[(u32, u32)]) -> Result<Self, String> {
        let topo = rf.topology();
        let n = topo.num_nodes();
        if dead_nodes.len() != n {
            return Err(format!(
                "dead_nodes has {} entries for a {n}-node network",
                dead_nodes.len()
            ));
        }
        let mut dead_link: FxHashSet<(NodeId, NodeId)> = FxHashSet::default();
        for &(a, b) in dead_links {
            let (a, b) = (a as usize, b as usize);
            if a >= n || b >= n {
                return Err(format!(
                    "dead link ({a}, {b}) is outside the {n}-node network"
                ));
            }
            dead_link.insert((a, b));
        }
        let orig_of: Vec<NodeId> = (0..n).filter(|&v| !dead_nodes[v]).collect();
        if orig_of.is_empty() {
            return Err("every node is dead; nothing to certify".into());
        }
        let mut comp_of = vec![usize::MAX; n];
        for (c, &v) in orig_of.iter().enumerate() {
            comp_of[v] = c;
        }
        // Surviving adjacency (compact); count how many dead links name
        // real channels so a plan of no-op link faults stays
        // non-degraded, matching the engine.
        let max_ports = topo.max_ports();
        let mut adj = vec![vec![None; max_ports]; orig_of.len()];
        let mut dead_edges = 0usize;
        for (c, &u) in orig_of.iter().enumerate() {
            for (port, slot) in adj[c].iter_mut().enumerate() {
                let Some(w) = topo.neighbor(u, port) else {
                    continue;
                };
                if dead_link.contains(&(u, w)) {
                    dead_edges += 1;
                    continue;
                }
                if dead_nodes[w] {
                    continue;
                }
                *slot = Some(comp_of[w]);
            }
        }
        let dead_node_count = n - orig_of.len();
        let degraded = dead_node_count > 0 || dead_edges > 0;
        // Every destination's row over the surviving channels: the
        // rows the engine's degraded routing reads too.
        let dist = degraded.then(|| {
            let mut rows = DistanceRows::new(Csr::from_topology(topo, |u, w| {
                !dead_nodes[u] && !dead_nodes[w] && !dead_link.contains(&(u, w))
            }));
            rows.fill_all();
            rows
        });
        let name = format!(
            "{} [degraded: {dead_node_count} dead node(s), {dead_edges} dead link(s)]",
            rf.name()
        );
        let surv = SurvivingTopology {
            name: format!("{} [surviving]", topo.name()),
            max_ports,
            adj,
        };
        Ok(Self {
            rf,
            surv,
            orig_of,
            comp_of,
            dead_link,
            dist,
            name,
        })
    }

    /// Whether any permanent fault actually bit (dead node, or dead
    /// link naming a real channel). A non-degraded wrapper forwards the
    /// scheme untouched.
    pub fn is_degraded(&self) -> bool {
        self.dist.is_some()
    }

    /// The surviving network (compacted live nodes).
    pub fn surviving(&self) -> &SurvivingTopology {
        &self.surv
    }

    /// Whether the directed original-id channel `u → w` survives.
    fn edge_alive(&self, u: NodeId, w: NodeId) -> bool {
        self.comp_of[w] != usize::MAX && !self.dead_link.contains(&(u, w))
    }

    /// The central class the injection queue's transition enters for
    /// `msg` at original node `node` (the engine's `entry_class`).
    fn entry_class(&self, node: NodeId, msg: &R::Msg) -> u8 {
        let mut entry: Option<u8> = None;
        self.rf
            .for_each_transition(QueueId::inject(node), msg, &mut |t| {
                if let QueueKind::Central(c) = t.to.kind {
                    entry = Some(c);
                }
            });
        entry.expect("injection transition exists")
    }
}

impl<R: RoutingFunction + ?Sized> RoutingFunction for Faulted<'_, R> {
    type Msg = R::Msg;

    fn topology(&self) -> &dyn Topology {
        &self.surv
    }

    fn num_classes(&self) -> usize {
        self.rf.num_classes()
    }

    fn initial_msg(&self, src: NodeId, dst: NodeId) -> Self::Msg {
        self.rf.initial_msg(self.orig_of[src], self.orig_of[dst])
    }

    fn destination(&self, msg: &Self::Msg) -> NodeId {
        self.comp_of[self.rf.destination(msg)]
    }

    fn deliverable(&self, node: NodeId, msg: &Self::Msg) -> bool {
        self.rf.deliverable(self.orig_of[node], msg)
    }

    fn for_each_transition(
        &self,
        at: QueueId,
        msg: &Self::Msg,
        f: &mut dyn FnMut(Transition<Self::Msg>),
    ) {
        let u = self.orig_of[at.node];
        let inner_at = QueueId {
            node: u,
            kind: at.kind,
        };
        // Remap a transition target into the compact space; internal
        // hops stay at the node, link hops land on a live neighbor by
        // the filters below.
        let comp_of = &self.comp_of;
        let remap = |t: Transition<R::Msg>| Transition {
            kind: t.kind,
            hop: t.hop,
            to: QueueId {
                node: comp_of[t.to.node],
                kind: t.to.kind,
            },
            msg: t.msg,
        };
        let Some(dist) = &self.dist else {
            // No permanent fault bit: the compaction is the identity
            // and the engine routes undegraded — forward everything.
            self.rf
                .for_each_transition(inner_at, msg, &mut |t| f(remap(t)));
            return;
        };
        if at.kind == QueueKind::Inject {
            // Injection transitions are internal (inject → central at
            // the same, live, node): forward them.
            self.rf
                .for_each_transition(inner_at, msg, &mut |t| f(remap(t)));
            return;
        }
        let dst = self.rf.destination(msg);
        if u == dst {
            // At the destination the only transition is the internal
            // delivery hop; degraded mode never filters delivery.
            self.rf
                .for_each_transition(inner_at, msg, &mut |t| f(remap(t)));
            return;
        }
        let d = dist.get(dst).expect("every row is filled");
        let here = d[u];
        let mut kept_static = false;
        self.rf.for_each_transition(inner_at, msg, &mut |t| {
            match t.hop {
                // Stutters and in-place class changes are dropped: they
                // make no distance progress (engine: `buf == NONE`).
                HopKind::Internal => {}
                HopKind::Link(_) => {
                    let w = t.to.node;
                    if here != u32::MAX && self.edge_alive(u, w) && d[w] == here - 1 {
                        if t.kind == LinkKind::Static {
                            kept_static = true;
                        }
                        f(remap(t));
                    }
                }
            }
        });
        if !kept_static && here != u32::MAX {
            debug_assert!(here > 0, "queued state at its destination");
            // Static escape fallback: the lowest-port live out-channel
            // making shortest-path progress. The receiver restarts the
            // routing state (`accept_arrival` discards the staged one),
            // so the target state is `initial_msg` at its entry class —
            // or delivery, when the hop lands on the destination.
            let topo = self.rf.topology();
            for port in 0..topo.max_ports() {
                let Some(w) = topo.neighbor(u, port) else {
                    continue;
                };
                if !self.edge_alive(u, w) || d[w] != here - 1 {
                    continue;
                }
                if w == dst {
                    f(Transition {
                        kind: LinkKind::Static,
                        hop: HopKind::Link(port),
                        to: QueueId::deliver(self.comp_of[w]),
                        msg: msg.clone(),
                    });
                } else {
                    let restarted = self.rf.initial_msg(w, dst);
                    let entry = self.entry_class(w, &restarted);
                    f(Transition {
                        kind: LinkKind::Static,
                        hop: HopKind::Link(port),
                        to: QueueId::central(self.comp_of[w], entry),
                        msg: restarted,
                    });
                }
                return;
            }
            unreachable!("here < MAX implies a surviving shortest-path hop");
        }
        // here == MAX with nothing kept: emit no transition at all —
        // the class-graph builder reports the dead end, which is the
        // concrete counterexample for a partitioning plan.
    }

    fn buffer_classes(&self, node: NodeId, port: Port) -> Vec<BufferClass> {
        self.rf.buffer_classes(self.orig_of[node], port)
    }

    fn is_minimal(&self) -> bool {
        // Every degraded hop decreases the surviving-graph distance by
        // exactly one, so the degraded function is minimal on the
        // surviving network even when the original scheme is not.
        self.is_degraded() || self.rf.is_minimal()
    }

    fn max_hops(&self) -> usize {
        if self.is_degraded() {
            // Each link hop strictly decreases a surviving distance,
            // which is at most m - 1 on an m-node network.
            self.orig_of.len()
        } else {
            self.rf.max_hops()
        }
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

impl<R: RoutingFunction + ?Sized> Symmetry for Faulted<'_, R> {}
