//! A small dense digraph with cycle detection and longest-path levels.
//!
//! Vertices are dense indices assigned by the caller (the QDG explorer maps
//! [`QueueId`]s to indices; [`QueueMemo`] keeps such a map without
//! hashing). Edges are deduplicated.

use crate::hasher::{FxHashMap, FxHashSet};
use crate::{QueueId, QueueKind};

/// Directed graph over vertices `0..n` with deduplicated edges.
#[derive(Debug, Clone, Default)]
pub struct Digraph {
    adj: Vec<Vec<usize>>,
    edge_set: FxHashSet<(usize, usize)>,
}

impl Digraph {
    /// Empty graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
            edge_set: FxHashSet::default(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of (distinct) edges.
    pub fn num_edges(&self) -> usize {
        self.edge_set.len()
    }

    /// Ensure vertex `v` exists (growing the vertex set as needed).
    pub fn ensure_vertex(&mut self, v: usize) {
        if v >= self.adj.len() {
            self.adj.resize(v + 1, Vec::new());
        }
    }

    /// Add edge `a -> b` (idempotent); true if the edge is new.
    pub fn add_edge(&mut self, a: usize, b: usize) -> bool {
        self.ensure_vertex(a.max(b));
        let fresh = self.edge_set.insert((a, b));
        if fresh {
            self.adj[a].push(b);
        }
        fresh
    }

    /// Whether edge `a -> b` is present.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.edge_set.contains(&(a, b))
    }

    /// Successors of `v`.
    pub fn successors(&self, v: usize) -> &[usize] {
        &self.adj[v]
    }

    /// Kahn's algorithm: `Some(topological_order)` if acyclic, else `None`.
    pub fn topological_order(&self) -> Option<Vec<usize>> {
        let n = self.adj.len();
        let mut indeg = vec![0usize; n];
        for succs in &self.adj {
            for &b in succs {
                indeg[b] += 1;
            }
        }
        let mut stack: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = stack.pop() {
            order.push(v);
            for &b in &self.adj[v] {
                indeg[b] -= 1;
                if indeg[b] == 0 {
                    stack.push(b);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Whether the graph is a DAG.
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_some()
    }

    /// One directed cycle, if any (for diagnostics). Uses iterative DFS
    /// with colors; returns the vertex sequence of the cycle.
    pub fn find_cycle(&self) -> Option<Vec<usize>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let n = self.adj.len();
        let mut color = vec![Color::White; n];
        let mut parent = vec![usize::MAX; n];
        for start in 0..n {
            if color[start] != Color::White {
                continue;
            }
            // (vertex, next successor index) stack.
            let mut stack = vec![(start, 0usize)];
            color[start] = Color::Gray;
            while let Some(&mut (v, ref mut i)) = stack.last_mut() {
                if *i < self.adj[v].len() {
                    let u = self.adj[v][*i];
                    *i += 1;
                    match color[u] {
                        Color::White => {
                            color[u] = Color::Gray;
                            parent[u] = v;
                            stack.push((u, 0));
                        }
                        Color::Gray => {
                            // Found a back edge v -> u: reconstruct cycle.
                            let mut cycle = vec![u];
                            let mut w = v;
                            while w != u {
                                cycle.push(w);
                                w = parent[w];
                            }
                            cycle.reverse();
                            return Some(cycle);
                        }
                        Color::Black => {}
                    }
                } else {
                    color[v] = Color::Black;
                    stack.pop();
                }
            }
        }
        None
    }

    /// Strongly connected components, via Kosaraju's algorithm with
    /// explicit-stack DFS (no recursion: safe on ~1e6-vertex path graphs;
    /// see `tests/deep_graphs.rs`). Components are returned in reverse
    /// topological order of the condensation.
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        let n = self.adj.len();
        // Pass 1: finish order on the forward graph.
        let mut finished = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        for start in 0..n {
            if seen[start] {
                continue;
            }
            seen[start] = true;
            let mut stack = vec![(start, 0usize)];
            while let Some(&mut (v, ref mut i)) = stack.last_mut() {
                if *i < self.adj[v].len() {
                    let u = self.adj[v][*i];
                    *i += 1;
                    if !seen[u] {
                        seen[u] = true;
                        stack.push((u, 0));
                    }
                } else {
                    finished.push(v);
                    stack.pop();
                }
            }
        }
        // Pass 2: reverse-graph DFS in reverse finish order.
        let mut radj = vec![Vec::new(); n];
        for (a, succs) in self.adj.iter().enumerate() {
            for &b in succs {
                radj[b].push(a);
            }
        }
        let mut comp = vec![usize::MAX; n];
        let mut comps: Vec<Vec<usize>> = Vec::new();
        for &start in finished.iter().rev() {
            if comp[start] != usize::MAX {
                continue;
            }
            let id = comps.len();
            comp[start] = id;
            let mut members = vec![start];
            let mut stack = vec![start];
            while let Some(v) = stack.pop() {
                for &u in &radj[v] {
                    if comp[u] == usize::MAX {
                        comp[u] = id;
                        members.push(u);
                        stack.push(u);
                    }
                }
            }
            comps.push(members);
        }
        comps.reverse();
        comps
    }

    /// A shortest directed cycle (fewest edges), if any: for each vertex
    /// of each non-trivial SCC, BFS within the component back to the
    /// start. Intended for diagnostics on failed graphs, where minimal
    /// counterexamples matter more than asymptotics.
    pub fn shortest_cycle(&self) -> Option<Vec<usize>> {
        let n = self.adj.len();
        let mut comp = vec![usize::MAX; n];
        let mut nontrivial = Vec::new();
        for (id, members) in self.sccs().into_iter().enumerate() {
            let single = members.len() == 1;
            for &v in &members {
                comp[v] = id;
            }
            if !single {
                nontrivial.push(members);
            } else if self.has_edge(members[0], members[0]) {
                return Some(members); // a self-loop is the minimum possible
            }
        }
        let mut best: Option<Vec<usize>> = None;
        let mut parent = vec![usize::MAX; n];
        for members in nontrivial {
            for &start in &members {
                if let Some(b) = &best {
                    if b.len() <= 2 {
                        return best; // cannot beat a 2-cycle (no self-loops here)
                    }
                    // Any cycle through `start` is at least 2 long; only
                    // BFS while an improvement is possible.
                }
                for &v in &members {
                    parent[v] = usize::MAX;
                }
                let mut frontier = vec![start];
                let mut depth = 1usize;
                'bfs: while !frontier.is_empty() {
                    if let Some(b) = &best {
                        if depth >= b.len() {
                            break;
                        }
                    }
                    let mut next = Vec::new();
                    for &v in &frontier {
                        for &u in &self.adj[v] {
                            if comp[u] != comp[start] {
                                continue;
                            }
                            if u == start {
                                // Reconstruct start -> ... -> v.
                                let mut cycle = vec![v];
                                let mut w = v;
                                while w != start {
                                    w = parent[w];
                                    cycle.push(w);
                                }
                                cycle.reverse();
                                best = Some(cycle);
                                break 'bfs;
                            }
                            if parent[u] == usize::MAX {
                                parent[u] = v;
                                next.push(u);
                            }
                        }
                    }
                    frontier = next;
                    depth += 1;
                }
            }
        }
        best
    }

    /// The subgraph keeping only edges whose *both* endpoints satisfy
    /// `keep` (the vertex set is unchanged, so indices stay valid).
    /// Used to ask order questions of one buffer class at a time, e.g.
    /// "does this class have a static cycle entirely within itself?".
    pub fn restricted(&self, keep: &dyn Fn(usize) -> bool) -> Digraph {
        let mut g = Digraph::new(self.adj.len());
        for (a, succs) in self.adj.iter().enumerate() {
            if !keep(a) {
                continue;
            }
            for &b in succs {
                if keep(b) {
                    g.add_edge(a, b);
                }
            }
        }
        g
    }

    /// The paper's `Level(q)`: length of the longest path from any source
    /// (in-degree-0 vertex) to each vertex. `None` if the graph is
    /// cyclic (levels are only defined on a DAG) — callers deciding
    /// deadlock freedom must treat that as a rejection, not a crash:
    /// the fuzzer feeds cyclic QDGs on purpose.
    pub fn levels(&self) -> Option<Vec<usize>> {
        let order = self.topological_order()?;
        let mut level = vec![0usize; self.adj.len()];
        for &v in &order {
            for &b in &self.adj[v] {
                level[b] = level[b].max(level[v] + 1);
            }
        }
        Some(level)
    }
}

/// A memo from queues to `u32` values, such as a vertex or class index:
/// one dense slot per queue at `node · (num_classes + 2) + kind`
/// (injection 0, central class `c` at `1 + c`, delivery last), and a
/// map for the queues no slot covers (a central class at or above
/// `num_classes`, or a node past `num_nodes`). A slot holds its value
/// plus one, so the slots start zeroed and the pages of a large
/// instance's memo are only committed where queues are seen.
pub struct QueueMemo {
    stride: usize,
    slots: Vec<u32>,
    rest: FxHashMap<QueueId, u32>,
}

impl QueueMemo {
    /// An empty memo sized for `num_nodes` nodes of `num_classes`
    /// central queues each (class ids are 8-bit, so at most 256).
    pub fn new(num_nodes: usize, num_classes: usize) -> Self {
        let stride = num_classes.min(256) + 2;
        Self {
            stride,
            slots: vec![0; num_nodes * stride],
            rest: FxHashMap::default(),
        }
    }

    /// The value memoized for `q`, computed by `f` on first sight. `f`
    /// must return less than `u32::MAX`.
    #[inline]
    pub fn get_or_insert_with(&mut self, q: QueueId, f: impl FnOnce() -> u32) -> u32 {
        let kind = match q.kind {
            QueueKind::Inject => Some(0),
            QueueKind::Central(c) => Some(1 + usize::from(c)).filter(|&k| k < self.stride - 1),
            QueueKind::Deliver => Some(self.stride - 1),
        };
        let slot = kind
            .and_then(|k| q.node.checked_mul(self.stride)?.checked_add(k))
            .and_then(|i| self.slots.get_mut(i));
        match slot {
            Some(&mut v) if v != 0 => v - 1,
            Some(v) => {
                let x = f();
                *v = x + 1;
                x
            }
            None => *self.rest.entry(q).or_insert_with(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acyclic_chain() {
        let mut g = Digraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        assert!(g.is_acyclic());
        assert_eq!(g.levels().unwrap(), vec![0, 1, 2, 3]);
        assert!(g.find_cycle().is_none());
    }

    #[test]
    fn detects_cycle() {
        let mut g = Digraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        assert!(!g.is_acyclic());
        let cycle = g.find_cycle().unwrap();
        assert_eq!(cycle.len(), 3);
        // Every consecutive pair (cyclically) is an edge.
        for i in 0..cycle.len() {
            assert!(g.has_edge(cycle[i], cycle[(i + 1) % cycle.len()]));
        }
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = Digraph::new(1);
        g.add_edge(0, 0);
        assert!(!g.is_acyclic());
        assert_eq!(g.find_cycle().unwrap(), vec![0]);
    }

    #[test]
    fn edges_deduplicated() {
        let mut g = Digraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.successors(0), &[1]);
    }

    #[test]
    fn diamond_levels_take_longest_path() {
        let mut g = Digraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        assert_eq!(g.levels().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn levels_of_a_cyclic_graph_are_none() {
        let mut g = Digraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 1);
        assert_eq!(g.levels(), None);
        // A self-loop is also cyclic.
        let mut s = Digraph::new(1);
        s.add_edge(0, 0);
        assert_eq!(s.levels(), None);
    }

    #[test]
    fn grow_on_demand() {
        let mut g = Digraph::default();
        g.add_edge(5, 2);
        assert_eq!(g.num_vertices(), 6);
        assert!(g.is_acyclic());
    }

    #[test]
    fn sccs_of_a_dag_are_singletons_in_topological_order() {
        let mut g = Digraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 3);
        g.add_edge(3, 2);
        let comps = g.sccs();
        assert_eq!(comps.len(), 4);
        assert!(comps.iter().all(|c| c.len() == 1));
        // Reverse topological order: successors come before predecessors.
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, c) in comps.iter().enumerate() {
                p[c[0]] = i;
            }
            p
        };
        assert!(pos[2] < pos[1] && pos[1] < pos[0]);
        assert!(pos[2] < pos[3] && pos[3] < pos[0]);
    }

    #[test]
    fn sccs_group_cycles() {
        // Two 2-cycles joined by a bridge, plus an isolated vertex.
        let mut g = Digraph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 2);
        let mut sizes: Vec<usize> = g.sccs().iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2, 2]);
    }

    #[test]
    fn shortest_cycle_prefers_the_short_one() {
        // A 5-cycle with a chord making a 2-cycle.
        let mut g = Digraph::new(5);
        for i in 0..5 {
            g.add_edge(i, (i + 1) % 5);
        }
        g.add_edge(1, 0);
        let c = g.shortest_cycle().unwrap();
        assert_eq!(c.len(), 2);
        for i in 0..c.len() {
            assert!(g.has_edge(c[i], c[(i + 1) % c.len()]));
        }
    }

    #[test]
    fn restricted_keeps_only_edges_within_the_kept_set() {
        // 0 -> 1 -> 2 -> 0 with a chord 1 -> 3.
        let mut g = Digraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        g.add_edge(1, 3);
        let sub = g.restricted(&|v| v != 2);
        assert_eq!(sub.num_vertices(), 4);
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(1, 3));
        assert!(!sub.has_edge(1, 2));
        assert!(!sub.has_edge(2, 0));
        assert!(sub.is_acyclic());
        // Keeping everything reproduces the cycle.
        assert!(!g.restricted(&|_| true).is_acyclic());
    }

    #[test]
    fn queue_memo_computes_each_value_once() {
        // Slots for node 1's queues; the map for an undeclared class and
        // for a node past the memo's size.
        let queues = [
            QueueId::inject(1),
            QueueId::central(1, 0),
            QueueId::central(1, 1),
            QueueId::deliver(1),
            QueueId::central(0, 7),
            QueueId::central(5, 0),
        ];
        let mut memo = QueueMemo::new(2, 2);
        for (i, &q) in (0u32..).zip(&queues) {
            assert_eq!(memo.get_or_insert_with(q, || i), i);
        }
        for (i, &q) in (0u32..).zip(&queues) {
            assert_eq!(memo.get_or_insert_with(q, || unreachable!("{q} seen")), i);
        }
    }

    #[test]
    fn shortest_cycle_finds_self_loops_and_none_on_dags() {
        let mut g = Digraph::new(3);
        g.add_edge(0, 1);
        assert!(g.shortest_cycle().is_none());
        g.add_edge(2, 2);
        assert_eq!(g.shortest_cycle().unwrap(), vec![2]);
    }
}
