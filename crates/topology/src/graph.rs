//! Generic graph utilities over [`Topology`] instances.
//!
//! These are used both as default implementations (BFS distance) and as
//! independent oracles in tests: every closed-form `distance` override is
//! cross-validated against [`bfs_distance`].

use std::collections::VecDeque;

use crate::{NodeId, Topology};

/// Breadth-first shortest-path distance following directed links, or
/// `None` if `to` is unreachable from `from`.
pub fn bfs_distance(topo: &dyn Topology, from: NodeId, to: NodeId) -> Option<usize> {
    if from == to {
        return Some(0);
    }
    let n = topo.num_nodes();
    let mut dist = vec![usize::MAX; n];
    dist[from] = 0;
    let mut queue = VecDeque::with_capacity(64);
    queue.push_back(from);
    while let Some(v) = queue.pop_front() {
        for p in 0..topo.max_ports() {
            if let Some(u) = topo.neighbor(v, p) {
                if dist[u] == usize::MAX {
                    dist[u] = dist[v] + 1;
                    if u == to {
                        return Some(dist[u]);
                    }
                    queue.push_back(u);
                }
            }
        }
    }
    None
}

/// All-targets BFS distances from `from` (`usize::MAX` = unreachable).
pub fn bfs_distances(topo: &dyn Topology, from: NodeId) -> Vec<usize> {
    let n = topo.num_nodes();
    let mut dist = vec![usize::MAX; n];
    dist[from] = 0;
    let mut queue = VecDeque::with_capacity(64);
    queue.push_back(from);
    while let Some(v) = queue.pop_front() {
        for p in 0..topo.max_ports() {
            if let Some(u) = topo.neighbor(v, p) {
                if dist[u] == usize::MAX {
                    dist[u] = dist[v] + 1;
                    queue.push_back(u);
                }
            }
        }
    }
    dist
}

/// Directed successor lists in compressed sparse row form: node `u`'s
/// successors are `succ[start[u]..start[u + 1]]`. The input of
/// [`reverse_bfs_batch`].
#[derive(Debug, Clone)]
pub struct Csr {
    start: Vec<u32>,
    succ: Vec<u32>,
}

impl Csr {
    /// Successor lists of `num_nodes` nodes: `push_succ(u, out)` appends
    /// the successors of `u` to `out`, in any order.
    pub fn build(num_nodes: usize, mut push_succ: impl FnMut(NodeId, &mut Vec<u32>)) -> Self {
        let mut start = Vec::with_capacity(num_nodes + 1);
        let mut succ = Vec::new();
        start.push(0);
        for u in 0..num_nodes {
            push_succ(u, &mut succ);
            start.push(u32::try_from(succ.len()).expect("edge count fits u32"));
        }
        Self { start, succ }
    }

    /// The topology's directed links `u -> v` for which `keep(u, v)`
    /// holds.
    pub fn from_topology(
        topo: &dyn Topology,
        mut keep: impl FnMut(NodeId, NodeId) -> bool,
    ) -> Self {
        Self::build(topo.num_nodes(), |u, out| {
            for p in 0..topo.max_ports() {
                match topo.neighbor(u, p) {
                    Some(v) if keep(u, v) => out.push(u32::try_from(v).expect("node id fits u32")),
                    _ => {}
                }
            }
        })
    }

    fn num_nodes(&self) -> usize {
        self.start.len() - 1
    }

    fn succ(&self, u: NodeId) -> &[u32] {
        &self.succ[self.start[u] as usize..self.start[u + 1] as usize]
    }
}

/// Targets per traversal of [`reverse_bfs_batch`]: one `u64` lane each.
pub const BATCH: usize = 64;

/// Distance rows *to* up to [`BATCH`] target nodes in one traversal:
/// `rows[i * n + u]` becomes the directed hop distance from node `u` to
/// target `targets.start + i` over `g`'s edges, `u32::MAX` when `u`
/// cannot reach it (`n = g.num_nodes()`; every entry is written).
///
/// A bit-parallel reverse BFS, as in the multi-source BFS of Then et al.
/// (PVLDB 8(4), 2014): each node keeps one `u64` with a lane per target.
/// At depth `k` a node ORs the lanes its successors reached at depth
/// `k - 1`, and every lane it had not seen before ends at `k`. A level
/// is one pass over the edges for all targets together, so `N` rows
/// cost `N / 64` traversals instead of `N`.
pub fn reverse_bfs_batch(g: &Csr, targets: std::ops::Range<NodeId>, rows: &mut [u32]) {
    let n = g.num_nodes();
    let lanes = targets.len();
    assert!(
        lanes <= BATCH,
        "{lanes} targets exceed one batch of {BATCH}"
    );
    assert!(targets.end <= n, "target {} out of range", targets.end - 1);
    assert_eq!(rows.len(), lanes * n, "rows must hold one row per target");
    rows.fill(u32::MAX);
    // Lanes a node has seen once it has seen every target.
    let full = if lanes == BATCH {
        u64::MAX
    } else {
        (1 << lanes) - 1
    };
    let mut seen = vec![0u64; n];
    let mut frontier = vec![0u64; n];
    let mut next = vec![0u64; n];
    for (i, t) in targets.enumerate() {
        seen[t] |= 1 << i;
        frontier[t] |= 1 << i;
        rows[i * n + t] = 0;
    }
    let mut depth = 0u32;
    loop {
        depth += 1;
        let mut grew = false;
        for u in 0..n {
            let mut new = 0;
            if seen[u] != full {
                for &v in g.succ(u) {
                    new |= frontier[v as usize];
                }
                new &= !seen[u];
            }
            next[u] = new;
            if new != 0 {
                grew = true;
                seen[u] |= new;
                let mut bits = new;
                while bits != 0 {
                    rows[bits.trailing_zeros() as usize * n + u] = depth;
                    bits &= bits - 1;
                }
            }
        }
        if !grew {
            return;
        }
        std::mem::swap(&mut frontier, &mut next);
    }
}

/// Distance rows to the nodes of a [`Csr`]: the first miss on a target
/// fills the rows of its whole batch of [`BATCH`] targets with one
/// [`reverse_bfs_batch`], so rows to every node cost `N / 64`
/// traversals.
///
/// Each batch has its own slab, allocated on its first miss and
/// refilled in place after a [`DistanceRows::reset`]. (Not one N²
/// block: freeing a block of 16 MiB raises glibc's dynamic mmap
/// threshold, after which a simulator's later frees stay resident; that
/// cost a 2-shard hypercube(11) run 30 MiB of peak RSS.)
pub struct DistanceRows {
    g: Csr,
    /// `slabs[b][i * n + u]`: the hop distance from `u` to target
    /// `b * BATCH + i`. A slab may be longer than its batch needs.
    slabs: Vec<Box<[u32]>>,
    /// Whether batch `b`'s slab holds its rows over `g`.
    fresh: Vec<bool>,
    /// Hold only the batch of the last miss ([`DistanceRows::in_order`]).
    one_batch: bool,
}

impl DistanceRows {
    /// Rows over `g`'s edges, every filled batch kept.
    pub fn new(g: Csr) -> Self {
        let batches = g.num_nodes().div_ceil(BATCH);
        Self {
            g,
            slabs: vec![Box::default(); batches],
            fresh: vec![false; batches],
            one_batch: false,
        }
    }

    /// Rows over `g`'s edges for a walk over the targets in order: a
    /// miss refills the one slab of the previous batch, so the walk
    /// holds 64 rows instead of N.
    pub fn in_order(g: Csr) -> Self {
        Self {
            one_batch: true,
            ..Self::new(g)
        }
    }

    /// Switch to the edges of `g` (same node count): every batch goes
    /// stale, and the slabs stay for the refills.
    pub fn reset(&mut self, g: Csr) {
        assert_eq!(g.num_nodes(), self.g.num_nodes(), "node count changed");
        self.g = g;
        self.fresh.fill(false);
    }

    /// Fill every batch now, for readers that hold `&self`
    /// ([`DistanceRows::get`]).
    pub fn fill_all(&mut self) {
        for b in 0..self.fresh.len() {
            if !self.fresh[b] {
                self.fill(b);
            }
        }
    }

    /// The hop distance from every node to `target` (`u32::MAX` =
    /// unreachable), filling its batch on a miss.
    pub fn row(&mut self, target: NodeId) -> &[u32] {
        let b = target / BATCH;
        if !self.fresh[b] {
            self.fill(b);
        }
        self.slice(target)
    }

    /// The row to `target` if its batch is filled.
    pub fn get(&self, target: NodeId) -> Option<&[u32]> {
        self.fresh[target / BATCH].then(|| self.slice(target))
    }

    fn slice(&self, target: NodeId) -> &[u32] {
        let n = self.g.num_nodes();
        &self.slabs[target / BATCH][target % BATCH * n..][..n]
    }

    fn fill(&mut self, b: usize) {
        let n = self.g.num_nodes();
        let targets = b * BATCH..n.min((b + 1) * BATCH);
        let len = targets.len() * n;
        if self.one_batch {
            if let Some(last) = self.fresh.iter().position(|&f| f) {
                self.fresh[last] = false;
                self.slabs.swap(last, b);
            }
        }
        let slab = &mut self.slabs[b];
        if slab.len() < len {
            *slab = vec![0; len].into();
        }
        reverse_bfs_batch(&self.g, targets, &mut slab[..len]);
        self.fresh[b] = true;
    }
}

/// Whether every node can reach every other node over directed links.
///
/// Checked by one forward BFS from node 0 and one reverse BFS to it
/// (standard strong-connectivity test).
pub fn is_strongly_connected(topo: &dyn Topology) -> bool {
    let n = topo.num_nodes();
    if n == 0 {
        return true;
    }
    if bfs_distances(topo, 0).contains(&usize::MAX) {
        return false;
    }
    // Transposed reachability: every node's distance to node 0.
    let mut to_root = vec![0; n];
    reverse_bfs_batch(&Csr::from_topology(topo, |_, _| true), 0..1, &mut to_root);
    !to_root.contains(&u32::MAX)
}

/// The diameter: maximum over all ordered pairs of the BFS distance.
/// O(N · E); intended for small instances and tests.
pub fn diameter(topo: &dyn Topology) -> usize {
    (0..topo.num_nodes())
        .map(|v| {
            bfs_distances(topo, v)
                .into_iter()
                .filter(|&d| d != usize::MAX)
                .max()
                .unwrap_or(0)
        })
        .max()
        .unwrap_or(0)
}

/// Number of directed edges (existing ports summed over nodes).
pub fn num_directed_edges(topo: &dyn Topology) -> usize {
    (0..topo.num_nodes()).map(|v| topo.degree(v)).sum()
}

/// Enumerate *all* shortest paths from `from` to `to` as port sequences.
///
/// Exponential in path count; intended for verifying full adaptivity on
/// small instances (e.g. all `n!`-ish minimal paths of a small hypercube).
pub fn all_shortest_paths(topo: &dyn Topology, from: NodeId, to: NodeId) -> Vec<Vec<NodeId>> {
    let Some(d) = bfs_distance(topo, from, to) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut stack = vec![from];
    fn recur(
        topo: &dyn Topology,
        to: NodeId,
        remaining: usize,
        stack: &mut Vec<NodeId>,
        out: &mut Vec<Vec<NodeId>>,
    ) {
        let v = *stack.last().expect("non-empty stack");
        if remaining == 0 {
            if v == to {
                out.push(stack.clone());
            }
            return;
        }
        for (_, u) in crate::out_edges(topo, v) {
            if bfs_distance(topo, u, to) == Some(remaining - 1) {
                stack.push(u);
                recur(topo, to, remaining - 1, stack, out);
                stack.pop();
            }
        }
    }
    recur(topo, to, d, &mut stack, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Hypercube, Mesh2D, ShuffleExchange, Torus2D};

    #[test]
    fn hypercube_diameter_is_n() {
        assert_eq!(diameter(&Hypercube::new(4)), 4);
    }

    #[test]
    fn mesh_diameter_is_perimeter_walk() {
        assert_eq!(diameter(&Mesh2D::new(4, 3)), 5);
    }

    #[test]
    fn torus_diameter_is_half_sum() {
        assert_eq!(diameter(&Torus2D::new(5, 4)), 2 + 2);
    }

    #[test]
    fn edge_counts() {
        // n * 2^n directed edges in the n-cube.
        assert_eq!(num_directed_edges(&Hypercube::new(3)), 24);
        // Shuffle-exchange: 2 out-ports everywhere.
        assert_eq!(num_directed_edges(&ShuffleExchange::new(3)), 16);
        // 4x4 torus: every node degree 4.
        assert_eq!(num_directed_edges(&Torus2D::square(4)), 64);
    }

    #[test]
    fn all_shortest_paths_hypercube_counts() {
        let h = Hypercube::new(4);
        // Distance-k pairs have k! shortest paths in the hypercube.
        let paths = all_shortest_paths(&h, 0b0000, 0b0111);
        assert_eq!(paths.len(), 6);
        for p in &paths {
            assert_eq!(p.len(), 4);
            assert_eq!(p[0], 0b0000);
            assert_eq!(p[3], 0b0111);
            for w in p.windows(2) {
                assert_eq!(h.distance(w[0], w[1]), 1);
            }
        }
    }

    #[test]
    fn all_shortest_paths_mesh_counts() {
        let m = Mesh2D::square(4);
        // (0,0) -> (2,2): C(4,2) = 6 monotone lattice paths.
        let paths = all_shortest_paths(&m, m.node_at(0, 0), m.node_at(2, 2));
        assert_eq!(paths.len(), 6);
    }

    #[test]
    fn reverse_adjacency_inverts_directed_edges() {
        // SE's shuffle links are one-way: u -> v must appear as one of
        // u's successors, and the total entry count equals the edge
        // count (no parallel edge duplicated or dropped).
        let se = ShuffleExchange::new(3);
        let g = Csr::from_topology(&se, |_, _| true);
        let mut entries = 0;
        for u in 0..se.num_nodes() {
            for (_, v) in crate::out_edges(&se, u) {
                assert!(
                    g.succ(u).contains(&(v as u32)),
                    "missing successor {u} -> {v}"
                );
            }
            entries += g.succ(u).len();
        }
        assert_eq!(entries, num_directed_edges(&se));
    }

    #[test]
    fn unreachable_is_none() {
        // A topology with an isolated pair: use a 1-dim hypercube's two
        // nodes but query a fake unreachable id is not possible through the
        // trait, so instead check bfs on directed SE returns Some for all.
        let se = ShuffleExchange::new(3);
        for a in 0..8 {
            for b in 0..8 {
                assert!(bfs_distance(&se, a, b).is_some());
            }
        }
    }
}
