//! Topology-aware node → shard partitioning for the sharded engine.
//!
//! The sharded simulator's per-cycle cost has two parts: shard-local
//! work (proportional to owned nodes) and cross-shard mailbox traffic
//! (proportional to the number of *cut* channels — channels whose
//! endpoints live on different shards). A structure-blind contiguous
//! split of the node-id space cuts far more channels than necessary on
//! every topology whose id encoding interleaves dimensions, so the
//! partitioner here is pluggable: each [`PartitionStrategy`] trades the
//! same node count per shard for a smaller cut, and reports the measured
//! cut fraction through [`fadr_metrics::PartitionStats`] so benchmarks
//! can print it next to the speedup.
//!
//! Correctness never depends on the strategy: the sharded engine is
//! bit-identical to the sequential one under *any* node partition (the
//! equivalence suites run every strategy). Only the thread-communication
//! volume changes.

use std::str::FromStr;

use fadr_metrics::PartitionStats;
use fadr_topology::{PartitionHint, Topology};

use crate::layout::Layout;

/// How to assign nodes to shards. The default, [`PartitionStrategy::Auto`],
/// resolves per topology via [`Topology::partition_hint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// Resolve per topology: Hamming-prefix on hypercubes, coordinate
    /// bisection on grids (meshes, tori), BFS growth otherwise.
    #[default]
    Auto,
    /// Legacy structure-blind contiguous node-id ranges
    /// (`s*n/shards..(s+1)*n/shards`).
    Contiguous,
    /// Recursive top-bit subcube split: every shard is a subcube (an
    /// address-prefix class), so only the `ceil(log2 shards)` split
    /// dimensions carry cut channels — cut fraction at most
    /// `ceil(log2 shards) / dims`. Falls back to BFS growth on
    /// non-hypercube topologies.
    HammingPrefix,
    /// Recursive coordinate bisection: cut the widest dimension of the
    /// current box near its middle and split the shard budget in
    /// proportion to the node counts of the two halves. Hypercubes are
    /// treated as `2 × 2 × …` grids; irregular topologies fall back to
    /// BFS growth.
    Bisection,
    /// Chunk a breadth-first traversal of the channel graph (from node
    /// 0) into equal contiguous runs: neighbours tend to land in the
    /// same shard even when node ids encode no geometry (e.g. the
    /// shuffle-exchange).
    BfsGrowth,
}

impl PartitionStrategy {
    /// Canonical name (the string [`FromStr`] accepts, and the one a
    /// resolved partition reports in its [`PartitionStats`]).
    pub fn name(self) -> &'static str {
        match self {
            Self::Auto => "auto",
            Self::Contiguous => "contiguous",
            Self::HammingPrefix => "hamming-prefix",
            Self::Bisection => "bisection",
            Self::BfsGrowth => "bfs-growth",
        }
    }
}

impl FromStr for PartitionStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(Self::Auto),
            "contiguous" => Ok(Self::Contiguous),
            "hamming" | "hamming-prefix" => Ok(Self::HammingPrefix),
            "bisection" => Ok(Self::Bisection),
            "bfs" | "bfs-growth" => Ok(Self::BfsGrowth),
            other => Err(format!(
                "unknown partition strategy '{other}' \
                 (expected auto|contiguous|hamming-prefix|bisection|bfs-growth)"
            )),
        }
    }
}

/// Why a partition could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionError {
    /// `shards == 0` was requested: there is no zero-shard simulation
    /// (a shard count *above* the node count is clamped instead, since
    /// an empty shard is harmless to ask for but useless to run).
    ZeroShards,
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroShards => write!(f, "cannot partition into 0 shards"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// A node → shard assignment plus its measured cut statistics.
///
/// Invariants (asserted by the partition property suite): the shard
/// node lists are each sorted ascending, collectively tile `0..n`
/// exactly once, are all non-empty (shard counts are clamped to the
/// node count), and agree with `node_shard`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Per shard: the node ids it owns, ascending.
    pub shard_nodes: Vec<Vec<u32>>,
    /// Node id → owning shard.
    pub node_shard: Vec<u32>,
    /// Strategy actually used (after `Auto`/fallback resolution) and the
    /// measured cut.
    pub stats: PartitionStats,
}

/// Strategy after `Auto` resolution and topology-validity fallbacks.
enum Resolved {
    Contiguous,
    Hamming { dims: usize },
    Bisect { extents: Vec<usize> },
    Bfs,
}

impl Partition {
    /// Partition the `layout`'s nodes into at most `shards` shards
    /// (clamped to the node count so no shard is empty).
    ///
    /// # Errors
    ///
    /// [`PartitionError::ZeroShards`] if `shards == 0`.
    pub fn new(
        strategy: PartitionStrategy,
        topo: &dyn Topology,
        layout: &Layout,
        shards: usize,
    ) -> Result<Self, PartitionError> {
        if shards == 0 {
            return Err(PartitionError::ZeroShards);
        }
        let n = layout.num_nodes;
        let shards = shards.min(n.max(1));
        let resolved = resolve(strategy, &topo.partition_hint(), n);
        let name = match resolved {
            Resolved::Contiguous => PartitionStrategy::Contiguous.name(),
            Resolved::Hamming { .. } => PartitionStrategy::HammingPrefix.name(),
            Resolved::Bisect { .. } => PartitionStrategy::Bisection.name(),
            Resolved::Bfs => PartitionStrategy::BfsGrowth.name(),
        };
        let shard_nodes = match resolved {
            Resolved::Contiguous => contiguous(n, shards),
            Resolved::Hamming { dims } => {
                let mut out = Vec::with_capacity(shards);
                hamming_rec(0, dims, shards, &mut out);
                out
            }
            Resolved::Bisect { extents } => bisect(&extents, shards),
            Resolved::Bfs => bfs_growth(layout, shards),
        };
        let mut node_shard = vec![0u32; n];
        for (s, nodes) in shard_nodes.iter().enumerate() {
            for &v in nodes {
                node_shard[v as usize] = s as u32;
            }
        }
        let cut_channels = (0..layout.num_channels())
            .filter(|&c| {
                node_shard[layout.chan_from[c] as usize] != node_shard[layout.chan_to[c] as usize]
            })
            .count();
        Ok(Self {
            stats: PartitionStats {
                strategy: name,
                shards: shard_nodes.len(),
                cut_channels,
                total_channels: layout.num_channels(),
            },
            shard_nodes,
            node_shard,
        })
    }
}

/// Resolve `Auto` through the topology hint, and fall back when a
/// requested strategy does not fit the topology (Hamming needs a
/// power-of-two hypercube, bisection needs grid extents).
fn resolve(strategy: PartitionStrategy, hint: &PartitionHint, n: usize) -> Resolved {
    let hamming = |dims: usize| {
        if n == 1usize << dims {
            Resolved::Hamming { dims }
        } else {
            Resolved::Bfs
        }
    };
    let bisect = |extents: &Vec<usize>| {
        if extents.iter().product::<usize>() == n && n > 0 {
            Resolved::Bisect {
                extents: extents.clone(),
            }
        } else {
            Resolved::Bfs
        }
    };
    match (strategy, hint) {
        (PartitionStrategy::Contiguous, _) => Resolved::Contiguous,
        (
            PartitionStrategy::Auto | PartitionStrategy::HammingPrefix,
            PartitionHint::Hypercube { dims },
        ) => hamming(*dims),
        (
            PartitionStrategy::Auto | PartitionStrategy::Bisection,
            PartitionHint::Grid { extents },
        ) => bisect(extents),
        // A hypercube is a 2×2×…×2 grid; bisecting it halves subcubes.
        (PartitionStrategy::Bisection, PartitionHint::Hypercube { dims }) => {
            bisect(&vec![2usize; *dims])
        }
        // Hamming prefixes only make sense on hypercube addressing.
        (PartitionStrategy::HammingPrefix | PartitionStrategy::BfsGrowth, _)
        | (PartitionStrategy::Bisection | PartitionStrategy::Auto, PartitionHint::Irregular) => {
            Resolved::Bfs
        }
    }
}

/// The legacy split: shard `s` owns `s*n/shards..(s+1)*n/shards`.
fn contiguous(n: usize, shards: usize) -> Vec<Vec<u32>> {
    (0..shards)
        .map(|s| ((s * n / shards) as u32..((s + 1) * n / shards) as u32).collect())
        .collect()
}

/// Recursive top-bit split of the subcube `base..base + 2^dims`: the
/// 0-half gets `ceil(shards/2)` shards, the 1-half the rest. Every
/// leaf is a subcube, i.e. an address-prefix equivalence class, so a
/// channel is cut only if its dimension is one of the `ceil(log2
/// shards)` split dimensions.
fn hamming_rec(base: u32, dims: usize, shards: usize, out: &mut Vec<Vec<u32>>) {
    debug_assert!(shards <= 1usize << dims);
    if shards <= 1 {
        out.push((base..base + (1u32 << dims)).collect());
        return;
    }
    let half = 1u32 << (dims - 1);
    let sl = shards.div_ceil(2);
    hamming_rec(base, dims - 1, sl, out);
    hamming_rec(base + half, dims - 1, shards - sl, out);
}

/// Recursive coordinate bisection over mixed-radix boxes (dimension 0
/// fastest, matching grid id encoding).
fn bisect(extents: &[usize], shards: usize) -> Vec<Vec<u32>> {
    let mut strides = Vec::with_capacity(extents.len());
    let mut acc = 1usize;
    for &e in extents {
        strides.push(acc);
        acc *= e;
    }
    let mut out = Vec::with_capacity(shards);
    bisect_rec(
        &strides,
        vec![0; extents.len()],
        extents.to_vec(),
        shards,
        &mut out,
    );
    out
}

fn bisect_rec(
    strides: &[usize],
    lo: Vec<usize>,
    hi: Vec<usize>,
    shards: usize,
    out: &mut Vec<Vec<u32>>,
) {
    if shards <= 1 {
        out.push(box_nodes(strides, &lo, &hi));
        return;
    }
    let total: usize = lo.iter().zip(&hi).map(|(&l, &h)| h - l).product();
    debug_assert!(shards <= total, "shard budget exceeds box population");
    // Cut the widest dimension at its midpoint, then split the shard
    // budget in proportion to the actual node counts. A fixed
    // ceil/floor shard split can be infeasible (extents [3,2] with 6
    // shards leaves no valid cut), so the proportional choice is
    // clamped into the feasible interval — which is non-empty whenever
    // `shards <= total`, an invariant this recursion maintains.
    let d = (0..lo.len())
        .max_by_key(|&d| hi[d] - lo[d])
        .expect("non-empty box");
    let mid = lo[d] + (hi[d] - lo[d]) / 2;
    let left = total / (hi[d] - lo[d]) * (mid - lo[d]);
    let right = total - left;
    let ideal = (2 * shards * left + total) / (2 * total);
    let sl = ideal.clamp(shards.saturating_sub(right).max(1), (shards - 1).min(left));
    let mut hi_left = hi.clone();
    hi_left[d] = mid;
    let mut lo_right = lo.clone();
    lo_right[d] = mid;
    bisect_rec(strides, lo, hi_left, sl, out);
    bisect_rec(strides, lo_right, hi, shards - sl, out);
}

/// All node ids in the box `[lo, hi)`, ascending. The odometer counts
/// mixed-radix with dimension 0 least significant, which already yields
/// ascending ids; the sort documents (and insures) the invariant.
fn box_nodes(strides: &[usize], lo: &[usize], hi: &[usize]) -> Vec<u32> {
    let size: usize = lo.iter().zip(hi).map(|(&l, &h)| h - l).product();
    let mut ids = Vec::with_capacity(size);
    let mut coords = lo.to_vec();
    for _ in 0..size {
        ids.push(
            coords
                .iter()
                .zip(strides)
                .map(|(&c, &s)| c * s)
                .sum::<usize>() as u32,
        );
        for d in 0..coords.len() {
            coords[d] += 1;
            if coords[d] < hi[d] {
                break;
            }
            coords[d] = lo[d];
        }
    }
    ids.sort_unstable();
    ids
}

/// Chunk a breadth-first traversal of the channel graph (treated as
/// undirected, rooted at node 0, unreached components appended in id
/// order) into `shards` contiguous runs of the traversal order, then
/// sort each shard's ids. BFS keeps graph neighbourhoods together, so
/// the chunk boundaries cut roughly one "frontier" of channels each
/// even when node ids encode no geometry.
fn bfs_growth(layout: &Layout, shards: usize) -> Vec<Vec<u32>> {
    let n = layout.num_nodes;
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for c in 0..layout.num_channels() {
        let (f, t) = (layout.chan_from[c], layout.chan_to[c]);
        adj[f as usize].push(t);
        adj[t as usize].push(f);
    }
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        seen[start] = true;
        queue.push_back(start as u32);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &u in &adj[v as usize] {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    (0..shards)
        .map(|s| {
            let mut ids: Vec<u32> = order[s * n / shards..(s + 1) * n / shards].to_vec();
            ids.sort_unstable();
            ids
        })
        .collect()
}

/// A worker's owned node set: either the whole network (the sequential
/// engine and single-shard runs, allocation-free) or a sorted subset
/// with a membership bitmask (sharded workers under any partition).
pub(crate) enum OwnedNodes {
    /// All of `0..n`.
    All(usize),
    /// A sorted, deduplicated subset of `0..n`.
    Subset {
        /// Owned node ids, ascending.
        ids: Vec<u32>,
        /// Membership bitmask over all `n` node ids.
        mask: Vec<u64>,
    },
}

impl OwnedNodes {
    pub(crate) fn all(n: usize) -> Self {
        Self::All(n)
    }

    /// Build from a sorted id list out of `0..n` (collapses to
    /// [`OwnedNodes::All`] when complete).
    pub(crate) fn from_sorted(ids: &[u32], n: usize) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        if ids.len() == n {
            return Self::All(n);
        }
        let mut mask = vec![0u64; n.div_ceil(64)];
        for &v in ids {
            mask[v as usize / 64] |= 1u64 << (v % 64);
        }
        Self::Subset {
            ids: ids.to_vec(),
            mask,
        }
    }

    pub(crate) fn contains(&self, v: usize) -> bool {
        match self {
            Self::All(n) => v < *n,
            Self::Subset { mask, .. } => mask.get(v / 64).is_some_and(|w| w >> (v % 64) & 1 == 1),
        }
    }

    pub(crate) fn iter(&self) -> OwnedIter<'_> {
        match self {
            Self::All(n) => OwnedIter::All(0..*n),
            Self::Subset { ids, .. } => OwnedIter::Subset(ids.iter()),
        }
    }
}

/// Iterator over an [`OwnedNodes`], ascending.
pub(crate) enum OwnedIter<'a> {
    All(std::ops::Range<usize>),
    Subset(std::slice::Iter<'a, u32>),
}

impl Iterator for OwnedIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            Self::All(r) => r.next(),
            Self::Subset(it) => it.next().map(|&v| v as usize),
        }
    }

    // Exact, so a `collect` over a shard's nodes allocates once.
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Self::All(r) => r.size_hint(),
            Self::Subset(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for OwnedIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use fadr_core::HypercubeFullyAdaptive;
    use fadr_qdg::RoutingFunction;

    fn hypercube_parts(dims: usize, shards: usize, strategy: PartitionStrategy) -> Partition {
        let rf = HypercubeFullyAdaptive::new(dims);
        let layout = Layout::new(&rf);
        Partition::new(strategy, rf.topology(), &layout, shards).expect("nonzero shards")
    }

    fn assert_tiles(p: &Partition, n: usize) {
        let mut seen = vec![false; n];
        for (s, nodes) in p.shard_nodes.iter().enumerate() {
            assert!(!nodes.is_empty(), "shard {s} is empty");
            assert!(nodes.windows(2).all(|w| w[0] < w[1]), "shard {s} unsorted");
            for &v in nodes {
                assert!(!seen[v as usize], "node {v} owned twice");
                seen[v as usize] = true;
                assert_eq!(p.node_shard[v as usize] as usize, s);
            }
        }
        assert!(seen.iter().all(|&s| s), "some node unowned");
    }

    #[test]
    fn zero_shards_is_an_error() {
        let rf = HypercubeFullyAdaptive::new(2);
        let layout = Layout::new(&rf);
        assert_eq!(
            Partition::new(PartitionStrategy::Auto, rf.topology(), &layout, 0),
            Err(PartitionError::ZeroShards)
        );
    }

    #[test]
    fn oversized_shard_count_is_clamped() {
        let p = hypercube_parts(2, 64, PartitionStrategy::Auto);
        assert_eq!(p.shard_nodes.len(), 4);
        assert_tiles(&p, 4);
    }

    #[test]
    fn hamming_prefix_shards_are_subcubes() {
        let p = hypercube_parts(4, 4, PartitionStrategy::HammingPrefix);
        assert_eq!(p.stats.strategy, "hamming-prefix");
        assert_tiles(&p, 16);
        // 4 shards on 4 dims: 2 split dimensions cut, cut fraction 2/4.
        assert!((p.stats.cut_fraction() - 0.5).abs() < 1e-12);
        // Power-of-two shard counts coincide with aligned contiguous
        // quarters.
        assert_eq!(p.shard_nodes[0], (0..4).collect::<Vec<u32>>());
        assert_eq!(p.shard_nodes[3], (12..16).collect::<Vec<u32>>());
    }

    #[test]
    fn hamming_beats_contiguous_on_odd_shard_counts() {
        let hamming = hypercube_parts(8, 3, PartitionStrategy::HammingPrefix);
        let contiguous = hypercube_parts(8, 3, PartitionStrategy::Contiguous);
        assert!(hamming.stats.cut_fraction() < contiguous.stats.cut_fraction());
        // ceil(log2 3) = 2 split dimensions out of 8.
        assert!(hamming.stats.cut_fraction() <= 2.0 / 8.0 + 1e-12);
    }

    #[test]
    fn auto_resolves_per_topology() {
        assert_eq!(
            hypercube_parts(3, 2, PartitionStrategy::Auto)
                .stats
                .strategy,
            "hamming-prefix"
        );
    }

    #[test]
    fn bisection_handles_awkward_extent_shard_combinations() {
        // extents [3,2] with 6 shards: a fixed ceil/floor budget split
        // has no feasible cut; the proportional split must still tile.
        for shards in 1..=6 {
            let parts = bisect(&[3, 2], shards);
            let mut all: Vec<u32> = parts.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..6).collect::<Vec<u32>>(), "shards={shards}");
            assert_eq!(parts.len(), shards);
            assert!(parts.iter().all(|p| !p.is_empty()), "shards={shards}");
        }
    }

    #[test]
    fn bisection_on_hypercube_splits_subcube_halves() {
        let p = hypercube_parts(3, 2, PartitionStrategy::Bisection);
        assert_eq!(p.stats.strategy, "bisection");
        assert_tiles(&p, 8);
        // One split dimension cut: 2*4 directed channels of 24.
        assert_eq!(p.stats.cut_channels, 8);
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in [
            PartitionStrategy::Auto,
            PartitionStrategy::Contiguous,
            PartitionStrategy::HammingPrefix,
            PartitionStrategy::Bisection,
            PartitionStrategy::BfsGrowth,
        ] {
            assert_eq!(s.name().parse::<PartitionStrategy>(), Ok(s));
        }
        assert!("strip".parse::<PartitionStrategy>().is_err());
    }

    #[test]
    fn owned_nodes_subset_iterates_and_tests_membership() {
        let o = OwnedNodes::from_sorted(&[1, 5, 6], 8);
        assert!(o.contains(1) && o.contains(6));
        assert!(!o.contains(0) && !o.contains(7) && !o.contains(100));
        assert_eq!(o.iter().collect::<Vec<usize>>(), vec![1, 5, 6]);
        let all = OwnedNodes::from_sorted(&[0, 1, 2, 3], 4);
        assert!(matches!(all, OwnedNodes::All(4)));
    }

    #[test]
    fn owned_iter_length_is_exact() {
        for o in [OwnedNodes::from_sorted(&[1, 5, 6], 8), OwnedNodes::all(5)] {
            let mut it = o.iter();
            let count = o.iter().count();
            assert_eq!(it.len(), count);
            assert_eq!(it.size_hint(), (count, Some(count)));
            it.next();
            assert_eq!(it.len(), count - 1);
        }
    }
}
