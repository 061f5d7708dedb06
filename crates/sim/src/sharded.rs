//! Intra-simulation sharding: one simulation, many threads, bit-identical
//! results.
//!
//! [`ShardedSimulator`] is the threaded executor of the one run loop
//! (the `driver` module). It partitions the nodes across shards with a
//! topology-aware [`Partition`] (Hamming-prefix subcubes on hypercubes,
//! coordinate bisection on grids, BFS growth elsewhere — see
//! [`PartitionStrategy`]; the partition only changes how much cross-shard
//! traffic the mailboxes carry, never the results) and runs each shard's
//! loop on a thread of its own. The only state a cycle moves between
//! nodes is a packet crossing a directed channel, so the shards exchange
//! exactly that — **offers** (packets staged on a cross-shard channel)
//! and **acks** (the receiver took the packet) — through per-pair
//! mailboxes, with a barrier on each side of the link pass.
//!
//! # Why the result is bit-identical to [`Simulator`]
//!
//! Both engines run the same loop: a [`Simulator`] is the inline
//! executor, one shard that owns every node and whose every exchange is
//! the identity. So a sharded run equals a sequential one exactly when
//! the shards' passes compose to the one shard's. Every pass decomposes
//! into per-node or per-channel transitions that touch disjoint state:
//!
//! * **fill** reads and writes only the node's queues and output
//!   buffers — shard-local by the node partition;
//! * **link** moves at most one packet per channel from its output
//!   buffer (sender side) to its input buffer (receiver side); the
//!   receiving shard executes it, seeing intra-shard channels directly
//!   and cross-shard ones through the sender's offers. The round-robin
//!   scan over a channel's class buffers is the same code either way;
//! * **read** reads only the node's input/injection buffers and queues —
//!   shard-local again (input buffers of node `v` are filled by the
//!   link pass of `v`'s own shard).
//!
//! Cross-cycle global state is reduced to replicated counters
//! (delivered, dropped and lost packets, the uid frontier), which every
//! shard folds identically from the per-cycle summaries all shards
//! publish. Packet uids stay dense and equal to the sequential injection
//! order because each shard plans its next cycle's injections a phase
//! early and publishes the *node ids* it will inject at: a cycle injects
//! in ascending node order, so every shard merge-ranks its own
//! (ascending) list against its siblings' to recover each packet's
//! global rank ([`rank_uids`]) — correct under any node partition.
//! Dynamic-injection draws come from per-node RNG streams
//! ([`crate::SimConfig::seed`] ⊕ node id), so partitioning the node loop
//! across threads cannot reorder anyone's stream. Statistics merge
//! exactly (integer accumulators), and recorders merge in fixed shard
//! order via [`ShardRecorder`](fadr_metrics::ShardRecorder). The
//! wait-for-graph probe is exchanged too: each shard publishes which of
//! its queues are full, computes the edges out of its own queues against
//! that table, and shard 0's recorder receives the sorted, deduplicated
//! union — the sequential probe's edge set.
//!
//! # Watchdog
//!
//! The watchdog is the run loop's ([`ShardedSimulator::with_watchdog`]),
//! evaluated on the replicated counters, so every shard stops at the
//! same cycle with the same evidence, and the [`StallReport`] is
//! assembled from every shard after the run. A per-shard
//! [`WatchdogSink`](fadr_metrics::WatchdogSink) would see only its
//! shard's deliveries and misfire, so a shard recorder may not carry one
//! ([`ShardRecorder::shardable`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use rand::rngs::StdRng;

use fadr_metrics::{NoRecorder, PartitionStats, ShardRecorder, StallReport};
use fadr_qdg::{RoutingFunction, SnapshotMsg};
use fadr_topology::NodeId;

use crate::driver::{self, CycleSummary, Executor, LoopCfg, Planner, Port, ShardOut, WaitEdge};
use crate::engine::{Computed, OfferItem, Simulator};
use crate::fault::FaultPlan;
use crate::layout::Layout;
use crate::partition::{OwnedNodes, Partition, PartitionStrategy};
use crate::snapshot::{self, Loc, ParsedSnapshot};
use crate::{DynamicOutcome, DynamicResult, RunProgress, SimConfig, StaticOutcome, StaticResult};

/// Locks a mutex, ignoring poisoning: mailbox state is phase-owned (a
/// panicking sibling is surfaced through the barrier instead).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Held guards on the remote mailbox slots for one phase (`None` at the
/// worker's own index).
type HeldBoxes<'a, T> = Vec<Option<MutexGuard<'a, Vec<T>>>>;

/// Node partition and channel ownership, precomputed from a
/// [`Partition`] over the layout.
struct ShardPlan {
    /// Owned nodes per shard (iterated ascending).
    owned: Vec<OwnedNodes>,
    /// Node → owning shard.
    node_shard: Vec<u32>,
    /// Per shard: the channels it executes in the link pass — every
    /// channel whose *target* node it owns — as `(chan, source_shard)`
    /// in ascending channel order.
    exec: Vec<Vec<(u32, u32)>>,
    /// Per shard: its outgoing cross-shard channels (source owned here,
    /// target elsewhere), ascending.
    cross_out: Vec<Vec<u32>>,
}

impl ShardPlan {
    fn new(layout: &Layout, part: Partition) -> Self {
        let Partition {
            shard_nodes,
            node_shard,
            ..
        } = part;
        let shards = shard_nodes.len();
        let owned = shard_nodes
            .iter()
            .map(|ids| OwnedNodes::from_sorted(ids, layout.num_nodes))
            .collect();
        let mut exec = vec![Vec::new(); shards];
        let mut cross_out = vec![Vec::new(); shards];
        for chan in 0..layout.num_channels() {
            let sf = node_shard[layout.chan_from[chan] as usize];
            let st = node_shard[layout.chan_to[chan] as usize];
            exec[st as usize].push((chan as u32, sf));
            if sf != st {
                cross_out[sf as usize].push(chan as u32);
            }
        }
        Self {
            owned,
            node_shard,
            exec,
            cross_out,
        }
    }
}

/// Panic message of a worker woken by a poisoned barrier (as opposed to
/// the worker that panicked first): the threaded executor filters these
/// out when deciding which shard to blame in [`ShardPanicked`].
const SIBLING_PANIC: &str = "sibling shard worker panicked";

/// A shard worker thread panicked during a run.
///
/// The error names the shard whose worker unwound *first* (siblings
/// woken by the poisoned phase barrier are filtered out) and carries
/// the stringified panic payload. After this error the simulator's
/// shard state is mid-cycle and unspecified — drop it or build a fresh
/// one; the error exists so a long-lived harness (the fuzzer) can
/// report the failure instead of aborting with the worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPanicked {
    /// Shard whose worker panicked first.
    pub shard: usize,
    /// The panic payload, stringified (`&str`/`String` payloads verbatim,
    /// anything else a placeholder).
    pub payload: String,
}

impl std::fmt::Display for ShardPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard {} worker panicked: {}", self.shard, self.payload)
    }
}

impl std::error::Error for ShardPanicked {}

/// Stringify a worker's panic payload.
fn panic_payload(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// A barrier that propagates panics: a worker that unwinds poisons it
/// (via [`PoisonGuard`]), waking every sibling into a panic instead of
/// leaving them blocked forever.
struct PoisonBarrier {
    n: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

#[derive(Default)]
struct BarrierState {
    count: usize,
    generation: u64,
    poisoned: bool,
}

impl PoisonBarrier {
    fn new(n: usize) -> Self {
        Self {
            n,
            state: Mutex::new(BarrierState::default()),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) {
        let mut s = lock(&self.state);
        assert!(!s.poisoned, "{SIBLING_PANIC}");
        let generation = s.generation;
        s.count += 1;
        if s.count == self.n {
            s.count = 0;
            s.generation += 1;
            self.cv.notify_all();
            return;
        }
        while s.generation == generation && !s.poisoned {
            s = self
                .cv
                .wait(s)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        assert!(!s.poisoned, "{SIBLING_PANIC}");
    }

    fn poison(&self) {
        lock(&self.state).poisoned = true;
        self.cv.notify_all();
    }
}

struct PoisonGuard<'a>(&'a PoisonBarrier);

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Per-pair mailboxes (`[from][to]`) plus the phase barrier. Each slot
/// has exactly one writer phase and one reader phase per cycle, strictly
/// ordered by the barrier, so every lock below is uncontended; readers
/// `clear()` instead of taking the buffer, preserving its capacity
/// across cycles.
struct Mailboxes<M> {
    offers: Vec<Vec<Mutex<Vec<OfferItem<M>>>>>,
    acks: Vec<Vec<Mutex<Vec<u32>>>>,
    summaries: Vec<Mutex<CycleSummary>>,
    /// Per shard: the ascending node ids it will inject at next cycle
    /// (written by the owner each planning phase, read by everyone in
    /// [`rank_uids`]; the owner overwrites, readers never clear).
    inj_nodes: Vec<Mutex<Vec<u32>>>,
    /// Per central queue: full at the last wait-for exchange (each
    /// shard writes its own queues' entries).
    full: Vec<AtomicBool>,
    /// Per shard: the wait-for edges out of its queues (read by shard 0).
    edges: Vec<Mutex<Vec<WaitEdge>>>,
    barrier: PoisonBarrier,
}

impl<M> Mailboxes<M> {
    fn new(shards: usize, queues: usize) -> Self {
        fn slots<T: Default>(n: usize) -> Vec<Mutex<T>> {
            (0..n).map(|_| Mutex::default()).collect()
        }
        Self {
            offers: (0..shards).map(|_| slots(shards)).collect(),
            acks: (0..shards).map(|_| slots(shards)).collect(),
            summaries: slots(shards),
            inj_nodes: slots(shards),
            full: (0..queues).map(|_| AtomicBool::new(false)).collect(),
            edges: slots(shards),
            barrier: PoisonBarrier::new(shards),
        }
    }
}

/// Assigns global uids to this shard's planned injections by ranking
/// them in the all-shards ascending-node-id order a cycle injects in.
/// Every shard's published [`Mailboxes::inj_nodes`] list is ascending
/// and the lists are disjoint, so one monotone cursor per sibling
/// recovers, for each own entry, how many remote injections precede it.
/// Returns the next uid after this cycle's injections (`base` + the
/// total injection count across all shards) — every worker computes the
/// same value.
fn rank_uids(
    sid: usize,
    boxes: &[Mutex<Vec<u32>>],
    pending: &[(u32, u32)],
    base: u64,
    uids: &mut Vec<u64>,
    cursors: &mut [usize],
) -> u64 {
    uids.clear();
    cursors.fill(0);
    let guards: Vec<Option<MutexGuard<'_, Vec<u32>>>> = boxes
        .iter()
        .enumerate()
        .map(|(f, m)| (f != sid).then(|| lock(m)))
        .collect();
    for (i, &(v, _)) in pending.iter().enumerate() {
        let mut before = i;
        for (f, g) in guards.iter().enumerate() {
            let Some(g) = g else { continue };
            while cursors[f] < g.len() && g[cursors[f]] < v {
                cursors[f] += 1;
            }
            before += cursors[f];
        }
        uids.push(base + before as u64);
    }
    let remote: u64 = guards.iter().flatten().map(|g| g.len() as u64).sum();
    base + pending.len() as u64 + remote
}

/// Shard `sid`'s port to its siblings: the phase barrier, the offer,
/// ack, summary and injection mailboxes, and the wait-for exchange.
struct Threaded<'a, M> {
    sid: usize,
    plan: &'a ShardPlan,
    layout: &'a Layout,
    mb: &'a Mailboxes<M>,
    /// [`rank_uids`]' per-sibling cursors.
    cursors: Vec<usize>,
}

impl<R: RoutingFunction, Rec: ShardRecorder> Port<R, Rec, Computed<R>> for Threaded<'_, R::Msg> {
    fn owned(&self) -> &OwnedNodes {
        &self.plan.owned[self.sid]
    }

    fn drain_acks(&mut self, sim: &mut Simulator<R, Rec>) {
        for (f, row) in self.mb.acks.iter().enumerate() {
            if f != self.sid {
                let mut inbox = lock(&row[self.sid]);
                sim.apply_acks(&inbox);
                inbox.clear();
            }
        }
    }

    fn fill(&mut self, sim: &mut Simulator<R, Rec>) {
        let (sid, plan, mb) = (self.sid, self.plan, self.mb);
        for v in plan.owned[sid].iter() {
            sim.core.fill_node(&sim.rf, v, &mut sim.rec);
        }
        {
            let mut outboxes: HeldBoxes<'_, OfferItem<R::Msg>> = mb.offers[sid]
                .iter()
                .enumerate()
                .map(|(t, m)| (t != sid).then(|| lock(m)))
                .collect();
            for &chan in &plan.cross_out[sid] {
                let t = plan.node_shard[self.layout.chan_to[chan as usize] as usize] as usize;
                sim.collect_offers(
                    chan as usize,
                    outboxes[t].as_mut().expect("cross target is remote"),
                );
            }
        }
        mb.barrier.wait();
    }

    fn link(&mut self, sim: &mut Simulator<R, Rec>) -> u64 {
        let (sid, mb) = (self.sid, self.mb);
        let mut links = 0u64;
        let mut inboxes: HeldBoxes<'_, OfferItem<R::Msg>> = mb
            .offers
            .iter()
            .enumerate()
            .map(|(f, row)| (f != sid).then(|| lock(&row[sid])))
            .collect();
        let mut ack_out: HeldBoxes<'_, u32> = mb.acks[sid]
            .iter()
            .enumerate()
            .map(|(f, m)| (f != sid).then(|| lock(m)))
            .collect();
        let mut cursor = vec![0usize; inboxes.len()];
        for &(chan, sf) in &self.plan.exec[sid] {
            if sf as usize == sid {
                links += u64::from(sim.core.link_chan(chan as usize, &mut sim.rec));
                continue;
            }
            let f = sf as usize;
            let items = inboxes[f].as_mut().expect("cross source is remote");
            // Offers arrive in ascending channel order, as does the exec
            // list: a single cursor pairs them up.
            let start = cursor[f];
            if start >= items.len() || items[start].chan != chan {
                continue;
            }
            let mut end = start + 1;
            while end < items.len() && items[end].chan == chan {
                end += 1;
            }
            cursor[f] = end;
            if let Some(buf) = sim.take_cross(chan as usize, &mut items[start..end]) {
                links += 1;
                ack_out[f].as_mut().expect("ack target is remote").push(buf);
            }
        }
        for inbox in inboxes.iter_mut().flatten() {
            inbox.clear();
        }
        links
    }

    fn read(&mut self, sim: &mut Simulator<R, Rec>) {
        for v in self.plan.owned[self.sid].iter() {
            sim.core.read_node(&sim.rf, v, &mut sim.rec);
        }
    }

    fn wait_edges(&mut self, sim: &Simulator<R, Rec>) -> Option<Vec<WaitEdge>> {
        let (core, mb, owned) = (&sim.core, self.mb, &self.plan.owned[self.sid]);
        let (nc, cap) = (core.num_classes, core.cfg.queue_capacity);
        // Relaxed: the barrier's mutex (released by every writer,
        // acquired by every reader) orders these stores before the loads.
        for v in owned.iter() {
            for q in v * nc..(v + 1) * nc {
                mb.full[q].store(core.queue_len[q] as usize >= cap, Ordering::Relaxed);
            }
        }
        mb.barrier.wait();
        // A blocked packet's target queue may live on another shard: test
        // it against the table every shard just published.
        let full =
            |w: u32, c: u8| mb.full[w as usize * nc + usize::from(c)].load(Ordering::Relaxed);
        *lock(&mb.edges[self.sid]) = core.wait_edges(owned, &full);
        mb.barrier.wait();
        (self.sid == 0).then(|| {
            let mut all = Vec::new();
            for slot in &mb.edges {
                all.extend_from_slice(&lock(slot));
            }
            all.sort_unstable();
            all.dedup();
            all
        })
    }

    fn exchange(&mut self, own: CycleSummary, pending: &[(u32, u32)]) -> CycleSummary {
        let mb = self.mb;
        {
            let mut b = lock(&mb.inj_nodes[self.sid]);
            b.clear();
            b.extend(pending.iter().map(|&(v, _)| v));
        }
        *lock(&mb.summaries[self.sid]) = own;
        mb.barrier.wait();
        mb.summaries
            .iter()
            .map(|m| *lock(m))
            .fold(CycleSummary::default(), CycleSummary::add)
    }

    fn rank(&mut self, pending: &[(u32, u32)], base: u64, uids: &mut Vec<u64>) -> u64 {
        rank_uids(
            self.sid,
            &self.mb.inj_nodes,
            pending,
            base,
            uids,
            &mut self.cursors,
        )
    }
}

/// A sharded drop-in for [`Simulator`]: same experiments, same results,
/// one thread per shard. See the module docs for the equivalence
/// argument; the shard-equivalence test suite asserts bit-identity of
/// results and recorded sinks (counters, occupancy, journals) against
/// the sequential engine for every routing family in the table set.
///
/// ```
/// use fadr_core::HypercubeFullyAdaptive;
/// use fadr_sim::{ShardedSimulator, SimConfig, Simulator};
///
/// let cfg = SimConfig::default();
/// let backlog: Vec<Vec<usize>> = (0..16).map(|v| vec![v ^ 0xF]).collect();
/// let seq = Simulator::new(HypercubeFullyAdaptive::new(4), cfg).run_static(&backlog);
/// let shr = ShardedSimulator::new(HypercubeFullyAdaptive::new(4), cfg, 3).run_static(&backlog);
/// assert_eq!(seq.stats, shr.stats);
/// assert_eq!(seq.cycles, shr.cycles);
/// ```
pub struct ShardedSimulator<R: RoutingFunction, Rec: ShardRecorder = NoRecorder> {
    cfg: SimConfig,
    layout: Arc<Layout>,
    plan: ShardPlan,
    stats: PartitionStats,
    shards: Vec<Simulator<R, Rec>>,
}

impl<R: RoutingFunction + Clone> ShardedSimulator<R> {
    /// Build a sharded simulator with `shards` worker shards (clamped to
    /// `1..=num_nodes`), no recorder, and the topology's preferred
    /// partition ([`PartitionStrategy::Auto`]).
    pub fn new(rf: R, cfg: SimConfig, shards: usize) -> Self {
        Self::with_recorders(rf, cfg, shards, |_| NoRecorder)
    }

    /// [`ShardedSimulator::new`] with an explicit [`PartitionStrategy`].
    pub fn with_strategy(
        rf: R,
        cfg: SimConfig,
        shards: usize,
        strategy: PartitionStrategy,
    ) -> Self {
        Self::with_recorders_strategy(rf, cfg, shards, strategy, |_| NoRecorder)
    }
}

impl<R: RoutingFunction + Clone, Rec: ShardRecorder> ShardedSimulator<R, Rec> {
    /// Build a sharded simulator with one recorder per shard (`mk` is
    /// called with each shard index) and the topology's preferred
    /// partition. Recorders must be shardable —
    /// see [`ShardRecorder::shardable`]; notably a
    /// [`fadr_metrics::SinkSet`] carrying a watchdog is not (use
    /// [`ShardedSimulator::with_watchdog`] instead).
    ///
    /// # Panics
    ///
    /// Panics if `mk` yields a non-shardable recorder.
    pub fn with_recorders(
        rf: R,
        cfg: SimConfig,
        shards: usize,
        mk: impl FnMut(usize) -> Rec,
    ) -> Self {
        Self::with_recorders_strategy(rf, cfg, shards, PartitionStrategy::Auto, mk)
    }

    /// [`ShardedSimulator::with_recorders`] with an explicit
    /// [`PartitionStrategy`]. The partition only changes how much
    /// cross-shard traffic the workers exchange (reported by
    /// [`ShardedSimulator::partition_stats`]); results are bit-identical
    /// under every strategy.
    ///
    /// # Panics
    ///
    /// Panics if `mk` yields a non-shardable recorder.
    pub fn with_recorders_strategy(
        rf: R,
        cfg: SimConfig,
        shards: usize,
        strategy: PartitionStrategy,
        mut mk: impl FnMut(usize) -> Rec,
    ) -> Self {
        let layout = Arc::new(Layout::new(&rf));
        let shards = shards.clamp(1, layout.num_nodes.max(1));
        let part = Partition::new(strategy, rf.topology(), &layout, shards)
            .expect("shard count was clamped to at least 1");
        let stats = part.stats.clone();
        let plan = ShardPlan::new(&layout, part);
        let shards: Vec<Simulator<R, Rec>> = (0..shards)
            .map(|s| {
                let rec = mk(s);
                assert!(
                    rec.shardable(),
                    "recorder for shard {s} is not shardable (per-shard watchdogs \
                     would misfire; use ShardedSimulator::with_watchdog)"
                );
                Simulator::with_shared_layout(rf.clone(), cfg, rec, Arc::clone(&layout))
            })
            .collect();
        Self {
            cfg,
            layout,
            plan,
            stats,
            shards,
        }
    }

    /// How the nodes were split across shards: strategy, shard count,
    /// and the measured cut (cross-shard channel fraction). Lower cut
    /// means less mailbox traffic per cycle; it never affects results.
    pub fn partition_stats(&self) -> &PartitionStats {
        &self.stats
    }

    /// Abort runs after `k` consecutive cycles without a delivery while
    /// packets are in flight — [`Simulator::with_watchdog`], evaluated on
    /// global (all-shard) progress. The resulting [`StallReport`] is
    /// available from [`ShardedSimulator::stall_report`] after the run.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0.
    #[must_use]
    pub fn with_watchdog(mut self, k: u64) -> Self {
        assert!(k >= 1, "watchdog window must be at least 1 cycle");
        for sim in &mut self.shards {
            sim.watchdog = Some(k);
        }
        self
    }

    /// Attach a fault plan (see [`crate::fault`]): every shard shares
    /// the same normalized schedule, applies its flag state identically,
    /// and performs packet surgery only on the nodes it owns — the
    /// differential suite asserts runs stay bit-identical to a faulted
    /// sequential [`Simulator`].
    #[must_use]
    pub fn with_faults(mut self, mut plan: FaultPlan) -> Self {
        plan.normalize();
        let plan = Arc::new(plan);
        for sim in &mut self.shards {
            sim.core.fault_plan = Some(Arc::clone(&plan));
        }
        self
    }

    /// Destinations a fault made unreachable in the last run, sorted and
    /// deduplicated across shards. Non-empty exactly when the run
    /// stopped with [`crate::StopReason::Partitioned`].
    pub fn partitioned_destinations(&self) -> Vec<u32> {
        driver::partitioned(&self.shards)
    }

    /// Number of shards (threads) the simulation runs on.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.layout.num_nodes
    }

    /// The stall report of the last run, if the watchdog
    /// ([`ShardedSimulator::with_watchdog`]) or a fault partition
    /// aborted it.
    pub fn stall_report(&self) -> Option<&StallReport> {
        self.shards[0].stall_report()
    }

    /// Consume the simulator and merge the per-shard recorders in fixed
    /// shard order, yielding deterministic
    /// merged sinks — equal to the sequential engine's single recorder
    /// for order-insensitive sinks (counters) and for sorted trace
    /// output.
    pub fn into_recorder(self) -> Rec {
        let mut sims = self.shards.into_iter();
        let mut rec = sims.next().expect("at least one shard").into_recorder();
        for sim in sims {
            rec.merge_shard(&sim.into_recorder());
        }
        rec
    }
}

/// The run methods: the driver's legs on the threaded executor. A shard
/// worker's panic is re-raised on the caller's thread; the
/// [`crate::Engine`] trait returns it as [`ShardPanicked`] instead.
impl<R, Rec> ShardedSimulator<R, Rec>
where
    R: RoutingFunction + Send,
    R::Msg: Send,
    Rec: ShardRecorder + Send,
{
    /// Sharded equivalent of [`Simulator::run_static`]: node `v` injects
    /// the packets of `backlog[v]` (in order) as fast as its injection
    /// buffer frees up, until the network drains.
    pub fn run_static(&mut self, backlog: &[Vec<NodeId>]) -> StaticResult {
        match self.run_static_until(backlog, None) {
            StaticOutcome::Finished(res) => res,
            StaticOutcome::Paused(_) => unreachable!("no pause cycle was requested"),
        }
    }

    /// Sharded equivalent of [`Simulator::run_static_until`]: run from a
    /// fresh network, pausing every shard in lockstep at cycle `pause_at`
    /// (post-injection, the checkpointable pause point).
    pub fn run_static_until(
        &mut self,
        backlog: &[Vec<NodeId>],
        pause_at: Option<u64>,
    ) -> StaticOutcome {
        driver::static_leg(self, backlog, None, pause_at).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Sharded equivalent of [`Simulator::resume_static`]: continue a
    /// static run from restored shard state (see
    /// [`ShardedSimulator::restore`]). `backlog` must be the original
    /// workload.
    ///
    /// # Panics
    ///
    /// Panics if `progress` is not [`RunProgress::Static`] or its cursor
    /// vector does not match `backlog`.
    pub fn resume_static(
        &mut self,
        backlog: &[Vec<NodeId>],
        progress: RunProgress,
        pause_at: Option<u64>,
    ) -> StaticOutcome {
        driver::static_leg(self, backlog, Some(&progress), pause_at)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Sharded equivalent of [`Simulator::run_dynamic`]: each node
    /// attempts an injection each cycle with probability `lambda`,
    /// drawing destinations from `dest` with its per-node RNG stream.
    /// `dest` is shared across shard threads, hence `Fn + Sync` rather
    /// than the sequential engine's `FnMut`.
    pub fn run_dynamic(
        &mut self,
        lambda: f64,
        dest: impl Fn(NodeId, &mut StdRng) -> NodeId + Sync,
        cycles: u64,
    ) -> DynamicResult {
        match self.run_dynamic_until(lambda, dest, cycles, None) {
            DynamicOutcome::Finished(res) => res,
            DynamicOutcome::Paused(_) => unreachable!("no pause cycle was requested"),
        }
    }

    /// Sharded equivalent of [`Simulator::run_dynamic_until`]: run from
    /// a fresh network, pausing every shard in lockstep at cycle
    /// `pause_at` (post-injection).
    pub fn run_dynamic_until(
        &mut self,
        lambda: f64,
        dest: impl Fn(NodeId, &mut StdRng) -> NodeId + Sync,
        cycles: u64,
        pause_at: Option<u64>,
    ) -> DynamicOutcome {
        driver::dynamic_leg(self, lambda, &dest, cycles, None, pause_at)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Sharded equivalent of [`Simulator::resume_dynamic`]: continue a
    /// dynamic run from restored shard state. `lambda`, `dest`, and
    /// `cycles` must be the original workload parameters — the per-node
    /// RNG streams are fast-forwarded through the draws the paused run
    /// already consumed, as in the sequential engine.
    ///
    /// # Panics
    ///
    /// Panics if `progress` is not [`RunProgress::Dynamic`].
    pub fn resume_dynamic(
        &mut self,
        lambda: f64,
        dest: impl Fn(NodeId, &mut StdRng) -> NodeId + Sync,
        cycles: u64,
        progress: RunProgress,
        pause_at: Option<u64>,
    ) -> DynamicOutcome {
        driver::dynamic_leg(self, lambda, &dest, cycles, Some(&progress), pause_at)
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The threaded executor: one scoped thread per shard, each running the
/// one loop over its [`Threaded`] port.
impl<R, Rec, P> Executor<R, P> for ShardedSimulator<R, Rec>
where
    R: RoutingFunction + Send,
    R::Msg: Send,
    Rec: ShardRecorder + Send,
    P: Planner + Clone + Sync,
{
    type Rec = Rec;
    type Src = Computed<R>;
    type Error = ShardPanicked;

    fn shards(&mut self) -> &mut [Simulator<R, Rec>] {
        &mut self.shards
    }

    fn execute(&mut self, planner: P, cfg: LoopCfg) -> Result<Vec<ShardOut>, ShardPanicked> {
        let queues = self.layout.num_nodes * self.shards[0].core.num_classes;
        let mb: Mailboxes<R::Msg> = Mailboxes::new(self.shards.len(), queues);
        let (plan, layout, mb, planner, cfg) = (&self.plan, &*self.layout, &mb, &planner, &cfg);
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .enumerate()
                .map(|(sid, sim)| {
                    scope.spawn(move || {
                        let _guard = PoisonGuard(&mb.barrier);
                        let mut port = Threaded {
                            sid,
                            plan,
                            layout,
                            mb,
                            cursors: vec![0; plan.owned.len()],
                        };
                        // The planner's per-node state is built on the
                        // shard's own thread (see `Planner::start`).
                        driver::run_shard(sim, &mut port, planner.clone(), cfg)
                    })
                })
                .collect();
            // Join every worker before classifying: a panicking worker
            // poisons the phase barrier (see `PoisonGuard`), which wakes
            // all siblings into their own `SIBLING_PANIC` panics, so no
            // join here can block forever. Blame the first shard whose
            // payload is *not* the sibling echo — that worker unwound
            // first and carries the actual failure.
            let joined: Vec<_> = handles
                .into_iter()
                .map(std::thread::ScopedJoinHandle::join)
                .collect();
            let mut first_sibling = None;
            let mut outs = Vec::with_capacity(joined.len());
            for (shard, res) in joined.into_iter().enumerate() {
                match res {
                    Ok(out) => outs.push(out),
                    Err(p) => {
                        let payload = panic_payload(p.as_ref());
                        let e = ShardPanicked { shard, payload };
                        if e.payload == SIBLING_PANIC {
                            if first_sibling.is_none() {
                                first_sibling = Some(e);
                            }
                        } else {
                            return Err(e);
                        }
                    }
                }
            }
            match first_sibling {
                Some(e) => Err(e),
                None => Ok(outs),
            }
        })
    }
}

/// Checkpoint/restore for sharded runs. The snapshot text is assembled
/// piecewise from the shard that owns each piece of state, in the same
/// canonical order the sequential engine writes — so a sharded
/// checkpoint is byte-identical to a sequential one of the same run,
/// and either engine can restore the other's snapshot.
impl<R: RoutingFunction + Clone, Rec: ShardRecorder> ShardedSimulator<R, Rec>
where
    R::Msg: SnapshotMsg,
{
    /// Which shard executes channel `c`'s link pass (and owns its
    /// round-robin pointer and input buffers).
    fn chan_exec_shard(&self, c: usize) -> usize {
        self.plan.node_shard[self.layout.chan_to[c] as usize] as usize
    }

    /// Which shard owns channel `c`'s source node (and its output
    /// buffers and flaky retry counters).
    fn chan_src_shard(&self, c: usize) -> usize {
        self.plan.node_shard[self.layout.chan_from[c] as usize] as usize
    }

    /// The shard holding a packet at `loc`: the shard of the node whose
    /// queue or injection buffer it is, of an output buffer's channel
    /// source, or of an input buffer's channel target (which runs the
    /// channel's link pass).
    fn loc_shard(plan: &ShardPlan, layout: &Layout, loc: Loc) -> usize {
        let node = match loc {
            Loc::Queue(v) | Loc::Inj(v) => v,
            Loc::Out(b) => layout.chan_from[layout.buf_chan[b as usize] as usize],
            Loc::In(b) => layout.chan_to[layout.buf_chan[b as usize] as usize],
        };
        plan.node_shard[node as usize] as usize
    }

    /// Sharded equivalent of [`Simulator::checkpoint`]: serialize the
    /// merged engine state as a `fadr-snapshot/3` document, byte-for-byte
    /// equal to what a sequential engine paused at the same cycle writes.
    #[must_use]
    pub fn checkpoint(&self, meta: &str, progress: &RunProgress) -> String {
        let n = self.num_nodes();
        let nb = self.layout.num_buffers();
        let nch = self.layout.num_channels();
        let chan_rr: Vec<u16> = (0..nch)
            .map(|c| self.shards[self.chan_exec_shard(c)].core.chan_rr[c])
            .collect();
        let mut fail: Vec<(u32, u32)> = Vec::new();
        for (sid, sim) in self.shards.iter().enumerate() {
            fail.extend(
                sim.core
                    .flaky_fail_counts()
                    .into_iter()
                    .filter(|&(chan, _)| self.chan_src_shard(chan as usize) == sid),
            );
        }
        fail.sort_unstable();
        let stats = driver::merged_stats(&self.shards);
        let g = snapshot::Globals {
            cfg: &self.cfg,
            dims: (n, self.shards[0].core.num_classes, nb, nch),
            cycle: self.shards[0].cycle(),
            next_uid: self.shards[0].core.next_uid,
            delivered: driver::delivered(&self.shards),
            dropped: driver::dropped(&self.shards),
            chan_rr,
            fail,
            stats: &stats,
        };
        let packets = Loc::all(n, nb).flat_map(|loc| {
            self.shards[Self::loc_shard(&self.plan, &self.layout, loc)].packets_at(loc)
        });
        snapshot::assemble(meta, &g, packets, progress)
    }

    /// Sharded equivalent of [`Simulator::restore`]: load a
    /// `fadr-snapshot/3` document (from either engine), placing each
    /// packet in the shard that holds its location. Merged global state
    /// (latency statistics, delivered/dropped totals) is carried by
    /// shard 0 — the merge accessors and the resumed workers' replicated
    /// counters reassemble the totals. The whole document is validated
    /// before any shard changes, so on error every shard and recorder is
    /// left untouched.
    ///
    /// The shards recompute their queued packets' routing options on one
    /// thread each, as a run does. Under a fault plan this recompute
    /// fills the surviving-distance rows the shard's packets need (every
    /// row of a non-minimal scheme, 16 MiB per shard at hypercube(11);
    /// a minimal one's only outside the intact-destination set), so they
    /// land in a worker thread's heap, which
    /// glibc hands back to the OS when the simulator drops. Filled on the
    /// caller's thread, they landed in glibc's main heap below blocks
    /// allocated later, which kept them resident after the drop, and a
    /// 2-shard hypercube(11) pause-and-resume peaked at 61 or 80 MiB from
    /// one run to the next. The shards also fill their rows in parallel.
    pub fn restore(&mut self, text: &str) -> Result<(String, RunProgress), String>
    where
        R: Send,
        R::Msg: Send,
        Rec: Send,
    {
        let snap: ParsedSnapshot<R::Msg> = snapshot::parse(text)?;
        // Every shard runs the same instance, so shard 0 validates for all.
        self.shards[0].validate_snapshot(&snap)?;
        let (plan, layout) = (&self.plan, &self.layout);
        for (sid, sim) in self.shards.iter_mut().enumerate() {
            sim.commit_snapshot(&snap, sid == 0, |loc| {
                Self::loc_shard(plan, layout, loc) == sid
            });
        }
        std::thread::scope(|scope| {
            for sim in &mut self.shards {
                scope.spawn(move || sim.resettle_queued());
            }
        });
        Ok((snap.meta, snap.progress))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fadr_core::HypercubeFullyAdaptive;

    #[test]
    fn plan_partitions_nodes_and_channels() {
        let rf = HypercubeFullyAdaptive::new(3);
        let layout = Layout::new(&rf);
        let part = Partition::new(PartitionStrategy::Contiguous, rf.topology(), &layout, 3)
            .expect("3 shards is valid");
        let plan = ShardPlan::new(&layout, part);
        // Contiguous shard node sets tile 0..8.
        let nodes: Vec<Vec<usize>> = plan.owned.iter().map(|o| o.iter().collect()).collect();
        assert_eq!(nodes, [vec![0, 1], vec![2, 3, 4], vec![5, 6, 7]]);
        for (s, ids) in nodes.iter().enumerate() {
            for &v in ids {
                assert_eq!(plan.node_shard[v] as usize, s);
                assert!(plan.owned[s].contains(v));
            }
        }
        // Every channel is executed by exactly one shard (its target's).
        let execs: usize = plan.exec.iter().map(Vec::len).sum();
        assert_eq!(execs, layout.num_channels());
        // Cross lists agree with the exec lists' remote entries.
        let cross: usize = plan.cross_out.iter().map(Vec::len).sum();
        let remote: usize = plan
            .exec
            .iter()
            .enumerate()
            .map(|(s, v)| v.iter().filter(|&&(_, sf)| sf as usize != s).count())
            .sum();
        assert_eq!(cross, remote);
        // Exec and cross lists are ascending (the mailbox cursor relies
        // on it).
        for v in &plan.exec {
            assert!(v.windows(2).all(|w| w[0].0 < w[1].0));
        }
        for c in &plan.cross_out {
            assert!(c.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn rank_uids_recovers_global_injection_order() {
        // Shards own interleaved nodes {0,2,5} and {1,3,4}; all six
        // inject this cycle. Sequential order is ascending node id, so
        // from base 10 the uids are 10..16 in node order.
        let boxes = vec![Mutex::new(vec![0, 2, 5]), Mutex::new(vec![1, 3, 4])];
        let mut uids = Vec::new();
        let mut cursors = vec![0usize; 2];
        let pending0: Vec<(u32, u32)> = vec![(0, 0), (2, 0), (5, 0)];
        let next0 = rank_uids(0, &boxes, &pending0, 10, &mut uids, &mut cursors);
        assert_eq!(uids, vec![10, 12, 15]);
        let pending1: Vec<(u32, u32)> = vec![(1, 0), (3, 0), (4, 0)];
        let next1 = rank_uids(1, &boxes, &pending1, 10, &mut uids, &mut cursors);
        assert_eq!(uids, vec![11, 13, 14]);
        // Every worker agrees on the next free uid, even one with an
        // empty pending list.
        assert_eq!(next0, 16);
        assert_eq!(next1, 16);
        assert_eq!(rank_uids(0, &boxes, &[], 16, &mut uids, &mut cursors), 19);
    }

    #[test]
    fn shard_count_is_clamped() {
        let sim = ShardedSimulator::new(HypercubeFullyAdaptive::new(2), SimConfig::default(), 64);
        assert_eq!(sim.num_shards(), 4); // clamped to num_nodes
        let sim = ShardedSimulator::new(HypercubeFullyAdaptive::new(2), SimConfig::default(), 0);
        assert_eq!(sim.num_shards(), 1);
    }

    #[test]
    fn poison_barrier_wakes_waiters_on_panic() {
        let barrier = Arc::new(PoisonBarrier::new(2));
        let b = Arc::clone(&barrier);
        let waiter = std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.wait()));
            result.is_err()
        });
        // Simulate a sibling panicking before reaching the barrier.
        barrier.poison();
        assert!(waiter.join().expect("waiter thread itself must not die"));
    }
}
