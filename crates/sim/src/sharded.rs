//! Intra-simulation sharding: one simulation, many threads, bit-identical
//! results.
//!
//! [`ShardedSimulator`] partitions the nodes across shards with a
//! topology-aware [`Partition`] (Hamming-prefix subcubes on hypercubes,
//! coordinate bisection on grids, BFS growth elsewhere — see
//! [`PartitionStrategy`]; the partition only changes how much cross-shard
//! traffic the mailboxes carry, never the results) and runs the
//! fill/link/read cycle of § 7.1 shard-locally, one thread per shard.
//! The only state a cycle moves between nodes is a packet crossing a
//! directed channel, so the shards exchange exactly that — **offers**
//! (packets staged on a cross-shard channel) and **acks** (the receiver
//! took the packet) — through per-pair mailboxes, with a barrier on each
//! side of the link pass.
//!
//! # Why the result is bit-identical to [`Simulator`]
//!
//! Every phase of the sequential engine decomposes into per-node or
//! per-channel transitions that touch disjoint state:
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
//! Cross-cycle global state is reduced to three replicated scalars
//! (delivered count, next packet uid, watchdog progress), which every
//! worker recomputes identically from the per-cycle summaries all
//! shards publish — no shard waits on another's decision. Packet uids
//! stay dense and equal to the sequential injection order because each
//! shard pre-plans its next cycle's injections a phase early and
//! publishes the *node ids* it will inject at: the sequential engine
//! injects in ascending node order within a cycle, so every worker
//! merge-ranks its own (ascending) list against its siblings' to
//! recover each packet's global rank ([`rank_uids`]) — correct under
//! any node partition, where the old contiguous-range prefix-sum would
//! misnumber interleaved shards. Dynamic-injection draws come from
//! per-node RNG streams ([`crate::SimConfig::seed`] ⊕ node id), so
//! partitioning the node loop across threads cannot reorder anyone's
//! stream. Statistics merge exactly (integer accumulators), and
//! recorders merge in fixed shard order via
//! [`ShardRecorder`](fadr_metrics::ShardRecorder).
//!
//! # Watchdog
//!
//! A per-shard [`WatchdogSink`](fadr_metrics::WatchdogSink) would see
//! only its shard's deliveries and misfire, so sharded runs use
//! [`ShardedSimulator::with_watchdog`]: the same `k`-cycle no-progress
//! rule evaluated on the replicated global counters, with the
//! [`StallReport`] synthesized from all shards after the run.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use rand::rngs::StdRng;
use rand::Rng;

use fadr_metrics::{
    Control, LatencyStats, NoRecorder, PartitionStats, ShardRecorder, StallReport, TimeSeries,
};
use fadr_qdg::{RoutingFunction, SnapshotMsg};
use fadr_topology::NodeId;

use crate::engine::{draw, node_rng, OfferItem, Simulator};
use crate::fault::FaultPlan;
use crate::layout::Layout;
use crate::partition::{OwnedNodes, Partition, PartitionStrategy};
use crate::snapshot::{self, Loc, ParsedSnapshot};
use crate::{
    DynamicOutcome, DynamicResult, OccupancyProbe, RunProgress, SimConfig, StaticOutcome,
    StaticResult, StopReason,
};

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
    /// Owned node ids per shard, ascending (the ascending order is what
    /// lets [`rank_uids`] merge injection lists with one cursor each).
    nodes: Vec<Vec<u32>>,
    /// The same sets as membership structures for the engine's
    /// node-subset entry points (`apply_faults`, `sample_occupancy`).
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
            shard_nodes: nodes,
            node_shard,
            ..
        } = part;
        let shards = nodes.len();
        let owned = nodes
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
            nodes,
            owned,
            node_shard,
            exec,
            cross_out,
        }
    }
}

/// What each shard publishes at the end of its link/read phase; every
/// worker folds all summaries into the same replicated global state.
#[derive(Clone, Copy, Default)]
struct CycleSummary {
    /// Packets this shard delivered this cycle.
    delivered: u64,
    /// Link traversals this shard executed this cycle.
    links: u64,
    /// Packets node-down faults destroyed on this shard this cycle.
    dropped: u64,
    /// Backlog entries this shard's planner wrote off this cycle
    /// because their source node died (published with the cycle the
    /// injections would have happened in, matching when the sequential
    /// engine's loop condition first sees them).
    lost: u64,
    /// This shard found some destination unreachable (cumulative).
    partitioned: bool,
    /// This shard's recorder voted to stop.
    stop: bool,
}

/// Stall evidence captured by the replicated watchdog (identical on
/// every worker); the full [`StallReport`] is synthesized after join.
#[derive(Clone, Copy)]
struct StallInfo {
    cycle: u64,
    window: u64,
    links_in_window: u64,
    in_flight: u64,
}

struct WorkerOut {
    attempts: u64,
    injected: u64,
    /// Replicated global count of backlog entries lost to dead source
    /// nodes (identical on every worker).
    lost: u64,
    aborted: bool,
    stall: Option<StallInfo>,
    /// The worker stopped at the requested pause cycle (all workers
    /// agree: the pause condition is evaluated on replicated state).
    paused: bool,
    /// This shard's `(node, next_idx)` backlog cursors at the pause
    /// (empty for dynamic runs).
    progress: Vec<(u32, usize)>,
    /// Backlog entries this shard wrote off in the pause cycle itself —
    /// published but never folded into `lost` (the loop exited first).
    lost_pending: u64,
}

/// Replicated global counters a resumed run starts from (identical on
/// every worker; derived from the restored shard state by the driver).
#[derive(Clone, Copy)]
struct ResumeBase {
    delivered: u64,
    dropped: u64,
    lost: u64,
}

/// A shard's injection planner: decides, one cycle ahead, which owned
/// nodes inject what. A trait rather than a closure so a pausing worker
/// can extract the cursor state a checkpoint must carry.
trait Planner<R: RoutingFunction, Rec: ShardRecorder> {
    /// Plan next cycle's injections into `pending` (ascending node id);
    /// returns `(attempts, lost)` for the cycle.
    fn plan(&mut self, sim: &Simulator<R, Rec>, pending: &mut Vec<(u32, u32)>) -> (u64, u64);

    /// This shard's `(node, next_idx)` backlog cursors (empty for
    /// planners without cursor state, i.e. dynamic injection).
    fn pause_progress(&self) -> Vec<(u32, usize)>;
}

/// Static-injection planner: per-node backlog cursors, the sharded
/// mirror of the sequential engine's `static_loop` injection pass.
struct StaticPlanner<'a> {
    backlog: &'a [Vec<NodeId>],
    nodes: Vec<u32>,
    next_idx: Vec<usize>,
}

impl<R: RoutingFunction, Rec: ShardRecorder> Planner<R, Rec> for StaticPlanner<'_> {
    fn plan(&mut self, sim: &Simulator<R, Rec>, pending: &mut Vec<(u32, u32)>) -> (u64, u64) {
        let mut lost = 0u64;
        for (i, &v32) in self.nodes.iter().enumerate() {
            let v = v32 as usize;
            if self.next_idx[i] >= self.backlog[v].len() {
                continue;
            }
            if !sim.core.node_alive(v) {
                // Same write-off as the sequential loop: a dead node's
                // remaining backlog is never offered.
                lost += (self.backlog[v].len() - self.next_idx[i]) as u64;
                self.next_idx[i] = self.backlog[v].len();
            } else if sim.core.inj_free(v) {
                pending.push((v32, self.backlog[v][self.next_idx[i]] as u32));
                self.next_idx[i] += 1;
            }
        }
        (0, lost)
    }

    fn pause_progress(&self) -> Vec<(u32, usize)> {
        self.nodes
            .iter()
            .copied()
            .zip(self.next_idx.iter().copied())
            .collect()
    }
}

/// Dynamic-injection planner: Bernoulli(λ) per owned node with the same
/// per-node RNG streams as the sequential engine.
struct DynPlanner<'a, F> {
    lambda: f64,
    dest: &'a F,
    nodes: Vec<u32>,
    rngs: Vec<StdRng>,
}

impl<F, R, Rec> Planner<R, Rec> for DynPlanner<'_, F>
where
    F: Fn(NodeId, &mut StdRng) -> NodeId,
    R: RoutingFunction,
    Rec: ShardRecorder,
{
    fn plan(&mut self, sim: &Simulator<R, Rec>, pending: &mut Vec<(u32, u32)>) -> (u64, u64) {
        let mut att = 0u64;
        for (i, &v32) in self.nodes.iter().enumerate() {
            let v = v32 as usize;
            let rng = &mut self.rngs[i];
            if self.lambda < 1.0 && !rng.gen_bool(self.lambda) {
                continue;
            }
            att += 1;
            // Drawn unconditionally, like the sequential engine: a dead
            // node keeps drawing and discarding so the per-node stream
            // is fault-independent.
            let dst = (self.dest)(v, rng);
            if sim.core.inj_free(v) && sim.core.node_alive(v) {
                pending.push((v32, dst as u32));
            }
        }
        (att, 0)
    }

    fn pause_progress(&self) -> Vec<(u32, usize)> {
        Vec::new()
    }
}

/// Panic message of a worker woken by a poisoned barrier (as opposed to
/// the worker that panicked first): [`run_shards`] filters these out
/// when deciding which shard to blame in [`ShardPanicked`].
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
    barrier: PoisonBarrier,
}

impl<M> Mailboxes<M> {
    fn new(shards: usize) -> Self {
        Self {
            offers: (0..shards)
                .map(|_| (0..shards).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            acks: (0..shards)
                .map(|_| (0..shards).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            summaries: (0..shards).map(|_| Mutex::default()).collect(),
            inj_nodes: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            barrier: PoisonBarrier::new(shards),
        }
    }
}

/// How a run decides it is finished (the sequential engine's loop
/// condition, evaluated on replicated global state).
#[derive(Clone, Copy)]
enum Horizon {
    /// Static run: until all `total` packets are delivered (or the
    /// `max_cycles` cap).
    Drain { total: u64 },
    /// Dynamic run: a fixed number of cycles.
    Cycles(u64),
}

/// Assigns global uids to this shard's planned injections by ranking
/// them in the all-shards ascending-node-id order the sequential engine
/// injects in. Every shard's published [`Mailboxes::inj_nodes`] list is
/// ascending and the lists are disjoint, so one monotone cursor per
/// sibling recovers, for each own entry, how many remote injections
/// precede it. Returns the next uid after this cycle's injections
/// (`base` + the total injection count across all shards) — every
/// worker computes the same value.
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

/// The per-shard worker: runs the full simulation loop on its node
/// set, synchronizing with siblings twice per cycle. Control flow
/// mirrors `Simulator::run_static`/`run_dynamic` exactly — same loop
/// conditions, evaluated on identically-replicated state.
///
/// With `pause_at = Some(p)` every worker stops in lockstep at cycle
/// `p`, post-injection and pre-fault-application — the checkpointable
/// pause point — before that iteration's first barrier, so no sibling
/// is left waiting. A `resume` base restarts from restored shard state:
/// the pre-loop planning pass is skipped (the pause cycle's injections
/// are already in the snapshot) and the replicated counters start from
/// the restored globals.
#[allow(clippy::too_many_arguments)]
fn run_worker<R: RoutingFunction, Rec: ShardRecorder, P: Planner<R, Rec>>(
    sim: &mut Simulator<R, Rec>,
    sid: usize,
    plan: &ShardPlan,
    layout: &Layout,
    mb: &Mailboxes<R::Msg>,
    horizon: Horizon,
    watchdog: Option<u64>,
    max_cycles: u64,
    track_occupancy: bool,
    mut planner: P,
    pause_at: Option<u64>,
    resume: Option<ResumeBase>,
) -> WorkerOut {
    let _guard = PoisonGuard(&mb.barrier);
    let shards = plan.nodes.len();
    let nodes = &plan.nodes[sid];
    let owned = &plan.owned[sid];
    let mut pending: Vec<(u32, u32)> = Vec::new();
    let mut uids: Vec<u64> = Vec::new();
    let mut cursors = vec![0usize; shards];

    // Replicated global state (every worker computes the same values).
    let mut resumed = resume.is_some();
    let mut att_next = 0u64;
    let mut lost_next = 0u64;
    let (mut next_uid_global, mut delivered_global, mut dropped_global, mut lost_global) =
        if let Some(rb) = resume {
            // The restored engines all carry the global uid frontier;
            // the first loop iteration re-executes the pause cycle's
            // routing step, so nothing is planned or ranked here.
            (sim.core.next_uid, rb.delivered, rb.dropped, rb.lost)
        } else {
            // Plan cycle 0's injections, publish their node ids, and
            // rank them into the global injection order before starting.
            let next = planner.plan(sim, &mut pending);
            att_next = next.0;
            lost_next = next.1;
            {
                let mut b = lock(&mb.inj_nodes[sid]);
                b.clear();
                b.extend(pending.iter().map(|&(v, _)| v));
            }
            mb.barrier.wait();
            let frontier = rank_uids(sid, &mb.inj_nodes, &pending, 0, &mut uids, &mut cursors);
            (frontier, 0, 0, 0)
        };
    let mut last_delivery: u64 = sim.cycle();
    let mut links_since_delivery: u64 = 0;

    let mut attempts = 0u64;
    let mut injected = 0u64;
    let mut prev_delivered = sim.core.delivered;
    let mut prev_dropped = sim.core.dropped;
    let mut aborted = false;
    let mut stall: Option<StallInfo> = None;

    loop {
        match horizon {
            Horizon::Drain { total } => {
                if delivered_global + dropped_global + lost_global >= total
                    || sim.cycle() >= max_cycles
                {
                    break;
                }
            }
            Horizon::Cycles(n) => {
                if sim.cycle() >= n {
                    break;
                }
            }
        }

        // --- Phase 1: acks, inject, fill, publish offers -------------
        for f in 0..shards {
            if f == sid {
                continue;
            }
            let mut inbox = lock(&mb.acks[f][sid]);
            sim.apply_acks(&inbox);
            inbox.clear();
        }
        attempts += att_next;
        injected += pending.len() as u64;
        let lost_cycle = lost_next;
        for (j, &(v, dst)) in pending.iter().enumerate() {
            sim.core.next_uid = uids[j];
            sim.core
                .inject(&sim.rf, v as usize, dst as usize, &mut sim.rec);
        }
        pending.clear();
        if resumed {
            // First iteration after a resume re-executes the pause
            // cycle's routing step; its injections were restored, and
            // pausing again at the same cycle would checkpoint nothing.
            resumed = false;
        } else if pause_at == Some(sim.cycle()) {
            // Align every shard's uid frontier with the replicated
            // global one so any shard's engine serializes the run's
            // `next_uid` (and resume can read it back from any shard).
            sim.core.next_uid = next_uid_global;
            return WorkerOut {
                attempts,
                injected,
                lost: lost_global,
                aborted: false,
                stall: None,
                paused: true,
                progress: planner.pause_progress(),
                lost_pending: lost_cycle,
            };
        }
        // Faults fire after this cycle's injections and before its fill
        // pass, exactly where the sequential `step` applies them. The
        // ack drain above must precede this: a packet that crossed last
        // cycle but whose ack is still in the mailbox would otherwise be
        // reabsorbed a second time from the sender's output buffer.
        sim.core.apply_faults(&sim.rf, owned, &mut sim.rec);
        for &v in nodes {
            sim.core.fill_node(&sim.rf, v as usize, &mut sim.rec);
        }
        {
            let mut outboxes: HeldBoxes<'_, OfferItem<R::Msg>> = (0..shards)
                .map(|t| (t != sid).then(|| lock(&mb.offers[sid][t])))
                .collect();
            for &chan in &plan.cross_out[sid] {
                let t = plan.node_shard[layout.chan_to[chan as usize] as usize] as usize;
                sim.collect_offers(
                    chan as usize,
                    outboxes[t].as_mut().expect("cross target is remote"),
                );
            }
        }
        mb.barrier.wait();

        // --- Phase 2: link (intra + cross), read, publish summary ----
        let mut links_cycle = 0u64;
        {
            let mut inboxes: HeldBoxes<'_, OfferItem<R::Msg>> = (0..shards)
                .map(|f| (f != sid).then(|| lock(&mb.offers[f][sid])))
                .collect();
            let mut ack_out: HeldBoxes<'_, u32> = (0..shards)
                .map(|f| (f != sid).then(|| lock(&mb.acks[sid][f])))
                .collect();
            let mut cursor = vec![0usize; shards];
            for &(chan, sf) in &plan.exec[sid] {
                if sf as usize == sid {
                    if sim.core.link_chan(&sim.rf, chan as usize, &mut sim.rec) {
                        links_cycle += 1;
                    }
                    continue;
                }
                let f = sf as usize;
                let items = inboxes[f].as_mut().expect("cross source is remote");
                // Offers arrive in ascending channel order, as does the
                // exec list: a single cursor pairs them up.
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
                    links_cycle += 1;
                    ack_out[f].as_mut().expect("ack target is remote").push(buf);
                }
            }
            for inbox in inboxes.iter_mut().flatten() {
                inbox.clear();
            }
        }
        for &v in nodes {
            sim.core.read_node(&sim.rf, v as usize, &mut sim.rec);
        }
        if track_occupancy {
            sim.core.sample_occupancy(owned);
        }
        let delivered_cycle = sim.core.delivered - prev_delivered;
        prev_delivered = sim.core.delivered;
        let dropped_cycle = sim.core.dropped - prev_dropped;
        prev_dropped = sim.core.dropped;
        let ctl = sim.core.end_cycle(&mut sim.rec);
        let next = planner.plan(sim, &mut pending);
        att_next = next.0;
        lost_next = next.1;
        {
            let mut b = lock(&mb.inj_nodes[sid]);
            b.clear();
            b.extend(pending.iter().map(|&(v, _)| v));
        }
        *lock(&mb.summaries[sid]) = CycleSummary {
            delivered: delivered_cycle,
            links: links_cycle,
            dropped: dropped_cycle,
            lost: lost_cycle,
            partitioned: !sim.core.partitioned.is_empty(),
            stop: ctl == Control::Stop,
        };
        mb.barrier.wait();

        // --- Phase 3: fold summaries into replicated global state ----
        let sums: Vec<CycleSummary> = mb.summaries.iter().map(|m| *lock(m)).collect();
        let d: u64 = sums.iter().map(|s| s.delivered).sum();
        delivered_global += d;
        dropped_global += sums.iter().map(|s| s.dropped).sum::<u64>();
        lost_global += sums.iter().map(|s| s.lost).sum::<u64>();
        let cycle = sim.cycle();
        if d > 0 {
            last_delivery = cycle;
            links_since_delivery = 0;
        } else {
            links_since_delivery += sums.iter().map(|s| s.links).sum::<u64>();
        }
        if let Some(k) = watchdog {
            // Same rule as `WatchdogSink::on_cycle_end`: all link
            // traversals of a cycle precede its deliveries, so the
            // per-cycle folding above is exact. Dropped packets are no
            // longer in flight.
            let in_flight = next_uid_global - delivered_global - dropped_global;
            if stall.is_none() && in_flight > 0 && cycle - last_delivery >= k {
                stall = Some(StallInfo {
                    cycle,
                    window: cycle - last_delivery,
                    links_in_window: links_since_delivery,
                    in_flight,
                });
                aborted = true;
            }
        }
        if sums.iter().any(|s| s.partitioned) {
            // A partitioned destination can never drain: abort at the
            // end of the cycle that detected it (the sequential engine
            // forces `Control::Stop` the same way), synthesizing stall
            // evidence if the watchdog hasn't already.
            aborted = true;
            if stall.is_none() {
                stall = Some(StallInfo {
                    cycle,
                    window: cycle - last_delivery,
                    links_in_window: links_since_delivery,
                    in_flight: next_uid_global - delivered_global - dropped_global,
                });
            }
        }
        if sums.iter().any(|s| s.stop) {
            aborted = true;
        }
        // Rank next cycle's injections after the watchdog logic above:
        // the watchdog's in-flight count must see the uid frontier as of
        // the injections already performed, not the planned ones.
        next_uid_global = rank_uids(
            sid,
            &mb.inj_nodes,
            &pending,
            next_uid_global,
            &mut uids,
            &mut cursors,
        );
        sim.core.cycle += 1;
        if aborted {
            break;
        }
    }

    // Final cycle's acks were published before the last barrier but
    // never drained (the loop exited first); apply them so sender-side
    // slabs and trace state match the sequential engine's.
    for f in 0..shards {
        if f == sid {
            continue;
        }
        let mut inbox = lock(&mb.acks[f][sid]);
        sim.apply_acks(&inbox);
        inbox.clear();
    }

    WorkerOut {
        attempts,
        injected,
        lost: lost_global,
        aborted,
        stall,
        paused: false,
        progress: Vec::new(),
        lost_pending: 0,
    }
}

/// A sharded drop-in for [`Simulator`]: same experiments, same results,
/// one thread per shard. See the module docs for the equivalence
/// argument; the shard-equivalence test suite asserts bit-identity of
/// statistics, traces, occupancy, and throughput against the sequential
/// engine for every routing family in the table set.
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
    watchdog: Option<u64>,
    stall: Option<StallReport>,
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
            watchdog: None,
            stall: None,
        }
    }

    /// How the nodes were split across shards: strategy, shard count,
    /// and the measured cut (cross-shard channel fraction). Lower cut
    /// means less mailbox traffic per cycle; it never affects results.
    pub fn partition_stats(&self) -> &PartitionStats {
        &self.stats
    }

    /// Abort runs after `k` consecutive cycles without a delivery while
    /// packets are in flight — the engine-level equivalent of attaching
    /// a [`fadr_metrics::WatchdogSink`], evaluated on global (all-shard)
    /// progress. The resulting [`StallReport`] is available from
    /// [`ShardedSimulator::stall_report`] after the run.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0.
    #[must_use]
    pub fn with_watchdog(mut self, k: u64) -> Self {
        assert!(k >= 1, "watchdog window must be at least 1 cycle");
        self.watchdog = Some(k);
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
    /// stopped with [`StopReason::Partitioned`].
    pub fn partitioned_destinations(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .shards
            .iter()
            .flat_map(Simulator::partitioned_destinations)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of shards (threads) the simulation runs on.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.layout.num_nodes
    }

    /// Sharded equivalent of [`Simulator::run_static`]: node `v` injects
    /// the packets of `backlog[v]` (in order) as fast as its injection
    /// buffer frees up, until the network drains.
    pub fn run_static(&mut self, backlog: &[Vec<NodeId>]) -> StaticResult
    where
        R: Send,
        R::Msg: Send,
        Rec: Send,
    {
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
    ) -> StaticOutcome
    where
        R: Send,
        R::Msg: Send,
        Rec: Send,
    {
        self.try_run_static_until(backlog, pause_at)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ShardedSimulator::run_static_until`], but a worker panic is
    /// returned as [`ShardPanicked`] (the [`crate::Engine`] error
    /// channel) naming the first shard whose worker panicked. The shard
    /// state is unspecified after an error — drop the engine.
    pub(crate) fn try_run_static_until(
        &mut self,
        backlog: &[Vec<NodeId>],
        pause_at: Option<u64>,
    ) -> Result<StaticOutcome, ShardPanicked>
    where
        R: Send,
        R::Msg: Send,
        Rec: Send,
    {
        assert_eq!(backlog.len(), self.num_nodes());
        let total: u64 = backlog.iter().map(|b| b.len() as u64).sum();
        let outs = self.run_shards(
            Horizon::Drain { total },
            |sid, plan| StaticPlanner {
                backlog,
                nodes: plan.nodes[sid].clone(),
                next_idx: vec![0usize; plan.nodes[sid].len()],
            },
            pause_at,
            None,
        )?;
        Ok(self.finish_static(total, &outs))
    }

    /// Sharded equivalent of [`Simulator::resume_static`]: continue a
    /// static run from restored shard state (see
    /// [`ShardedSimulator::restore`]). `backlog` must be the original
    /// workload.
    ///
    /// # Panics
    ///
    /// Panics if `progress` is not [`RunProgress::Static`].
    pub fn resume_static(
        &mut self,
        backlog: &[Vec<NodeId>],
        progress: RunProgress,
        pause_at: Option<u64>,
    ) -> StaticOutcome
    where
        R: Send,
        R::Msg: Send,
        Rec: Send,
    {
        self.try_resume_static(backlog, progress, pause_at)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ShardedSimulator::resume_static`], with worker panics returned
    /// as in [`ShardedSimulator::try_run_static_until`].
    pub(crate) fn try_resume_static(
        &mut self,
        backlog: &[Vec<NodeId>],
        progress: RunProgress,
        pause_at: Option<u64>,
    ) -> Result<StaticOutcome, ShardPanicked>
    where
        R: Send,
        R::Msg: Send,
        Rec: Send,
    {
        assert_eq!(backlog.len(), self.num_nodes());
        let RunProgress::Static { next_idx, lost } = progress else {
            panic!("resume_static needs static progress");
        };
        assert_eq!(next_idx.len(), backlog.len(), "progress/backlog mismatch");
        let total: u64 = backlog.iter().map(|b| b.len() as u64).sum();
        let resume = ResumeBase {
            delivered: self.delivered(),
            dropped: self.dropped(),
            lost,
        };
        let next_idx = &next_idx;
        let outs = self.run_shards(
            Horizon::Drain { total },
            |sid, plan| StaticPlanner {
                backlog,
                nodes: plan.nodes[sid].clone(),
                next_idx: plan.nodes[sid]
                    .iter()
                    .map(|&v| next_idx[v as usize])
                    .collect(),
            },
            pause_at,
            Some(resume),
        )?;
        Ok(self.finish_static(total, &outs))
    }

    fn finish_static(&mut self, total: u64, outs: &[WorkerOut]) -> StaticOutcome {
        if outs[0].paused {
            // The pause cycle's own write-offs were published but never
            // folded into the replicated `lost` (the workers returned
            // before phase 3); the per-shard pending counts carry them.
            let mut next_idx = vec![0usize; self.num_nodes()];
            for out in outs {
                for &(v, idx) in &out.progress {
                    next_idx[v as usize] = idx;
                }
            }
            let lost = outs[0].lost + outs.iter().map(|o| o.lost_pending).sum::<u64>();
            return StaticOutcome::Paused(RunProgress::Static { next_idx, lost });
        }
        let delivered = self.delivered();
        let dropped = self.dropped();
        let lost = outs[0].lost;
        let accounted = delivered + dropped + lost == total;
        let stop = if accounted {
            StopReason::Drained
        } else if !self.partitioned_destinations().is_empty() {
            StopReason::Partitioned
        } else if outs.iter().any(|o| o.aborted) {
            StopReason::Aborted
        } else {
            StopReason::MaxCycles
        };
        self.stall = outs[0].stall.map(|info| self.build_stall_report(info));
        StaticOutcome::Finished(StaticResult {
            stats: self.merged_stats(),
            cycles: self.shards[0].cycle(),
            delivered,
            total,
            drained: stop == StopReason::Drained,
            dropped,
            lost,
            stop,
        })
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
    ) -> DynamicResult
    where
        R: Send,
        R::Msg: Send,
        Rec: Send,
    {
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
    ) -> DynamicOutcome
    where
        R: Send,
        R::Msg: Send,
        Rec: Send,
    {
        self.try_run_dynamic_until(lambda, dest, cycles, pause_at)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ShardedSimulator::run_dynamic_until`], with worker panics
    /// returned as in [`ShardedSimulator::try_run_static_until`].
    pub(crate) fn try_run_dynamic_until(
        &mut self,
        lambda: f64,
        dest: impl Fn(NodeId, &mut StdRng) -> NodeId + Sync,
        cycles: u64,
        pause_at: Option<u64>,
    ) -> Result<DynamicOutcome, ShardPanicked>
    where
        R: Send,
        R::Msg: Send,
        Rec: Send,
    {
        assert!((0.0..=1.0).contains(&lambda));
        let seed = self.cfg.seed;
        let dest = &dest;
        let outs = self.run_shards(
            Horizon::Cycles(cycles),
            |sid, plan| {
                let nodes = plan.nodes[sid].clone();
                let rngs = nodes.iter().map(|&v| node_rng(seed, v as usize)).collect();
                DynPlanner {
                    lambda,
                    dest,
                    nodes,
                    rngs,
                }
            },
            pause_at,
            None,
        )?;
        Ok(self.finish_dynamic(0, 0, &outs))
    }

    /// Sharded equivalent of [`Simulator::resume_dynamic`]: continue a
    /// dynamic run from restored shard state. `lambda`, `dest`, and
    /// `cycles` must be the original workload parameters — the per-node
    /// RNG streams are fast-forwarded through the draws the paused run
    /// already consumed, exactly as in the sequential engine.
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
    ) -> DynamicOutcome
    where
        R: Send,
        R::Msg: Send,
        Rec: Send,
    {
        self.try_resume_dynamic(lambda, dest, cycles, progress, pause_at)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ShardedSimulator::resume_dynamic`], with worker panics returned
    /// as in [`ShardedSimulator::try_run_static_until`].
    pub(crate) fn try_resume_dynamic(
        &mut self,
        lambda: f64,
        dest: impl Fn(NodeId, &mut StdRng) -> NodeId + Sync,
        cycles: u64,
        progress: RunProgress,
        pause_at: Option<u64>,
    ) -> Result<DynamicOutcome, ShardPanicked>
    where
        R: Send,
        R::Msg: Send,
        Rec: Send,
    {
        assert!((0.0..=1.0).contains(&lambda));
        let RunProgress::Dynamic { attempts, injected } = progress else {
            panic!("resume_dynamic needs dynamic progress");
        };
        let seed = self.cfg.seed;
        // The pause point is post-injection at cycle P, so each stream
        // has consumed exactly P + 1 per-cycle draw rounds.
        let rounds = self.shards[0].cycle() + 1;
        let dest = &dest;
        let resume = ResumeBase {
            delivered: self.delivered(),
            dropped: self.dropped(),
            lost: 0,
        };
        let outs = self.run_shards(
            Horizon::Cycles(cycles),
            |sid, plan| {
                let nodes = plan.nodes[sid].clone();
                let rngs = nodes
                    .iter()
                    .map(|&v| {
                        let mut rng = node_rng(seed, v as usize);
                        for _ in 0..rounds {
                            let _ = draw(&mut rng, lambda, v as usize, &mut |w, r| dest(w, r));
                        }
                        rng
                    })
                    .collect();
                DynPlanner {
                    lambda,
                    dest,
                    nodes,
                    rngs,
                }
            },
            pause_at,
            Some(resume),
        )?;
        Ok(self.finish_dynamic(attempts, injected, &outs))
    }

    fn finish_dynamic(
        &mut self,
        base_attempts: u64,
        base_injected: u64,
        outs: &[WorkerOut],
    ) -> DynamicOutcome {
        let attempts = base_attempts + outs.iter().map(|o| o.attempts).sum::<u64>();
        let injected = base_injected + outs.iter().map(|o| o.injected).sum::<u64>();
        if outs[0].paused {
            return DynamicOutcome::Paused(RunProgress::Dynamic { attempts, injected });
        }
        self.stall = outs[0].stall.map(|info| self.build_stall_report(info));
        let stop = if !self.partitioned_destinations().is_empty() {
            StopReason::Partitioned
        } else if outs.iter().any(|o| o.aborted) {
            StopReason::Aborted
        } else {
            StopReason::HorizonReached
        };
        DynamicOutcome::Finished(DynamicResult {
            stats: self.merged_stats(),
            attempts,
            injected,
            delivered: self.delivered(),
            cycles: self.shards[0].cycle(),
            dropped: self.dropped(),
            stop,
        })
    }

    /// Spawn one worker per shard and run the common cycle loop;
    /// `mk_planner` builds each shard's injection planner. A `resume`
    /// base skips the reset (the shards carry restored state).
    fn run_shards<'a, P>(
        &mut self,
        horizon: Horizon,
        mk_planner: impl Fn(usize, &ShardPlan) -> P + Sync,
        pause_at: Option<u64>,
        resume: Option<ResumeBase>,
        // The planner borrows per-worker state created inside the scope.
    ) -> Result<Vec<WorkerOut>, ShardPanicked>
    where
        R: Send,
        R::Msg: Send,
        Rec: Send,
        P: Planner<R, Rec> + 'a,
    {
        if resume.is_none() {
            for sim in &mut self.shards {
                sim.core.reset();
            }
        }
        self.stall = None;
        let mb: Mailboxes<R::Msg> = Mailboxes::new(self.shards.len());
        let plan = &self.plan;
        let layout = &self.layout;
        let (watchdog, max_cycles, track) =
            (self.watchdog, self.cfg.max_cycles, self.cfg.track_occupancy);
        let mk_planner = &mk_planner;
        let mb_ref = &mb;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .enumerate()
                .map(|(sid, sim)| {
                    scope.spawn(move || {
                        let planner = mk_planner(sid, plan);
                        run_worker(
                            sim, sid, plan, layout, mb_ref, horizon, watchdog, max_cycles, track,
                            planner, pause_at, resume,
                        )
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

    fn delivered(&self) -> u64 {
        self.shards.iter().map(|sim| sim.core.delivered).sum()
    }

    fn dropped(&self) -> u64 {
        self.shards.iter().map(|sim| sim.core.dropped).sum()
    }

    fn merged_stats(&self) -> LatencyStats {
        let mut stats = self.shards[0].core.stats.clone();
        for sim in &self.shards[1..] {
            stats.merge(&sim.core.stats);
        }
        stats
    }

    fn build_stall_report(&self, info: StallInfo) -> StallReport {
        let mut queues = Vec::new();
        for (sid, sim) in self.shards.iter().enumerate() {
            queues.extend(sim.core.nonempty_queues(&self.plan.nodes[sid]));
        }
        // Shards own interleaved node sets under non-contiguous
        // partitions; restore the sequential report's (node, class)
        // order.
        queues.sort_unstable_by_key(|&(node, class, _)| (node, class));
        let oldest = self
            .shards
            .iter()
            .filter_map(|sim| sim.core.oldest_live())
            .min_by_key(|&(uid, ..)| uid);
        // Wait-for edges need the *global* queue-full table: a blocked
        // head's target queue may live on another shard.
        let nc = self.shards[0].core.num_classes;
        let cap = self.cfg.queue_capacity;
        let mut full = vec![false; self.num_nodes() * nc];
        for (sid, sim) in self.shards.iter().enumerate() {
            for &v in &self.plan.nodes[sid] {
                for c in 0..nc {
                    let q = v as usize * nc + c;
                    full[q] = sim.core.queue_len[q] as usize >= cap;
                }
            }
        }
        let is_full = move |w: u32, c: u8| full[w as usize * nc + usize::from(c)];
        let mut waits = Vec::new();
        for (sid, sim) in self.shards.iter().enumerate() {
            waits.extend(sim.core.wait_edges(&self.plan.owned[sid], &is_full));
        }
        waits.sort_unstable();
        waits.dedup();
        StallReport {
            cycle: info.cycle,
            in_flight: info.in_flight,
            window: info.window,
            links_in_window: info.links_in_window,
            partitioned: self.partitioned_destinations(),
            oldest,
            queues,
            waits,
        }
    }

    /// The stall report of the last run, if the engine-level watchdog
    /// ([`ShardedSimulator::with_watchdog`]) aborted it.
    pub fn stall_report(&self) -> Option<&StallReport> {
        self.stall.as_ref()
    }

    /// Merged occupancy statistics of the last run (empty unless
    /// [`crate::SimConfig::track_occupancy`] was set). Each queue is
    /// sampled by exactly one shard, so the merge is exact.
    pub fn occupancy(&self) -> OccupancyProbe {
        let mut probe = self.shards[0].occupancy().clone();
        for sim in &self.shards[1..] {
            probe.merge_shard(sim.occupancy());
        }
        probe
    }

    /// Total minimality violations across shards (only counted when
    /// [`crate::SimConfig::check_minimality`] is set).
    pub fn minimality_violations(&self) -> u64 {
        self.shards
            .iter()
            .map(Simulator::minimality_violations)
            .sum()
    }

    /// Merged delivered-packets time series of the last run, if
    /// [`crate::SimConfig::throughput_window`] was non-zero. Per-shard
    /// windows hold integer delivery counts, so the merge is exact.
    pub fn throughput(&self) -> Option<TimeSeries> {
        let mut merged: Option<TimeSeries> = None;
        for sim in &self.shards {
            if let Some(ts) = sim.throughput() {
                match &mut merged {
                    Some(m) => m.merge(ts),
                    None => merged = Some(ts.clone()),
                }
            }
        }
        merged
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
    /// merged engine state as a `fadr-snapshot/2` document, byte-for-byte
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
        let stats = self.merged_stats();
        let occupancy = self.cfg.track_occupancy.then(|| self.occupancy());
        let throughput = self.throughput();
        let g = snapshot::Globals {
            cfg: &self.cfg,
            dims: (n, self.shards[0].core.num_classes, nb, nch),
            cycle: self.shards[0].cycle(),
            next_uid: self.shards[0].core.next_uid,
            delivered: self.delivered(),
            dropped: self.dropped(),
            minviol: self.minimality_violations(),
            chan_rr,
            fail,
            stats: &stats,
            occupancy: occupancy.as_ref(),
            throughput: throughput.as_ref(),
        };
        let packets = Loc::all(n, nb).flat_map(|loc| {
            self.shards[Self::loc_shard(&self.plan, &self.layout, loc)].packets_at(loc)
        });
        snapshot::assemble(meta, &g, packets, progress)
    }

    /// Sharded equivalent of [`Simulator::restore`]: load a
    /// `fadr-snapshot/2` document (from either engine), placing each
    /// packet in the shard that holds its location. Merged global state
    /// (latency statistics, occupancy, throughput, delivered/dropped
    /// totals) is carried by shard 0 — the merge accessors and the
    /// resumed workers' replicated counters reassemble the totals. The
    /// whole document is validated before any shard changes, so on error
    /// every shard and recorder is left untouched.
    ///
    /// The shards recompute their queued packets' routing options on one
    /// thread each, as a run does. Under a fault plan this recompute
    /// fills each shard's surviving-distance rows (16 MiB per shard at
    /// hypercube(11)), so they land in a worker thread's heap, which
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
        assert_eq!(plan.nodes[0], vec![0, 1]);
        assert_eq!(plan.nodes[1], vec![2, 3, 4]);
        assert_eq!(plan.nodes[2], vec![5, 6, 7]);
        for (s, ids) in plan.nodes.iter().enumerate() {
            for &v in ids {
                assert_eq!(plan.node_shard[v as usize] as usize, s);
                assert!(plan.owned[s].contains(v as usize));
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
