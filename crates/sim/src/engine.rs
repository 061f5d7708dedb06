//! The simulation engine: the one step core ([`Core`], the three-step
//! routing cycle of fill, link and read), its two option sources, and
//! the sequential [`Simulator`] built on it.
//!
//! Packet state lives in a [`PacketStore`] (a packed 32-byte hot row
//! plus cold columns; see [`crate::store`]); output/input-buffer
//! occupancy is mirrored in dense bitsets so the link pass can test a
//! whole channel with two word fetches instead of a per-buffer scan.
//! Where a queued packet's moves come from is the [`OptionSource`]
//! seam, a type parameter of [`Simulator`]: computed at enqueue
//! ([`Computed`], the default and every shard's) or looked up in a
//! shared routing-state table ([`crate::StateTable`]).

use std::marker::PhantomData;
use std::sync::Arc;

use rand::rngs::StdRng;

use fadr_metrics::{LatencyStats, NoRecorder, Recorder, StallReport};
use fadr_qdg::{BufferClass, HopKind, LinkKind, QueueId, QueueKind, RoutingFunction, SnapshotMsg};
use fadr_topology::NodeId;

use crate::driver::{self, WaitEdge};
use crate::fault::{FaultKind, FaultPlan, FaultState};
use crate::layout::{Layout, NONE};
use crate::partition::OwnedNodes;
use crate::snapshot::{self, Loc, ParsedSnapshot};
use crate::store::{BitSet, Hot, MoveOpt, OptionArena, PacketInit, PacketStore};
use crate::{FillOrder, SimConfig};

/// Why a simulation run ended.
///
/// `StaticResult::drained` alone cannot tell a watchdog abort from a
/// `max_cycles` timeout — both used to surface as `drained: false`, so a
/// table row produced by an aborted (stalled) run was indistinguishable
/// from one that merely ran out of its cycle budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Static run: every injected packet was delivered.
    Drained,
    /// Dynamic run: the requested cycle horizon elapsed.
    HorizonReached,
    /// Static run: the [`crate::SimConfig::max_cycles`] safety cap was
    /// hit before the network drained.
    MaxCycles,
    /// The engine's watchdog ([`Simulator::with_watchdog`]) declared a
    /// no-progress stall, or an attached [`Recorder`] returned
    /// [`fadr_metrics::Control::Stop`].
    Aborted,
    /// A fault left some destination unreachable from a live packet
    /// (see [`crate::fault`]); the run aborted at the end of the cycle
    /// that detected it. [`Simulator::partitioned_destinations`] lists
    /// the unreachable destinations.
    Partitioned,
}

/// Result of a static-injection run (§ 7, Tables 1–8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticResult {
    /// Latency statistics over all delivered packets (in time cycles,
    /// `2 · routing cycles + 1`).
    pub stats: LatencyStats,
    /// Routing cycles executed.
    pub cycles: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets that were to be injected.
    pub total: u64,
    /// Whether every offered packet was accounted for — delivered, or
    /// (under fault injection) dropped/lost to a dead node (always true
    /// for a deadlock-free algorithm within the cycle cap; without
    /// faults this is simply "everything delivered"). Equivalent to
    /// `stop == StopReason::Drained`; kept alongside [`StopReason`] for
    /// callers that only care about success.
    pub drained: bool,
    /// Packets destroyed in flight by node-down faults (0 without a
    /// fault plan).
    pub dropped: u64,
    /// Backlog entries never injected because their source node died
    /// (0 without a fault plan).
    pub lost: u64,
    /// Why the run ended (distinguishes a watchdog abort from a
    /// `max_cycles` timeout, which `drained` alone cannot).
    pub stop: StopReason,
}

/// Result of a dynamic-injection run (§ 7, Tables 9–12).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicResult {
    /// Latency statistics over packets delivered during the run.
    pub stats: LatencyStats,
    /// Injection attempts (each node, each cycle, with probability λ).
    pub attempts: u64,
    /// Successful injections (attempts finding the injection buffer free).
    pub injected: u64,
    /// Packets delivered within the horizon.
    pub delivered: u64,
    /// Routing cycles executed.
    pub cycles: u64,
    /// Packets destroyed in flight by node-down faults (0 without a
    /// fault plan).
    pub dropped: u64,
    /// Why the run ended ([`StopReason::HorizonReached`] unless a
    /// recorder aborted it or a fault partitioned the network).
    pub stop: StopReason,
}

impl DynamicResult {
    /// The paper's effective injection rate `I_r` (successes / attempts).
    pub fn injection_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.injected as f64 / self.attempts as f64
        }
    }
}

/// Injection-side progress of a paused run: the workload cursors and
/// counters that live in the run *loop* rather than in the engine state,
/// and therefore must ride along with a checkpoint. Returned by the
/// `*_until` run methods on pause and fed back into the `resume_*`
/// methods (or serialized into the snapshot by
/// [`Simulator::checkpoint`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunProgress {
    /// A static-injection run.
    Static {
        /// Per-node backlog cursor (a dead source node's cursor is
        /// already exhausted, so its write-off is never repeated).
        next_idx: Vec<usize>,
        /// Backlog entries written off because their source node died.
        lost: u64,
    },
    /// A dynamic-injection run (the RNG streams are *not* stored: they
    /// are fast-forwarded deterministically on resume).
    Dynamic {
        /// Injection attempts so far.
        attempts: u64,
        /// Successful injections so far.
        injected: u64,
    },
}

/// Outcome of a pausable static run: finished, or paused at the
/// requested cycle with the progress needed to resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StaticOutcome {
    /// The run ended (drained, aborted, or hit the cycle cap).
    Finished(StaticResult),
    /// The run paused at the requested cycle (post-injection); the
    /// engine now sits at the checkpointable pause point.
    Paused(RunProgress),
}

/// Outcome of a pausable dynamic run; see [`StaticOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DynamicOutcome {
    /// The run ended (horizon reached or aborted).
    Finished(DynamicResult),
    /// The run paused at the requested cycle (post-injection).
    Paused(RunProgress),
}

/// What an arriving staged packet does at its receiving node.
pub enum Arrival {
    /// Its routing state has arrived: deliver it.
    Deliver,
    /// Enter central queue `class` if it has room.
    Enqueue(u8),
    /// Refused this cycle (the block is already recorded).
    Refused,
}

/// Where a queued packet's moves come from: the one seam between the
/// step core and its two option sources.
///
/// * [`Computed`] runs the routing function when a packet enqueues
///   ([`push_move_options`] plus the degraded-mode post-pass). It is the
///   only source that supports faults and snapshots; it is
///   [`Simulator`]'s default and every shard of a
///   [`crate::ShardedSimulator`] uses it.
/// * `Arc<`[`crate::StateTable`]`>`, a shared, precomputed
///   routing-state table that a packet walks by state id
///   ([`Simulator::with_table`]).
///
/// A source owns the option records a packet's hot row points into
/// (`opt_start..opt_start + opt_len`) and decides how a packet's routing
/// state starts, advances and arrives. Everything else — fill, link,
/// read, enqueue, delivery, wait edges and fault surgery — is
/// [`Core`]'s, written once.
///
/// The trait is public only so it can bound [`Simulator`]'s parameter:
/// it lives in a private module, so no other crate can name or
/// implement it.
pub trait OptionSource<R: RoutingFunction>: Sized {
    /// Per-packet routing message the core stores (`()` for a source
    /// that tracks state ids instead).
    type Msg: Clone;

    /// Output buffer of option record `i` at a node whose first output
    /// buffer is `first` ([`NONE`] for a stutter). The table stores fill
    /// positions relative to the node; the computed source stores buffer
    /// ids and ignores `first`.
    fn opt_buf(&self, i: usize, first: u32) -> u32;

    /// Central-queue class on arrival of option record `i`.
    fn opt_to_class(&self, i: usize) -> u8;

    /// The option record of `h`'s segment that stages onto fill position
    /// `pos`, output buffer `buf`.
    fn pick(&self, h: &Hot, pos: usize, buf: u32) -> usize {
        let s = h.opt_start as usize;
        let first = buf - pos as u32;
        (s..s + usize::from(h.opt_len))
            .find(|&i| self.opt_buf(i, first) == buf)
            .expect("wanting packet has the option")
    }

    /// Take back a freed packet's option segment.
    fn release(&mut self, _h: &Hot) {}

    /// Forget every per-run record (engine reset).
    fn clear(&mut self) {}

    /// The routing message of a fresh `src → dst` packet.
    fn initial_msg(rf: &R, src: NodeId, dst: NodeId) -> Self::Msg;

    /// Whether staged packet `h`'s hop delivers it, when the source
    /// already knows at staging (lets an unrecorded run deliver during
    /// the link pass).
    fn delivers_on_arrival(_h: &Hot) -> bool {
        false
    }

    /// Point packet `p`, whose message is its initial one at `node`, at
    /// its entry residence; returns the entry class.
    fn entry(core: &mut Core<R, Self>, rf: &R, node: usize, p: u32) -> u8;

    /// Advance `p`'s routing state along option record `i`.
    fn advance(core: &mut Core<R, Self>, p: u32, i: usize);

    /// What staged packet `p` does on arrival at `node`.
    fn arrival<Rec: Recorder>(
        core: &mut Core<R, Self>,
        rf: &R,
        node: usize,
        p: u32,
        rec: &mut Rec,
    ) -> Arrival;

    /// Load the moves of `p`'s residence in its current queue at `node`
    /// into its hot row (a no-op for a source that loads them when the
    /// packet's state advances).
    fn settle<Rec: Recorder>(
        _core: &mut Core<R, Self>,
        _rf: &R,
        _p: u32,
        _node: usize,
        _rec: &mut Rec,
    ) {
    }
}

/// The one step core: § 7.1's fill/link/read cycle over one network's
/// mutable run state — a [`Simulator`] on either option source, or one
/// shard of a [`crate::ShardedSimulator`]. The routing function and the
/// recorder are passed in per call, so the run loop (`driver`) drives a
/// core per node and per channel; the core holds no loop of its own.
///
/// The fast paths are exact: a want-mask fill when every node has at
/// most 64 output buffers ([`Layout`]'s `fast_fill`), an
/// occupied-slot mask read when every node has at most 63 inputs
/// (`fast_read`), and the source's option pick. Each visits exactly the
/// positions the plain scans (the fallbacks) would pick, in the same
/// order.
pub struct Core<R: RoutingFunction, S: OptionSource<R>> {
    pub(crate) cfg: SimConfig,
    /// Shared with sibling shards and with every simulator on one
    /// routing-state table (immutable after construction).
    pub(crate) layout: Arc<Layout>,
    pub(crate) num_classes: usize,
    /// Where queued packets' moves come from.
    pub(crate) src: S,
    /// Central-queue occupancy, indexed `node * num_classes + class`.
    /// Queue *membership* lives in `node_fifo`; only the per-class counts
    /// are needed for capacity checks.
    pub(crate) queue_len: Vec<u32>,
    /// Per-node queued packets in FIFO-across-queues order, maintained
    /// incrementally: arrivals append at the back, stutters re-enqueue
    /// at the back, staged packets are removed in place.
    node_fifo: Vec<Vec<u32>>,
    /// Per node: queued packets whose residence has a stutter option
    /// (lets the fill pass skip stutter collection at nodes with none).
    stutter_cnt: Vec<u32>,
    outbuf: Vec<u32>,
    inbuf: Vec<u32>,
    /// Occupied input buffers per node (read-phase skip count).
    in_occupied: Vec<u32>,
    /// Per node: bit `i` set while input slot `i` is occupied
    /// (maintained only with `fast_read`).
    arr_mask: Vec<u64>,
    /// Round-robin pointer per channel (link-phase fairness). `u16`
    /// because a channel may carry up to 257 buffer classes.
    pub(crate) chan_rr: Vec<u16>,
    /// Occupied output buffers per channel.
    chan_pending: Vec<u16>,
    /// Injection buffer per node (`NONE` = empty).
    inj_buf: Vec<u32>,
    /// Packet slab (slots recycled, uids never).
    pub(crate) store: PacketStore<S::Msg>,
    /// Bitset mirror of `outbuf[b] != NONE` (link-phase word probes).
    out_occ: BitSet,
    /// Bitset mirror of `inbuf[b] != NONE`.
    in_occ: BitSet,
    /// Bitset mirror of `chan_pending[c] > 0`.
    chan_live: BitSet,
    pub(crate) cycle: u64,
    /// Next packet uid (injection order; never recycled). The run loop
    /// keeps the frontier and writes it here at a pause, where a
    /// checkpoint reads it.
    pub(crate) next_uid: u64,
    pub(crate) stats: LatencyStats,
    pub(crate) delivered: u64,
    /// The attached fault schedule, if any (survives resets; the per-run
    /// state in `faults` is rebuilt from it).
    pub(crate) fault_plan: Option<Arc<FaultPlan>>,
    /// Per-run fault state; `None` without a fault plan, so the
    /// unfaulted hot path pays one `Option` check per guard site.
    faults: Option<FaultState>,
    /// Destinations found unreachable this run (unsorted, deduplicated).
    pub(crate) partitioned: Vec<u32>,
    /// Packets destroyed by node-down faults this run.
    pub(crate) dropped: u64,
    // Scratch reused across nodes and cycles: per-position wanting lists
    // (fallback fill only), stutter candidates, and one node's
    // `(packet, position)` fill decisions.
    wanting: Vec<Vec<u32>>,
    stutters: Vec<u32>,
    staging: Vec<(u32, u32)>,
    _rf: PhantomData<fn() -> R>,
}

impl<R: RoutingFunction, S: OptionSource<R>> Core<R, S> {
    pub(crate) fn new(cfg: SimConfig, layout: Arc<Layout>, num_classes: usize, src: S) -> Self {
        let n = layout.num_nodes;
        let (nb, nch) = (layout.num_buffers(), layout.num_channels());
        let max_out = (0..n)
            .map(|v| layout.node_out_bufs(v).len())
            .max()
            .unwrap_or(0);
        Self {
            cfg,
            num_classes,
            src,
            queue_len: vec![0; n * num_classes],
            node_fifo: vec![Vec::new(); n],
            stutter_cnt: vec![0; n],
            outbuf: vec![NONE; nb],
            inbuf: vec![NONE; nb],
            in_occupied: vec![0; n],
            arr_mask: vec![0; n],
            chan_rr: vec![0; nch],
            chan_pending: vec![0; nch],
            inj_buf: vec![NONE; n],
            store: PacketStore::new(),
            out_occ: BitSet::new(nb),
            in_occ: BitSet::new(nb),
            chan_live: BitSet::new(nch),
            cycle: 0,
            next_uid: 0,
            stats: LatencyStats::new(),
            delivered: 0,
            fault_plan: None,
            faults: None,
            partitioned: Vec::new(),
            dropped: 0,
            wanting: vec![Vec::new(); max_out],
            stutters: Vec::new(),
            staging: Vec::new(),
            layout,
            _rf: PhantomData,
        }
    }

    pub(crate) fn reset(&mut self) {
        self.queue_len.fill(0);
        for f in &mut self.node_fifo {
            f.clear();
        }
        self.stutter_cnt.fill(0);
        self.outbuf.fill(NONE);
        self.inbuf.fill(NONE);
        self.in_occupied.fill(0);
        self.arr_mask.fill(0);
        self.chan_rr.fill(0);
        self.chan_pending.fill(0);
        self.inj_buf.fill(NONE);
        self.store.clear();
        self.src.clear();
        self.out_occ.clear_all();
        self.in_occ.clear_all();
        self.chan_live.clear_all();
        self.next_uid = 0;
        self.cycle = 0;
        self.stats = LatencyStats::new();
        self.delivered = 0;
        self.dropped = 0;
        self.partitioned.clear();
        self.faults = self
            .fault_plan
            .as_ref()
            .map(|p| FaultState::new(Arc::clone(p), &self.layout, self.num_classes));
    }

    /// Whether node `v`'s injection buffer is free.
    pub(crate) fn inj_free(&self, v: usize) -> bool {
        self.inj_buf[v] == NONE
    }

    /// Inject a `src → dst` packet with id `uid` into `src`'s (free)
    /// injection buffer.
    pub(crate) fn inject<Rec: Recorder>(
        &mut self,
        rf: &R,
        src: NodeId,
        dst: NodeId,
        uid: u64,
        rec: &mut Rec,
    ) {
        debug_assert_eq!(self.inj_buf[src], NONE, "injection buffer occupied");
        let msg = S::initial_msg(rf, src, dst);
        if Rec::ENABLED {
            rec.on_inject(self.cycle, uid, src as u32, dst as u32);
        }
        self.inj_buf[src] = self.store.insert(PacketInit {
            src: src as u32,
            dst: dst as u32,
            uid,
            hops: 0,
            inject_cycle: self.cycle,
            enqueued_at: self.cycle,
            moved_at: u64::MAX,
            class: 0,
            next_class: 0,
            escape: false,
            msg,
        });
    }

    // --- The routing cycle -----------------------------------------------

    /// The blocked wait-for relation over the queued packets of `nodes`:
    /// an edge `(v, c, w, c')` records that some packet resident in
    /// central queue `(v, c)` has a move into queue `(w, c')` which
    /// `is_full` reports at capacity. Sorted and deduplicated, so
    /// sequential and (merged) sharded probes agree. A cycle in this
    /// relation among *fully*-blocked queues is exactly the deadlock
    /// configuration the paper's QDG argument excludes.
    pub(crate) fn wait_edges(
        &self,
        nodes: &OwnedNodes,
        is_full: &dyn Fn(u32, u8) -> bool,
    ) -> Vec<WaitEdge> {
        let mut edges = Vec::new();
        for v in nodes.iter() {
            let first = self.layout.out_start[v];
            for &p in &self.node_fifo[v] {
                let h = &self.store.hot[p as usize];
                let s = h.opt_start as usize;
                for i in s..s + usize::from(h.opt_len) {
                    let buf = self.src.opt_buf(i, first);
                    if buf == NONE {
                        continue;
                    }
                    let w = self.layout.chan_to[self.layout.buf_chan[buf as usize] as usize];
                    let c2 = self.src.opt_to_class(i);
                    if is_full(w, c2) {
                        edges.push((v as u32, h.class, w, c2));
                    }
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// [`Core::wait_edges`] over all nodes against this engine's own
    /// queue lengths (shards must consult the merged cross-shard
    /// occupancy instead).
    pub(crate) fn local_wait_edges(&self) -> Vec<WaitEdge> {
        let cap = self.cfg.queue_capacity;
        let full = |w: u32, c: u8| {
            self.queue_len[w as usize * self.num_classes + usize::from(c)] as usize >= cap
        };
        self.wait_edges(&OwnedNodes::all(self.layout.num_nodes), &full)
    }

    /// Node cycle, part 1 (§ 7.1): "each node fills its output buffers
    /// from low to high dimensions, taking messages from the queues in
    /// FIFO order", for one node (a shard runs this over the nodes it
    /// owns; a node's queues, output buffers and packets are all local).
    ///
    /// With `fast_fill`, one FIFO pass gives each packet the fill-order
    /// first free position it wants. That is the same matching as the
    /// per-position scan (each position in fill order taking its first
    /// FIFO wanter): both are the greedy matching under consistent
    /// priority orders — the first position with any wanter gets its
    /// first wanter in either procedure, and induction on the residual
    /// does the rest. Want sets are constant during the pass (stutters
    /// run after), so the scan stops once every position is taken. No
    /// queued packet has moved yet this cycle (moves happen only here
    /// and in the stutters after), so unlike the per-position scan the
    /// pass needs no `moved_at` check.
    pub(crate) fn fill_node<Rec: Recorder>(&mut self, rf: &R, node: usize, rec: &mut Rec) {
        if self.node_fifo[node].is_empty() {
            return;
        }
        let first_buf = self.layout.out_start[node] as usize;
        let n_out = self.layout.out_start[node + 1] as usize - first_buf;
        let mut staged_any = false;
        let mut stutter_any = self.stutter_cnt[node] != 0;
        if self.layout.fast_fill {
            let ones = if n_out == 64 { !0 } else { (1u64 << n_out) - 1 };
            let mut avail = !self.out_occ.extract(first_buf, n_out) & ones;
            if avail == 0 && !stutter_any {
                return;
            }
            let start = match self.cfg.fill_order {
                FillOrder::LowToHigh | FillOrder::HighToLow => 0,
                FillOrder::Rotating => rotating_start(self.cycle, node, n_out),
            };
            // Scan first, mutate after: the decisions depend only on the
            // (per-pass-constant) want masks and the shrinking `avail`.
            self.staging.clear();
            for &p in &self.node_fifo[node] {
                if avail == 0 {
                    break;
                }
                let h = &self.store.hot[p as usize];
                let m = h.wants & avail;
                // A frozen queue refuses all movement: its packets
                // neither stage onto links nor stutter until the thaw.
                if m == 0 || self.queue_frozen(node * self.num_classes + usize::from(h.class)) {
                    continue;
                }
                let pos = match self.cfg.fill_order {
                    FillOrder::LowToHigh => m.trailing_zeros() as usize,
                    FillOrder::HighToLow => 63 - m.leading_zeros() as usize,
                    FillOrder::Rotating => {
                        let hi = m >> start;
                        if hi != 0 {
                            start + hi.trailing_zeros() as usize
                        } else {
                            m.trailing_zeros() as usize
                        }
                    }
                };
                self.staging.push((p, pos as u32));
                avail &= !(1u64 << pos);
            }
            let staging = std::mem::take(&mut self.staging);
            for &(p, pos) in &staging {
                self.stage_packet(node, p, pos as usize, first_buf + pos as usize);
            }
            staged_any = !staging.is_empty();
            self.staging = staging;
        } else {
            // Fallback (> 64 output buffers): per-buffer wanting lists
            // in FIFO order, then buffer-major assignment in the
            // configured fill order.
            for w in self.wanting.iter_mut().take(n_out) {
                w.clear();
            }
            for &p in &self.node_fifo[node] {
                let h = &self.store.hot[p as usize];
                if self.queue_frozen(node * self.num_classes + usize::from(h.class)) {
                    continue;
                }
                let s = h.opt_start as usize;
                for i in s..s + usize::from(h.opt_len) {
                    let buf = self.src.opt_buf(i, first_buf as u32);
                    if buf != NONE {
                        self.wanting[buf as usize - first_buf].push(p);
                    }
                }
            }
            let start = match self.cfg.fill_order {
                FillOrder::LowToHigh | FillOrder::HighToLow => 0,
                FillOrder::Rotating => rotating_start(self.cycle, node, n_out),
            };
            for i in 0..n_out {
                let pos = match self.cfg.fill_order {
                    FillOrder::LowToHigh => i,
                    FillOrder::HighToLow => n_out - 1 - i,
                    FillOrder::Rotating => (start + i) % n_out,
                };
                let buf = first_buf + pos;
                if self.outbuf[buf] != NONE {
                    continue;
                }
                let Some(&p) = self.wanting[pos]
                    .iter()
                    .find(|&&p| self.store.hot[p as usize].moved_at != self.cycle)
                else {
                    continue;
                };
                self.stage_packet(node, p, pos, buf);
                staged_any = true;
            }
        }
        if staged_any {
            self.drain_staged(node, rec);
            stutter_any = self.stutter_cnt[node] != 0;
        }
        if stutter_any {
            // Stutter candidates in FIFO order, one entry per stutter
            // option. Collected after the drain: staged packets have
            // left the queue for this cycle.
            self.stutters.clear();
            for &p in &self.node_fifo[node] {
                let h = &self.store.hot[p as usize];
                if h.stutters == 0
                    || self.queue_frozen(node * self.num_classes + usize::from(h.class))
                {
                    continue;
                }
                for _ in 0..h.stutters {
                    self.stutters.push(p);
                }
            }
            self.stutter_pass(rf, node, rec);
        }
    }

    /// Move packet `p` onto output buffer `buf` (fill position `pos` at
    /// `node`) along the matching option, and mark the channel live.
    fn stage_packet(&mut self, node: usize, p: u32, pos: usize, buf: usize) {
        let pi = p as usize;
        let i = self.src.pick(&self.store.hot[pi], pos, buf as u32);
        if self.store.hot[pi].stutters != 0 {
            // Leaving its residence for good (staged packets always
            // drain this same cycle).
            self.stutter_cnt[node] -= 1;
        }
        let to_class = self.src.opt_to_class(i);
        S::advance(self, p, i);
        let h = &mut self.store.hot[pi];
        h.next_class = to_class;
        h.moved_at = self.cycle;
        h.staged = true;
        self.fill_outbuf(buf, p);
    }

    /// Place packet `p` in output buffer `b` (staging, or restore).
    fn fill_outbuf(&mut self, b: usize, p: u32) {
        self.outbuf[b] = p;
        self.out_occ.set(b);
        let chan = self.layout.buf_chan[b] as usize;
        self.chan_pending[chan] += 1;
        self.chan_live.set(chan);
    }

    /// Empty output buffer `b` (a cross-shard ack) and return its packet.
    fn take_outbuf(&mut self, b: usize) -> u32 {
        let p = self.outbuf[b];
        debug_assert_ne!(p, NONE, "ack for an empty output buffer");
        self.outbuf[b] = NONE;
        self.out_occ.clear(b);
        let chan = self.layout.buf_chan[b] as usize;
        self.chan_pending[chan] -= 1;
        if self.chan_pending[chan] == 0 {
            self.chan_live.clear(chan);
        }
        p
    }

    /// Remove staged packets from the node's FIFO (order preserved),
    /// firing `on_queue_leave` in FIFO order.
    fn drain_staged<Rec: Recorder>(&mut self, node: usize, rec: &mut Rec) {
        let store = &mut self.store;
        let queue_len = &mut self.queue_len;
        let num_classes = self.num_classes;
        let cycle = self.cycle;
        self.node_fifo[node].retain(|&p| {
            let h = &mut store.hot[p as usize];
            if !h.staged {
                return true;
            }
            h.staged = false;
            let class = h.class;
            let q = node * num_classes + usize::from(class);
            queue_len[q] -= 1;
            if Rec::ENABLED {
                rec.on_queue_leave(
                    cycle,
                    store.uid[p as usize],
                    node as u32,
                    class,
                    queue_len[q],
                );
            }
            false
        });
    }

    /// Internal stutters (e.g. the shuffle-exchange's degenerate
    /// one-node cycles): advance state without crossing a link, costing
    /// one cycle. A stutter whose target class differs from the current
    /// residence physically migrates the packet, subject to the target
    /// queue's capacity — a full target blocks the stutter this cycle
    /// exactly like a full output buffer blocks a link move. A
    /// successful stutter re-enqueues at the back of the FIFO.
    fn stutter_pass<Rec: Recorder>(&mut self, rf: &R, node: usize, rec: &mut Rec) {
        for k in 0..self.stutters.len() {
            let p = self.stutters[k];
            let pi = p as usize;
            let h = self.store.hot[pi];
            if h.moved_at == self.cycle {
                continue;
            }
            let s = h.opt_start as usize;
            let first = self.layout.out_start[node];
            let i = (s..s + usize::from(h.opt_len))
                .find(|&i| self.src.opt_buf(i, first) == NONE)
                .expect("stutter option");
            let (to_class, from_class) = (self.src.opt_to_class(i), h.class);
            let qf = node * self.num_classes + usize::from(from_class);
            let qt = node * self.num_classes + usize::from(to_class);
            if to_class != from_class && self.refuses(qt) {
                continue;
            }
            self.store.hot[pi].moved_at = self.cycle;
            self.store.enqueued_at[pi] = self.cycle;
            let uid = self.store.uid[pi];
            if Rec::ENABLED {
                rec.on_stutter(self.cycle, uid, node as u32, from_class, to_class);
            }
            if to_class != from_class {
                self.store.hot[pi].class = to_class;
                self.queue_len[qf] -= 1;
                self.queue_len[qt] += 1;
                if Rec::ENABLED {
                    rec.on_queue_leave(
                        self.cycle,
                        uid,
                        node as u32,
                        from_class,
                        self.queue_len[qf],
                    );
                    rec.on_queue_enter(self.cycle, uid, node as u32, to_class, self.queue_len[qt]);
                }
            }
            let fifo = &mut self.node_fifo[node];
            let at = fifo
                .iter()
                .position(|&x| x == p)
                .expect("stuttering packet is queued at its node");
            fifo.remove(at);
            fifo.push(p);
            S::advance(self, p, i);
            S::settle(self, rf, p, node, rec);
            if self.store.hot[pi].stutters == 0 {
                // The packet had a stutter option (it is in the list);
                // its new residence may not.
                self.stutter_cnt[node] -= 1;
            }
        }
    }

    /// Link cycle (§ 7.1): each directed channel forwards at most one
    /// packet per cycle, round-robin over its traffic-class buffers, and
    /// only into an empty input buffer on the far side. Iterates the
    /// `chan_live` bitset word by word; the word snapshot is safe because
    /// [`Core::link_chan`] only ever *clears* live bits. Returns the
    /// number of packets that crossed.
    pub(crate) fn link_phase<Rec: Recorder>(&mut self, rec: &mut Rec) -> u64 {
        let mut links = 0;
        for w in 0..self.chan_live.num_words() {
            let mut bits = self.chan_live.word(w);
            while bits != 0 {
                let chan = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                links += u64::from(self.link_chan(chan, rec));
            }
        }
        links
    }

    /// Link pass for one channel whose endpoints are both local; returns
    /// whether a packet crossed (the per-cycle link count feeds the
    /// watchdog's replicated state).
    ///
    /// For channels of at most 64 buffer classes the "staged and far
    /// side empty" scan collapses to a bitmask probe: the first
    /// candidate at or after the round-robin pointer (wrapping below it),
    /// found with two trailing-zeros counts — exactly the buffer the
    /// rotating scan picks.
    pub(crate) fn link_chan<Rec: Recorder>(&mut self, chan: usize, rec: &mut Rec) -> bool {
        if self.chan_pending[chan] == 0 {
            return false;
        }
        if let Some(fs) = &self.faults {
            if fs.link_blocked(chan as u32, self.cycle) {
                return false;
            }
        }
        let start = self.layout.chan_buf_start[chan] as usize;
        let len = self.layout.chan_buf_len[chan] as usize;
        let rr = self.chan_rr[chan] as usize;
        let pos = if len <= 64 {
            let avail = self.out_occ.extract(start, len) & !self.in_occ.extract(start, len);
            if avail == 0 {
                return false;
            }
            let hi = avail >> rr;
            if hi != 0 {
                rr + hi.trailing_zeros() as usize
            } else {
                avail.trailing_zeros() as usize
            }
        } else {
            // >64 classes: plain rotating scan (exercised by the
            // 257-class layout regression family, not by any real
            // routing function).
            let Some(pos) = (0..len)
                .map(|i| (rr + i) % len)
                .find(|&pos| self.outbuf[start + pos] != NONE && self.inbuf[start + pos] == NONE)
            else {
                return false;
            };
            pos
        };
        let b = start + pos;
        let p = self.outbuf[b];
        let pi = p as usize;
        self.store.hot[pi].hops += 1;
        if Rec::ENABLED {
            let h = &self.store.hot[pi];
            rec.on_link(
                self.cycle,
                self.store.uid[pi],
                self.layout.chan_from[chan],
                self.layout.chan_to[chan],
                matches!(self.layout.buf_class[b], BufferClass::Dynamic),
                h.class,
                h.next_class,
            );
        }
        self.outbuf[b] = NONE;
        self.out_occ.clear(b);
        self.chan_pending[chan] -= 1;
        if self.chan_pending[chan] == 0 {
            self.chan_live.clear(chan);
        }
        self.chan_rr[chan] = ((pos + 1) % len) as u16;
        if !Rec::ENABLED && S::delivers_on_arrival(&self.store.hot[pi]) {
            // Arriving at its destination: delivery never blocks, and
            // within a cycle the latency sinks are insertion-order
            // invariant, so an unrecorded run can deliver here and spare
            // the read pass the input-buffer round trip. Recorded runs
            // take the buffer path so the journal keeps its order.
            self.deliver(p, rec);
            return true;
        }
        self.fill_inbuf(b, p);
        true
    }

    /// Place packet `p` in input buffer `b` (link arrival, cross-shard
    /// transfer, or restore).
    fn fill_inbuf(&mut self, b: usize, p: u32) {
        self.inbuf[b] = p;
        self.in_occ.set(b);
        let to = self.layout.chan_to[self.layout.buf_chan[b] as usize] as usize;
        self.in_occupied[to] += 1;
        if self.layout.fast_read {
            self.arr_mask[to] |= 1u64 << self.layout.buf_in_slot[b];
        }
    }

    /// Empty input buffer `b` at `node` (read, or a node-down drop).
    fn clear_inbuf(&mut self, b: usize, node: usize) {
        self.inbuf[b] = NONE;
        self.in_occ.clear(b);
        self.in_occupied[node] -= 1;
        if self.layout.fast_read {
            self.arr_mask[node] &= !(1u64 << self.layout.buf_in_slot[b]);
        }
    }

    /// Node cycle, part 2 (§ 7.1): "the node reads its input buffers and
    /// its injection buffer and moves their messages to the required
    /// queues, if there is place to do so … in a fair way", for one node
    /// (shard-local: a node's input buffers are filled by the link pass
    /// of the shard that owns the node). The slots rotate with the
    /// cycle; with `fast_read` the occupied-slot mask is walked in the
    /// same rotating order, skipping only the empty (no-op) slots.
    pub(crate) fn read_node<Rec: Recorder>(&mut self, rf: &R, node: usize, rec: &mut Rec) {
        let n_in = (self.layout.in_start[node + 1] - self.layout.in_start[node]) as usize;
        let slots = n_in + 1;
        if self.layout.fast_read {
            let mut m = self.arr_mask[node];
            if self.inj_buf[node] != NONE {
                m |= 1u64 << n_in;
            }
            if m == 0 {
                return;
            }
            let start = (self.cycle as usize) % slots;
            let mut hi = m >> start;
            while hi != 0 {
                let slot = start + hi.trailing_zeros() as usize;
                hi &= hi - 1;
                self.read_slot(rf, node, slot, n_in, rec);
            }
            let mut lo = m & ((1u64 << start) - 1);
            while lo != 0 {
                let slot = lo.trailing_zeros() as usize;
                lo &= lo - 1;
                self.read_slot(rf, node, slot, n_in, rec);
            }
        } else {
            if self.in_occupied[node] == 0 && self.inj_buf[node] == NONE {
                return;
            }
            let start = (self.cycle as usize) % slots;
            let first = self.layout.in_start[node] as usize;
            for i in 0..slots {
                let slot = (start + i) % slots;
                let occupied = if slot < n_in {
                    self.inbuf[self.layout.in_flat[first + slot] as usize] != NONE
                } else {
                    self.inj_buf[node] != NONE
                };
                if occupied {
                    self.read_slot(rf, node, slot, n_in, rec);
                }
            }
        }
    }

    /// Process one occupied read slot: an input buffer below `n_in`, the
    /// injection buffer at `n_in`.
    fn read_slot<Rec: Recorder>(
        &mut self,
        rf: &R,
        node: usize,
        slot: usize,
        n_in: usize,
        rec: &mut Rec,
    ) {
        if slot < n_in {
            let b = self.layout.in_flat[self.layout.in_start[node] as usize + slot] as usize;
            let p = self.inbuf[b];
            debug_assert_ne!(p, NONE, "read slot marked occupied but empty");
            if self.accept_arrival(rf, node, p, rec) {
                self.clear_inbuf(b, node);
            }
        } else if self.accept_injection(rf, node, self.inj_buf[node], rec) {
            self.inj_buf[node] = NONE;
        }
    }

    /// Move an arriving packet into its target queue (or deliver it);
    /// returns false if the queue refuses it and the packet must wait.
    fn accept_arrival<Rec: Recorder>(
        &mut self,
        rf: &R,
        node: usize,
        p: u32,
        rec: &mut Rec,
    ) -> bool {
        match S::arrival(self, rf, node, p, rec) {
            Arrival::Deliver => {
                self.deliver(p, rec);
                true
            }
            Arrival::Enqueue(class) => self.enqueue_central(rf, node, p, class, true, rec),
            Arrival::Refused => false,
        }
    }

    /// Move a freshly injected packet into its entry queue (or deliver a
    /// self-addressed packet locally).
    fn accept_injection<Rec: Recorder>(
        &mut self,
        rf: &R,
        node: usize,
        p: u32,
        rec: &mut Rec,
    ) -> bool {
        if self.store.dst[p as usize] as usize == node {
            self.deliver(p, rec);
            return true;
        }
        let class = S::entry(self, rf, node, p);
        self.enqueue_central(rf, node, p, class, true, rec)
    }

    /// Whether central queue `q` refuses an entering packet: full, or
    /// frozen by a fault this cycle.
    fn refuses(&self, q: usize) -> bool {
        self.queue_len[q] as usize >= self.cfg.queue_capacity || self.queue_frozen(q)
    }

    /// Enqueue packet `p` into central queue `class` at `node`. With
    /// `check`, a full or frozen queue refuses the packet (recording a
    /// block) and returns false; without, the packet is forced in — the
    /// fault layer's reabsorption path, which deliberately tolerates
    /// transient over-capacity (see [`crate::fault`]).
    fn enqueue_central<Rec: Recorder>(
        &mut self,
        rf: &R,
        node: usize,
        p: u32,
        class: u8,
        check: bool,
        rec: &mut Rec,
    ) -> bool {
        let q = node * self.num_classes + usize::from(class);
        let pi = p as usize;
        if check && self.refuses(q) {
            if Rec::ENABLED {
                rec.on_block(self.cycle, self.store.uid[pi], node as u32, class);
            }
            return false;
        }
        self.store.enqueued_at[pi] = self.cycle;
        self.store.hot[pi].class = class;
        self.queue_len[q] += 1;
        if Rec::ENABLED {
            rec.on_queue_enter(
                self.cycle,
                self.store.uid[pi],
                node as u32,
                class,
                self.queue_len[q],
            );
        }
        self.node_fifo[node].push(p);
        S::settle(self, rf, p, node, rec);
        if self.store.hot[pi].stutters != 0 {
            self.stutter_cnt[node] += 1;
        }
        true
    }

    /// Reload the moves of queued packet `p` at `node` (its option set
    /// changed under it: degraded routing, restore), keeping the node's
    /// stutter count in step.
    fn resettle<Rec: Recorder>(&mut self, rf: &R, p: u32, node: usize, rec: &mut Rec) {
        let had = self.store.hot[p as usize].stutters != 0;
        S::settle(self, rf, p, node, rec);
        let has = self.store.hot[p as usize].stutters != 0;
        match (had, has) {
            (false, true) => self.stutter_cnt[node] += 1,
            (true, false) => self.stutter_cnt[node] -= 1,
            _ => {}
        }
    }

    /// Whether central queue `q` is frozen by a fault this cycle.
    fn queue_frozen(&self, q: usize) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.frozen(q, self.cycle))
    }

    /// Whether node `v` survives the faults applied so far (always true
    /// without a fault plan).
    pub(crate) fn node_alive(&self, v: usize) -> bool {
        !self.faults.as_ref().is_some_and(|f| f.is_node_dead(v))
    }

    fn deliver<Rec: Recorder>(&mut self, p: u32, rec: &mut Rec) {
        let pi = p as usize;
        let h = self.store.hot[pi];
        let latency = 2 * (self.cycle - self.store.inject_cycle[pi]) + 1;
        if Rec::ENABLED {
            rec.on_deliver(
                self.cycle,
                self.store.uid[pi],
                latency,
                u32::from(h.hops),
                h.class,
            );
        }
        self.stats.record(latency);
        self.delivered += 1;
        self.free_packet(p);
    }

    /// Return packet `p`'s option segment and slot.
    fn free_packet(&mut self, p: u32) {
        self.src.release(&self.store.hot[p as usize]);
        self.store.release(p);
    }

    // --- Fault injection (see `crate::fault`) --------------------------

    /// Apply scheduled fault events up to the current cycle, plus the
    /// per-cycle flaky-link retry bookkeeping. Runs at the top of every
    /// cycle, before the fill pass; `nodes` is the caller's owned node
    /// set (the full network for the sequential engine), gating all
    /// packet surgery and recording so a sharded run performs each side
    /// effect exactly once, on the shard that owns the state — while the
    /// flag state inside [`FaultState`] is replicated identically on
    /// every shard.
    pub(crate) fn apply_faults<Rec: Recorder>(
        &mut self,
        rf: &R,
        nodes: &OwnedNodes,
        rec: &mut Rec,
    ) {
        let Some(mut fs) = self.faults.take() else {
            return;
        };
        let cycle = self.cycle;
        let mut reabsorb: Vec<(u32, usize)> = Vec::new();
        let permanent = self.fire_events(&mut fs, cycle + 1, nodes, &mut reabsorb, rec);
        // Flaky retry/backoff: a packet staged on a channel that was
        // fault-down last cycle has waited one more cycle; after
        // `retry_limit` consecutive down-cycles it is reabsorbed into
        // the sender's central queue and rerouted.
        for i in 0..fs.flaky_chans.len() {
            let chan = fs.flaky_chans[i];
            let Some((_, threshold)) = fs.flaky_window(chan, cycle) else {
                continue;
            };
            if fs.plan.retry_limit == 0
                || !nodes.contains(self.layout.chan_from[chan as usize] as usize)
            {
                continue;
            }
            if self.chan_pending[chan as usize] == 0 {
                fs.reset_fail(chan);
            } else if cycle > 0 && fs.flaky_down_at(chan, cycle - 1, threshold) {
                if fs.count_fail(chan) {
                    self.reabsorb_chan(chan as usize, &mut reabsorb);
                }
            } else {
                fs.reset_fail(chan);
            }
        }
        if permanent {
            fs.reset_distances(&self.layout);
        }
        self.faults = Some(fs);
        for &(p, node) in &reabsorb {
            self.reroute_packet(rf, p, node, rec);
        }
        if permanent {
            // Degraded sweep: every queued packet's option set must be
            // re-restricted to the surviving graph (and may fall back
            // to an escape hop, or report a partition).
            for v in nodes.iter() {
                if !self.node_alive(v) {
                    continue;
                }
                for i in 0..self.node_fifo[v].len() {
                    let p = self.node_fifo[v][i];
                    self.resettle(rf, p, v, rec);
                }
            }
        }
    }

    /// Fire the plan's pending events scheduled before cycle `before`:
    /// each event's flag effects on `fs`, and its recording and packet
    /// surgery on the owned `nodes` only (none when replaying a
    /// checkpoint, whose packet placement already reflects it). Returns
    /// whether any event changed the topology for good.
    fn fire_events<Rec: Recorder>(
        &mut self,
        fs: &mut FaultState,
        before: u64,
        nodes: &OwnedNodes,
        reabsorb: &mut Vec<(u32, usize)>,
        rec: &mut Rec,
    ) -> bool {
        let mut permanent = false;
        while let Some(&ev) = fs.plan.events.get(fs.next_event) {
            if ev.cycle >= before {
                break;
            }
            fs.next_event += 1;
            if Rec::ENABLED && nodes.contains(ev.kind.primary_node() as usize) {
                rec.on_fault(ev.cycle, ev.kind.code(), ev.kind.primary_node());
            }
            match ev.kind {
                FaultKind::LinkDown { from, to } => {
                    permanent = true;
                    for chan in 0..self.layout.num_channels() {
                        if self.layout.chan_from[chan] == from
                            && self.layout.chan_to[chan] == to
                            && fs.kill_chan(chan as u32)
                            && nodes.contains(from as usize)
                        {
                            self.reabsorb_chan(chan, reabsorb);
                        }
                    }
                }
                FaultKind::NodeDown { node } => {
                    let v = node as usize;
                    if v >= self.layout.num_nodes || !fs.kill_node(v) {
                        continue;
                    }
                    permanent = true;
                    for chan in 0..self.layout.num_channels() {
                        let cf = self.layout.chan_from[chan] as usize;
                        let ct = self.layout.chan_to[chan] as usize;
                        if (cf != v && ct != v) || !fs.kill_chan(chan as u32) {
                            continue;
                        }
                        if cf == v {
                            // Out-channel of the dead node: staged
                            // packets die with it.
                            if nodes.contains(v) {
                                self.drop_outbufs(chan, rec);
                            }
                        } else {
                            // In-channel: the live sender reabsorbs its
                            // staged packets; packets already across in
                            // the dead node's input buffers die.
                            if nodes.contains(cf) {
                                self.reabsorb_chan(chan, reabsorb);
                            }
                            if nodes.contains(v) {
                                self.drop_inbufs(chan, rec);
                            }
                        }
                    }
                    if nodes.contains(v) {
                        self.drop_node_packets(v, rec);
                    }
                }
                FaultKind::QueueFreeze {
                    node,
                    class,
                    duration,
                } => {
                    let v = node as usize;
                    let c = usize::from(class);
                    if v < self.layout.num_nodes && c < self.num_classes {
                        fs.freeze(v * self.num_classes + c, ev.cycle + duration);
                    }
                }
                FaultKind::FlakyLink {
                    from,
                    to,
                    until,
                    threshold,
                } => {
                    for chan in 0..self.layout.num_channels() {
                        if self.layout.chan_from[chan] == from && self.layout.chan_to[chan] == to {
                            fs.set_flaky(chan as u32, until, threshold);
                        }
                    }
                }
            }
        }
        permanent
    }

    /// Pull every staged packet off `chan`'s output buffers for
    /// re-queueing at the (live) sender.
    fn reabsorb_chan(&mut self, chan: usize, out: &mut Vec<(u32, usize)>) {
        if self.chan_pending[chan] == 0 {
            return;
        }
        let from = self.layout.chan_from[chan] as usize;
        let start = self.layout.chan_buf_start[chan] as usize;
        let len = usize::from(self.layout.chan_buf_len[chan]);
        for b in start..start + len {
            let p = self.outbuf[b];
            if p != NONE {
                self.outbuf[b] = NONE;
                self.out_occ.clear(b);
                out.push((p, from));
            }
        }
        self.chan_pending[chan] = 0;
        self.chan_live.clear(chan);
    }

    /// Drop every packet staged on `chan` (its source node died).
    fn drop_outbufs<Rec: Recorder>(&mut self, chan: usize, rec: &mut Rec) {
        let start = self.layout.chan_buf_start[chan] as usize;
        let len = usize::from(self.layout.chan_buf_len[chan]);
        for b in start..start + len {
            let p = self.outbuf[b];
            if p != NONE {
                self.outbuf[b] = NONE;
                self.out_occ.clear(b);
                self.drop_packet(p, rec);
            }
        }
        self.chan_pending[chan] = 0;
        self.chan_live.clear(chan);
    }

    /// Drop every packet sitting in `chan`'s input buffers (they crossed
    /// into a node that then died).
    fn drop_inbufs<Rec: Recorder>(&mut self, chan: usize, rec: &mut Rec) {
        let to = self.layout.chan_to[chan] as usize;
        let start = self.layout.chan_buf_start[chan] as usize;
        let len = usize::from(self.layout.chan_buf_len[chan]);
        for b in start..start + len {
            let p = self.inbuf[b];
            if p != NONE {
                self.clear_inbuf(b, to);
                self.drop_packet(p, rec);
            }
        }
    }

    /// Drop every packet resident at dead node `v`: its central queues
    /// and its injection buffer.
    fn drop_node_packets<Rec: Recorder>(&mut self, v: usize, rec: &mut Rec) {
        let fifo = std::mem::take(&mut self.node_fifo[v]);
        self.stutter_cnt[v] = 0;
        for p in fifo {
            let class = self.store.hot[p as usize].class;
            let q = v * self.num_classes + usize::from(class);
            self.queue_len[q] -= 1;
            if Rec::ENABLED {
                let uid = self.store.uid[p as usize];
                rec.on_queue_leave(self.cycle, uid, v as u32, class, self.queue_len[q]);
            }
            self.drop_packet(p, rec);
        }
        let inj = self.inj_buf[v];
        if inj != NONE {
            self.inj_buf[v] = NONE;
            self.drop_packet(inj, rec);
        }
    }

    /// Destroy a packet in flight (node-down collateral).
    fn drop_packet<Rec: Recorder>(&mut self, p: u32, rec: &mut Rec) {
        if Rec::ENABLED {
            rec.on_drop(self.cycle, self.store.uid[p as usize]);
        }
        self.dropped += 1;
        self.free_packet(p);
    }

    /// Re-queue a reabsorbed packet at `node` with a restarted routing
    /// state — the pre-hop state is unrecoverable (staging advanced it),
    /// so the packet re-enters via the injection transition. The enqueue
    /// is unchecked: reabsorption deliberately tolerates transient
    /// over-capacity (see [`crate::fault`]).
    fn reroute_packet<Rec: Recorder>(&mut self, rf: &R, p: u32, node: usize, rec: &mut Rec) {
        debug_assert!(self.node_alive(node));
        let pi = p as usize;
        let dst = self.store.dst[pi] as usize;
        debug_assert_ne!(dst, node, "staged packet addressed to its own node");
        self.store.msg[pi] = S::initial_msg(rf, node, dst);
        let class = S::entry(self, rf, node, p);
        let h = &mut self.store.hot[pi];
        h.escape = false;
        h.staged = false;
        h.next_class = class;
        if Rec::ENABLED {
            rec.on_reroute(self.cycle, self.store.uid[pi], node as u32, class);
        }
        let ok = self.enqueue_central(rf, node, p, class, false, rec);
        debug_assert!(ok);
    }

    // --- Accessors for the run loop and the stall report --------------

    /// Non-empty central queues over `nodes` as `(node, class, occupancy)`
    /// — the watchdog stall report's snapshot. Ordered by `nodes` (the
    /// driver sorts the shards' merged result).
    pub(crate) fn nonempty_queues(&self, nodes: &OwnedNodes) -> Vec<(u32, u8, u32)> {
        let mut out = Vec::new();
        for node in nodes.iter() {
            for class in 0..self.num_classes {
                let len = self.queue_len[node * self.num_classes + class];
                if len > 0 {
                    out.push((node as u32, class as u8, len));
                }
            }
        }
        out
    }

    /// The live (undelivered, unfreed) packet with the smallest uid, as
    /// `(uid, src, dst, inject_cycle)`. In a sharded run the sender-side
    /// copy of a cross-shard packet stays live until its ack is
    /// processed, but a duplicate shares its uid, so the minimum is
    /// unaffected.
    pub(crate) fn oldest_live(&self) -> Option<(u64, u32, u32, u64)> {
        let mut dead = vec![false; self.store.len()];
        for &f in &self.store.free {
            dead[f as usize] = true;
        }
        (0..self.store.len())
            .filter(|&i| !dead[i])
            .map(|i| {
                (
                    self.store.uid[i],
                    self.store.src[i],
                    self.store.dst[i],
                    self.store.inject_cycle[i],
                )
            })
            .min_by_key(|&(uid, ..)| uid)
    }

    /// Sparse flaky-link consecutive-down counters (empty without a
    /// fault plan). Meaningful on the shard owning each channel's
    /// source node.
    pub(crate) fn flaky_fail_counts(&self) -> Vec<(u32, u32)> {
        self.faults
            .as_ref()
            .map_or_else(Vec::new, FaultState::fail_counts)
    }
}

/// The computed option source: a packet's moves are computed from its
/// routing message each time it enters a central queue, and cached in
/// an [`OptionArena`] segment until it leaves. Under a fault plan the
/// degraded-mode post-pass restricts them to the surviving graph.
pub struct Computed<R: RoutingFunction> {
    arena: OptionArena<R::Msg>,
    /// Scratch list options are computed into before being stored (one
    /// allocation for the engine's lifetime).
    scratch: Vec<MoveOpt<R::Msg>>,
}

impl<R: RoutingFunction> Computed<R> {
    pub(crate) fn new() -> Self {
        Self {
            arena: OptionArena::new(),
            scratch: Vec::new(),
        }
    }
}

impl<R: RoutingFunction> OptionSource<R> for Computed<R> {
    type Msg = R::Msg;

    fn opt_buf(&self, i: usize, _first: u32) -> u32 {
        self.arena.buf[i]
    }

    fn opt_to_class(&self, i: usize) -> u8 {
        self.arena.to_class[i]
    }

    fn release(&mut self, h: &Hot) {
        self.arena.release(h.opt_start, u32::from(h.opt_len));
    }

    fn clear(&mut self) {
        self.arena.clear();
        self.scratch.clear();
    }

    fn initial_msg(rf: &R, src: NodeId, dst: NodeId) -> R::Msg {
        rf.initial_msg(src, dst)
    }

    fn entry(core: &mut Core<R, Self>, rf: &R, node: usize, p: u32) -> u8 {
        entry_class_of(rf, node, &core.store.msg[p as usize])
    }

    fn advance(core: &mut Core<R, Self>, p: u32, i: usize) {
        let pi = p as usize;
        core.store.msg[pi] = core.src.arena.next[i].clone();
        core.store.hot[pi].escape = core.src.arena.escape[i];
    }

    fn arrival<Rec: Recorder>(
        core: &mut Core<R, Self>,
        rf: &R,
        node: usize,
        p: u32,
        rec: &mut Rec,
    ) -> Arrival {
        let pi = p as usize;
        if core.store.hot[pi].escape {
            // Degraded-mode escape hop: the staged `msg` is a
            // placeholder (the pre-hop routing state is gone), so the
            // packet restarts its routing state here via the injection
            // transition. All checks run before any mutation, so a
            // refused packet retries intact next cycle.
            let dst = core.store.dst[pi] as usize;
            if dst == node {
                return Arrival::Deliver;
            }
            let msg = rf.initial_msg(node, dst);
            let class = entry_class_of(rf, node, &msg);
            if core.refuses(node * core.num_classes + usize::from(class)) {
                if Rec::ENABLED {
                    rec.on_block(core.cycle, core.store.uid[pi], node as u32, class);
                }
                return Arrival::Refused;
            }
            core.store.msg[pi] = msg;
            core.store.hot[pi].escape = false;
            return Arrival::Enqueue(class);
        }
        if rf.deliverable(node, &core.store.msg[pi]) {
            debug_assert_eq!(core.store.dst[pi] as usize, node);
            Arrival::Deliver
        } else {
            Arrival::Enqueue(core.store.hot[pi].next_class)
        }
    }

    /// Cache the moves of `p`'s residence: [`push_move_options`], the
    /// degraded-mode post-pass under a fault plan, and the fill summary
    /// (want mask and stutter count) the step core reads.
    fn settle<Rec: Recorder>(core: &mut Core<R, Self>, rf: &R, p: u32, node: usize, rec: &mut Rec) {
        let pi = p as usize;
        let mut opts = std::mem::take(&mut core.src.scratch);
        opts.clear();
        // Borrow the message in place: `rf`, `store` and `layout` are
        // all borrowed immutably here, so the hot path needs no clone.
        let class = core.store.hot[pi].class;
        push_move_options(
            rf,
            &core.layout,
            node,
            class,
            &core.store.msg[pi],
            &mut opts,
        );
        if core.faults.is_some() {
            core.degrade(rf, p, node, &mut opts, rec);
        } else {
            debug_assert!(!opts.is_empty(), "queued packet with no moves (dead end)");
        }
        let (mut wants, mut stutters) = (0u64, 0u8);
        for o in &opts {
            if o.buf == NONE {
                stutters += 1;
            } else {
                let pos = core.layout.buf_out_pos[o.buf as usize];
                if pos < 64 {
                    wants |= 1u64 << pos;
                }
            }
        }
        let h = &mut core.store.hot[pi];
        core.src.arena.release(h.opt_start, u32::from(h.opt_len));
        let (start, len) = core.src.arena.store(&mut opts);
        h.opt_start = start;
        h.opt_len = u8::try_from(len).expect("per-state fan-out fits u8");
        h.wants = wants;
        h.stutters = stutters;
        core.src.scratch = opts;
    }
}

impl<R: RoutingFunction> Core<R, Computed<R>> {
    /// Degraded-mode post-pass over a freshly computed option set: once
    /// any permanent fault exists, keep only moves that strictly
    /// shorten the **surviving-graph** distance to the destination, and
    /// when none survive fall back to a single escape hop along a
    /// surviving shortest path — or report a partition when the
    /// destination is unreachable (see [`crate::fault`]).
    ///
    /// Progress on the *original* topology is not enough: a minimal
    /// option can lead into a region whose only minimal continuation is
    /// dead, and the escape hop out of it would undo the progress —
    /// packets then ping-pong between the trap node and its neighbour
    /// forever (a livelock this crate's differential fault suite caught
    /// on a mesh with one dead node). The monotone discipline makes
    /// every degraded hop decrease a per-destination potential, so no
    /// routing cycle can form. In-place class changes (stutters) are
    /// dropped too: they make no distance progress, and the escape
    /// fallback restarts the routing state at the next node anyway.
    ///
    /// Toward an intact destination ([`FaultState::intact`]) a minimal
    /// scheme's hop strictly shortens the surviving distance iff its
    /// channel and target are alive, so the filter reads no distance row;
    /// rows are filled only for the faults' cone and the escape hop.
    fn degrade<Rec: Recorder>(
        &mut self,
        rf: &R,
        p: u32,
        node: usize,
        opts: &mut Vec<MoveOpt<R::Msg>>,
        rec: &mut Rec,
    ) {
        let dst = self.store.dst[p as usize];
        // With no permanent faults the original option set — which
        // always contains a static hop — passes through untouched.
        let mut has_static = true;
        let fs = self.faults.as_mut().expect("fault state attached");
        if fs.has_dead() {
            let layout = &self.layout;
            if rf.is_minimal() && !fs.is_node_dead(node) && fs.intact(dst, layout) {
                // Every live node keeps its fault-free distance to `dst`,
                // and a minimal hop lowers that distance by one.
                opts.retain(|o| {
                    o.buf != NONE && fs.chan_alive(layout.buf_chan[o.buf as usize], layout)
                });
            } else {
                let toward = fs.toward(dst, layout);
                let here = toward.dist[node];
                opts.retain(|o| {
                    o.buf != NONE && toward.advances(layout.buf_chan[o.buf as usize], here)
                });
            }
            has_static = opts
                .iter()
                .any(|o| matches!(layout.buf_class[o.buf as usize], BufferClass::Static(_)));
        }
        let class = self.store.hot[p as usize].class;
        if opts.is_empty() {
            match self.escape_option(rf, node, dst as usize, class) {
                Some(opt) => opts.push(opt),
                None => {
                    if !self.partitioned.contains(&dst) {
                        self.partitioned.push(dst);
                        if Rec::ENABLED {
                            rec.on_partition(self.cycle, dst);
                        }
                    }
                }
            }
        } else if !has_static {
            // § 2 condition 3 on the surviving graph: a state whose
            // surviving moves are all dynamic (its one static port
            // died) must keep a static continuation, so the escape hop
            // is appended as the static fallback — taken only when
            // every preceding option is blocked. The escape exists
            // whenever the retained set is non-empty (both demand a
            // live distance-decreasing out-channel).
            if let Some(opt) = self.escape_option(rf, node, dst as usize, class) {
                opts.push(opt);
            }
        }
    }

    /// One hop of escape routing on the surviving graph: the
    /// lowest-port live out-channel making shortest-path progress
    /// toward `dst`. Returns `None` when `dst` is unreachable from
    /// `node` over live channels between live nodes.
    fn escape_option(
        &mut self,
        rf: &R,
        node: usize,
        dst: usize,
        class: u8,
    ) -> Option<MoveOpt<R::Msg>> {
        let fs = self.faults.as_mut().expect("fault state attached");
        let toward = fs.toward(dst as u32, &self.layout);
        let here = toward.dist[node];
        if here == u32::MAX {
            return None;
        }
        debug_assert!(here > 0, "queued packet at its destination");
        for port in 0..self.layout.max_ports {
            let Some(chan) = self.layout.chan(node, port) else {
                continue;
            };
            if !toward.advances(chan, here) {
                continue;
            }
            // Ride the channel's first declared buffer class; a static
            // class pins the arrival class, a dynamic one keeps the
            // packet's current class until the receiver restarts it.
            let buf = self.layout.chan_buf_start[chan as usize];
            let to_class = match self.layout.buf_class[buf as usize] {
                BufferClass::Static(c) => c,
                BufferClass::Dynamic => class,
            };
            return Some(MoveOpt {
                buf,
                to_class,
                next: rf.initial_msg(node, dst),
                escape: true,
            });
        }
        None
    }

    /// Re-apply the flag effects of every fault event before `cycle`
    /// (packet surgery is unnecessary: the snapshot's placement already
    /// reflects it), then restore the sparse flaky retry counters, which
    /// [`Simulator::validate_snapshot`] has checked.
    fn replay_faults(&mut self, cycle: u64, fail: &[(u32, u32)]) {
        let Some(mut fs) = self.faults.take() else {
            return;
        };
        let no_nodes = OwnedNodes::from_sorted(&[], self.layout.num_nodes);
        if self.fire_events(&mut fs, cycle, &no_nodes, &mut Vec::new(), &mut NoRecorder) {
            fs.reset_distances(&self.layout);
        }
        for &(chan, cnt) in fail {
            let known = fs.set_fail_count(chan, cnt);
            debug_assert!(known, "fail counters are validated before commit");
        }
        self.faults = Some(fs);
    }
}

/// The packet-routing simulator; see the crate docs for the model.
///
/// `Rec` is the attached event [`Recorder`], monomorphized into the hot
/// loop: the default [`NoRecorder`] has empty inline hooks, so an
/// unobserved simulator compiles to exactly the code it had before the
/// observability layer existed. Pass a [`fadr_metrics::SinkSet`] (or any
/// custom recorder) via [`Simulator::with_recorder`] to collect
/// routing-decision counters, packet traces or the wait-for graph;
/// [`Simulator::with_watchdog`] adds the no-progress watchdog.
///
/// `S` is where a queued packet's moves come from: the routing function
/// (`Computed`, the default), or a shared routing-state table
/// ([`Simulator::with_table`]). Both run the same step core and are
/// bit-identical for one seed; only the computed source supports fault
/// plans and snapshots.
pub struct Simulator<
    R: RoutingFunction,
    Rec: Recorder = NoRecorder,
    S: OptionSource<R> = Computed<R>,
> {
    pub(crate) rf: R,
    pub(crate) rec: Rec,
    /// The step core (the run loop drives it per node and per channel).
    pub(crate) core: Core<R, S>,
    /// The no-progress watchdog's window ([`Simulator::with_watchdog`];
    /// a sharded run reads shard 0's).
    pub(crate) watchdog: Option<u64>,
    /// The last run's stall report (a sharded run keeps it in shard 0).
    pub(crate) stall: Option<StallReport>,
}

impl<R: RoutingFunction> Simulator<R> {
    /// Build a simulator for `rf` with the given configuration and no
    /// recorder (the zero-overhead default).
    pub fn new(rf: R, cfg: SimConfig) -> Self {
        Self::with_recorder(rf, cfg, NoRecorder)
    }
}

impl<R: RoutingFunction, Rec: Recorder> Simulator<R, Rec> {
    /// Build a simulator with an attached event recorder. The recorder
    /// observes every run of this simulator (it is *not* reset between
    /// runs); use one recorder per run for per-run metrics.
    ///
    /// A `queue_capacity` of 0 is permitted: it wedges the network (no
    /// packet can ever enter a central queue), which is useful for
    /// exercising the watchdog against a guaranteed stall.
    pub fn with_recorder(rf: R, cfg: SimConfig, rec: Rec) -> Self {
        let layout = Arc::new(Layout::new(&rf));
        Self::with_shared_layout(rf, cfg, rec, layout)
    }

    /// Build a simulator on an already-computed layout (shared between
    /// the per-shard simulators of a [`crate::ShardedSimulator`], which
    /// would otherwise recompute it once per shard).
    pub(crate) fn with_shared_layout(rf: R, cfg: SimConfig, rec: Rec, layout: Arc<Layout>) -> Self {
        let core = Core::new(cfg, layout, rf.num_classes(), Computed::new());
        Self {
            rf,
            rec,
            core,
            watchdog: None,
            stall: None,
        }
    }

    /// Attach a fault plan: its scheduled events fire at their cycles on
    /// every subsequent run (see [`crate::fault`] for the model). The
    /// plan's events are sorted by cycle here, so both engines process
    /// them in the same order.
    #[must_use]
    pub fn with_faults(mut self, mut plan: FaultPlan) -> Self {
        plan.normalize();
        self.core.fault_plan = Some(Arc::new(plan));
        self
    }
}

impl<R: RoutingFunction, Rec: Recorder, S: OptionSource<R>> Simulator<R, Rec, S> {
    /// Abort runs after `k` consecutive cycles without a delivery while
    /// packets are in flight, with a [`StallReport`] available from
    /// [`Simulator::stall_report`] after the run. This is the rule of
    /// [`fadr_metrics::WatchdogSink`], run by the engine itself (see
    /// the `driver` module), so both engines report alike.
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

    /// The stall report of the last run, if the watchdog or a fault
    /// partition aborted it.
    pub fn stall_report(&self) -> Option<&StallReport> {
        self.stall.as_ref()
    }

    /// Destinations a fault made unreachable in the last run, sorted and
    /// deduplicated. Non-empty exactly when the run stopped with
    /// [`StopReason::Partitioned`].
    pub fn partitioned_destinations(&self) -> Vec<u32> {
        driver::partitioned(std::slice::from_ref(self))
    }

    /// The attached event recorder.
    pub fn recorder(&self) -> &Rec {
        &self.rec
    }

    /// Mutable access to the attached event recorder.
    pub fn recorder_mut(&mut self) -> &mut Rec {
        &mut self.rec
    }

    /// Consume the simulator and return its recorder (e.g. to reduce a
    /// sink after a run).
    pub fn into_recorder(self) -> Rec {
        self.rec
    }

    /// The routing function under simulation.
    pub fn routing(&self) -> &R {
        &self.rf
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.core.layout.num_nodes
    }

    /// Current routing cycle (after a [`Simulator::restore`], the
    /// checkpoint cycle — the replay harness reports its resume window
    /// from this).
    pub fn cycle(&self) -> u64 {
        self.core.cycle
    }

    /// Run a static-injection experiment: node `v` injects the packets of
    /// `backlog[v]` (in order) as fast as its injection buffer frees up,
    /// and the run ends when the network drains.
    pub fn run_static(&mut self, backlog: &[Vec<NodeId>]) -> StaticResult {
        match self.run_static_until(backlog, None) {
            StaticOutcome::Finished(r) => r,
            StaticOutcome::Paused(_) => unreachable!("no pause requested"),
        }
    }

    /// [`Simulator::run_static`] with an optional pause point: with
    /// `pause_at = Some(p)` the run stops at cycle `p` *after* the
    /// injection pass but *before* the routing step — the engine's
    /// checkpointable pause point (see [`crate::snapshot`]) — and
    /// returns the loop progress needed to resume.
    pub fn run_static_until(
        &mut self,
        backlog: &[Vec<NodeId>],
        pause_at: Option<u64>,
    ) -> StaticOutcome {
        let Ok(out) = driver::static_leg(self, backlog, None, pause_at);
        out
    }

    /// Continue a static run from a restored checkpoint (see
    /// [`Simulator::restore`]). The engine must already hold the
    /// restored state; `backlog` must be the original workload.
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
        let Ok(out) = driver::static_leg(self, backlog, Some(&progress), pause_at);
        out
    }

    /// Run a dynamic-injection experiment for `cycles` routing cycles:
    /// each node attempts an injection each cycle with probability
    /// `lambda`, drawing destinations from `dest`.
    ///
    /// Each node draws its Bernoulli trials and destinations from its
    /// *own* deterministic RNG stream (seeded from
    /// [`crate::SimConfig::seed`] and the node id), and the destination
    /// is drawn on every attempt whether or not the injection buffer is
    /// free. Together these make the offered workload a pure function of
    /// `(seed, λ, cycles)`: it does not depend on buffer occupancy
    /// (i.e. on the routing algorithm, queue capacity, or fill order), so
    /// latency numbers from different configurations answer the same
    /// question — and a sharded run injects the exact same packets as a
    /// sequential one regardless of how nodes are partitioned.
    pub fn run_dynamic(
        &mut self,
        lambda: f64,
        dest: impl FnMut(NodeId, &mut StdRng) -> NodeId,
        cycles: u64,
    ) -> DynamicResult {
        match self.run_dynamic_until(lambda, dest, cycles, None) {
            DynamicOutcome::Finished(r) => r,
            DynamicOutcome::Paused(_) => unreachable!("no pause requested"),
        }
    }

    /// [`Simulator::run_dynamic`] with an optional pause point (see
    /// [`Simulator::run_static_until`] for the pause-point semantics).
    pub fn run_dynamic_until(
        &mut self,
        lambda: f64,
        dest: impl FnMut(NodeId, &mut StdRng) -> NodeId,
        cycles: u64,
        pause_at: Option<u64>,
    ) -> DynamicOutcome {
        let Ok(out) = driver::dynamic_leg(self, lambda, dest, cycles, None, pause_at);
        out
    }

    /// Continue a dynamic run from a restored checkpoint. `lambda`,
    /// `dest`, and `cycles` must be the original workload parameters:
    /// the per-node RNG streams are not stored in the snapshot but
    /// *fast-forwarded* — each node's stream is replayed through the
    /// draws the paused run already consumed (one Bernoulli trial plus,
    /// on success, one destination draw per cycle, destinations drawn
    /// unconditionally by the run loop), which is only possible because
    /// the draw discipline is a pure function of `(seed, λ, cycle)`.
    ///
    /// # Panics
    ///
    /// Panics if `progress` is not [`RunProgress::Dynamic`].
    pub fn resume_dynamic(
        &mut self,
        lambda: f64,
        dest: impl FnMut(NodeId, &mut StdRng) -> NodeId,
        cycles: u64,
        progress: RunProgress,
        pause_at: Option<u64>,
    ) -> DynamicOutcome {
        let Ok(out) = driver::dynamic_leg(self, lambda, dest, cycles, Some(&progress), pause_at);
        out
    }
}

/// Checkpoint/restore (the flight recorder's snapshot layer). Available
/// whenever the routing function's message type knows how to serialize
/// itself (every algorithm in `fadr-core` does).
impl<R: RoutingFunction, Rec: Recorder> Simulator<R, Rec>
where
    R::Msg: SnapshotMsg,
{
    /// Serialize the complete engine state as a `fadr-snapshot/3`
    /// document. Only valid at the pause point a `*_until` run method
    /// stops at (cycle `P`, post-injection, pre-fault-application):
    /// there no packet is staged mid-move, so the placement alone
    /// determines all derived state. `progress` is the loop progress the
    /// pause returned; `meta` is a free-form label echoed back by
    /// [`Simulator::restore`].
    ///
    /// # Panics
    ///
    /// Panics if `meta` holds a character JSON escapes (`"`, `\` or a
    /// control character): the reader takes no escapes.
    #[must_use]
    pub fn checkpoint(&self, meta: &str, progress: &RunProgress) -> String {
        let core = &self.core;
        debug_assert!(
            core.partitioned.is_empty(),
            "checkpointing a partitioned run"
        );
        let g = snapshot::Globals {
            cfg: &core.cfg,
            dims: self.dims(),
            cycle: core.cycle,
            next_uid: core.next_uid,
            delivered: core.delivered,
            dropped: core.dropped,
            chan_rr: core.chan_rr.clone(),
            fail: core.flaky_fail_counts(),
            stats: &core.stats,
        };
        let (n, _, nb, _) = g.dims;
        let packets = Loc::all(n, nb).flat_map(|loc| self.packets_at(loc));
        snapshot::assemble(meta, &g, packets, progress)
    }

    /// Load a `fadr-snapshot/3` document, replacing the engine state
    /// with the snapshot's. Returns the snapshot's meta label and the
    /// loop progress to feed into the matching `resume_*` run method.
    ///
    /// The snapshot's configuration and network shape must match this
    /// simulator's exactly (resuming under different parameters would
    /// silently be a different run). Restore is validate-then-commit:
    /// the whole document is checked against this instance first, and
    /// on error the engine and its recorder are left untouched.
    pub fn restore(&mut self, text: &str) -> Result<(String, RunProgress), String> {
        let snap: ParsedSnapshot<R::Msg> = snapshot::parse(text)?;
        self.validate_snapshot(&snap)?;
        self.commit_snapshot(&snap, true, |_| true);
        self.resettle_queued();
        Ok((snap.meta, snap.progress))
    }

    /// `(num_nodes, num_classes, num_buffers, num_channels)`, the shape a
    /// snapshot records.
    fn dims(&self) -> (usize, usize, usize, usize) {
        let l = &self.core.layout;
        let nc = self.core.num_classes;
        (l.num_nodes, nc, l.num_buffers(), l.num_channels())
    }

    /// The packets at `loc` with their records: a central queue's in
    /// FIFO order, and at most one at any other location.
    pub(crate) fn packets_at(
        &self,
        loc: Loc,
    ) -> impl Iterator<Item = (Loc, PacketInit<R::Msg>)> + '_ {
        let core = &self.core;
        let slots = match loc {
            Loc::Queue(v) => &core.node_fifo[v as usize][..],
            Loc::Inj(v) => std::slice::from_ref(&core.inj_buf[v as usize]),
            Loc::Out(b) => std::slice::from_ref(&core.outbuf[b as usize]),
            Loc::In(b) => std::slice::from_ref(&core.inbuf[b as usize]),
        };
        slots
            .iter()
            .filter(|&&p| p != NONE)
            .map(move |&p| (loc, core.store.record(p)))
    }

    /// Check a parsed snapshot (the whole document, even when a sharded
    /// driver commits it piecewise) against this engine's instance,
    /// touching no state: every error a restore can report is found
    /// here, so [`Simulator::commit_snapshot`] cannot fail.
    pub(crate) fn validate_snapshot(&self, snap: &ParsedSnapshot<R::Msg>) -> Result<(), String> {
        let dims = self.dims();
        let (n, nc, nb, nch) = dims;
        let core = &self.core;
        if snap.dims != dims {
            return Err(format!(
                "snapshot network shape {:?} does not match the engine's {dims:?}",
                snap.dims
            ));
        }
        if snap.cfg != core.cfg {
            return Err("snapshot configuration does not match the engine's".into());
        }
        if snap.chan_rr.len() != nch {
            return Err("snapshot chan_rr table has the wrong length".into());
        }
        if let Some(c) = (0..nch).find(|&c| snap.chan_rr[c] >= core.layout.chan_buf_len[c]) {
            return Err(format!("snapshot chan_rr of channel {c} is out of range"));
        }
        if core.fault_plan.is_none() && !snap.fail.is_empty() {
            return Err("snapshot carries fault counters but no fault plan is attached".into());
        }
        if let Some(&(chan, _)) = snap.fail.iter().find(|&&(c, _)| c as usize >= nch) {
            return Err(format!("snapshot fail counter for unknown channel {chan}"));
        }
        if let RunProgress::Static { next_idx, .. } = &snap.progress {
            if next_idx.len() != n {
                return Err(format!(
                    "snapshot progress has {} backlog cursors for {n} nodes",
                    next_idx.len()
                ));
            }
        }
        let (mut inj, mut out, mut inb) = (vec![false; n], vec![false; nb], vec![false; nb]);
        for (loc, r) in &snap.packets {
            if usize::from(r.class) >= nc || usize::from(r.next_class) >= nc {
                return Err(format!(
                    "packet {} names an out-of-range queue class",
                    r.uid
                ));
            }
            if r.src as usize >= n || r.dst as usize >= n {
                return Err(format!("packet {} has out-of-range endpoints", r.uid));
            }
            let to = self.rf.destination(&r.msg);
            if to != r.dst as usize {
                return Err(format!(
                    "packet {} is addressed to {} but routed to {to}",
                    r.uid, r.dst
                ));
            }
            // Every move happens in a fill pass before the pause cycle
            // (`u64::MAX` = never moved); the fill relies on it.
            if r.inject_cycle > snap.cycle || (r.moved_at >= snap.cycle && r.moved_at != u64::MAX) {
                return Err(format!(
                    "packet {} has a timestamp after the snapshot",
                    r.uid
                ));
            }
            let (slot, what) = match *loc {
                Loc::Queue(v) if v == r.dst => {
                    return Err(format!("packet {} is queued at its destination", r.uid));
                }
                Loc::Queue(v) if (v as usize) < n => {
                    if !self.rf.can_hold(v as usize, r.class, &r.msg) {
                        return Err(format!(
                            "packet {} cannot wait in queue class {} at node {v}",
                            r.uid, r.class
                        ));
                    }
                    continue;
                }
                Loc::Queue(_) => {
                    return Err(format!("packet {} queued at an unknown node", r.uid));
                }
                Loc::Inj(v) => (inj.get_mut(v as usize), "injection slot"),
                Loc::Out(b) => (out.get_mut(b as usize), "output buffer"),
                Loc::In(b) => (inb.get_mut(b as usize), "input buffer"),
            };
            match slot {
                Some(taken) if !*taken => *taken = true,
                _ => return Err(format!("packet {} in a bad {what}", r.uid)),
            }
            match *loc {
                Loc::Inj(v) => {
                    let (v, dst) = (v as usize, r.dst as usize);
                    if r.msg != self.rf.initial_msg(v, dst) {
                        return Err(format!(
                            "packet {} in the injection slot of node {v} does not start there",
                            r.uid
                        ));
                    }
                }
                Loc::Out(b) => self.validate_buffered(r, b as usize, true)?,
                Loc::In(b) => self.validate_buffered(r, b as usize, false)?,
                Loc::Queue(_) => {}
            }
        }
        Ok(())
    }

    /// Check a packet in output (`staged`) or input buffer `b` against
    /// the buffer's channel `u → w`: a static buffer fixes the class the
    /// packet arrives in, a staged packet is not addressed to `u` (a
    /// dead link hands it back to `u`'s queues), and a non-escape packet
    /// is either delivered at `w` or fits the queue it enters there.
    fn validate_buffered(
        &self,
        r: &PacketInit<R::Msg>,
        b: usize,
        staged: bool,
    ) -> Result<(), String> {
        let layout = &self.core.layout;
        let chan = layout.buf_chan[b] as usize;
        let (u, w) = (layout.chan_from[chan], layout.chan_to[chan] as usize);
        if matches!(layout.buf_class[b], BufferClass::Static(c) if c != r.next_class) {
            return Err(format!(
                "packet {} arrives in queue class {} through buffer {b} of another class",
                r.uid, r.next_class
            ));
        }
        if staged && r.dst == u {
            return Err(format!("packet {} is staged at its destination {u}", r.uid));
        }
        if !r.escape
            && !self.rf.deliverable(w, &r.msg)
            && !self.rf.can_hold(w, r.next_class, &r.msg)
        {
            return Err(format!(
                "packet {} cannot arrive in queue class {} at node {w}",
                r.uid, r.next_class
            ));
        }
        Ok(())
    }

    /// Load a validated snapshot: reset, restore the global counters,
    /// replay the fault schedule up to the snapshot cycle, prime the
    /// recorder and place the packets whose location `owns` accepts.
    /// Without `totals` the delivered and dropped counters and the
    /// latency statistics stay empty: a sharded driver loads them into
    /// one shard only. This and [`Simulator::resettle_queued`], which
    /// must follow it, are the only steps of a restore that mutate the
    /// engine or fire recorder hooks, and neither can fail.
    pub(crate) fn commit_snapshot(
        &mut self,
        snap: &ParsedSnapshot<R::Msg>,
        totals: bool,
        owns: impl Fn(Loc) -> bool,
    ) {
        let core = &mut self.core;
        core.reset();
        core.cycle = snap.cycle;
        core.next_uid = snap.next_uid;
        if totals {
            core.delivered = snap.delivered;
            core.dropped = snap.dropped;
            core.stats = snap.stats.clone();
        }
        core.chan_rr.copy_from_slice(&snap.chan_rr);
        core.replay_faults(snap.cycle, &snap.fail);
        if Rec::ENABLED {
            self.rec.on_resume(snap.cycle);
        }
        for rec in snap.packets.iter().filter(|(loc, _)| owns(*loc)) {
            self.place_packet(rec);
        }
    }

    /// Recompute the cached routing options of every queued packet after
    /// [`Simulator::commit_snapshot`]. They are derived state, computed
    /// after the fault replay so degraded-mode filtering sees the same
    /// dead topology as the original run; under a permanent fault this
    /// fills the surviving-distance rows that degraded routing reads.
    pub(crate) fn resettle_queued(&mut self) {
        let core = &mut self.core;
        for v in 0..core.layout.num_nodes {
            for i in 0..core.node_fifo[v].len() {
                let p = core.node_fifo[v][i];
                core.resettle(&self.rf, p, v, &mut self.rec);
            }
        }
    }

    /// Insert one validated snapshot packet at its serialized location,
    /// priming the recorder (`on_inject`, plus `on_queue_enter` for
    /// queued packets) so per-packet sinks see every live packet once.
    fn place_packet(&mut self, (loc, r): &(Loc, PacketInit<R::Msg>)) {
        if Rec::ENABLED {
            self.rec.on_inject(r.inject_cycle, r.uid, r.src, r.dst);
        }
        let core = &mut self.core;
        // The pause point sits between the injection pass and the fill
        // pass, where no packet is staged.
        let slot = core.store.insert(r.clone());
        match *loc {
            Loc::Queue(v) => {
                let q = v as usize * core.num_classes + usize::from(r.class);
                core.queue_len[q] += 1;
                if Rec::ENABLED {
                    self.rec
                        .on_queue_enter(core.cycle, r.uid, v, r.class, core.queue_len[q]);
                }
                core.node_fifo[v as usize].push(slot);
            }
            Loc::Inj(v) => core.inj_buf[v as usize] = slot,
            Loc::Out(b) => core.fill_outbuf(b as usize, slot),
            Loc::In(b) => core.fill_inbuf(b as usize, slot),
        }
    }
}

/// One cross-shard offer: the record of the packet staged in output
/// buffer `buf` of channel `chan`, all the receiving shard needs to
/// rebuild it (`None` once taken). Offers in a mailbox are flat (no
/// per-channel nesting) and ascending by `(chan, buf)` — senders emit
/// channels in ascending id order, so receivers can consume with a
/// single cursor per sender.
pub(crate) struct OfferItem<M> {
    pub(crate) chan: u32,
    buf: u32,
    pkt: Option<PacketInit<M>>,
}

impl<R: RoutingFunction, Rec: Recorder> Simulator<R, Rec> {
    /// Snapshot the packets staged on cross-shard channel `chan` as
    /// transfer offers, in ascending buffer order. Offers are re-issued
    /// every cycle until the receiver takes them (mirroring how the
    /// sequential link pass retries a staged packet whose input buffer
    /// is full).
    pub(crate) fn collect_offers(&self, chan: usize, out: &mut Vec<OfferItem<R::Msg>>) {
        let core = &self.core;
        if core.chan_pending[chan] == 0 {
            return;
        }
        if let Some(fs) = &core.faults {
            // Same guard as the sequential link pass: a dead or
            // flaky-down channel carries nothing this cycle.
            if fs.link_blocked(chan as u32, core.cycle) {
                return;
            }
        }
        let start = core.layout.chan_buf_start[chan] as usize;
        let len = core.layout.chan_buf_len[chan] as usize;
        for b in start..start + len {
            let p = core.outbuf[b];
            if p == NONE {
                continue;
            }
            out.push(OfferItem {
                chan: chan as u32,
                buf: b as u32,
                pkt: Some(core.store.record(p)),
            });
        }
    }

    /// Link pass for a cross-shard channel, executed by the shard that
    /// owns the receiving endpoint. `offered` holds the sender's offers
    /// for this channel; the round-robin scan is identical to
    /// [`Core::link_chan`] with "output buffer occupied" replaced by
    /// "offer present". Returns the taken buffer (to acknowledge to the
    /// sender) if a packet crossed.
    pub(crate) fn take_cross(
        &mut self,
        chan: usize,
        offered: &mut [OfferItem<R::Msg>],
    ) -> Option<u32> {
        let core = &self.core;
        if let Some(fs) = &core.faults {
            // Fault flags are replicated, so receiver and sender agree
            // on blocked channels; the sender will not have offered,
            // but guard here too for symmetry with `link_chan`.
            if fs.link_blocked(chan as u32, core.cycle) {
                return None;
            }
        }
        let start = core.layout.chan_buf_start[chan] as usize;
        let len = core.layout.chan_buf_len[chan] as usize;
        let rr = core.chan_rr[chan] as usize;
        for i in 0..len {
            let b = start + (rr + i) % len;
            if self.core.inbuf[b] != NONE {
                continue;
            }
            let Some(pkt) = offered
                .iter_mut()
                .find(|o| o.buf as usize == b)
                .and_then(|o| o.pkt.take())
            else {
                continue;
            };
            self.accept_transfer(chan, b, pkt);
            self.core.chan_rr[chan] = ((rr + i + 1) % len) as u16;
            return Some(b as u32);
        }
        None
    }

    /// Materialize a transferred packet in this shard's slab and input
    /// buffer, firing the same link event the sequential engine would.
    fn accept_transfer(&mut self, chan: usize, buf: usize, mut pkt: PacketInit<R::Msg>) {
        pkt.hops += 1;
        let core = &mut self.core;
        if Rec::ENABLED {
            self.rec.on_link(
                core.cycle,
                pkt.uid,
                core.layout.chan_from[chan],
                core.layout.chan_to[chan],
                matches!(core.layout.buf_class[buf], BufferClass::Dynamic),
                pkt.class,
                pkt.next_class,
            );
        }
        let slot = core.store.insert(pkt);
        core.fill_inbuf(buf, slot);
    }

    /// Drain a batch of cross-shard acknowledgements (one mailbox lock's
    /// worth) in order: the receiver took the packet staged in each
    /// output buffer, so free the sender-side copy.
    pub(crate) fn apply_acks(&mut self, bufs: &[u32]) {
        for &b in bufs {
            let slot = self.core.take_outbuf(b as usize);
            self.core.free_packet(slot);
        }
    }
}

/// Start position for [`FillOrder::Rotating`] at `node` on `cycle`.
///
/// The rotation advances by one buffer per cycle (every buffer still
/// leads exactly once per `n_out` cycles at every node), but each node's
/// phase is offset by a golden-ratio hash of its id: without the offset,
/// every node in a symmetric network prefers the *same* dimension on the
/// same cycle — a lockstep pattern, not the per-node fairness the fill
/// order advertises.
pub(crate) fn rotating_start(cycle: u64, node: usize, n_out: usize) -> usize {
    if n_out == 0 {
        return 0;
    }
    let salt = (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    (cycle.wrapping_add(salt) % n_out as u64) as usize
}

/// The routing-table core shared by both option sources: enumerate the
/// moves available to a packet carrying `msg` while resident in central
/// queue `class` of `node`, resolving each transition to a concrete
/// output buffer (or `NONE` for an in-place stutter). A pure function of
/// `(rf, layout, node, class, msg)` — the property that lets
/// [`crate::StateTable`] precompute its results once for every
/// simulator that shares the table.
pub(crate) fn push_move_options<R: RoutingFunction>(
    rf: &R,
    layout: &Layout,
    node: usize,
    class: u8,
    msg: &R::Msg,
    opts: &mut Vec<MoveOpt<R::Msg>>,
) {
    rf.for_each_transition(QueueId::central(node, class), msg, &mut |t| match t.hop {
        HopKind::Link(port) => {
            let (bc, to_class) = match (t.kind, t.to.kind) {
                (LinkKind::Static, QueueKind::Central(c)) => (BufferClass::Static(c), c),
                (LinkKind::Dynamic, QueueKind::Central(c)) => (BufferClass::Dynamic, c),
                _ => unreachable!("link hops target central queues"),
            };
            opts.push(MoveOpt {
                buf: layout.buffer(node, port, bc),
                to_class,
                next: t.msg,
                escape: false,
            });
        }
        HopKind::Internal => match t.to.kind {
            QueueKind::Central(c) => {
                debug_assert_eq!(t.to.node, node, "internal stutter stays at the node");
                opts.push(MoveOpt {
                    buf: NONE,
                    to_class: c,
                    next: t.msg,
                    escape: false,
                });
            }
            _ => unreachable!("queued packets are never at their destination"),
        },
    });
}

/// The central class targeted by the injection queue's single
/// (internal, static) transition for `msg` at `node` — pure in
/// `(rf, node, msg)`, so the routing-state table precomputes it.
pub(crate) fn entry_class_of<R: RoutingFunction>(rf: &R, node: usize, msg: &R::Msg) -> u8 {
    let mut entry: Option<u8> = None;
    rf.for_each_transition(QueueId::inject(node), msg, &mut |t| {
        debug_assert_eq!(t.hop, HopKind::Internal);
        if let QueueKind::Central(c) = t.to.kind {
            entry = Some(c);
        }
    });
    entry.expect("injection transition exists")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotating_start_covers_every_position_at_each_node() {
        // Over n_out consecutive cycles each node leads with each buffer
        // exactly once (the rotation is a full cycle, just phase-shifted).
        for node in [0usize, 1, 7, 1000] {
            let mut seen = [false; 5];
            for cycle in 100..105u64 {
                seen[rotating_start(cycle, node, 5)] = true;
            }
            assert!(seen.iter().all(|&s| s), "node {node} missed a position");
        }
    }

    #[test]
    fn rotating_start_is_not_lockstep_across_nodes() {
        // On any single cycle, different nodes lead with different
        // buffers; the pre-fix implementation had every node start at
        // `cycle % n_out` simultaneously.
        let starts: Vec<usize> = (0..16).map(|node| rotating_start(42, node, 4)).collect();
        let distinct = starts
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert!(
            distinct > 1,
            "all 16 nodes rotated in lockstep: starts {starts:?}"
        );
    }

    /// The want-mask fill and the occupied-slot read must pick exactly
    /// what the plain scans pick: the same run with the fast paths
    /// switched off in its layout journals identically, under every
    /// fill order, with and without stutters.
    #[test]
    fn fast_paths_match_the_fallback_scans() {
        use fadr_core::{HypercubeFullyAdaptive, ShuffleExchangeRouting};
        use fadr_metrics::JournalSink;
        use fadr_workloads::Pattern;

        fn run<R: RoutingFunction + Clone>(
            rf: &R,
            fill_order: FillOrder,
            fast: bool,
        ) -> (DynamicResult, u64, u64, Vec<String>) {
            let mut layout = Layout::new(rf);
            assert!(layout.fast_fill && layout.fast_read);
            layout.fast_fill = fast;
            layout.fast_read = fast;
            let cfg = SimConfig {
                fill_order,
                ..SimConfig::default()
            };
            let journal = JournalSink::new(1 << 16);
            let mut sim = Simulator::with_shared_layout(rf.clone(), cfg, journal, Arc::new(layout));
            let n = rf.topology().num_nodes();
            let res = sim.run_dynamic(0.8, |s, rng| Pattern::Random.draw(s, n, rng), 80);
            let j = sim.recorder();
            (res, j.count(), j.hash(), j.lines())
        }

        for order in [
            FillOrder::LowToHigh,
            FillOrder::HighToLow,
            FillOrder::Rotating,
        ] {
            let hc = HypercubeFullyAdaptive::new(4);
            assert_eq!(run(&hc, order, true), run(&hc, order, false), "{order:?}");
            let se = ShuffleExchangeRouting::new(4);
            assert_eq!(run(&se, order, true), run(&se, order, false), "{order:?}");
        }
    }
}
