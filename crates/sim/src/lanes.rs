//! `LaneSim`: a batched replication engine that runs R independent RNG
//! **lanes** of the same experiment over one shared topology.
//!
//! A λ-sweep point or a table row is only statistically meaningful when
//! replicated, and the naive way to replicate — R fresh [`Simulator`]s —
//! pays R times for everything that is actually *identical* across
//! replications. For a fixed routing function and layout, a packet's
//! whole routing future is a pure function of its `(node, class, msg)`
//! state (see [`crate::engine::push_move_options`]), and the set of such
//! states reachable from any injection is finite and small. `LaneSim`
//! therefore **precomputes the entire reachable state graph once** at
//! construction: every state's move options, each option's successor
//! *state index* (or a terminal marker when the hop delivers), and the
//! state's fill summary. The per-cycle engine then never hashes a key,
//! never clones a routing message, and never calls the routing function
//! at all — a packet is a dense `u32` state index, a hop is a table
//! lookup, and all R lanes share the one immutable table.
//!
//! # Layout and execution model
//!
//! Mutable state is **lane-major**: each lane owns a full [`LaneState`]
//! (packet store, queue counters, buffer occupancy, per-lane
//! latency/throughput sinks) while the routing function, the [`Layout`],
//! and the state table are shared and immutable. Per-packet state that
//! the fill/link/read phases touch every cycle is packed into one
//! 32-byte row ([`Hot`]) so a queue scan costs one cache line per
//! packet. Lanes run to completion one after another — on the
//! single-core target this keeps one lane's working set hot instead of
//! interleaving R of them — but nothing in the state layout prevents a
//! future interleaved or parallel schedule.
//!
//! # Bit-identity contract
//!
//! Lane `k` of a batched run is **bit-identical** to a standalone
//! sequential [`Simulator`] run configured with seed
//! [`lane_seed`]`(master, k)`: same delivered-packet journal, same
//! histograms, same occupancy probe. The lane step core re-implements
//! the engine's fill/link/read cycle with exactness-preserving
//! optimizations — the precomputed transition table above, and bitmask
//! iteration of fill candidates and occupied read slots, which visits
//! exactly the positions the sequential scan would visit, in the same
//! order, skipping only the no-op ones. The differential suite in
//! `tests/lane_equivalence.rs` and the fuzzer's lane axis enforce the
//! contract event-for-event.
//!
//! Lanes deliberately support no fault plans and no checkpoint/resume:
//! replication batches are for statistics, and both features interact
//! with global mutable state (escape routing, snapshot cursors) that
//! has no per-lane meaning. Use a plain [`Simulator`] for those.
//!
//! [`Simulator`]: crate::Simulator

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

use rand::rngs::StdRng;

use fadr_metrics::{Control, LatencyStats, NoRecorder, Recorder, TimeSeries};
use fadr_qdg::{BufferClass, RoutingFunction};
use fadr_topology::NodeId;

use crate::engine::{
    draw, entry_class_of, node_rng, push_move_options, rotating_start, DynamicResult,
    OccupancyProbe, StaticResult, StopReason,
};
use crate::layout::{Layout, NONE};
use crate::store::{BitSet, MoveOpt};
use crate::{FillOrder, SimConfig};

/// Derive lane `k`'s RNG seed from a master seed.
///
/// The lane index is golden-ratio-spread and then passed through a full
/// SplitMix64 finalizer. The extra scramble matters: the engine's
/// per-node streams are seeded as `seed ^ golden(v)`, so a lane seed of
/// the bare form `master ^ golden(k)` could collide lane `k`'s node `v`
/// stream with lane `k'`'s node `v'` stream whenever
/// `golden(k) ^ golden(v) == golden(k') ^ golden(v')`. The finalizer
/// breaks that linear structure; the stream-independence tests check
/// the first 1024 draws of every pair.
pub fn lane_seed(master: u64, lane: usize) -> u64 {
    let mut z = master ^ (lane as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-lane seeds [`LaneSim::new`] derives from a master seed:
/// `lane_seed(master, k)` for `k` in `0..lanes`.
pub fn lane_seeds(master: u64, lanes: usize) -> Vec<u64> {
    (0..lanes).map(|k| lane_seed(master, k)).collect()
}

/// FxHash-style multiply-rotate hasher for the construction-time state
/// interner. The keys are tiny (`(node, class, msg)` tuples of
/// integers), so the default SipHash would dominate the build; this is
/// the classic compiler-style replacement — not DoS-resistant, which is
/// fine for keys the simulator itself generates.
#[derive(Clone, Copy, Default)]
struct FxBuild;

impl BuildHasher for FxBuild {
    type Hasher = FxHasher;

    fn build_hasher(&self) -> FxHasher {
        FxHasher { hash: 0 }
    }
}

struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Successor marker for "this hop delivers at the target node" (also
/// the pre-enqueue placeholder in a fresh packet's hot row).
const TERMINAL: u32 = u32::MAX;

/// One move option of a routing state: the output buffer it stages onto
/// (or [`NONE`] for an internal stutter), the successor state index
/// after the hop (or [`TERMINAL`]), the central-queue class on arrival —
/// and the successor state's row, denormalized inline so staging a
/// packet rewrites its hot row from this one record and the arrival
/// enqueue touches no table at all.
#[derive(Clone, Copy)]
#[repr(C)]
struct PackedOpt {
    /// Successor state's fill-position want mask (zero for [`TERMINAL`]).
    succ_wants: u64,
    next: u32,
    buf: u32,
    succ_opt_start: u32,
    succ_opt_len: u8,
    succ_stutters: u8,
    to_class: u8,
    _pad: u8,
}

/// Per-state row of the shared table: the option segment reference, the
/// state's central-queue class, and its memoized fill summary — the
/// mask of fill positions its options target at the owning node (valid
/// whenever the engine's `fast_fill` precondition holds) and the number
/// of internal (stutter) options.
#[derive(Clone, Copy)]
#[repr(C)]
struct StateRow {
    wants: u64,
    opt_start: u32,
    opt_len: u8,
    class: u8,
    stutters: u8,
    _pad: u8,
}

/// The shared immutable routing table: every `(node, class, msg)` state
/// reachable from any injection, enumerated by breadth-first closure at
/// construction. Rows and option segments are struct-of-arrays indexed
/// by dense state id; `inj[src * n + dst]` is the entry state of a
/// fresh `src → dst` packet. Everything here is a pure function of the
/// routing function and layout (fault-free engine), so all lanes — and
/// all runs — share one table with no synchronization or growth.
struct StateTable {
    rows: Vec<StateRow>,
    opts: Vec<PackedOpt>,
    inj: Vec<u32>,
    /// True when every state's link options sit in ascending
    /// fill-position order with one option per position (always, in
    /// practice): the option for want-bit `pos` is then
    /// `opts[opt_start + popcount(wants below pos)]` — one indexed load
    /// instead of a scan. Falls back to the scan otherwise.
    rank_ok: bool,
}

/// Construction-time interner: dense ids in first-sight order, with the
/// key list doubling as the BFS work queue (rows are expanded in id
/// order, and ids are only ever appended).
fn intern_state<M: Clone + Eq + Hash>(
    idx: &mut HashMap<(u32, u8, M), u32, FxBuild>,
    keys: &mut Vec<(u32, u8, M)>,
    node: u32,
    class: u8,
    msg: M,
) -> u32 {
    let fresh = keys.len() as u32;
    match idx.entry((node, class, msg)) {
        Entry::Occupied(e) => *e.get(),
        Entry::Vacant(e) => {
            keys.push(e.key().clone());
            e.insert(fresh);
            fresh
        }
    }
}

impl StateTable {
    fn build<R: RoutingFunction>(rf: &R, layout: &Layout, buf_chan: &[u32]) -> Self {
        let n = layout.num_nodes;
        let mut idx: HashMap<(u32, u8, R::Msg), u32, FxBuild> = HashMap::with_hasher(FxBuild);
        let mut keys: Vec<(u32, u8, R::Msg)> = Vec::new();
        let mut inj = vec![TERMINAL; n * n];
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                let msg = rf.initial_msg(src, dst);
                let class = entry_class_of(rf, src, &msg);
                inj[src * n + dst] = intern_state(&mut idx, &mut keys, src as u32, class, msg);
            }
        }
        let mut rows: Vec<StateRow> = Vec::new();
        let mut opts: Vec<PackedOpt> = Vec::new();
        let mut scratch: Vec<MoveOpt<R::Msg>> = Vec::new();
        let mut rank_ok = true;
        // `keys` grows while we walk it: each expansion may intern new
        // successor states, which are expanded in turn (BFS order).
        let mut i = 0;
        while i < keys.len() {
            let (node, class, msg) = keys[i].clone();
            scratch.clear();
            push_move_options(rf, layout, node as usize, class, &msg, &mut scratch);
            assert!(
                !scratch.is_empty(),
                "queued packet with no moves (dead end)"
            );
            // Stable-sort link options into ascending fill-position
            // order, internal options last. This changes no observable
            // behavior — staging matches options by buffer, wanting
            // lists are per-position, and internals keep their relative
            // order — but makes the want mask's bit ranks line up with
            // the option segment for the indexed fast path.
            scratch.sort_by_key(|o| {
                if o.buf == NONE {
                    u32::MAX
                } else {
                    layout.buf_out_pos[o.buf as usize]
                }
            });
            rank_ok &= scratch
                .iter()
                .filter(|o| o.buf != NONE)
                .map(|o| layout.buf_out_pos[o.buf as usize])
                .try_fold(None::<u32>, |prev, pos| {
                    (pos < 64 && prev.is_none_or(|q| pos > q)).then_some(Some(pos))
                })
                .is_some();
            let opt_start = u32::try_from(opts.len()).expect("option table fits u32");
            let opt_len = u8::try_from(scratch.len()).expect("per-state fan-out fits u8");
            let mut wants = 0u64;
            let mut stutters = 0u8;
            for opt in scratch.drain(..) {
                debug_assert!(!opt.escape, "escape options only exist under faults");
                let next = if opt.buf == NONE {
                    // Internal stutter: stays at the node, may change
                    // class. The sequential engine recomputes options
                    // without a deliverability check here, so neither
                    // do we.
                    stutters += 1;
                    intern_state(&mut idx, &mut keys, node, opt.to_class, opt.next)
                } else {
                    let pos = layout.buf_out_pos[opt.buf as usize];
                    // Positions ≥ 64 only occur when the engine falls
                    // back to the slow fill scan, which never reads
                    // `wants`.
                    if pos < 64 {
                        wants |= 1u64 << pos;
                    }
                    let to = layout.chan_to[buf_chan[opt.buf as usize] as usize];
                    if rf.deliverable(to as usize, &opt.next) {
                        TERMINAL
                    } else {
                        intern_state(&mut idx, &mut keys, to, opt.to_class, opt.next)
                    }
                };
                opts.push(PackedOpt {
                    succ_wants: 0,
                    next,
                    buf: opt.buf,
                    succ_opt_start: 0,
                    succ_opt_len: 0,
                    succ_stutters: 0,
                    to_class: opt.to_class,
                    _pad: 0,
                });
            }
            rows.push(StateRow {
                wants,
                opt_start,
                opt_len,
                class,
                stutters,
                _pad: 0,
            });
            i += 1;
        }
        // Denormalization pass: successor rows exist only once the BFS
        // closes, so the inline copies are patched in afterwards.
        for o in &mut opts {
            if o.next != TERMINAL {
                let r = rows[o.next as usize];
                o.succ_wants = r.wants;
                o.succ_opt_start = r.opt_start;
                o.succ_opt_len = r.opt_len;
                o.succ_stutters = r.stutters;
            }
        }
        Self {
            rows,
            opts,
            inj,
            rank_ok,
        }
    }
}

/// Per-packet state touched by the fill/link/read phases every cycle,
/// packed into one 32-byte row. While the packet is queued, `state` is
/// its current routing state and `opt_*`/`wants`/`stutters` mirror that
/// state's row; once staged, `state` and `next_class` describe the
/// post-hop residence ([`TERMINAL`] = deliver on arrival) while the
/// option fields keep describing the old residence until re-enqueue.
#[derive(Clone, Copy)]
#[repr(C)]
struct Hot {
    wants: u64,
    /// Cycle of the packet's last move (enforces one move per cycle).
    moved_at: u64,
    opt_start: u32,
    state: u32,
    opt_len: u8,
    /// Central-queue class of the current residence (valid while
    /// queued; stale after staging, exactly like the sequential store).
    class: u8,
    /// Central-queue class on arrival (valid while staged).
    next_class: u8,
    /// Set while the packet sits in an output buffer, pending removal
    /// from its queue after the fill pass.
    staged: bool,
    /// Internal-option count of the current state (stutter multiplicity).
    stutters: u8,
    _pad: u8,
    /// Link hops taken so far (for the minimality check).
    hops: u16,
}

/// Struct-of-arrays slab of one lane's in-flight packets: the packed
/// hot row, plus cold columns touched only at injection and delivery.
/// Slots are recycled LIFO; uids are never recycled.
struct LaneStore {
    hot: Vec<Hot>,
    uid: Vec<u64>,
    src: Vec<u32>,
    dst: Vec<u32>,
    inject_cycle: Vec<u64>,
    free: Vec<u32>,
}

impl LaneStore {
    fn new() -> Self {
        Self {
            hot: Vec::new(),
            uid: Vec::new(),
            src: Vec::new(),
            dst: Vec::new(),
            inject_cycle: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, src: u32, dst: u32, uid: u64, cycle: u64) -> u32 {
        let hot = Hot {
            wants: 0,
            moved_at: u64::MAX,
            opt_start: 0,
            state: TERMINAL,
            opt_len: 0,
            class: 0,
            next_class: 0,
            staged: false,
            stutters: 0,
            _pad: 0,
            hops: 0,
        };
        if let Some(i) = self.free.pop() {
            let p = i as usize;
            self.hot[p] = hot;
            self.uid[p] = uid;
            self.src[p] = src;
            self.dst[p] = dst;
            self.inject_cycle[p] = cycle;
            i
        } else {
            self.hot.push(hot);
            self.uid.push(uid);
            self.src.push(src);
            self.dst.push(dst);
            self.inject_cycle.push(cycle);
            (self.hot.len() - 1) as u32
        }
    }

    fn release(&mut self, p: u32) {
        self.free.push(p);
    }

    fn clear(&mut self) {
        self.hot.clear();
        self.uid.clear();
        self.src.clear();
        self.dst.clear();
        self.inject_cycle.clear();
        self.free.clear();
    }
}

/// One lane's complete mutable state: a full replica of the sequential
/// engine's run state (lane-major — every column here is per-lane,
/// everything shared lives on [`LaneSim`]).
struct LaneState {
    queue_len: Vec<u32>,
    node_fifo: Vec<Vec<u32>>,
    /// Per-node count of queued packets whose current state has at
    /// least one internal (stutter) option — lets the fill pass skip
    /// stutter collection entirely at nodes with none, and stop its
    /// queue scan as soon as every available position is filled.
    stutter_cnt: Vec<u32>,
    outbuf: Vec<u32>,
    inbuf: Vec<u32>,
    in_occupied: Vec<u32>,
    /// Per-node bitmask of occupied input-buffer slots (bit `i` ⇔
    /// `inbuf[node_in_bufs[node][i]] != NONE`), maintained only when
    /// every node has at most 63 input buffers; the read pass then
    /// visits exactly the occupied slots in rotating order.
    arr_mask: Vec<u64>,
    chan_rr: Vec<u16>,
    chan_pending: Vec<u16>,
    inj_buf: Vec<u32>,
    store: LaneStore,
    out_occ: BitSet,
    in_occ: BitSet,
    chan_live: BitSet,
    cycle: u64,
    next_uid: u64,
    stats: LatencyStats,
    delivered: u64,
    occupancy: OccupancyProbe,
    minimality_violations: u64,
    throughput: Option<TimeSeries>,
}

impl LaneState {
    fn new(layout: &Layout, num_classes: usize) -> Self {
        let n = layout.num_nodes;
        Self {
            queue_len: vec![0; n * num_classes],
            node_fifo: vec![Vec::new(); n],
            stutter_cnt: vec![0; n],
            outbuf: vec![NONE; layout.num_buffers()],
            inbuf: vec![NONE; layout.num_buffers()],
            in_occupied: vec![0; n],
            arr_mask: vec![0; n],
            chan_rr: vec![0; layout.num_channels()],
            chan_pending: vec![0; layout.num_channels()],
            inj_buf: vec![NONE; n],
            store: LaneStore::new(),
            out_occ: BitSet::new(layout.num_buffers()),
            in_occ: BitSet::new(layout.num_buffers()),
            chan_live: BitSet::new(layout.num_channels()),
            cycle: 0,
            next_uid: 0,
            stats: LatencyStats::new(),
            delivered: 0,
            occupancy: OccupancyProbe::default(),
            minimality_violations: 0,
            throughput: None,
        }
    }

    /// Empty stand-in swapped into `LaneSim::lanes` while a lane's state
    /// is checked out into a run (a lane is only ever run by value to
    /// keep its borrows disjoint from the shared table's).
    fn placeholder() -> Self {
        Self {
            queue_len: Vec::new(),
            node_fifo: Vec::new(),
            stutter_cnt: Vec::new(),
            outbuf: Vec::new(),
            inbuf: Vec::new(),
            in_occupied: Vec::new(),
            arr_mask: Vec::new(),
            chan_rr: Vec::new(),
            chan_pending: Vec::new(),
            inj_buf: Vec::new(),
            store: LaneStore::new(),
            out_occ: BitSet::new(0),
            in_occ: BitSet::new(0),
            chan_live: BitSet::new(0),
            cycle: 0,
            next_uid: 0,
            stats: LatencyStats::new(),
            delivered: 0,
            occupancy: OccupancyProbe::default(),
            minimality_violations: 0,
            throughput: None,
        }
    }
}

/// Batched replication engine: R independent RNG lanes of the same
/// experiment over one shared precomputed routing table. See the module
/// docs for the layout, execution model, and bit-identity contract.
pub struct LaneSim<R: RoutingFunction> {
    rf: R,
    cfg: SimConfig,
    layout: Arc<Layout>,
    num_classes: usize,
    /// Buffer id → channel id (as in the sequential engine).
    buf_chan: Vec<u32>,
    /// Buffer id → its slot index in the *target* node's input-buffer
    /// list (feeds `arr_mask` maintenance in the link pass).
    buf_in_slot: Vec<u32>,
    /// Node → its first output buffer id (with `fast_fill`, fill
    /// position `pos` maps to buffer `first_out[node] + pos`).
    first_out: Vec<u32>,
    /// `node_in_bufs` flattened (`in_flat[in_start[node]..in_start[node + 1]]`),
    /// sparing the read pass a pointer chase per slot.
    in_flat: Vec<u32>,
    in_start: Vec<u32>,
    /// Every node's output buffers form a contiguous ascending id range
    /// of ≤ 64 buffers, so the fill pass can mask-iterate candidates.
    fast_fill: bool,
    /// Every node has ≤ 63 input buffers, so the read pass can
    /// mask-iterate occupied slots (bit `n_in` is the injection buffer).
    fast_read: bool,
    table: StateTable,
    seeds: Vec<u64>,
    lanes: Vec<LaneState>,
    // Scratch shared across lanes (lanes run one at a time). `wanting`
    // is only used by the slow fill path; the fast path selects stage
    // candidates by mask scan and needs no lists. `staging` holds one
    // node's (packet, position) fill decisions between the scan and the
    // mutation pass.
    wanting: Vec<Vec<u32>>,
    stutters: Vec<u32>,
    staging: Vec<(u32, u32)>,
}

impl<R: RoutingFunction> LaneSim<R> {
    /// Build a lane engine with `lanes` replication lanes whose seeds
    /// derive from `cfg.seed` via [`lane_seed`].
    pub fn new(rf: R, cfg: SimConfig, lanes: usize) -> Self {
        let seeds = lane_seeds(cfg.seed, lanes);
        Self::with_lane_seeds(rf, cfg, seeds)
    }

    /// Build a lane engine with explicit per-lane seeds (one lane per
    /// seed) — the hook that lets existing harness seed formulas (e.g.
    /// the table runner's per-rep seeds) map onto lanes bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty.
    pub fn with_lane_seeds(rf: R, cfg: SimConfig, seeds: Vec<u64>) -> Self {
        assert!(!seeds.is_empty(), "at least one lane");
        let layout = Arc::new(Layout::new(&rf));
        let num_classes = rf.num_classes();
        let max_out = layout.node_out_bufs.iter().map(Vec::len).max().unwrap_or(0);
        let mut buf_chan = vec![0u32; layout.num_buffers()];
        for chan in 0..layout.num_channels() {
            let start = layout.chan_buf_start[chan] as usize;
            let len = layout.chan_buf_len[chan] as usize;
            buf_chan[start..start + len].fill(chan as u32);
        }
        let mut buf_in_slot = vec![0u32; layout.num_buffers()];
        for bufs in &layout.node_in_bufs {
            for (i, &b) in bufs.iter().enumerate() {
                buf_in_slot[b as usize] = i as u32;
            }
        }
        let fast_fill = layout
            .node_out_bufs
            .iter()
            .all(|bufs| bufs.len() <= 64 && bufs.windows(2).all(|w| w[1] == w[0] + 1));
        let fast_read = layout.node_in_bufs.iter().all(|bufs| bufs.len() < 64);
        let first_out = layout
            .node_out_bufs
            .iter()
            .map(|bufs| bufs.first().copied().unwrap_or(0))
            .collect();
        let mut in_flat = Vec::new();
        let mut in_start = Vec::with_capacity(layout.num_nodes + 1);
        for bufs in &layout.node_in_bufs {
            in_start.push(in_flat.len() as u32);
            in_flat.extend_from_slice(bufs);
        }
        in_start.push(in_flat.len() as u32);
        let table = StateTable::build(&rf, &layout, &buf_chan);
        let lanes = (0..seeds.len())
            .map(|_| LaneState::new(&layout, num_classes))
            .collect();
        Self {
            rf,
            cfg,
            num_classes,
            buf_chan,
            buf_in_slot,
            first_out,
            in_flat,
            in_start,
            fast_fill,
            fast_read,
            table,
            seeds,
            lanes,
            wanting: vec![Vec::new(); max_out],
            stutters: Vec::new(),
            staging: Vec::new(),
            layout,
        }
    }

    /// Number of replication lanes.
    pub fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Number of nodes in the shared topology.
    pub fn num_nodes(&self) -> usize {
        self.layout.num_nodes
    }

    /// The routing function the lanes share.
    pub fn routing(&self) -> &R {
        &self.rf
    }

    /// The per-lane RNG seeds (lane `k`'s standalone-equivalent
    /// [`crate::SimConfig::seed`]).
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// Distinct reachable `(node, class, msg)` routing states in the
    /// shared precomputed table (fixed at construction; a diagnostic
    /// for table size and precompute coverage).
    pub fn memo_entries(&self) -> usize {
        self.table.rows.len()
    }

    /// Lane `k`'s occupancy probe from its last run (empty unless
    /// [`crate::SimConfig::track_occupancy`] is set).
    pub fn lane_occupancy(&self, k: usize) -> &OccupancyProbe {
        &self.lanes[k].occupancy
    }

    /// Lane `k`'s minimality violations from its last run (only counted
    /// when [`crate::SimConfig::check_minimality`] is set).
    pub fn lane_minimality_violations(&self, k: usize) -> u64 {
        self.lanes[k].minimality_violations
    }

    /// Lane `k`'s delivered-packets time series from its last run, if
    /// [`crate::SimConfig::throughput_window`] was non-zero.
    pub fn lane_throughput(&self, k: usize) -> Option<&TimeSeries> {
        self.lanes[k].throughput.as_ref()
    }

    /// Run every lane's dynamic-injection experiment (the lane-batched
    /// analogue of [`Simulator::run_dynamic`]): lane `k` runs with the
    /// per-node RNG streams a sequential simulator seeded
    /// `self.seeds()[k]` would use, and the results are returned in lane
    /// order. `dest` must be memoryless (a pure function of its
    /// arguments and the RNG), as each lane evaluates it independently.
    ///
    /// [`Simulator::run_dynamic`]: crate::Simulator::run_dynamic
    pub fn run_dynamic(
        &mut self,
        lambda: f64,
        dest: impl FnMut(NodeId, &mut StdRng) -> NodeId,
        cycles: u64,
    ) -> Vec<DynamicResult> {
        let mut recs = vec![NoRecorder; self.lanes.len()];
        self.run_dynamic_recorded(lambda, dest, cycles, &mut recs)
    }

    /// [`LaneSim::run_dynamic`] with one attached [`Recorder`] per lane
    /// (`recs[k]` observes lane `k`, and only lane `k`).
    ///
    /// # Panics
    ///
    /// Panics if λ is outside `[0, 1]` or `recs.len() != num_lanes()`.
    pub fn run_dynamic_recorded<Rec: Recorder>(
        &mut self,
        lambda: f64,
        mut dest: impl FnMut(NodeId, &mut StdRng) -> NodeId,
        cycles: u64,
        recs: &mut [Rec],
    ) -> Vec<DynamicResult> {
        assert!((0.0..=1.0).contains(&lambda));
        assert_eq!(recs.len(), self.lanes.len(), "one recorder per lane");
        let mut out = Vec::with_capacity(self.lanes.len());
        for (k, rec) in recs.iter_mut().enumerate() {
            out.push(self.run_lane_dynamic(k, lambda, &mut dest, cycles, rec));
        }
        out
    }

    /// [`LaneSim::run_dynamic_recorded`] with a lane-aware destination
    /// function: `dest(k, src, rng)` draws lane `k`'s destination for an
    /// injection at `src`. This is the hook for workloads compiled per
    /// replication seed (e.g. the table runner's seeded leveled
    /// permutations), where each lane must draw from its own compiled
    /// pattern to stay bit-identical to the standalone sequential run.
    ///
    /// # Panics
    ///
    /// Panics if λ is outside `[0, 1]` or `recs.len() != num_lanes()`.
    pub fn run_dynamic_indexed<Rec: Recorder>(
        &mut self,
        lambda: f64,
        mut dest: impl FnMut(usize, NodeId, &mut StdRng) -> NodeId,
        cycles: u64,
        recs: &mut [Rec],
    ) -> Vec<DynamicResult> {
        assert!((0.0..=1.0).contains(&lambda));
        assert_eq!(recs.len(), self.lanes.len(), "one recorder per lane");
        let mut out = Vec::with_capacity(self.lanes.len());
        for (k, rec) in recs.iter_mut().enumerate() {
            let mut lane_dest = |src: NodeId, rng: &mut StdRng| dest(k, src, rng);
            out.push(self.run_lane_dynamic(k, lambda, &mut lane_dest, cycles, rec));
        }
        out
    }

    /// Run every lane's static-injection experiment (the lane-batched
    /// analogue of [`Simulator::run_static`]): lane `k` drains
    /// `backlogs[k]` (one per-node backlog per lane; static runs consume
    /// no engine RNG, so lanes differ only through their backlogs).
    ///
    /// # Panics
    ///
    /// Panics if `backlogs.len() != num_lanes()`.
    ///
    /// [`Simulator::run_static`]: crate::Simulator::run_static
    pub fn run_static(&mut self, backlogs: &[Vec<Vec<NodeId>>]) -> Vec<StaticResult> {
        let mut recs = vec![NoRecorder; self.lanes.len()];
        self.run_static_recorded(backlogs, &mut recs)
    }

    /// [`LaneSim::run_static`] with one attached [`Recorder`] per lane.
    ///
    /// # Panics
    ///
    /// Panics if `backlogs.len()` or `recs.len()` is not `num_lanes()`.
    pub fn run_static_recorded<Rec: Recorder>(
        &mut self,
        backlogs: &[Vec<Vec<NodeId>>],
        recs: &mut [Rec],
    ) -> Vec<StaticResult> {
        assert_eq!(backlogs.len(), self.lanes.len(), "one backlog per lane");
        assert_eq!(recs.len(), self.lanes.len(), "one recorder per lane");
        let mut out = Vec::with_capacity(self.lanes.len());
        for (k, (backlog, rec)) in backlogs.iter().zip(recs.iter_mut()).enumerate() {
            out.push(self.run_lane_static(k, backlog, rec));
        }
        out
    }

    fn take_lane(&mut self, k: usize) -> LaneState {
        std::mem::replace(&mut self.lanes[k], LaneState::placeholder())
    }

    fn reset_lane(&self, ls: &mut LaneState) {
        ls.queue_len.fill(0);
        for f in &mut ls.node_fifo {
            f.clear();
        }
        ls.stutter_cnt.fill(0);
        ls.outbuf.fill(NONE);
        ls.inbuf.fill(NONE);
        ls.in_occupied.fill(0);
        ls.arr_mask.fill(0);
        ls.chan_rr.fill(0);
        ls.chan_pending.fill(0);
        ls.inj_buf.fill(NONE);
        ls.store.clear();
        ls.out_occ.clear_all();
        ls.in_occ.clear_all();
        ls.chan_live.clear_all();
        ls.cycle = 0;
        ls.next_uid = 0;
        ls.stats = LatencyStats::new();
        ls.delivered = 0;
        ls.occupancy = OccupancyProbe::default();
        ls.minimality_violations = 0;
        ls.throughput =
            (self.cfg.throughput_window > 0).then(|| TimeSeries::new(self.cfg.throughput_window));
        if self.cfg.track_occupancy {
            ls.occupancy.max = vec![0; ls.queue_len.len()];
            ls.occupancy.sum = vec![0; ls.queue_len.len()];
        }
    }

    fn run_lane_dynamic<Rec: Recorder>(
        &mut self,
        k: usize,
        lambda: f64,
        dest: &mut impl FnMut(NodeId, &mut StdRng) -> NodeId,
        cycles: u64,
        rec: &mut Rec,
    ) -> DynamicResult {
        let mut ls = self.take_lane(k);
        self.reset_lane(&mut ls);
        let seed = self.seeds[k];
        let mut rngs: Vec<StdRng> = (0..self.num_nodes()).map(|v| node_rng(seed, v)).collect();
        let mut attempts = 0u64;
        let mut injected = 0u64;
        let mut stop = StopReason::HorizonReached;
        while ls.cycle < cycles {
            for (v, rng) in rngs.iter_mut().enumerate() {
                // Same draw discipline as the sequential loop:
                // destinations drawn unconditionally, blocked attempts
                // discarded (see `engine::draw`).
                let Some(dst) = draw(rng, lambda, v, dest) else {
                    continue;
                };
                attempts += 1;
                if ls.inj_buf[v] == NONE {
                    ls.inj_buf[v] = self.alloc_packet(&mut ls, v, dst, rec);
                    injected += 1;
                }
            }
            if self.step(&mut ls, rec) == Control::Stop {
                stop = StopReason::Aborted;
                break;
            }
        }
        let res = DynamicResult {
            stats: ls.stats.clone(),
            attempts,
            injected,
            delivered: ls.delivered,
            cycles: ls.cycle,
            dropped: 0,
            stop,
        };
        self.lanes[k] = ls;
        res
    }

    fn run_lane_static<Rec: Recorder>(
        &mut self,
        k: usize,
        backlog: &[Vec<NodeId>],
        rec: &mut Rec,
    ) -> StaticResult {
        assert_eq!(backlog.len(), self.num_nodes());
        let mut ls = self.take_lane(k);
        self.reset_lane(&mut ls);
        let total: u64 = backlog.iter().map(|b| b.len() as u64).sum();
        let mut next_idx = vec![0usize; backlog.len()];
        let mut aborted = false;
        while ls.delivered < total && ls.cycle < self.cfg.max_cycles {
            for v in 0..backlog.len() {
                if next_idx[v] >= backlog[v].len() {
                    continue;
                }
                if ls.inj_buf[v] == NONE {
                    let dst = backlog[v][next_idx[v]];
                    next_idx[v] += 1;
                    ls.inj_buf[v] = self.alloc_packet(&mut ls, v, dst, rec);
                }
            }
            if self.step(&mut ls, rec) == Control::Stop {
                aborted = true;
                break;
            }
        }
        let drained = ls.delivered == total;
        let stop = if drained {
            StopReason::Drained
        } else if aborted {
            StopReason::Aborted
        } else {
            StopReason::MaxCycles
        };
        let res = StaticResult {
            stats: ls.stats.clone(),
            cycles: ls.cycle,
            delivered: ls.delivered,
            total,
            drained,
            dropped: 0,
            lost: 0,
            stop,
        };
        self.lanes[k] = ls;
        res
    }

    fn alloc_packet<Rec: Recorder>(
        &self,
        ls: &mut LaneState,
        src: NodeId,
        dst: NodeId,
        rec: &mut Rec,
    ) -> u32 {
        let uid = ls.next_uid;
        ls.next_uid += 1;
        if Rec::ENABLED {
            rec.on_inject(ls.cycle, uid, src as u32, dst as u32);
        }
        ls.store.insert(src as u32, dst as u32, uid, ls.cycle)
    }

    /// One routing cycle of one lane — the same fill/link/read sequence
    /// as the sequential engine's `step`, minus the fault hook.
    fn step<Rec: Recorder>(&mut self, ls: &mut LaneState, rec: &mut Rec) -> Control {
        for node in 0..self.layout.num_nodes {
            self.fill_node(ls, node, rec);
        }
        self.link_phase(ls, rec);
        for node in 0..self.layout.num_nodes {
            self.read_node(ls, node, rec);
        }
        if self.cfg.track_occupancy {
            self.sample_occupancy(ls);
        }
        if Rec::ENABLED && rec.want_waitgraph() {
            let edges = self.wait_edges(ls);
            rec.on_wait_probe(ls.cycle, &edges);
        }
        let ctl = if Rec::ENABLED {
            rec.on_cycle_end(ls.cycle)
        } else {
            Control::Continue
        };
        if Rec::ENABLED && ctl == Control::Stop {
            let edges = self.wait_edges(ls);
            rec.on_stall_waits(&edges);
        }
        ls.cycle += 1;
        ctl
    }

    fn fill_node<Rec: Recorder>(&mut self, ls: &mut LaneState, node: usize, rec: &mut Rec) {
        if ls.node_fifo[node].is_empty() {
            return;
        }
        let n_out = self.layout.node_out_bufs[node].len();
        self.stutters.clear();
        let mut staged_any = false;
        let mut stutter_any = false;
        if self.fast_fill {
            stutter_any = ls.stutter_cnt[node] != 0;
            let first_buf = self.first_out[node] as usize;
            let ones = if n_out == 64 { !0 } else { (1u64 << n_out) - 1 };
            let mut avail = !ls.out_occ.extract(first_buf, n_out) & ones;
            if avail != 0 {
                // Single FIFO pass: each packet takes the fill-order-first
                // available position it wants. This computes the same
                // matching as the sequential per-position scan (each
                // position in fill order taking its first FIFO wanter):
                // both are the greedy matching under consistent priority
                // orders — the first position with any wanter gets its
                // first wanter in either procedure, and induction on the
                // residual does the rest. The want sets are static during
                // the pass (stutters run after), so once every position is
                // taken the scan can stop.
                let start = match self.cfg.fill_order {
                    FillOrder::LowToHigh | FillOrder::HighToLow => 0,
                    FillOrder::Rotating => rotating_start(ls.cycle, node, n_out),
                };
                // Scan first, mutate after: the decisions depend only on
                // the (per-pass-constant) want masks and the shrinking
                // `avail`, so splitting lets the scan run over plain
                // slices and batches the staging writes.
                self.staging.clear();
                for (&p, h) in ls.node_fifo[node]
                    .iter()
                    .map(|p| (p, &ls.store.hot[*p as usize]))
                {
                    let m = h.wants & avail;
                    if m == 0 {
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
                    if avail == 0 {
                        break;
                    }
                }
                let mut staging = std::mem::take(&mut self.staging);
                for &(p, pos) in &staging {
                    self.stage_packet(ls, node, p, pos as usize, first_buf + pos as usize);
                }
                staged_any = !staging.is_empty();
                staging.clear();
                self.staging = staging;
            } else if !stutter_any {
                return;
            }
        } else {
            // Slow path (> 64 output buffers or a non-contiguous id
            // range): the sequential engine's wanting-list scan,
            // verbatim, against the shared option table.
            for w in self.wanting.iter_mut().take(n_out) {
                w.clear();
            }
            for &p in &ls.node_fifo[node] {
                let h = &ls.store.hot[p as usize];
                stutter_any |= h.stutters != 0;
                let s = h.opt_start as usize;
                for o in &self.table.opts[s..s + h.opt_len as usize] {
                    if o.buf != NONE {
                        let pos = self.layout.buf_out_pos[o.buf as usize] as usize;
                        self.wanting[pos].push(p);
                    }
                }
            }
            let start = match self.cfg.fill_order {
                FillOrder::LowToHigh | FillOrder::HighToLow => 0,
                FillOrder::Rotating => rotating_start(ls.cycle, node, n_out),
            };
            for i in 0..n_out {
                let pos = match self.cfg.fill_order {
                    FillOrder::LowToHigh => i,
                    FillOrder::HighToLow => n_out - 1 - i,
                    FillOrder::Rotating => (start + i) % n_out,
                };
                let buf = self.layout.node_out_bufs[node][pos] as usize;
                if ls.outbuf[buf] != NONE {
                    continue;
                }
                let Some(&p) = self.wanting[pos]
                    .iter()
                    .find(|&&p| ls.store.hot[p as usize].moved_at != ls.cycle)
                else {
                    continue;
                };
                self.stage_packet(ls, node, p, pos, buf);
                staged_any = true;
            }
        }
        if staged_any {
            self.drain_staged(ls, node, rec);
        }
        if stutter_any {
            // Stutter candidates in the sequential scan's order: FIFO,
            // with one entry per internal option. Collected after
            // staging — a staged packet's option fields still describe
            // its pre-stage residence, and its extra entries would be
            // skipped by the once-per-cycle rule anyway.
            for &p in &ls.node_fifo[node] {
                for _ in 0..ls.store.hot[p as usize].stutters {
                    self.stutters.push(p);
                }
            }
            self.stutter_pass(ls, node, rec);
        }
    }

    /// Move packet `p` onto output buffer `buf` (at `node`): rewrite
    /// its hot row to the chosen option's successor state — inlined in
    /// the option record, so the later arrival enqueue is table-free —
    /// and mark the channel live. Only `class` keeps describing the old
    /// residence, for the drain pass's queue accounting.
    fn stage_packet(&self, ls: &mut LaneState, node: usize, p: u32, pos: usize, buf: usize) {
        let pi = p as usize;
        let h = &ls.store.hot[pi];
        let s = h.opt_start as usize;
        let o = if self.table.rank_ok {
            let rank = (h.wants & ((1u64 << pos) - 1)).count_ones() as usize;
            let o = self.table.opts[s + rank];
            debug_assert_eq!(o.buf as usize, buf, "rank-indexed option mismatch");
            o
        } else {
            *self.table.opts[s..s + h.opt_len as usize]
                .iter()
                .find(|o| o.buf as usize == buf)
                .expect("wanting packet has the option")
        };
        let h = &mut ls.store.hot[pi];
        if h.stutters != 0 {
            // Leaving its residence for good (staged packets always
            // drain this same cycle).
            ls.stutter_cnt[node] -= 1;
        }
        h.state = o.next;
        h.next_class = o.to_class;
        h.wants = o.succ_wants;
        h.opt_start = o.succ_opt_start;
        h.opt_len = o.succ_opt_len;
        h.stutters = o.succ_stutters;
        h.moved_at = ls.cycle;
        h.staged = true;
        ls.outbuf[buf] = p;
        ls.out_occ.set(buf);
        let chan = self.buf_chan[buf] as usize;
        ls.chan_pending[chan] += 1;
        ls.chan_live.set(chan);
    }

    /// Remove staged packets from the node's FIFO (order preserved),
    /// firing `on_queue_leave` in FIFO order as the sequential engine
    /// does.
    fn drain_staged<Rec: Recorder>(&self, ls: &mut LaneState, node: usize, rec: &mut Rec) {
        let store = &mut ls.store;
        let queue_len = &mut ls.queue_len;
        let num_classes = self.num_classes;
        let cycle = ls.cycle;
        ls.node_fifo[node].retain(|&p| {
            let h = &mut store.hot[p as usize];
            if h.staged {
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
            } else {
                true
            }
        });
    }

    /// Internal stutters, exactly as in the sequential engine (minus
    /// the freeze check): a blocked stutter stays put and retries next
    /// cycle; a successful one re-enqueues at the back of the FIFO.
    fn stutter_pass<Rec: Recorder>(&mut self, ls: &mut LaneState, node: usize, rec: &mut Rec) {
        for i in 0..self.stutters.len() {
            let p = self.stutters[i];
            let pi = p as usize;
            let h = ls.store.hot[pi];
            if h.moved_at == ls.cycle {
                continue;
            }
            let s = h.opt_start as usize;
            let o = self.table.opts[s..s + h.opt_len as usize]
                .iter()
                .find(|o| o.buf == NONE)
                .expect("stutter option");
            let (next, to_class) = (o.next, o.to_class);
            let from_class = h.class;
            if to_class != from_class {
                let qt = node * self.num_classes + usize::from(to_class);
                if ls.queue_len[qt] as usize >= self.cfg.queue_capacity {
                    continue;
                }
            }
            ls.store.hot[pi].moved_at = ls.cycle;
            let uid = ls.store.uid[pi];
            if Rec::ENABLED {
                rec.on_stutter(ls.cycle, uid, node as u32, from_class, to_class);
            }
            if to_class != from_class {
                let qf = node * self.num_classes + usize::from(from_class);
                let qt = node * self.num_classes + usize::from(to_class);
                ls.queue_len[qf] -= 1;
                ls.queue_len[qt] += 1;
                if Rec::ENABLED {
                    rec.on_queue_leave(ls.cycle, uid, node as u32, from_class, ls.queue_len[qf]);
                    rec.on_queue_enter(ls.cycle, uid, node as u32, to_class, ls.queue_len[qt]);
                }
            }
            let fifo = &mut ls.node_fifo[node];
            let pos = fifo
                .iter()
                .position(|&x| x == p)
                .expect("stuttering packet is queued at its node");
            fifo.remove(pos);
            fifo.push(p);
            // Land in the successor state (same node, new class).
            let row = self.table.rows[next as usize];
            if row.stutters == 0 {
                // The packet had an internal option (it's in the stutter
                // list); its successor state may not.
                ls.stutter_cnt[node] -= 1;
            }
            let h = &mut ls.store.hot[pi];
            h.state = next;
            h.class = to_class;
            h.opt_start = row.opt_start;
            h.opt_len = row.opt_len;
            h.wants = row.wants;
            h.stutters = row.stutters;
        }
    }

    /// Link cycle over one lane's live channels (identical to the
    /// sequential engine's; no fault guard).
    fn link_phase<Rec: Recorder>(&self, ls: &mut LaneState, rec: &mut Rec) {
        for w in 0..ls.chan_live.num_words() {
            let mut bits = ls.chan_live.word(w);
            while bits != 0 {
                let chan = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.link_chan(ls, chan, rec);
            }
        }
    }

    fn link_chan<Rec: Recorder>(&self, ls: &mut LaneState, chan: usize, rec: &mut Rec) {
        if ls.chan_pending[chan] == 0 {
            return;
        }
        let start = self.layout.chan_buf_start[chan] as usize;
        let len = self.layout.chan_buf_len[chan] as usize;
        let rr = ls.chan_rr[chan] as usize;
        let pos = if len <= 64 {
            let avail = ls.out_occ.extract(start, len) & !ls.in_occ.extract(start, len);
            if avail == 0 {
                return;
            }
            let hi = avail >> rr;
            if hi != 0 {
                rr + hi.trailing_zeros() as usize
            } else {
                avail.trailing_zeros() as usize
            }
        } else {
            let Some(pos) = (0..len)
                .map(|i| (rr + i) % len)
                .find(|&pos| ls.outbuf[start + pos] != NONE && ls.inbuf[start + pos] == NONE)
            else {
                return;
            };
            pos
        };
        let b = start + pos;
        let p = ls.outbuf[b];
        let pi = p as usize;
        ls.store.hot[pi].hops += 1;
        if Rec::ENABLED {
            rec.on_link(
                ls.cycle,
                ls.store.uid[pi],
                self.layout.chan_from[chan],
                self.layout.chan_to[chan],
                matches!(self.layout.buf_class[b], BufferClass::Dynamic),
                ls.store.hot[pi].class,
                ls.store.hot[pi].next_class,
            );
        }
        ls.outbuf[b] = NONE;
        ls.out_occ.clear(b);
        ls.chan_pending[chan] -= 1;
        if ls.chan_pending[chan] == 0 {
            ls.chan_live.clear(chan);
        }
        ls.chan_rr[chan] = ((pos + 1) % len) as u16;
        if !Rec::ENABLED && ls.store.hot[pi].state == TERMINAL {
            // Arriving at its destination: delivery never blocks, and
            // within a cycle the latency sinks are insertion-order
            // invariant, so an unrecorded run can deliver here and spare
            // the read pass the whole input-buffer round trip. Recorded
            // runs take the buffer path below so the event journal keeps
            // the sequential order.
            self.deliver(ls, p, rec);
            return;
        }
        ls.inbuf[b] = p;
        ls.in_occ.set(b);
        let to = self.layout.chan_to[chan] as usize;
        ls.in_occupied[to] += 1;
        if self.fast_read {
            ls.arr_mask[to] |= 1u64 << self.buf_in_slot[b];
        }
    }

    /// Read pass for one node of one lane. With `fast_read`, the
    /// occupied-slot bitmask is walked in the same rotating order the
    /// sequential slot scan uses — empty slots it skips are no-ops
    /// there.
    fn read_node<Rec: Recorder>(&mut self, ls: &mut LaneState, node: usize, rec: &mut Rec) {
        let n_in = (self.in_start[node + 1] - self.in_start[node]) as usize;
        if self.fast_read {
            let mut m = ls.arr_mask[node];
            if ls.inj_buf[node] != NONE {
                m |= 1u64 << n_in;
            }
            if m == 0 {
                return;
            }
            let slots = n_in + 1;
            let start = (ls.cycle as usize) % slots;
            let mut hi = m >> start;
            while hi != 0 {
                let slot = start + hi.trailing_zeros() as usize;
                hi &= hi - 1;
                self.read_slot(ls, node, slot, n_in, rec);
            }
            let mut lo = m & ((1u64 << start) - 1);
            while lo != 0 {
                let slot = lo.trailing_zeros() as usize;
                lo &= lo - 1;
                self.read_slot(ls, node, slot, n_in, rec);
            }
        } else {
            if ls.in_occupied[node] == 0 && ls.inj_buf[node] == NONE {
                return;
            }
            let slots = n_in + 1;
            let start = (ls.cycle as usize) % slots;
            for i in 0..slots {
                let slot = (start + i) % slots;
                if slot < n_in {
                    if ls.inbuf[self.layout.node_in_bufs[node][slot] as usize] == NONE {
                        continue;
                    }
                    self.read_slot(ls, node, slot, n_in, rec);
                } else if ls.inj_buf[node] != NONE {
                    self.read_slot(ls, node, slot, n_in, rec);
                }
            }
        }
    }

    /// Process one occupied read slot: an input buffer below `n_in`, the
    /// injection buffer at `n_in`.
    fn read_slot<Rec: Recorder>(
        &mut self,
        ls: &mut LaneState,
        node: usize,
        slot: usize,
        n_in: usize,
        rec: &mut Rec,
    ) {
        if slot < n_in {
            let b = self.in_flat[self.in_start[node] as usize + slot] as usize;
            let p = ls.inbuf[b];
            debug_assert_ne!(p, NONE, "read slot marked occupied but empty");
            if self.accept_arrival(ls, node, p, rec) {
                ls.inbuf[b] = NONE;
                ls.in_occ.clear(b);
                ls.in_occupied[node] -= 1;
                if self.fast_read {
                    ls.arr_mask[node] &= !(1u64 << slot);
                }
            }
        } else {
            let p = ls.inj_buf[node];
            if self.accept_injection(ls, node, p, rec) {
                ls.inj_buf[node] = NONE;
            }
        }
    }

    fn accept_arrival<Rec: Recorder>(
        &mut self,
        ls: &mut LaneState,
        node: usize,
        p: u32,
        rec: &mut Rec,
    ) -> bool {
        let h = ls.store.hot[p as usize];
        if h.state == TERMINAL {
            debug_assert_eq!(ls.store.dst[p as usize] as usize, node);
            self.deliver(ls, p, rec);
            return true;
        }
        // The hot row already describes the successor residence (staged
        // in from the option record); only the class field lags.
        self.enqueue_central(ls, node, p, h.next_class, rec)
    }

    fn accept_injection<Rec: Recorder>(
        &mut self,
        ls: &mut LaneState,
        node: usize,
        p: u32,
        rec: &mut Rec,
    ) -> bool {
        let pi = p as usize;
        let dst = ls.store.dst[pi] as usize;
        if dst == node {
            self.deliver(ls, p, rec);
            return true;
        }
        let s = self.table.inj[node * self.layout.num_nodes + dst];
        let row = self.table.rows[s as usize];
        let h = &mut ls.store.hot[pi];
        h.state = s;
        h.opt_start = row.opt_start;
        h.opt_len = row.opt_len;
        h.wants = row.wants;
        h.stutters = row.stutters;
        self.enqueue_central(ls, node, p, row.class, rec)
    }

    /// Insert packet `p` into `node`'s central queue `class`. The hot
    /// row's residence fields (`wants`/`opt_*`/`stutters`) must already
    /// be loaded; a capacity block leaves them in place for the retry.
    fn enqueue_central<Rec: Recorder>(
        &mut self,
        ls: &mut LaneState,
        node: usize,
        p: u32,
        class: u8,
        rec: &mut Rec,
    ) -> bool {
        let q = node * self.num_classes + usize::from(class);
        if ls.queue_len[q] as usize >= self.cfg.queue_capacity {
            if Rec::ENABLED {
                rec.on_block(ls.cycle, ls.store.uid[p as usize], node as u32, class);
            }
            return false;
        }
        let stutters = {
            let h = &mut ls.store.hot[p as usize];
            h.class = class;
            h.stutters
        };
        if stutters != 0 {
            ls.stutter_cnt[node] += 1;
        }
        ls.queue_len[q] += 1;
        if Rec::ENABLED {
            rec.on_queue_enter(
                ls.cycle,
                ls.store.uid[p as usize],
                node as u32,
                class,
                ls.queue_len[q],
            );
        }
        ls.node_fifo[node].push(p);
        true
    }

    fn deliver<Rec: Recorder>(&self, ls: &mut LaneState, p: u32, rec: &mut Rec) {
        let pi = p as usize;
        let latency = 2 * (ls.cycle - ls.store.inject_cycle[pi]) + 1;
        if Rec::ENABLED {
            rec.on_deliver(
                ls.cycle,
                ls.store.uid[pi],
                latency,
                u32::from(ls.store.hot[pi].hops),
                ls.store.hot[pi].class,
            );
        }
        if self.cfg.check_minimality {
            let d = self
                .rf
                .topology()
                .distance(ls.store.src[pi] as usize, ls.store.dst[pi] as usize);
            if usize::from(ls.store.hot[pi].hops) != d {
                ls.minimality_violations += 1;
            }
        }
        ls.stats.record(latency);
        if let Some(ts) = &mut ls.throughput {
            ts.record(ls.cycle, 1.0);
        }
        ls.delivered += 1;
        ls.store.release(p);
    }

    fn sample_occupancy(&self, ls: &mut LaneState) {
        for q in 0..ls.queue_len.len() {
            let len = ls.queue_len[q] as u16;
            ls.occupancy.max[q] = ls.occupancy.max[q].max(len);
            ls.occupancy.sum[q] += u64::from(len);
        }
        ls.occupancy.samples += 1;
    }

    /// The lane's blocked wait-for relation (the sequential engine's
    /// `local_wait_edges`, read against the shared state table).
    fn wait_edges(&self, ls: &LaneState) -> Vec<(u32, u8, u32, u8)> {
        let cap = self.cfg.queue_capacity;
        let mut edges = Vec::new();
        for v in 0..self.layout.num_nodes {
            for &p in &ls.node_fifo[v] {
                let h = &ls.store.hot[p as usize];
                let s = h.opt_start as usize;
                for o in &self.table.opts[s..s + h.opt_len as usize] {
                    if o.buf == NONE {
                        continue;
                    }
                    let chan = self.buf_chan[o.buf as usize] as usize;
                    let w = self.layout.chan_to[chan];
                    let c2 = o.to_class;
                    if ls.queue_len[w as usize * self.num_classes + usize::from(c2)] as usize >= cap
                    {
                        edges.push((v as u32, h.class, w, c2));
                    }
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }
}
