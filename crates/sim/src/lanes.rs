//! `LaneSim`: a batched replication engine that runs R independent RNG
//! **lanes** of the same experiment over one shared topology.
//!
//! A λ-sweep point or a table row is only statistically meaningful when
//! replicated, and the naive way to replicate — R fresh [`Simulator`]s —
//! pays R times for everything that is actually *identical* across
//! replications. For a fixed routing function and layout, a packet's
//! whole routing future is a pure function of its `(node, class, msg)`
//! state (see [`crate::engine::push_move_options`]), and the set of such
//! states reachable from any injection is finite. `LaneSim` therefore
//! **precomputes the entire reachable state graph once** at
//! construction: every state's move options, each option's successor
//! *state index* (or a terminal marker when the hop delivers), and the
//! state's fill summary. A packet is then a dense `u32` state index and
//! a hop is a table lookup: the lanes never hash a key, clone a routing
//! message or call the routing function, and all R lanes share the one
//! immutable table.
//!
//! # Execution model
//!
//! Each lane is one instance of the engine's step core
//! ([`crate::engine::Core`]) whose option source is the shared table:
//! the fill, link and read phases, enqueue, delivery and the recorder
//! hooks are the same code every [`Simulator`] runs, so a lane is
//! **bit-identical** to a standalone sequential run seeded with
//! [`lane_seed`]`(master, k)` — same delivered-packet journal, same
//! histograms, same occupancy probe (`tests/lane_equivalence.rs` and
//! the fuzzer's lane axis check it event for event). Lanes run to
//! completion one after another, which on a single core keeps one
//! lane's working set hot.
//!
//! The eager table covers all n² `(src, dst)` pairs, so it pays only
//! for many replications of small networks. A lane batch has no fault
//! plan, snapshot or shards; the harness runs such replications one
//! engine each, and the `--lanes R` ≡ `--reps R` contract keeps the
//! output identical.
//!
//! [`Simulator`]: crate::Simulator

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

use rand::rngs::StdRng;

use fadr_metrics::{NoRecorder, Recorder, TimeSeries};
use fadr_qdg::RoutingFunction;
use fadr_topology::NodeId;

use crate::engine::{
    entry_class_of, push_move_options, Arrival, Core, DynamicOutcome, DynamicResult,
    OccupancyProbe, OptionSource, StaticOutcome, StaticResult,
};
use crate::layout::{Layout, NONE};
use crate::store::{Hot, MoveOpt, TERMINAL};
use crate::SimConfig;

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
/// state's central-queue class, and its precomputed fill summary — the
/// mask of fill positions its options target at the owning node and
/// the number of internal (stutter) options.
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
/// routing function and layout (fault-free routing), so all lanes — and
/// all runs — share one table with no synchronization or growth.
pub(crate) struct StateTable {
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
    fn build<R: RoutingFunction>(rf: &R, layout: &Layout) -> Self {
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
            // the option segment for the rank-indexed pick.
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
                    // class. The computed source recomputes options
                    // without a deliverability check here, so neither
                    // does the table.
                    stutters += 1;
                    intern_state(&mut idx, &mut keys, node, opt.to_class, opt.next)
                } else {
                    let pos = layout.buf_out_pos[opt.buf as usize];
                    // Positions ≥ 64 only occur when the core falls back
                    // to the plain fill scan, which never reads `wants`.
                    if pos < 64 {
                        wants |= 1u64 << pos;
                    }
                    let to = layout.chan_to[layout.buf_chan[opt.buf as usize] as usize];
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

/// The table option source: a packet walks the shared table by state
/// id. Staging loads the successor state's row into the hot row (it is
/// inlined in the option record), so arrival and enqueue touch no table
/// at all, and an unrecorded run can deliver during the link pass.
impl<R: RoutingFunction> OptionSource<R> for Arc<StateTable> {
    type Msg = ();

    fn opt_buf(&self, i: usize) -> u32 {
        self.opts[i].buf
    }

    fn opt_to_class(&self, i: usize) -> u8 {
        self.opts[i].to_class
    }

    /// With `rank_ok`, the option for want-bit `pos` is the one ranked
    /// by the want bits below `pos`: one indexed load instead of a scan.
    fn pick(&self, h: &Hot, pos: usize, buf: u32) -> usize {
        let s = h.opt_start as usize;
        if self.rank_ok {
            let i = s + (h.wants & ((1u64 << pos) - 1)).count_ones() as usize;
            debug_assert_eq!(self.opts[i].buf, buf, "rank-indexed option mismatch");
            i
        } else {
            (s..s + usize::from(h.opt_len))
                .find(|&i| self.opts[i].buf == buf)
                .expect("wanting packet has the option")
        }
    }

    fn initial_msg(_rf: &R, _src: NodeId, _dst: NodeId) {}

    fn delivers_on_arrival(h: &Hot) -> bool {
        h.state == TERMINAL
    }

    fn entry(core: &mut Core<R, Self>, _rf: &R, node: usize, p: u32) -> u8 {
        let pi = p as usize;
        let n = core.layout.num_nodes;
        let s = core.src.inj[node * n + core.store.dst[pi] as usize];
        let row = core.src.rows[s as usize];
        let h = &mut core.store.hot[pi];
        h.state = s;
        h.opt_start = row.opt_start;
        h.opt_len = row.opt_len;
        h.wants = row.wants;
        h.stutters = row.stutters;
        row.class
    }

    fn advance(core: &mut Core<R, Self>, p: u32, i: usize) {
        let o = core.src.opts[i];
        let h = &mut core.store.hot[p as usize];
        h.state = o.next;
        h.wants = o.succ_wants;
        h.opt_start = o.succ_opt_start;
        h.opt_len = o.succ_opt_len;
        h.stutters = o.succ_stutters;
    }

    fn arrival<Rec: Recorder>(
        core: &mut Core<R, Self>,
        _rf: &R,
        node: usize,
        p: u32,
        _rec: &mut Rec,
    ) -> Arrival {
        let h = &core.store.hot[p as usize];
        if h.state == TERMINAL {
            debug_assert_eq!(core.store.dst[p as usize] as usize, node);
            Arrival::Deliver
        } else {
            Arrival::Enqueue(h.next_class)
        }
    }
}

/// Batched replication engine: R independent RNG lanes of the same
/// experiment over one shared precomputed routing table. See the module
/// docs for the execution model and bit-identity contract.
pub struct LaneSim<R: RoutingFunction> {
    rf: R,
    seeds: Vec<u64>,
    /// One step core per lane, each on the shared table.
    lanes: Vec<Core<R, Arc<StateTable>>>,
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
        let table = Arc::new(StateTable::build(&rf, &layout));
        let lanes = seeds
            .iter()
            .map(|&seed| {
                let cfg = SimConfig { seed, ..cfg };
                Core::new(
                    cfg,
                    Arc::clone(&layout),
                    rf.num_classes(),
                    Arc::clone(&table),
                )
            })
            .collect();
        Self { rf, seeds, lanes }
    }

    /// Number of replication lanes.
    pub fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Number of nodes in the shared topology.
    pub fn num_nodes(&self) -> usize {
        self.lanes[0].layout.num_nodes
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
        self.lanes[0].src.rows.len()
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
        self.run_dynamic_indexed(lambda, |_, src, rng| dest(src, rng), cycles, recs)
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
        assert_eq!(recs.len(), self.lanes.len(), "one recorder per lane");
        let rf = &self.rf;
        self.lanes
            .iter_mut()
            .zip(recs)
            .enumerate()
            .map(|(k, (lane, rec))| {
                let lane_dest = |src: NodeId, rng: &mut StdRng| dest(k, src, rng);
                match lane.run_dynamic_until(rf, rec, lambda, lane_dest, cycles, None) {
                    DynamicOutcome::Finished(r) => r,
                    DynamicOutcome::Paused(_) => unreachable!("no pause requested"),
                }
            })
            .collect()
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
        let rf = &self.rf;
        self.lanes
            .iter_mut()
            .zip(backlogs.iter().zip(recs))
            .map(
                |(lane, (backlog, rec))| match lane.run_static_until(rf, rec, backlog, None) {
                    StaticOutcome::Finished(r) => r,
                    StaticOutcome::Paused(_) => unreachable!("no pause requested"),
                },
            )
            .collect()
    }
}
