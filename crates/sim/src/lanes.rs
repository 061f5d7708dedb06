//! The routing-state table option source ([`StateTable`]), the seed
//! schedule of replicated runs ([`lane_seed`]), and the [`LaneSim`]
//! batch wrapper.
//!
//! A λ-sweep point or a table row is only statistically meaningful when
//! replicated, and R replications pay R times for everything that is
//! actually *identical* across them. For a fixed routing function and
//! layout, a packet's whole routing future is a pure function of its
//! `(node, class, msg)` state (see [`crate::engine::push_move_options`]),
//! and the set of such states reachable from any injection is finite.
//! [`StateTable::build`] therefore **precomputes the entire reachable
//! state graph once**: every row's move options, each option's fill
//! position at the packet's node and successor *row index* (or a
//! terminal marker when the hop delivers), and the row's fill summary.
//! A simulator built by [`Simulator::with_table`] stores a packet as a
//! dense `u32` row index, so a hop is a table lookup: it never hashes a
//! key, clones a routing message or calls the routing function, and any
//! number of simulators — on any number of threads — share the one
//! immutable table.
//!
//! # Rows: one per state key
//!
//! A scheme whose moves do not depend on the node's address declares a
//! relative key ([`RoutingFunction::state_key`]), and the table interns
//! one row per key instead of one per state. Option records store fill
//! positions relative to the node, so one row serves every node: the
//! core adds the node's first output buffer. `HypercubeFullyAdaptive`
//! (any root) has 3ⁿ − 1 keys against N(N − 1) states — 59 048 rows
//! instead of 1 047 552 at n = 10 — and `EcubeSbp` has one key per
//! (hops, node ^ dst). A scheme that declares no key gets one row per
//! absolute state from the same code. The key's contract is trusted
//! here and checked by `fadr-lint`'s `state-key` lint.
//!
//! # Contract
//!
//! The table is an [`OptionSource`] of the one step core ([`Core`]):
//! the fill, link and read phases, enqueue, delivery and the recorder
//! hooks are the same code every [`Simulator`] runs, so a table-sourced
//! run is **bit-identical** to a computed run with the same seed — same
//! delivered-packet journal, same histograms
//! (`tests/lane_equivalence.rs` and the fuzzer's table leg check it
//! event for event).
//!
//! The entry array covers all N² `(src, dst)` pairs, so the build still
//! grows with the network even when the rows do not. The table
//! describes fault-free routing and has no snapshot form: fault plans,
//! `checkpoint` and `restore` exist only on the computed source.

use std::collections::hash_map::Entry;
use std::hash::Hash;
use std::sync::Arc;

use rand::rngs::StdRng;

use fadr_metrics::{NoRecorder, Recorder};
use fadr_qdg::hasher::FxHashMap;
use fadr_qdg::RoutingFunction;
use fadr_topology::NodeId;

use crate::engine::{
    entry_class_of, push_move_options, Arrival, Core, DynamicResult, OptionSource, Simulator,
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

/// The first `lanes` seeds of `master`'s schedule: `lane_seed(master,
/// k)` for `k` in `0..lanes`.
pub fn lane_seeds(master: u64, lanes: usize) -> Vec<u64> {
    (0..lanes).map(|k| lane_seed(master, k)).collect()
}

/// One move option of a row: the fill position it stages onto at the
/// packet's node (or [`NONE`] for an internal stutter), the successor
/// row after the hop (or [`TERMINAL`]), the central-queue class on
/// arrival — and the successor's row, denormalized inline so staging a
/// packet rewrites its hot row from this one record and the arrival
/// enqueue touches no table at all.
#[derive(Clone, Copy)]
#[repr(C)]
struct PackedOpt {
    /// Successor row's fill-position want mask (zero for [`TERMINAL`]).
    succ_wants: u64,
    next: u32,
    pos: u32,
    succ_opt_start: u32,
    succ_opt_len: u8,
    succ_stutters: u8,
    to_class: u8,
    _pad: u8,
}

/// One row of the shared table: the option segment reference, the
/// central-queue class, and the precomputed fill summary — the mask of
/// fill positions its options target at the packet's node and the
/// number of internal (stutter) options.
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

/// A shared, immutable routing-state table: one row per state key (or
/// per `(node, class, msg)` state, for a scheme that declares no key)
/// reachable from any injection, enumerated by breadth-first closure,
/// with its move options, their successor rows and the fill summary the
/// step core reads. Rows and option segments are struct-of-arrays
/// indexed by dense row id; `inj[src * n + dst]` is the entry row of a
/// fresh `src → dst` packet. Everything here is a pure function of the
/// routing function and its layout (fault-free routing), so every
/// simulator built on one table by [`Simulator::with_table`] shares it —
/// and its layout — with no synchronization or growth.
pub struct StateTable {
    /// The scheme the table was built for ([`RoutingFunction::name`]).
    scheme: String,
    layout: Arc<Layout>,
    rows: Vec<StateRow>,
    opts: Vec<PackedOpt>,
    inj: Vec<u32>,
    /// True when every row's link options sit in ascending fill-position
    /// order with one option per position (always, in practice): the
    /// option for want-bit `pos` is then
    /// `opts[opt_start + popcount(wants below pos)]` — one indexed load
    /// instead of a scan. Falls back to the scan otherwise.
    rank_ok: bool,
}

/// Construction-time interner: dense row ids in first-sight order, by
/// the scheme's state key where it declares one and by the absolute
/// state otherwise. `states` holds each row's first-seen state and
/// doubles as the BFS work queue (rows are expanded in id order, and
/// ids are only ever appended).
struct Interner<M> {
    keyed: FxHashMap<u64, u32>,
    absolute: FxHashMap<(u32, u8, M), u32>,
    states: Vec<(u32, u8, M)>,
}

impl<M: Clone + Eq + Hash> Interner<M> {
    fn intern<R: RoutingFunction<Msg = M>>(&mut self, rf: &R, node: u32, class: u8, msg: M) -> u32 {
        let fresh = u32::try_from(self.states.len()).expect("row count fits u32");
        match rf.state_key(node as usize, class, &msg) {
            Some(key) => {
                let id = *self.keyed.entry(key).or_insert(fresh);
                if id == fresh {
                    self.states.push((node, class, msg));
                }
                id
            }
            None => match self.absolute.entry((node, class, msg)) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    self.states.push(e.key().clone());
                    e.insert(fresh);
                    fresh
                }
            },
        }
    }
}

impl StateTable {
    /// Build `rf`'s layout and enumerate every row reachable from any
    /// injection.
    ///
    /// # Panics
    ///
    /// Panics if a reachable state has no moves (a dead end; no
    /// certified scheme has one).
    pub fn build<R: RoutingFunction>(rf: &R) -> Arc<Self> {
        let layout = Arc::new(Layout::new(rf));
        let n = layout.num_nodes;
        let mut rows_of = Interner {
            keyed: FxHashMap::default(),
            absolute: FxHashMap::default(),
            states: Vec::new(),
        };
        let mut inj = vec![TERMINAL; n * n];
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                let msg = rf.initial_msg(src, dst);
                let class = entry_class_of(rf, src, &msg);
                inj[src * n + dst] = rows_of.intern(rf, src as u32, class, msg);
            }
        }
        let mut rows: Vec<StateRow> = Vec::with_capacity(rows_of.states.len());
        let mut opts: Vec<PackedOpt> = Vec::new();
        let mut scratch: Vec<MoveOpt<R::Msg>> = Vec::new();
        let mut rank_ok = true;
        // `states` grows while we walk it: each expansion may intern new
        // successor rows, which are expanded in turn (BFS order).
        let mut i = 0;
        while i < rows_of.states.len() {
            let (node, class, msg) = rows_of.states[i].clone();
            scratch.clear();
            push_move_options(rf, &layout, node as usize, class, &msg, &mut scratch);
            assert!(
                !scratch.is_empty(),
                "queued packet with no moves (dead end)"
            );
            // Stable-sort link options into ascending fill-position
            // order, internal options last. This changes no observable
            // behavior — staging matches options by position, wanting
            // lists are per-position, and internals keep their relative
            // order — but makes the want mask's bit ranks line up with
            // the option segment for the rank-indexed pick.
            let pos_of = |o: &MoveOpt<R::Msg>| {
                if o.buf == NONE {
                    NONE
                } else {
                    layout.buf_out_pos[o.buf as usize]
                }
            };
            scratch.sort_by_key(pos_of);
            rank_ok &= scratch
                .iter()
                .map(pos_of)
                .filter(|&pos| pos != NONE)
                .try_fold(None::<u32>, |prev, pos| {
                    (pos < 64 && prev.is_none_or(|q| pos > q)).then_some(Some(pos))
                })
                .is_some();
            if opts.capacity() - opts.len() < scratch.len() {
                // Room for every row interned so far at the mean fan-out
                // seen, and at least double: growing from empty by
                // doubling alone would leave multi-MiB copies freed but
                // resident in the heap.
                let mean = (opts.len() + scratch.len()).div_ceil(i + 1);
                let want = (rows_of.states.len() * (mean + 1)).max(2 * opts.len());
                opts.reserve_exact(want - opts.len());
            }
            let opt_start = u32::try_from(opts.len()).expect("option table fits u32");
            let opt_len = u8::try_from(scratch.len()).expect("per-state fan-out fits u8");
            let mut wants = 0u64;
            let mut stutters = 0u8;
            for opt in scratch.drain(..) {
                debug_assert!(!opt.escape, "escape options only exist under faults");
                let pos = pos_of(&opt);
                let next = if pos == NONE {
                    // Internal stutter: stays at the node, may change
                    // class. The computed source recomputes options
                    // without a deliverability check here, so neither
                    // does the table.
                    stutters += 1;
                    rows_of.intern(rf, node, opt.to_class, opt.next)
                } else {
                    // Positions ≥ 64 only occur when the core falls back
                    // to the plain fill scan, which never reads `wants`.
                    if pos < 64 {
                        wants |= 1u64 << pos;
                    }
                    let to = layout.chan_to[layout.buf_chan[opt.buf as usize] as usize];
                    if rf.deliverable(to as usize, &opt.next) {
                        TERMINAL
                    } else {
                        rows_of.intern(rf, to, opt.to_class, opt.next)
                    }
                };
                opts.push(PackedOpt {
                    succ_wants: 0,
                    next,
                    pos,
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
        Arc::new(Self {
            scheme: rf.name(),
            layout,
            rows,
            opts,
            inj,
            rank_ok,
        })
    }
}

/// The table option source: a packet walks the shared table by state
/// id. Staging loads the successor state's row into the hot row (it is
/// inlined in the option record), so arrival and enqueue touch no table
/// at all, and an unrecorded run can deliver during the link pass.
impl<R: RoutingFunction> OptionSource<R> for Arc<StateTable> {
    type Msg = ();

    fn opt_buf(&self, i: usize, first: u32) -> u32 {
        match self.opts[i].pos {
            NONE => NONE,
            pos => first + pos,
        }
    }

    fn opt_to_class(&self, i: usize) -> u8 {
        self.opts[i].to_class
    }

    /// With `rank_ok`, the option for want-bit `pos` is the one ranked
    /// by the want bits below `pos`: one indexed load instead of a scan.
    fn pick(&self, h: &Hot, pos: usize, _buf: u32) -> usize {
        let s = h.opt_start as usize;
        if self.rank_ok {
            let i = s + (h.wants & ((1u64 << pos) - 1)).count_ones() as usize;
            debug_assert_eq!(
                self.opts[i].pos as usize, pos,
                "rank-indexed option mismatch"
            );
            i
        } else {
            (s..s + usize::from(h.opt_len))
                .find(|&i| self.opts[i].pos as usize == pos)
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

impl<R: RoutingFunction, Rec: Recorder> Simulator<R, Rec, Arc<StateTable>> {
    /// Build a simulator whose queued packets take their moves from
    /// `table` instead of calling the routing function. A run is
    /// bit-identical to one on [`Simulator::with_recorder`] with the same
    /// arguments; any number of simulators may share one table.
    ///
    /// # Panics
    ///
    /// Panics if `table` was built for a network whose node count
    /// differs from `rf`'s, or for another scheme (by
    /// [`RoutingFunction::name`], which also names the size and the
    /// hang root).
    pub fn with_table(rf: R, cfg: SimConfig, rec: Rec, table: Arc<StateTable>) -> Self {
        let (built, given) = (table.layout.num_nodes, rf.topology().num_nodes());
        assert!(
            built == given,
            "the routing-state table was built for {built} nodes, the router has {given}"
        );
        let scheme = rf.name();
        assert!(
            table.scheme == scheme,
            "the routing-state table was built for {}, the router is {scheme}",
            table.scheme
        );
        let layout = Arc::clone(&table.layout);
        let core = Core::new(cfg, layout, rf.num_classes(), table);
        Self {
            rf,
            rec,
            core,
            watchdog: None,
            stall: None,
        }
    }
}

/// A batch of table-sourced simulators on one shared [`StateTable`], one
/// per seed. It is the batch API of the benchmark package's
/// `lane_replicas` workload; other callers build the simulators with
/// [`Simulator::with_table`] directly.
pub struct LaneSim<R: RoutingFunction> {
    table: Arc<StateTable>,
    lanes: Vec<Simulator<R, NoRecorder, Arc<StateTable>>>,
}

impl<R: RoutingFunction + Clone> LaneSim<R> {
    /// Build `rf`'s table and one simulator on it per seed: lane `k`
    /// runs `cfg` with seed `seeds[k]`.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty.
    pub fn with_lane_seeds(rf: R, cfg: SimConfig, seeds: Vec<u64>) -> Self {
        assert!(!seeds.is_empty(), "at least one lane");
        let table = StateTable::build(&rf);
        let lanes = seeds
            .iter()
            .map(|&seed| {
                let cfg = SimConfig { seed, ..cfg };
                Simulator::with_table(rf.clone(), cfg, NoRecorder, Arc::clone(&table))
            })
            .collect();
        Self { table, lanes }
    }

    /// Rows in the shared table (a diagnostic for its size): one per
    /// reachable state key for a scheme that declares keys, one per
    /// reachable `(node, class, msg)` state otherwise.
    pub fn memo_entries(&self) -> usize {
        self.table.rows.len()
    }

    /// Run every lane's [`Simulator::run_dynamic`] in turn, returning the
    /// results in lane order. `dest` must be memoryless (a pure function
    /// of its arguments and the RNG), as each lane draws from it
    /// independently.
    pub fn run_dynamic(
        &mut self,
        lambda: f64,
        mut dest: impl FnMut(NodeId, &mut StdRng) -> NodeId,
        cycles: u64,
    ) -> Vec<DynamicResult> {
        self.lanes
            .iter_mut()
            .map(|sim| sim.run_dynamic(lambda, &mut dest, cycles))
            .collect()
    }
}
