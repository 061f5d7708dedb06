//! Sim-wide event recording: a zero-cost-when-disabled [`Recorder`]
//! trait plus three concrete sinks.
//!
//! The simulators (`fadr-sim`, `fadr-wormhole`) are generic over a
//! `Recorder` and **monomorphize** it: with the default [`NoRecorder`]
//! every hook is an empty inline function and the compiled hot loop is
//! byte-for-byte the uninstrumented one — no branches, no dynamic
//! dispatch, no flag checks. Enabling observability is a *type* choice,
//! not a runtime one.
//!
//! The event vocabulary mirrors the paper's § 2/§ 6 model:
//!
//! * [`Recorder::on_inject`] — a packet enters the network (injection
//!   queue `i_v`);
//! * [`Recorder::on_queue_enter`] / [`Recorder::on_queue_leave`] — a
//!   packet enters/leaves a bounded central queue (`q_A`/`q_B`/…);
//! * [`Recorder::on_link`] — a packet crosses a physical channel, tagged
//!   **static** (an edge of the underlying acyclic routing function `R`,
//!   i.e. the escape path) or **dynamic** (an adaptivity-adding edge of
//!   `R̃`), together with the `q_A → q_B` class transition it performs;
//! * [`Recorder::on_stutter`] — an internal (same-node) phase change;
//! * [`Recorder::on_block`] — a packet could not move into a full queue
//!   this cycle (one event per blocked attempt per cycle);
//! * [`Recorder::on_deliver`] — a packet reaches its delivery queue;
//! * [`Recorder::on_cycle_end`] — the routing cycle finished; the
//!   recorder may return [`Control::Stop`] to abort the run (this is how
//!   [`WatchdogSink`] converts a wedged network from a hang into a
//!   structured stall report).
//!
//! Six sinks are provided: [`CounterSink`] (routing-decision counters
//! and per-queue occupancy statistics), [`TraceSink`] (bounded JSONL
//! packet lifecycles), [`WatchdogSink`] (K-cycle no-progress
//! detection), [`JournalSink`] (bounded ring-buffer event journal with
//! an order-insensitive stream hash, the replay substrate),
//! [`LatencySink`] (per-class log-bucketed delivery-latency
//! percentiles), and [`WaitGraphSink`] (per-cycle wait-for-graph probe
//! reporting emerging cycle candidates *before* the watchdog fires).
//! [`SinkSet`] composes any subset and merges deterministically across
//! parallel workers.

use std::fmt::Write as _;

use crate::json::{self, Quoted};

/// Flow-control verdict returned by [`Recorder::on_cycle_end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep simulating.
    Continue,
    /// Abort the run (e.g. a watchdog detected a stall). The simulator
    /// returns with whatever was delivered so far.
    Stop,
}

/// Observer of simulator events; see the [module docs](self) for the
/// event vocabulary. Every method has an empty default body so sinks
/// implement only what they consume, and [`NoRecorder`] implements
/// nothing at all.
///
/// `pkt` is a run-unique packet id (monotonically increasing in
/// injection order — slab slots may be recycled, ids are not). `node`,
/// `class` address the § 2 queue `q_class[node]`; `occupancy` is the
/// queue length *after* the event.
#[allow(unused_variables)]
pub trait Recorder {
    /// `false` promises every hook is a no-op, letting instrumentation
    /// sites skip even the *evaluation of hook arguments* (occupancy
    /// reads, channel-endpoint lookups) behind a compile-time constant.
    /// Only [`NoRecorder`] should set this to `false`.
    const ENABLED: bool = true;

    /// A packet entered the network at `src` heading for `dst`.
    #[inline(always)]
    fn on_inject(&mut self, cycle: u64, pkt: u64, src: u32, dst: u32) {}

    /// A packet entered central queue `(node, class)`.
    #[inline(always)]
    fn on_queue_enter(&mut self, cycle: u64, pkt: u64, node: u32, class: u8, occupancy: u32) {}

    /// A packet left central queue `(node, class)`.
    #[inline(always)]
    fn on_queue_leave(&mut self, cycle: u64, pkt: u64, node: u32, class: u8, occupancy: u32) {}

    /// A packet crossed the physical channel `from → to`. `dynamic`
    /// tags the hop's § 2 link kind; `from_class → to_class` is the
    /// central-queue class transition it performs.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn on_link(
        &mut self,
        cycle: u64,
        pkt: u64,
        from: u32,
        to: u32,
        dynamic: bool,
        from_class: u8,
        to_class: u8,
    ) {
    }

    /// A packet performed an internal (same-node) transition.
    #[inline(always)]
    fn on_stutter(&mut self, cycle: u64, pkt: u64, node: u32, from_class: u8, to_class: u8) {}

    /// A packet's move into queue `(node, class)` was refused (full
    /// queue); it retries next cycle. One event per attempt per cycle,
    /// so the total is a *blocked-cycle* count.
    #[inline(always)]
    fn on_block(&mut self, cycle: u64, pkt: u64, node: u32, class: u8) {}

    /// A packet reached its delivery queue. `class` is the central-queue
    /// class the packet last resided in (0 for a self-addressed packet
    /// delivered straight from its injection buffer).
    #[inline(always)]
    fn on_deliver(&mut self, cycle: u64, pkt: u64, latency: u64, hops: u32, class: u8) {}

    /// A scheduled fault event was applied; `kind` is a `FAULT_*`-style
    /// code (0 = link down, 1 = node down, 2 = queue freeze,
    /// 3 = flaky link) and `node` the fault's primary node. A sharded
    /// engine fires this on exactly one shard (the owner of the fault's
    /// primary node) so merged counts match a sequential run.
    #[inline(always)]
    fn on_fault(&mut self, cycle: u64, kind: u8, node: u32) {}

    /// A packet was destroyed by a fault (its node died) and will never
    /// deliver. Watchdog-style recorders must stop counting it as
    /// in-flight.
    #[inline(always)]
    fn on_drop(&mut self, cycle: u64, pkt: u64) {}

    /// A packet staged on a failed channel was reabsorbed into central
    /// queue `(node, class)` and rerouted over the surviving graph.
    #[inline(always)]
    fn on_reroute(&mut self, cycle: u64, pkt: u64, node: u32, class: u8) {}

    /// A fault left destination `dst` unreachable from a packet that
    /// still wants to get there; the engine aborts at the end of the
    /// cycle. Fired once per destination per (shard) simulator.
    #[inline(always)]
    fn on_partition(&mut self, cycle: u64, dst: u32) {}

    /// The engine restored a checkpoint and will resume at `cycle`.
    /// Fired *before* the restore-time priming events (re-fired
    /// `on_inject`/`on_queue_enter` for live packets), letting
    /// stateful sinks re-base: the [`WatchdogSink`] restarts its
    /// no-progress window here, and the [`JournalSink`] floors its
    /// stream so priming events (which carry pre-resume cycles) never
    /// enter the journal.
    #[inline(always)]
    fn on_resume(&mut self, cycle: u64) {}

    /// Per-cycle wait-for-graph probe: `edges` is the deduplicated,
    /// sorted blocked wait-for relation this cycle — `(v, c, w, c2)`
    /// meaning some packet in central queue `(v, c)` wants to move into
    /// the *full* queue `(w, c2)`. Only fired when
    /// [`Recorder::want_waitgraph`] returns `true` (edge collection is
    /// not free, so the engine asks first).
    #[inline(always)]
    fn on_wait_probe(&mut self, cycle: u64, edges: &[(u32, u8, u32, u8)]) {}

    /// The blocked wait-for relation at abort time (same edge encoding
    /// as [`Recorder::on_wait_probe`]), fired once by the engine after a
    /// run stops early (a recorder's or the engine's watchdog, a fault
    /// partition) so a [`WatchdogSink`]'s [`StallReport`] can carry the
    /// wait-for subgraph behind its verdict. A sharded engine fires it on
    /// shard 0's recorder with the whole network's relation.
    #[inline(always)]
    fn on_stall_waits(&mut self, edges: &[(u32, u8, u32, u8)]) {}

    /// Whether this recorder consumes [`Recorder::on_wait_probe`]; the
    /// engine skips edge collection entirely when `false` (the default).
    #[inline(always)]
    fn want_waitgraph(&self) -> bool {
        false
    }

    /// The routing cycle ended; return [`Control::Stop`] to abort.
    #[inline(always)]
    fn on_cycle_end(&mut self, cycle: u64) -> Control {
        Control::Continue
    }
}

/// The default recorder: records nothing, costs nothing. All hooks
/// inline to empty bodies, so `Simulator<R, NoRecorder>` compiles to
/// the same hot loop as an unobserved simulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoRecorder;

impl Recorder for NoRecorder {
    const ENABLED: bool = false;
}

/// Extension of [`Recorder`] for shard-parallel simulation: one recorder
/// instance runs per shard and observes only the events on that shard's
/// nodes (an injection on the source's shard, a link traversal on the
/// receiving node's shard). Nothing passes between the instances during
/// the run; the engine merges them once, in fixed shard order, after it.
/// Implemented correctly, the merged recorder is bit-identical to the
/// one a sequential run would have produced.
pub trait ShardRecorder: Recorder {
    /// Whether this recorder may run one-instance-per-shard. Recorders
    /// whose semantics are global — the [`WatchdogSink`], which would
    /// declare a stall on any shard that happens to be locally idle —
    /// must return `false`; a sharded engine refuses them up front.
    fn shardable(&self) -> bool {
        true
    }

    /// Merge a sibling shard's recorder from the same run. Called in
    /// fixed shard order; counters add, per-run totals (cycle counts)
    /// take the max, and a packet's trace fragments join into one
    /// lifecycle ([`TraceSink::merge_shard`]).
    fn merge_shard(&mut self, other: &Self);
}

impl ShardRecorder for NoRecorder {
    fn merge_shard(&mut self, _other: &Self) {}
}

// ---------------------------------------------------------------------
// CounterSink
// ---------------------------------------------------------------------

/// Routing-decision counters and per-queue occupancy statistics.
///
/// Counts every link traversal split static (escape path) vs dynamic,
/// stutters, blocked cycles, class transitions, injections, and
/// deliveries; tracks per-queue current/peak occupancy from the
/// enter/leave event stream and samples per-queue means once per cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSink {
    num_classes: usize,
    /// Packets injected.
    pub injected: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Static-link traversals (the underlying `R` / escape path).
    pub links_static: u64,
    /// Dynamic-link traversals (the adaptivity-adding `R̃ \ R` edges).
    pub links_dynamic: u64,
    /// Internal same-node transitions.
    pub stutters: u64,
    /// Blocked move attempts (one per packet per cycle spent blocked).
    pub blocked_cycles: u64,
    /// Hops (link or stutter) whose target class differs from the source
    /// class — e.g. the hypercube's one `q_A → q_B` migration per packet.
    pub class_transitions: u64,
    /// Scheduled fault events applied (link/node/queue/flaky).
    pub faults_applied: u64,
    /// Packets destroyed by node-down faults.
    pub packets_dropped: u64,
    /// Packets reabsorbed off a failed channel and rerouted.
    pub reroutes: u64,
    /// Cycles observed (occupancy sample count).
    pub cycles: u64,
    occupancy: Vec<u32>,
    peak: Vec<u32>,
    sum: Vec<u64>,
}

impl CounterSink {
    /// Counter sink for a network of `num_nodes` nodes with
    /// `num_classes` central-queue classes per node.
    pub fn new(num_nodes: usize, num_classes: usize) -> Self {
        let q = num_nodes * num_classes;
        Self {
            num_classes,
            injected: 0,
            delivered: 0,
            links_static: 0,
            links_dynamic: 0,
            stutters: 0,
            blocked_cycles: 0,
            class_transitions: 0,
            faults_applied: 0,
            packets_dropped: 0,
            reroutes: 0,
            cycles: 0,
            occupancy: vec![0; q],
            peak: vec![0; q],
            sum: vec![0; q],
        }
    }

    /// Total link traversals (static + dynamic).
    pub fn links_total(&self) -> u64 {
        self.links_static + self.links_dynamic
    }

    /// Fraction of link traversals over dynamic links — the paper's
    /// full-adaptivity claim made measurable (0.0 if no links crossed).
    pub fn dynamic_share(&self) -> f64 {
        let total = self.links_total();
        if total == 0 {
            0.0
        } else {
            self.links_dynamic as f64 / total as f64
        }
    }

    /// Number of queues tracked (`num_nodes * num_classes`).
    pub fn num_queues(&self) -> usize {
        self.peak.len()
    }

    /// Peak occupancy of queue `(node, class)` over the run.
    pub fn queue_peak(&self, node: usize, class: usize) -> u32 {
        self.peak
            .get(node * self.num_classes + class)
            .copied()
            .unwrap_or(0)
    }

    /// Mean occupancy of queue `(node, class)` (sampled at cycle ends).
    pub fn queue_mean(&self, node: usize, class: usize) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.sum
            .get(node * self.num_classes + class)
            .map_or(0.0, |&s| s as f64 / self.cycles as f64)
    }

    /// Largest per-queue peak across the whole network.
    pub fn peak_max(&self) -> u32 {
        self.peak.iter().copied().max().unwrap_or(0)
    }

    /// Mean *network-total* occupancy per cycle (sum of all queue means).
    pub fn mean_total(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.sum.iter().sum::<u64>() as f64 / self.cycles as f64
    }

    /// Merge another sink of the same shape (same network) into this
    /// one. Counters add, peaks take the max, occupancy sums/samples
    /// add — merging in a fixed order is deterministic regardless of
    /// which parallel worker produced which sink.
    ///
    /// # Panics
    ///
    /// Panics if the shapes (queue counts) differ.
    pub fn merge(&mut self, other: &CounterSink) {
        assert_eq!(
            self.peak.len(),
            other.peak.len(),
            "merging counter sinks of different network shapes"
        );
        self.injected += other.injected;
        self.delivered += other.delivered;
        self.links_static += other.links_static;
        self.links_dynamic += other.links_dynamic;
        self.stutters += other.stutters;
        self.blocked_cycles += other.blocked_cycles;
        self.class_transitions += other.class_transitions;
        self.faults_applied += other.faults_applied;
        self.packets_dropped += other.packets_dropped;
        self.reroutes += other.reroutes;
        self.cycles += other.cycles;
        for (a, &b) in self.peak.iter_mut().zip(&other.peak) {
            *a = (*a).max(b);
        }
        for (a, &b) in self.sum.iter_mut().zip(&other.sum) {
            *a += b;
        }
    }

    /// Merge a sibling shard's sink from the *same* run (fixed shard
    /// order). Identical to [`CounterSink::merge`] except that `cycles`
    /// takes the max instead of adding: every shard of one run observes
    /// the same cycles, so adding would inflate the occupancy-sampling
    /// denominator shard-fold. Event counters still add (each event is
    /// seen by exactly one shard) and per-queue peaks/sums combine
    /// exactly (each queue is owned by exactly one shard).
    ///
    /// # Panics
    ///
    /// Panics if the shapes (queue counts) differ.
    pub fn merge_shard(&mut self, other: &CounterSink) {
        let cycles = self.cycles.max(other.cycles);
        self.merge(other);
        self.cycles = cycles;
        // Every queue is observed by exactly one shard, so the end-of-run
        // current occupancies live in disjoint segments and add exactly.
        // ([`CounterSink::merge`] deliberately skips this: across
        // *replications* the leftover occupancies are unrelated runs.)
        for (a, &b) in self.occupancy.iter_mut().zip(&other.occupancy) {
            *a += b;
        }
    }

    /// The `top` busiest queues by peak occupancy (ties broken by queue
    /// index for determinism), as `(node, class, peak, mean)`.
    pub fn top_queues(&self, top: usize) -> Vec<(usize, usize, u32, f64)> {
        let mut idx: Vec<usize> = (0..self.peak.len()).filter(|&q| self.peak[q] > 0).collect();
        idx.sort_by(|&a, &b| self.peak[b].cmp(&self.peak[a]).then(a.cmp(&b)));
        idx.truncate(top);
        idx.into_iter()
            .map(|q| {
                (
                    q / self.num_classes,
                    q % self.num_classes,
                    self.peak[q],
                    if self.cycles == 0 {
                        0.0
                    } else {
                        self.sum[q] as f64 / self.cycles as f64
                    },
                )
            })
            .collect()
    }

    /// Serialize as a JSON object. Per-queue detail is bounded to the
    /// `top` busiest queues; `queues_omitted` records how many non-empty
    /// queues were dropped so the truncation is never silent.
    pub fn to_json(&self, top: usize) -> String {
        let nonzero = self.peak.iter().filter(|&&p| p > 0).count();
        let top_queues = self.top_queues(top);
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"injected\": {}, \"delivered\": {}, \"cycles\": {}, ",
            self.injected, self.delivered, self.cycles
        );
        let _ = write!(
            out,
            "\"links_total\": {}, \"links_static\": {}, \"links_dynamic\": {}, \"dynamic_share\": {:.6}, ",
            self.links_total(),
            self.links_static,
            self.links_dynamic,
            self.dynamic_share()
        );
        let _ = write!(
            out,
            "\"stutters\": {}, \"blocked_cycles\": {}, \"class_transitions\": {}, ",
            self.stutters, self.blocked_cycles, self.class_transitions
        );
        let _ = write!(
            out,
            "\"faults\": {{\"applied\": {}, \"dropped\": {}, \"reroutes\": {}}}, ",
            self.faults_applied, self.packets_dropped, self.reroutes
        );
        let _ = write!(
            out,
            "\"occupancy\": {{\"peak_max\": {}, \"mean_total\": {:.6}, \"queues_nonzero\": {}, \"queues_omitted\": {}, \"top\": ",
            self.peak_max(),
            self.mean_total(),
            nonzero,
            nonzero.saturating_sub(top_queues.len())
        );
        json::list(&mut out, top_queues, |out, (node, class, peak, mean)| {
            write!(
                out,
                "{{\"node\": {node}, \"class\": {class}, \"peak\": {peak}, \"mean\": {mean:.6}}}"
            )
        });
        out.push_str("}}");
        out
    }
}

impl Recorder for CounterSink {
    fn on_inject(&mut self, _cycle: u64, _pkt: u64, _src: u32, _dst: u32) {
        self.injected += 1;
    }

    fn on_queue_enter(&mut self, _cycle: u64, _pkt: u64, node: u32, class: u8, _occupancy: u32) {
        let q = node as usize * self.num_classes + usize::from(class);
        self.occupancy[q] += 1;
        self.peak[q] = self.peak[q].max(self.occupancy[q]);
    }

    fn on_queue_leave(&mut self, _cycle: u64, _pkt: u64, node: u32, class: u8, _occupancy: u32) {
        let q = node as usize * self.num_classes + usize::from(class);
        debug_assert!(self.occupancy[q] > 0, "queue-leave on empty queue");
        self.occupancy[q] -= 1;
    }

    #[allow(clippy::too_many_arguments)]
    fn on_link(
        &mut self,
        _cycle: u64,
        _pkt: u64,
        _from: u32,
        _to: u32,
        dynamic: bool,
        from_class: u8,
        to_class: u8,
    ) {
        if dynamic {
            self.links_dynamic += 1;
        } else {
            self.links_static += 1;
        }
        if from_class != to_class {
            self.class_transitions += 1;
        }
    }

    fn on_stutter(&mut self, _cycle: u64, _pkt: u64, _node: u32, from_class: u8, to_class: u8) {
        self.stutters += 1;
        if from_class != to_class {
            self.class_transitions += 1;
        }
    }

    fn on_block(&mut self, _cycle: u64, _pkt: u64, _node: u32, _class: u8) {
        self.blocked_cycles += 1;
    }

    fn on_deliver(&mut self, _cycle: u64, _pkt: u64, _latency: u64, _hops: u32, _class: u8) {
        self.delivered += 1;
    }

    fn on_fault(&mut self, _cycle: u64, _kind: u8, _node: u32) {
        self.faults_applied += 1;
    }

    fn on_drop(&mut self, _cycle: u64, _pkt: u64) {
        self.packets_dropped += 1;
    }

    fn on_reroute(&mut self, _cycle: u64, _pkt: u64, node: u32, class: u8) {
        // The reabsorbed packet re-enters a central queue; the engine
        // fires a matching on_queue_enter, so occupancy tracking needs
        // nothing here — just the reroute count.
        let _ = (node, class);
        self.reroutes += 1;
    }

    fn on_cycle_end(&mut self, _cycle: u64) -> Control {
        self.cycles += 1;
        for (s, &o) in self.sum.iter_mut().zip(&self.occupancy) {
            *s += u64::from(o);
        }
        Control::Continue
    }
}

// ---------------------------------------------------------------------
// TraceSink
// ---------------------------------------------------------------------

/// One recorded move of a traced packet.
#[derive(Debug, Clone, Copy)]
struct Hop {
    cycle: u64,
    from: u32,
    to: u32,
    /// `static`, `dynamic`, `stutter` or `reroute`.
    kind: &'static str,
    /// Queue class before and after the move.
    q: [u8; 2],
}

/// How a traced packet's lifecycle ended.
#[derive(Debug, Clone, Copy)]
enum End {
    Delivered { cycle: u64, latency: u64 },
    Dropped { cycle: u64 },
}

/// The part of one packet's lifecycle a [`TraceSink`] saw: its
/// injection header (`src`, `dst`, injection cycle), its hops, and its
/// end. A sequential run's sink sees all of it; a shard's sink sees the
/// events on the shard's nodes, and [`TraceSink::merge_shard`] joins the
/// shards' fragments.
#[derive(Debug, Clone, Default)]
struct Fragment {
    head: Option<(u32, u32, u64)>,
    hops: Vec<Hop>,
    end: Option<End>,
}

impl Fragment {
    /// Render the lifecycle of `pkt` as its JSON line, or `None` if this
    /// fragment holds no injection header (no merged sink saw the
    /// packet's injection).
    ///
    /// Hops sort by cycle, a reroute before any other hop of its cycle.
    /// That is the order a sequential run records: a reroute fires in
    /// the fault pass, before the fill pass, and a packet makes at most
    /// one stutter or link per cycle. So the order comes back whichever
    /// shard recorded each hop.
    fn render(mut self, pkt: u64) -> Option<String> {
        let (src, dst, inject) = self.head?;
        self.hops.sort_by_key(|h| (h.cycle, h.kind != "reroute"));
        let mut line =
            format!("{{\"pkt\": {pkt}, \"src\": {src}, \"dst\": {dst}, \"inject\": {inject}, ");
        let _ = match self.end {
            Some(End::Delivered { cycle, latency }) => write!(
                line,
                "\"deliver\": {cycle}, \"latency\": {latency}, \"delivered\": true"
            ),
            Some(End::Dropped { cycle }) => {
                write!(line, "\"dropped\": {cycle}, \"delivered\": false")
            }
            None => write!(line, "\"delivered\": false"),
        };
        line.push_str(", \"hops\": ");
        json::list(&mut line, &self.hops, |out, h| {
            write!(
                out,
                "{{\"c\": {}, \"from\": {}, \"to\": {}, \"kind\": \"{}\", \"q\": ",
                h.cycle, h.from, h.to, h.kind
            )?;
            json::list(out, h.q, |out, class| write!(out, "{class}"));
            out.push('}');
            Ok(())
        });
        line.push('}');
        Some(line)
    }
}

/// Bounded JSONL packet-lifecycle traces: one JSON line per packet,
/// `inject → hops (static/dynamic, class transitions) → deliver`,
/// enabling post-hoc path reconstruction.
///
/// The sink keeps each traced packet's events until [`TraceSink::flush`]
/// renders the lifecycles, so the lines exist only after a flush. A
/// sharded engine runs one sink per shard; each keeps what its shard
/// saw, and [`TraceSink::merge_shard`] joins them by packet id before
/// the flush.
///
/// Memory is bounded by tracing only the first `limit` packets injected
/// (ids are assigned in injection order); later packets are counted in
/// [`TraceSink::skipped`] so the truncation is visible in the output.
#[derive(Debug, Clone)]
pub struct TraceSink {
    limit: u64,
    /// Per traced packet id, the part of its lifecycle seen so far.
    frags: Vec<Fragment>,
    /// Rendered lifecycles, one JSON line each.
    done: Vec<String>,
    /// Packets beyond the trace bound (not traced).
    pub skipped: u64,
}

impl TraceSink {
    /// Trace the first `limit` packets injected (per run).
    pub fn new(limit: usize) -> Self {
        Self {
            limit: limit as u64,
            frags: Vec::new(),
            done: Vec::new(),
            skipped: 0,
        }
    }

    /// The rendered lifecycle lines. Call [`TraceSink::flush`] first:
    /// before it, a run's lifecycles are still fragments.
    pub fn lines(&self) -> Vec<&str> {
        self.done.iter().map(String::as_str).collect()
    }

    /// Render every traced lifecycle in packet-id order, a packet still
    /// in flight as undelivered. Call once after the run (after
    /// [`TraceSink::merge_shard`] for a sharded one).
    pub fn flush(&mut self) {
        for (pkt, frag) in std::mem::take(&mut self.frags).into_iter().enumerate() {
            self.done.extend(frag.render(pkt as u64));
        }
    }

    /// Append another run's rendered lifecycles (the replication merge;
    /// both sinks flushed); `skipped` counts add.
    pub fn merge(&mut self, other: &TraceSink) {
        self.done.extend(other.done.iter().cloned());
        self.skipped += other.skipped;
    }

    /// Join a sibling shard's sink from the same run, before the flush:
    /// each packet's fragments unite (a header and an end come from the
    /// one shard that saw them, hops from every shard), and `skipped`
    /// counts add.
    pub fn merge_shard(&mut self, other: &TraceSink) {
        if self.frags.len() < other.frags.len() {
            self.frags.resize_with(other.frags.len(), Fragment::default);
        }
        for (mine, theirs) in self.frags.iter_mut().zip(&other.frags) {
            mine.head = mine.head.or(theirs.head);
            mine.hops.extend_from_slice(&theirs.hops);
            mine.end = mine.end.or(theirs.end);
        }
        self.skipped += other.skipped;
    }

    /// The fragment of `pkt`, if traced.
    fn frag(&mut self, pkt: u64) -> Option<&mut Fragment> {
        if pkt >= self.limit {
            return None;
        }
        let slot = pkt as usize;
        if slot >= self.frags.len() {
            self.frags.resize_with(slot + 1, Fragment::default);
        }
        Some(&mut self.frags[slot])
    }

    /// Record a move of `pkt`, if traced.
    fn hop(&mut self, pkt: u64, cycle: u64, from: u32, to: u32, kind: &'static str, q: [u8; 2]) {
        if let Some(f) = self.frag(pkt) {
            f.hops.push(Hop {
                cycle,
                from,
                to,
                kind,
                q,
            });
        }
    }
}

impl Recorder for TraceSink {
    fn on_inject(&mut self, cycle: u64, pkt: u64, src: u32, dst: u32) {
        match self.frag(pkt) {
            // A restore re-fires `on_inject` for every live packet: its
            // lifecycle starts again here.
            Some(f) => {
                *f = Fragment {
                    head: Some((src, dst, cycle)),
                    ..Fragment::default()
                };
            }
            None => self.skipped += 1,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_link(
        &mut self,
        cycle: u64,
        pkt: u64,
        from: u32,
        to: u32,
        dynamic: bool,
        from_class: u8,
        to_class: u8,
    ) {
        let kind = if dynamic { "dynamic" } else { "static" };
        self.hop(pkt, cycle, from, to, kind, [from_class, to_class]);
    }

    fn on_stutter(&mut self, cycle: u64, pkt: u64, node: u32, from_class: u8, to_class: u8) {
        self.hop(pkt, cycle, node, node, "stutter", [from_class, to_class]);
    }

    fn on_deliver(&mut self, cycle: u64, pkt: u64, latency: u64, _hops: u32, _class: u8) {
        if let Some(f) = self.frag(pkt) {
            f.end = Some(End::Delivered { cycle, latency });
        }
    }

    fn on_drop(&mut self, cycle: u64, pkt: u64) {
        if let Some(f) = self.frag(pkt) {
            f.end = Some(End::Dropped { cycle });
        }
    }

    fn on_reroute(&mut self, cycle: u64, pkt: u64, node: u32, class: u8) {
        self.hop(pkt, cycle, node, node, "reroute", [class, class]);
    }
}

// ---------------------------------------------------------------------
// WatchdogSink
// ---------------------------------------------------------------------

/// Evidence captured by [`WatchdogSink`] when a no-progress window
/// elapses: the empirical deadlock/livelock report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// Cycle at which the stall was declared.
    pub cycle: u64,
    /// Undelivered packets at stall time.
    pub in_flight: u64,
    /// Delivery-free window length that triggered the report.
    pub window: u64,
    /// Link traversals inside the window: 0 ⇒ nothing moved at all
    /// (deadlock signature); > 0 ⇒ movement without delivery
    /// (livelock suspect, Faber's sense).
    pub links_in_window: u64,
    /// Oldest undelivered packet: `(pkt, src, dst, inject_cycle)`.
    pub oldest: Option<(u64, u32, u32, u64)>,
    /// Occupancy snapshot at stall time: non-empty queues as
    /// `(node, class, occupancy)`, sorted by node then class.
    pub queues: Vec<(u32, u8, u32)>,
    /// Destinations a fault made unreachable from some live packet
    /// (sorted, deduplicated). Non-empty means the abort is a
    /// *partition*, not a deadlock/livelock: the network lost the graph
    /// property the § 2 conditions presuppose.
    pub partitioned: Vec<u32>,
    /// Blocked wait-for edges at abort time, `(v, c, w, c2)`: some
    /// packet in central queue `(v, c)` wants to move into the full
    /// queue `(w, c2)`. Sorted and deduplicated; a cycle in this
    /// relation is the paper's § 2 deadlock witness. Empty when the
    /// engine did not collect edges (e.g. an older report format).
    pub waits: Vec<(u32, u8, u32, u8)>,
}

impl StallReport {
    /// Classify the abort: `"partitioned"` (a fault disconnected a
    /// destination), `"deadlock"` (no link moved in the whole window —
    /// the § 2 deadlock signature), or `"livelock"` (movement without
    /// delivery, Faber's sense).
    pub fn verdict(&self) -> &'static str {
        if !self.partitioned.is_empty() {
            "partitioned"
        } else if self.links_in_window == 0 {
            "deadlock"
        } else {
            "livelock"
        }
    }

    /// Serialize as a JSON object (the full queue snapshot is included —
    /// a stalled network's non-empty queue set is small by nature).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"verdict\": {}, \"cycle\": {}, \"in_flight\": {}, \"window\": {}, \"links_in_window\": {}, \"partitioned\": ",
            Quoted(self.verdict()),
            self.cycle,
            self.in_flight,
            self.window,
            self.links_in_window
        );
        json::list(&mut out, &self.partitioned, |out, dst| write!(out, "{dst}"));
        match self.oldest {
            Some((pkt, src, dst, inject)) => {
                let _ = write!(
                    out,
                    ", \"oldest\": {{\"pkt\": {pkt}, \"src\": {src}, \"dst\": {dst}, \"inject\": {inject}, \"age\": {}}}",
                    self.cycle.saturating_sub(inject)
                );
            }
            None => out.push_str(", \"oldest\": null"),
        }
        out.push_str(", \"queues\": ");
        json::list(&mut out, &self.queues, |out, (node, class, occ)| {
            write!(
                out,
                "{{\"node\": {node}, \"class\": {class}, \"occupancy\": {occ}}}"
            )
        });
        out.push_str(", \"waits\": ");
        json::list(&mut out, &self.waits, |out, &(v, c, w, c2)| {
            json::list(out, [v, c.into(), w, c2.into()], |out, x: u32| {
                write!(out, "{x}")
            });
            Ok(())
        });
        out.push('}');
        out
    }

    /// Render the blocked wait-for subgraph as Graphviz DOT: one graph
    /// node per § 2 queue `q_class[node]` (annotated with its stall-time
    /// occupancy when the snapshot has it), one edge per wait. Output is
    /// string-stable — nodes and edges appear in sorted order — so it
    /// can be regression-tested byte-for-byte.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph waits {\n");
        let _ = writeln!(
            out,
            "  label=\"{} @ cycle {} (in_flight={})\";",
            self.verdict(),
            self.cycle,
            self.in_flight
        );
        out.push_str("  node [shape=box];\n");
        // Every queue that appears in an edge, sorted; occupancy lookup
        // from the (already node-then-class sorted) queue snapshot.
        let mut queues: Vec<(u32, u8)> = self
            .waits
            .iter()
            .flat_map(|&(v, c, w, c2)| [(v, c), (w, c2)])
            .collect();
        queues.sort_unstable();
        queues.dedup();
        for (v, c) in queues {
            let occ = self
                .queues
                .iter()
                .find(|&&(n, cl, _)| n == v && cl == c)
                .map(|&(_, _, o)| o);
            match occ {
                Some(o) => {
                    let _ = writeln!(out, "  \"q{c}[{v}]\" [label=\"q{c}[{v}] occ={o}\"];");
                }
                None => {
                    let _ = writeln!(out, "  \"q{c}[{v}]\";");
                }
            }
        }
        for &(v, c, w, c2) in &self.waits {
            let _ = writeln!(out, "  \"q{c}[{v}]\" -> \"q{c2}[{w}]\";");
        }
        out.push_str("}\n");
        out
    }
}

/// Detects K-cycle no-progress windows and aborts the run with a
/// structured [`StallReport`] instead of letting it spin to the cycle
/// cap — a reusable empirical deadlock/livelock check replacing ad-hoc
/// "stalled at cycle N" asserts.
///
/// *Progress* means a **delivery**: a window with link movement but no
/// deliveries is reported too (as a livelock suspect), matching the
/// paper's claim structure — deadlock-freedom alone does not rule out
/// packets circulating forever.
#[derive(Debug, Clone)]
pub struct WatchdogSink {
    k: u64,
    last_delivery: u64,
    links_since_delivery: u64,
    in_flight: u64,
    /// Injection records of live packets, `pkt → (inject_cycle, src, dst)`.
    /// Packet ids are assigned in injection order, so the minimum key is
    /// the oldest undelivered packet.
    live: std::collections::BTreeMap<u64, (u64, u32, u32)>,
    /// Current occupancy per (node, class), maintained from queue events.
    occupancy: std::collections::BTreeMap<(u32, u8), u32>,
    /// Destinations reported unreachable by the engine's fault layer.
    partitioned: Vec<u32>,
    /// The stall report, if a stall was detected (the run was aborted).
    pub report: Option<StallReport>,
}

impl WatchdogSink {
    /// Watchdog with a `k`-cycle no-progress window (`k >= 1`).
    pub fn new(k: u64) -> Self {
        assert!(k >= 1, "watchdog window must be at least 1 cycle");
        Self {
            k,
            last_delivery: 0,
            links_since_delivery: 0,
            in_flight: 0,
            live: std::collections::BTreeMap::new(),
            occupancy: std::collections::BTreeMap::new(),
            partitioned: Vec::new(),
            report: None,
        }
    }

    /// Whether a stall was detected.
    pub fn stalled(&self) -> bool {
        self.report.is_some()
    }

    /// Keep the first (earliest-cycle) stall report when merging
    /// per-worker sinks; merge order is fixed, so this is deterministic.
    pub fn merge(&mut self, other: &WatchdogSink) {
        match (&self.report, &other.report) {
            (None, Some(_)) => self.report = other.report.clone(),
            (Some(a), Some(b)) if b.cycle < a.cycle => self.report = other.report.clone(),
            _ => {}
        }
    }
}

impl Recorder for WatchdogSink {
    fn on_inject(&mut self, cycle: u64, pkt: u64, src: u32, dst: u32) {
        self.in_flight += 1;
        self.live.insert(pkt, (cycle, src, dst));
    }

    fn on_queue_enter(&mut self, _cycle: u64, _pkt: u64, node: u32, class: u8, _occupancy: u32) {
        *self.occupancy.entry((node, class)).or_insert(0) += 1;
    }

    fn on_queue_leave(&mut self, _cycle: u64, _pkt: u64, node: u32, class: u8, _occupancy: u32) {
        if let Some(o) = self.occupancy.get_mut(&(node, class)) {
            *o = o.saturating_sub(1);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_link(
        &mut self,
        _cycle: u64,
        _pkt: u64,
        _from: u32,
        _to: u32,
        _dynamic: bool,
        _from_class: u8,
        _to_class: u8,
    ) {
        self.links_since_delivery += 1;
    }

    fn on_deliver(&mut self, cycle: u64, pkt: u64, _latency: u64, _hops: u32, _class: u8) {
        self.in_flight -= 1;
        self.live.remove(&pkt);
        self.last_delivery = cycle;
        self.links_since_delivery = 0;
    }

    fn on_resume(&mut self, cycle: u64) {
        // A restored run re-bases the no-progress window at the resume
        // cycle (the checkpoint does not carry watchdog state); the
        // priming on_inject/on_queue_enter events that follow rebuild
        // the live set and occupancy map from the snapshot.
        self.last_delivery = cycle;
        self.links_since_delivery = 0;
    }

    fn on_stall_waits(&mut self, edges: &[(u32, u8, u32, u8)]) {
        if let Some(r) = &mut self.report {
            r.waits = edges.to_vec();
        }
    }

    fn on_drop(&mut self, _cycle: u64, pkt: u64) {
        // A fault destroyed the packet: it will never deliver, so it must
        // stop counting toward the no-progress in-flight set.
        self.in_flight -= 1;
        self.live.remove(&pkt);
    }

    fn on_partition(&mut self, _cycle: u64, dst: u32) {
        if !self.partitioned.contains(&dst) {
            self.partitioned.push(dst);
        }
    }

    fn on_cycle_end(&mut self, cycle: u64) -> Control {
        if self.report.is_some() {
            return Control::Stop;
        }
        let partition = !self.partitioned.is_empty();
        if !partition && (self.in_flight == 0 || cycle.saturating_sub(self.last_delivery) < self.k)
        {
            return Control::Continue;
        }
        let queues: Vec<(u32, u8, u32)> = self
            .occupancy
            .iter()
            .filter(|(_, &o)| o > 0)
            .map(|(&(node, class), &o)| (node, class, o))
            .collect();
        let mut partitioned = self.partitioned.clone();
        partitioned.sort_unstable();
        self.report = Some(StallReport {
            cycle,
            in_flight: self.in_flight,
            window: cycle - self.last_delivery,
            links_in_window: self.links_since_delivery,
            oldest: self
                .live
                .iter()
                .next()
                .map(|(&pkt, &(inject, src, dst))| (pkt, src, dst, inject)),
            queues,
            partitioned,
            waits: Vec::new(),
        });
        Control::Stop
    }
}

// ---------------------------------------------------------------------
// JournalSink
// ---------------------------------------------------------------------

/// One journaled event: `(cycle, kind, pkt, a, b, c, d)`. `kind` is one
/// of the `EV_*` codes; the payload fields `a..d` depend on it (see
/// [`JournalSink`]'s line renderer for the per-kind meaning).
pub type JournalEvent = (u64, u8, u64, u32, u32, u32, u32);

/// Journal event kinds, in sort order.
pub mod journal_kind {
    /// Packet injected: `a = src, b = dst`.
    pub const INJECT: u8 = 0;
    /// Packet entered queue: `a = node, b = class, c = occupancy`.
    pub const QUEUE_ENTER: u8 = 1;
    /// Packet left queue: `a = node, b = class, c = occupancy`.
    pub const QUEUE_LEAVE: u8 = 2;
    /// Link traversal: `a = from, b = to, c = dynamic, d = from_class << 8 | to_class`.
    pub const LINK: u8 = 3;
    /// Internal stutter: `a = node, b = from_class, c = to_class`.
    pub const STUTTER: u8 = 4;
    /// Blocked move: `a = node, b = class`.
    pub const BLOCK: u8 = 5;
    /// Delivery: `a = latency high bits, b = latency low bits, c = hops, d = class`.
    pub const DELIVER: u8 = 6;
    /// Fault applied: `a = kind code, b = node`.
    pub const FAULT: u8 = 7;
    /// Packet destroyed by a fault.
    pub const DROP: u8 = 8;
    /// Packet reabsorbed and rerouted: `a = node, b = class`.
    pub const REROUTE: u8 = 9;
    /// Destination partitioned: `a = dst`.
    pub const PARTITION: u8 = 10;

    /// Human-readable name of a kind code.
    pub fn name(kind: u8) -> &'static str {
        match kind {
            INJECT => "inject",
            QUEUE_ENTER => "queue_enter",
            QUEUE_LEAVE => "queue_leave",
            LINK => "link",
            STUTTER => "stutter",
            BLOCK => "block",
            DELIVER => "deliver",
            FAULT => "fault",
            DROP => "drop",
            REROUTE => "reroute",
            PARTITION => "partition",
            _ => "unknown",
        }
    }
}

/// Bounded ring-buffer event journal with an order-insensitive stream
/// hash — the flight recorder's replay substrate.
///
/// Events are staged per cycle and sorted by their full tuple at
/// [`Recorder::on_cycle_end`], which makes the journal a *canonical*
/// rendering of the cycle's event multiset: two runs producing the same
/// events in any within-cycle order journal identically, which is what
/// lets per-shard journals merge bit-identically to a sequential run's.
///
/// Memory is bounded by `capacity` events; older events fall off the
/// front (counted in [`JournalSink::dropped`], never silent). The
/// stream [`JournalSink::hash`] — a wrapping *sum* of per-event FNV-1a
/// hashes — is commutative and accumulated at emit time, so it is
/// independent of both ring truncation and shard-merge order: equal
/// hashes + equal counts certify equal event streams without retaining
/// them.
///
/// After [`Recorder::on_resume`], events at or before the resume cycle
/// are excluded (the restore-time priming events re-announce pre-resume
/// state and must not pollute the resumed journal); compare resumed
/// against straight-through journals on cycles strictly after the
/// checkpoint.
#[derive(Debug, Clone)]
pub struct JournalSink {
    capacity: usize,
    ring: std::collections::VecDeque<JournalEvent>,
    batch: Vec<JournalEvent>,
    hash: u64,
    count: u64,
    /// Events evicted from the ring (journal truncated, hash still exact).
    pub dropped: u64,
    /// Events at or before this cycle are ignored (set by a resume).
    floor: Option<u64>,
}

impl JournalSink {
    /// Default ring capacity (events).
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Journal bounded to `capacity` events (`>= 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "journal capacity must be at least 1");
        Self {
            capacity,
            ring: std::collections::VecDeque::new(),
            batch: Vec::new(),
            hash: 0,
            count: 0,
            dropped: 0,
            floor: None,
        }
    }

    /// Order-insensitive stream hash: wrapping sum of per-event FNV-1a
    /// hashes over every event emitted (including ring-evicted ones).
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Total events emitted (including ring-evicted ones).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Retained events, oldest first (call after the run; the final
    /// cycle's batch is folded in by its `on_cycle_end`).
    pub fn events(&self) -> impl Iterator<Item = &JournalEvent> {
        self.ring.iter()
    }

    /// Render the retained events one per line:
    /// `<cycle> <kind> pkt=<pkt> <a> <b> <c> <d>`. Line-diffing two
    /// journals localizes the first divergent event.
    pub fn lines(&self) -> Vec<String> {
        self.ring
            .iter()
            .map(|&(cycle, kind, pkt, a, b, c, d)| {
                format!(
                    "{cycle} {} pkt={pkt} {a} {b} {c} {d}",
                    journal_kind::name(kind)
                )
            })
            .collect()
    }

    fn fnv(ev: &JournalEvent) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&ev.0.to_le_bytes());
        eat(&[ev.1]);
        eat(&ev.2.to_le_bytes());
        eat(&ev.3.to_le_bytes());
        eat(&ev.4.to_le_bytes());
        eat(&ev.5.to_le_bytes());
        eat(&ev.6.to_le_bytes());
        h
    }

    fn push(&mut self, ev: JournalEvent) {
        if self.floor.is_some_and(|f| ev.0 <= f) {
            return;
        }
        self.batch.push(ev);
    }

    /// Merge a sibling shard's journal from the same run: retained
    /// events interleave into global tuple order (re-truncating to this
    /// sink's capacity from the front, oldest evicted first), hashes
    /// and counts add. Both sinks must have folded their final batch
    /// (the run's last `on_cycle_end` does).
    ///
    /// `PARTITION` events are canonicalized to one per destination (the
    /// earliest): a sequential run's `partitioned.contains` guard
    /// reports each unreachable destination once, but shard replicas
    /// keep independent guards, so two shards holding packets for the
    /// same dead destination would otherwise both journal it and the
    /// merged stream could never equal the sequential one. Duplicates
    /// are removed from the ring, hash, and count alike (exact as long
    /// as they were retained — the capacity caveat above).
    pub fn merge_shard(&mut self, other: &JournalSink) {
        debug_assert!(self.batch.is_empty() && other.batch.is_empty());
        let mut all: Vec<JournalEvent> = self.ring.drain(..).collect();
        all.extend(other.ring.iter().copied());
        all.sort_unstable();
        self.hash = self.hash.wrapping_add(other.hash);
        self.count += other.count;
        let mut seen_partition: Vec<u32> = Vec::new();
        all.retain(|ev| {
            if ev.1 != journal_kind::PARTITION {
                return true;
            }
            if seen_partition.contains(&ev.3) {
                self.hash = self.hash.wrapping_sub(Self::fnv(ev));
                self.count -= 1;
                return false;
            }
            seen_partition.push(ev.3);
            true
        });
        let evict = all.len().saturating_sub(self.capacity);
        self.dropped += other.dropped + evict as u64;
        self.ring.extend(all.into_iter().skip(evict));
        self.floor = self.floor.max(other.floor);
    }
}

impl Recorder for JournalSink {
    fn on_inject(&mut self, cycle: u64, pkt: u64, src: u32, dst: u32) {
        self.push((cycle, journal_kind::INJECT, pkt, src, dst, 0, 0));
    }

    fn on_queue_enter(&mut self, cycle: u64, pkt: u64, node: u32, class: u8, occupancy: u32) {
        self.push((
            cycle,
            journal_kind::QUEUE_ENTER,
            pkt,
            node,
            u32::from(class),
            occupancy,
            0,
        ));
    }

    fn on_queue_leave(&mut self, cycle: u64, pkt: u64, node: u32, class: u8, occupancy: u32) {
        self.push((
            cycle,
            journal_kind::QUEUE_LEAVE,
            pkt,
            node,
            u32::from(class),
            occupancy,
            0,
        ));
    }

    #[allow(clippy::too_many_arguments)]
    fn on_link(
        &mut self,
        cycle: u64,
        pkt: u64,
        from: u32,
        to: u32,
        dynamic: bool,
        from_class: u8,
        to_class: u8,
    ) {
        self.push((
            cycle,
            journal_kind::LINK,
            pkt,
            from,
            to,
            u32::from(dynamic),
            u32::from(from_class) << 8 | u32::from(to_class),
        ));
    }

    fn on_stutter(&mut self, cycle: u64, pkt: u64, node: u32, from_class: u8, to_class: u8) {
        self.push((
            cycle,
            journal_kind::STUTTER,
            pkt,
            node,
            u32::from(from_class),
            u32::from(to_class),
            0,
        ));
    }

    fn on_block(&mut self, cycle: u64, pkt: u64, node: u32, class: u8) {
        self.push((
            cycle,
            journal_kind::BLOCK,
            pkt,
            node,
            u32::from(class),
            0,
            0,
        ));
    }

    fn on_deliver(&mut self, cycle: u64, pkt: u64, latency: u64, hops: u32, class: u8) {
        self.push((
            cycle,
            journal_kind::DELIVER,
            pkt,
            u32::try_from(latency >> 32).unwrap_or(u32::MAX),
            latency as u32,
            hops,
            u32::from(class),
        ));
    }

    fn on_fault(&mut self, cycle: u64, kind: u8, node: u32) {
        self.push((cycle, journal_kind::FAULT, 0, u32::from(kind), node, 0, 0));
    }

    fn on_drop(&mut self, cycle: u64, pkt: u64) {
        self.push((cycle, journal_kind::DROP, pkt, 0, 0, 0, 0));
    }

    fn on_reroute(&mut self, cycle: u64, pkt: u64, node: u32, class: u8) {
        self.push((
            cycle,
            journal_kind::REROUTE,
            pkt,
            node,
            u32::from(class),
            0,
            0,
        ));
    }

    fn on_partition(&mut self, cycle: u64, dst: u32) {
        self.push((cycle, journal_kind::PARTITION, 0, dst, 0, 0, 0));
    }

    fn on_resume(&mut self, cycle: u64) {
        self.floor = Some(cycle);
    }

    fn on_cycle_end(&mut self, _cycle: u64) -> Control {
        self.batch.sort_unstable();
        for ev in self.batch.drain(..) {
            self.hash = self.hash.wrapping_add(Self::fnv(&ev));
            self.count += 1;
            if self.ring.len() == self.capacity {
                self.ring.pop_front();
                self.dropped += 1;
            }
            self.ring.push_back(ev);
        }
        Control::Continue
    }
}

// ---------------------------------------------------------------------
// LatencySink
// ---------------------------------------------------------------------

/// Per-class delivery-latency distributions: one [`crate::LogHistogram`] per
/// central-queue class, keyed by the class the packet last resided in,
/// exporting p50/p95/p99/max per class. Motivated by Faber's
/// absolute-delivery-bound schemes (PAPERS.md): a bound violation shows
/// up as a percentile tail, which a mean hides.
///
/// All state is integer, so shard merges are exact and
/// order-insensitive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySink {
    classes: Vec<crate::LogHistogram>,
}

impl LatencySink {
    /// Sink for a network with `num_classes` central-queue classes.
    pub fn new(num_classes: usize) -> Self {
        Self {
            classes: vec![crate::LogHistogram::new(); num_classes.max(1)],
        }
    }

    /// The histogram for `class` (empty histogram if out of range).
    pub fn class(&self, class: usize) -> Option<&crate::LogHistogram> {
        self.classes.get(class)
    }

    /// Total deliveries across all classes.
    pub fn total(&self) -> u64 {
        self.classes.iter().map(crate::LogHistogram::total).sum()
    }

    /// Merge another sink of the same shape (exact, order-insensitive).
    pub fn merge(&mut self, other: &LatencySink) {
        assert_eq!(
            self.classes.len(),
            other.classes.len(),
            "merging latency sinks of different class counts"
        );
        for (a, b) in self.classes.iter_mut().zip(&other.classes) {
            a.merge(b);
        }
    }

    /// Serialize as a JSON object: per-class count, p50/p95/p99 (bucket
    /// upper bounds, <25% overestimate), and the exact max.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"classes\": ");
        json::list(&mut out, self.classes.iter().enumerate(), |out, (i, h)| {
            write!(
                out,
                "{{\"class\": {i}, \"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
                h.total(),
                h.percentile(0.50),
                h.percentile(0.95),
                h.percentile(0.99),
                h.max()
            )
        });
        out.push('}');
        out
    }
}

impl Recorder for LatencySink {
    fn on_deliver(&mut self, _cycle: u64, _pkt: u64, latency: u64, _hops: u32, class: u8) {
        if let Some(h) = self.classes.get_mut(usize::from(class)) {
            h.record(latency);
        }
    }
}

// ---------------------------------------------------------------------
// WaitGraphSink
// ---------------------------------------------------------------------

/// Live wait-for-graph probe: consumes the engine's per-cycle blocked
/// wait-for relation ([`Recorder::on_wait_probe`]) and tracks (a) the
/// longest blocked-chain depth seen and (b) cycles whose wait-for
/// relation contained a directed cycle — an *emerging* § 2 deadlock
/// candidate, visible before a watchdog's no-progress window elapses.
///
/// A cycle among full queues does not by itself prove deadlock (a
/// packet may still drain around it), so these are reported as
/// candidates; chain depth is the longest acyclic path in the relation
/// (back edges contribute nothing), a deterministic lower bound on the
/// true blocked-chain length when cycles are present.
///
/// The relation is global: a sharded engine assembles it from every
/// shard's queues and hands it to shard 0's sink only, so the other
/// shards' copies stay empty and [`SinkSet::merge_shard`] keeps shard
/// 0's.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WaitGraphSink {
    /// Probes consumed (one per cycle with collection enabled).
    pub probes: u64,
    /// Longest blocked-chain depth (queues in the chain) ever seen.
    pub max_chain_depth: u32,
    /// Cycle at which the deepest chain was first seen.
    pub max_chain_cycle: u64,
    /// First cycle whose wait-for relation contained a directed cycle.
    pub first_cycle_candidate: Option<u64>,
    /// Number of cycles whose relation contained a directed cycle.
    pub cycle_candidate_cycles: u64,
    /// Edge count of the most recent probe.
    pub last_edges: usize,
}

impl WaitGraphSink {
    /// New probe consumer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Longest-path + cycle analysis of a wait-for relation; returns
    /// `(chain_depth, has_cycle)` where `chain_depth` counts queues
    /// (edges + 1 on the longest acyclic path; 0 for an empty relation).
    /// Deterministic: nodes are visited in sorted order.
    fn analyze(edges: &[(u32, u8, u32, u8)]) -> (u32, bool) {
        if edges.is_empty() {
            return (0, false);
        }
        let mut nodes: Vec<(u32, u8)> = edges
            .iter()
            .flat_map(|&(v, c, w, c2)| [(v, c), (w, c2)])
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        let id = |q: (u32, u8)| nodes.binary_search(&q).expect("endpoint indexed");
        let mut adj = vec![Vec::new(); nodes.len()];
        for &(v, c, w, c2) in edges {
            adj[id((v, c))].push(id((w, c2)));
        }
        let mut color = vec![0u8; nodes.len()]; // 0 white, 1 gray, 2 black
        let mut depth = vec![0u32; nodes.len()]; // longest path (edges) from node
        let mut has_cycle = false;
        for s in 0..nodes.len() {
            if color[s] != 0 {
                continue;
            }
            color[s] = 1;
            let mut stack: Vec<(usize, usize)> = vec![(s, 0)];
            while let Some(&(u, ci)) = stack.last() {
                if ci < adj[u].len() {
                    stack.last_mut().expect("frame exists").1 += 1;
                    let v = adj[u][ci];
                    match color[v] {
                        0 => {
                            color[v] = 1;
                            stack.push((v, 0));
                        }
                        1 => has_cycle = true, // back edge: cycle candidate
                        _ => depth[u] = depth[u].max(depth[v] + 1),
                    }
                } else {
                    color[u] = 2;
                    stack.pop();
                    if let Some(&(p, _)) = stack.last() {
                        depth[p] = depth[p].max(depth[u] + 1);
                    }
                }
            }
        }
        (depth.iter().max().copied().unwrap_or(0) + 1, has_cycle)
    }

    /// Serialize as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"probes\": {}, \"max_chain_depth\": {}, \"max_chain_cycle\": {}, \"cycle_candidate_cycles\": {}, \"first_cycle_candidate\": ",
            self.probes, self.max_chain_depth, self.max_chain_cycle, self.cycle_candidate_cycles
        );
        match self.first_cycle_candidate {
            Some(c) => {
                let _ = write!(out, "{c}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(out, ", \"last_edges\": {}}}", self.last_edges);
        out
    }
}

impl Recorder for WaitGraphSink {
    fn on_wait_probe(&mut self, cycle: u64, edges: &[(u32, u8, u32, u8)]) {
        self.probes += 1;
        self.last_edges = edges.len();
        let (depth, has_cycle) = Self::analyze(edges);
        if depth > self.max_chain_depth {
            self.max_chain_depth = depth;
            self.max_chain_cycle = cycle;
        }
        if has_cycle {
            self.cycle_candidate_cycles += 1;
            if self.first_cycle_candidate.is_none() {
                self.first_cycle_candidate = Some(cycle);
            }
        }
    }

    fn want_waitgraph(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------
// SinkSet
// ---------------------------------------------------------------------

/// A composable bundle of the sinks, itself a [`Recorder`]: the harness
/// enables any subset via the `--trace` / `--metrics-out` /
/// `--watchdog` / `--journal` / `--waitgraph` flags and merges
/// per-worker sets deterministically.
#[derive(Debug, Clone, Default)]
pub struct SinkSet {
    /// Routing-decision counters, if enabled.
    pub counters: Option<CounterSink>,
    /// Packet-lifecycle traces, if enabled.
    pub trace: Option<TraceSink>,
    /// No-progress watchdog, if enabled.
    pub watchdog: Option<WatchdogSink>,
    /// Ring-buffer event journal, if enabled.
    pub journal: Option<JournalSink>,
    /// Per-class delivery-latency percentiles, if enabled.
    pub latency: Option<LatencySink>,
    /// Live wait-for-graph probe, if enabled.
    pub waitgraph: Option<WaitGraphSink>,
}

impl SinkSet {
    /// Empty set (records nothing, but still pays the dispatch branches
    /// — use [`NoRecorder`] for the true zero-cost path).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a [`CounterSink`] for the given network shape.
    pub fn with_counters(mut self, num_nodes: usize, num_classes: usize) -> Self {
        self.counters = Some(CounterSink::new(num_nodes, num_classes));
        self
    }

    /// Add a [`TraceSink`] bounded to `limit` packets.
    pub fn with_trace(mut self, limit: usize) -> Self {
        self.trace = Some(TraceSink::new(limit));
        self
    }

    /// Add a [`WatchdogSink`] with a `k`-cycle window.
    pub fn with_watchdog(mut self, k: u64) -> Self {
        self.watchdog = Some(WatchdogSink::new(k));
        self
    }

    /// Add a [`JournalSink`] bounded to `capacity` events.
    pub fn with_journal(mut self, capacity: usize) -> Self {
        self.journal = Some(JournalSink::new(capacity));
        self
    }

    /// Add a [`LatencySink`] for `num_classes` central-queue classes.
    pub fn with_latency(mut self, num_classes: usize) -> Self {
        self.latency = Some(LatencySink::new(num_classes));
        self
    }

    /// Add a [`WaitGraphSink`].
    pub fn with_waitgraph(mut self) -> Self {
        self.waitgraph = Some(WaitGraphSink::new());
        self
    }

    /// Merge another set (same sink configuration) into this one. Call
    /// in a fixed order over per-worker sinks for deterministic output.
    pub fn merge(&mut self, other: &SinkSet) {
        match (&mut self.counters, &other.counters) {
            (Some(a), Some(b)) => a.merge(b),
            (slot @ None, Some(b)) => *slot = Some(b.clone()),
            _ => {}
        }
        match (&mut self.trace, &other.trace) {
            (Some(a), Some(b)) => a.merge(b),
            (slot @ None, Some(b)) => *slot = Some(b.clone()),
            _ => {}
        }
        match (&mut self.watchdog, &other.watchdog) {
            (Some(a), Some(b)) => a.merge(b),
            (slot @ None, Some(b)) => *slot = Some(b.clone()),
            _ => {}
        }
        match (&mut self.latency, &other.latency) {
            (Some(a), Some(b)) => a.merge(b),
            (slot @ None, Some(b)) => *slot = Some(b.clone()),
            _ => {}
        }
        // Journals and wait-graph probes describe *one* run each; when
        // merging across replications (row aggregation) the first
        // non-empty one is kept rather than mixing streams.
        if self.journal.is_none() {
            self.journal.clone_from(&other.journal);
        }
        if self.waitgraph.is_none() {
            self.waitgraph.clone_from(&other.waitgraph);
        }
    }

    /// Merge a sibling shard's set from the *same* run (fixed shard
    /// order): counters via [`CounterSink::merge_shard`] (cycle counts
    /// take the max), traces via [`TraceSink::merge_shard`] (each
    /// packet's fragments join), watchdogs via [`WatchdogSink::merge`]
    /// (earliest report wins — present only when a harness installed an
    /// engine's report).
    pub fn merge_shard(&mut self, other: &SinkSet) {
        match (&mut self.counters, &other.counters) {
            (Some(a), Some(b)) => a.merge_shard(b),
            (slot @ None, Some(b)) => *slot = Some(b.clone()),
            _ => {}
        }
        match (&mut self.trace, &other.trace) {
            (Some(a), Some(b)) => a.merge_shard(b),
            (slot @ None, Some(b)) => *slot = Some(b.clone()),
            _ => {}
        }
        match (&mut self.watchdog, &other.watchdog) {
            (Some(a), Some(b)) => a.merge(b),
            (slot @ None, Some(b)) => *slot = Some(b.clone()),
            _ => {}
        }
        match (&mut self.journal, &other.journal) {
            (Some(a), Some(b)) => a.merge_shard(b),
            (slot @ None, Some(b)) => *slot = Some(b.clone()),
            _ => {}
        }
        match (&mut self.latency, &other.latency) {
            (Some(a), Some(b)) => a.merge(b),
            (slot @ None, Some(b)) => *slot = Some(b.clone()),
            _ => {}
        }
        // The engine hands the whole-network wait-for graph to shard 0
        // only, so shard 0's WaitGraphSink (already in `self`) is the
        // run's.
    }

    /// Flush the trace sink (renders its lifecycles, see
    /// [`TraceSink::flush`]).
    pub fn flush(&mut self) {
        if let Some(t) = &mut self.trace {
            t.flush();
        }
    }

    /// The watchdog's stall report, if any.
    pub fn stall(&self) -> Option<&StallReport> {
        self.watchdog.as_ref().and_then(|w| w.report.as_ref())
    }
}

impl ShardRecorder for SinkSet {
    fn shardable(&self) -> bool {
        // A per-shard watchdog would see only its shard's deliveries and
        // stall-report a healthy network; engines run the watchdog in
        // their run loop on global progress instead.
        self.watchdog.is_none()
    }

    fn merge_shard(&mut self, other: &Self) {
        SinkSet::merge_shard(self, other);
    }
}

impl Recorder for SinkSet {
    fn on_inject(&mut self, cycle: u64, pkt: u64, src: u32, dst: u32) {
        if let Some(c) = &mut self.counters {
            c.on_inject(cycle, pkt, src, dst);
        }
        if let Some(t) = &mut self.trace {
            t.on_inject(cycle, pkt, src, dst);
        }
        if let Some(w) = &mut self.watchdog {
            w.on_inject(cycle, pkt, src, dst);
        }
        if let Some(j) = &mut self.journal {
            j.on_inject(cycle, pkt, src, dst);
        }
    }

    fn on_queue_enter(&mut self, cycle: u64, pkt: u64, node: u32, class: u8, occupancy: u32) {
        if let Some(c) = &mut self.counters {
            c.on_queue_enter(cycle, pkt, node, class, occupancy);
        }
        if let Some(w) = &mut self.watchdog {
            w.on_queue_enter(cycle, pkt, node, class, occupancy);
        }
        if let Some(j) = &mut self.journal {
            j.on_queue_enter(cycle, pkt, node, class, occupancy);
        }
    }

    fn on_queue_leave(&mut self, cycle: u64, pkt: u64, node: u32, class: u8, occupancy: u32) {
        if let Some(c) = &mut self.counters {
            c.on_queue_leave(cycle, pkt, node, class, occupancy);
        }
        if let Some(w) = &mut self.watchdog {
            w.on_queue_leave(cycle, pkt, node, class, occupancy);
        }
        if let Some(j) = &mut self.journal {
            j.on_queue_leave(cycle, pkt, node, class, occupancy);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_link(
        &mut self,
        cycle: u64,
        pkt: u64,
        from: u32,
        to: u32,
        dynamic: bool,
        from_class: u8,
        to_class: u8,
    ) {
        if let Some(c) = &mut self.counters {
            c.on_link(cycle, pkt, from, to, dynamic, from_class, to_class);
        }
        if let Some(t) = &mut self.trace {
            t.on_link(cycle, pkt, from, to, dynamic, from_class, to_class);
        }
        if let Some(w) = &mut self.watchdog {
            w.on_link(cycle, pkt, from, to, dynamic, from_class, to_class);
        }
        if let Some(j) = &mut self.journal {
            j.on_link(cycle, pkt, from, to, dynamic, from_class, to_class);
        }
    }

    fn on_stutter(&mut self, cycle: u64, pkt: u64, node: u32, from_class: u8, to_class: u8) {
        if let Some(c) = &mut self.counters {
            c.on_stutter(cycle, pkt, node, from_class, to_class);
        }
        if let Some(t) = &mut self.trace {
            t.on_stutter(cycle, pkt, node, from_class, to_class);
        }
        if let Some(j) = &mut self.journal {
            j.on_stutter(cycle, pkt, node, from_class, to_class);
        }
    }

    fn on_block(&mut self, cycle: u64, pkt: u64, node: u32, class: u8) {
        if let Some(c) = &mut self.counters {
            c.on_block(cycle, pkt, node, class);
        }
        if let Some(j) = &mut self.journal {
            j.on_block(cycle, pkt, node, class);
        }
    }

    fn on_deliver(&mut self, cycle: u64, pkt: u64, latency: u64, hops: u32, class: u8) {
        if let Some(c) = &mut self.counters {
            c.on_deliver(cycle, pkt, latency, hops, class);
        }
        if let Some(t) = &mut self.trace {
            t.on_deliver(cycle, pkt, latency, hops, class);
        }
        if let Some(w) = &mut self.watchdog {
            w.on_deliver(cycle, pkt, latency, hops, class);
        }
        if let Some(j) = &mut self.journal {
            j.on_deliver(cycle, pkt, latency, hops, class);
        }
        if let Some(l) = &mut self.latency {
            l.on_deliver(cycle, pkt, latency, hops, class);
        }
    }

    fn on_fault(&mut self, cycle: u64, kind: u8, node: u32) {
        if let Some(c) = &mut self.counters {
            c.on_fault(cycle, kind, node);
        }
        if let Some(j) = &mut self.journal {
            j.on_fault(cycle, kind, node);
        }
    }

    fn on_drop(&mut self, cycle: u64, pkt: u64) {
        if let Some(c) = &mut self.counters {
            c.on_drop(cycle, pkt);
        }
        if let Some(t) = &mut self.trace {
            t.on_drop(cycle, pkt);
        }
        if let Some(w) = &mut self.watchdog {
            w.on_drop(cycle, pkt);
        }
        if let Some(j) = &mut self.journal {
            j.on_drop(cycle, pkt);
        }
    }

    fn on_reroute(&mut self, cycle: u64, pkt: u64, node: u32, class: u8) {
        if let Some(c) = &mut self.counters {
            c.on_reroute(cycle, pkt, node, class);
        }
        if let Some(t) = &mut self.trace {
            t.on_reroute(cycle, pkt, node, class);
        }
        if let Some(j) = &mut self.journal {
            j.on_reroute(cycle, pkt, node, class);
        }
    }

    fn on_partition(&mut self, cycle: u64, dst: u32) {
        if let Some(w) = &mut self.watchdog {
            w.on_partition(cycle, dst);
        }
        if let Some(j) = &mut self.journal {
            j.on_partition(cycle, dst);
        }
    }

    fn on_resume(&mut self, cycle: u64) {
        if let Some(w) = &mut self.watchdog {
            w.on_resume(cycle);
        }
        if let Some(j) = &mut self.journal {
            j.on_resume(cycle);
        }
    }

    fn on_wait_probe(&mut self, cycle: u64, edges: &[(u32, u8, u32, u8)]) {
        if let Some(g) = &mut self.waitgraph {
            g.on_wait_probe(cycle, edges);
        }
    }

    fn on_stall_waits(&mut self, edges: &[(u32, u8, u32, u8)]) {
        if let Some(w) = &mut self.watchdog {
            w.on_stall_waits(edges);
        }
    }

    fn want_waitgraph(&self) -> bool {
        self.waitgraph.is_some()
    }

    fn on_cycle_end(&mut self, cycle: u64) -> Control {
        if let Some(c) = &mut self.counters {
            let _ = c.on_cycle_end(cycle);
        }
        if let Some(j) = &mut self.journal {
            let _ = j.on_cycle_end(cycle);
        }
        if let Some(w) = &mut self.watchdog {
            if w.on_cycle_end(cycle) == Control::Stop {
                return Control::Stop;
            }
        }
        Control::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a tiny synthetic event stream through a sink.
    fn feed(rec: &mut impl Recorder) {
        rec.on_inject(0, 0, 1, 2);
        rec.on_queue_enter(0, 0, 1, 0, 1);
        rec.on_queue_leave(1, 0, 1, 0, 0);
        rec.on_link(1, 0, 1, 2, false, 0, 1);
        rec.on_queue_enter(2, 0, 2, 1, 1);
        rec.on_block(3, 0, 2, 1);
        rec.on_queue_leave(4, 0, 2, 1, 0);
        rec.on_link(4, 0, 2, 3, true, 1, 1);
        rec.on_deliver(5, 0, 11, 2, 1);
        assert_eq!(rec.on_cycle_end(5), Control::Continue);
    }

    #[test]
    fn counter_sink_counts() {
        let mut c = CounterSink::new(4, 2);
        feed(&mut c);
        assert_eq!(c.injected, 1);
        assert_eq!(c.delivered, 1);
        assert_eq!(c.links_static, 1);
        assert_eq!(c.links_dynamic, 1);
        assert_eq!(c.links_total(), 2);
        assert!((c.dynamic_share() - 0.5).abs() < 1e-12);
        assert_eq!(c.blocked_cycles, 1);
        assert_eq!(c.class_transitions, 1);
        assert_eq!(c.queue_peak(1, 0), 1);
        assert_eq!(c.queue_peak(2, 1), 1);
        assert_eq!(c.peak_max(), 1);
        let j = c.to_json(8);
        assert!(j.contains("\"dynamic_share\": 0.5"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn counter_sink_merge_adds_and_maxes() {
        let mut a = CounterSink::new(4, 2);
        let mut b = CounterSink::new(4, 2);
        feed(&mut a);
        b.on_queue_enter(0, 1, 0, 0, 1);
        b.on_queue_enter(0, 2, 0, 0, 2);
        let _ = b.on_cycle_end(0);
        a.merge(&b);
        assert_eq!(a.links_total(), 2);
        assert_eq!(a.queue_peak(0, 0), 2);
        assert_eq!(a.cycles, 2);
    }

    #[test]
    fn trace_sink_renders_lifecycles() {
        let mut t = TraceSink::new(1);
        feed(&mut t);
        // Second packet is beyond the bound.
        t.on_inject(6, 1, 3, 0);
        t.flush();
        assert_eq!(t.lines().len(), 1);
        assert_eq!(t.skipped, 1);
        let line = &t.lines()[0];
        assert!(line.contains("\"delivered\": true"));
        assert!(line.contains("\"kind\": \"static\""));
        assert!(line.contains("\"kind\": \"dynamic\""));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    #[test]
    fn trace_sink_flush_marks_undelivered() {
        let mut t = TraceSink::new(4);
        t.on_inject(0, 0, 1, 2);
        t.on_link(1, 0, 1, 2, false, 0, 0);
        t.flush();
        assert_eq!(t.lines().len(), 1);
        assert!(t.lines()[0].contains("\"delivered\": false"));
    }

    #[test]
    fn watchdog_fires_after_k_dry_cycles() {
        let mut w = WatchdogSink::new(3);
        w.on_inject(0, 0, 5, 9);
        w.on_queue_enter(0, 0, 5, 0, 1);
        assert_eq!(w.on_cycle_end(0), Control::Continue);
        assert_eq!(w.on_cycle_end(1), Control::Continue);
        assert_eq!(w.on_cycle_end(2), Control::Continue);
        assert_eq!(w.on_cycle_end(3), Control::Stop);
        let r = w.report.as_ref().expect("stall detected");
        assert_eq!(r.in_flight, 1);
        assert_eq!(r.oldest, Some((0, 5, 9, 0)));
        assert_eq!(r.queues, vec![(5, 0, 1)]);
        assert_eq!(r.links_in_window, 0, "deadlock signature: nothing moved");
        let j = r.to_json();
        assert!(j.contains("\"in_flight\": 1"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn watchdog_deliveries_reset_the_window() {
        let mut w = WatchdogSink::new(2);
        w.on_inject(0, 0, 0, 1);
        w.on_inject(0, 1, 1, 0);
        assert_eq!(w.on_cycle_end(0), Control::Continue);
        w.on_deliver(1, 0, 3, 1, 0);
        assert_eq!(w.on_cycle_end(1), Control::Continue);
        assert_eq!(w.on_cycle_end(2), Control::Continue);
        // Last delivery at cycle 1; window 2 elapses at cycle 3.
        assert_eq!(w.on_cycle_end(3), Control::Stop);
        assert_eq!(w.report.as_ref().unwrap().oldest.unwrap().0, 1);
    }

    #[test]
    fn watchdog_idle_network_never_fires() {
        let mut w = WatchdogSink::new(1);
        for c in 0..100 {
            assert_eq!(w.on_cycle_end(c), Control::Continue);
        }
        assert!(!w.stalled());
    }

    #[test]
    fn sink_set_dispatches_and_merges() {
        let mut s = SinkSet::new()
            .with_counters(4, 2)
            .with_trace(8)
            .with_watchdog(100);
        feed(&mut s);
        s.flush();
        assert_eq!(s.counters.as_ref().unwrap().links_total(), 2);
        assert_eq!(s.trace.as_ref().unwrap().lines().len(), 1);
        assert!(s.stall().is_none());

        let mut other = SinkSet::new()
            .with_counters(4, 2)
            .with_trace(8)
            .with_watchdog(100);
        feed(&mut other);
        other.flush();
        s.merge(&other);
        assert_eq!(s.counters.as_ref().unwrap().links_total(), 4);
        assert_eq!(s.trace.as_ref().unwrap().lines().len(), 2);
    }

    #[test]
    fn no_recorder_is_inert() {
        let mut n = NoRecorder;
        feed(&mut n);
        assert_eq!(n.on_cycle_end(0), Control::Continue);
    }

    #[test]
    fn counter_merge_shard_maxes_cycles() {
        // Two shards of the same 3-cycle run: event counters add, but
        // the cycle count must stay 3, not double to 6.
        let mut a = CounterSink::new(4, 2);
        let mut b = CounterSink::new(4, 2);
        for c in 0..3 {
            let _ = a.on_cycle_end(c);
            let _ = b.on_cycle_end(c);
        }
        a.on_deliver(2, 0, 5, 1, 0);
        b.on_deliver(2, 1, 7, 2, 0);
        a.merge_shard(&b);
        assert_eq!(a.cycles, 3);
        assert_eq!(a.delivered, 2);
    }

    /// A recorder event and the shard whose sink observes it.
    type Event = (usize, fn(&mut TraceSink));

    /// Feed each event to one sink that sees every event and to its
    /// shard's sink; the two shard sinks, merged in either order, must
    /// render the same lines.
    fn assert_stitches(events: &[Event]) {
        let mut whole = TraceSink::new(4);
        let mut shards = [TraceSink::new(4), TraceSink::new(4)];
        for (shard, event) in events {
            event(&mut whole);
            event(&mut shards[*shard]);
        }
        whole.flush();
        for (a, b) in [(0, 1), (1, 0)] {
            let mut merged = shards[a].clone();
            merged.merge_shard(&shards[b]);
            merged.flush();
            assert_eq!(merged.lines(), whole.lines());
        }
    }

    #[test]
    fn trace_state_transfers_between_sinks() {
        // Injected on shard 0, the packet crosses to shard 1 and back:
        // each link is recorded by the receiving node's shard.
        assert_stitches(&[
            (0, |t| t.on_inject(0, 0, 1, 2)),
            (1, |t| t.on_link(1, 0, 1, 2, false, 0, 0)),
            (0, |t| t.on_link(2, 0, 2, 3, true, 0, 1)),
            (0, |t| t.on_deliver(3, 0, 7, 2, 1)),
        ]);
        // A reroute fires on the sender's shard before the fill pass,
        // the same cycle's link on the receiver's: the merged hops put
        // the reroute first whichever shard merges first.
        assert_stitches(&[
            (0, |t| t.on_inject(0, 0, 1, 3)),
            (0, |t| t.on_reroute(3, 0, 1, 0)),
            (1, |t| t.on_link(3, 0, 1, 2, false, 0, 0)),
            (0, |t| t.on_link(4, 0, 2, 3, false, 0, 1)),
            (0, |t| t.on_deliver(5, 0, 6, 2, 1)),
        ]);
    }

    #[test]
    fn flush_sorts_lines_into_packet_order() {
        let mut t = TraceSink::new(4);
        t.on_inject(0, 0, 1, 2);
        t.on_inject(0, 1, 2, 3);
        // Packet 1 delivers before packet 0.
        t.on_deliver(1, 1, 3, 1, 0);
        t.on_deliver(2, 0, 5, 1, 0);
        t.flush();
        assert!(t.lines()[0].starts_with("{\"pkt\": 0,"));
        assert!(t.lines()[1].starts_with("{\"pkt\": 1,"));
    }

    #[test]
    fn merge_transfers_inflight_lifecycles() {
        let mut a = TraceSink::new(4);
        let mut b = TraceSink::new(4);
        b.on_inject(0, 2, 5, 6);
        a.merge_shard(&b);
        a.flush();
        assert_eq!(a.lines().len(), 1);
        assert!(a.lines()[0].contains("\"delivered\": false"));
    }

    #[test]
    fn sink_set_shardability_follows_watchdog() {
        assert!(SinkSet::new().with_counters(4, 2).shardable());
        assert!(!SinkSet::new().with_watchdog(10).shardable());
        assert!(NoRecorder.shardable());
    }

    #[test]
    fn counter_sink_counts_fault_events() {
        let mut c = CounterSink::new(4, 2);
        c.on_fault(3, 0, 4);
        c.on_fault(3, 1, 5);
        c.on_drop(3, 0);
        c.on_reroute(4, 1, 2, 0);
        assert_eq!(c.faults_applied, 2);
        assert_eq!(c.packets_dropped, 1);
        assert_eq!(c.reroutes, 1);
        let j = c.to_json(4);
        assert!(j.contains("\"faults\": {\"applied\": 2, \"dropped\": 1, \"reroutes\": 1}"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn watchdog_drop_releases_in_flight() {
        // A dropped packet must not hold the watchdog's in-flight count
        // open, or an otherwise idle network would stall-report forever.
        let mut w = WatchdogSink::new(2);
        w.on_inject(0, 0, 1, 3);
        w.on_drop(1, 0);
        for c in 1..50 {
            assert_eq!(w.on_cycle_end(c), Control::Continue);
        }
        assert!(!w.stalled());
    }

    #[test]
    fn watchdog_partition_reports_immediately() {
        // A partition must not wait out the k-cycle window.
        let mut w = WatchdogSink::new(1_000_000);
        w.on_inject(0, 0, 1, 6);
        w.on_partition(2, 6);
        assert_eq!(w.on_cycle_end(2), Control::Stop);
        let r = w.report.as_ref().expect("partition reported");
        assert_eq!(r.partitioned, vec![6]);
        assert_eq!(r.verdict(), "partitioned");
        assert!(r.to_json().contains("\"verdict\": \"partitioned\""));
        assert!(r.to_json().contains("\"partitioned\": [6]"));
    }

    #[test]
    fn verdict_distinguishes_deadlock_from_livelock() {
        let base = StallReport {
            cycle: 10,
            in_flight: 1,
            window: 5,
            links_in_window: 0,
            oldest: None,
            queues: vec![],
            partitioned: vec![],
            waits: vec![],
        };
        assert_eq!(base.verdict(), "deadlock");
        let live = StallReport {
            links_in_window: 7,
            ..base.clone()
        };
        assert_eq!(live.verdict(), "livelock");
        let part = StallReport {
            partitioned: vec![3],
            ..base
        };
        assert_eq!(part.verdict(), "partitioned");
    }

    #[test]
    fn journal_is_canonical_within_cycles() {
        // Same per-cycle event multiset in different arrival order must
        // journal identically (the per-cycle sort canonicalizes).
        let mut a = JournalSink::new(64);
        let mut b = JournalSink::new(64);
        a.on_inject(0, 0, 1, 2);
        a.on_inject(0, 1, 3, 4);
        b.on_inject(0, 1, 3, 4);
        b.on_inject(0, 0, 1, 2);
        let _ = a.on_cycle_end(0);
        let _ = b.on_cycle_end(0);
        a.on_link(1, 0, 1, 2, false, 0, 1);
        a.on_deliver(1, 1, 3, 1, 0);
        b.on_deliver(1, 1, 3, 1, 0);
        b.on_link(1, 0, 1, 2, false, 0, 1);
        let _ = a.on_cycle_end(1);
        let _ = b.on_cycle_end(1);
        assert_eq!(a.lines(), b.lines());
        assert_eq!(a.hash(), b.hash());
        assert_eq!(a.count(), 4);
        assert_eq!(b.count(), 4);
        assert_eq!(a.dropped, 0);
    }

    #[test]
    fn journal_ring_truncates_but_hash_survives() {
        let mut big = JournalSink::new(1024);
        let mut small = JournalSink::new(2);
        for cyc in 0..10u64 {
            big.on_inject(cyc, cyc, 0, 1);
            small.on_inject(cyc, cyc, 0, 1);
            let _ = big.on_cycle_end(cyc);
            let _ = small.on_cycle_end(cyc);
        }
        assert_eq!(small.lines().len(), 2);
        assert_eq!(small.dropped, 8);
        // The hash covers evicted events too: truncation-independent.
        assert_eq!(small.hash(), big.hash());
        assert_eq!(small.count(), big.count());
        // The retained tail is the *latest* events.
        assert!(small.lines()[1].starts_with("9 inject"));
    }

    #[test]
    fn journal_merge_shard_matches_sequential() {
        // Split one run's events across two shards by packet parity; the
        // merged journal must equal the sequential one byte-for-byte.
        let mut seq = JournalSink::new(256);
        let mut s0 = JournalSink::new(256);
        let mut s1 = JournalSink::new(256);
        for cyc in 0..5u64 {
            for pkt in 0..6u64 {
                let (v, w) = (pkt as u32, (pkt as u32 + 1) % 6);
                seq.on_link(cyc, pkt, v, w, pkt % 2 == 0, 0, 1);
                if pkt % 2 == 0 {
                    s0.on_link(cyc, pkt, v, w, true, 0, 1);
                } else {
                    s1.on_link(cyc, pkt, v, w, false, 0, 1);
                }
            }
            let _ = seq.on_cycle_end(cyc);
            let _ = s0.on_cycle_end(cyc);
            let _ = s1.on_cycle_end(cyc);
        }
        s0.merge_shard(&s1);
        assert_eq!(s0.lines(), seq.lines());
        assert_eq!(s0.hash(), seq.hash());
        assert_eq!(s0.count(), seq.count());
    }

    #[test]
    fn journal_merge_shard_dedups_partition_events() {
        // Shard replicas keep independent `partitioned` guards, so two
        // shards holding packets for the same dead destination both
        // journal it; the sequential run journals each destination once
        // (the earliest detection). The merge must canonicalize.
        let mut seq = JournalSink::new(256);
        let mut s0 = JournalSink::new(256);
        let mut s1 = JournalSink::new(256);
        seq.on_partition(4, 7);
        s0.on_partition(4, 7);
        s1.on_partition(4, 7); // same cycle, both shards
        seq.on_link(5, 1, 0, 2, false, 0, 0);
        s0.on_link(5, 1, 0, 2, false, 0, 0);
        seq.on_partition(5, 3);
        s1.on_partition(5, 3);
        s0.on_partition(6, 3); // later re-detection on the other shard
        for cyc in 4..=6u64 {
            let _ = seq.on_cycle_end(cyc);
            let _ = s0.on_cycle_end(cyc);
            let _ = s1.on_cycle_end(cyc);
        }
        s0.merge_shard(&s1);
        assert_eq!(s0.lines(), seq.lines());
        assert_eq!(s0.hash(), seq.hash());
        assert_eq!(s0.count(), seq.count());
    }

    #[test]
    fn journal_resume_floor_drops_priming_events() {
        let mut j = JournalSink::new(64);
        j.on_resume(10);
        // Priming events re-announce pre-resume state (cycle <= 10).
        j.on_inject(3, 0, 1, 2);
        j.on_queue_enter(10, 0, 1, 0, 1);
        // Genuine post-resume events pass.
        j.on_link(11, 0, 1, 2, false, 0, 0);
        let _ = j.on_cycle_end(11);
        assert_eq!(j.count(), 1);
        assert!(j.lines()[0].starts_with("11 link"));
    }

    #[test]
    fn latency_sink_tracks_per_class_percentiles() {
        let mut l = LatencySink::new(2);
        for v in 1..=100u64 {
            l.on_deliver(0, v, v, 1, 0);
        }
        l.on_deliver(0, 200, 1000, 1, 1);
        assert_eq!(l.total(), 101);
        let c0 = l.class(0).unwrap();
        assert!(c0.percentile(0.5) >= 50 && c0.percentile(0.5) <= 63);
        assert_eq!(c0.max(), 100);
        assert_eq!(l.class(1).unwrap().max(), 1000);
        // Shard-split merge is exact.
        let mut a = LatencySink::new(2);
        let mut b = LatencySink::new(2);
        for v in 1..=100u64 {
            if v % 2 == 0 {
                a.on_deliver(0, v, v, 1, 0);
            } else {
                b.on_deliver(0, v, v, 1, 0);
            }
        }
        a.on_deliver(0, 200, 1000, 1, 1);
        a.merge(&b);
        assert_eq!(a, l);
        let j = l.to_json();
        assert!(j.contains("\"class\": 0"));
        assert!(j.contains("\"max\": 1000"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn waitgraph_tracks_chain_depth_and_cycle_candidates() {
        let mut g = WaitGraphSink::new();
        assert!(g.want_waitgraph());
        // A 3-edge chain: depth 4 queues, no cycle.
        g.on_wait_probe(5, &[(0, 0, 1, 0), (1, 0, 2, 1), (2, 1, 3, 1)]);
        assert_eq!(g.max_chain_depth, 4);
        assert_eq!(g.max_chain_cycle, 5);
        assert_eq!(g.first_cycle_candidate, None);
        // Close the loop: a directed cycle appears.
        g.on_wait_probe(6, &[(0, 0, 1, 0), (1, 0, 2, 1), (2, 1, 0, 0)]);
        assert_eq!(g.first_cycle_candidate, Some(6));
        assert_eq!(g.cycle_candidate_cycles, 1);
        assert_eq!(g.probes, 2);
        let j = g.to_json();
        assert!(j.contains("\"first_cycle_candidate\": 6"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        // Empty probe: no chain, no candidate.
        let mut e = WaitGraphSink::new();
        e.on_wait_probe(0, &[]);
        assert_eq!(e.max_chain_depth, 0);
    }

    #[test]
    fn stall_report_dot_is_string_stable() {
        let r = StallReport {
            cycle: 42,
            in_flight: 3,
            window: 10,
            links_in_window: 0,
            oldest: None,
            queues: vec![(0, 0, 2), (1, 1, 1)],
            partitioned: vec![],
            waits: vec![(0, 0, 1, 1), (1, 1, 0, 0)],
        };
        let dot = r.to_dot();
        assert_eq!(
            dot,
            "digraph waits {\n  label=\"deadlock @ cycle 42 (in_flight=3)\";\n  node [shape=box];\n  \"q0[0]\" [label=\"q0[0] occ=2\"];\n  \"q1[1]\" [label=\"q1[1] occ=1\"];\n  \"q0[0]\" -> \"q1[1]\";\n  \"q1[1]\" -> \"q0[0]\";\n}\n"
        );
        assert!(r
            .to_json()
            .contains("\"waits\": [[0, 0, 1, 1], [1, 1, 0, 0]]"));
    }

    #[test]
    fn sink_set_forwards_new_sinks() {
        let mut s = SinkSet::new()
            .with_counters(4, 2)
            .with_journal(64)
            .with_latency(2)
            .with_waitgraph();
        assert!(s.want_waitgraph());
        // The engine assembles the wait-for graph across shards.
        assert!(s.shardable());
        feed(&mut s);
        assert!(s.journal.as_ref().unwrap().count() > 0);
        assert_eq!(s.latency.as_ref().unwrap().total(), 1);
        s.on_wait_probe(3, &[(0, 0, 1, 0)]);
        assert_eq!(s.waitgraph.as_ref().unwrap().probes, 1);
    }

    #[test]
    fn trace_sink_renders_drops_and_reroutes() {
        let mut t = TraceSink::new(4);
        t.on_inject(0, 0, 1, 2);
        t.on_reroute(3, 0, 1, 0);
        t.on_drop(5, 0);
        t.flush();
        assert_eq!(t.lines().len(), 1);
        let line = &t.lines()[0];
        assert!(line.contains("\"kind\": \"reroute\""));
        assert!(line.contains("\"dropped\": 5"));
        assert!(line.contains("\"delivered\": false"));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }
}
