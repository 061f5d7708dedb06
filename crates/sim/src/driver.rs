//! The one run loop: § 7.1's routing cycle repeated until the network
//! drains or the horizon ends, written once for both engines.
//!
//! A run is a *leg* ([`static_leg`], [`dynamic_leg`]): from a fresh
//! network or from restored state, to the end or to a pause cycle. A leg
//! plans injections, tests the horizon, keeps the pause/resume
//! bookkeeping, derives the stop reason, fast-forwards a resumed run's
//! RNG streams and runs the no-progress watchdog, over an
//! [`Executor`]:
//!
//! * the **inline** executor is a [`Simulator`] on either option
//!   source. It runs its one shard on the caller's thread, so every
//!   exchange with siblings is the identity and compiles away, and it
//!   keeps the bitset walk of the link pass;
//! * the **threaded** executor is a [`crate::ShardedSimulator`]: one
//!   thread per shard, meeting at phase barriers and per-pair mailboxes
//!   (see the `sharded` module).
//!
//! Every shard runs [`run_shard`] over its [`Port`] to its siblings.
//! Cross-cycle global state is a few replicated counters (delivered,
//! dropped and lost packets, the uid frontier) that every shard folds
//! identically from the per-cycle summaries all shards publish, so the
//! horizon test, the watchdog and the stop decision see the same values
//! everywhere and no shard waits on another's decision.
//!
//! # The watchdog
//!
//! [`Simulator::with_watchdog`] and
//! [`crate::ShardedSimulator::with_watchdog`] abort a run after `k`
//! consecutive cycles without a delivery while packets are in flight:
//! [`fadr_metrics::WatchdogSink`]'s rule, evaluated on the replicated
//! counters, so a locally idle shard cannot misfire it. A fault
//! partition aborts a run the same way. The [`StallReport`] (queue
//! snapshot, oldest live packet, blocked wait-for edges) is assembled
//! from every shard after the run.

use std::convert::Infallible;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fadr_metrics::{Control, LatencyStats, Recorder, StallReport};
use fadr_qdg::RoutingFunction;
use fadr_topology::NodeId;

use crate::engine::{Core, OptionSource, Simulator};
use crate::partition::OwnedNodes;
use crate::{DynamicOutcome, DynamicResult, RunProgress, StaticOutcome, StaticResult, StopReason};

/// A blocked wait-for edge `(v, c, w, c2)`: some packet in central queue
/// `(v, c)` wants to move into the full queue `(w, c2)`.
pub(crate) type WaitEdge = (u32, u8, u32, u8);

/// What each shard publishes at the end of a cycle's read pass; the
/// shards' summaries add up to the cycle's network-wide totals, and the
/// cycles' totals to the run's.
#[derive(Clone, Copy, Default)]
pub(crate) struct CycleSummary {
    /// Packets delivered this cycle.
    delivered: u64,
    /// Link traversals this cycle.
    links: u64,
    /// Packets node-down faults destroyed this cycle.
    dropped: u64,
    /// Backlog entries written off this cycle because their source node
    /// died (published with the cycle the injections would have happened
    /// in, which is when the horizon test first sees them).
    lost: u64,
    /// Some destination is unreachable (cumulative).
    partitioned: bool,
    /// A recorder voted to stop.
    stop: bool,
}

impl CycleSummary {
    /// The sum of two shards' summaries.
    pub(crate) fn add(self, o: Self) -> Self {
        Self {
            delivered: self.delivered + o.delivered,
            links: self.links + o.links,
            dropped: self.dropped + o.dropped,
            lost: self.lost + o.lost,
            partitioned: self.partitioned || o.partitioned,
            stop: self.stop || o.stop,
        }
    }
}

/// How one shard's loop meets its siblings. The inline executor's one
/// shard has none: its port runs each pass over every node and every
/// exchange is the identity. The threaded executor's ports meet at
/// phase barriers and per-pair mailboxes.
pub(crate) trait Port<R: RoutingFunction, Rec: Recorder, S: OptionSource<R>> {
    /// The nodes this shard owns.
    fn owned(&self) -> &OwnedNodes;

    /// Free the packets whose crossing a sibling acknowledged since the
    /// last call.
    fn drain_acks(&mut self, sim: &mut Simulator<R, Rec, S>);

    /// Fill pass over the owned nodes; then publish the packets staged
    /// on cross-shard channels and wait for the siblings.
    fn fill(&mut self, sim: &mut Simulator<R, Rec, S>);

    /// Link pass over the channels into the owned nodes; returns the
    /// number of packets that crossed.
    fn link(&mut self, sim: &mut Simulator<R, Rec, S>) -> u64;

    /// Read pass over the owned nodes.
    fn read(&mut self, sim: &mut Simulator<R, Rec, S>);

    /// The blocked wait-for relation of the whole network, sorted and
    /// deduplicated: each shard contributes the edges out of its own
    /// queues, tested against every shard's queue lengths. Every shard
    /// must call this at the same point; only shard 0 receives the
    /// edges.
    fn wait_edges(&mut self, sim: &Simulator<R, Rec, S>) -> Option<Vec<WaitEdge>>;

    /// Publish this shard's summary and the nodes it plans to inject at
    /// next cycle, wait for the siblings, and return the summaries' sum.
    fn exchange(&mut self, own: CycleSummary, pending: &[(u32, u32)]) -> CycleSummary;

    /// Number the planned injections `pending` (published by the last
    /// [`Port::exchange`]) in the ascending-node order a cycle injects
    /// in, starting at `base`: `uids[j]` for `pending[j]`. Returns the
    /// next free uid after every shard's injections.
    fn rank(&mut self, pending: &[(u32, u32)], base: u64, uids: &mut Vec<u64>) -> u64;
}

/// The inline executor's port: one shard owning every node.
struct Inline {
    all: OwnedNodes,
    n: usize,
}

impl<R: RoutingFunction, Rec: Recorder, S: OptionSource<R>> Port<R, Rec, S> for Inline {
    fn owned(&self) -> &OwnedNodes {
        &self.all
    }

    fn drain_acks(&mut self, _sim: &mut Simulator<R, Rec, S>) {}

    fn fill(&mut self, sim: &mut Simulator<R, Rec, S>) {
        for v in 0..self.n {
            sim.core.fill_node(&sim.rf, v, &mut sim.rec);
        }
    }

    fn link(&mut self, sim: &mut Simulator<R, Rec, S>) -> u64 {
        sim.core.link_phase(&mut sim.rec)
    }

    fn read(&mut self, sim: &mut Simulator<R, Rec, S>) {
        for v in 0..self.n {
            sim.core.read_node(&sim.rf, v, &mut sim.rec);
        }
    }

    fn wait_edges(&mut self, sim: &Simulator<R, Rec, S>) -> Option<Vec<WaitEdge>> {
        Some(sim.core.local_wait_edges())
    }

    fn exchange(&mut self, own: CycleSummary, _pending: &[(u32, u32)]) -> CycleSummary {
        own
    }

    fn rank(&mut self, pending: &[(u32, u32)], base: u64, uids: &mut Vec<u64>) -> u64 {
        let next = base + pending.len() as u64;
        uids.clear();
        uids.extend(base..next);
        next
    }
}

/// A shard's injection planner: decides, one cycle ahead, which owned
/// nodes inject what.
pub(crate) trait Planner {
    /// Set up per-node state for the shard owning `owned` (called on the
    /// shard's own thread, before the first [`Planner::plan`]).
    fn start(&mut self, owned: &OwnedNodes);

    /// Plan next cycle's injections into `pending` (ascending node id);
    /// returns `(attempts, lost)` for the cycle.
    fn plan<R: RoutingFunction, S: OptionSource<R>>(
        &mut self,
        core: &Core<R, S>,
        owned: &OwnedNodes,
        pending: &mut Vec<(u32, u32)>,
    ) -> (u64, u64);

    /// The owned nodes' `(node, next_idx)` backlog cursors (none for a
    /// planner without cursors).
    fn progress(&self, _owned: &OwnedNodes) -> Vec<(u32, usize)> {
        Vec::new()
    }
}

/// Static injection: node `v` offers `backlog[v]` in order, one packet
/// whenever its injection buffer is free.
#[derive(Clone)]
pub(crate) struct StaticPlanner<'b> {
    backlog: &'b [Vec<NodeId>],
    /// A resumed run's cursors, indexed by node.
    from: Option<&'b [usize]>,
    /// Per owned node, ascending: the next backlog entry to offer.
    next_idx: Vec<usize>,
}

impl Planner for StaticPlanner<'_> {
    fn start(&mut self, owned: &OwnedNodes) {
        self.next_idx = owned
            .iter()
            .map(|v| self.from.map_or(0, |f| f[v]))
            .collect();
    }

    fn plan<R: RoutingFunction, S: OptionSource<R>>(
        &mut self,
        core: &Core<R, S>,
        owned: &OwnedNodes,
        pending: &mut Vec<(u32, u32)>,
    ) -> (u64, u64) {
        let mut lost = 0u64;
        for (i, v) in owned.iter().enumerate() {
            let queue = &self.backlog[v];
            if self.next_idx[i] >= queue.len() {
                continue;
            }
            if !core.node_alive(v) {
                // A dead node's remaining backlog is never offered.
                lost += (queue.len() - self.next_idx[i]) as u64;
                self.next_idx[i] = queue.len();
            } else if core.inj_free(v) {
                pending.push((v as u32, queue[self.next_idx[i]] as u32));
                self.next_idx[i] += 1;
            }
        }
        (0, lost)
    }

    fn progress(&self, owned: &OwnedNodes) -> Vec<(u32, usize)> {
        owned
            .iter()
            .zip(&self.next_idx)
            .map(|(v, &i)| (v as u32, i))
            .collect()
    }
}

/// Dynamic injection: Bernoulli(λ) per owned node and cycle, each node
/// drawing from its own RNG stream ([`node_rng`]).
#[derive(Clone)]
pub(crate) struct DynPlanner<D> {
    lambda: f64,
    dest: D,
    seed: u64,
    /// Draw rounds a resumed run's streams already consumed.
    rounds: u64,
    /// Per owned node, ascending.
    rngs: Vec<StdRng>,
}

impl<D: FnMut(NodeId, &mut StdRng) -> NodeId> Planner for DynPlanner<D> {
    /// Seed each owned node's stream and fast-forward it through the
    /// draws a paused run already consumed: the pause point is
    /// post-injection at cycle P, so P + 1 rounds.
    fn start(&mut self, owned: &OwnedNodes) {
        let (seed, lambda, rounds) = (self.seed, self.lambda, self.rounds);
        let dest = &mut self.dest;
        self.rngs = owned
            .iter()
            .map(|v| {
                let mut rng = node_rng(seed, v);
                for _ in 0..rounds {
                    let _ = draw(&mut rng, lambda, v, dest);
                }
                rng
            })
            .collect();
    }

    fn plan<R: RoutingFunction, S: OptionSource<R>>(
        &mut self,
        core: &Core<R, S>,
        owned: &OwnedNodes,
        pending: &mut Vec<(u32, u32)>,
    ) -> (u64, u64) {
        let mut attempts = 0u64;
        for (v, rng) in owned.iter().zip(&mut self.rngs) {
            // Destinations are drawn unconditionally: a blocked attempt
            // discards the draw instead of deferring it, keeping the
            // per-node stream independent of buffer occupancy (and of
            // fault-induced node deaths — a dead node keeps drawing and
            // discarding).
            let Some(dst) = draw(rng, self.lambda, v, &mut self.dest) else {
                continue;
            };
            attempts += 1;
            if core.inj_free(v) && core.node_alive(v) {
                pending.push((v as u32, dst as u32));
            }
        }
        (attempts, 0)
    }
}

/// How a run decides it is finished.
#[derive(Clone, Copy)]
enum Horizon {
    /// Static run: until all `total` packets are accounted for (or the
    /// [`crate::SimConfig::max_cycles`] cap).
    Drain {
        /// Packets the workload offers.
        total: u64,
    },
    /// Dynamic run: a fixed number of cycles.
    Cycles(u64),
}

/// One leg's loop parameters, identical on every shard.
#[derive(Clone, Copy)]
pub(crate) struct LoopCfg {
    horizon: Horizon,
    watchdog: Option<u64>,
    /// Probe the wait-for graph every cycle (decided once, so every
    /// shard takes the same barrier rounds).
    waitgraph: bool,
    pause_at: Option<u64>,
    /// The restored totals of a resumed leg.
    resume: Option<CycleSummary>,
}

/// How one shard's loop ended.
#[derive(Default)]
pub(crate) struct ShardOut {
    attempts: u64,
    injected: u64,
    /// Replicated count of backlog entries lost to dead source nodes.
    lost: u64,
    aborted: bool,
    /// The stall report's part this shard saw: its queues and oldest
    /// packet (and on shard 0 the network's wait-for edges).
    stall: Option<StallReport>,
    /// The shard stopped at the pause cycle (every shard agrees).
    paused: bool,
    /// This shard's `(node, next_idx)` cursors at the pause.
    progress: Vec<(u32, usize)>,
    /// Backlog entries written off in the pause cycle itself: published
    /// but never folded into `lost` (the loop exited first).
    lost_pending: u64,
}

/// The run loop of one shard. Control flow is identical on every shard:
/// every condition is evaluated on replicated state.
///
/// With `pause_at = Some(p)` every shard stops in lockstep at cycle `p`,
/// post-injection and pre-fault-application — the checkpointable pause
/// point — before that cycle's first barrier, so no sibling is left
/// waiting. A resumed leg starts from restored state: the pre-loop
/// planning pass is skipped (the pause cycle's injections are in the
/// snapshot) and the replicated totals start from the restored ones.
pub(crate) fn run_shard<R, Rec, S, X, P>(
    sim: &mut Simulator<R, Rec, S>,
    x: &mut X,
    mut planner: P,
    cfg: &LoopCfg,
) -> ShardOut
where
    R: RoutingFunction,
    Rec: Recorder,
    S: OptionSource<R>,
    X: Port<R, Rec, S>,
    P: Planner,
{
    planner.start(x.owned());
    let mut pending: Vec<(u32, u32)> = Vec::new();
    let mut uids: Vec<u64> = Vec::new();
    let mut totals = cfg.resume.unwrap_or_default();
    let mut resumed = cfg.resume.is_some();
    let (mut att_next, mut lost_next) = (0u64, 0u64);
    let mut next_uid = if resumed {
        // Every restored shard carries the global uid frontier; the
        // first iteration re-executes the pause cycle's routing step,
        // so nothing is planned or ranked here.
        sim.core.next_uid
    } else {
        // Plan cycle 0's injections and rank them into the global
        // injection order before starting.
        (att_next, lost_next) = planner.plan(&sim.core, x.owned(), &mut pending);
        x.exchange(CycleSummary::default(), &pending);
        x.rank(&pending, 0, &mut uids)
    };
    let max_cycles = sim.core.cfg.max_cycles;
    let mut last_delivery = sim.core.cycle;
    let mut links_since_delivery = 0u64;
    let (mut attempts, mut injected) = (0u64, 0u64);
    let (mut prev_delivered, mut prev_dropped) = (sim.core.delivered, sim.core.dropped);
    let mut stall = None;
    let mut aborted = false;

    loop {
        let cycle = sim.core.cycle;
        let done = match cfg.horizon {
            Horizon::Drain { total } => {
                totals.delivered + totals.dropped + totals.lost >= total || cycle >= max_cycles
            }
            Horizon::Cycles(n) => cycle >= n,
        };
        if done {
            break;
        }

        // --- Phase 1: acks, inject, faults, fill ----------------------
        x.drain_acks(sim);
        attempts += att_next;
        injected += pending.len() as u64;
        let lost_cycle = lost_next;
        for (&(v, dst), &uid) in pending.iter().zip(&uids) {
            sim.core
                .inject(&sim.rf, v as usize, dst as usize, uid, &mut sim.rec);
        }
        pending.clear();
        if resumed {
            // The first iteration after a resume re-executes the pause
            // cycle's routing step; pausing again at the same cycle
            // would checkpoint nothing.
            resumed = false;
        } else if cfg.pause_at == Some(cycle) {
            // Align every shard's uid frontier with the replicated one,
            // so any shard serializes the run's `next_uid`.
            sim.core.next_uid = next_uid;
            return ShardOut {
                attempts,
                injected,
                lost: totals.lost,
                paused: true,
                progress: planner.progress(x.owned()),
                lost_pending: lost_cycle,
                ..ShardOut::default()
            };
        }
        // Faults fire after this cycle's injections and before its fill
        // pass. The ack drain above must precede them: a packet that
        // crossed last cycle but whose ack is still in the mailbox would
        // otherwise be reabsorbed from the sender's output buffer.
        sim.core.apply_faults(&sim.rf, x.owned(), &mut sim.rec);
        x.fill(sim);

        // --- Phase 2: link, read, publish -----------------------------
        let links = x.link(sim);
        x.read(sim);
        if Rec::ENABLED && cfg.waitgraph {
            // Live wait-for-graph probe: collected only when a sink asks
            // for it.
            if let Some(edges) = x.wait_edges(sim) {
                sim.rec.on_wait_probe(cycle, &edges);
            }
        }
        let own = CycleSummary {
            delivered: sim.core.delivered - prev_delivered,
            links,
            dropped: sim.core.dropped - prev_dropped,
            lost: lost_cycle,
            partitioned: !sim.core.partitioned.is_empty(),
            stop: Rec::ENABLED && sim.rec.on_cycle_end(cycle) == Control::Stop,
        };
        (prev_delivered, prev_dropped) = (sim.core.delivered, sim.core.dropped);
        (att_next, lost_next) = planner.plan(&sim.core, x.owned(), &mut pending);
        let all = x.exchange(own, &pending);

        // --- Phase 3: fold into the replicated state ------------------
        totals = totals.add(all);
        // A cycle's link traversals all precede its deliveries, so the
        // per-cycle fold is exact.
        if all.delivered > 0 {
            last_delivery = cycle;
            links_since_delivery = 0;
        } else {
            links_since_delivery += all.links;
        }
        // The uid frontier as of the injections already performed, not
        // the planned ones; dropped packets are no longer in flight.
        let in_flight = next_uid - totals.delivered - totals.dropped;
        let stalled = cfg
            .watchdog
            .is_some_and(|k| in_flight > 0 && cycle - last_delivery >= k);
        if stalled || all.partitioned {
            // A partitioned destination can never drain: stop at the
            // end of the cycle that detected it instead of spinning to
            // the horizon.
            stall = Some(StallReport {
                cycle,
                in_flight,
                window: cycle - last_delivery,
                links_in_window: links_since_delivery,
                oldest: None,
                queues: Vec::new(),
                partitioned: Vec::new(),
                waits: Vec::new(),
            });
        }
        aborted = stall.is_some() || all.stop;
        next_uid = x.rank(&pending, next_uid, &mut uids);
        sim.core.cycle += 1;
        if aborted {
            break;
        }
    }

    // The last cycle's acks were published before its final barrier but
    // never drained; free the sender-side copies before reading the
    // stall evidence, so no delivered packet counts as live.
    x.drain_acks(sim);
    if aborted {
        // The blocked wait-for relation behind the stop, for the stall
        // report and for recorders that attach it to their own.
        let waits = x.wait_edges(sim);
        if let (true, Some(w)) = (Rec::ENABLED, &waits) {
            sim.rec.on_stall_waits(w);
        }
        if let Some(r) = &mut stall {
            r.queues = sim.core.nonempty_queues(x.owned());
            r.oldest = sim.core.oldest_live();
            r.waits = waits.unwrap_or_default();
        }
    }
    ShardOut {
        attempts,
        injected,
        lost: totals.lost,
        aborted,
        stall,
        ..ShardOut::default()
    }
}

/// An engine the legs drive: its shards and how to run their loops.
/// Generic over the planner so each executor can bound it as it must
/// (the threaded one sends a copy to every shard thread).
pub(crate) trait Executor<R: RoutingFunction, P> {
    /// The shards' recorder.
    type Rec: Recorder;
    /// The shards' option source.
    type Src: OptionSource<R>;
    /// How a run can fail ([`Infallible`] inline).
    type Error;

    /// The engine's shards, in shard order.
    fn shards(&mut self) -> &mut [Simulator<R, Self::Rec, Self::Src>];

    /// Run every shard's loop with a copy of `planner`; returns the
    /// shards' outcomes in shard order.
    ///
    /// # Errors
    ///
    /// The executor's failure (a threaded shard's panic).
    fn execute(&mut self, planner: P, cfg: LoopCfg) -> Result<Vec<ShardOut>, Self::Error>;
}

/// The inline executor: a [`Simulator`] is one shard run on the
/// caller's thread.
impl<R, Rec, S, P> Executor<R, P> for Simulator<R, Rec, S>
where
    R: RoutingFunction,
    Rec: Recorder,
    S: OptionSource<R>,
    P: Planner,
{
    type Rec = Rec;
    type Src = S;
    type Error = Infallible;

    fn shards(&mut self) -> &mut [Self] {
        std::slice::from_mut(self)
    }

    fn execute(&mut self, planner: P, cfg: LoopCfg) -> Result<Vec<ShardOut>, Infallible> {
        let n = self.core.layout.num_nodes;
        let mut port = Inline {
            all: OwnedNodes::all(n),
            n,
        };
        Ok(vec![run_shard(self, &mut port, planner, &cfg)])
    }
}

/// Reset a fresh leg's shards, or read a resumed one's restored totals,
/// and fix the loop parameters.
fn begin<R, P, X>(
    x: &mut X,
    horizon: Horizon,
    pause_at: Option<u64>,
    resume_lost: Option<u64>,
) -> LoopCfg
where
    R: RoutingFunction,
    X: Executor<R, P>,
{
    let sims = x.shards();
    let resume = match resume_lost {
        None => {
            for sim in sims.iter_mut() {
                sim.core.reset();
            }
            None
        }
        Some(lost) => Some(CycleSummary {
            delivered: delivered(sims),
            dropped: dropped(sims),
            lost,
            ..CycleSummary::default()
        }),
    };
    sims[0].stall = None;
    LoopCfg {
        horizon,
        watchdog: sims[0].watchdog,
        waitgraph: X::Rec::ENABLED && sims[0].rec.want_waitgraph(),
        pause_at,
        resume,
    }
}

/// Run a static leg: from a fresh network, or from restored state with
/// `from`'s cursors, to the end or to `pause_at`.
///
/// # Panics
///
/// Panics if `backlog` has the wrong length, or `from` is not static
/// progress with one cursor per node.
pub(crate) fn static_leg<'b, R, X>(
    x: &mut X,
    backlog: &'b [Vec<NodeId>],
    from: Option<&'b RunProgress>,
    pause_at: Option<u64>,
) -> Result<StaticOutcome, X::Error>
where
    R: RoutingFunction,
    X: Executor<R, StaticPlanner<'b>>,
{
    let n = backlog.len();
    assert_eq!(n, x.shards()[0].num_nodes());
    let (cursors, lost) = match from {
        None => (None, None),
        Some(RunProgress::Static { next_idx, lost }) => {
            assert_eq!(next_idx.len(), n, "progress/backlog mismatch");
            (Some(&next_idx[..]), Some(*lost))
        }
        Some(RunProgress::Dynamic { .. }) => panic!("resume_static needs static progress"),
    };
    let total: u64 = backlog.iter().map(|b| b.len() as u64).sum();
    let cfg = begin(x, Horizon::Drain { total }, pause_at, lost);
    let planner = StaticPlanner {
        backlog,
        from: cursors,
        next_idx: Vec::new(),
    };
    let outs = x.execute(planner, cfg)?;
    let sims = x.shards();
    if outs[0].paused {
        // The pause cycle's own write-offs were published but never
        // folded into the replicated `lost`; the shards carry them.
        let mut next_idx = vec![0usize; n];
        for out in &outs {
            for &(v, idx) in &out.progress {
                next_idx[v as usize] = idx;
            }
        }
        let lost = outs[0].lost + outs.iter().map(|o| o.lost_pending).sum::<u64>();
        return Ok(StaticOutcome::Paused(RunProgress::Static {
            next_idx,
            lost,
        }));
    }
    let (delivered, dropped, lost) = (delivered(sims), dropped(sims), outs[0].lost);
    let stop = if delivered + dropped + lost == total {
        StopReason::Drained
    } else {
        aborted_stop(sims, &outs).unwrap_or(StopReason::MaxCycles)
    };
    let res = StaticResult {
        stats: merged_stats(sims),
        cycles: sims[0].core.cycle,
        delivered,
        total,
        drained: stop == StopReason::Drained,
        dropped,
        lost,
        stop,
    };
    install_stall(sims, outs);
    Ok(StaticOutcome::Finished(res))
}

/// Run a dynamic leg: from a fresh network, or from restored state with
/// `from`'s counters, for `cycles` cycles or to `pause_at`.
///
/// # Panics
///
/// Panics if `lambda` is not a probability or `from` is not dynamic
/// progress.
pub(crate) fn dynamic_leg<R, D, X>(
    x: &mut X,
    lambda: f64,
    dest: D,
    cycles: u64,
    from: Option<&RunProgress>,
    pause_at: Option<u64>,
) -> Result<DynamicOutcome, X::Error>
where
    R: RoutingFunction,
    D: FnMut(NodeId, &mut StdRng) -> NodeId,
    X: Executor<R, DynPlanner<D>>,
{
    assert!((0.0..=1.0).contains(&lambda));
    let (base_attempts, base_injected) = match from {
        None => (0, 0),
        Some(&RunProgress::Dynamic { attempts, injected }) => (attempts, injected),
        Some(RunProgress::Static { .. }) => panic!("resume_dynamic needs dynamic progress"),
    };
    let sim0 = &x.shards()[0];
    let planner = DynPlanner {
        lambda,
        dest,
        seed: sim0.core.cfg.seed,
        rounds: from.map_or(0, |_| sim0.core.cycle + 1),
        rngs: Vec::new(),
    };
    let cfg = begin(x, Horizon::Cycles(cycles), pause_at, from.map(|_| 0));
    let outs = x.execute(planner, cfg)?;
    let attempts = base_attempts + outs.iter().map(|o| o.attempts).sum::<u64>();
    let injected = base_injected + outs.iter().map(|o| o.injected).sum::<u64>();
    if outs[0].paused {
        return Ok(DynamicOutcome::Paused(RunProgress::Dynamic {
            attempts,
            injected,
        }));
    }
    let sims = x.shards();
    let res = DynamicResult {
        stats: merged_stats(sims),
        attempts,
        injected,
        delivered: delivered(sims),
        cycles: sims[0].core.cycle,
        dropped: dropped(sims),
        stop: aborted_stop(sims, &outs).unwrap_or(StopReason::HorizonReached),
    };
    install_stall(sims, outs);
    Ok(DynamicOutcome::Finished(res))
}

/// Why an unfinished run stopped early: a partition, an abort (the
/// watchdog or a recorder), or neither.
fn aborted_stop<R: RoutingFunction, Rec: Recorder, S: OptionSource<R>>(
    sims: &[Simulator<R, Rec, S>],
    outs: &[ShardOut],
) -> Option<StopReason> {
    if sims.iter().any(|s| !s.core.partitioned.is_empty()) {
        Some(StopReason::Partitioned)
    } else if outs[0].aborted {
        Some(StopReason::Aborted)
    } else {
        None
    }
}

/// Assemble the stall report from every shard's part into shard 0.
fn install_stall<R: RoutingFunction, Rec: Recorder, S: OptionSource<R>>(
    sims: &mut [Simulator<R, Rec, S>],
    outs: Vec<ShardOut>,
) {
    let mut parts = outs.into_iter().filter_map(|o| o.stall);
    sims[0].stall = parts.next().map(|mut r| {
        for part in parts {
            r.queues.extend(part.queues);
            r.oldest = r.oldest.into_iter().chain(part.oldest).min();
        }
        // Shards own interleaved node sets under non-contiguous
        // partitions; (node, class) pairs are unique.
        r.queues.sort_unstable();
        r.partitioned = partitioned(sims);
        r
    });
}

/// Packets delivered across the shards.
pub(crate) fn delivered<R: RoutingFunction, Rec: Recorder, S: OptionSource<R>>(
    sims: &[Simulator<R, Rec, S>],
) -> u64 {
    sims.iter().map(|s| s.core.delivered).sum()
}

/// Packets dropped across the shards.
pub(crate) fn dropped<R: RoutingFunction, Rec: Recorder, S: OptionSource<R>>(
    sims: &[Simulator<R, Rec, S>],
) -> u64 {
    sims.iter().map(|s| s.core.dropped).sum()
}

/// The shards' latency statistics, merged (exact: integer accumulators).
pub(crate) fn merged_stats<R: RoutingFunction, Rec: Recorder, S: OptionSource<R>>(
    sims: &[Simulator<R, Rec, S>],
) -> LatencyStats {
    let mut stats = sims[0].core.stats.clone();
    for sim in &sims[1..] {
        stats.merge(&sim.core.stats);
    }
    stats
}

/// Destinations a fault made unreachable on any shard, sorted and
/// deduplicated.
pub(crate) fn partitioned<R: RoutingFunction, Rec: Recorder, S: OptionSource<R>>(
    sims: &[Simulator<R, Rec, S>],
) -> Vec<u32> {
    let mut out: Vec<u32> = sims
        .iter()
        .flat_map(|s| s.core.partitioned.iter().copied())
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Deterministic per-node RNG stream for dynamic injection: node `v`'s
/// Bernoulli trials and destination draws come from its own generator,
/// so the offered workload is independent of the order nodes are visited
/// in — the property that lets a sharded run reproduce the sequential
/// injection sequence exactly.
fn node_rng(seed: u64, v: usize) -> StdRng {
    // Golden-ratio multiply decorrelates consecutive node ids before
    // `seed_from_u64`'s SplitMix64 scrambling.
    StdRng::seed_from_u64(seed ^ (v as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One per-cycle injection draw of node `v`'s stream: the Bernoulli
/// trial (skipped at λ = 1) and, on success, the destination draw.
/// This is *the* RNG consumption contract of a dynamic run — the
/// planner and the resume fast-forward both replay exactly this, so a
/// resumed stream continues bit-identically.
fn draw(
    rng: &mut StdRng,
    lambda: f64,
    v: NodeId,
    dest: &mut impl FnMut(NodeId, &mut StdRng) -> NodeId,
) -> Option<NodeId> {
    if lambda < 1.0 && !rng.gen_bool(lambda) {
        return None;
    }
    Some(dest(v, rng))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_rng_streams_are_distinct() {
        let mut a = node_rng(7, 0);
        let mut b = node_rng(7, 1);
        let va: Vec<u64> = (0..4).map(|_| a.gen_range(0..1u64 << 60)).collect();
        let vb: Vec<u64> = (0..4).map(|_| b.gen_range(0..1u64 << 60)).collect();
        assert_ne!(va, vb);
        // Same (seed, node) reproduces the stream.
        let mut a2 = node_rng(7, 0);
        let va2: Vec<u64> = (0..4).map(|_| a2.gen_range(0..1u64 << 60)).collect();
        assert_eq!(va, va2);
    }
}
