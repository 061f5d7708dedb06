//! Cycle-accurate packet-routing simulator implementing the node model of
//! the paper's § 6 and the simulation methodology of § 7.1.
//!
//! # The node model
//!
//! Every node has a size-1 **injection buffer**, an unbounded **delivery
//! queue**, and one bounded **central queue** per class of the routing
//! algorithm (size 5 in the paper). Every directed physical channel
//! carries one **output buffer** (at the sender) and one **input buffer**
//! (at the receiver) *per traffic class*: one pair per target queue class
//! for static links, plus a single pair for dynamic traffic (§ 6).
//!
//! # The routing cycle (§ 7.1)
//!
//! Each routing cycle consists of a node cycle and a link cycle:
//!
//! 1. **node fill** — each node fills its empty output buffers from low to
//!    high dimensions, taking messages from the central queues in FIFO
//!    order (the first message in FIFO order wanting a buffer gets it);
//!    a message moves at most once per cycle;
//! 2. **link** — each directed channel forwards one packet whose
//!    corresponding input buffer on the far side is empty, round-robin
//!    among its traffic-class buffers;
//! 3. **node read** — each node moves packets from its input buffers and
//!    its injection buffer into the required central queue if there is
//!    room, with rotating (fair) priority; packets whose routing state
//!    says "deliver" go straight to the delivery queue.
//!
//! It therefore takes a message two routing steps to traverse a node
//! (input buffer → queue, then queue → output buffer), and the paper
//! counts node activities as two time cycles: reported latency is
//! `2 · (delivery_cycle − injection_cycle) + 1` time cycles, which equals
//! `2 · hops + 1` for an uncontended route — matching Table 2's exact
//! `2n + 1` for Complement with one packet per node.
//!
//! The simulator is deterministic given the RNG seed; randomness is used
//! only for Bernoulli injection (λ < 1) and workload destination draws.
//!
//! # Observability
//!
//! The engine is generic over a [`Recorder`] — an event listener invoked
//! at every packet injection, queue entry/exit, link traversal (tagged
//! static/dynamic with its `q_A`/`q_B` class transition), stutter, block,
//! and delivery, plus an end-of-cycle hook that can abort a run. The
//! default [`NoRecorder`] is a zero-sized no-op whose empty inline hooks
//! compile away entirely, so an uninstrumented `Simulator::new(..)` pays
//! nothing. Attach sinks with [`Simulator::with_recorder`] — see
//! [`SinkSet`] for the stock counter/trace/watchdog sinks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod engine;
pub mod fault;
mod interface;
mod lanes;
mod layout;
pub mod node_design;
mod partition;
mod sharded;
pub mod snapshot;
mod store;

pub use engine::{
    DynamicOutcome, DynamicResult, OccupancyProbe, RunProgress, Simulator, StaticOutcome,
    StaticResult, StopReason,
};
pub use fadr_metrics::{
    json, Control, CounterSink, NoRecorder, PartitionStats, Recorder, ShardRecorder, SinkSet,
    StallReport, TraceSink, TraceState, WatchdogSink,
};
pub use fadr_qdg::SnapshotMsg;
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use interface::{Engine, Snapshots};
pub use lanes::{lane_seed, lane_seeds, LaneSim, StateTable};
pub use layout::Layout;
pub use partition::{Partition, PartitionError, PartitionStrategy};
pub use sharded::{ShardPanicked, ShardedSimulator};

/// Simulator configuration (§ 7.1 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Capacity of each central queue (`q_A`/`q_B` size; the paper
    /// fixes 5). A capacity of 0 deliberately wedges the network —
    /// packets can never leave their injection buffers — which is useful
    /// for exercising the no-progress watchdog
    /// ([`Simulator::with_watchdog`]); any run without a watchdog will
    /// spin to `max_cycles`.
    pub queue_capacity: usize,
    /// RNG seed (workload draws and Bernoulli injection).
    pub seed: u64,
    /// Safety horizon for static runs (a deadlock-free algorithm always
    /// drains; hitting this cap indicates a bug and fails the run).
    pub max_cycles: u64,
    /// Order in which a node's output buffers are filled (ablation knob;
    /// the paper specifies low-to-high dimensions).
    pub fill_order: FillOrder,
    /// Sample per-queue occupancy each cycle (small overhead; powers the
    /// congestion-profile experiments).
    pub track_occupancy: bool,
    /// Count each packet's link hops and compare with the topology
    /// distance at delivery, exposing `minimality_violations()` — an
    /// at-scale check of the algorithms' minimality claims.
    pub check_minimality: bool,
    /// Record a delivered-packets time series with this window length
    /// (in routing cycles); 0 disables it.
    pub throughput_window: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 5,
            seed: 0x5EED,
            max_cycles: 10_000_000,
            fill_order: FillOrder::LowToHigh,
            track_occupancy: false,
            check_minimality: false,
            throughput_window: 0,
        }
    }
}

/// Output-buffer fill order within a node (§ 7.1 specifies
/// [`FillOrder::LowToHigh`]; the others exist for ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillOrder {
    /// Low dimensions first (the paper's rule).
    LowToHigh,
    /// High dimensions first.
    HighToLow,
    /// Start position rotates by one each cycle, phase-offset per node
    /// (a hash of the node id) so the network doesn't prefer one
    /// dimension in lockstep.
    Rotating,
}
