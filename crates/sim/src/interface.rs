//! One run interface over the packet engines.
//!
//! The sequential [`Simulator`] on either option source and the
//! shard-parallel [`ShardedSimulator`] produce bit-identical runs, so a
//! harness has no reason to know which one it holds. [`Engine`] is that
//! common surface: pausable static and dynamic runs, their resume legs,
//! and the post-run accessors. [`Snapshots`] adds checkpoint/restore,
//! which only the computed source has; the two computed engines
//! exchange snapshots freely. Both engines' runs are the same driver
//! legs on different executors; the only adaptation is the error
//! channel — the sharded engine reports a worker panic as
//! [`ShardPanicked`], and the sequential engine, which has no workers,
//! always returns `Ok`.
//!
//! Destination functions are `Fn + Sync` (not `FnMut`) because the
//! sharded engine shares one closure across its shard threads.

use rand::rngs::StdRng;

use fadr_metrics::{Recorder, ShardRecorder, StallReport};
use fadr_qdg::{RoutingFunction, SnapshotMsg};
use fadr_topology::NodeId;

use crate::driver;
use crate::engine::OptionSource;
use crate::{
    DynamicOutcome, RunProgress, ShardPanicked, ShardedSimulator, Simulator, StaticOutcome,
};

/// A packet engine a harness can drive without knowing which one it is.
/// The run methods return [`ShardPanicked`] if a shard worker panicked
/// (the engine's state is then unspecified — drop it).
pub trait Engine {
    /// The attached event recorder (a sharded engine merges its
    /// per-shard recorders into one on [`Engine::into_recorder`]).
    type Rec;

    /// Run a static-injection experiment from a fresh network, pausing
    /// at cycle `pause_at` if given (see [`Simulator::run_static_until`]).
    fn run_static_until(
        &mut self,
        backlog: &[Vec<NodeId>],
        pause_at: Option<u64>,
    ) -> Result<StaticOutcome, ShardPanicked>;

    /// Continue a static run from restored state (see
    /// [`Simulator::resume_static`]).
    fn resume_static(
        &mut self,
        backlog: &[Vec<NodeId>],
        progress: RunProgress,
        pause_at: Option<u64>,
    ) -> Result<StaticOutcome, ShardPanicked>;

    /// Run a dynamic-injection experiment from a fresh network (see
    /// [`Simulator::run_dynamic_until`]).
    fn run_dynamic_until<F>(
        &mut self,
        lambda: f64,
        dest: F,
        cycles: u64,
        pause_at: Option<u64>,
    ) -> Result<DynamicOutcome, ShardPanicked>
    where
        F: Fn(NodeId, &mut StdRng) -> NodeId + Sync;

    /// Continue a dynamic run from restored state (see
    /// [`Simulator::resume_dynamic`]).
    fn resume_dynamic<F>(
        &mut self,
        lambda: f64,
        dest: F,
        cycles: u64,
        progress: RunProgress,
        pause_at: Option<u64>,
    ) -> Result<DynamicOutcome, ShardPanicked>
    where
        F: Fn(NodeId, &mut StdRng) -> NodeId + Sync;

    /// Destinations a fault made unreachable in the last run, sorted.
    fn partitioned_destinations(&self) -> Vec<u32>;

    /// The stall report of the last run, if the engine's watchdog
    /// ([`Simulator::with_watchdog`], [`ShardedSimulator::with_watchdog`])
    /// or a fault partition aborted it. Both engines run the watchdog in
    /// the one run loop, so their reports are equal.
    fn stall_report(&self) -> Option<&StallReport>;

    /// Consume the engine and return its (merged) recorder.
    fn into_recorder(self) -> Self::Rec;
}

/// An [`Engine`] that checkpoints and restores: the computed
/// [`Simulator`] and the [`ShardedSimulator`]. A table-sourced simulator
/// has no snapshot form, so asking it for one fails to compile.
pub trait Snapshots: Engine {
    /// Serialize the paused engine as a `fadr-snapshot/2` document
    /// (byte-identical across engines; see [`Simulator::checkpoint`]).
    fn checkpoint(&self, meta: &str, progress: &RunProgress) -> String;

    /// Load a `fadr-snapshot/2` document written by either engine (see
    /// [`Simulator::restore`]).
    fn restore(&mut self, text: &str) -> Result<(String, RunProgress), String>;
}

impl<R: RoutingFunction, Rec: Recorder, S: OptionSource<R>> Engine for Simulator<R, Rec, S> {
    type Rec = Rec;

    fn run_static_until(
        &mut self,
        backlog: &[Vec<NodeId>],
        pause_at: Option<u64>,
    ) -> Result<StaticOutcome, ShardPanicked> {
        Ok(Simulator::run_static_until(self, backlog, pause_at))
    }

    fn resume_static(
        &mut self,
        backlog: &[Vec<NodeId>],
        progress: RunProgress,
        pause_at: Option<u64>,
    ) -> Result<StaticOutcome, ShardPanicked> {
        Ok(Simulator::resume_static(self, backlog, progress, pause_at))
    }

    fn run_dynamic_until<F>(
        &mut self,
        lambda: f64,
        dest: F,
        cycles: u64,
        pause_at: Option<u64>,
    ) -> Result<DynamicOutcome, ShardPanicked>
    where
        F: Fn(NodeId, &mut StdRng) -> NodeId + Sync,
    {
        Ok(Simulator::run_dynamic_until(
            self, lambda, dest, cycles, pause_at,
        ))
    }

    fn resume_dynamic<F>(
        &mut self,
        lambda: f64,
        dest: F,
        cycles: u64,
        progress: RunProgress,
        pause_at: Option<u64>,
    ) -> Result<DynamicOutcome, ShardPanicked>
    where
        F: Fn(NodeId, &mut StdRng) -> NodeId + Sync,
    {
        Ok(Simulator::resume_dynamic(
            self, lambda, dest, cycles, progress, pause_at,
        ))
    }

    fn partitioned_destinations(&self) -> Vec<u32> {
        Simulator::partitioned_destinations(self)
    }

    fn stall_report(&self) -> Option<&StallReport> {
        Simulator::stall_report(self)
    }

    fn into_recorder(self) -> Rec {
        Simulator::into_recorder(self)
    }
}

impl<R: RoutingFunction, Rec: Recorder> Snapshots for Simulator<R, Rec>
where
    R::Msg: SnapshotMsg,
{
    fn checkpoint(&self, meta: &str, progress: &RunProgress) -> String {
        Simulator::checkpoint(self, meta, progress)
    }

    fn restore(&mut self, text: &str) -> Result<(String, RunProgress), String> {
        Simulator::restore(self, text)
    }
}

impl<R, Rec> Engine for ShardedSimulator<R, Rec>
where
    R: RoutingFunction + Clone + Send,
    R::Msg: Send,
    Rec: ShardRecorder + Send,
{
    type Rec = Rec;

    fn run_static_until(
        &mut self,
        backlog: &[Vec<NodeId>],
        pause_at: Option<u64>,
    ) -> Result<StaticOutcome, ShardPanicked> {
        driver::static_leg(self, backlog, None, pause_at)
    }

    fn resume_static(
        &mut self,
        backlog: &[Vec<NodeId>],
        progress: RunProgress,
        pause_at: Option<u64>,
    ) -> Result<StaticOutcome, ShardPanicked> {
        driver::static_leg(self, backlog, Some(&progress), pause_at)
    }

    fn run_dynamic_until<F>(
        &mut self,
        lambda: f64,
        dest: F,
        cycles: u64,
        pause_at: Option<u64>,
    ) -> Result<DynamicOutcome, ShardPanicked>
    where
        F: Fn(NodeId, &mut StdRng) -> NodeId + Sync,
    {
        driver::dynamic_leg(self, lambda, &dest, cycles, None, pause_at)
    }

    fn resume_dynamic<F>(
        &mut self,
        lambda: f64,
        dest: F,
        cycles: u64,
        progress: RunProgress,
        pause_at: Option<u64>,
    ) -> Result<DynamicOutcome, ShardPanicked>
    where
        F: Fn(NodeId, &mut StdRng) -> NodeId + Sync,
    {
        driver::dynamic_leg(self, lambda, &dest, cycles, Some(&progress), pause_at)
    }

    fn partitioned_destinations(&self) -> Vec<u32> {
        ShardedSimulator::partitioned_destinations(self)
    }

    fn stall_report(&self) -> Option<&StallReport> {
        ShardedSimulator::stall_report(self)
    }

    fn into_recorder(self) -> Rec {
        ShardedSimulator::into_recorder(self)
    }
}

impl<R, Rec> Snapshots for ShardedSimulator<R, Rec>
where
    R: RoutingFunction + Clone + Send,
    R::Msg: Send + SnapshotMsg,
    Rec: ShardRecorder + Send,
{
    fn checkpoint(&self, meta: &str, progress: &RunProgress) -> String {
        ShardedSimulator::checkpoint(self, meta, progress)
    }

    fn restore(&mut self, text: &str) -> Result<(String, RunProgress), String> {
        ShardedSimulator::restore(self, text)
    }
}
