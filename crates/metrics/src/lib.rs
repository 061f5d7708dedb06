//! Statistics and table formatting for routing experiments.
//!
//! Provides the measurements the paper's § 7 reports — average latency
//! `L_avg`, maximum latency `L_max`, and effective injection rate `I_r` —
//! plus latency histograms/percentiles (exact [`Histogram`] and
//! log-bucketed [`LogHistogram`]), plain-text/CSV table rendering in
//! the style of the paper's Tables 1–12, and the [`record`]
//! observability layer (event [`Recorder`] trait, routing-decision
//! [`CounterSink`], JSONL [`TraceSink`], no-progress [`WatchdogSink`],
//! replay [`JournalSink`], per-class [`LatencySink`], and live
//! [`WaitGraphSink`]), and the [`json`] wire format every `fadr-*`
//! document is read and written in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ci;
pub mod json;
pub mod partition;
pub mod record;
pub mod stats;
pub mod table;

pub use ci::{t_quantile_975, MeanCi, RunningStats, Verdict};
pub use partition::PartitionStats;
pub use record::{
    Control, CounterSink, JournalEvent, JournalSink, LatencySink, NoRecorder, Recorder,
    ShardRecorder, SinkSet, StallReport, TraceSink, TraceState, WaitGraphSink, WatchdogSink,
};
pub use stats::{Histogram, LatencyStats, LogHistogram};
pub use table::Table;
