//! Experiment harness regenerating every table and figure of the paper.
//!
//! * [`paper`] — the reference values of Tables 1–12 as printed in the
//!   paper, for side-by-side comparison.
//! * [`runner`] — table specifications and the code that re-runs each
//!   experiment on the `fadr-sim` simulator.
//! * `bin/tables` — regenerates Tables 1–12 (`--table K`, `--all`,
//!   `--full` for the paper's complete n = 10..14 sweep).
//! * `bin/figures` — regenerates Figures 1–6 (QDGs as Graphviz DOT, node
//!   designs as text).
//! * `bin/perf` — interleaved A/B timing (the `--compare self` honesty
//!   gate and the option-source A/B) and the `--large` scale scenarios;
//!   the tracked ledger is the `benchmark/` package.
//! * [`perf`] — the minimal timing/reporting harness those use.
//! * [`exec`] — deterministic parallel execution of independent
//!   simulation runs (`--jobs N`).
//! * [`obs`] — observability wiring: the `--trace` / `--metrics-out` /
//!   `--watchdog` / `--journal` / `--waitgraph` flags, the
//!   checkpoint/resume controls, recording-sink construction, and
//!   structured JSON export.
//! * [`replay`] — snapshot replay: restore a `fadr-snapshot/3`
//!   checkpoint, re-execute with a journal attached, and diff against a
//!   reference journal (`bin/replay`).
//! * `benches/` — one timing bench per table plus ablation benches for
//!   the design choices called out in DESIGN.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod obs;
pub mod paper;
pub mod perf;
pub mod replay;
pub mod runner;
