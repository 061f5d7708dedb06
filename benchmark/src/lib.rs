//! `fadr-benchmark`: the end-to-end and per-layer benchmark of fadroute.
//!
//! Four workloads ([`workloads::NAMES`]) drive the library through its
//! public API only. The untraced run times each workload's passes and
//! reports the end-to-end metrics of [`END_TO_END`]; the traced run
//! ([`layers`]) records spans around every library call and reports
//! per-layer metrics. Every output is checked: invariants on every seed,
//! digests against blessed golden files on the seeds that have one, and
//! the lane, sharded and resumed engines against the sequential
//! `Simulator`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod golden;
pub mod json;
pub mod layers;
pub mod paper;
pub mod report;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

use std::time::{Duration, Instant};

use crate::golden::{Checks, Golden};
use crate::stats::{Better, Summary};
use crate::trace::Tracer;
use crate::workloads::{PassOut, Workload};

/// The default workload seed (the table harness's default seed).
pub const DEFAULT_SEED: u64 = 0xFAD2;

/// The held-out seed: blessed, but never used while tuning the workloads.
pub const HELD_OUT_SEED: u64 = 0x7E57_5EED;

/// Parse a seed written in decimal or as `0x…` hex.
///
/// # Errors
///
/// Returns a message when `s` is neither.
pub fn parse_seed(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("not a seed: {s}"))
}

/// An end-to-end metric: its name, unit, direction and regression bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, as printed and as keyed in result documents.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Share of the base median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
    /// Absolute change below which no regression is called.
    pub floor: f64,
}

/// The end-to-end metrics, in print order.
pub const END_TO_END: [MetricDef; 6] = [
    MetricDef {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
    },
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.02,
    },
    MetricDef {
        name: "delivered_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
    },
    MetricDef {
        name: "node_cycles_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
    },
    MetricDef {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
    },
    MetricDef {
        name: "fail_frac",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        floor: 0.0,
    },
];

/// The end-to-end metrics `BENCHMARK.json` gates on: those that apply to
/// every workload and are never 0 (`fail_frac` is 0 on a correct build,
/// and delivery rates do not apply to `certify_lint`).
pub const GATED: [&str; 3] = ["wall_s", "setup_s", "peak_rss_mb"];

/// The definition of end-to-end metric `name`.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The process exit status for a run with these checks: 0 when every
/// output check passed, 1 otherwise.
pub fn exit_status(checks: &Checks) -> u8 {
    u8::from(checks.failed > 0)
}

/// How long a measurement runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Exactly this many timed passes.
    Passes(usize),
    /// Timed passes until this many seconds have elapsed (at least one).
    Seconds(f64),
}

/// One workload's untraced measurement.
///
/// Times are host seconds at nominal host speed: each pass's measured
/// seconds times the host speed the probe kernel measured around it
/// ([`sys::host_speed`]), so a host that slows down for a few minutes
/// does not read as a slower program. The raw seconds are the reported
/// ones divided by `host_speed`.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Workload name.
    pub name: &'static str,
    /// Per-pass wall seconds at nominal host speed.
    pub wall_s: Vec<f64>,
    /// Per-pass set-up seconds at nominal host speed.
    pub setup_s: Vec<f64>,
    /// Per-pass delivered packets per second of run time (empty for
    /// `certify_lint`).
    pub delivered_per_s: Vec<f64>,
    /// Per-pass simulated node·cycles per second of run time.
    pub node_cycles_per_s: Vec<f64>,
    /// Peak RSS over the workload, or `None` when the kernel's peak mark
    /// could not be reset (it could then belong to earlier work).
    pub peak_rss_mb: Option<f64>,
    /// Per-pass host speed relative to nominal ([`sys::host_speed`]);
    /// the time metrics are already divided by it.
    pub host_speed: Vec<f64>,
    /// Output checks.
    pub checks: Checks,
    /// Relative `L_avg` error per paper-table run (information only).
    pub paper_errors: Vec<(String, f64)>,
}

impl Measured {
    /// Summary of end-to-end metric `name`, `None` where it does not
    /// apply or was not measured.
    pub fn summary(&self, name: &str) -> Option<Summary> {
        let one = |v: f64| Some(Summary::of(&[v]));
        match name {
            "wall_s" => Some(Summary::of(&self.wall_s)),
            "setup_s" => Some(Summary::of(&self.setup_s)),
            "delivered_per_s" if !self.delivered_per_s.is_empty() => {
                Some(Summary::of(&self.delivered_per_s))
            }
            "node_cycles_per_s" if !self.node_cycles_per_s.is_empty() => {
                Some(Summary::of(&self.node_cycles_per_s))
            }
            "peak_rss_mb" => self.peak_rss_mb.and_then(one),
            "fail_frac" => one(self.checks.fail_frac()),
            _ => None,
        }
    }

    /// The per-pass samples behind metric `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        match name {
            "wall_s" => &self.wall_s,
            "setup_s" => &self.setup_s,
            "delivered_per_s" => &self.delivered_per_s,
            "node_cycles_per_s" => &self.node_cycles_per_s,
            _ => &[],
        }
    }
}

/// Measure one workload, untraced: one untimed warm-up unit, then timed
/// passes until `budget` is spent.
pub fn measure(w: &Workload, seed: u64, golden: Option<&Golden>, budget: Budget) -> Measured {
    let p = w.prepare(seed);
    let reset = sys::reset_peak_rss();
    let mut tr = Tracer::new(false);
    let mut checks = Checks::default();
    let mut warm = PassOut::default();
    p.unit(0, &mut tr, &mut warm);
    tr.take_setup_s();
    checks.outputs(&warm.outs, golden);

    let mut m = Measured {
        name: w.name(),
        wall_s: Vec::new(),
        setup_s: Vec::new(),
        delivered_per_s: Vec::new(),
        node_cycles_per_s: Vec::new(),
        peak_rss_mb: None,
        host_speed: Vec::new(),
        checks: Checks::default(),
        paper_errors: Vec::new(),
    };
    let start = Instant::now();
    let last = loop {
        let before = sys::probe_s();
        let out = p.pass(&mut tr);
        let speed = sys::host_speed(before, sys::probe_s());
        let wall = tr.last_s() * speed;
        let setup = tr.take_setup_s() * speed;
        m.host_speed.push(speed);
        m.wall_s.push(wall);
        m.setup_s.push(setup);
        if w.simulates() {
            let run = (wall - setup).max(f64::MIN_POSITIVE);
            m.delivered_per_s.push(out.delivered as f64 / run);
            m.node_cycles_per_s.push(out.node_cycles as f64 / run);
        }
        checks.outputs(&out.outs, golden);
        let done = match budget {
            Budget::Passes(k) => m.wall_s.len() >= k,
            Budget::Seconds(s) => start.elapsed() >= Duration::from_secs_f64(s),
        };
        if done {
            break out;
        }
    };
    m.peak_rss_mb = if reset { sys::peak_rss_mb() } else { None };
    checks.against(&last.outs, &p.reference(false));
    m.paper_errors = p.paper_errors(&last.outs);
    m.checks = checks;
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        assert_eq!(parse_seed("0xFAD2"), Ok(0xFAD2));
        assert_eq!(parse_seed("64210"), Ok(64210));
        assert_eq!(parse_seed("0x7e575eed"), Ok(HELD_OUT_SEED));
        assert!(parse_seed("seven").is_err());
    }

    #[test]
    fn gated_metrics_are_end_to_end_metrics() {
        for g in GATED {
            assert!(metric(g).is_some(), "{g}");
        }
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(metric("setup_s").map(|m| m.bound), Some(largest));
    }
}
