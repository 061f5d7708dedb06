//! Snapshot replay: restore a `fadr-snapshot/3` checkpoint, rebuild the
//! workload it was running from its metadata line, and re-execute —
//! with a journal attached — to a target cycle or to completion. The
//! journal of the replayed segment can then be diffed against a
//! reference journal (`--journal` output of the original run) to
//! localize the *first divergent event* of a run pair, which is the
//! flight-recorder debugging loop: checkpoint near the anomaly, replay
//! deterministically, diff.
//!
//! The snapshot's `meta` label is written by the runner
//! ([`meta_line`]): a work-unit label followed by `key=value` pairs
//! carrying everything the engine state does not — which router ran
//! (the `--algo` spelling of a hypercube row of the scheme registry,
//! [`hypercube_scheme`]), which paper table (hence pattern and
//! injection model), the dynamic horizon, and the workload seed. Engine state (queue
//! capacity, RNG seed, in-flight packets) lives in the snapshot body
//! itself.

use fadr_core::scheme::{with_hypercube, Scheme, SchemeSpec, SchemeVisitor, Size};
use fadr_metrics::{JournalSink, SinkSet, StallReport, WaitGraphSink};
use fadr_qdg::sym::Symmetry;
use fadr_sim::{FaultPlan, SimConfig, Simulator, SnapshotMsg, StopReason};

use crate::runner::{drive, hypercube_scheme, spec, Leg, RunResult, Source, Workload};

/// Render the snapshot metadata line for one work unit. `lambda` is
/// `Some` only for non-table dynamic points (sweeps); paper tables
/// derive their injection model from the table number.
#[allow(clippy::too_many_arguments)]
pub fn meta_line(
    label: &str,
    algo: &Scheme,
    table: usize,
    n: usize,
    cap: usize,
    cycles: u64,
    seed: u64,
    lambda: Option<f64>,
) -> String {
    let mut out = format!(
        "{label} algo={} table={table} n={n} cap={cap} cycles={cycles} seed={seed}",
        algo.algo()
    );
    if let Some(l) = lambda {
        out.push_str(&format!(" lambda={l}"));
    }
    out
}

/// Parsed snapshot metadata (see [`meta_line`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotMeta {
    /// Work-unit label (snapshot file stem).
    pub label: String,
    /// Router that produced the snapshot.
    pub algo: &'static Scheme,
    /// Paper table number (0 = a sweep point: dynamic, uniform random).
    pub table: usize,
    /// Hypercube dimension.
    pub n: usize,
    /// Central queue capacity.
    pub cap: usize,
    /// Dynamic horizon in routing cycles.
    pub cycles: u64,
    /// Workload seed (pattern compilation and backlog/injection draws).
    pub seed: u64,
    /// Injection rate for sweep points (`table == 0`).
    pub lambda: Option<f64>,
}

impl SnapshotMeta {
    /// Parse a metadata line (label first, then `key=value` pairs).
    pub fn parse(line: &str) -> Result<Self, String> {
        let mut words = line.split_whitespace();
        let label = words.next().ok_or("empty snapshot meta line")?.to_string();
        let mut meta = SnapshotMeta {
            label,
            algo: hypercube_scheme("fully-adaptive")?,
            table: 0,
            n: 0,
            cap: 0,
            cycles: 0,
            seed: 0,
            lambda: None,
        };
        let mut seen_algo = false;
        let mut seen_n = false;
        for w in words {
            let (key, val) = w
                .split_once('=')
                .ok_or_else(|| format!("bad meta field `{w}` (expected key=value)"))?;
            match key {
                "algo" => {
                    meta.algo =
                        hypercube_scheme(val).map_err(|_| format!("unknown algo `{val}`"))?;
                    seen_algo = true;
                }
                "table" => meta.table = val.parse().map_err(|e| format!("table: {e}"))?,
                "n" => {
                    meta.n = val.parse().map_err(|e| format!("n: {e}"))?;
                    seen_n = true;
                }
                "cap" => meta.cap = val.parse().map_err(|e| format!("cap: {e}"))?,
                "cycles" => meta.cycles = val.parse().map_err(|e| format!("cycles: {e}"))?,
                "seed" => meta.seed = val.parse().map_err(|e| format!("seed: {e}"))?,
                "lambda" => {
                    meta.lambda = Some(val.parse().map_err(|e| format!("lambda: {e}"))?);
                }
                // Unknown keys are ignored so older binaries can read
                // snapshots from newer ones.
                _ => {}
            }
        }
        if !seen_algo || !seen_n {
            return Err("snapshot meta is missing algo= or n= (not a runner snapshot?)".into());
        }
        Ok(meta)
    }
}

/// Read the `meta` label of a snapshot without restoring it.
pub fn peek_meta(text: &str) -> Result<SnapshotMeta, String> {
    SnapshotMeta::parse(&fadr_sim::snapshot::meta(text)?)
}

/// Replay controls (the `replay` binary's flags).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayOptions {
    /// Re-execute up to this cycle (pause there); `None` = to completion.
    pub to: Option<u64>,
    /// Attach a no-progress watchdog with this window.
    pub watchdog: Option<u64>,
    /// Attach the live wait-for-graph probe.
    pub waitgraph: bool,
    /// Journal ring capacity (0 = [`JournalSink::DEFAULT_CAPACITY`]).
    pub journal_capacity: usize,
    /// Fault plan of the original run, if it had one (fault replay needs
    /// the same schedule to reproduce post-checkpoint fault events).
    pub faults: Option<&'static FaultPlan>,
}

/// What a replay produced.
#[derive(Debug, Clone)]
pub struct ReplayOutput {
    /// The snapshot's parsed metadata.
    pub meta: SnapshotMeta,
    /// Cycle the snapshot restored to (the checkpoint cycle).
    pub start_cycle: u64,
    /// Cycle the replay stopped at.
    pub end_cycle: u64,
    /// How the replayed segment ended.
    pub outcome: String,
    /// The replayed segment's journal (events strictly after
    /// `start_cycle`).
    pub journal: JournalSink,
    /// Wait-for-graph summary, when enabled.
    pub waitgraph: Option<WaitGraphSink>,
    /// Stall report, when a watchdog fired.
    pub stall: Option<StallReport>,
}

/// Restore `text` and re-execute its workload under `ro` (sequential
/// engine; snapshots are partition-agnostic, so shard-run checkpoints
/// replay here unchanged).
pub fn replay(text: &str, ro: &ReplayOptions) -> Result<ReplayOutput, String> {
    let meta = peek_meta(text)?;
    if meta.table > 12 {
        return Err(format!(
            "snapshot names table {}; tables are 1–12",
            meta.table
        ));
    }
    let scheme = SchemeSpec::new(meta.algo, Size::Dims(meta.n))?;
    with_hypercube(&scheme, Replay { meta, text, ro })?
}

/// A parsed snapshot waiting for its router (see [`replay`]).
struct Replay<'a> {
    meta: SnapshotMeta,
    text: &'a str,
    ro: &'a ReplayOptions,
}

impl SchemeVisitor for Replay<'_> {
    type Out = Result<ReplayOutput, String>;

    fn visit<R>(self, rf: R) -> Self::Out
    where
        R: Symmetry + Clone + Send + 'static,
        R::Msg: Send + SnapshotMsg,
    {
        let Replay { meta, text, ro } = self;
        // The engine validates this config against the snapshot's `cfg`
        // record on restore, so a tampered meta line cannot silently
        // replay the wrong configuration.
        let cfg = SimConfig {
            queue_capacity: meta.cap,
            seed: meta.seed,
            ..SimConfig::default()
        };
        let mut sinks = SinkSet::new().with_journal(if ro.journal_capacity == 0 {
            JournalSink::DEFAULT_CAPACITY
        } else {
            ro.journal_capacity
        });
        if ro.waitgraph {
            sinks = sinks.with_waitgraph();
        }
        let mut sim = Simulator::with_recorder(rf, cfg, sinks);
        if let Some(plan) = ro.faults {
            sim = sim.with_faults(plan.clone());
        }
        if let Some(k) = ro.watchdog {
            sim = sim.with_watchdog(k);
        }
        let source = if meta.table >= 1 {
            Source::Table(spec(meta.table))
        } else {
            Source::Random {
                lambda: meta.lambda.unwrap_or(1.0),
            }
        };
        let workload = Workload::new(source, meta.n, meta.seed, meta.cycles);
        let (_, progress) = sim.restore(text)?;
        workload.check_progress(&progress)?;
        let start_cycle = sim.cycle();
        if let Some(to) = ro.to {
            if to <= start_cycle {
                return Err(format!(
                    "--to {to} is not after the checkpoint cycle {start_cycle}"
                ));
            }
        }
        let outcome = match drive(&mut sim, &workload, Some(progress), ro.to) {
            Leg::Paused(_) => format!("paused at cycle {}", sim.cycle()),
            Leg::Finished(RunResult::Static(res)) => describe_stop(res.stop, res.drained),
            Leg::Finished(RunResult::Dynamic(res)) => describe_stop(res.stop, true),
        };
        let end_cycle = sim.cycle();
        let stall = sim.stall_report().cloned();
        let mut sinks = sim.into_recorder();
        sinks.flush();
        Ok(ReplayOutput {
            meta,
            start_cycle,
            end_cycle,
            outcome,
            journal: sinks.journal.take().ok_or("journal sink vanished")?,
            waitgraph: sinks.waitgraph.take(),
            stall,
        })
    }
}

fn describe_stop(stop: StopReason, drained: bool) -> String {
    match stop {
        StopReason::Aborted => "aborted (watchdog stall)".to_string(),
        StopReason::Partitioned => "aborted (destination partitioned)".to_string(),
        _ if drained => "finished (drained)".to_string(),
        _ => "finished".to_string(),
    }
}

/// The cycle number of a journal line (`<cycle> <kind> ...`); comment
/// (`#`) and malformed lines return `None`.
fn line_cycle(line: &str) -> Option<u64> {
    line.split_whitespace().next()?.parse().ok()
}

/// Restrict journal `lines` to events with `floor < cycle <= ceil`,
/// dropping `#` headers — the comparable window of a reference journal
/// against a replayed segment.
pub fn journal_window(lines: &[String], floor: u64, ceil: Option<u64>) -> Vec<String> {
    lines
        .iter()
        .filter(|l| {
            line_cycle(l).is_some_and(|c| {
                c > floor
                    && match ceil {
                        Some(hi) => c <= hi,
                        None => true,
                    }
            })
        })
        .cloned()
        .collect()
}

/// Pick the reference-journal section belonging to `meta`'s work unit.
/// A `--journal` file holds one `#`-headed section per instrumented row
/// (`# table <t> n=<n> ...` for table rows, `# <label> n=<n> ...` for
/// sweep points); a replayed snapshot diffs against exactly one of
/// them. A headerless file is taken whole.
pub fn select_section(lines: &[String], meta: &SnapshotMeta) -> Result<Vec<String>, String> {
    let mut sections: Vec<(String, Vec<String>)> = Vec::new();
    for line in lines {
        if let Some(hdr) = line.strip_prefix('#') {
            sections.push((hdr.trim().to_string(), Vec::new()));
        } else if let Some((_, body)) = sections.last_mut() {
            body.push(line.clone());
        } else {
            // No header yet: a bare journal (e.g. replay --journal-out
            // output with its header stripped, or a hand-cut excerpt).
            return Ok(lines.to_vec());
        }
    }
    if sections.len() <= 1 {
        return Ok(sections.pop().map(|(_, body)| body).unwrap_or_default());
    }
    let table_tag = format!("table {} n={} ", meta.table, meta.n);
    let label_tag = format!("{} ", meta.label);
    // Sweep rows carry a display label ("lambda=0.4 algo=fully-adaptive
    // n=8 ..." / "cap=5 algo=... n=8 ...") that differs from the
    // file-safe snapshot label; match those by coordinates instead.
    let algo_tag = format!("algo={} ", meta.algo.algo());
    let n_tag = format!(" n={} ", meta.n);
    let point_tag = match meta.lambda {
        Some(l) => format!("lambda={l} "),
        None => format!("cap={} ", meta.cap),
    };
    let mut hits: Vec<usize> = (0..sections.len())
        .filter(|&i| {
            let h = &sections[i].0;
            h.starts_with(&table_tag)
                || h.starts_with(&label_tag)
                || (h.contains(&point_tag) && h.contains(&algo_tag) && h.contains(&n_tag))
        })
        .collect();
    match (hits.len(), hits.pop()) {
        (1, Some(i)) => Ok(std::mem::take(&mut sections[i].1)),
        (0, _) => Err(format!(
            "reference journal has {} sections but none match this snapshot \
             (wanted `# {}` or `# {}`)",
            sections.len(),
            table_tag.trim(),
            label_tag.trim()
        )),
        _ => Err(format!(
            "reference journal has multiple sections matching this snapshot \
             (`# {}`); cut it down to one",
            label_tag.trim()
        )),
    }
}

/// First divergent line between two journals, with both sides (`None`
/// when a journal ran out). Returns `None` when the journals agree.
pub fn first_divergence(
    a: &[String],
    b: &[String],
) -> Option<(usize, Option<String>, Option<String>)> {
    let common = a.len().min(b.len());
    for i in 0..common {
        if a[i] != b[i] {
            return Some((i, Some(a[i].clone()), Some(b[i].clone())));
        }
    }
    if a.len() != b.len() {
        return Some((common, a.get(common).cloned(), b.get(common).cloned()));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_round_trips() {
        let sbp = hypercube_scheme("ecube-sbp").unwrap();
        let line = meta_line("t9_n6_q5_r0", sbp, 9, 6, 5, 500, 0xFAD2, None);
        let m = SnapshotMeta::parse(&line).unwrap();
        assert_eq!(m.label, "t9_n6_q5_r0");
        assert_eq!(m.algo.name, "ecube-sbp");
        assert_eq!(
            (m.table, m.n, m.cap, m.cycles, m.seed),
            (9, 6, 5, 500, 0xFAD2)
        );
        assert_eq!(m.lambda, None);

        let line = meta_line(
            "lambda0.4_fully-adaptive",
            hypercube_scheme("fully-adaptive").unwrap(),
            0,
            8,
            5,
            300,
            7,
            Some(0.4),
        );
        let m = SnapshotMeta::parse(&line).unwrap();
        assert_eq!(m.table, 0);
        assert_eq!(m.lambda, Some(0.4));
    }

    #[test]
    fn meta_rejects_garbage() {
        assert!(SnapshotMeta::parse("").is_err());
        assert!(SnapshotMeta::parse("label onlylabel").is_err());
        assert!(SnapshotMeta::parse("label algo=warp n=4").is_err());
        assert!(
            SnapshotMeta::parse("label algo=fully-adaptive").is_err(),
            "missing n"
        );
        // Unknown keys are forward-compatible noise, not errors.
        assert!(SnapshotMeta::parse("label algo=fully-adaptive n=4 future=1").is_ok());
    }

    #[test]
    fn peek_requires_magic() {
        let mut sim = Simulator::new(fadr_core::EcubeSbp::new(3), SimConfig::default());
        let paused = sim.run_dynamic_until(1.0, |s, _| s ^ 7, 10, Some(2));
        let fadr_sim::DynamicOutcome::Paused(progress) = paused else {
            panic!("run did not pause");
        };
        let text = sim.checkpoint("x algo=ecube-sbp n=3", &progress);
        assert_eq!(peek_meta(&text).unwrap().algo.name, "ecube-sbp");
        assert!(peek_meta("not a snapshot").is_err());
        let old = text.replacen("fadr-snapshot/3", "fadr-snapshot/1", 1);
        assert!(peek_meta(&old).unwrap_err().contains("unsupported schema"));
        let cut = &text[..text.len() / 2];
        assert!(peek_meta(cut).unwrap_err().contains("at byte"));
    }

    #[test]
    fn divergence_localizes_first_mismatch() {
        let a: Vec<String> = ["1 a", "2 b", "3 c"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let b: Vec<String> = ["1 a", "2 x", "3 c"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(first_divergence(&a, &a), None);
        let (i, l, r) = first_divergence(&a, &b).unwrap();
        assert_eq!(
            (i, l.as_deref(), r.as_deref()),
            (1, Some("2 b"), Some("2 x"))
        );
        let short = &a[..2];
        let (i, l, r) = first_divergence(short, &a).unwrap();
        assert_eq!((i, l, r.as_deref()), (2, None, Some("3 c")));
    }

    #[test]
    fn section_selection_matches_work_unit() {
        let lines: Vec<String> = [
            "# table 9 n=10 events=2 hash=0x0 dropped=0",
            "1 a",
            "2 b",
            "# table 9 n=11 events=1 hash=0x0 dropped=0",
            "3 c",
            "# lambda=0.4 algo=ecube-sbp n=10 events=1 hash=0x0 dropped=0",
            "4 d",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let t9 = SnapshotMeta::parse("t9_n10_q5_r0 algo=fully-adaptive table=9 n=10").unwrap();
        assert_eq!(select_section(&lines, &t9).unwrap(), vec!["1 a", "2 b"]);
        let sweep =
            SnapshotMeta::parse("lambda0.4_ecube-sbp algo=ecube-sbp table=0 n=10 lambda=0.4")
                .unwrap();
        assert_eq!(select_section(&lines, &sweep).unwrap(), vec!["4 d"]);
        let miss = SnapshotMeta::parse("t1_n4_q5_r0 algo=fully-adaptive table=1 n=4").unwrap();
        assert!(select_section(&lines, &miss).is_err());
        // Headerless journals are taken whole.
        let bare: Vec<String> = vec!["1 a".into(), "2 b".into()];
        assert_eq!(select_section(&bare, &miss).unwrap(), bare);
    }

    #[test]
    fn window_filters_headers_and_range() {
        let lines: Vec<String> = ["# hdr", "3 deliver", "5 link", "9 link"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            journal_window(&lines, 3, Some(5)),
            vec!["5 link".to_string()]
        );
        assert_eq!(journal_window(&lines, 0, None).len(), 3);
    }
}
