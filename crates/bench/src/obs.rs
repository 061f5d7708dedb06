//! Flag wiring shared by the harness binaries: the engine-selection
//! flags (`--jobs` / `--shards` / `--partition` / `--lanes`), the
//! `--trace` / `--metrics-out` / `--watchdog` / `--journal` /
//! `--waitgraph` observability flags, the `--checkpoint-at` /
//! `--resume-from` flight recorder controls, the one flag-conflict check
//! ([`ObsArgs::validate`]), sink construction, and structured JSON
//! export of recorded runs.
//!
//! The binaries keep their timing paths recorder-free ([`fadr_sim::NoRecorder`]
//! monomorphizes to nothing); recording is opt-in per invocation and
//! routes through [`crate::runner::run_rows_recorded`], which merges
//! per-worker sinks in fixed replication order so recorded runs stay
//! bit-identical for any `--jobs` value.

use std::fmt::Write as _;
use std::path::PathBuf;

use fadr_metrics::json::{self, Quoted};
use fadr_metrics::{JournalSink, NoRecorder, ShardRecorder, SinkSet, StallReport, WatchdogSink};
use fadr_sim::FaultPlan;

use crate::runner::{RecordedRow, RunOptions, SnapshotPolicy};

/// Packets traced per run when `--trace` is given (first-N by injection
/// order; later packets are counted, not traced).
pub const DEFAULT_TRACE_LIMIT: usize = 256;

/// Per-queue rows included in each counters JSON block (top by peak
/// occupancy; the rest are summarized, not dropped silently).
pub const TOP_QUEUES: usize = 8;

/// Which sinks an instrumented run attaches.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecordConfig {
    /// Attach a [`fadr_metrics::CounterSink`].
    pub counters: bool,
    /// Attach a [`fadr_metrics::TraceSink`] bounded to this many packets.
    pub trace: Option<usize>,
    /// Run the engine's no-progress watchdog with this window (cycles);
    /// its [`StallReport`] is installed into the merged sink set after
    /// the run ([`RunRecorder::install_watchdog`]). No sink is attached
    /// for it.
    pub watchdog: Option<u64>,
    /// Attach a [`JournalSink`] bounded to this many events.
    pub journal: Option<usize>,
    /// Attach a [`fadr_metrics::LatencySink`] (per-class p50/p95/p99/max).
    pub latency: bool,
    /// Attach a [`fadr_metrics::WaitGraphSink`] (per-cycle wait-for-graph
    /// probe; a sharded engine assembles the graph from every shard and
    /// hands it to shard 0's sink).
    pub waitgraph: bool,
}

impl RecordConfig {
    /// Build the sink set for one run over a `num_nodes` ×
    /// `num_classes` network (the watchdog is the engine's, not a sink).
    pub fn build(&self, num_nodes: usize, num_classes: usize) -> SinkSet {
        let mut s = SinkSet::new();
        if self.counters {
            s = s.with_counters(num_nodes, num_classes);
        }
        if let Some(limit) = self.trace {
            s = s.with_trace(limit);
        }
        if let Some(capacity) = self.journal {
            s = s.with_journal(capacity);
        }
        if self.latency {
            s = s.with_latency(num_classes);
        }
        if self.waitgraph {
            s = s.with_waitgraph();
        }
        s
    }
}

/// The recorder a harness run attaches: [`NoRecorder`] on the plain
/// (timing) path, whose hooks compile away, or a [`SinkSet`] built from
/// a [`RecordConfig`].
pub trait RunRecorder: ShardRecorder + Clone + Send {
    /// Build the recorder for one run over a `num_nodes` ×
    /// `num_classes` network.
    fn build(rc: &RecordConfig, num_nodes: usize, num_classes: usize) -> Self;

    /// Install the engine watchdog's window and stall report, where the
    /// metrics export and the stall summary read them (every engine runs
    /// the watchdog in its run loop, outside its recorders).
    fn install_watchdog(&mut self, window: u64, report: Option<StallReport>);

    /// Merge a later replication's recorder (fixed replication order).
    fn merge(&mut self, other: &Self);

    /// Finish one replication (render its traced lifecycles).
    fn flush(&mut self);
}

impl RunRecorder for NoRecorder {
    fn build(_: &RecordConfig, _: usize, _: usize) -> Self {
        NoRecorder
    }

    fn install_watchdog(&mut self, _: u64, _: Option<StallReport>) {}

    fn merge(&mut self, _: &Self) {}

    fn flush(&mut self) {}
}

impl RunRecorder for SinkSet {
    fn build(rc: &RecordConfig, num_nodes: usize, num_classes: usize) -> Self {
        rc.build(num_nodes, num_classes)
    }

    fn install_watchdog(&mut self, window: u64, report: Option<StallReport>) {
        let mut wd = WatchdogSink::new(window);
        wd.report = report;
        self.watchdog = Some(wd);
    }

    fn merge(&mut self, other: &Self) {
        SinkSet::merge(self, other);
    }

    fn flush(&mut self) {
        SinkSet::flush(self);
    }
}

/// Parse a strictly positive integer flag value.
pub fn parse_positive(flag: &str, value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(v) if v >= 1 => Ok(v),
        _ => Err(format!("{flag} must be a positive integer, got {value:?}")),
    }
}

/// Parse a `--table` value: a paper table number in 1..=12.
pub fn parse_table(value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(t) if (1..=12).contains(&t) => Ok(t),
        _ => Err(format!("--table must be 1..=12, got {value:?}")),
    }
}

/// Try to consume one engine-selection flag shared by the `tables`,
/// `sweep` and `perf` binaries: `--jobs J` into `jobs`, and `--shards
/// S`, `--partition P` and `--lanes R` into `opts`. Same contract as
/// [`ObsArgs::parse_flag`].
pub fn parse_run_flag(
    arg: &str,
    opts: &mut RunOptions,
    jobs: &mut usize,
    next: &mut dyn FnMut(&str) -> Result<String, String>,
) -> Result<bool, String> {
    match arg {
        "--jobs" => *jobs = parse_positive(arg, &next(arg)?)?,
        "--shards" => opts.shards = parse_positive(arg, &next(arg)?)?,
        "--lanes" => opts.lanes = parse_positive(arg, &next(arg)?)?,
        "--partition" => {
            opts.partition = next(arg)?
                .parse()
                .map_err(|e: String| format!("--partition: {e}"))?;
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Parsed observability flags, shared by the `tables`/`sweep`/`perf`
/// binaries.
#[derive(Debug, Clone, Default)]
pub struct ObsArgs {
    /// `--metrics-out PATH`: write a counters/stall JSON document.
    pub metrics_out: Option<PathBuf>,
    /// `--trace PATH`: write JSONL packet lifecycles.
    pub trace_out: Option<PathBuf>,
    /// `--watchdog K`: abort a run after `K` cycles without a delivery.
    pub watchdog: Option<u64>,
    /// `--faults PATH`: inject the `fadr-faults/1` plan at `PATH` into
    /// every run (see [`fadr_sim::fault`]).
    pub faults: Option<PathBuf>,
    /// `--journal PATH`: write every run's event journal (flight
    /// recorder) with its order-insensitive stream hash.
    pub journal_out: Option<PathBuf>,
    /// `--waitgraph`: probe the wait-for graph every cycle (cycle
    /// candidates + longest blocked-chain depth in `--metrics-out`).
    pub waitgraph: bool,
    /// `--checkpoint-at CYCLE`: pause every run at this cycle, write a
    /// `fadr-snapshot/3` file into `--checkpoint-dir`, then continue.
    pub checkpoint_at: Option<u64>,
    /// `--checkpoint-dir DIR`: where `--checkpoint-at` snapshots go.
    pub checkpoint_dir: Option<PathBuf>,
    /// `--resume-from DIR`: restore each run's snapshot from `DIR`
    /// instead of running it from cycle 0 (bit-identical results).
    pub resume_from: Option<PathBuf>,
}

impl ObsArgs {
    /// Usage fragment for the binaries' `--help` text.
    pub const USAGE: &'static str = "[--trace PATH] [--metrics-out PATH] [--watchdog K] \
         [--faults PLAN.json] [--journal PATH] [--waitgraph] \
         [--checkpoint-at CYCLE --checkpoint-dir DIR | --resume-from DIR]";

    /// Try to consume one observability flag. Returns `Ok(true)` if
    /// `arg` was one of ours, `Ok(false)` to let the caller handle it;
    /// `next` fetches the flag's value from the argument stream.
    pub fn parse_flag(
        &mut self,
        arg: &str,
        next: &mut dyn FnMut(&str) -> Result<String, String>,
    ) -> Result<bool, String> {
        let mut path = || next(arg).map(|v| Some(PathBuf::from(v)));
        match arg {
            "--metrics-out" => self.metrics_out = path()?,
            "--trace" => self.trace_out = path()?,
            "--faults" => self.faults = path()?,
            "--journal" => self.journal_out = path()?,
            "--checkpoint-dir" => self.checkpoint_dir = path()?,
            "--resume-from" => self.resume_from = path()?,
            "--waitgraph" => self.waitgraph = true,
            "--watchdog" => {
                let k: u64 = next(arg)?.parse().map_err(|e| format!("--watchdog: {e}"))?;
                if k == 0 {
                    return Err("--watchdog window must be at least 1 cycle".into());
                }
                self.watchdog = Some(k);
            }
            "--checkpoint-at" => {
                let at = next(arg)?
                    .parse()
                    .map_err(|e| format!("--checkpoint-at: {e}"))?;
                self.checkpoint_at = Some(at);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Load and parse the `--faults` plan, if given. The plan is leaked
    /// into a `'static` borrow so it can ride inside the `Copy`
    /// [`crate::runner::RunOptions`] across worker threads — one
    /// allocation per process invocation, freed at exit.
    pub fn load_fault_plan(&self) -> Result<Option<&'static FaultPlan>, String> {
        let Some(path) = &self.faults else {
            return Ok(None);
        };
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("--faults {}: {e}", path.display()))?;
        let plan =
            FaultPlan::parse(&text).map_err(|e| format!("--faults {}: {e}", path.display()))?;
        Ok(Some(Box::leak(Box::new(plan))))
    }

    /// Whether any flag was given (if not, the binary should take its
    /// recorder-free path). Checkpoint/resume flags are run control, not
    /// sinks, so they do not force the recorded path by themselves.
    pub fn enabled(&self) -> bool {
        self.metrics_out.is_some()
            || self.trace_out.is_some()
            || self.watchdog.is_some()
            || self.journal_out.is_some()
            || self.waitgraph
    }

    /// The record configuration these flags imply: counters *and*
    /// latency percentiles power `--metrics-out`, the trace sink is
    /// bounded to [`DEFAULT_TRACE_LIMIT`] packets per run, the journal
    /// ring to [`JournalSink::DEFAULT_CAPACITY`] events.
    pub fn record_config(&self) -> RecordConfig {
        RecordConfig {
            counters: self.metrics_out.is_some(),
            trace: self.trace_out.as_ref().map(|_| DEFAULT_TRACE_LIMIT),
            watchdog: self.watchdog,
            journal: self
                .journal_out
                .as_ref()
                .map(|_| JournalSink::DEFAULT_CAPACITY),
            latency: self.metrics_out.is_some(),
            waitgraph: self.waitgraph,
        }
    }

    /// The checkpoint/resume policy these flags imply, with its snapshot
    /// directory leaked to `'static` so it can ride inside the `Copy`
    /// [`crate::runner::RunOptions`] across worker threads (one
    /// allocation per process invocation, like the fault plan).
    /// `--checkpoint-at` creates the directory eagerly so worker threads
    /// never race on it. Call after [`ObsArgs::validate`], which rejects
    /// `--checkpoint-at` together with `--resume-from`.
    pub fn snapshot_policy(&self) -> Result<Option<SnapshotPolicy>, String> {
        match (self.checkpoint_at, &self.resume_from) {
            (Some(at), _) => {
                let dir = self
                    .checkpoint_dir
                    .clone()
                    .ok_or("--checkpoint-at needs --checkpoint-dir DIR")?;
                std::fs::create_dir_all(&dir)
                    .map_err(|e| format!("--checkpoint-dir {}: {e}", dir.display()))?;
                Ok(Some(SnapshotPolicy {
                    at: Some(at),
                    dir: Box::leak(dir.into_boxed_path()),
                    resume: false,
                }))
            }
            (None, Some(dir)) => Ok(Some(SnapshotPolicy {
                at: None,
                dir: Box::leak(dir.clone().into_boxed_path()),
                resume: true,
            })),
            (None, None) => {
                if self.checkpoint_dir.is_some() {
                    return Err("--checkpoint-dir needs --checkpoint-at CYCLE".into());
                }
                Ok(None)
            }
        }
    }

    /// The one flag-conflict check, run on the whole configuration
    /// before anything executes. Every other flag combination composes;
    /// these are the only ones no engine can run, and each error names
    /// its reason.
    ///
    /// # Errors
    ///
    /// The first conflict found.
    pub fn validate(&self, opts: &RunOptions) -> Result<(), String> {
        let conflict = if self.checkpoint_at.is_some() && self.resume_from.is_some() {
            "--checkpoint-at and --resume-from are mutually exclusive: \
             a run either writes its snapshot or restores one"
        } else if opts.queue_capacity == 0 && self.watchdog.is_none() {
            "--cap 0 wedges the network; it requires --watchdog to stop the run"
        } else {
            return Ok(());
        };
        Err(conflict.into())
    }
}

/// One exported row of a metrics document: where it ran plus its merged
/// sinks.
#[derive(Debug, Clone)]
pub struct MetricsRow {
    /// Paper table number (0 = not a paper table, e.g. a sweep point —
    /// see `label`).
    pub table: usize,
    /// Hypercube dimension.
    pub n: usize,
    /// Free-form point label for non-table rows (e.g.
    /// `"lambda=0.4 algo=fully-adaptive"`).
    pub label: Option<String>,
    /// Merged sinks of all replications of this row.
    pub sinks: SinkSet,
}

impl MetricsRow {
    /// Lift a [`RecordedRow`] into an export row.
    pub fn from_recorded(table: usize, r: &RecordedRow) -> Self {
        Self {
            table,
            n: r.row.n,
            label: None,
            sinks: r.sinks.clone(),
        }
    }
}

/// Render the full metrics JSON document (`fadr-metrics/1` schema):
/// one object per instrumented row with its routing-decision counters
/// and, when a watchdog fired, the stall report.
pub fn metrics_json(algo: &str, rows: &[MetricsRow]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\": \"fadr-metrics/1\", \"algo\": {}, \"rows\": ",
        Quoted(algo)
    );
    json::list(&mut out, rows, |out, row| {
        write!(out, "{{\"table\": {}, \"n\": {}, ", row.table, row.n)?;
        match &row.label {
            Some(l) => write!(out, "\"label\": {}, ", Quoted(l))?,
            None => out.push_str("\"label\": null, "),
        }
        match &row.sinks.counters {
            Some(c) => write!(out, "\"counters\": {}, ", c.to_json(TOP_QUEUES))?,
            None => out.push_str("\"counters\": null, "),
        }
        match &row.sinks.latency {
            Some(l) => write!(out, "\"latency\": {}, ", l.to_json())?,
            None => out.push_str("\"latency\": null, "),
        }
        match &row.sinks.waitgraph {
            Some(w) => write!(out, "\"waitgraph\": {}, ", w.to_json())?,
            None => out.push_str("\"waitgraph\": null, "),
        }
        match row.sinks.stall() {
            Some(s) => write!(out, "\"stall\": {}}}", s.to_json()),
            None => write!(out, "\"stall\": null}}"),
        }
    });
    out.push('}');
    out
}

/// Concatenate every row's trace lines into one JSONL body (one packet
/// lifecycle per line; `pkt` ids restart per replication).
pub fn trace_jsonl(rows: &[MetricsRow]) -> String {
    let mut out = String::new();
    for row in rows {
        if let Some(t) = &row.sinks.trace {
            for line in t.lines() {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

/// Concatenate every row's retained journal into one text body: a `#`
/// header line per row (event count, order-insensitive stream hash,
/// ring evictions) followed by one event per line. Line-diffing two
/// journal files localizes the first divergent event of a run pair.
pub fn journal_text(rows: &[MetricsRow]) -> String {
    let mut out = String::new();
    for row in rows {
        let Some(j) = &row.sinks.journal else {
            continue;
        };
        let place = match &row.label {
            Some(l) => format!("{l} n={}", row.n),
            None => format!("table {} n={}", row.table, row.n),
        };
        let _ = writeln!(
            out,
            "# {place} events={} hash={:#018x} dropped={}",
            j.count(),
            j.hash(),
            j.dropped
        );
        for line in j.lines() {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// Write the metrics document, trace, and/or journal file named by
/// `args`, then print a one-line confirmation per file to stderr.
pub fn export(args: &ObsArgs, algo: &str, rows: &[MetricsRow]) -> std::io::Result<()> {
    if let Some(path) = &args.metrics_out {
        std::fs::write(path, metrics_json(algo, rows))?;
        eprintln!("# metrics written to {}", path.display());
    }
    if let Some(path) = &args.trace_out {
        std::fs::write(path, trace_jsonl(rows))?;
        eprintln!("# trace written to {}", path.display());
    }
    if let Some(path) = &args.journal_out {
        std::fs::write(path, journal_text(rows))?;
        eprintln!("# journal written to {}", path.display());
    }
    Ok(())
}

/// Print the post-run observability summary: stall reports always, and
/// a compact counters digest per row when counters ran.
pub fn report(rows: &[MetricsRow]) {
    for row in rows {
        let place = match &row.label {
            Some(l) => format!("{l} n={}", row.n),
            None => format!("table {} n={}", row.table, row.n),
        };
        if let Some(c) = &row.sinks.counters {
            eprintln!(
                "# {place}: links {} ({:.1}% dynamic), stutters {}, blocked {}, peak queue {} ({:.3} mean total)",
                c.links_total(),
                100.0 * c.dynamic_share(),
                c.stutters,
                c.blocked_cycles,
                c.peak_max(),
                c.mean_total(),
            );
        }
        if let Some(w) = &row.sinks.waitgraph {
            eprintln!(
                "# {place}: wait-graph max chain depth {} (cycle {}), {} cycle-candidate cycle(s){}",
                w.max_chain_depth,
                w.max_chain_cycle,
                w.cycle_candidate_cycles,
                match w.first_cycle_candidate {
                    Some(c) => format!(", first at cycle {c}"),
                    None => String::new(),
                }
            );
        }
        if let Some(j) = &row.sinks.journal {
            eprintln!(
                "# {place}: journal {} events, hash {:#018x} ({} evicted from ring)",
                j.count(),
                j.hash(),
                j.dropped
            );
        }
        if let Some(s) = row.sinks.stall() {
            // One classification path for the whole workspace:
            // `StallReport::verdict()` distinguishes fault partitions
            // from deadlock/livelock signatures.
            let why = match s.verdict() {
                "partitioned" => "a fault made destination(s) unreachable",
                "deadlock" => "no movement: deadlock signature",
                _ => "movement without delivery: livelock suspect",
            };
            eprintln!(
                "# {place}: WATCHDOG STALL [{}] at cycle {} ({} in flight, {} link moves in window) - {why}",
                s.verdict(),
                s.cycle,
                s.in_flight,
                s.links_in_window,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flag_consumes_only_obs_flags() {
        let mut o = ObsArgs::default();
        let mut vals = vec!["out.json".to_string()];
        let mut next = |_: &str| Ok(vals.remove(0));
        assert!(o.parse_flag("--metrics-out", &mut next).unwrap());
        let mut no_val = |_: &str| -> Result<String, String> { Err("no value".into()) };
        assert!(!o.parse_flag("--cap", &mut no_val).unwrap());
        assert_eq!(o.metrics_out.as_deref().unwrap().to_str(), Some("out.json"));
        assert!(o.enabled());
        let rc = o.record_config();
        assert!(rc.counters && rc.trace.is_none() && rc.watchdog.is_none());
    }

    #[test]
    fn watchdog_flag_rejects_zero() {
        let mut o = ObsArgs::default();
        let mut next = |_: &str| Ok("0".to_string());
        assert!(o.parse_flag("--watchdog", &mut next).is_err());
    }

    #[test]
    fn record_config_builds_requested_sinks() {
        let rc = RecordConfig {
            counters: true,
            trace: Some(4),
            watchdog: Some(100),
            journal: Some(1 << 10),
            latency: true,
            waitgraph: true,
        };
        let s = rc.build(8, 2);
        assert!(s.counters.is_some() && s.trace.is_some() && s.watchdog.is_none());
        assert!(s.journal.is_some() && s.latency.is_some() && s.waitgraph.is_some());
    }

    #[test]
    fn snapshot_flags_validate() {
        let mut o = ObsArgs::default();
        assert!(o.snapshot_policy().unwrap().is_none());
        o.checkpoint_at = Some(10);
        assert!(o.snapshot_policy().is_err(), "missing --checkpoint-dir");
        o.checkpoint_at = None;
        o.resume_from = Some(PathBuf::from("x"));
        let sp = o.snapshot_policy().unwrap().unwrap();
        assert!(sp.resume && sp.at.is_none());
    }

    /// Every surviving flag conflict, with the reason its message must
    /// name; everything else composes.
    #[test]
    fn validate_lists_every_conflict_and_its_reason() {
        let plain = RunOptions::default();
        let lanes = RunOptions { lanes: 3, ..plain };
        let with = |f: fn(&mut ObsArgs)| {
            let mut o = ObsArgs::default();
            f(&mut o);
            o
        };
        let cases: [(ObsArgs, RunOptions, &str); 2] = [
            (
                with(|o| {
                    o.checkpoint_at = Some(5);
                    o.resume_from = Some(PathBuf::from("d"));
                }),
                plain,
                "writes its snapshot or restores one",
            ),
            (
                ObsArgs::default(),
                RunOptions {
                    queue_capacity: 0,
                    ..plain
                },
                "requires --watchdog",
            ),
        ];
        for (o, opts, reason) in &cases {
            let err = o.validate(opts).expect_err(reason);
            assert!(err.contains(reason), "{err:?} must name {reason:?}");
        }
        // Everything else composes: lanes with every recording sink and
        // with shards, faults and snapshots; shards with faults,
        // snapshots and every recording sink; a wedge under a watchdog.
        let recording = with(|o| {
            o.metrics_out = Some(PathBuf::from("m.json"));
            o.trace_out = Some(PathBuf::from("t.jsonl"));
            o.journal_out = Some(PathBuf::from("j.txt"));
            o.watchdog = Some(100);
            o.waitgraph = true;
        });
        assert_eq!(recording.validate(&lanes), Ok(()));
        assert_eq!(
            recording.validate(&RunOptions { shards: 2, ..plain }),
            Ok(())
        );
        let faulted = with(|o| {
            o.faults = Some(PathBuf::from("p.json"));
            o.checkpoint_at = Some(5);
        });
        assert_eq!(faulted.validate(&RunOptions { shards: 4, ..plain }), Ok(()));
        assert_eq!(faulted.validate(&RunOptions { shards: 2, ..lanes }), Ok(()));
        let resumed = with(|o| o.resume_from = Some(PathBuf::from("d")));
        assert_eq!(resumed.validate(&lanes), Ok(()));
        let wedge = with(|o| o.watchdog = Some(10));
        let cap0 = RunOptions {
            queue_capacity: 0,
            ..lanes
        };
        assert_eq!(wedge.validate(&cap0), Ok(()));
    }

    #[test]
    fn run_flags_parse_strictly() {
        let mut opts = RunOptions::default();
        let mut jobs = 1;
        for (flag, value) in [("--jobs", "3"), ("--shards", "2"), ("--lanes", "4")] {
            let mut next = |_: &str| Ok(value.to_string());
            assert!(parse_run_flag(flag, &mut opts, &mut jobs, &mut next).unwrap());
        }
        assert_eq!((jobs, opts.shards, opts.lanes), (3, 2, 4));
        let mut next = |_: &str| Ok("hamming".to_string());
        assert!(parse_run_flag("--partition", &mut opts, &mut jobs, &mut next).unwrap());
        for (flag, bad) in [
            ("--jobs", "0"),
            ("--shards", "-2"),
            ("--lanes", "many"),
            ("--partition", "diagonal"),
        ] {
            let mut next = |_: &str| Ok(bad.to_string());
            assert!(
                parse_run_flag(flag, &mut opts, &mut jobs, &mut next).is_err(),
                "{flag} {bad}"
            );
        }
        let mut next = |_: &str| -> Result<String, String> { Err("no value".into()) };
        assert!(!parse_run_flag("--cap", &mut opts, &mut jobs, &mut next).unwrap());
        assert_eq!(parse_table("12"), Ok(12));
        assert!(parse_table("0").is_err() && parse_table("13").is_err());
    }

    #[test]
    fn metrics_json_renders_null_slots() {
        let row = MetricsRow {
            table: 1,
            n: 3,
            label: None,
            sinks: SinkSet::new(),
        };
        let doc = metrics_json("fully-adaptive", &[row]);
        assert!(doc.contains("\"schema\": \"fadr-metrics/1\""));
        assert!(doc.contains("\"label\": null"));
        assert!(doc.contains("\"counters\": null"));
        assert!(doc.contains("\"latency\": null"));
        assert!(doc.contains("\"waitgraph\": null"));
        assert!(doc.contains("\"stall\": null"));
    }
}
