//! Table specifications and experiment execution.
//!
//! Every experiment — a paper-table row or a λ-sweep point — runs
//! through one path. A [`Workload`] is built from the work unit's
//! coordinates, [`with_algo`] constructs the router, one construction
//! site picks the engine the [`RunOptions`] select (sharded, or
//! sequential on the computed or the table option source), and one
//! generic `drive` runs the workload on any [`fadr_sim::Engine`] under
//! the checkpoint/resume policy.

use std::marker::PhantomData;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fadr_core::{EcubeSbp, HypercubeFullyAdaptive, HypercubeStaticHang};
use fadr_metrics::{table::fmt2, MeanCi, NoRecorder, RunningStats, SinkSet, Table};
use fadr_qdg::RoutingFunction;
use fadr_sim::{
    lane_seed, DynamicOutcome, DynamicResult, Engine, PartitionStrategy, RunProgress, SimConfig,
    Simulator, SnapshotMsg, Snapshots, StateTable, StaticOutcome, StaticResult, StopReason,
};
use fadr_topology::NodeId;
use fadr_workloads::{static_backlog, Pattern};

use crate::obs::{RecordConfig, RunRecorder};
use crate::paper;

/// The four § 7 communication patterns, in table order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternKind {
    /// Uniform random destinations.
    Random,
    /// Bitwise complement permutation.
    Complement,
    /// Half-address transpose permutation.
    Transpose,
    /// Random level-preserving permutation.
    Leveled,
}

impl PatternKind {
    /// Compile for an n-cube (leveled permutations are seeded).
    pub fn compile(self, dims: usize, seed: u64) -> Pattern {
        match self {
            PatternKind::Random => Pattern::Random,
            PatternKind::Complement => Pattern::complement(dims),
            PatternKind::Transpose => Pattern::transpose(dims),
            PatternKind::Leveled => {
                Pattern::leveled_permutation(dims, &mut StdRng::seed_from_u64(seed))
            }
        }
    }

    /// Pattern name as printed in the paper's table captions.
    pub fn label(self) -> &'static str {
        match self {
            PatternKind::Random => "Random Routing",
            PatternKind::Complement => "Complement",
            PatternKind::Transpose => "Transpose",
            PatternKind::Leveled => "Leveled Permutation",
        }
    }
}

/// What a paper table runs: the pattern plus the injection model.
#[derive(Debug, Clone, Copy)]
pub struct TableSpec {
    /// Table number (1–12).
    pub number: usize,
    /// Communication pattern.
    pub pattern: PatternKind,
    /// `None` = dynamic λ = 1; `Some(k)` = static with `k(n)` packets.
    pub packets: Option<PacketsPerNode>,
}

/// Static-injection backlog depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketsPerNode {
    /// One packet per node (Tables 1–4).
    One,
    /// `n = log N` packets per node (Tables 5–8).
    LogN,
}

/// Specifications of the paper's twelve tables.
pub const TABLES: [TableSpec; 12] = [
    TableSpec {
        number: 1,
        pattern: PatternKind::Random,
        packets: Some(PacketsPerNode::One),
    },
    TableSpec {
        number: 2,
        pattern: PatternKind::Complement,
        packets: Some(PacketsPerNode::One),
    },
    TableSpec {
        number: 3,
        pattern: PatternKind::Transpose,
        packets: Some(PacketsPerNode::One),
    },
    TableSpec {
        number: 4,
        pattern: PatternKind::Leveled,
        packets: Some(PacketsPerNode::One),
    },
    TableSpec {
        number: 5,
        pattern: PatternKind::Random,
        packets: Some(PacketsPerNode::LogN),
    },
    TableSpec {
        number: 6,
        pattern: PatternKind::Complement,
        packets: Some(PacketsPerNode::LogN),
    },
    TableSpec {
        number: 7,
        pattern: PatternKind::Transpose,
        packets: Some(PacketsPerNode::LogN),
    },
    TableSpec {
        number: 8,
        pattern: PatternKind::Leveled,
        packets: Some(PacketsPerNode::LogN),
    },
    TableSpec {
        number: 9,
        pattern: PatternKind::Random,
        packets: None,
    },
    TableSpec {
        number: 10,
        pattern: PatternKind::Complement,
        packets: None,
    },
    TableSpec {
        number: 11,
        pattern: PatternKind::Transpose,
        packets: None,
    },
    TableSpec {
        number: 12,
        pattern: PatternKind::Leveled,
        packets: None,
    },
];

/// Look up a table spec by number.
pub fn spec(number: usize) -> TableSpec {
    TABLES[number - 1]
}

/// Which hypercube router the harness runs (the paper's tables use the
/// fully-adaptive § 3 algorithm; the others enable baseline tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// § 3 fully-adaptive (the paper's evaluated algorithm).
    FullyAdaptive,
    /// The underlying hang without dynamic links (≈ \[BGSS89\]/\[Kon90\]).
    StaticHang,
    /// Oblivious e-cube + structured buffer pool (\[Gun81\]/\[MS80\]).
    EcubeSbp,
}

impl Algo {
    /// Parse a `--algo` argument.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fully-adaptive" | "adaptive" => Some(Self::FullyAdaptive),
            "static-hang" | "hang" => Some(Self::StaticHang),
            "ecube-sbp" | "ecube" => Some(Self::EcubeSbp),
            _ => None,
        }
    }

    /// Canonical name, round-trippable through [`Algo::parse`] (used in
    /// snapshot metadata so `replay` can rebuild the router).
    pub fn name(self) -> &'static str {
        match self {
            Self::FullyAdaptive => "fully-adaptive",
            Self::StaticHang => "static-hang",
            Self::EcubeSbp => "ecube-sbp",
        }
    }
}

/// Monomorphizing visitor over the router an [`Algo`] names.
/// [`RoutingFunction`] is not object-safe (associated `Msg`), so runs
/// dispatch through this trait instead of `dyn`.
pub trait AlgoVisitor {
    /// Result of visiting.
    type Out;

    /// Called with the constructed n-cube router.
    fn visit<R>(self, rf: R) -> Self::Out
    where
        R: RoutingFunction + Clone + Send + 'static,
        R::Msg: Send + SnapshotMsg;
}

/// Build the n-cube router `algo` names and hand it to `v` — the
/// harness's one `Algo` dispatch.
pub fn with_algo<V: AlgoVisitor>(algo: Algo, n: usize, v: V) -> V::Out {
    match algo {
        Algo::FullyAdaptive => v.visit(HypercubeFullyAdaptive::new(n)),
        Algo::StaticHang => v.visit(HypercubeStaticHang::new(n)),
        Algo::EcubeSbp => v.visit(EcubeSbp::new(n)),
    }
}

/// Flight-recorder checkpoint/resume policy (`--checkpoint-at` /
/// `--resume-from`): every work unit either writes a `fadr-snapshot/2`
/// file when it reaches a cycle (then continues in-process, so measured
/// rows are unchanged), or restores its snapshot and resumes instead of
/// running from cycle 0. Snapshot files are named `<label>.snap` where
/// the label is the work unit's coordinates (`t<table>_n<n>_q<cap>_r<rep>`
/// for table rows), so resume pairs with the checkpoint run per unit.
/// Runs that finish before the checkpoint cycle write no snapshot and
/// rerun from cycle 0 on resume — either way the final tables are
/// bit-identical to an uninterrupted run. A snapshot that exists but
/// cannot be read or restored is an error naming its file. Snapshots are
/// engine-agnostic, so the checkpoint and resume legs may run at
/// different shard counts.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotPolicy {
    /// Pause and write a checkpoint when a run reaches this cycle.
    pub at: Option<u64>,
    /// Directory holding the `<label>.snap` files (leaked to `'static`
    /// so the policy stays `Copy` across the `--jobs` fan-out).
    pub dir: &'static std::path::Path,
    /// Restore `<label>.snap` and resume instead of running afresh.
    pub resume: bool,
}

impl SnapshotPolicy {
    /// The snapshot file of the work unit labelled `label`.
    pub fn path(&self, label: &str) -> std::path::PathBuf {
        self.dir.join(format!("{label}.snap"))
    }
}

/// Harness options: one run configuration from which every work unit
/// picks its engine. `reps`, `lanes`, `shards` and the `--jobs` fan-out
/// are independent: every combination yields bit-identical results.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Central queue capacity (the paper states 5; see EXPERIMENTS.md for
    /// the capacity discussion).
    pub queue_capacity: usize,
    /// Horizon (routing cycles) for dynamic runs.
    pub dynamic_cycles: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Independent replications per row (averaged; L_max is the max over
    /// replications). The paper reports single runs; default 1.
    pub reps: u32,
    /// Routing algorithm under test.
    pub algo: Algo,
    /// Intra-simulation shards (threads *inside* one run; composes with
    /// `--jobs`, which parallelizes *across* runs). 1 = the sequential
    /// engine; any value yields bit-identical results.
    pub shards: usize,
    /// Replications per work unit (`--lanes`). Above 1, a row's
    /// replications run `lanes` at a time on one shared
    /// [`fadr_sim::StateTable`] ([`fadr_sim::Simulator::with_table`]);
    /// each is bit-identical to its computed run, so this is purely a
    /// performance knob (faults, snapshots and shards keep the computed
    /// source).
    pub lanes: usize,
    /// How sharded runs split nodes across shards (`--partition`).
    /// Purely a performance knob — every strategy is bit-identical —
    /// that trades cross-shard mailbox traffic (see
    /// [`fadr_sim::ShardedSimulator::partition_stats`]).
    pub partition: PartitionStrategy,
    /// Fault plan injected into every run (`--faults`); the `'static`
    /// borrow keeps [`RunOptions`] `Copy` across the `--jobs` fan-out
    /// (see [`crate::obs::ObsArgs::load_fault_plan`]). Faulted runs may
    /// legitimately end partitioned or with dropped packets, so the
    /// "must drain" assertion is waived when a plan is present.
    pub faults: Option<&'static fadr_sim::FaultPlan>,
    /// Checkpoint/resume policy applied to every work unit
    /// (`--checkpoint-at` / `--resume-from`); `None` runs straight
    /// through.
    pub snapshot: Option<SnapshotPolicy>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            queue_capacity: 5,
            dynamic_cycles: 500,
            seed: 0xFAD2,
            reps: 1,
            algo: Algo::FullyAdaptive,
            shards: 1,
            lanes: 1,
            partition: PartitionStrategy::Auto,
            faults: None,
            snapshot: None,
        }
    }
}

/// Measured row of a regenerated table (or one replication of a sweep
/// point).
#[derive(Debug, Clone, Copy)]
pub struct RowResult {
    /// Hypercube dimension.
    pub n: usize,
    /// Mean latency in time cycles.
    pub l_avg: f64,
    /// Maximum latency.
    pub l_max: u64,
    /// Effective injection rate (dynamic tables only).
    pub injection_rate: Option<f64>,
    /// Packets delivered, summed over replications.
    pub delivered: u64,
    /// Any replication of this row was aborted (watchdog stall): its
    /// statistics cover only the packets delivered before the abort, so
    /// rendered tables flag it instead of passing it off as a clean run.
    pub aborted: bool,
}

impl RowResult {
    /// The row of one finished run on the n-cube.
    fn of(n: usize, res: &RunResult) -> Self {
        let (stats, injection_rate, delivered, stop) = match res {
            RunResult::Static(r) => (&r.stats, None, r.delivered, r.stop),
            RunResult::Dynamic(r) => (&r.stats, Some(r.injection_rate()), r.delivered, r.stop),
        };
        RowResult {
            n,
            l_avg: stats.mean(),
            l_max: stats.max(),
            injection_rate,
            delivered,
            aborted: matches!(stop, StopReason::Aborted | StopReason::Partitioned),
        }
    }
}

/// Run one row (one hypercube dimension) of one table, averaging over
/// `opts.reps` replications. Fails only on a snapshot the run cannot
/// read, restore or write.
pub fn run_row(spec: TableSpec, n: usize, opts: RunOptions) -> Result<RowResult, String> {
    Ok(run_rows(spec, &[n], opts, 1)?[0])
}

/// Fold per-replication results into one row. Replications must be in
/// rep order; the accumulation order here is the single reduction path
/// for every engine and job count, which is what makes the output
/// bit-identical across them (floating-point sums are order-sensitive).
fn reduce_reps(n: usize, results: &[RowResult]) -> RowResult {
    let reps = results.len() as u32;
    let mut avg = 0.0;
    let mut max = 0u64;
    let mut ir_sum = 0.0;
    let mut ir_any = false;
    let mut delivered = 0u64;
    let mut aborted = false;
    for r in results {
        avg += r.l_avg;
        max = max.max(r.l_max);
        delivered += r.delivered;
        aborted |= r.aborted;
        if let Some(ir) = r.injection_rate {
            ir_sum += ir;
            ir_any = true;
        }
    }
    RowResult {
        n,
        l_avg: avg / f64::from(reps),
        l_max: max,
        injection_rate: ir_any.then(|| ir_sum / f64::from(reps)),
        delivered,
        aborted,
    }
}

/// Run several rows of one table, fanning the work units out over `jobs`
/// worker threads. A work unit is one replication, or with
/// `opts.lanes > 1` a batch of up to `lanes` replications.
///
/// Every replication seeds its RNG streams purely from
/// `(opts.seed, spec.number, rep, n)`, so results do not depend on which
/// worker or engine ran them; the per-row reduction then happens in
/// fixed rep order on the calling thread. Output is bit-identical to
/// the sequential `run_row` loop (see `tests/parallel_identity.rs`,
/// `tests/sharded_identity.rs` and `tests/lane_identity.rs`). Fails
/// only on a snapshot a run cannot read, restore or write.
pub fn run_rows(
    spec: TableSpec,
    dims: &[usize],
    opts: RunOptions,
    jobs: usize,
) -> Result<Vec<RowResult>, String> {
    let rows = table_rows::<NoRecorder>(spec, dims, opts, jobs, RecordConfig::default())?;
    Ok(rows.into_iter().map(|(row, _)| row).collect())
}

/// One table row with the merged observability sinks of all its
/// replications.
#[derive(Debug, Clone)]
pub struct RecordedRow {
    /// The measured row (bit-identical to the unrecorded path).
    pub row: RowResult,
    /// Merged sinks (fixed replication order, so deterministic for any
    /// `jobs`).
    pub sinks: SinkSet,
}

/// [`run_rows`] with recording sinks attached to every replication.
///
/// Each replication records into its own [`SinkSet`]; the per-row merge
/// happens on the calling thread in fixed rep order, so both the
/// measured rows *and* the merged sinks are bit-identical for any
/// `jobs`, `shards` or `lanes` value.
pub fn run_rows_recorded(
    spec: TableSpec,
    dims: &[usize],
    opts: RunOptions,
    jobs: usize,
    rc: RecordConfig,
) -> Result<Vec<RecordedRow>, String> {
    let rows = table_rows::<SinkSet>(spec, dims, opts, jobs, rc)?;
    Ok(rows
        .into_iter()
        .map(|(row, sinks)| RecordedRow { row, sinks })
        .collect())
}

/// The rows of one table with their merged recorders (see [`run_rows`]).
fn table_rows<Rec: RunRecorder>(
    spec: TableSpec,
    dims: &[usize],
    opts: RunOptions,
    jobs: usize,
    rc: RecordConfig,
) -> Result<Vec<(RowResult, Rec)>, String> {
    let reps = opts.reps.max(1) as usize;
    let batch = opts.lanes.clamp(1, reps);
    let units_per_row = reps.div_ceil(batch);
    let units = crate::exec::run_indexed(dims.len() * units_per_row, jobs, |i| {
        let n = dims[i / units_per_row];
        let first = (i % units_per_row) * batch;
        let unit: Vec<Rep> = (first..reps.min(first + batch))
            .map(|rep| Rep {
                seed: opts.seed ^ ((spec.number as u64) << 32) ^ ((rep as u64) << 16) ^ n as u64,
                label: format!("t{}_n{n}_q{}_r{rep}", spec.number, opts.queue_capacity),
            })
            .collect();
        run_reps::<Rec>(Source::Table(spec), n, &unit, &opts, &rc)
    })?;
    // A watchdogged or faulted run may abort instead of draining;
    // report, don't panic.
    let require_drain = rc.watchdog.is_none() && opts.faults.is_none();
    let runs: Vec<(RunResult, Rec)> = units.into_iter().flatten().collect();
    Ok(runs
        .chunks(reps)
        .zip(dims)
        .map(|(chunk, &n)| {
            let rows: Vec<RowResult> = chunk
                .iter()
                .map(|(res, _)| {
                    if let RunResult::Static(r) = res {
                        assert!(
                            r.drained || !require_drain,
                            "table {} n={n} failed to drain",
                            spec.number
                        );
                    }
                    RowResult::of(n, res)
                })
                .collect();
            let mut rec = chunk[0].1.clone();
            for (_, r) in &chunk[1..] {
                rec.merge(r);
            }
            (reduce_reps(n, &rows), rec)
        })
        .collect())
}

/// One uniform-random dynamic sweep point at injection rate `lambda` on
/// the n-cube: `opts.reps` replications (work units of `opts.lanes`),
/// returned unreduced in replication order together with their sinks
/// merged in that order. A single replication runs on
/// `opts.seed` itself; replication `r` of several runs on
/// [`fadr_sim::lane_seed`]`(opts.seed, r)`. `label` names the point's
/// snapshot file (suffixed `_r<rep>` when replicated); the snapshot's
/// meta records `table=0` plus `lambda`, which is how `replay` rebuilds
/// the workload.
pub fn run_point_recorded(
    lambda: f64,
    n: usize,
    opts: RunOptions,
    rc: RecordConfig,
    label: &str,
) -> Result<(Vec<RowResult>, SinkSet), String> {
    let reps = opts.reps.max(1) as usize;
    let all: Vec<Rep> = if reps == 1 {
        vec![Rep {
            seed: opts.seed,
            label: label.to_string(),
        }]
    } else {
        (0..reps)
            .map(|r| Rep {
                seed: lane_seed(opts.seed, r),
                label: format!("{label}_r{r}"),
            })
            .collect()
    };
    let mut rows = Vec::with_capacity(reps);
    let mut sinks = SinkSet::new();
    for unit in all.chunks(opts.lanes.clamp(1, reps)) {
        for (res, rec) in run_reps::<SinkSet>(Source::Random { lambda }, n, unit, &opts, &rc)? {
            rows.push(RowResult::of(n, &res));
            sinks.merge(&rec);
        }
    }
    Ok((rows, sinks))
}

/// Where a work unit's workload comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// A paper table: its pattern and injection model.
    Table(TableSpec),
    /// A uniform-random dynamic sweep point at injection rate `lambda`
    /// (table 0 in snapshot metadata).
    Random {
        /// Injection rate λ.
        lambda: f64,
    },
}

/// The injection workload of one replication, built once from its
/// coordinates and driven identically on every engine.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Static injection: node `v` injects `backlog[v]` in order, and the
    /// run ends when the network drains.
    Static(Vec<Vec<NodeId>>),
    /// Dynamic injection for `cycles` routing cycles: every node attempts
    /// an injection each cycle with probability `lambda`, drawing its
    /// destination from `pattern` over `nodes` nodes.
    Dynamic {
        /// Injection rate λ.
        lambda: f64,
        /// Destination pattern.
        pattern: Pattern,
        /// Network size (`2^n`).
        nodes: usize,
        /// Horizon in routing cycles.
        cycles: u64,
    },
}

impl Workload {
    /// The workload of `source` on the n-cube for workload seed `seed`:
    /// seeded patterns compile from `seed ^ 0x1e7e1`, static backlogs
    /// draw from `seed ^ 0xbac1`, dynamic tables inject at λ = 1, and
    /// `cycles` is the dynamic horizon.
    pub fn new(source: Source, n: usize, seed: u64, cycles: u64) -> Self {
        let nodes = 1usize << n;
        let (lambda, pattern) = match source {
            Source::Random { lambda } => (lambda, Pattern::Random),
            Source::Table(spec) => {
                let pattern = spec.pattern.compile(n, seed ^ 0x1e7e1);
                let Some(per_node) = spec.packets else {
                    return Workload::Dynamic {
                        lambda: 1.0,
                        pattern,
                        nodes,
                        cycles,
                    };
                };
                let k = match per_node {
                    PacketsPerNode::One => 1,
                    PacketsPerNode::LogN => n,
                };
                let mut rng = StdRng::seed_from_u64(seed ^ 0xbac1);
                return Workload::Static(static_backlog(&pattern, nodes, k, &mut rng));
            }
        };
        Workload::Dynamic {
            lambda,
            pattern,
            nodes,
            cycles,
        }
    }

    /// Check that a restored snapshot's `progress` is what this
    /// workload's runs pause with, before resuming from it.
    ///
    /// # Errors
    ///
    /// The mismatch: a static workload cannot resume a dynamic run's
    /// progress, nor the reverse.
    pub fn check_progress(&self, progress: &RunProgress) -> Result<(), String> {
        match (self, progress) {
            (Workload::Static(_), RunProgress::Static { .. })
            | (Workload::Dynamic { .. }, RunProgress::Dynamic { .. }) => Ok(()),
            (Workload::Static(_), RunProgress::Dynamic { .. }) => {
                Err("snapshot progress is dynamic, but the workload is static".into())
            }
            (Workload::Dynamic { .. }, RunProgress::Static { .. }) => {
                Err("snapshot progress is static, but the workload is dynamic".into())
            }
        }
    }

    /// Draw a dynamic workload's destination for an injection at `src`.
    fn draw(&self, src: NodeId, rng: &mut StdRng) -> NodeId {
        match self {
            Workload::Dynamic { pattern, nodes, .. } => pattern.draw(src, *nodes, rng),
            Workload::Static(_) => unreachable!("static workloads draw no destinations"),
        }
    }
}

/// A finished run of either injection model.
#[derive(Debug, Clone)]
pub(crate) enum RunResult {
    /// A static (drain) run.
    Static(StaticResult),
    /// A dynamic (fixed-horizon) run.
    Dynamic(DynamicResult),
}

/// How one leg of a run ended.
#[derive(Debug, Clone)]
pub(crate) enum Leg {
    /// The run finished.
    Finished(RunResult),
    /// The run paused at the requested cycle.
    Paused(RunProgress),
}

/// The one drive path: run `w` on any [`Engine`], from a fresh network
/// (`from = None`) or from restored `progress`, pausing at `pause_at`.
///
/// # Panics
///
/// Re-raises a sharded engine's worker panic.
pub(crate) fn drive<E: Engine>(
    engine: &mut E,
    w: &Workload,
    from: Option<RunProgress>,
    pause_at: Option<u64>,
) -> Leg {
    let leg = match w {
        Workload::Static(backlog) => match from {
            None => engine.run_static_until(backlog, pause_at),
            Some(p) => engine.resume_static(backlog, p, pause_at),
        }
        .map(|o| match o {
            StaticOutcome::Finished(r) => Leg::Finished(RunResult::Static(r)),
            StaticOutcome::Paused(p) => Leg::Paused(p),
        }),
        &Workload::Dynamic { lambda, cycles, .. } => {
            let dest = |src: NodeId, rng: &mut StdRng| w.draw(src, rng);
            match from {
                None => engine.run_dynamic_until(lambda, dest, cycles, pause_at),
                Some(p) => engine.resume_dynamic(lambda, dest, cycles, p, pause_at),
            }
            .map(|o| match o {
                DynamicOutcome::Finished(r) => Leg::Finished(RunResult::Dynamic(r)),
                DynamicOutcome::Paused(p) => Leg::Paused(p),
            })
        }
    };
    leg.unwrap_or_else(|e| panic!("{e}"))
}

/// The result of a leg that was not asked to pause.
fn finished(leg: Leg) -> RunResult {
    match leg {
        Leg::Finished(res) => res,
        Leg::Paused(_) => unreachable!("no pause requested"),
    }
}

/// [`drive`] a whole run under a [`SnapshotPolicy`]: checkpoint at
/// `sp.at` and continue in-process, or restore `<label>.snap` and
/// resume. A missing snapshot on resume means the run finished before
/// the checkpoint cycle — rerun from cycle 0 (bit-identical either way).
/// Any other read error, a rejected snapshot and a failed write are
/// errors naming the file.
fn snapshot_run<E: Snapshots>(
    engine: &mut E,
    w: &Workload,
    snap: Option<SnapshotPolicy>,
    meta: &str,
    label: &str,
) -> Result<RunResult, String> {
    let Some(sp) = snap else {
        return Ok(finished(drive(engine, w, None, None)));
    };
    let path = sp.path(label);
    if sp.resume {
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(finished(drive(engine, w, None, None)));
            }
            Err(e) => return Err(format!("reading {}: {e}", path.display())),
        };
        let progress = engine
            .restore(&text)
            .and_then(|(_, p)| w.check_progress(&p).map(|()| p))
            .map_err(|e| format!("restoring {}: {e}", path.display()))?;
        return Ok(finished(drive(engine, w, Some(progress), None)));
    }
    match drive(engine, w, None, sp.at) {
        Leg::Finished(res) => Ok(res),
        Leg::Paused(progress) => {
            // Fail loudly: a checkpoint the resume leg can't find would
            // silently degrade to a from-scratch rerun.
            std::fs::write(&path, engine.checkpoint(meta, &progress))
                .map_err(|e| format!("writing snapshot {}: {e}", path.display()))?;
            Ok(finished(drive(engine, w, Some(progress), None)))
        }
    }
}

/// One replication of a work unit: its engine and workload seed, and
/// its snapshot label.
struct Rep {
    seed: u64,
    label: String,
}

/// Run the replications `reps` of `source` on the n-cube with the
/// router `opts.algo` names, returning each replication's result and
/// flushed recorder in order.
fn run_reps<Rec: RunRecorder>(
    source: Source,
    n: usize,
    reps: &[Rep],
    opts: &RunOptions,
    rc: &RecordConfig,
) -> Result<Vec<(RunResult, Rec)>, String> {
    let unit = Unit::<Rec> {
        source,
        n,
        reps,
        opts,
        rc,
        rec: PhantomData,
    };
    with_algo(opts.algo, n, unit)
}

/// A batch of replications waiting for its router (see [`run_reps`]).
struct Unit<'a, Rec> {
    source: Source,
    n: usize,
    reps: &'a [Rep],
    opts: &'a RunOptions,
    rc: &'a RecordConfig,
    rec: PhantomData<Rec>,
}

impl<Rec: RunRecorder> AlgoVisitor for Unit<'_, Rec> {
    type Out = Result<Vec<(RunResult, Rec)>, String>;

    /// The one engine-construction site: every replication gets its own
    /// engine, run through `drive` or `snapshot_run`. With
    /// `opts.shards > 1` it is sharded. Otherwise it is a [`Simulator`]:
    /// with `opts.lanes > 1` and neither a fault plan nor a snapshot
    /// policy, on a routing-state table the unit builds once for all of
    /// its replications; else on the computed source. The choice never
    /// changes a result, which is the `--lanes R` ≡ `--reps R` contract.
    /// Every engine runs the watchdog itself, and its
    /// [`fadr_metrics::StallReport`] is installed into the merged sink
    /// set, so downstream reporting is oblivious to which engine ran.
    fn visit<R>(self, rf: R) -> Self::Out
    where
        R: RoutingFunction + Clone + Send + 'static,
        R::Msg: Send + SnapshotMsg,
    {
        let (opts, rc) = (self.opts, self.rc);
        let (nodes, classes) = (rf.topology().num_nodes(), rf.num_classes());
        let cfg = |seed| SimConfig {
            queue_capacity: opts.queue_capacity,
            seed,
            ..SimConfig::default()
        };
        let (table, lambda) = match self.source {
            Source::Table(spec) => (spec.number, None),
            Source::Random { lambda } => (0, Some(lambda)),
        };
        let meta = |rep: &Rep| {
            crate::replay::meta_line(
                &rep.label,
                opts.algo,
                table,
                self.n,
                opts.queue_capacity,
                opts.dynamic_cycles,
                rep.seed,
                lambda,
            )
        };
        let state_table = (opts.lanes > 1
            && opts.faults.is_none()
            && opts.snapshot.is_none()
            && opts.shards <= 1)
            .then(|| StateTable::build(&rf));
        let rec = || Rec::build(rc, nodes, classes);
        let run = |rep: &Rep| {
            let w = Workload::new(self.source, self.n, rep.seed, opts.dynamic_cycles);
            let (res, stall, mut rec) = if opts.shards > 1 {
                let mut sim = fadr_sim::ShardedSimulator::with_recorders_strategy(
                    rf.clone(),
                    cfg(rep.seed),
                    opts.shards,
                    opts.partition,
                    |_| rec(),
                );
                if let Some(plan) = opts.faults {
                    sim = sim.with_faults(plan.clone());
                }
                if let Some(k) = rc.watchdog {
                    sim = sim.with_watchdog(k);
                }
                let res = snapshot_run(&mut sim, &w, opts.snapshot, &meta(rep), &rep.label)?;
                (res, sim.stall_report().cloned(), sim.into_recorder())
            } else if let Some(t) = &state_table {
                let mut sim =
                    Simulator::with_table(rf.clone(), cfg(rep.seed), rec(), Arc::clone(t));
                if let Some(k) = rc.watchdog {
                    sim = sim.with_watchdog(k);
                }
                let res = finished(drive(&mut sim, &w, None, None));
                (res, sim.stall_report().cloned(), sim.into_recorder())
            } else {
                let mut sim = Simulator::with_recorder(rf.clone(), cfg(rep.seed), rec());
                if let Some(plan) = opts.faults {
                    sim = sim.with_faults(plan.clone());
                }
                if let Some(k) = rc.watchdog {
                    sim = sim.with_watchdog(k);
                }
                let res = snapshot_run(&mut sim, &w, opts.snapshot, &meta(rep), &rep.label)?;
                (res, sim.stall_report().cloned(), sim.into_recorder())
            };
            if let Some(k) = rc.watchdog {
                rec.install_watchdog(k, stall);
            }
            rec.flush();
            Ok((res, rec))
        };
        self.reps.iter().map(run).collect()
    }
}

/// A replicated sweep point folded into mean ± 95% CI views (the
/// statistically honest replacement for single-sample sweep columns).
#[derive(Debug, Clone, Copy)]
pub struct LanePoint {
    /// Normalized throughput (delivered / (nodes × cycles)) across reps.
    pub throughput: MeanCi,
    /// Mean latency across replications.
    pub l_avg: MeanCi,
    /// Maximum latency over all replications.
    pub l_max: u64,
    /// Effective injection rate across replications.
    pub injection_rate: MeanCi,
    /// Total packets delivered, summed over replications.
    pub delivered: u64,
}

impl LanePoint {
    /// Fold the per-replication rows of a dynamic point that ran
    /// `cycles` cycles on the n-cube.
    pub fn of(rows: &[RowResult], cycles: u64) -> Self {
        let mut thr = RunningStats::new();
        let mut l_avg = RunningStats::new();
        let mut ir = RunningStats::new();
        let mut l_max = 0u64;
        let mut delivered = 0u64;
        for r in rows {
            thr.push(r.delivered as f64 / ((1usize << r.n) as f64 * cycles as f64));
            l_avg.push(r.l_avg);
            ir.push(r.injection_rate.unwrap_or(0.0));
            l_max = l_max.max(r.l_max);
            delivered += r.delivered;
        }
        LanePoint {
            throughput: thr.ci95(),
            l_avg: l_avg.ci95(),
            l_max,
            injection_rate: ir.ci95(),
            delivered,
        }
    }
}

/// Dimensions a table covers: the paper's full sweep or a reduced default.
pub fn dims_for(spec: TableSpec, full: bool) -> Vec<usize> {
    let base: Vec<usize> = if spec.number == 12 {
        if full {
            (9..=14).collect()
        } else {
            (9..=12).collect()
        }
    } else if full {
        (10..=14).collect()
    } else {
        (10..=12).collect()
    };
    base
}

/// Regenerate one table over a dimension list ([`dims_for`] gives the
/// paper's), returning a rendered [`Table`] with measured and paper
/// reference columns side by side. Row × replication work units spread
/// over `jobs` worker threads; output is bit-identical for every `jobs`.
pub fn run_table_dims(
    number: usize,
    dims: &[usize],
    opts: RunOptions,
    jobs: usize,
) -> Result<Table, String> {
    Ok(render_table(
        number,
        &run_rows(spec(number), dims, opts, jobs)?,
    ))
}

/// [`run_table_dims`] with recording: returns the rendered table plus
/// each row's merged sinks for JSON export. The rendered table is
/// bit-identical to the unrecorded one.
pub fn run_table_dims_recorded(
    number: usize,
    dims: &[usize],
    opts: RunOptions,
    jobs: usize,
    rc: RecordConfig,
) -> Result<(Table, Vec<RecordedRow>), String> {
    let recorded = run_rows_recorded(spec(number), dims, opts, jobs, rc)?;
    let rows: Vec<RowResult> = recorded.iter().map(|r| r.row).collect();
    Ok((render_table(number, &rows), recorded))
}

/// Render measured rows of table `number` next to the paper's reference
/// columns.
pub fn render_table(number: usize, rows: &[RowResult]) -> Table {
    let s = spec(number);
    let injection = match s.packets {
        Some(PacketsPerNode::One) => "1 packet".to_string(),
        Some(PacketsPerNode::LogN) => "n packets".to_string(),
        None => "lambda = 1".to_string(),
    };
    let dynamic = s.packets.is_none();
    let headers: Vec<&str> = if dynamic {
        vec![
            "n",
            "N",
            "L_avg",
            "L_max",
            "I_r (%)",
            "paper L_avg",
            "paper L_max",
            "paper I_r",
        ]
    } else {
        vec!["n", "N", "L_avg", "L_max", "paper L_avg", "paper L_max"]
    };
    // Flag aborted rows in place of passing them off as clean runs:
    // their statistics cover only the packets delivered before the
    // watchdog stopped the simulation.
    let aborted_note = if rows.iter().any(|r| r.aborted) {
        " [* = aborted by watchdog; stats cover delivered packets only]"
    } else {
        ""
    };
    let mut table = Table::new(
        format!(
            "Table {number}: {}, {injection}{aborted_note}",
            s.pattern.label()
        ),
        &headers,
    );
    for row in rows {
        let n = row.n;
        let l_avg = fmt2(row.l_avg);
        let mut cells = vec![
            n.to_string(),
            (1usize << n).to_string(),
            if row.aborted {
                format!("{l_avg}*")
            } else {
                l_avg
            },
            row.l_max.to_string(),
        ];
        if dynamic {
            cells.push(format!("{:.0}", 100.0 * row.injection_rate.unwrap_or(0.0)));
            if let Some((a, m, ir)) = paper::dynamic_ref(number, n) {
                cells.extend([fmt2(a), m.to_string(), ir.to_string()]);
            } else {
                cells.extend(["-".into(), "-".into(), "-".into()]);
            }
        } else if let Some((a, m)) = paper::static_ref(number, n) {
            cells.extend([fmt2(a), m.to_string()]);
        } else {
            cells.extend(["-".into(), "-".into()]);
        }
        table.push_row(cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_cover_all_tables() {
        for (i, s) in TABLES.iter().enumerate() {
            assert_eq!(s.number, i + 1);
        }
        assert_eq!(spec(6).pattern, PatternKind::Complement);
        assert!(spec(9).packets.is_none());
    }

    #[test]
    fn dims_defaults() {
        assert_eq!(dims_for(spec(1), false), vec![10, 11, 12]);
        assert_eq!(dims_for(spec(1), true), vec![10, 11, 12, 13, 14]);
        assert_eq!(dims_for(spec(12), false), vec![9, 10, 11, 12]);
    }

    #[test]
    fn run_row_static_small() {
        // Exercise the runner on a small complement row: exact 2n+1.
        let s = TableSpec {
            number: 2,
            pattern: PatternKind::Complement,
            packets: Some(PacketsPerNode::One),
        };
        let r = run_row(s, 6, RunOptions::default()).unwrap();
        assert_eq!(r.l_max, 13);
        assert!((r.l_avg - 13.0).abs() < 1e-9);
    }

    #[test]
    fn run_row_dynamic_small() {
        let s = TableSpec {
            number: 9,
            pattern: PatternKind::Random,
            packets: None,
        };
        let opts = RunOptions {
            dynamic_cycles: 100,
            ..RunOptions::default()
        };
        let r = run_row(s, 6, opts).unwrap();
        assert!(r.injection_rate.unwrap() > 0.5);
        assert!(r.l_avg > 0.0);
    }
}
