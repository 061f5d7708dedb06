//! Interleaved A/B timing of the harness, and the scale scenarios.
//!
//! ```text
//! perf --compare self  [--samples S] [--shards S] [--partition P]  # harness sanity: A = B must be within-noise
//! perf --compare lanes [--samples S] [--lanes R] [--jobs J]        # table vs computed option source
//! perf --large [--samples S] [--shards S] [--partition P]          # million-packet runs, sequential vs sharded
//! ```
//!
//! The tracked performance ledger is the `benchmark/` package (see
//! `benchmark/README.md`). `perf` keeps the measurements it cannot
//! make: an A/B of two configurations inside one process, and the
//! minutes-long scale scenarios. Exactly one mode is required.
//!
//! * `--samples S` — timed samples per side (default 3; the compare
//!   modes take at least 2 and add one warm-up each).
//! * `--compare self` — time the same workload twice, interleaved, and
//!   demand a within-noise verdict; any directional verdict exits
//!   nonzero. This is the fail-closed sanity check of the statistical
//!   harness itself: a comparison method that can call identical code
//!   "faster" would also launder noise into fake regressions. The
//!   workload (a Table 9 row at n = 8) honours the run flags
//!   (`--shards`, `--partition`, `--lanes`, `--faults`,
//!   checkpoint/resume), which pass the same flag-conflict check as
//!   `tables`.
//! * `--compare lanes` — the option-source A/B: `--lanes R` (default 32,
//!   at least 2) replications of a Table 9 row on the hypercube(8)
//!   (λ = 1, 300 cycles) on the computed source vs on the routing-state
//!   table, interleaved, both through the table runner over `--jobs J`
//!   workers (default: available parallelism). The computed side runs
//!   one replication per work unit; the table side runs ⌈R/J⌉ per unit,
//!   so each worker builds one table per sample, as `tables --lanes`
//!   does. Asserts the rows are bit-identical across sources and
//!   reports the aggregate replication-throughput speedup (delivered
//!   packets per wall-clock second) with an overlap-aware verdict. The
//!   speedup is recorded in EXPERIMENTS.md, not asserted: wall-clock
//!   thresholds in CI are flakes waiting to happen. The table has no
//!   fault model, snapshot form or shards, so this mode rejects
//!   `--faults`, checkpoint/resume and `--shards > 1` rather than time
//!   the computed source against itself.
//! * `--large` — the million-packet scale scenarios: a hypercube(16)
//!   and a 256×256 mesh dynamic run (λ = 1, ≥10⁶ delivered packets
//!   each) on the sequential engine vs `--shards S` shard threads
//!   (default 4), printing delivered-packet counts and the sharded
//!   speedup. These minutes-long runs are timed cold (no warm-up).
//! * `--partition P` — shard partition strategy
//!   (`auto|contiguous|hamming|bisection|bfs`, default `auto`); the
//!   measured cut fraction is printed per scenario and never changes
//!   results.
//! * `--trace PATH` / `--metrics-out PATH` / `--watchdog K` — after the
//!   timed (recorder-free) measurements, re-run one Table 6 and one
//!   Table 9 row with recording sinks and print a metrics summary
//!   block; the instrumented re-runs are *not* timed.
//! * `--faults PLAN.json` — inject a `fadr-faults/1` plan into the
//!   compared row and the instrumented re-runs (the `--large`
//!   scenarios ignore it).

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::process::ExitCode;

use fadr_bench::exec;
use fadr_bench::obs::{self, parse_positive, parse_run_flag, MetricsRow, ObsArgs};
use fadr_bench::perf::{compare, compare_line, report_line, time_cold};
use fadr_bench::runner::{run_row, run_rows, run_rows_recorded, spec, RunOptions};
use fadr_core::{HypercubeFullyAdaptive, MeshFullyAdaptive};
use fadr_metrics::Verdict;
use fadr_qdg::RoutingFunction;
use fadr_sim::{PartitionStrategy, ShardedSimulator, SimConfig, Simulator};
use fadr_workloads::Pattern;

/// What one `perf` invocation measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    CompareSelf,
    CompareLanes,
    Large,
}

const USAGE: &str = "usage: perf --compare self|lanes | --large [--samples S] [--jobs J] \
                     [--shards S] [--partition P] [--lanes R]";

/// `--compare self`: run the identical workload on both sides of the
/// interleaved harness. The only honest verdict is within-noise;
/// anything directional means the harness itself manufactures signal,
/// so the binary exits nonzero (CI runs this fail-closed).
fn compare_self(samples: usize, opts: RunOptions) -> Result<ExitCode, String> {
    let failed = RefCell::new(None);
    let workload = || {
        if let Err(e) = run_row(spec(9), 8, opts) {
            failed.borrow_mut().get_or_insert(e);
        }
    };
    let r = compare("self_a", "self_b", samples, workload, workload);
    if let Some(e) = failed.into_inner() {
        return Err(e);
    }
    println!("{}", compare_line(&r));
    if r.verdict == Verdict::WithinNoise {
        println!("# compare self: ok (identical workloads are indistinguishable)");
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "# compare self: FAILED — identical workloads judged {}; the harness is \
             reading noise as signal",
            r.verdict.label()
        );
        Ok(ExitCode::FAILURE)
    }
}

/// `--compare lanes`: `opts.lanes` replications of a Table 9 row at
/// n = 8 (λ = 1, 300 cycles) on the computed source vs the table source,
/// interleaved, both through [`run_rows`] over `jobs` workers. The rows
/// must be bit-identical; the reported number is the aggregate
/// replication-throughput speedup.
fn compare_lanes(samples: usize, jobs: usize, opts: RunOptions) -> ExitCode {
    let reps = opts.lanes;
    let computed = RunOptions {
        reps: u32::try_from(reps).expect("replication count fits in u32"),
        lanes: 1,
        dynamic_cycles: 300,
        ..opts
    };
    let table = RunOptions {
        lanes: reps.div_ceil(jobs).max(2),
        ..computed
    };
    // `run` rejects snapshots in this mode, the only way a run fails.
    let row = |o| run_rows(spec(9), &[8], o, jobs).expect("no snapshot to restore")[0];
    let (mut seq, mut tab) = (None, None);
    let r = compare(
        &format!("computed_x{reps}_jobs{jobs}"),
        &format!("table_x{reps}_jobs{jobs}"),
        samples,
        || seq = Some(row(computed)),
        || tab = Some(row(table)),
    );
    let (seq, tab) = (seq.expect("timed"), tab.expect("timed"));
    assert_eq!(
        (seq.l_avg.to_bits(), seq.l_max, seq.delivered),
        (tab.l_avg.to_bits(), tab.l_max, tab.delivered),
        "the replicated rows diverged between the option sources"
    );
    let total = seq.delivered;
    println!("{}", compare_line(&r));
    println!(
        "# compare lanes: {total} delivered per side (bit-identical rows), \
         aggregate {:.0} vs {:.0} packets/s, speedup {:.2}x ({})",
        total as f64 / r.a_ci.mean,
        total as f64 / r.b_ci.mean,
        r.a_ci.mean / r.b_ci.mean,
        r.verdict.label()
    );
    ExitCode::SUCCESS
}

/// One `--large` scenario: a dynamic λ = 1 run on the sequential engine
/// vs `shards` shard threads. The horizon is sized so each run delivers
/// well over 10⁶ packets (asserted); sequential and sharded deliver the
/// *bit-identical* packet set, which doubles as an at-scale equivalence
/// check.
fn large_scenario<R>(
    label: &str,
    rf: R,
    cycles: u64,
    samples: usize,
    shards: usize,
    partition: PartitionStrategy,
) where
    R: RoutingFunction + Clone + Send,
    R::Msg: Send,
{
    let cfg = SimConfig::default();
    let size = rf.topology().num_nodes();
    let dest = move |s: usize, rng: &mut _| Pattern::Random.draw(s, size, rng);

    let mut seq_sim = Simulator::new(rf.clone(), cfg);
    let mut seq_delivered = 0u64;
    let m_seq = time_cold(&format!("{label}_seq"), samples, || {
        seq_delivered = seq_sim.run_dynamic(1.0, dest, cycles).delivered;
        seq_delivered
    });
    println!("{}", report_line(&m_seq));

    let mut shr_sim = ShardedSimulator::with_strategy(rf, cfg, shards, partition);
    println!("# {label}: partition {}", shr_sim.partition_stats());
    let mut shr_delivered = 0u64;
    let m_shr = time_cold(&format!("{label}_shards{shards}"), samples, || {
        shr_delivered = shr_sim.run_dynamic(1.0, dest, cycles).delivered;
        shr_delivered
    });
    println!("{}", report_line(&m_shr));

    assert_eq!(
        seq_delivered, shr_delivered,
        "{label}: sharded delivered count diverged from sequential"
    );
    assert!(
        seq_delivered >= 1_000_000,
        "{label}: only {seq_delivered} packets delivered; raise the horizon"
    );
    let speedup = m_seq.min() / m_shr.min();
    let cut = shr_sim.partition_stats().cut_fraction();
    println!(
        "# {label}: {seq_delivered} delivered, {speedup:.2}x speedup at {shards} shards \
         (cut {:.1}%)",
        100.0 * cut
    );
}

/// `--large`: the million-packet scale scenarios. Shard threads
/// time-slice whatever the host exposes, so the speedup is printed next
/// to the host's thread count.
fn large(samples: usize, shards: usize, partition: PartitionStrategy) -> ExitCode {
    let host_threads = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    println!("# large: {shards} shards, {host_threads} host threads");
    large_scenario(
        "hypercube16_dynamic",
        HypercubeFullyAdaptive::new(16),
        60,
        samples,
        shards,
        partition,
    );
    // 12000 cycles: the saturated 256x256 mesh delivers ever more
    // slowly as its buffers fill toward global saturation (measured
    // cumulative: 281k by cycle 700, 518k by 1800, 830k by 5000 —
    // marginal rate decaying 216 -> 97 packets/cycle), so the horizon
    // carries a large margin: even if the rate quarters again, 12000
    // cycles clear 10^6 delivered.
    large_scenario(
        "mesh256_dynamic",
        MeshFullyAdaptive::new(256, 256),
        12_000,
        samples,
        shards,
        partition,
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut samples = 3usize;
    let mut jobs = exec::default_jobs();
    let mut mode: Option<Mode> = None;
    // 0 = flag not given (the shared parser only accepts positive
    // values), so perf's own defaults apply below.
    let mut opts = RunOptions {
        shards: 0,
        lanes: 0,
        ..RunOptions::default()
    };
    let mut obs_args = ObsArgs::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        let picked = match a.as_str() {
            "--compare" => match next("--compare")?.as_str() {
                "self" => Mode::CompareSelf,
                "lanes" => Mode::CompareLanes,
                _ => return Err("--compare needs self|lanes".into()),
            },
            "--large" => Mode::Large,
            "--samples" => {
                samples = parse_positive("--samples", &next("--samples")?)?;
                continue;
            }
            other => {
                if !parse_run_flag(other, &mut opts, &mut jobs, &mut next)?
                    && !obs_args.parse_flag(other, &mut next)?
                {
                    return Err(format!(
                        "unknown argument {other}\n{USAGE} {}",
                        ObsArgs::USAGE
                    ));
                }
                continue;
            }
        };
        if mode.replace(picked).is_some_and(|m| m != picked) {
            return Err(format!(
                "perf takes one mode: --compare self, --compare lanes or --large\n{USAGE}"
            ));
        }
    }
    let Some(mode) = mode else {
        return Err(format!(
            "perf needs a mode: --compare self, --compare lanes or --large\n{USAGE}"
        ));
    };
    let shards = if opts.shards == 0 { 4 } else { opts.shards };
    // The compare workloads run on exactly what the flags select; the
    // instrumented re-runs after `--large` run sequentially.
    opts.shards = if mode == Mode::Large {
        1
    } else {
        opts.shards.max(1)
    };
    if mode == Mode::CompareLanes {
        if opts.lanes == 0 {
            opts.lanes = 32;
        } else if opts.lanes < 2 {
            return Err(
                "--compare lanes needs --lanes of at least 2: a lone replication never \
                 takes the table source"
                    .into(),
            );
        }
    }
    opts.lanes = opts.lanes.max(1);
    obs_args.validate(&opts)?;
    if mode == Mode::CompareLanes {
        // The harness runs replications with shards, faults or snapshots
        // on the computed source, so this comparison would time the
        // computed source against itself.
        let snapshots = obs_args.checkpoint_at.is_some() || obs_args.resume_from.is_some();
        if opts.shards > 1 {
            return Err(
                "--compare lanes conflicts with --shards: it runs its lanes on one thread".into(),
            );
        } else if obs_args.faults.is_some() {
            return Err(
                "--compare lanes conflicts with --faults: lanes have no fault model".into(),
            );
        } else if snapshots {
            return Err(
                "--compare lanes conflicts with --checkpoint-at/--resume-from: \
                 lanes cannot checkpoint or restore"
                    .into(),
            );
        }
    }
    // `--faults` rides every RunOptions-driven workload (the compared
    // row and the instrumented re-runs); the `--large` scenarios stay
    // fault-free so their delivered-count floor keeps holding.
    opts.faults = obs_args.load_fault_plan()?;
    opts.snapshot = obs_args.snapshot_policy()?;
    let code = match mode {
        Mode::CompareSelf => compare_self(samples.max(2), opts)?,
        Mode::CompareLanes => compare_lanes(samples.max(2), jobs, opts),
        Mode::Large => large(samples, shards, opts.partition),
    };

    // Instrumented (untimed) re-runs: one static and one dynamic row
    // with recording sinks, for the metrics summary block and exports.
    if obs_args.enabled() {
        let rc = obs_args.record_config();
        let mut metrics = Vec::new();
        for &table in &[6usize, 9] {
            let recorded = run_rows_recorded(spec(table), &[10], opts, 1, rc)?;
            metrics.extend(recorded.iter().map(|r| MetricsRow::from_recorded(table, r)));
        }
        println!("# metrics summary (instrumented re-runs, untimed)");
        obs::report(&metrics);
        obs::export(&obs_args, opts.algo.algo(), &metrics)
            .map_err(|e| format!("failed to write observability output: {e}"))?;
    }
    Ok(code)
}
