//! Parameter sweeps emitting CSV series (extension experiments beyond
//! the paper's fixed operating points).
//!
//! ```text
//! sweep lambda [--n N] [--cycles C] [--jobs J] [--shards S] [--lanes R]  # offered load vs throughput/latency/I_r
//! sweep capacity [--n N] [--table K] [--cycles C] [--jobs J] [--shards S] [--lanes R]  # central-queue capacity vs latency
//! ```
//!
//! `--n` is the hypercube dimension (1..=30, default 8), `--table` a
//! paper table number (1..=12, default 6), and `--cycles` the dynamic
//! horizon (default 300 for lambda points, the tables' 500 for capacity
//! rows). Malformed or out-of-range values are rejected, never
//! defaulted.
//!
//! `--lanes R` replicates every point `R` times on one shared
//! routing-state table (`fadr_sim::Simulator::with_table`). Lambda
//! points then emit mean ± 95% CI columns instead of single noisy
//! samples (the CSV header changes, so downstream parsing is never
//! silently wrong); capacity rows average the replications like
//! `tables --reps R`. With `--faults`, checkpoint/resume or
//! `--shards > 1` the replications run on the computed source instead
//! (the table has none of these), with the same output.
//!
//! `--partition P` picks the shard partition strategy
//! (`auto|contiguous|hamming|bisection|bfs`, default `auto`); a `#`
//! comment line above the CSV reports the resulting cut fraction.
//!
//! Each sweep runs the fully-adaptive algorithm, the static hang, and
//! e-cube + SBP side by side. Sweep points are independent simulations,
//! so they fan out over `--jobs` worker threads (default: available
//! parallelism); rows are computed into slots and printed in sweep
//! order, so the CSV is bit-identical for any `--jobs` value.
//! `--shards S` additionally runs each simulation on `S` shard threads
//! (bit-identical for any `S`; composes with `--jobs`).
//!
//! Observability: `--trace PATH`, `--metrics-out PATH`, `--journal PATH`
//! and `--watchdog K` attach recording sinks to every sweep point (one
//! per replication, merged in replication order); metrics
//! rows carry a `label` identifying the point (the CSV itself is
//! unchanged by recording). `--faults PLAN.json` injects a
//! `fadr-faults/1` plan into every sweep point (degraded-mode routing).

#![forbid(unsafe_code)]

use std::process::ExitCode;

use fadr_bench::exec;
use fadr_bench::obs::{self, parse_positive, parse_run_flag, parse_table, MetricsRow, ObsArgs};
use fadr_bench::runner::{
    run_point_recorded, run_rows_recorded, spec, Algo, LanePoint, RunOptions,
};
use fadr_core::HypercubeFullyAdaptive;
use fadr_metrics::SinkSet;
use fadr_sim::{PartitionStrategy, SimConfig};

const ALGOS: [(&str, Algo); 3] = [
    ("fully-adaptive", Algo::FullyAdaptive),
    ("static-hang", Algo::StaticHang),
    ("ecube-sbp", Algo::EcubeSbp),
];

/// Print the shard-partition cut measurement as a `#` comment line (all
/// three algorithms run on the same n-cube, so the partition — a pure
/// function of topology, shard count, and strategy — is shared).
fn print_partition_stats(n: usize, shards: usize, partition: PartitionStrategy) {
    use fadr_qdg::RoutingFunction;
    if shards <= 1 {
        return;
    }
    let rf = HypercubeFullyAdaptive::new(n);
    let layout = fadr_sim::Layout::new(&rf);
    let shards = shards.clamp(1, layout.num_nodes.max(1));
    if let Ok(part) = fadr_sim::Partition::new(partition, rf.topology(), &layout, shards) {
        println!("# partition: {}", part.stats);
    }
}

/// Print the CSV header and the points' lines in sweep order, and lift
/// each point's sinks into a labelled metrics row.
fn emit(
    header: &str,
    table: usize,
    n: usize,
    points: Vec<(String, String, SinkSet)>,
) -> Vec<MetricsRow> {
    println!("{header}");
    points
        .into_iter()
        .map(|(line, label, sinks)| {
            println!("{line}");
            MetricsRow {
                table,
                n,
                label: Some(label),
                sinks,
            }
        })
        .collect()
}

/// Offered load vs throughput, latency and I_r. A replicated point
/// (`--lanes R`) reports mean ± 95% CI per column.
fn lambda_sweep(
    n: usize,
    jobs: usize,
    opts: RunOptions,
    obs: &ObsArgs,
) -> Result<Vec<MetricsRow>, String> {
    const LAMBDAS: [f64; 11] = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
    let cycles = opts.dynamic_cycles;
    let replicated = opts.reps > 1;
    print_partition_stats(n, opts.shards, opts.partition);
    let points = exec::run_indexed(LAMBDAS.len() * ALGOS.len(), jobs, |i| {
        let lambda = LAMBDAS[i / ALGOS.len()];
        let (name, algo) = ALGOS[i % ALGOS.len()];
        let point = RunOptions {
            algo,
            seed: SimConfig::default().seed,
            ..opts
        };
        // File-safe label keying this point's snapshot inside
        // `--checkpoint-dir` (the display label below has spaces).
        let snap_label = format!("lambda{lambda}_{name}");
        let (rows, sinks) = run_point_recorded(lambda, n, point, obs.record_config(), &snap_label)?;
        let p = LanePoint::of(&rows, cycles);
        let line = if replicated {
            format!(
                "{lambda},{name},{:.4},{:.4},{:.2},{:.2},{},{:.3},{:.3}",
                p.throughput.mean,
                p.throughput.half_width,
                p.l_avg.mean,
                p.l_avg.half_width,
                p.l_max,
                p.injection_rate.mean,
                p.injection_rate.half_width
            )
        } else {
            format!(
                "{lambda},{name},{:.4},{:.2},{},{:.3}",
                p.throughput.mean, p.l_avg.mean, p.l_max, p.injection_rate.mean
            )
        };
        Ok::<_, String>((line, format!("lambda={lambda} algo={name}"), sinks))
    });
    let header = if replicated {
        "lambda,algo,throughput_mean,throughput_ci95,l_avg_mean,l_avg_ci95,l_max,\
         injection_rate_mean,injection_rate_ci95"
    } else {
        "lambda,algo,throughput,l_avg,l_max,injection_rate"
    };
    let points = points.into_iter().collect::<Result<_, _>>()?;
    Ok(emit(header, 0, n, points))
}

/// Central-queue capacity vs latency on one paper table row.
fn capacity_sweep(
    n: usize,
    table: usize,
    jobs: usize,
    opts: RunOptions,
    obs: &ObsArgs,
) -> Result<Vec<MetricsRow>, String> {
    const CAPS: [usize; 8] = [1, 2, 3, 5, 8, 10, 12, 16];
    print_partition_stats(n, opts.shards, opts.partition);
    let points = exec::run_indexed(CAPS.len() * ALGOS.len(), jobs, |i| {
        let cap = CAPS[i / ALGOS.len()];
        let (name, algo) = ALGOS[i % ALGOS.len()];
        let point = RunOptions {
            queue_capacity: cap,
            algo,
            ..opts
        };
        // One dimension: the recorded row is the sweep point.
        let mut recorded = run_rows_recorded(spec(table), &[n], point, 1, obs.record_config())?;
        let r = recorded.remove(0);
        let line = format!("{cap},{name},{:.2},{}", r.row.l_avg, r.row.l_max);
        Ok::<_, String>((line, format!("cap={cap} algo={name}"), r.sinks))
    });
    let points = points.into_iter().collect::<Result<_, _>>()?;
    Ok(emit("capacity,algo,l_avg,l_max", table, n, points))
}

const USAGE: &str = "usage: sweep <lambda|capacity> [--n N] [--cycles C] [--table K] [--jobs J] \
     [--shards S] [--lanes R] [--partition P]";

fn run() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let mode = args.next().unwrap_or_default();
    if mode != "lambda" && mode != "capacity" {
        return Err(format!("{USAGE} {}", ObsArgs::USAGE));
    }
    let mut n = 8usize;
    let mut cycles: Option<u64> = None;
    let mut table = 6usize;
    let mut jobs = exec::default_jobs();
    let mut opts = RunOptions::default();
    let mut obs_args = ObsArgs::default();
    while let Some(a) = args.next() {
        let mut next = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--n" => {
                n = parse_positive("--n", &next("--n")?)?;
                if n > 30 {
                    return Err(format!("--n must be 1..=30 (hypercube dimension), got {n}"));
                }
            }
            "--cycles" => cycles = Some(parse_positive("--cycles", &next("--cycles")?)? as u64),
            "--table" => table = parse_table(&next("--table")?)?,
            other => {
                if !parse_run_flag(other, &mut opts, &mut jobs, &mut next)?
                    && !obs_args.parse_flag(other, &mut next)?
                {
                    return Err(format!(
                        "unknown argument {other}\n{USAGE} {}",
                        ObsArgs::USAGE
                    ));
                }
            }
        }
    }
    let lambda = mode == "lambda";
    opts.dynamic_cycles = cycles.unwrap_or(if lambda { 300 } else { opts.dynamic_cycles });
    opts.reps = u32::try_from(opts.lanes).map_err(|_| "--lanes is too large")?;
    obs_args.validate(&opts)?;
    opts.faults = obs_args.load_fault_plan()?;
    opts.snapshot = obs_args.snapshot_policy()?;
    let metrics = if lambda {
        lambda_sweep(n, jobs, opts, &obs_args)?
    } else {
        capacity_sweep(n, table, jobs, opts, &obs_args)?
    };
    if obs_args.enabled() {
        obs::report(&metrics);
        obs::export(&obs_args, "mixed", &metrics)
            .map_err(|e| format!("failed to write observability output: {e}"))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
