//! Regenerate the paper's Tables 1–12.
//!
//! ```text
//! tables [--table K]... [--full] [--cap N] [--cycles N] [--seed S] [--reps R] [--algo A]
//!        [--jobs J] [--shards S] [--partition P] [--lanes R] [--csv] [--trace PATH]
//!        [--metrics-out PATH] [--watchdog K]
//! ```
//!
//! * `--table K` — regenerate only table K (repeatable); default: all 12.
//! * `--full` — the paper's complete sweep (n = 10..14; slow at n = 14).
//! * `--cap N` — central queue capacity (default 5, the paper's value;
//!   0 deliberately wedges the network and requires `--watchdog`).
//! * `--cycles N` — dynamic-run horizon in routing cycles (default 500).
//! * `--seed S` — base RNG seed.
//! * `--reps R` — replications per row (default 1, or `R` of
//!   `--lanes R`); each replication runs with its own seed.
//! * `--algo A` — the hypercube router: `fully-adaptive` (default, the
//!   paper's § 3 algorithm), `static-hang` or `ecube-sbp` (baselines).
//! * `--jobs J` — worker threads for the row × replication fan-out
//!   (default: available parallelism). Output is bit-identical for any
//!   value of `J`.
//! * `--shards S` — threads *inside* each simulation (sharded engine;
//!   default 1 = sequential). Composes with `--jobs`: each of the `J`
//!   concurrent runs uses `S` shard threads. Output is bit-identical
//!   for any value of `S`.
//! * `--lanes R` — run each row's replications `R` at a time on one
//!   routing-state table per batch (`fadr_sim::Simulator::with_table`)
//!   instead of calling the routing function per hop. Implies
//!   `--reps R` unless `--reps` is given; output is bit-identical to
//!   `--reps R` without `--lanes` (CI diffs the two), recording sinks
//!   included. With `--faults`, checkpoint/resume or `--shards > 1` the
//!   replications run on the computed source instead (the table has
//!   none of these), with the same output.
//! * `--csv` — emit CSV instead of aligned text.
//! * `--trace PATH` — write JSONL packet lifecycles (first 256 packets
//!   per run).
//! * `--metrics-out PATH` — write routing-decision counters and stall
//!   reports as JSON (schema `fadr-metrics/1`).
//! * `--watchdog K` — abort a run after `K` cycles without a delivery
//!   and report the stall instead of spinning to the cycle cap.
//! * `--faults PLAN.json` — inject the `fadr-faults/1` plan into every
//!   run (degraded-mode routing; rows that abort on a fault partition
//!   are flagged like watchdog aborts).

#![forbid(unsafe_code)]

use std::process::ExitCode;

use fadr_bench::exec;
use fadr_bench::obs::{self, parse_run_flag, parse_table, MetricsRow, ObsArgs};
use fadr_bench::runner::{
    dims_for, run_table_dims, run_table_dims_recorded, spec, Algo, RunOptions,
};

struct Args {
    tables: Vec<usize>,
    full: bool,
    csv: bool,
    jobs: usize,
    opts: RunOptions,
    obs: ObsArgs,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tables: Vec::new(),
        full: false,
        csv: false,
        jobs: exec::default_jobs(),
        opts: RunOptions::default(),
        obs: ObsArgs::default(),
    };
    let mut reps_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--table" => args.tables.push(parse_table(&next("--table")?)?),
            "--full" => args.full = true,
            "--csv" => args.csv = true,
            "--cap" => {
                args.opts.queue_capacity =
                    next("--cap")?.parse().map_err(|e| format!("--cap: {e}"))?;
            }
            "--cycles" => {
                args.opts.dynamic_cycles = next("--cycles")?
                    .parse()
                    .map_err(|e| format!("--cycles: {e}"))?;
            }
            "--seed" => {
                args.opts.seed = next("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--reps" => {
                args.opts.reps = next("--reps")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                reps_given = true;
            }
            "--algo" => {
                let v = next("--algo")?;
                args.opts.algo = Algo::parse(&v)
                    .ok_or("--algo must be fully-adaptive | static-hang | ecube-sbp")?;
            }
            "--help" | "-h" => {
                return Err(format!(
                    "usage: tables [--table K]... [--full] [--cap N] [--cycles N] [--seed S] [--reps R] [--algo A] [--jobs J] [--shards S] [--partition P] [--lanes R] [--csv] {}",
                    ObsArgs::USAGE
                ));
            }
            other => {
                if !parse_run_flag(other, &mut args.opts, &mut args.jobs, &mut next)?
                    && !args.obs.parse_flag(other, &mut next)?
                {
                    return Err(format!("unknown argument {other}"));
                }
            }
        }
    }
    if args.tables.is_empty() {
        args.tables = (1..=12).collect();
    }
    if !reps_given {
        args.opts.reps = u32::try_from(args.opts.lanes).map_err(|_| "--lanes is too large")?;
    }
    args.obs.validate(&args.opts)?;
    args.opts.faults = args.obs.load_fault_plan()?;
    args.opts.snapshot = args.obs.snapshot_policy()?;
    Ok(args)
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

fn run() -> Result<(), String> {
    let args = parse_args()?;
    eprintln!(
        "# {} hypercube routing (SPAA'91), queue capacity {}, dynamic horizon {} cycles, {} jobs, {} shards{}",
        args.opts.algo.name(),
        args.opts.queue_capacity,
        args.opts.dynamic_cycles,
        args.jobs,
        args.opts.shards,
        if args.full { ", full n=10..14 sweep" } else { "" }
    );
    let mut metrics: Vec<MetricsRow> = Vec::new();
    for &t in &args.tables {
        let start = std::time::Instant::now();
        let dims = dims_for(spec(t), args.full);
        let table = if args.obs.enabled() {
            let (table, recorded) =
                run_table_dims_recorded(t, &dims, args.opts, args.jobs, args.obs.record_config())?;
            metrics.extend(recorded.iter().map(|r| MetricsRow::from_recorded(t, r)));
            table
        } else {
            run_table_dims(t, &dims, args.opts, args.jobs)?
        };
        if args.csv {
            print!("{}", table.to_csv());
        } else {
            println!("{}", table.to_text());
        }
        eprintln!("# table {t} regenerated in {:.1?}", start.elapsed());
    }
    if args.obs.enabled() {
        obs::report(&metrics);
        let algo = format!("{:?}", args.opts.algo);
        obs::export(&args.obs, &algo, &metrics)
            .map_err(|e| format!("failed to write observability output: {e}"))?;
    }
    Ok(())
}
