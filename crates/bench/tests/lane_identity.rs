//! Regression: the table-sourced row runner is bit-identical to the
//! computed replication loop. With `lanes > 1` the runner runs a row's
//! replications in work units of `lanes`, each on one routing-state
//! table its simulators share — same per-rep seeds, same reduction, one
//! sink set per replication merged in rep order — so every
//! statistic must reproduce the `lanes = 1` path exactly, compared via
//! `f64::to_bits` (no epsilon), and recorded output must match byte for
//! byte. This is the contract that lets `tables --lanes R` stand in for
//! `tables --reps R` wholesale, recording flags included.

use fadr_bench::obs::{journal_text, metrics_json, trace_jsonl, MetricsRow, RecordConfig};
use fadr_bench::runner::{
    run_point_recorded, run_row, run_rows, run_rows_recorded, spec, LanePoint, RunOptions,
};
use fadr_sim::SimConfig;

/// Reduced scale so the whole matrix stays fast: small cubes, three
/// replications (so the rep-seed derivation is actually exercised),
/// short dynamic horizon.
fn opts() -> RunOptions {
    RunOptions {
        reps: 3,
        dynamic_cycles: 60,
        ..RunOptions::default()
    }
}

/// [`opts`] with its replications batched as lanes.
fn lanes(o: RunOptions) -> RunOptions {
    RunOptions {
        lanes: o.reps as usize,
        ..o
    }
}

/// One table per workload family: static random (2), static complement
/// (6), dynamic random (9), dynamic leveled (4) — the leveled family is
/// the one that needs the per-lane destination closure, because each
/// replication compiles its own pattern from its own seed.
const TABLES: [usize; 4] = [2, 6, 9, 4];
const DIMS: [usize; 2] = [5, 6];

#[test]
fn run_row_lanes_bitwise_identical_to_run_row() {
    for t in TABLES {
        let s = spec(t);
        for &n in &DIMS {
            let seq = run_row(s, n, opts()).unwrap();
            let lane = run_row(s, n, lanes(opts())).unwrap();
            assert_eq!(lane.n, seq.n, "table {t} n={n}");
            assert_eq!(lane.l_max, seq.l_max, "table {t} n={n}");
            assert_eq!(lane.aborted, seq.aborted, "table {t} n={n}");
            assert_eq!(
                lane.l_avg.to_bits(),
                seq.l_avg.to_bits(),
                "table {t} n={n}: {} != {}",
                lane.l_avg,
                seq.l_avg
            );
            assert_eq!(
                lane.injection_rate.map(f64::to_bits),
                seq.injection_rate.map(f64::to_bits),
                "table {t} n={n}"
            );
        }
    }
}

/// The lane fan-out over dimensions agrees with the sequential fan-out
/// for any job count (the reduction is the same single-threaded path).
/// Five replications in batches of two give each row three table
/// units, which several workers then run at once.
#[test]
fn run_rows_lanes_matches_run_rows_across_jobs() {
    let s = spec(9);
    let five = RunOptions { reps: 5, ..opts() };
    for (plain, batched_opts) in [
        (opts(), lanes(opts())),
        (five, RunOptions { lanes: 2, ..five }),
    ] {
        let base = run_rows(s, &DIMS, plain, 1).unwrap();
        for jobs in [1usize, 4] {
            let batched = run_rows(s, &DIMS, batched_opts, jobs).unwrap();
            let what = format!(
                "reps={} lanes={} jobs={jobs}",
                plain.reps, batched_opts.lanes
            );
            assert_eq!(batched.len(), base.len(), "{what}");
            for (a, b) in base.iter().zip(&batched) {
                assert_eq!(a.l_avg.to_bits(), b.l_avg.to_bits(), "{what}");
                assert_eq!(a.l_max, b.l_max, "{what}");
            }
        }
    }
}

/// A non-default seed and rep count still reproduce: the per-rep seeds
/// are derived from `(seed, table, rep, n)` on both paths.
#[test]
fn custom_seed_and_reps_reproduce() {
    let custom = RunOptions {
        reps: 5,
        seed: 0xD00D,
        dynamic_cycles: 40,
        ..RunOptions::default()
    };
    for t in [6usize, 9] {
        let seq = run_row(spec(t), 5, custom).unwrap();
        let lane = run_row(spec(t), 5, lanes(custom)).unwrap();
        assert_eq!(lane.l_avg.to_bits(), seq.l_avg.to_bits(), "table {t}");
        assert_eq!(lane.l_max, seq.l_max, "table {t}");
    }
}

/// Batches smaller than the replication count (5 reps as lanes of 2,
/// 2 and 1) still reproduce the unbatched row.
#[test]
fn partial_lane_batches_reproduce() {
    let five = RunOptions {
        reps: 5,
        dynamic_cycles: 40,
        ..RunOptions::default()
    };
    for t in [2usize, 12] {
        let seq = run_row(spec(t), 5, five).unwrap();
        let lane = run_row(spec(t), 5, RunOptions { lanes: 2, ..five }).unwrap();
        assert_eq!(lane.l_avg.to_bits(), seq.l_avg.to_bits(), "table {t}");
        assert_eq!(lane.l_max, seq.l_max, "table {t}");
        assert_eq!(lane.delivered, seq.delivered, "table {t}");
    }
}

/// Recording composes with lanes: rows, the metrics document, the
/// journal and the trace are byte-identical to `reps = 3` on a static
/// table (6), a dynamic one (9), and the seeded leveled dynamic table
/// (12, the per-lane destination closure with per-lane recorders).
#[test]
fn recorded_lanes_match_recorded_reps() {
    let rc = RecordConfig {
        counters: true,
        trace: Some(64),
        watchdog: Some(400),
        journal: Some(1 << 16),
        latency: true,
        waitgraph: true,
    };
    for t in [6usize, 9, 12] {
        let render = |o: RunOptions| {
            let recorded = run_rows_recorded(spec(t), &DIMS, o, 2, rc).unwrap();
            let rows: Vec<MetricsRow> = recorded
                .iter()
                .map(|r| MetricsRow::from_recorded(t, r))
                .collect();
            let cells: Vec<(u64, u64, Option<u64>, u64, bool)> = recorded
                .iter()
                .map(|r| {
                    let row = &r.row;
                    let ir = row.injection_rate.map(f64::to_bits);
                    (
                        row.l_avg.to_bits(),
                        row.l_max,
                        ir,
                        row.delivered,
                        row.aborted,
                    )
                })
                .collect();
            (
                cells,
                metrics_json("FullyAdaptive", &rows),
                journal_text(&rows),
                trace_jsonl(&rows),
            )
        };
        let reps = render(opts());
        assert!(!reps.2.is_empty(), "table {t} journal must see events");
        assert_eq!(render(lanes(opts())), reps, "table {t}");
    }
}

/// A replicated sweep point: one `LanePoint` folds every replication,
/// its intervals carry the replication count, the delivered total is
/// the sum over lanes, and batching the replications as lanes changes
/// nothing.
#[test]
fn replicated_point_aggregates_all_lanes() {
    let point = |reps: u32, lanes: usize| {
        let o = RunOptions {
            reps,
            lanes,
            seed: SimConfig::default().seed,
            dynamic_cycles: 60,
            ..RunOptions::default()
        };
        let (rows, _) = run_point_recorded(1.0, 5, o, RecordConfig::default(), "p").unwrap();
        LanePoint::of(&rows, 60)
    };
    let p = point(4, 4);
    assert_eq!(p.throughput.n, 4, "one throughput sample per lane");
    assert_eq!(p.l_avg.n, 4);
    assert_eq!(p.injection_rate.n, 4);
    assert!(p.delivered > 0);
    assert!(p.throughput.mean > 0.0 && p.throughput.mean <= 1.0);
    assert!(
        p.throughput.half_width.is_finite(),
        "a multi-lane point always has a finite interval"
    );
    let seq = point(4, 1);
    assert_eq!(
        (seq.delivered, seq.l_max, seq.l_avg.mean.to_bits()),
        (p.delivered, p.l_max, p.l_avg.mean.to_bits())
    );
    assert_eq!(point(2, 2).throughput.n, 2);
}

/// The table has no fault model, snapshots or shards, so with a fault
/// plan or `shards > 1` the runner runs the computed source; the rows
/// must still reproduce the `lanes = 1` path exactly (a table run that
/// silently ignored the plan would not).
#[test]
fn lanes_with_faults_or_shards_match_reps() {
    let mut plan = fadr_sim::FaultPlan::new(5, 3);
    plan.push(4, fadr_sim::FaultKind::LinkDown { from: 0, to: 1 });
    plan.push(
        2,
        fadr_sim::FaultKind::FlakyLink {
            from: 2,
            to: 3,
            until: 40,
            threshold: 40,
        },
    );
    let faulted = RunOptions {
        faults: Some(Box::leak(Box::new(plan))),
        ..opts()
    };
    let sharded = RunOptions {
        shards: 2,
        ..opts()
    };
    for (what, base) in [("faults", faulted), ("shards", sharded)] {
        for t in [2, 9] {
            let seq = run_rows(spec(t), &DIMS, base, 1).unwrap();
            let lane = run_rows(spec(t), &DIMS, lanes(base), 1).unwrap();
            assert_eq!(
                format!("{seq:?}"),
                format!("{lane:?}"),
                "{what}, table {t}: lanes diverged from reps"
            );
        }
    }
    let clean = run_rows(spec(9), &DIMS, opts(), 1).unwrap();
    let faulted_rows = run_rows(spec(9), &DIMS, faulted, 1).unwrap();
    assert_ne!(
        format!("{clean:?}"),
        format!("{faulted_rows:?}"),
        "the plan must change the run for the check above to mean anything"
    );
}
