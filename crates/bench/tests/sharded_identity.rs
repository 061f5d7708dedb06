//! `--shards N` must be invisible in the output: every row of every
//! paper table, and the recorded sinks, are bit-identical between the
//! sequential engine and the sharded engine.

use fadr_bench::obs::RecordConfig;
use fadr_bench::runner::{run_rows, run_rows_recorded, spec, RunOptions, TableSpec};
use fadr_metrics::TraceSink;

fn opts(shards: usize) -> RunOptions {
    RunOptions {
        dynamic_cycles: 60,
        shards,
        ..RunOptions::default()
    }
}

fn assert_rows_identical(t: usize, s: TableSpec, dims: &[usize], shards: usize) {
    let seq = run_rows(s, dims, opts(1), 1).unwrap();
    let shr = run_rows(s, dims, opts(shards), 1).unwrap();
    for (a, b) in seq.iter().zip(&shr) {
        assert_eq!(
            a.l_avg.to_bits(),
            b.l_avg.to_bits(),
            "table {t} n={} shards={shards}: L_avg {} != {}",
            a.n,
            a.l_avg,
            b.l_avg
        );
        assert_eq!(a.l_max, b.l_max, "table {t} n={} shards={shards}", a.n);
        assert_eq!(
            a.injection_rate.map(f64::to_bits),
            b.injection_rate.map(f64::to_bits),
            "table {t} n={} shards={shards}",
            a.n
        );
        assert_eq!(a.aborted, b.aborted, "table {t} n={} shards={shards}", a.n);
    }
}

/// All twelve paper tables at a reduced dimension, sequential vs two
/// shards: bit-identical rows.
#[test]
fn all_tables_rows_identical_at_two_shards() {
    for t in 1..=12 {
        assert_rows_identical(t, spec(t), &[7], 2);
    }
}

/// A deeper check on one static and one dynamic table with awkward
/// shard counts (3 and 7 don't divide 2^n).
#[test]
fn uneven_shard_counts_identical() {
    for shards in [3, 7] {
        assert_rows_identical(6, spec(6), &[7], shards);
        assert_rows_identical(9, spec(9), &[7], shards);
    }
}

/// The recorded path (counters + trace) is bit-identical too: the
/// per-shard sinks merged in shard order equal the sequential run's
/// single sink, and recording does not perturb the measured rows.
#[test]
fn recorded_rows_and_sinks_identical_at_two_shards() {
    let rc = RecordConfig {
        counters: true,
        trace: Some(32),
        watchdog: None,
        ..RecordConfig::default()
    };
    for t in [6usize, 9] {
        let seq = run_rows_recorded(spec(t), &[7], opts(1), 1, rc).unwrap();
        let shr = run_rows_recorded(spec(t), &[7], opts(2), 1, rc).unwrap();
        for (a, b) in seq.iter().zip(&shr) {
            assert_eq!(a.row.l_avg.to_bits(), b.row.l_avg.to_bits(), "table {t}");
            assert_eq!(a.row.l_max, b.row.l_max, "table {t}");
            assert_eq!(a.sinks.counters, b.sinks.counters, "table {t}: counters");
            assert_eq!(
                a.sinks.trace.as_ref().map(TraceSink::lines),
                b.sinks.trace.as_ref().map(TraceSink::lines),
                "table {t}: trace"
            );
        }
    }
}

/// `--shards` composes with `--jobs`: the row × replication fan-out
/// over worker threads, each running a sharded simulation, still
/// produces bit-identical rows.
#[test]
fn shards_compose_with_jobs() {
    let s = spec(6);
    let seq = run_rows(s, &[6, 7], opts(1), 1).unwrap();
    let both = run_rows(s, &[6, 7], RunOptions { reps: 2, ..opts(2) }, 2).unwrap();
    // reps=2 changes the reduction (mean over reps), so compare against
    // the same reps sequentially instead of against the 1-rep rows.
    let seq2 = run_rows(s, &[6, 7], RunOptions { reps: 2, ..opts(1) }, 1).unwrap();
    for (a, b) in seq2.iter().zip(&both) {
        assert_eq!(a.l_avg.to_bits(), b.l_avg.to_bits());
        assert_eq!(a.l_max, b.l_max);
    }
    // And the 1-rep row is still what it was (guard against accidental
    // seed coupling between reps and shards).
    assert_eq!(
        seq[0].l_max,
        run_rows(s, &[6, 7], opts(2), 2).unwrap()[0].l_max
    );
}

/// The wait-for-graph probe composes with `--shards`: recorded at 1, 2
/// and 3 shards, the rows and the merged sinks — the wait-for graph the
/// engine assembles from every shard's queues included — are identical.
#[test]
fn waitgraph_rows_and_sinks_identical_across_shard_counts() {
    let rc = RecordConfig {
        counters: true,
        waitgraph: true,
        ..RecordConfig::default()
    };
    for t in [6usize, 9] {
        let seq = run_rows_recorded(spec(t), &[7], opts(1), 1, rc).unwrap();
        let graph = seq[0].sinks.waitgraph.as_ref().expect("probe attached");
        assert!(graph.max_chain_depth >= 2, "table {t}: {graph:?}");
        for shards in [2, 3] {
            let shr = run_rows_recorded(spec(t), &[7], opts(shards), 1, rc).unwrap();
            for (a, b) in seq.iter().zip(&shr) {
                assert_eq!(a.row.l_avg.to_bits(), b.row.l_avg.to_bits(), "table {t}");
                assert_eq!(a.row.l_max, b.row.l_max, "table {t} shards={shards}");
                assert_eq!(
                    a.row.injection_rate.map(f64::to_bits),
                    b.row.injection_rate.map(f64::to_bits),
                    "table {t} shards={shards}"
                );
                assert_eq!(
                    a.sinks.counters, b.sinks.counters,
                    "table {t} shards={shards}"
                );
                assert_eq!(
                    a.sinks.waitgraph, b.sinks.waitgraph,
                    "table {t} shards={shards}: wait-for graph"
                );
            }
        }
    }
}
