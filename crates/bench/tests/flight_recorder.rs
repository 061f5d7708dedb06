//! Flight-recorder guarantees at the harness level: the event journal
//! is bit-identical across every execution strategy, a checkpoint/resume
//! split run reproduces an uninterrupted run exactly, and a snapshot
//! replay regenerates the reference journal event for event.

use fadr_bench::obs::{metrics_json, MetricsRow, RecordConfig};
use fadr_bench::replay::{first_divergence, journal_window, replay, ReplayOptions};
use fadr_bench::runner::{run_rows, run_rows_recorded, spec, RunOptions, SnapshotPolicy};
use fadr_sim::PartitionStrategy;

fn journal_config() -> RecordConfig {
    RecordConfig {
        journal: Some(1 << 16),
        ..RecordConfig::default()
    }
}

/// Fresh per-test snapshot directory, leaked so the policy stays `Copy`
/// (mirrors what `--checkpoint-dir` does in the binaries).
fn temp_policy(tag: &str, at: Option<u64>, resume: bool) -> SnapshotPolicy {
    let dir = std::env::temp_dir().join(format!("fadr_flight_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    SnapshotPolicy {
        at,
        dir: Box::leak(dir.into_boxed_path()),
        resume,
    }
}

/// The journal — count, order-insensitive hash, and the exact line
/// sequence — must be bit-identical across `jobs` (run-level fan-out),
/// `shards` (intra-run threads), and every partition strategy. This is
/// the property that makes a journal diff meaningful: any divergence is
/// a real behavioural difference, never execution-strategy noise.
#[test]
fn journal_is_bit_identical_across_jobs_shards_and_partitions() {
    for table in [6usize, 9] {
        let base = RunOptions {
            dynamic_cycles: 60,
            ..RunOptions::default()
        };
        let fingerprint = |o: RunOptions, jobs: usize| {
            let recorded = run_rows_recorded(spec(table), &[5], o, jobs, journal_config()).unwrap();
            let j = recorded[0].sinks.journal.as_ref().expect("journal sink");
            (j.count(), j.hash(), j.lines())
        };
        let reference = fingerprint(base, 1);
        assert!(reference.0 > 0, "table {table} journal must see events");
        for jobs in [1usize, 4] {
            for shards in [2usize, 3] {
                for strategy in [
                    PartitionStrategy::Auto,
                    PartitionStrategy::Contiguous,
                    PartitionStrategy::HammingPrefix,
                    PartitionStrategy::Bisection,
                    PartitionStrategy::BfsGrowth,
                ] {
                    let o = RunOptions {
                        shards,
                        partition: strategy,
                        ..base
                    };
                    assert_eq!(
                        fingerprint(o, jobs),
                        reference,
                        "table {table} journal diverged at jobs={jobs} shards={shards} {strategy:?}"
                    );
                }
            }
        }
    }
}

/// A run split by `--checkpoint-at` + `--resume-from` must reproduce an
/// uninterrupted run bit for bit — measured rows and journal — on the
/// sequential engine, on sharded engines under different partition
/// strategies, and across engines: snapshots are engine-agnostic, so a
/// checkpoint written at one shard count resumes at another. Exercised
/// through the same [`RunOptions`] path the binaries use.
#[test]
fn checkpoint_resume_split_is_bit_identical_to_straight_run() {
    for (tag, shards, resume_shards, partition) in [
        ("seq", 1usize, 1usize, PartitionStrategy::Auto),
        ("sh2", 2, 2, PartitionStrategy::HammingPrefix),
        ("sh3", 3, 3, PartitionStrategy::BfsGrowth),
        ("sh2_to_seq", 2, 1, PartitionStrategy::HammingPrefix),
        ("seq_to_sh2", 1, 2, PartitionStrategy::Auto),
    ] {
        for table in [6usize, 9] {
            let base = RunOptions {
                dynamic_cycles: 60,
                shards,
                partition,
                ..RunOptions::default()
            };
            let straight = run_rows_recorded(spec(table), &[5], base, 1, journal_config()).unwrap();

            let dir_tag = format!("split_{tag}_t{table}");
            let ckpt = RunOptions {
                snapshot: Some(temp_policy(&dir_tag, Some(5), false)),
                ..base
            };
            let checkpointed =
                run_rows_recorded(spec(table), &[5], ckpt, 1, journal_config()).unwrap();
            let snap_path = ckpt.snapshot.unwrap().path(&format!("t{table}_n5_q5_r0"));
            assert!(
                snap_path.exists(),
                "{} must exist after the checkpoint leg",
                snap_path.display()
            );

            let resume = RunOptions {
                snapshot: Some(temp_policy(&dir_tag, None, true)),
                shards: resume_shards,
                ..base
            };
            let resumed =
                run_rows_recorded(spec(table), &[5], resume, 1, journal_config()).unwrap();

            for (name, other) in [("checkpoint", &checkpointed), ("resume", &resumed)] {
                let a = &straight[0].row;
                let b = &other[0].row;
                assert_eq!(
                    (
                        a.l_avg.to_bits(),
                        a.l_max,
                        a.injection_rate.map(f64::to_bits)
                    ),
                    (
                        b.l_avg.to_bits(),
                        b.l_max,
                        b.injection_rate.map(f64::to_bits)
                    ),
                    "table {table} {tag}: {name} leg row differs"
                );
            }
            // The in-process checkpoint leg (pause → write → continue)
            // must not perturb the journal at all.
            let js = straight[0].sinks.journal.as_ref().unwrap();
            let jc = checkpointed[0].sinks.journal.as_ref().unwrap();
            assert_eq!(
                (js.count(), js.hash(), js.lines()),
                (jc.count(), jc.hash(), jc.lines()),
                "table {table} {tag}: checkpoint leg journal differs"
            );
            // The resumed journal is floored at the checkpoint cycle:
            // its events must equal the straight journal's tail.
            let jr = resumed[0].sinks.journal.as_ref().unwrap();
            let tail = journal_window(&js.lines(), 5, None);
            assert_eq!(
                jr.lines(),
                tail,
                "table {table} {tag}: resumed journal is not the straight journal's tail"
            );
        }
    }
}

/// Restoring a snapshot through [`replay`] and re-executing to
/// completion must regenerate the reference run's journal over the
/// replayed window — and a deliberately corrupted reference must be
/// localized to its first divergent event.
#[test]
fn replay_reproduces_the_reference_journal() {
    let sp = temp_policy("replay", Some(5), false);
    let opts = RunOptions {
        snapshot: Some(sp),
        ..RunOptions::default()
    };
    let recorded = run_rows_recorded(spec(6), &[5], opts, 1, journal_config()).unwrap();
    let reference = recorded[0].sinks.journal.as_ref().unwrap().lines();

    let text = std::fs::read_to_string(sp.path("t6_n5_q5_r0")).unwrap();
    let out = replay(&text, &ReplayOptions::default()).expect("replay");
    assert_eq!(out.start_cycle, 5);
    assert_eq!(out.meta.table, 6);
    assert_eq!(out.meta.n, 5);

    let got = out.journal.lines();
    assert!(!got.is_empty(), "replay journal must see events");
    let want = journal_window(&reference, out.start_cycle, Some(out.end_cycle));
    assert_eq!(
        first_divergence(&got, &want),
        None,
        "replayed journal diverged from the reference"
    );

    // Corrupt one reference event: the diff must localize exactly it.
    let mut bad = want.clone();
    let victim = bad.len() / 2;
    bad[victim] = bad[victim].replace("pkt=", "pkt=9");
    let (at, left, right) = first_divergence(&got, &bad).expect("must diverge");
    assert_eq!(at, victim);
    assert_eq!(left.as_deref(), Some(want[victim].as_str()));
    assert_eq!(right.as_deref(), Some(bad[victim].as_str()));
}

/// Replaying a checkpoint of a wedged (capacity 0) run under a watchdog
/// must re-trigger the abort and classify it as a deadlock — the
/// end-to-end "wedge replay" loop the README documents.
#[test]
fn wedge_checkpoint_replays_to_a_deadlock_verdict() {
    let sp = temp_policy("wedge", Some(40), false);
    let opts = RunOptions {
        queue_capacity: 0,
        snapshot: Some(sp),
        ..RunOptions::default()
    };
    let rc = RecordConfig {
        watchdog: Some(200),
        ..RecordConfig::default()
    };
    let recorded = run_rows_recorded(spec(2), &[4], opts, 1, rc).unwrap();
    assert!(
        recorded[0].sinks.stall().is_some(),
        "original run must stall"
    );

    let text = std::fs::read_to_string(sp.path("t2_n4_q0_r0")).unwrap();
    let ro = ReplayOptions {
        watchdog: Some(100),
        waitgraph: true,
        ..ReplayOptions::default()
    };
    let out = replay(&text, &ro).expect("replay");
    assert_eq!(out.start_cycle, 40);
    assert_eq!(out.outcome, "aborted (watchdog stall)");
    let stall = out.stall.expect("watchdog must fire on replay");
    assert_eq!(stall.verdict(), "deadlock");
    assert!(stall.to_dot().starts_with("digraph waits {"));
    assert!(out.waitgraph.is_some());
}

/// The `fadr-metrics/1` document must carry the latency percentiles and
/// the wait-for-graph summary when those sinks run (and plain runs keep
/// emitting `null` slots — covered by the obs unit tests).
#[test]
fn metrics_json_carries_latency_percentiles_and_waitgraph() {
    let rc = RecordConfig {
        counters: true,
        latency: true,
        waitgraph: true,
        ..RecordConfig::default()
    };
    let recorded = run_rows_recorded(spec(6), &[5], RunOptions::default(), 1, rc).unwrap();
    let lat = recorded[0].sinks.latency.as_ref().expect("latency sink");
    let json = lat.to_json();
    assert!(json.contains("\"p50\":") && json.contains("\"p95\":") && json.contains("\"p99\":"));

    let rows: Vec<MetricsRow> = recorded
        .iter()
        .map(|r| MetricsRow::from_recorded(6, r))
        .collect();
    let doc = metrics_json("FullyAdaptive", &rows);
    for key in [
        "\"latency\": {\"classes\": [",
        "\"p95\":",
        "\"max\":",
        "\"waitgraph\": {",
        "\"max_chain_depth\":",
        "\"cycle_candidate_cycles\":",
    ] {
        assert!(doc.contains(key), "missing {key} in {doc}");
    }
}

/// Runs that drain before the checkpoint cycle write no snapshot, and
/// the resume leg transparently reruns them from cycle 0 — the
/// mixed-horizon case a multi-table resume hits in practice.
#[test]
fn resume_reruns_rows_that_finished_before_the_checkpoint() {
    let base = RunOptions::default();
    let straight = run_rows(spec(1), &[5], base, 1).unwrap();
    let ckpt = RunOptions {
        // Table 1 (one packet per node) drains n=5 long before cycle
        // 10_000, so the pause never fires and no snapshot appears.
        snapshot: Some(temp_policy("norun", Some(10_000), false)),
        ..base
    };
    let checkpointed = run_rows(spec(1), &[5], ckpt, 1).unwrap();
    assert!(!ckpt.snapshot.unwrap().path("t1_n5_q5_r0").exists());
    let resume = RunOptions {
        snapshot: Some(temp_policy("norun", None, true)),
        ..base
    };
    let resumed = run_rows(spec(1), &[5], resume, 1).unwrap();
    for other in [&checkpointed, &resumed] {
        assert_eq!(straight[0].l_avg.to_bits(), other[0].l_avg.to_bits());
        assert_eq!(straight[0].l_max, other[0].l_max);
    }
}
