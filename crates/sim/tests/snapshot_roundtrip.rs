//! Checkpoint/restore round-trip suite: a run paused at cycle `P`,
//! serialized, restored into a fresh engine, and resumed must be
//! **bit-identical** to the same run executed uninterrupted — same
//! result struct. This must
//! hold for the sequential and the sharded engine, across partition
//! strategies, across the engine boundary in both directions (either
//! engine restores the other's snapshot), and under an active fault
//! plan whose events straddle the pause point.

use fadr_core::{HypercubeFullyAdaptive, MeshFullyAdaptive};
use fadr_metrics::JournalSink;
use fadr_sim::{
    DynamicOutcome, FaultKind, FaultPlan, PartitionStrategy, RunProgress, ShardedSimulator,
    SimConfig, Simulator, SinkSet, StaticOutcome, StopReason,
};
use fadr_workloads::{static_backlog, Pattern};
use rand::rngs::StdRng;
use rand::SeedableRng;

const STRATEGIES: [PartitionStrategy; 5] = [
    PartitionStrategy::Auto,
    PartitionStrategy::Contiguous,
    PartitionStrategy::HammingPrefix,
    PartitionStrategy::Bisection,
    PartitionStrategy::BfsGrowth,
];

fn backlog_for(size: usize) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(0xC4E);
    static_backlog(&Pattern::Random, size, 2, &mut rng)
}

fn expect_paused(outcome: StaticOutcome, what: &str) -> RunProgress {
    match outcome {
        StaticOutcome::Paused(p) => p,
        StaticOutcome::Finished(res) => panic!("{what}: finished before the pause ({res:?})"),
    }
}

fn expect_paused_dyn(outcome: DynamicOutcome, what: &str) -> RunProgress {
    match outcome {
        DynamicOutcome::Paused(p) => p,
        DynamicOutcome::Finished(res) => panic!("{what}: finished before the pause ({res:?})"),
    }
}

/// Sequential static run: pause, checkpoint, restore into a fresh
/// engine, resume; everything observable must match the uninterrupted
/// run. Also asserts the restored engine re-serializes the snapshot
/// byte-for-byte (`checkpoint ∘ restore = id`).
#[test]
fn sequential_static_roundtrip() {
    let rf = HypercubeFullyAdaptive::new(4);
    let cfg = SimConfig::default();
    let backlog = backlog_for(16);

    let base_res = Simulator::new(rf, cfg).run_static(&backlog);
    assert_eq!(base_res.stop, StopReason::Drained, "seed run broken");

    let mut paused = Simulator::new(rf, cfg);
    let progress = expect_paused(paused.run_static_until(&backlog, Some(6)), "static@6");
    let text = paused.checkpoint("static-roundtrip", &progress);

    let mut resumed = Simulator::new(rf, cfg);
    let (meta, progress2) = resumed.restore(&text).expect("restore failed");
    assert_eq!(meta, "static-roundtrip");
    assert_eq!(progress2, progress);
    assert_eq!(
        resumed.checkpoint("static-roundtrip", &progress2),
        text,
        "re-serializing a restored engine changed the snapshot"
    );
    let StaticOutcome::Finished(res) = resumed.resume_static(&backlog, progress2, None) else {
        panic!("resume hit an unexpected pause");
    };
    assert_eq!(res, base_res, "resumed run diverged");
}

/// Chained pauses: pause at 4, resume to a second pause at 11, resume
/// to completion — still identical to the uninterrupted run.
#[test]
fn sequential_static_double_pause() {
    let rf = MeshFullyAdaptive::new(4, 4);
    let cfg = SimConfig::default();
    let backlog = backlog_for(16);

    let base_res = Simulator::new(rf, cfg).run_static(&backlog);

    let mut sim = Simulator::new(rf, cfg);
    let p1 = expect_paused(sim.run_static_until(&backlog, Some(4)), "static@4");
    let text1 = sim.checkpoint("hop1", &p1);

    let mut sim = Simulator::new(rf, cfg);
    let (_, p1) = sim.restore(&text1).expect("restore hop1");
    let p2 = expect_paused(sim.resume_static(&backlog, p1, Some(9)), "static@9");
    let text2 = sim.checkpoint("hop2", &p2);

    let mut sim = Simulator::new(rf, cfg);
    let (_, p2) = sim.restore(&text2).expect("restore hop2");
    let StaticOutcome::Finished(res) = sim.resume_static(&backlog, p2, None) else {
        panic!("final leg paused");
    };
    assert_eq!(res, base_res, "double-pause run diverged");
}

/// Sequential dynamic run: the RNG streams are fast-forwarded on
/// resume rather than serialized; the resumed run must still be
/// bit-identical to the uninterrupted one.
#[test]
fn sequential_dynamic_roundtrip() {
    let rf = HypercubeFullyAdaptive::new(4);
    let cfg = SimConfig::default();
    let (lambda, cycles) = (0.7, 120);
    let dest = |s: usize, rng: &mut StdRng| Pattern::Random.draw(s, 16, rng);

    let base_res = Simulator::new(rf, cfg).run_dynamic(lambda, dest, cycles);
    assert!(base_res.delivered > 0, "seed run delivered nothing");

    let mut paused = Simulator::new(rf, cfg);
    let progress = expect_paused_dyn(
        paused.run_dynamic_until(lambda, dest, cycles, Some(60)),
        "dynamic@60",
    );
    let text = paused.checkpoint("dyn-roundtrip", &progress);

    let mut resumed = Simulator::new(rf, cfg);
    let (_, progress) = resumed.restore(&text).expect("restore failed");
    let DynamicOutcome::Finished(res) =
        resumed.resume_dynamic(lambda, dest, cycles, progress, None)
    else {
        panic!("resume hit an unexpected pause");
    };
    assert_eq!(res, base_res, "resumed dynamic run diverged");
}

/// The sharded engine's checkpoint must be byte-identical to the
/// sequential engine's at the same pause cycle — under every partition
/// strategy and an uneven shard count — and each engine must be able to
/// restore and resume the other's snapshot to the same final result.
#[test]
fn sharded_static_checkpoint_identity_and_cross_restore() {
    let rf = HypercubeFullyAdaptive::new(4);
    let cfg = SimConfig::default();
    let backlog = backlog_for(16);

    let base_res = Simulator::new(rf, cfg).run_static(&backlog);

    let mut seq = Simulator::new(rf, cfg);
    let progress = expect_paused(seq.run_static_until(&backlog, Some(4)), "seq static@4");
    let seq_text = seq.checkpoint("xengine", &progress);

    for strategy in STRATEGIES {
        for shards in [2, 3] {
            let label = format!("{} shards={shards}", strategy.name());

            // Sharded pause must reach the same state (same bytes).
            let mut shr = ShardedSimulator::with_strategy(rf, cfg, shards, strategy);
            let sp = expect_paused(shr.run_static_until(&backlog, Some(4)), &label);
            assert_eq!(sp, progress, "{label}: pause progress diverged");
            assert_eq!(
                shr.checkpoint("xengine", &sp),
                seq_text,
                "{label}: sharded checkpoint is not byte-identical"
            );

            // Sequential snapshot → sharded resume.
            let mut shr = ShardedSimulator::with_strategy(rf, cfg, shards, strategy);
            let (_, p) = shr.restore(&seq_text).expect("sharded restore failed");
            let StaticOutcome::Finished(res) = shr.resume_static(&backlog, p, None) else {
                panic!("{label}: sharded resume paused");
            };
            assert_eq!(res, base_res, "{label}: sharded resumed run diverged");

            // Sharded snapshot → sequential resume.
            let mut shr = ShardedSimulator::with_strategy(rf, cfg, shards, strategy);
            let sp = expect_paused(shr.run_static_until(&backlog, Some(4)), &label);
            let shr_text = shr.checkpoint("xengine", &sp);
            let mut seq2 = Simulator::new(rf, cfg);
            let (_, p) = seq2.restore(&shr_text).expect("sequential restore failed");
            let StaticOutcome::Finished(res) = seq2.resume_static(&backlog, p, None) else {
                panic!("{label}: sequential resume paused");
            };
            assert_eq!(res, base_res, "{label}: sequential resumed run diverged");
        }
    }
}

/// Sharded dynamic round-trip: pause, checkpoint, restore into a fresh
/// sharded engine (different shard count), resume.
#[test]
fn sharded_dynamic_roundtrip() {
    let rf = HypercubeFullyAdaptive::new(4);
    let cfg = SimConfig::default();
    let (lambda, cycles) = (0.7, 120);
    let dest = |s: usize, rng: &mut StdRng| Pattern::Random.draw(s, 16, rng);

    let base_res = Simulator::new(rf, cfg).run_dynamic(lambda, dest, cycles);

    let mut shr = ShardedSimulator::new(rf, cfg, 3);
    let progress = expect_paused_dyn(
        shr.run_dynamic_until(lambda, dest, cycles, Some(60)),
        "sharded dynamic@60",
    );
    let text = shr.checkpoint("dyn-sharded", &progress);

    // Resume on a *different* shard count: the snapshot is
    // partition-agnostic.
    let mut shr2 = ShardedSimulator::new(rf, cfg, 2);
    let (_, progress) = shr2.restore(&text).expect("restore failed");
    let DynamicOutcome::Finished(res) = shr2.resume_dynamic(lambda, dest, cycles, progress, None)
    else {
        panic!("resume hit an unexpected pause");
    };
    assert_eq!(res, base_res, "sharded dynamic resumed run diverged");
}

/// Round-trip under a fault plan whose events straddle the pause: a
/// permanent link-down and a queue freeze before it, a flaky window
/// active across it, and a node death after it. The restore replays
/// pre-pause events as flag state only (the packet placement already
/// reflects their surgery); post-pause events fire normally. The second
/// plan adds another link-down before the pause, so the restore on 1, 2
/// and 3 shards replays two surviving-distance epochs.
#[test]
fn faulted_static_roundtrip() {
    let rf = HypercubeFullyAdaptive::new(4);
    let cfg = SimConfig::default();
    let backlog = backlog_for(16);
    let mut plan = FaultPlan::new(7, 2);
    plan.push(2, FaultKind::LinkDown { from: 1, to: 0 });
    plan.push(
        3,
        FaultKind::QueueFreeze {
            node: 2,
            class: 0,
            duration: 10,
        },
    );
    plan.push(
        4,
        FaultKind::FlakyLink {
            from: 3,
            to: 7,
            until: 30,
            threshold: 60,
        },
    );
    plan.push(14, FaultKind::NodeDown { node: 9 });
    let mut two_links = plan.clone();
    two_links.push(6, FaultKind::LinkDown { from: 5, to: 4 });
    two_links.normalize();

    for (k, plan) in [plan, two_links].into_iter().enumerate() {
        let base_res = Simulator::new(rf, cfg)
            .with_faults(plan.clone())
            .run_static(&backlog);

        let mut paused = Simulator::new(rf, cfg).with_faults(plan.clone());
        let progress = expect_paused(paused.run_static_until(&backlog, Some(8)), "faulted@8");
        let text = paused.checkpoint("faulted", &progress);

        // Sequential restore + resume.
        let mut resumed = Simulator::new(rf, cfg).with_faults(plan.clone());
        let (_, p) = resumed.restore(&text).expect("restore failed");
        let StaticOutcome::Finished(res) = resumed.resume_static(&backlog, p, None) else {
            panic!("resume paused");
        };
        assert_eq!(res, base_res, "plan {k}: faulted resumed run diverged");

        // Sharded restore + resume of the same snapshot.
        for shards in [1, 2, 3] {
            let mut shr = ShardedSimulator::new(rf, cfg, shards).with_faults(plan.clone());
            let (_, p) = shr.restore(&text).expect("sharded restore failed");
            let StaticOutcome::Finished(res) = shr.resume_static(&backlog, p, None) else {
                panic!("sharded resume paused");
            };
            assert_eq!(
                res, base_res,
                "plan {k}, shards={shards}: faulted resumed run diverged"
            );
        }
    }
}

/// Malformed or mismatched snapshots must be rejected with an error,
/// not garbage state or a panic.
#[test]
fn bad_snapshots_rejected() {
    let rf = HypercubeFullyAdaptive::new(4);
    let cfg = SimConfig::default();
    let backlog = backlog_for(16);

    let mut sim = Simulator::new(rf, cfg);
    let progress = expect_paused(sim.run_static_until(&backlog, Some(6)), "static@6");
    let text = sim.checkpoint("bad", &progress);

    // Truncated document.
    let cut = &text[..text.len() / 2];
    assert!(Simulator::new(rf, cfg).restore(cut).is_err());

    // Wrong magic.
    assert!(Simulator::new(rf, cfg)
        .restore(&text.replacen("fadr-snapshot/3", "fadr-snapshot/9", 1))
        .is_err());

    // Config mismatch (different seed).
    let other = SimConfig {
        seed: 999,
        ..SimConfig::default()
    };
    assert!(Simulator::new(rf, other).restore(&text).is_err());

    // Shape mismatch (different topology).
    let small = HypercubeFullyAdaptive::new(3);
    assert!(Simulator::new(small, cfg).restore(&text).is_err());

    // Sharded engine applies the same validation.
    assert!(ShardedSimulator::new(rf, cfg, 2).restore(cut).is_err());

    // Validate-then-commit: each corruption of a valid checkpoint is
    // rejected by a paused engine carrying a journal, and leaves its
    // checkpoint text and journal exactly as they were.
    let mut plan = FaultPlan::new(7, 2);
    plan.push(
        2,
        FaultKind::FlakyLink {
            from: 3,
            to: 7,
            until: 30,
            threshold: 60,
        },
    );
    let dest = |s: usize, rng: &mut StdRng| Pattern::Random.draw(s, 16, rng);
    let journal = || JournalSink::new(1 << 14);
    let mut seq = Simulator::with_recorder(rf, cfg, journal()).with_faults(plan.clone());
    let progress = expect_paused_dyn(seq.run_dynamic_until(1.0, dest, 40, Some(12)), "dyn@12");
    let text = seq.checkpoint("bad", &progress);
    // The journal's debug rendering covers its whole state: retained
    // and staged events, hash, count and resume floor.
    let before = format!("{:?}", seq.recorder());
    // The predecessor format is refused by name.
    let old = text.replacen("fadr-snapshot/3", "fadr-snapshot/2", 1);
    let err = seq.restore(&old).expect_err("a fadr-snapshot/2 document");
    assert!(err.contains("\"fadr-snapshot/2\""), "{err}");
    for (what, bad) in corruptions(&text) {
        assert!(
            seq.restore(&bad).is_err(),
            "sequential engine accepted {what}"
        );
        assert_eq!(
            seq.checkpoint("bad", &progress),
            text,
            "{what} changed the engine"
        );
        assert_eq!(
            format!("{:?}", seq.recorder()),
            before,
            "{what} touched the journal"
        );
    }

    let sinks = |_| SinkSet::new().with_journal(1 << 14);
    let paused_sharded = || {
        let mut shr = ShardedSimulator::with_recorders(rf, cfg, 2, sinks).with_faults(plan.clone());
        let p = expect_paused_dyn(shr.run_dynamic_until(1.0, dest, 40, Some(12)), "shr@12");
        (shr, p)
    };
    let (mut shr, p) = paused_sharded();
    assert_eq!(p, progress);
    assert_eq!(shr.checkpoint("bad", &p), text);
    for (what, bad) in corruptions(&text) {
        assert!(shr.restore(&bad).is_err(), "sharded engine accepted {what}");
        assert_eq!(
            shr.checkpoint("bad", &p),
            text,
            "{what} changed the sharded engine"
        );
    }
    // Finish both runs: a rejected restore that had touched a shard or
    // its recorder would show in the result or the merged journal.
    let (mut untouched, _) = paused_sharded();
    let finish =
        |s: &mut ShardedSimulator<_, SinkSet>| s.resume_dynamic(1.0, dest, 40, p.clone(), None);
    assert_eq!(finish(&mut shr), finish(&mut untouched));
    let journal_of = |s: ShardedSimulator<_, SinkSet>| format!("{:?}", s.into_recorder().journal);
    assert_eq!(
        journal_of(shr),
        journal_of(untouched),
        "a rejected restore touched a journal"
    );
}

/// Corruptions of a valid checkpoint that restore must reject: a
/// `fadr-snapshot/2` schema tag, a queue class out of range, two packets
/// in one output buffer, a fail counter for an unknown channel, a move
/// stamped at the snapshot cycle, a message routed to a node other than
/// the packet's destination, a queued packet at its destination, static
/// progress whose cursor vector does not cover the network, and two
/// numbers the JSON reader's rule rejects though they parse to the
/// values they replace.
fn corruptions(text: &str) -> Vec<(&'static str, String)> {
    // A packet is [loc, at, src, dst, uid, hops, inject, enqueued, moved,
    // class, next_class, escape, msg words…]; loc 0 is a central queue,
    // 2 an output buffer.
    let (head, rest) = text
        .split_once("\"packets\": [[")
        .expect("checkpoint has packets");
    let (body, tail) = rest.split_once("]], \"chan_rr\"").expect("packets end");
    let packets: Vec<Vec<String>> = body
        .split("], [")
        .map(|p| p.split(", ").map(str::to_string).collect())
        .collect();
    let with = |ps: &[Vec<String>]| {
        let ps: Vec<String> = ps.iter().map(|p| p.join(", ")).collect();
        format!(
            "{head}\"packets\": [[{}]], \"chan_rr\"{tail}",
            ps.join("], [")
        )
    };
    assert_eq!(with(&packets), text, "packet split must be lossless");
    let first = |code: &str| {
        packets
            .iter()
            .position(|p| p[0] == code)
            .unwrap_or_else(|| panic!("checkpoint has no packet at location {code}"))
    };
    let edit = |field: usize, value: String| {
        let mut ps = packets.clone();
        ps[first("0")][field] = value;
        with(&ps)
    };
    let number_after = |key: &str| {
        let at = text.find(key).expect(key) + key.len();
        text[at..]
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .expect(key)
    };
    let class = edit(9, "99".into());
    let future = edit(8, number_after("\"cycle\": ").into());
    let signed = edit(5, format!("+{}", packets[first("0")][5]));

    // The first queued packet's message word names its own node, with
    // its `dst` unchanged and then moved there too.
    let mut here = packets.clone();
    let queued = &mut here[first("0")];
    queued[12] = queued[1].clone();
    let misrouted = with(&here);
    let queued = &mut here[first("0")];
    queued[3] = queued[1].clone();
    let arrived = with(&here);

    let mut dup = packets.clone();
    dup.insert(first("2"), dup[first("2")].clone());
    let shared_buffer = with(&dup);

    let start = text.find("\"fail\": ").expect("fail counters") + "\"fail\": ".len();
    let end = start + text[start..].find(", \"stats\"").expect("stats");
    let fail = format!("{}[[999999, 1]]{}", &text[..start], &text[end..]);

    let padded = text.replacen("\"cycle\": ", "\"cycle\": 0", 1);

    // Static progress with one backlog cursor for the whole network.
    let (before, after) = text.split_once("\"progress\": {").expect("progress");
    let after = &after[after.find('}').expect("progress ends")..];
    let cursors = format!(
        "{before}\"progress\": {{\"kind\": \"static\", \"lost\": 0, \"next_idx\": [0]{after}"
    );

    let old_schema = text.replacen("fadr-snapshot/3", "fadr-snapshot/2", 1);

    vec![
        ("a fadr-snapshot/2 schema tag", old_schema),
        ("a class out of range", class),
        ("two packets in one output buffer", shared_buffer),
        ("a fail counter for an unknown channel", fail),
        ("a move at the snapshot cycle", future),
        ("a message routed to another node", misrouted),
        ("a queued packet at its destination", arrived),
        ("a static cursor vector of the wrong length", cursors),
        ("a signed hop count", signed),
        ("a zero-padded cycle", padded),
    ]
}
