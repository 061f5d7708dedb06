//! Every workload at a small size, built through the library API: its
//! outputs pass every check, and the lane, sharded and resumed engines
//! agree with the sequential `Simulator` on every output.

use fadr_benchmark::golden::{Checks, Golden};
use fadr_benchmark::trace::Tracer;
use fadr_benchmark::workloads::{Certify, Lanes, Resume, Tables, Workload};
use fadr_benchmark::{exit_status, measure, Budget};

const SEED: u64 = 0x5EED;

fn small() -> Vec<Workload> {
    vec![
        Workload::PaperTables(Tables {
            runs: vec![(1, 4), (2, 5), (6, 4), (9, 4), (12, 5)],
            cycles: 60,
        }),
        Workload::LaneReplicas(Lanes {
            groups: vec![(4, 3), (5, 2)],
            cycles: 60,
        }),
        Workload::FaultedResume(Resume {
            n: 6,
            shards: 2,
            cycles: 80,
            pause_at: 40,
        }),
        Workload::CertifyLint(Certify {
            cube: 4,
            grid: 4,
            se: 5,
            lint_se: 4,
        }),
    ]
}

#[test]
fn small_workloads_pass_every_check_against_a_sequential_reference() {
    for w in small() {
        let m = measure(&w, SEED, None, Budget::Passes(2));
        assert_eq!(m.wall_s.len(), 2, "{}", w.name());
        assert!(m.checks.attempted > 0, "{}", w.name());
        assert_eq!(
            m.checks.fail_frac(),
            0.0,
            "{}: {:?}",
            w.name(),
            m.checks.failures
        );
        assert_eq!(exit_status(&m.checks), 0);
        assert_eq!(m.delivered_per_s.is_empty(), !w.simulates());

        // Every output of a pass equals the same input run on the
        // sequential engine (certification reruns itself).
        let p = w.prepare(SEED);
        let out = p.pass(&mut Tracer::new(false));
        let reference = p.reference(true);
        assert_eq!(reference.len(), out.outs.len(), "{}", w.name());
        let mut c = Checks::default();
        c.against(&out.outs, &reference);
        assert_eq!(c.failed, 0, "{}: {:?}", w.name(), c.failures);
    }
}

#[test]
fn inputs_depend_only_on_the_seed() {
    for w in small() {
        let a = w.prepare(SEED).reference(true);
        let b = w.prepare(SEED).reference(true);
        assert_eq!(a, b, "{}", w.name());
    }
    let w = &small()[0];
    assert_ne!(
        w.prepare(SEED).reference(true),
        w.prepare(SEED + 1).reference(true)
    );
}

#[test]
fn a_tampered_golden_digest_fails_the_run() {
    let w = &small()[1];
    let mut golden = Golden {
        seed: SEED,
        ..Golden::default()
    };
    for o in w.prepare(SEED).reference(true) {
        golden.digests.insert(o.label.clone(), o.res.digest());
    }
    let clean = measure(w, SEED, Some(&golden), Budget::Passes(1));
    assert_eq!(clean.checks.failed, 0, "{:?}", clean.checks.failures);
    assert_eq!(exit_status(&clean.checks), 0);

    let first = golden
        .digests
        .keys()
        .next()
        .cloned()
        .expect("lanes give outputs");
    *golden.digests.get_mut(&first).expect("present") ^= 1;
    let tampered = measure(w, SEED, Some(&golden), Budget::Passes(1));
    assert!(tampered.checks.fail_frac() > 0.0);
    assert!(tampered.checks.failures.iter().any(|f| f.contains(&first)));
    assert_ne!(exit_status(&tampered.checks), 0);
}
