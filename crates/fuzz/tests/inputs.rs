//! Byte mutations of every committed input document: the fault plans
//! in `examples/faults/` and the fuzz regression corpus. For every byte
//! the test tries a deletion and a replacement by each of `, : " } ] 0 x`.
//! Parsing must never panic, anything accepted must render back to the
//! same value, and deleting a `,` or `:` outside a string must be an
//! error. Checkpoints of faulted runs are mutated too, and restoring a
//! mutant into a fresh engine must never panic.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use fadr_core::{
    EcubeSbp, HypercubeFullyAdaptive, HypercubeStaticHang, MeshFullyAdaptive, MeshXY,
    ShuffleExchangeRouting, TorusTwoPhase,
};
use fadr_fuzz::CaseSpec;
use fadr_qdg::RoutingFunction;
use fadr_sim::{DynamicOutcome, FaultKind, FaultPlan, SimConfig, Simulator, SnapshotMsg};
use fadr_workloads::Pattern;

const REPLACEMENTS: &[u8] = b",:\"}]0x";

/// The trimmed `*.json` documents in `dir` (relative to this crate).
fn documents(dir: &str) -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut docs: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("readable input");
            (p.display().to_string(), text.trim().to_string())
        })
        .collect();
    docs.sort();
    docs
}

fn mutate_all<T: PartialEq + Debug>(
    docs: &[(String, String)],
    parse: fn(&str) -> Result<T, String>,
    render: fn(&T) -> String,
) -> usize {
    let mut tried = 0;
    for (name, text) in docs {
        assert!(parse(text).is_ok(), "{name} must parse as committed");
        assert!(text.is_ascii(), "{name}: mutations assume ASCII");
        let bytes = text.as_bytes();
        let mut in_string = false;
        for (i, &b) in bytes.iter().enumerate() {
            let outside = !in_string;
            if b == b'"' {
                in_string = !in_string;
            }
            let deleted = [&bytes[..i], &bytes[i + 1..]].concat();
            let replaced = REPLACEMENTS.iter().filter(|&&r| r != b).map(|&r| {
                let mut v = bytes.to_vec();
                v[i] = r;
                v
            });
            for input in std::iter::once(deleted.clone()).chain(replaced) {
                let input = String::from_utf8(input).expect("ASCII stays UTF-8");
                let parsed = catch_unwind(|| parse(&input))
                    .unwrap_or_else(|_| panic!("{name}: parse panicked on {input:?}"));
                if let Ok(v) = parsed {
                    let again = render(&v);
                    assert_eq!(
                        parse(&again),
                        Ok(v),
                        "{name}: {input:?} renders as {again:?}"
                    );
                }
                tried += 1;
            }
            if outside && (b == b',' || b == b':') {
                let input = String::from_utf8(deleted).expect("ASCII stays UTF-8");
                assert!(
                    parse(&input).is_err(),
                    "{name}: deleting byte {i} ({:?}) still parses: {input:?}",
                    char::from(b)
                );
            }
        }
    }
    tried
}

#[test]
fn mutated_fault_plans_never_panic_and_round_trip() {
    let docs = documents("../../examples/faults");
    assert!(docs.len() >= 4, "the example plans are missing");
    let tried = mutate_all(&docs, FaultPlan::parse, FaultPlan::to_json);
    assert!(tried > 1000, "only {tried} mutations");
}

#[test]
fn mutated_corpus_cases_never_panic_and_round_trip() {
    let docs = documents("regressions");
    assert!(docs.len() >= 6, "the regression cases are missing");
    let tried = mutate_all(&docs, CaseSpec::parse, CaseSpec::to_json);
    assert!(tried > 1000, "only {tried} mutations");
}

/// Replacements tried at each byte of a checkpoint: digits that keep a
/// number well-formed but change it, a sign, a letter and a space.
const SNAPSHOT_REPLACEMENTS: &[u8] = b"0159+x ";

/// Pause `rf` at cycle 20 of a dynamic run under a plan with one
/// `link_down` and one `flaky_link`, and restore mutants of its
/// checkpoint into fresh engines with the same plan. With `whole`, each
/// byte is deleted or replaced by each of [`SNAPSHOT_REPLACEMENTS`];
/// otherwise only the bytes of the packet records are replaced, by `1`
/// and by `9`, which changes routing states and keeps the document
/// well-formed. Returns the number of mutants and the ones whose
/// restore panicked.
fn mutate_checkpoint<R>(
    rf: R,
    dead: (u32, u32),
    flaky: (u32, u32),
    whole: bool,
) -> (usize, Vec<String>)
where
    R: RoutingFunction + Clone,
    R::Msg: SnapshotMsg,
{
    let n = rf.topology().num_nodes();
    let cfg = SimConfig {
        seed: 0x5eed,
        ..SimConfig::default()
    };
    let mut plan = FaultPlan::new(7, 2);
    plan.push(
        4,
        FaultKind::LinkDown {
            from: dead.0,
            to: dead.1,
        },
    );
    plan.push(
        2,
        FaultKind::FlakyLink {
            from: flaky.0,
            to: flaky.1,
            until: 40,
            threshold: 50,
        },
    );
    let engine = || Simulator::new(rf.clone(), cfg).with_faults(plan.clone());
    let mut sim = engine();
    let dest = |s, rng: &mut _| Pattern::Random.draw(s, n, rng);
    let DynamicOutcome::Paused(progress) = sim.run_dynamic_until(1.0, dest, 60, Some(20)) else {
        panic!("{}: the run ended before its pause", rf.name());
    };
    let text = sim.checkpoint("mutants", &progress);
    assert!(
        engine().restore(&text).is_ok(),
        "the checkpoint must restore"
    );
    let bytes = text.as_bytes();
    let (span, replacements) = if whole {
        (0..bytes.len(), SNAPSHOT_REPLACEMENTS)
    } else {
        let packets = text.find("\"packets\"").expect("a packets key");
        (
            packets..text.find("\"chan_rr\"").expect("a chan_rr key"),
            &b"19"[..],
        )
    };
    let mut tried = 0;
    let mut panicked = Vec::new();
    for i in span {
        let deleted = whole.then(|| [&bytes[..i], &bytes[i + 1..]].concat());
        let replaced = replacements.iter().filter(|&&r| r != bytes[i]).map(|&r| {
            let mut v = bytes.to_vec();
            v[i] = r;
            v
        });
        for (k, input) in deleted.into_iter().chain(replaced).enumerate() {
            let input = String::from_utf8(input).expect("checkpoints are ASCII");
            if catch_unwind(AssertUnwindSafe(|| engine().restore(&input))).is_err() {
                panicked.push(format!("byte {i}, mutation {k}"));
            }
            tried += 1;
        }
    }
    (tried, panicked)
}

fn assert_no_panic(name: &str, (tried, panicked): (usize, Vec<String>)) {
    assert!(tried > 1000, "{name}: only {tried} mutants");
    assert!(
        panicked.is_empty(),
        "{name}: restore panicked on {} of {tried} mutants, first at {}",
        panicked.len(),
        panicked[0]
    );
}

/// Each scheme states its phase invariant once
/// (`RoutingFunction::can_hold`): the routing function asserts it and
/// `restore` rejects a queued packet that breaks it.
#[test]
fn mutated_faulted_checkpoints_never_panic_on_restore() {
    let cube = HypercubeFullyAdaptive::new(3);
    assert_no_panic(
        "hypercube(3)",
        mutate_checkpoint(cube, (0, 1), (2, 3), true),
    );
    let mesh = MeshFullyAdaptive::new(3, 3);
    assert_no_panic("mesh 3x3", mutate_checkpoint(mesh, (4, 5), (0, 1), true));
}

/// The other families whose routing states a checkpoint can corrupt
/// into a panic: a class its channel declares no buffer for, a wrap or
/// shuffle count past its bound.
#[test]
fn mutated_routing_states_of_other_families_never_panic_on_restore() {
    let hang = HypercubeStaticHang::new(3);
    assert_no_panic(
        "static-hang",
        mutate_checkpoint(hang, (0, 1), (2, 3), false),
    );
    let sbp = EcubeSbp::new(3);
    assert_no_panic("ecube-sbp", mutate_checkpoint(sbp, (0, 1), (2, 3), false));
    let xy = MeshXY::new(3, 3);
    assert_no_panic("xy", mutate_checkpoint(xy, (4, 5), (0, 1), false));
    let torus = TorusTwoPhase::new(3, 3);
    assert_no_panic("torus 3x3", mutate_checkpoint(torus, (0, 1), (4, 5), false));
    let se = ShuffleExchangeRouting::new(3);
    assert_no_panic("se(3)", mutate_checkpoint(se, (2, 3), (4, 5), false));
}
