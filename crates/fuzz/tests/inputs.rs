//! Byte mutations of every committed input document: the fault plans
//! in `examples/faults/` and the fuzz regression corpus. For every byte
//! the test tries a deletion and a replacement by each of `, : " } ] 0 x`.
//! Parsing must never panic, anything accepted must render back to the
//! same value, and deleting a `,` or `:` outside a string must be an
//! error. Checkpoints of faulted runs are mutated too: restoring a
//! mutant, and resuming a restored one, must never panic.

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

/// Which bytes of a checkpoint [`mutate_checkpoint`] changes, and what
/// it runs on a mutant.
#[derive(Clone, Copy, PartialEq)]
enum Probe {
    /// Delete each byte or replace it by each of
    /// [`SNAPSHOT_REPLACEMENTS`]; restore.
    Whole,
    /// Replace each of the [`sampled_edges`] of the packet records by
    /// each digit, which changes routing states and keeps the document
    /// well-formed; restore, and resume an accepted mutant to the run's
    /// end (cycle 60).
    Resume,
}

/// Packet records per kind of location that [`sampled_edges`] takes.
const RECORDS_PER_KIND: usize = 3;

/// The bytes of the `packets` records of checkpoint `text` that
/// [`Probe::Resume`] replaces: in the first [`RECORDS_PER_KIND`] records
/// at each kind of location (central queue, injection slot, output
/// buffer, input buffer), the first and last digit of each number and
/// the space before it (a digit there prefixes the number). Skipped are
/// the commas and brackets (a digit there breaks the document, as
/// [`Probe::Whole`] covers), the interior digits of long numbers (uids,
/// timestamps, a never-moved packet's `u64::MAX`), which route nothing
/// differently, and the later records, whose fields take the same kinds
/// of values.
fn sampled_edges(text: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let digit = |j: usize| bytes[j].is_ascii_digit();
    let packets = text.find("\"packets\"").expect("a packets key")
        ..text.find("\"chan_rr\"").expect("a chan_rr key");
    let mut taken = [0; 4];
    let mut edges = Vec::new();
    // A record opens with `[` and its one-digit location code.
    for start in packets.filter(|&j| bytes[j] == b'[' && digit(j + 1)) {
        let kind = &mut taken[usize::from(bytes[start + 1] - b'0')];
        if *kind == RECORDS_PER_KIND {
            continue;
        }
        *kind += 1;
        let end = start + text[start..].find(']').expect("a closed record");
        edges.extend((start + 1..end).filter(|&i| {
            if digit(i) {
                !digit(i - 1) || !digit(i + 1)
            } else {
                bytes[i] == b' ' && digit(i + 1)
            }
        }));
    }
    edges
}

/// Pause `rf` at cycle 20 of a dynamic run under a plan with one
/// `link_down` and one `flaky_link`, and restore mutants of its
/// checkpoint into an engine with the same plan, as `probe` says. The
/// engine is reused, since a restore replaces all of its state, and
/// rebuilt only after a panic. Returns the number of mutants and the
/// ones that panicked.
fn mutate_checkpoint<R>(
    rf: R,
    dead: (u32, u32),
    flaky: (u32, u32),
    probe: Probe,
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
    let (at, replacements) = match probe {
        Probe::Whole => ((0..bytes.len()).collect(), SNAPSHOT_REPLACEMENTS),
        Probe::Resume => (sampled_edges(&text), &b"0123456789"[..]),
    };
    let mut tried = 0;
    let mut panicked = Vec::new();
    for i in at {
        let deleted = (probe == Probe::Whole).then(|| [&bytes[..i], &bytes[i + 1..]].concat());
        let replaced = replacements.iter().filter(|&&r| r != bytes[i]).map(|&r| {
            let mut v = bytes.to_vec();
            v[i] = r;
            v
        });
        for (k, input) in deleted.into_iter().chain(replaced).enumerate() {
            let input = String::from_utf8(input).expect("checkpoints are ASCII");
            let run = || {
                if let (Ok((_, progress)), Probe::Resume) = (sim.restore(&input), probe) {
                    sim.resume_dynamic(1.0, dest, 60, progress, None);
                }
            };
            if catch_unwind(AssertUnwindSafe(run)).is_err() {
                panicked.push(format!("byte {i}, mutation {k}"));
                sim = engine();
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
        mutate_checkpoint(cube, (0, 1), (2, 3), Probe::Whole),
    );
    let mesh = MeshFullyAdaptive::new(3, 3);
    assert_no_panic(
        "mesh 3x3",
        mutate_checkpoint(mesh, (4, 5), (0, 1), Probe::Whole),
    );
}

/// Routing states corrupted in every family: a class its channel
/// declares no buffer for, a wrap or shuffle count past its bound. A
/// restore that accepts one must leave a run that resumes without a
/// panic, so the packets outside the central queues are checked too — a
/// buffered packet against its buffer's class, the node staging it and
/// the queue it arrives in, an injection-slot packet against the message
/// it starts with.
#[test]
fn mutated_packet_records_restore_and_resume_without_panic() {
    let probe = Probe::Resume;
    let cube = HypercubeFullyAdaptive::new(3);
    assert_no_panic(
        "hypercube(3)",
        mutate_checkpoint(cube, (0, 1), (2, 3), probe),
    );
    let mesh = MeshFullyAdaptive::new(3, 3);
    assert_no_panic("mesh 3x3", mutate_checkpoint(mesh, (4, 5), (0, 1), probe));
    let hang = HypercubeStaticHang::new(3);
    assert_no_panic(
        "static-hang",
        mutate_checkpoint(hang, (0, 1), (2, 3), probe),
    );
    let sbp = EcubeSbp::new(3);
    assert_no_panic("ecube-sbp", mutate_checkpoint(sbp, (0, 1), (2, 3), probe));
    let xy = MeshXY::new(3, 3);
    assert_no_panic("xy", mutate_checkpoint(xy, (4, 5), (0, 1), probe));
    let torus = TorusTwoPhase::new(3, 3);
    assert_no_panic("torus 3x3", mutate_checkpoint(torus, (0, 1), (4, 5), probe));
    let se = ShuffleExchangeRouting::new(3);
    assert_no_panic("se(3)", mutate_checkpoint(se, (2, 3), (4, 5), probe));
}
