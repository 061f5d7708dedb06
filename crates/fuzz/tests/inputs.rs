//! Byte mutations of every committed input document: the fault plans
//! in `examples/faults/` and the fuzz regression corpus. For every byte
//! the test tries a deletion and a replacement by each of `, : " } ] 0 x`.
//! Parsing must never panic, anything accepted must render back to the
//! same value, and deleting a `,` or `:` outside a string must be an
//! error.

use std::fmt::Debug;
use std::panic::catch_unwind;
use std::path::Path;

use fadr_fuzz::CaseSpec;
use fadr_sim::FaultPlan;

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
