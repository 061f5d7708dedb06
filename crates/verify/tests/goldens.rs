//! The certifier's output, pinned byte for byte: the `fadr-verify/1`
//! certificate of one small instance per `--family`/`--algo` registry
//! row (and of hypercube(6) under a one-`link_down` fault plan), and the
//! DOT rendering of the SE(4) paper-literal rejection. Each is
//! regenerated with the `certify` binary and compared with its file in
//! `tests/golden/`. A change that alters any of these bytes changes the
//! documents users and CI archive, and must regenerate the goldens on
//! purpose.

#[path = "support/golden.rs"]
mod golden;

use golden::{assert_matches_golden, written};

/// `(golden file, certify arguments)`; `--out` is appended.
const CERTIFICATES: &[(&str, &[&str])] = &[
    (
        "hypercube-fa-n6.json",
        &["--family", "hypercube", "--n", "6"],
    ),
    (
        "hypercube-sh-n6.json",
        &["--family", "hypercube", "--n", "6", "--algo", "static-hang"],
    ),
    (
        "hypercube-sbp-n6.json",
        &["--family", "hypercube", "--n", "6", "--algo", "ecube-sbp"],
    ),
    (
        "mesh-fully-adaptive-8x8.json",
        &["--family", "mesh", "--n", "8", "--algo", "fully-adaptive"],
    ),
    (
        "mesh-static-hang-8x8.json",
        &["--family", "mesh", "--n", "8", "--algo", "static-hang"],
    ),
    (
        "mesh-xy-8x8.json",
        &["--family", "mesh", "--n", "8", "--algo", "xy"],
    ),
    ("torus-8x8.json", &["--family", "torus", "--n", "8"]),
    ("se-adaptive-n6.json", &["--family", "se", "--n", "6"]),
    (
        "se-static-n6.json",
        &["--family", "se", "--n", "6", "--algo", "static"],
    ),
    (
        "hypercube-n6-link.json",
        &["--family", "hypercube", "--n", "6", "--faults", "FAULTS"],
    ),
];

const CERTIFY: &str = env!("CARGO_BIN_EXE_certify");

#[test]
fn certificates_match_their_goldens() {
    for &(name, args) in CERTIFICATES {
        assert_matches_golden(name, &written(CERTIFY, args, "--out", name));
    }
}

#[test]
fn rejection_dot_matches_its_golden() {
    let name = "se4-literal-cycle.dot";
    let args = [
        "--family",
        "se",
        "--n",
        "4",
        "--algo",
        "paper-literal",
        "--expect-reject",
    ];
    assert_matches_golden(name, &written(CERTIFY, &args, "--dot", name));
}
