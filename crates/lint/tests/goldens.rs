//! The analyzer's output, pinned byte for byte: the `fadr-lint/1`
//! report of one small instance per `--family`/`--algo` registry row
//! (and of hypercube(6) under a one-`link_down` fault plan), regenerated
//! with the `lint` binary and compared with its file in `tests/golden/`.
//! A change that alters any of these bytes changes the reports users and
//! CI archive, and must regenerate the goldens on purpose.

#[path = "../../verify/tests/support/golden.rs"]
mod golden;

use golden::{assert_matches_golden, written};

/// `(golden file, lint arguments)`; `--json` is appended.
const REPORTS: &[(&str, &[&str])] = &[
    (
        "hypercube-fully-adaptive-n6.json",
        &[
            "--family",
            "hypercube",
            "--n",
            "6",
            "--algo",
            "fully-adaptive",
        ],
    ),
    (
        "hypercube-static-hang-n6.json",
        &["--family", "hypercube", "--n", "6", "--algo", "static-hang"],
    ),
    (
        "hypercube-ecube-sbp-n6.json",
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

#[test]
fn reports_match_their_goldens() {
    for &(name, args) in REPORTS {
        let got = written(env!("CARGO_BIN_EXE_lint"), args, "--json", name);
        assert_matches_golden(name, &got);
    }
}
