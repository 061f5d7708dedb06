//! The `certify` binary's exit-code contract: 0 clean, 1 findings
//! (rejection, or a missed `--expect-reject`), 2 on usage or I/O
//! errors — the workspace-wide convention shared with `lint` and
//! `replay`, gated here so the CI scripts can rely on it.

use std::process::Command;

fn certify(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_certify"))
        .args(args)
        .output()
        .expect("spawn certify");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn certified_scheme_exits_zero() {
    let (code, stdout, _) = certify(&["--family", "hypercube", "--n", "3"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("CERTIFIED"));
}

#[test]
fn rejection_exits_one_and_expect_reject_flips() {
    let (code, stdout, _) = certify(&["--family", "se", "--n", "4", "--algo", "paper-literal"]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("REJECTED"));
    let (code, _, _) = certify(&[
        "--family",
        "se",
        "--n",
        "4",
        "--algo",
        "paper-literal",
        "--expect-reject",
    ]);
    assert_eq!(code, Some(0));
    // An acceptance under --expect-reject is itself a finding.
    let (code, _, _) = certify(&["--family", "hypercube", "--n", "3", "--expect-reject"]);
    assert_eq!(code, Some(1));
}

#[test]
fn lint_pre_pass_gates_before_certification() {
    let (code, stdout, _) = certify(&[
        "--family",
        "se",
        "--n",
        "4",
        "--algo",
        "paper-literal",
        "--lint",
    ]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("LINT-GATED"), "{stdout}");
    assert!(
        !stdout.contains("REJECTED"),
        "certification should be skipped:\n{stdout}"
    );
    // A clean scheme passes the pre-pass and still certifies.
    let (code, stdout, _) = certify(&["--family", "hypercube", "--n", "3", "--lint"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("CERTIFIED"));
}

#[test]
fn usage_errors_exit_two() {
    for args in [
        &["--bogus"][..],
        &["--family", "klein-bottle", "--n", "4"],
        &["--family", "hypercube", "--n", "notanumber"],
        &["--n"],
        // Sizes outside the scheme registry's bounds: a usage error that
        // names the bound, never a topology assertion.
        &["--family", "hypercube", "--n", "0"],
        &["--family", "hypercube"],
        &["--family", "torus", "--n", "2"],
        &["--family", "mesh", "--n", "1"],
        &["--family", "se", "--n", "1"],
    ] {
        let (code, _, stderr) = certify(args);
        assert_eq!(code, Some(2), "args {args:?}: {stderr}");
    }
}

#[test]
fn io_errors_exit_two() {
    let (code, _, stderr) = certify(&[
        "--family",
        "hypercube",
        "--n",
        "3",
        "--faults",
        "/nonexistent/plan.json",
    ]);
    assert_eq!(code, Some(2), "{stderr}");
    let (code, _, stderr) = certify(&[
        "--family",
        "hypercube",
        "--n",
        "3",
        "--out",
        "/nonexistent/dir/cert.json",
    ]);
    assert_eq!(code, Some(2), "{stderr}");
}

#[test]
fn help_exits_zero() {
    let (code, stdout, _) = certify(&["--help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("usage: certify"));
}
