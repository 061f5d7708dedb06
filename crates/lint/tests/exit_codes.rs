//! The `lint` binary's exit-code contract, part of the workspace-wide
//! convention the CI gates script against: 0 clean, 1 findings, 2 on
//! usage or I/O errors.

use std::process::Command;

fn lint(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lint"))
        .args(args)
        .output()
        .expect("spawn lint");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn clean_scheme_exits_zero() {
    let (code, stdout, _) = lint(&["--family", "hypercube", "--n", "3"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("0 error(s)"));
}

#[test]
fn findings_exit_one() {
    let (code, stdout, _) = lint(&["--family", "se", "--n", "4", "--algo", "paper-literal"]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("class-capacity-exhausted"));
}

#[test]
fn warnings_gate_only_under_deny_warnings() {
    // Hypercube FA has shadowed-buffer warnings but no errors.
    let (code, _, _) = lint(&["--family", "hypercube", "--n", "3"]);
    assert_eq!(code, Some(0));
    let (code, _, _) = lint(&["--family", "hypercube", "--n", "3", "--deny-warnings"]);
    assert_eq!(code, Some(1));
}

#[test]
fn expect_mode_flips_polarity() {
    let (code, _, _) = lint(&[
        "--family",
        "se",
        "--n",
        "4",
        "--algo",
        "paper-literal",
        "--expect",
        "class-capacity-exhausted",
    ]);
    assert_eq!(code, Some(0));
    // A clean scheme fails an expectation.
    let (code, _, stderr) = lint(&["--family", "hypercube", "--n", "3", "--expect", "dead-end"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("dead-end"), "{stderr}");
}

#[test]
fn usage_errors_exit_two() {
    for args in [
        &["--bogus"][..],
        &["--family", "klein-bottle", "--n", "4"],
        &["--family", "hypercube", "--n", "notanumber"],
        &["--only", "no-such-lint"],
        &["--n"],
        // Sizes outside the scheme registry's bounds: a usage error that
        // names the bound, never a topology assertion.
        &["--family", "hypercube", "--n", "0"],
        &["--family", "hypercube"],
        &["--family", "torus", "--n", "2"],
        &["--family", "mesh", "--n", "1"],
        &["--family", "se", "--n", "1"],
    ] {
        let (code, _, stderr) = lint(args);
        assert_eq!(code, Some(2), "args {args:?}: {stderr}");
    }
}

#[test]
fn io_errors_exit_two() {
    let (code, _, stderr) = lint(&[
        "--family",
        "hypercube",
        "--n",
        "3",
        "--faults",
        "/nonexistent/plan.json",
    ]);
    assert_eq!(code, Some(2), "{stderr}");
    let (code, _, stderr) = lint(&[
        "--family",
        "hypercube",
        "--n",
        "3",
        "--json",
        "/nonexistent/dir/out.json",
    ]);
    assert_eq!(code, Some(2), "{stderr}");
}

#[test]
fn help_and_list_exit_zero() {
    let (code, stdout, _) = lint(&["--help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("usage: lint"));
    let (code, stdout, _) = lint(&["--list"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("class-capacity-exhausted"));
    assert!(stdout.contains("fault-dead-end"));
}

#[test]
fn json_report_is_written_and_valid_schema() {
    let dir = std::env::temp_dir().join("fadr-lint-exit-codes");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("se4.json");
    let (code, _, _) = lint(&[
        "--family",
        "se",
        "--n",
        "4",
        "--algo",
        "paper-literal",
        "--json",
        path.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(code, Some(1));
    let body = std::fs::read_to_string(&path).expect("report written");
    assert!(body.contains("\"schema\": \"fadr-lint/1\""));
    assert!(body.contains("\"lint\": \"class-capacity-exhausted\""));
    assert!(body.contains("\"clause\""));
    std::fs::remove_file(&path).ok();
}
