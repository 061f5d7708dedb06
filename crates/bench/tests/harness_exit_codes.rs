//! The `tables`, `sweep` and `perf` binaries reject malformed flags and
//! conflicting flag combinations with a one-line message and a non-zero
//! exit — never a panic, and never by silently substituting a default.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("spawn harness binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Every case must exit 1 with `needle` in its message and no panic.
fn rejects(bin: &str, cases: &[(&[&str], &str)]) {
    for (args, needle) in cases {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(1), "{bin} {args:?}: {stderr}");
        assert!(
            !stderr.contains("panicked"),
            "{bin} {args:?} panicked: {stderr}"
        );
        assert!(
            stderr.contains(needle),
            "{bin} {args:?}: {stderr:?} lacks {needle:?}"
        );
    }
}

#[test]
fn sweep_rejects_bad_values() {
    rejects(
        env!("CARGO_BIN_EXE_sweep"),
        &[
            (&[], "usage: sweep"),
            (&["diagonal"], "usage: sweep"),
            (&["capacity", "--table", "13"], "--table must be 1..=12"),
            (&["capacity", "--table", "0"], "--table must be 1..=12"),
            (&["lambda", "--n", "abc"], "--n must be a positive integer"),
            (&["lambda", "--n", "0"], "--n must be a positive integer"),
            (&["lambda", "--n", "31"], "--n must be 1..=30"),
            (
                &["lambda", "--cycles", "xyz"],
                "--cycles must be a positive integer",
            ),
            (&["lambda", "--cycles"], "--cycles needs a value"),
            (
                &["lambda", "--jobs", "0"],
                "--jobs must be a positive integer",
            ),
            (
                &["lambda", "--lanes", "0"],
                "--lanes must be a positive integer",
            ),
            (&["lambda", "--partition", "diagonal"], "--partition"),
            (&["lambda", "--bogus"], "unknown argument --bogus"),
            (
                &["lambda", "--waitgraph", "--shards", "2"],
                "probe is global",
            ),
        ],
    );
}

#[test]
fn tables_rejects_bad_values_and_conflicts() {
    rejects(
        env!("CARGO_BIN_EXE_tables"),
        &[
            (&["--table", "13"], "--table must be 1..=12"),
            (&["--algo", "bogus"], "--algo must be"),
            (&["--watchdog", "0"], "--watchdog window"),
            (&["--cap", "0"], "requires --watchdog"),
            (&["--shards", "0"], "--shards must be a positive integer"),
            (&["--waitgraph", "--shards", "2"], "probe is global"),
            (
                &[
                    "--checkpoint-at",
                    "5",
                    "--checkpoint-dir",
                    "d",
                    "--resume-from",
                    "d",
                ],
                "mutually exclusive",
            ),
        ],
    );
}

#[test]
fn perf_compare_routes_through_the_conflict_check() {
    rejects(
        env!("CARGO_BIN_EXE_perf"),
        &[
            (
                &["--compare", "lanes", "--shards", "2"],
                "lanes on one thread",
            ),
            (
                &["--compare", "lanes", "--resume-from", "d"],
                "cannot checkpoint or restore",
            ),
            (
                &["--compare", "lanes", "--faults", "plan.json"],
                "no fault model",
            ),
            (
                &["--compare", "lanes", "--lanes", "1"],
                "--lanes of at least 2",
            ),
            (
                &[
                    "--compare",
                    "self",
                    "--checkpoint-at",
                    "5",
                    "--resume-from",
                    "d",
                ],
                "mutually exclusive",
            ),
            (
                &["--compare", "self", "--waitgraph", "--shards", "2"],
                "probe is global",
            ),
            (&["--jobs", "zero"], "--jobs must be a positive integer"),
            (&["--compare", "other"], "--compare needs self|lanes"),
        ],
    );
}

/// Lanes compose with the capacity sweep and with recording.
#[test]
fn sweep_lanes_compose_with_capacity_and_recording() {
    let journal = std::env::temp_dir().join(format!("fadr_sweep_j_{}.txt", std::process::id()));
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_sweep"),
        &[
            "capacity",
            "--n",
            "3",
            "--table",
            "2",
            "--lanes",
            "2",
            "--jobs",
            "1",
            "--journal",
            journal.to_str().expect("utf-8 path"),
        ],
    );
    assert_eq!(code, Some(0), "{stderr}");
    let text = std::fs::read_to_string(&journal).expect("journal written");
    assert!(
        text.starts_with("# cap=1 algo=fully-adaptive n=3"),
        "{text}"
    );
    std::fs::remove_file(&journal).ok();
}

/// The stderr header names the router the run uses.
#[test]
fn tables_header_names_the_algorithm() {
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_tables"),
        &["--algo", "ecube-sbp", "--table", "2"],
    );
    assert_eq!(code, Some(0), "{stderr}");
    let header = stderr.lines().next().unwrap_or_default();
    assert!(
        header.starts_with("# ecube-sbp hypercube routing"),
        "{header:?}"
    );
}
