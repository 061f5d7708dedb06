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
            // The wedging registry row has no `--algo` spelling.
            (&["--algo", "store-forward"], "--algo must be"),
            (&["--watchdog", "0"], "--watchdog window"),
            (&["--cap", "0"], "requires --watchdog"),
            (&["--shards", "0"], "--shards must be a positive integer"),
            (&["--reps", "0"], "--reps must be a positive integer"),
            (&["--cycles", "0"], "--cycles must be a positive integer"),
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

/// Only a missing snapshot means a run finished before the checkpoint.
/// A snapshot that cannot be read, that restore rejects, or whose
/// progress does not fit its run fails the resume with exit 1 and a
/// message naming the file and the reason; `replay` rejects the same
/// snapshots with exit 2.
#[test]
fn tables_resume_rejects_an_unreadable_or_corrupt_snapshot() {
    let tables = env!("CARGO_BIN_EXE_tables");
    let dir = std::env::temp_dir().join(format!("fadr_bad_resume_{}", std::process::id()));
    let d = dir.to_str().expect("utf-8 path");
    let (code, stderr) = run(
        tables,
        &[
            "--table",
            "1",
            "--checkpoint-at",
            "8",
            "--checkpoint-dir",
            d,
        ],
    );
    assert_eq!(code, Some(0), "{stderr}");
    let snap = dir.join("t1_n10_q5_r0.snap");
    let text = std::fs::read_to_string(&snap).expect("checkpoint written");
    let signed = text.replacen("\"packets\": [[", "\"packets\": [[+", 1);
    assert_ne!(signed, text, "the checkpoint holds no packet");
    // Table 1 is static: its progress is one backlog cursor per node.
    let (head, rest) = text
        .split_once("\"progress\": {")
        .expect("checkpoint has progress");
    let tail = &rest[rest.find('}').expect("progress ends")..];
    let dynamic = format!(
        "{head}\"progress\": {{\"kind\": \"dynamic\", \"attempts\": 0, \"injected\": 0{tail}"
    );
    let short = text.replacen("\"next_idx\": [1, ", "\"next_idx\": [", 1);
    assert_ne!(short, text, "the checkpoint holds no cursor");
    let mut not_utf8 = text.into_bytes();
    not_utf8.extend([0xff, 0xfe]);
    for (what, bytes, reason) in [
        ("a signed number", signed.into_bytes(), "at byte"),
        ("two non-UTF-8 bytes", not_utf8, "UTF-8"),
        (
            "dynamic progress",
            dynamic.into_bytes(),
            "workload is static",
        ),
        ("a missing cursor", short.into_bytes(), "backlog cursors"),
    ] {
        std::fs::write(&snap, bytes).expect("corrupt the checkpoint");
        let (code, stderr) = run(tables, &["--table", "1", "--resume-from", d]);
        assert_eq!(code, Some(1), "{what}: {stderr}");
        assert!(!stderr.contains("panicked"), "{what}: {stderr}");
        assert!(
            stderr.contains("t1_n10_q5_r0.snap") && stderr.contains(reason),
            "{what}: {stderr:?} lacks the file or {reason:?}"
        );
        let path = snap.to_str().expect("utf-8 path");
        let (code, stderr) = run(env!("CARGO_BIN_EXE_replay"), &["--snapshot", path]);
        assert_eq!(code, Some(2), "replay, {what}: {stderr}");
        assert!(!stderr.contains("panicked"), "replay, {what}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
