//! The `replay` binary's exit-code contract: 0 clean, 1 when a journal
//! divergence is found, 2 on usage or I/O errors — the workspace-wide
//! convention shared with `certify` and `lint`.

use std::process::Command;

use fadr_bench::replay::meta_line;
use fadr_bench::runner::hypercube_scheme;
use fadr_sim::{DynamicOutcome, SimConfig, Simulator};

fn replay(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_replay"))
        .args(args)
        .output()
        .expect("spawn replay");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn usage_errors_exit_two() {
    for args in [
        &[][..], // --snapshot is required
        &["--bogus"],
        &["--snapshot"],
        &["--snapshot", "x.snap", "--to", "notanumber"],
        &["--snapshot", "x.snap", "--watchdog", "0"],
    ] {
        let (code, _, stderr) = replay(args);
        assert_eq!(code, Some(2), "args {args:?}: {stderr}");
    }
}

#[test]
fn io_errors_exit_two() {
    let (code, _, stderr) = replay(&["--snapshot", "/nonexistent/ckpt.snap"]);
    assert_eq!(code, Some(2), "{stderr}");
    let (code, _, stderr) = replay(&["--snapshot", "/nonexistent/ckpt.snap", "--diff", "j.txt"]);
    assert_eq!(code, Some(2), "{stderr}");
}

#[test]
fn malformed_snapshot_exits_two() {
    let dir = std::env::temp_dir().join("fadr-replay-exit-codes");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("garbage.snap");
    std::fs::write(&path, "not a fadr-snapshot/3 document").expect("write");
    let (code, _, stderr) = replay(&["--snapshot", path.to_str().expect("utf-8 path")]);
    assert_eq!(code, Some(2), "{stderr}");
    std::fs::remove_file(&path).ok();
}

/// A checkpoint whose meta line is mistyped must not replay another
/// workload: an unknown, a repeated or a missing key exits 2 naming it.
#[test]
fn mistyped_meta_exits_two_naming_the_key() {
    let algo = hypercube_scheme("ecube-sbp").expect("registry row");
    let meta = meta_line("t10_n3_q5_r0", algo, 10, 3, 5, 500, 0, None);
    let mut sim = Simulator::new(fadr_core::EcubeSbp::new(3), SimConfig::default());
    let DynamicOutcome::Paused(progress) = sim.run_dynamic_until(1.0, |s, _| s ^ 7, 10, Some(2))
    else {
        panic!("run did not pause");
    };
    let text = sim.checkpoint(&meta, &progress);
    let dir = std::env::temp_dir().join(format!("fadr-replay-meta-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    for (bad, needle) in [
        (
            meta.replace("table=", "tabel="),
            "unknown snapshot meta key `tabel`",
        ),
        (format!("{meta} table=11"), "snapshot meta repeats `table=`"),
        (
            meta.replace(" cycles=500", ""),
            "snapshot meta is missing `cycles=`",
        ),
    ] {
        let path = dir.join("bad.snap");
        std::fs::write(&path, text.replacen(&meta, &bad, 1)).expect("write");
        let (code, _, stderr) = replay(&["--snapshot", path.to_str().expect("utf-8 path")]);
        assert_eq!(code, Some(2), "{bad}: {stderr}");
        assert!(
            stderr.contains(needle),
            "{bad}: {stderr:?} lacks {needle:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_exits_zero() {
    let (code, stdout, _) = replay(&["--help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("usage: replay"), "{stdout}");
}
