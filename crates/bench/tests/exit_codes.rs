//! The `replay` binary's exit-code contract: 0 clean, 1 when a journal
//! divergence is found, 2 on usage or I/O errors — the workspace-wide
//! convention shared with `certify` and `lint`.

use std::process::Command;

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
    std::fs::write(&path, "not a fadr-snapshot/2 document").expect("write");
    let (code, _, stderr) = replay(&["--snapshot", path.to_str().expect("utf-8 path")]);
    assert_eq!(code, Some(2), "{stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn help_exits_zero() {
    let (code, stdout, _) = replay(&["--help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("usage: replay"), "{stdout}");
}
