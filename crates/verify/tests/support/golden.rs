//! Golden-file helpers shared by the certifier's and the analyzer's
//! byte-for-byte tests (`crates/verify/tests/goldens.rs` and
//! `crates/lint/tests/goldens.rs` include this file): run a binary that
//! writes a document to a file, and compare the bytes with the including
//! crate's `tests/golden/` file of the same name.

use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::Command;

fn manifest_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// Run binary `exe` with `args` (`FAULTS` names the example link plan)
/// and `flag FILE`, and return the bytes it wrote to `FILE`.
pub fn written(exe: &str, args: &[&str], flag: &str, name: &str) -> Vec<u8> {
    let out = std::env::temp_dir().join(format!("fadr-golden-{}-{name}", std::process::id()));
    let plan = manifest_path("../../examples/faults/hypercube_link.json");
    let run = Command::new(exe)
        .args(args.iter().map(|&a| {
            if a == "FAULTS" {
                plan.as_os_str()
            } else {
                OsStr::new(a)
            }
        }))
        .arg(flag)
        .arg(&out)
        .output()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
    assert!(
        run.status.success(),
        "{exe} {args:?} failed: {}",
        String::from_utf8_lossy(&run.stdout)
    );
    let bytes = std::fs::read(&out).unwrap_or_else(|e| panic!("{}: {e}", out.display()));
    std::fs::remove_file(&out).ok();
    bytes
}

/// Fail with the first differing byte of `got` against golden `name`.
pub fn assert_matches_golden(name: &str, got: &[u8]) {
    let want = std::fs::read(manifest_path("tests/golden").join(name))
        .unwrap_or_else(|e| panic!("golden {name}: {e}"));
    if got == want {
        return;
    }
    let at = got
        .iter()
        .zip(&want)
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    let context = |b: &[u8]| {
        String::from_utf8_lossy(&b[at.saturating_sub(40)..b.len().min(at + 40)]).into_owned()
    };
    panic!(
        "{name}: {} bytes written, golden has {}; first difference at byte {at}:\n  \
         written: {:?}\n  golden:  {:?}",
        got.len(),
        want.len(),
        context(got),
        context(&want)
    );
}
