//! Host facts: peak memory, core count, total memory, current speed, and
//! the git revision the benchmark was built from.

use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use crate::json::Json;

/// Reset the kernel's peak-RSS mark (`VmHWM`) to the current RSS.
/// Returns whether the reset took effect.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (`VmHWM`) in MiB, if the kernel reports it.
pub fn peak_rss_mb() -> Option<f64> {
    status_kb("/proc/self/status", "VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// Current resident set size (`VmRSS`) in MiB, if the kernel reports it.
pub fn rss_mb() -> Option<f64> {
    status_kb("/proc/self/status", "VmRSS:").map(|kb| kb as f64 / 1024.0)
}

/// Total memory (`MemTotal`) in kB, if known.
pub fn mem_total_kb() -> Option<u64> {
    status_kb("/proc/meminfo", "MemTotal:")
}

fn status_kb(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The host-speed probe's time at nominal host speed: its typical time
/// on the 2-vCPU Xeon host the committed baselines were recorded on.
pub const NOMINAL_PROBE_S: f64 = 0.0075;

/// Time a fixed kernel of integer arithmetic and random reads and writes
/// in a 256 KiB table. It runs next to every timed pass: a shared host
/// changes speed by tens of percent for minutes at a time, and the
/// kernel's time tracks that speed while the code under test does not
/// touch it. It tracks compute-bound passes best; passes dominated by
/// DRAM traffic (the lane table build) are tracked less closely.
pub fn probe_s() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut table = vec![0u64; 1 << 15];
    for i in 0..3_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = usize::try_from(x & 0x7fff).expect("masked to 15 bits");
        table[k] = table[k].wrapping_mul(31).wrapping_add(x ^ i);
    }
    black_box(&table);
    t0.elapsed().as_secs_f64()
}

/// Host speed relative to nominal (above 1 when faster) from the probe
/// times taken just before and just after a pass.
pub fn host_speed(before_s: f64, after_s: f64) -> f64 {
    2.0 * NOMINAL_PROBE_S / (before_s + after_s)
}

/// Whether this binary was built without optimizations.
pub fn debug_build() -> bool {
    cfg!(debug_assertions)
}

/// Git revision and dirty flag of the tree at `dir`, or `None` outside a
/// git checkout. Git looks no higher than `dir` for a repository and
/// reads no system or user configuration, so it reads nothing outside
/// `dir` and never reports an unrelated enclosing repository.
pub fn git_rev(dir: &Path) -> Option<(String, bool)> {
    let git = |args: &[&str]| {
        let mut cmd = Command::new("git");
        cmd.args(args)
            .current_dir(dir)
            .env("GIT_CONFIG_NOSYSTEM", "1")
            .env("HOME", dir)
            .env_remove("XDG_CONFIG_HOME");
        if let Some(parent) = dir.parent() {
            cmd.env("GIT_CEILING_DIRECTORIES", parent);
        }
        cmd.output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = git(&["rev-parse", "HEAD"])?;
    let dirty =
        git(&["status", "--porcelain", "--untracked-files=no"]).is_none_or(|s| !s.is_empty());
    Some((rev, dirty))
}

/// The provenance block every result and trace document carries.
pub fn provenance(repo: &Path, seed: u64, scale: &str, passes: Json) -> Json {
    let (rev, dirty) = git_rev(repo).map_or((Json::Null, Json::Null), |(r, d)| {
        (Json::Str(r), Json::Bool(d))
    });
    Json::obj()
        .with("git_rev", rev)
        .with("git_dirty", dirty)
        .with("profile", if debug_build() { "debug" } else { "release" })
        .with("nproc", nproc())
        .with("mem_total_kb", mem_total_kb())
        .with("seed", format!("{seed:#x}"))
        .with("scale", scale)
        .with("passes", passes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_facts_are_readable_on_linux() {
        assert!(nproc() >= 1);
        if Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
            assert!(mem_total_kb().is_some_and(|kb| kb > 0));
        }
    }

    #[test]
    fn host_speed_is_nominal_over_measured() {
        assert!((host_speed(NOMINAL_PROBE_S, NOMINAL_PROBE_S) - 1.0).abs() < 1e-12);
        assert!((host_speed(0.010, 0.020) - 0.5).abs() < 1e-12);
        assert!(probe_s() > 0.0);
    }
}
