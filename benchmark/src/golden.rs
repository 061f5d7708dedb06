//! Output checks: per-run invariants, digests compared against blessed
//! golden files, and spot checks against the sequential `Simulator`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use fadr_metrics::LatencyStats;
use fadr_sim::{DynamicResult, StaticResult, StopReason};

/// What one unit of work produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Res {
    /// A static-injection run of paper table `table` on the `n`-cube.
    Static {
        /// Paper table number (1–8).
        table: usize,
        /// Hypercube dimension.
        n: usize,
        /// The engine's result.
        res: StaticResult,
    },
    /// A dynamic λ = 1 run on `nodes` nodes for `cycles` cycles.
    Dynamic {
        /// Node count.
        nodes: usize,
        /// Requested horizon.
        cycles: u64,
        /// The engine's result.
        res: DynamicResult,
    },
    /// A certification verdict.
    Verdict {
        /// Whether the scheme was certified.
        certified: bool,
        /// Whether the workload expects it to be.
        expect: bool,
        /// Hash of the certificate's rank function (0 when rejected).
        rank_hash: u64,
        /// The independent checker's answer on the certificate.
        check: Result<(), String>,
    },
    /// A lint report.
    Lint {
        /// Error findings (0 on every scheme the workload lints).
        errors: usize,
        /// All findings, warnings included.
        findings: usize,
        /// `(queue, message)` states explored.
        states: usize,
    },
    /// The library returned an error on valid generated input.
    Failed(String),
}

/// One labelled output (labels are stable across scales and runs).
#[derive(Debug, Clone, PartialEq)]
pub struct RunOut {
    /// `workload/...` label naming the run's coordinates.
    pub label: String,
    /// What it produced.
    pub res: Res,
}

/// FNV-1a, 64 bits: a stable digest for golden files.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feed a word.
    pub fn u64(&mut self, x: u64) -> &mut Self {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Feed a string (length-prefixed).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Feed every field of a latency accumulator.
    pub fn stats(&mut self, s: &LatencyStats) -> &mut Self {
        let sum = s.sum();
        self.u64(s.count())
            .u64(sum as u64)
            .u64((sum >> 64) as u64)
            .u64(s.min_opt().unwrap_or(u64::MAX))
            .u64(s.max_opt().unwrap_or(u64::MAX))
            .u64(u64::from(s.histogram().saturated()));
        for (v, c) in s.histogram().iter() {
            self.u64(v).u64(c);
        }
        self
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn stop_code(s: StopReason) -> u64 {
    match s {
        StopReason::Drained => 0,
        StopReason::HorizonReached => 1,
        StopReason::MaxCycles => 2,
        StopReason::Aborted => 3,
        StopReason::Partitioned => 4,
    }
}

impl Res {
    /// Digest of every field of the output.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        match self {
            Res::Static { res, .. } => {
                d.str("static")
                    .stats(&res.stats)
                    .u64(res.cycles)
                    .u64(res.delivered)
                    .u64(res.total)
                    .u64(u64::from(res.drained))
                    .u64(res.dropped)
                    .u64(res.lost)
                    .u64(stop_code(res.stop));
            }
            Res::Dynamic { res, .. } => {
                d.str("dynamic")
                    .stats(&res.stats)
                    .u64(res.attempts)
                    .u64(res.injected)
                    .u64(res.delivered)
                    .u64(res.cycles)
                    .u64(res.dropped)
                    .u64(stop_code(res.stop));
            }
            Res::Verdict {
                certified,
                rank_hash,
                ..
            } => {
                d.str("verdict").u64(u64::from(*certified)).u64(*rank_hash);
            }
            Res::Lint {
                errors,
                findings,
                states,
            } => {
                d.str("lint")
                    .u64(*errors as u64)
                    .u64(*findings as u64)
                    .u64(*states as u64);
            }
            Res::Failed(msg) => {
                d.str("failed").str(msg);
            }
        }
        d.finish()
    }

    /// Check the output's invariants; returns each violated one.
    pub fn violations(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let mut need = |ok: bool, what: &str| {
            if !ok {
                bad.push(what.to_string());
            }
        };
        match self {
            Res::Static { table, n, res } => {
                need(res.drained && res.stop == StopReason::Drained, "drains");
                need(res.delivered == res.total, "delivers every packet");
                need(
                    res.stats.count() == res.delivered,
                    "one latency per delivery",
                );
                need(res.dropped == 0 && res.lost == 0, "drops nothing");
                if *table == 2 {
                    let exact = (2 * n + 1) as u64;
                    need(
                        res.stats.min() == exact && res.stats.max() == exact,
                        "Table 2 latency is exactly 2n+1",
                    );
                }
            }
            Res::Dynamic { nodes, cycles, res } => {
                need(
                    res.stop == StopReason::HorizonReached,
                    "reaches the horizon",
                );
                need(res.cycles == *cycles, "runs the requested cycles");
                need(
                    res.attempts == *nodes as u64 * cycles,
                    "every node attempts every cycle at λ = 1",
                );
                need(
                    res.injected <= res.attempts && res.delivered <= res.injected,
                    "delivered ≤ injected ≤ attempted",
                );
                need(
                    res.stats.count() == res.delivered,
                    "one latency per delivery",
                );
                need(
                    res.delivered > 0 && res.dropped == 0,
                    "delivers, drops nothing",
                );
            }
            Res::Verdict {
                certified,
                expect,
                check,
                ..
            } => {
                need(certified == expect, "expected certification verdict");
                if *certified {
                    need(check.is_ok(), "certificate passes the independent checker");
                }
            }
            Res::Lint { errors, .. } => need(*errors == 0, "lint finds no errors"),
            Res::Failed(msg) => need(false, msg),
        }
        bad
    }
}

/// Checks attempted and failed, with the first few failure messages.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checks {
    /// Checks attempted.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// Messages of the first failures.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Failed checks as a share of those attempted.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Check every output's invariants and, when a golden file is
    /// loaded, its digest.
    pub fn outputs(&mut self, outs: &[RunOut], golden: Option<&Golden>) {
        for o in outs {
            let bad = o.res.violations();
            self.check(bad.is_empty(), || {
                format!("{}: {}", o.label, bad.join(", "))
            });
            if let Some(g) = golden {
                let want = g.digests.get(&o.label).copied();
                let got = o.res.digest();
                self.check(want == Some(got), || match want {
                    Some(w) => format!("{}: digest {got:016x} != golden {w:016x}", o.label),
                    None => format!("{}: not in the golden file", o.label),
                });
            }
        }
    }

    /// Check that every reference output has an equal-digest twin in
    /// `outs` (the same run on a different engine).
    pub fn against(&mut self, outs: &[RunOut], reference: &[RunOut]) {
        for r in reference {
            let got = outs
                .iter()
                .find(|o| o.label == r.label)
                .map(|o| o.res.digest());
            self.check(got == Some(r.res.digest()), || {
                format!("{}: differs from the sequential Simulator", r.label)
            });
        }
    }
}

/// Blessed digests of one seed's outputs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Golden {
    /// The workload seed.
    pub seed: u64,
    /// Label → digest.
    pub digests: BTreeMap<String, u64>,
}

const HEADER: &str = "# fadr-benchmark golden digests (fadr-benchmark-golden/1)";

impl Golden {
    /// Where the golden file of `seed` lives.
    pub fn path(seed: u64) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("golden")
            .join(format!("seed-{seed:016x}.txt"))
    }

    /// Load the golden file of `seed`, if one was blessed.
    ///
    /// # Errors
    ///
    /// Returns a message when the file exists but cannot be read or parsed.
    pub fn load(seed: u64) -> Result<Option<Golden>, String> {
        let path = Self::path(seed);
        match std::fs::read_to_string(&path) {
            Ok(text) => Self::parse(&text)
                .map(Some)
                .map_err(|e| format!("{}: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    /// Render as the golden file format.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{HEADER}\n# Blessed from the sequential Simulator; regenerate with \
             `fadr-benchmark bless --seed {:#x}`.\nseed {:#x}\n",
            self.seed, self.seed
        );
        for (label, d) in &self.digests {
            let _ = writeln!(s, "{label} {d:016x}");
        }
        s
    }

    /// Parse the golden file format.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut g = Golden::default();
        let mut saw_seed = false;
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("line {}: malformed: {line}", i + 1);
            let (key, value) = line.split_once(' ').ok_or_else(bad)?;
            if key == "seed" {
                g.seed = crate::parse_seed(value).map_err(|_| bad())?;
                saw_seed = true;
            } else {
                let d = u64::from_str_radix(value, 16).map_err(|_| bad())?;
                g.digests.insert(key.to_string(), d);
            }
        }
        if saw_seed {
            Ok(g)
        } else {
            Err("missing `seed` line".into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_roundtrip() {
        let mut g = Golden {
            seed: 0xFAD2,
            ..Golden::default()
        };
        g.digests.insert("a/b".into(), 0x0123_4567_89ab_cdef);
        g.digests.insert("c".into(), 7);
        assert_eq!(Golden::parse(&g.render()).unwrap(), g);
        assert!(Golden::parse("x zz\n").is_err());
        assert!(Golden::parse("a 01\n").is_err());
    }

    #[test]
    fn digest_sees_every_field() {
        let mut a = LatencyStats::new();
        a.record(5);
        let mut b = a.clone();
        b.record(7);
        let d = |s: &LatencyStats| Digest::default().stats(s).finish();
        assert_ne!(d(&a), d(&b));
        let lint = |e| Res::Lint {
            errors: e,
            findings: 1,
            states: 9,
        };
        assert_ne!(lint(0).digest(), lint(1).digest());
        assert!(lint(0).violations().is_empty());
        assert_eq!(lint(2).violations().len(), 1);
    }

    #[test]
    fn checks_count_and_keep_failures() {
        let mut c = Checks::default();
        for i in 0..30 {
            c.check(i % 2 == 0, || format!("f{i}"));
        }
        assert_eq!((c.attempted, c.failed), (30, 15));
        assert_eq!(c.failures.len(), 15);
        assert!((c.fail_frac() - 0.5).abs() < 1e-12);
    }
}
