//! The `lint` command-line front end.
//!
//! ```text
//! lint --family hypercube --n 8
//! lint --family se --n 4 --algo paper-literal --json out.json
//! lint --family hypercube --n 4 --faults plan.json --expect fault-dead-end
//! lint --family mesh --width 16 --height 16 --algo xy --deny-warnings
//! lint --list
//! ```
//!
//! Families, sizes and their bounds come from the scheme registry
//! (`fadr_core::scheme`), as in the `certify` bin. Exit status: 0 when the
//! battery is clean (no errors; warnings tolerated unless
//! `--deny-warnings`), 1 when findings gate, 2 on usage or I/O errors.
//! With `--expect ID...` the polarity flips to corpus mode: exit 0 iff
//! every expected lint fired (the fail-closed negative-corpus check).

use std::path::PathBuf;
use std::process::ExitCode;

use fadr_core::scheme::{with_scheme, SchemeArgs, SchemeSpec, SchemeVisitor};
use fadr_qdg::sym::Symmetry;
use fadr_qdg::SnapshotMsg;
use fadr_sim::FaultPlan;

use crate::{lint_all, LintConfig, LintId, Report, ALL_LINTS};

#[derive(Debug)]
struct Opts {
    scheme: SchemeSpec,
    faults: Option<PathBuf>,
    json: Option<PathBuf>,
    allow: Vec<LintId>,
    only: Vec<LintId>,
    deny_warnings: bool,
    expect: Vec<LintId>,
}

fn usage() -> String {
    format!(
        "usage: lint --family F [options]\n\
         \n\
         {}\n\
         \n\
         --faults FILE     also lint FILE's fadr-faults/1 plan against the instance\n\
         --json FILE       write the fadr-lint/1 report to FILE\n\
         --allow ID        disable a lint (repeatable)\n\
         --only ID         run only the named lint(s) (repeatable)\n\
         --deny-warnings   gate on warnings too, not just errors\n\
         --expect ID       corpus mode: exit 0 iff every expected lint fired (repeatable)\n\
         --list            print the lint registry and exit",
        SchemeArgs::help()
    )
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut scheme = SchemeArgs::default();
    let (mut faults, mut json, mut deny_warnings) = (None, None, false);
    let (mut allow, mut only, mut expect) = (Vec::new(), Vec::new(), Vec::new());
    let want = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or(format!("{flag} needs a value"))
    };
    let lint_id =
        |s: String| LintId::from_id(&s).ok_or(format!("unknown lint id {s} (see lint --list)"));
    while let Some(a) = args.next() {
        if scheme.take(&a, || want(&mut args, &a))? {
            continue;
        }
        match a.as_str() {
            "--faults" => faults = Some(PathBuf::from(want(&mut args, "--faults")?)),
            "--json" => json = Some(PathBuf::from(want(&mut args, "--json")?)),
            "--allow" => allow.push(lint_id(want(&mut args, "--allow")?)?),
            "--only" => only.push(lint_id(want(&mut args, "--only")?)?),
            "--deny-warnings" => deny_warnings = true,
            "--expect" => expect.push(lint_id(want(&mut args, "--expect")?)?),
            "--list" => return Err(registry()),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(Opts {
        scheme: scheme.spec().map_err(|e| format!("{e}\n{}", usage()))?,
        faults,
        json,
        allow,
        only,
        deny_warnings,
        expect,
    })
}

/// The `--list` output: every lint with severity and clause.
fn registry() -> String {
    let mut s = String::from("the fadr-lint battery:\n");
    for &l in ALL_LINTS {
        s.push_str(&format!(
            "  {:<26} {:<8} {}\n",
            l.id(),
            l.severity().as_str(),
            l.clause()
        ));
    }
    s.pop();
    s
}

/// Parse `std::env::args`, lint the requested instance, and return the
/// process exit code.
pub fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            // `--help` and `--list` surface through the same path but are
            // not errors.
            let informational = e == usage() || e.starts_with("the fadr-lint battery");
            if informational {
                println!("{e}");
                return ExitCode::SUCCESS;
            }
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    ExitCode::from(with_scheme(&opts.scheme, Run(&opts)))
}

/// Lints the scheme the registry builds.
struct Run<'a>(&'a Opts);

impl SchemeVisitor for Run<'_> {
    type Out = u8;

    fn visit<R>(self, rf: R) -> u8
    where
        R: Symmetry + Clone + Send + 'static,
        R::Msg: Send + SnapshotMsg,
    {
        let (rf, opts) = (&rf, self.0);
        let plan = match &opts.faults {
            None => None,
            Some(path) => {
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("cannot read {}: {e}", path.display());
                        return 2;
                    }
                };
                match FaultPlan::parse(&text) {
                    Ok(p) => Some(p),
                    Err(e) => {
                        eprintln!("bad fault plan {}: {e}", path.display());
                        return 2;
                    }
                }
            }
        };
        let cfg = if opts.only.is_empty() {
            LintConfig {
                disabled: opts.allow.clone(),
            }
        } else {
            LintConfig::only(&opts.only)
        };
        let started = std::time::Instant::now();
        let report = lint_all(rf, plan.as_ref(), &cfg);
        print!("{}", report.render_text());
        println!("completed in {:.2?}", started.elapsed());
        if let Some(path) = &opts.json {
            if let Err(e) = std::fs::write(path, report.to_json()) {
                eprintln!("cannot write {}: {e}", path.display());
                return 2;
            }
            println!("report: {}", path.display());
        }
        verdict(&report, opts)
    }
}

/// Gate: normally 0 iff no errors (and no warnings under
/// `--deny-warnings`); with `--expect`, 0 iff every expected lint fired.
fn verdict(report: &Report, opts: &Opts) -> u8 {
    if !opts.expect.is_empty() {
        let missing: Vec<&str> = opts
            .expect
            .iter()
            .filter(|&&l| !report.has(l))
            .map(|l| l.id())
            .collect();
        return if missing.is_empty() {
            println!("expected lint(s) fired");
            0
        } else {
            eprintln!("expected lint(s) did not fire: {}", missing.join(", "));
            1
        };
    }
    let gated = report.errors()
        + if opts.deny_warnings {
            report.warnings()
        } else {
            0
        };
    u8::from(gated > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fadr_core::scheme::Size;

    fn opts(args: &[&str]) -> Result<Opts, String> {
        parse(args.iter().map(ToString::to_string))
    }

    #[test]
    fn parse_family_size_and_lists() {
        let o = opts(&[
            "--family",
            "se",
            "--n",
            "4",
            "--algo",
            "paper-literal",
            "--expect",
            "class-capacity-exhausted",
            "--allow",
            "shadowed-buffer-class",
        ])
        .unwrap();
        assert_eq!(o.scheme.scheme().name, "shuffle-exchange-paper");
        assert_eq!(o.scheme.size(), &Size::Dims(4));
        assert_eq!(o.expect, vec![LintId::ClassCapacityExhausted]);
        assert_eq!(o.allow, vec![LintId::ShadowedBufferClass]);
    }

    #[test]
    fn square_defaults_from_n() {
        let o = opts(&["--family", "mesh", "--n", "7"]).unwrap();
        assert_eq!(
            o.scheme.size(),
            &Size::Sides {
                width: 7,
                height: 7
            }
        );
    }

    #[test]
    fn unknown_lint_id_is_a_usage_error() {
        assert!(opts(&["--only", "bogus"]).unwrap_err().contains("bogus"));
    }

    #[test]
    fn registry_names_every_lint() {
        let r = registry();
        for &l in ALL_LINTS {
            assert!(r.contains(l.id()), "registry missing {}", l.id());
        }
    }
}
