//! The `certify` command-line front end (shared by the `certify` bin
//! targets of `fadr-verify` and the root `fadroute` facade).
//!
//! ```text
//! certify --family hypercube --n 10
//! certify --family mesh --width 32 --height 32 --algo static-hang
//! certify --family torus --width 16 --height 16
//! certify --family se --n 12
//! certify --family se --n 4 --algo paper-literal --expect-reject --dot cycle.dot
//! certify --family hypercube --n 8 --faults plan.json --out cert.json
//! ```
//!
//! On acceptance the emitted certificate is immediately re-validated by
//! the independent checker, printed as a summary, and (with `--out` /
//! `--out-dir`) written as `fadr-verify/1` JSON. On rejection the
//! violation, the counterexample cycle with its route witnesses, and
//! (with `--dot`) a Graphviz rendering are produced. With `--lint` the
//! fadr-lint battery runs first and lint errors skip certification.
//!
//! Exit status follows the workspace-wide convention: 0 clean, 1
//! findings (rejection, or acceptance under `--expect-reject`), 2 on
//! usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use crate::{certify, check_certificate, ClassifierMode, Outcome};
use fadr_core::scheme::{with_scheme, SchemeArgs, SchemeSpec, SchemeVisitor};
use fadr_lint::{lint_scheme, LintConfig};
use fadr_qdg::sym::Symmetry;
use fadr_qdg::SnapshotMsg;

struct Opts {
    scheme: SchemeSpec,
    out: Option<PathBuf>,
    out_dir: Option<PathBuf>,
    dot: Option<PathBuf>,
    faults: Option<PathBuf>,
    expect_reject: bool,
    lint: bool,
}

fn usage() -> String {
    format!(
        "usage: certify --family F [options]\n\
         \n\
         {}\n\
         \n\
         --out FILE        write the certificate JSON to FILE\n\
         --out-dir DIR     write the certificate JSON to DIR/<scheme>.json\n\
         --dot FILE        write the counterexample cycle as Graphviz on rejection\n\
         --faults FILE     certify the degraded QDG after FILE's fadr-faults/1 plan\n\
         --lint            run the fadr-lint battery first; skip certification on lint errors\n\
         --expect-reject   exit 0 iff the scheme is rejected",
        SchemeArgs::help()
    )
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut scheme = SchemeArgs::default();
    let (mut out, mut out_dir, mut dot, mut faults) = (None, None, None, None);
    let (mut expect_reject, mut lint) = (false, false);
    let want = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(a) = args.next() {
        if scheme.take(&a, || want(&mut args, &a))? {
            continue;
        }
        match a.as_str() {
            "--out" => out = Some(PathBuf::from(want(&mut args, "--out")?)),
            "--out-dir" => out_dir = Some(PathBuf::from(want(&mut args, "--out-dir")?)),
            "--dot" => dot = Some(PathBuf::from(want(&mut args, "--dot")?)),
            "--faults" => faults = Some(PathBuf::from(want(&mut args, "--faults")?)),
            "--expect-reject" => expect_reject = true,
            "--lint" => lint = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(Opts {
        scheme: scheme.spec().map_err(|e| format!("{e}\n{}", usage()))?,
        out,
        out_dir,
        dot,
        faults,
        expect_reject,
        lint,
    })
}

/// Parse `std::env::args`, certify the requested instance, and return
/// the process exit code.
pub fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            // `--help` surfaces the usage text through the same path but
            // is not an error.
            if e == usage() {
                println!("{e}");
                return ExitCode::SUCCESS;
            }
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    ExitCode::from(with_scheme(&opts.scheme, Run(&opts)))
}

/// Certifies the scheme the registry builds: with `--faults`, the
/// degraded scheme after the plan's permanent faults; otherwise the
/// scheme as-is.
struct Run<'a>(&'a Opts);

impl SchemeVisitor for Run<'_> {
    type Out = u8;

    fn visit<R>(self, rf: R) -> u8
    where
        R: Symmetry + Clone + Send + 'static,
        R::Msg: Send + SnapshotMsg,
    {
        let (rf, opts) = (&rf, self.0);
        let Some(path) = &opts.faults else {
            return run_scheme(rf, opts);
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                return 2;
            }
        };
        let plan = match fadr_sim::FaultPlan::parse(&text) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("bad fault plan {}: {e}", path.display());
                return 2;
            }
        };
        let n = fadr_qdg::RoutingFunction::topology(rf).num_nodes();
        match crate::Faulted::new(rf, &plan.final_dead_nodes(n), &plan.final_dead_links()) {
            Ok(f) => run_scheme(&f, opts),
            Err(e) => {
                eprintln!("fault plan does not fit {}: {e}", rf.name());
                2
            }
        }
    }
}

fn run_scheme<R: Symmetry + ?Sized>(rf: &R, opts: &Opts) -> u8 {
    if opts.lint {
        // Static pre-pass on the scheme about to be certified (the
        // degraded wrapper when --faults is in play): lint errors are
        // certain rejections with a localized clause, so skip the
        // counterexample search and gate on them directly.
        let report = lint_scheme(rf, &LintConfig::default());
        print!("{}", report.render_text());
        if report.errors() > 0 {
            println!(
                "LINT-GATED {} ({} error(s)); certification skipped",
                rf.name(),
                report.errors()
            );
            return u8::from(!opts.expect_reject);
        }
    }
    let started = std::time::Instant::now();
    let outcome = certify(rf);
    let elapsed = started.elapsed();
    match outcome {
        Outcome::Certified(cert) => {
            if let Err(e) = check_certificate(rf, &cert) {
                eprintln!("INTERNAL ERROR: emitted certificate fails validation: {e}");
                return 1;
            }
            let mode = match &cert.classifier {
                ClassifierMode::Scheme { description } => {
                    format!("scheme symmetry ({description})")
                }
                ClassifierMode::Concrete => "concrete (identity classifier)".into(),
            };
            println!("CERTIFIED  {} on {}", cert.algorithm, cert.topology);
            println!("  classifier:      {mode}");
            println!(
                "  destinations:    {}",
                if cert.all_dsts {
                    format!("all {}", cert.nodes)
                } else {
                    format!("{} representatives of {}", cert.dsts.len(), cert.nodes)
                }
            );
            println!(
                "  classes/queues:  {} ranked classes over {} concrete queues",
                cert.ranks.len(),
                cert.queues_seen
            );
            println!(
                "  class edges:     {} static, {} dynamic",
                cert.static_class_edges, cert.dynamic_class_edges
            );
            println!(
                "  wormhole scope:  adaptive {}, static-VC in scope",
                if cert.adaptive_wormhole_in_scope() {
                    "in scope"
                } else {
                    "OUT of scope (dynamic links add indirect dependencies)"
                }
            );
            println!(
                "  explored:        {} states in {:.2?} (certificate re-validated)",
                cert.states_explored, elapsed
            );
            let json = cert.to_json();
            for path in out_paths(opts, &cert.algorithm) {
                if let Err(e) = std::fs::write(&path, &json) {
                    eprintln!("cannot write {}: {e}", path.display());
                    return 2;
                }
                println!("  certificate:     {}", path.display());
            }
            u8::from(opts.expect_reject)
        }
        Outcome::Rejected(rej) => {
            println!("REJECTED   {}", rf.name());
            println!("  violation: {}", rej.violation);
            if let Some(cx) = &rej.counterexample {
                println!("  counterexample cycle ({} queues):", cx.cycle.len());
                for e in &cx.edges {
                    println!(
                        "    {} -> {}  [route to dst {} in state {}]",
                        e.from, e.to, e.dst, e.msg
                    );
                }
                if let Some(path) = &opts.dot {
                    if let Err(e) = std::fs::write(path, &cx.dot) {
                        eprintln!("cannot write {}: {e}", path.display());
                        return 2;
                    }
                    println!("  rendered: {}", path.display());
                }
            }
            u8::from(!opts.expect_reject)
        }
    }
}

/// Where to write the certificate: `--out` verbatim, and/or
/// `--out-dir/<sanitized scheme name>.json`.
fn out_paths(opts: &Opts, algorithm: &str) -> Vec<PathBuf> {
    let mut v = Vec::new();
    if let Some(p) = &opts.out {
        v.push(p.clone());
    }
    if let Some(dir) = &opts.out_dir {
        let safe: String = algorithm
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        v.push(dir.join(format!("{safe}.json")));
    }
    v
}
