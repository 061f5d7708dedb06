//! `fadr-benchmark` command line; see README.md for the metrics and
//! workloads.
//!
//! ```text
//! fadr-benchmark run   [--seed S] [--workload W]... [--seconds T] [--trace 0|1] [--out FILE]
//! fadr-benchmark trace [--seed S] [--seconds T] [--out FILE]
//! fadr-benchmark bless --seed S
//! fadr-benchmark compare --base A.json... --head B.json...
//! ```
//!
//! Exit status: 0 when every output check passed, 1 when one failed (or
//! `compare` found a regression), 2 on usage or I/O errors.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use fadr_benchmark::golden::Golden;
use fadr_benchmark::json::Json;
use fadr_benchmark::workloads::{Scale, Workload, NAMES};
use fadr_benchmark::{exit_status, layers, measure, parse_seed, report, sys, Budget, DEFAULT_SEED};

const USAGE: &str = "usage:
  fadr-benchmark run   [--seed S] [--workload W]... [--seconds T] [--trace 0|1] [--out FILE]
  fadr-benchmark trace [--seed S] [--seconds T] [--out FILE]
  fadr-benchmark bless --seed S
  fadr-benchmark compare --base A.json... --head B.json...

  --seed S       workload seed, decimal or 0x-hex (default 0xfad2)
  --workload W   paper_tables | lane_replicas | faulted_resume | certify_lint
                 (repeatable; default: all four)
  --seconds T    time-boxed: passes sized for short runs, repeated for T seconds
                 (default: the paper's sizes, a fixed number of passes)
  --trace 1      the traced run: one traced pass of every workload (whatever
                 --workload names) and per-layer metrics instead of end-to-end ones
  --out FILE     write the result document (JSON) to FILE";

struct RunArgs {
    seed: u64,
    workloads: Vec<String>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
}

enum Cmd {
    Run(RunArgs),
    Bless(u64),
    Compare(Vec<PathBuf>, Vec<PathBuf>),
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    let (sub, rest) = args.split_first().ok_or("missing subcommand")?;
    let mut a = RunArgs {
        seed: DEFAULT_SEED,
        workloads: Vec::new(),
        seconds: None,
        trace: sub == "trace",
        out: None,
    };
    if sub == "compare" {
        let (mut base, mut head) = (Vec::new(), Vec::new());
        let mut side = None;
        for x in rest {
            match x.as_str() {
                "--base" => side = Some(false),
                "--head" => side = Some(true),
                f => match side {
                    Some(false) => base.push(PathBuf::from(f)),
                    Some(true) => head.push(PathBuf::from(f)),
                    None => return Err(format!("{f}: name --base or --head first")),
                },
            }
        }
        if base.is_empty() || head.is_empty() {
            return Err("compare needs --base and --head documents".into());
        }
        return Ok(Cmd::Compare(base, head));
    }
    let mut it = rest.iter();
    let mut seed_given = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => {
                a.seed = parse_seed(value()?)?;
                seed_given = true;
            }
            "--workload" => {
                let w = value()?;
                if !NAMES.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}"));
                }
                a.workloads.push(w.clone());
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match sub.as_str() {
        "run" | "trace" => Ok(Cmd::Run(a)),
        "bless" if seed_given => Ok(Cmd::Bless(a.seed)),
        "bless" => Err("bless needs --seed".into()),
        other => Err(format!("unknown subcommand {other}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let cmd = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        Cmd::Run(a) => {
            if sys::debug_build() {
                eprintln!("error: refusing to benchmark a debug build; use `cargo run --release`");
                return ExitCode::from(2);
            }
            run(&a)
        }
        Cmd::Bless(seed) => bless(seed),
        Cmd::Compare(base, head) => compare(&base, &head),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(a: &RunArgs) -> Result<ExitCode, String> {
    let scale = if a.seconds.is_some() {
        Scale::Timed
    } else {
        Scale::Paper
    };
    let golden = Golden::load(a.seed)?;
    let golden_name = golden.as_ref().map_or_else(
        || "none".to_string(),
        |_| {
            let path = Golden::path(a.seed);
            path.file_name()
                .map_or(String::new(), |f| f.to_string_lossy().into_owned())
        },
    );
    println!(
        "seed {:#x}, scale {}, golden: {golden_name}",
        a.seed,
        scale.as_str()
    );
    if a.trace {
        let t = layers::run(a.seed, scale, golden.as_ref());
        let passes = Json::Obj(
            NAMES
                .iter()
                .map(|n| ((*n).to_string(), Json::from(1u64)))
                .collect(),
        );
        let prov = sys::provenance(repo_root(), a.seed, scale.as_str(), passes);
        let doc_path = a.out.clone().unwrap_or_else(|| {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("trace-{:x}.json", a.seed))
        });
        let spans_path = doc_path.with_extension("spans.jsonl");
        write(&spans_path, &t.tracer.to_jsonl())?;
        let doc = report::trace_document(prov, &golden_name, &t, &spans_path.to_string_lossy());
        write(&doc_path, &(doc.render() + "\n"))?;
        print!("{}", report::print_traced(&t));
        println!(
            "spans: {}\ntrace document: {}",
            spans_path.display(),
            doc_path.display()
        );
        let metrics: Vec<(String, f64, &str)> = t
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.value, m.unit))
            .collect();
        println!("{}", report::result_line(&t.checks, &metrics));
        return Ok(ExitCode::from(exit_status(&t.checks)));
    }

    let selected: Vec<&str> = if a.workloads.is_empty() {
        NAMES.to_vec()
    } else {
        a.workloads.iter().map(String::as_str).collect()
    };
    let [name] = selected.as_slice() else {
        return run_each_in_child(a, &selected, scale, &golden_name);
    };
    let w = Workload::named(name, scale).ok_or_else(|| format!("unknown workload {name}"))?;
    let budget = a
        .seconds
        .map_or(Budget::Passes(w.passes()), Budget::Seconds);
    let m = measure(&w, a.seed, golden.as_ref(), budget);
    print!("{}", report::print_measured(&m));
    if let Some(path) = &a.out {
        let passes = Json::obj().with(m.name, m.wall_s.len());
        let prov = sys::provenance(repo_root(), a.seed, scale.as_str(), passes);
        let workloads = Json::obj().with(m.name, report::workload_json(&m));
        let doc = report::run_document(prov, &golden_name, workloads);
        write(path, &(doc.render() + "\n"))?;
        println!("result document: {}", path.display());
    }
    println!(
        "{}",
        report::result_line(&m.checks, &report::gated_metrics(&m))
    );
    Ok(ExitCode::from(exit_status(&m.checks)))
}

/// Run each workload in a child process of its own and merge their
/// result documents. The allocator keeps memory a finished workload
/// freed, so in a shared process a later workload's peak RSS would count
/// an earlier one's heap.
fn run_each_in_child(
    a: &RunArgs,
    selected: &[&str],
    scale: Scale,
    golden_name: &str,
) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let (mut workloads, mut passes) = (Json::obj(), Json::obj());
    let mut status = 0;
    let seed = a.seed.to_string();
    for &w in selected {
        let part = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("run-{:x}-{w}.json", a.seed));
        let mut child = Command::new(&exe);
        child.args(["run", "--workload", w, "--seed", &seed, "--out"]);
        child.arg(&part);
        if let Some(s) = a.seconds {
            child.arg("--seconds").arg(s.to_string());
        }
        let exit = child.status().map_err(|e| format!("running {w}: {e}"))?;
        match exit.code() {
            Some(c @ (0 | 1)) => status = status.max(c),
            _ => return Err(format!("{w}: {exit}")),
        }
        let text =
            std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
        let entry = Json::parse(&text)?
            .get("workloads")
            .and_then(|d| d.get(w))
            .cloned()
            .ok_or_else(|| format!("{}: no {w} entry", part.display()))?;
        passes = passes.with(w, entry.get("passes").cloned().unwrap_or(Json::Null));
        workloads = workloads.with(w, entry);
    }
    if let Some(path) = &a.out {
        let prov = sys::provenance(repo_root(), a.seed, scale.as_str(), passes);
        let doc = report::run_document(prov, golden_name, workloads);
        write(path, &(doc.render() + "\n"))?;
        println!("result document: {}", path.display());
    }
    Ok(ExitCode::from(u8::try_from(status).unwrap_or(1)))
}

fn bless(seed: u64) -> Result<ExitCode, String> {
    let mut digests = BTreeMap::new();
    for name in NAMES {
        for scale in [Scale::Paper, Scale::Timed] {
            let w = Workload::named(name, scale).expect("every listed workload exists");
            for o in w.prepare(seed).reference(true) {
                let bad = o.res.violations();
                if !bad.is_empty() {
                    return Err(format!("refusing to bless {}: {}", o.label, bad.join(", ")));
                }
                let d = o.res.digest();
                if digests
                    .insert(o.label.clone(), d)
                    .is_some_and(|prev| prev != d)
                {
                    return Err(format!("{}: differs between scales", o.label));
                }
            }
        }
    }
    let g = Golden { seed, digests };
    let path = Golden::path(seed);
    write(&path, &g.render())?;
    println!(
        "blessed {} digests into {}",
        g.digests.len(),
        path.display()
    );
    Ok(ExitCode::SUCCESS)
}

fn compare(base: &[PathBuf], head: &[PathBuf]) -> Result<ExitCode, String> {
    let load = |paths: &[PathBuf]| -> Result<Vec<Json>, String> {
        paths
            .iter()
            .map(|p| {
                let text =
                    std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
                Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
            })
            .collect()
    };
    let table = report::compare_documents(&load(base)?, &load(head)?)?;
    print!("{table}");
    Ok(if table.contains(" regressed") {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
