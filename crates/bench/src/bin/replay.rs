//! Replay a flight-recorder checkpoint.
//!
//! ```text
//! replay --snapshot FILE [--to CYCLE] [--journal-out PATH] [--diff REF]
//!        [--watchdog K] [--waitgraph] [--faults PLAN.json] [--dot PATH]
//! ```
//!
//! * `--snapshot FILE` — a `fadr-snapshot/2` checkpoint written by
//!   `tables`/`sweep`/`perf` under `--checkpoint-at C --checkpoint-dir D`
//!   (the file is `D/<label>.snap`).
//! * `--to CYCLE` — re-execute up to this cycle and pause there
//!   (default: run the restored workload to completion).
//! * `--journal-out PATH` — write the replayed segment's journal.
//! * `--diff REF` — diff the replayed journal against a reference
//!   journal file (the `--journal` output of the original run); the
//!   reference is windowed to the replayed cycle range first. Exits
//!   with failure and prints the first divergent event if they differ —
//!   a divergence localizes the earliest cycle at which two runs that
//!   should be deterministic twins stopped agreeing.
//! * `--watchdog K` — attach a no-progress watchdog to the replay (for
//!   re-triggering a recorded wedge under observation).
//! * `--waitgraph` — attach the live wait-for-graph probe.
//! * `--faults PLAN.json` — the original run's fault plan, when it had
//!   one (post-checkpoint fault events replay from the schedule).
//! * `--dot PATH` — write the stall report's wait-for graph as Graphviz
//!   DOT when the watchdog fires.
//!
//! Exit status follows the workspace-wide convention: 0 clean, 1 when a
//! divergence is found, 2 on usage or I/O errors.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use fadr_bench::replay::{first_divergence, journal_window, replay, select_section, ReplayOptions};
use fadr_sim::FaultPlan;

struct Args {
    snapshot: PathBuf,
    journal_out: Option<PathBuf>,
    diff: Option<PathBuf>,
    dot: Option<PathBuf>,
    ro: ReplayOptions,
}

const USAGE: &str = "usage: replay --snapshot FILE [--to CYCLE] [--journal-out PATH] \
     [--diff REF] [--watchdog K] [--waitgraph] [--faults PLAN.json] [--dot PATH]";

fn parse_args() -> Result<Args, String> {
    let mut snapshot: Option<PathBuf> = None;
    let mut args = Args {
        snapshot: PathBuf::new(),
        journal_out: None,
        diff: None,
        dot: None,
        ro: ReplayOptions::default(),
    };
    let mut it = std::env::args().skip(1);
    let mut faults_path: Option<PathBuf> = None;
    while let Some(a) = it.next() {
        let mut next = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--snapshot" => snapshot = Some(PathBuf::from(next("--snapshot")?)),
            "--to" => {
                args.ro.to = Some(
                    next("--to")?
                        .parse()
                        .map_err(|e| format!("--to needs a cycle number: {e}"))?,
                );
            }
            "--journal-out" => args.journal_out = Some(PathBuf::from(next("--journal-out")?)),
            "--diff" => args.diff = Some(PathBuf::from(next("--diff")?)),
            "--dot" => args.dot = Some(PathBuf::from(next("--dot")?)),
            "--watchdog" => {
                let k: u64 = next("--watchdog")?
                    .parse()
                    .map_err(|e| format!("--watchdog needs a cycle count: {e}"))?;
                if k == 0 {
                    return Err("--watchdog window must be at least 1 cycle".into());
                }
                args.ro.watchdog = Some(k);
            }
            "--waitgraph" => args.ro.waitgraph = true,
            "--faults" => faults_path = Some(PathBuf::from(next("--faults")?)),
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    args.snapshot = snapshot.ok_or_else(|| format!("--snapshot is required\n{USAGE}"))?;
    if let Some(path) = faults_path {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("--faults {}: {e}", path.display()))?;
        let plan =
            FaultPlan::parse(&text).map_err(|e| format!("--faults {}: {e}", path.display()))?;
        args.ro.faults = Some(Box::leak(Box::new(plan)));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if e == USAGE {
                println!("{e}");
                return ExitCode::SUCCESS;
            }
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let text = match std::fs::read_to_string(&args.snapshot) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("--snapshot {}: {e}", args.snapshot.display());
            return ExitCode::from(2);
        }
    };
    let out = match replay(&text, &args.ro) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("replay failed: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "replayed {} (algo={} table={} n={} cap={} seed={})",
        out.meta.label,
        out.meta.algo.algo(),
        out.meta.table,
        out.meta.n,
        out.meta.cap,
        out.meta.seed,
    );
    println!(
        "cycles {} -> {}: {}",
        out.start_cycle, out.end_cycle, out.outcome
    );
    println!(
        "journal: {} event(s), hash {:#018x}, {} evicted",
        out.journal.count(),
        out.journal.hash(),
        out.journal.dropped
    );
    if let Some(w) = &out.waitgraph {
        println!(
            "wait-graph: max chain depth {} (cycle {}), {} cycle-candidate cycle(s)",
            w.max_chain_depth, w.max_chain_cycle, w.cycle_candidate_cycles
        );
    }
    if let Some(s) = &out.stall {
        println!(
            "stall: {} at cycle {} ({} in flight, {} link(s) in the window)",
            s.verdict(),
            s.cycle,
            s.in_flight,
            s.links_in_window
        );
        if let Some(path) = &args.dot {
            if let Err(e) = std::fs::write(path, s.to_dot()) {
                eprintln!("--dot {}: {e}", path.display());
                return ExitCode::from(2);
            }
            println!("wait-for graph written to {}", path.display());
        }
    } else if args.dot.is_some() {
        eprintln!("--dot given but no stall report (watchdog absent or never fired)");
    }
    let lines = out.journal.lines();
    if let Some(path) = &args.journal_out {
        let mut body = format!(
            "# replay {} events={} hash={:#018x} dropped={}\n",
            out.meta.label,
            out.journal.count(),
            out.journal.hash(),
            out.journal.dropped
        );
        for line in &lines {
            body.push_str(line);
            body.push('\n');
        }
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("--journal-out {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("journal written to {}", path.display());
    }
    if let Some(path) = &args.diff {
        let ref_text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("--diff {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let ref_lines: Vec<String> = ref_text.lines().map(str::to_string).collect();
        // The reference is a full-run journal: pick the section belonging
        // to this snapshot's work unit, then restrict it to the cycle
        // window the replay covered (the replayed journal's floor is the
        // checkpoint cycle, enforced by the engine on restore).
        let section = match select_section(&ref_lines, &out.meta) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("--diff {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let reference = journal_window(&section, out.start_cycle, Some(out.end_cycle));
        if out.journal.dropped > 0 {
            eprintln!(
                "warning: replay journal evicted {} event(s); the diff may flag ring \
                 truncation rather than real divergence (raise the journal capacity)",
                out.journal.dropped
            );
        }
        match first_divergence(&lines, &reference) {
            None => {
                println!(
                    "diff: identical over cycles {}..={} ({} event(s))",
                    out.start_cycle,
                    out.end_cycle,
                    reference.len()
                );
            }
            Some((i, got, want)) => {
                println!("diff: FIRST DIVERGENT EVENT at journal line {i}");
                println!(
                    "  replay:    {}",
                    got.as_deref().unwrap_or("<journal ended>")
                );
                println!(
                    "  reference: {}",
                    want.as_deref().unwrap_or("<journal ended>")
                );
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
