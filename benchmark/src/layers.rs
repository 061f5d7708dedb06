//! The traced run: one traced pass of every workload, plus probes and
//! twins that run outside the workload spans, reduced to per-layer
//! metrics named after the crate and module each one measures.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fadr_core::{HypercubeFullyAdaptive, MeshFullyAdaptive, ShuffleExchangeRouting, TorusTwoPhase};
use fadr_metrics::CounterSink;
use fadr_qdg::{QueueId, QueueKind, RoutingFunction};
use fadr_sim::{FaultPlan, ShardedSimulator, SimConfig, Simulator};
use fadr_workloads::Pattern;

use crate::golden::{Checks, Golden, Res};
use crate::stats::Better;
use crate::sys;
use crate::trace::{Span, Tracer};
use crate::workloads::{self, Load, Prepared, Scale, Workload, NAMES};

/// One per-layer metric.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetric {
    /// Name (`crate.module.quantity[.size]`).
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The traced run's results.
#[derive(Debug)]
pub struct Traced {
    /// Per-layer metrics, in [`layer_names`] order.
    pub metrics: Vec<LayerMetric>,
    /// Output checks of the traced passes, twins and counter pass.
    pub checks: Checks,
    /// Every recorded span.
    pub tracer: Tracer,
}

/// Central-queue states the `core` probe samples per scheme.
const PROBE_STATES: usize = 2048;

/// The per-layer metric names the traced run reports at `scale`, with
/// the size suffixes of that scale's workloads.
pub fn layer_names(scale: Scale) -> Vec<String> {
    let mut names: Vec<String> = ["hypercube_fa", "mesh_fa", "torus", "se"]
        .iter()
        .map(|s| format!("core.{s}.ns_per_call"))
        .collect();
    let mut push = |s: &str| names.push(s.to_string());
    for name in NAMES {
        match Workload::named(name, scale).expect("every listed workload exists") {
            Workload::PaperTables(t) => {
                push("sim.engine.new_s");
                push("sim.engine.run_static_s");
                push("sim.engine.run_dynamic_s");
                let mut dims: Vec<usize> = t.runs.iter().map(|r| r.1).collect();
                dims.sort_unstable();
                dims.dedup();
                for n in dims {
                    push(&format!("sim.engine.ns_per_node_cycle.n{n}"));
                }
                push("sim.engine.link_hops");
                push("sim.engine.dynamic_hop_frac");
                push("sim.engine.injection_rate");
            }
            Workload::LaneReplicas(l) => {
                for q in ["new_s", "states", "run_s"] {
                    for &(n, _) in &l.groups {
                        push(&format!("sim.lanes.{q}.n{n}"));
                    }
                }
                let largest = l.groups.iter().map(|g| g.0).max().unwrap_or(0);
                push(&format!("sim.lanes.new_rss_mb.n{largest}"));
            }
            Workload::FaultedResume(_) => {
                for s in [
                    "sim.sharded.new_s",
                    "sim.sharded.run_s",
                    "sim.sharded.cut_fraction",
                    "sim.sharded.speedup",
                    "sim.sharded.host_threads",
                    "sim.fault.parse_s",
                    "sim.fault.overhead_ratio",
                    "sim.snapshot.checkpoint_s",
                    "sim.snapshot.restore_s",
                    "sim.snapshot.bytes",
                ] {
                    push(s);
                }
            }
            Workload::CertifyLint(c) => {
                let cube = format!("hypercube{}", c.cube);
                for inst in [
                    &cube,
                    &format!("mesh{}", c.grid),
                    &format!("torus{}", c.grid),
                ] {
                    push(&format!("verify.certify_s.{inst}"));
                }
                push(&format!("verify.certify_s.se{}", c.se));
                push("verify.certify_plan_s");
                push("verify.check_s");
                push(&format!("verify.classes.se{}", c.se));
                for inst in [
                    &cube,
                    &format!("mesh{}", c.grid),
                    &format!("se{}", c.lint_se),
                ] {
                    push(&format!("lint.scheme_s.{inst}"));
                }
                push("lint.fault_plan_s");
                push("lint.findings");
            }
        }
    }
    push("metrics.reduce_s");
    for name in NAMES {
        push(&format!("trace.overhead_frac.{name}"));
    }
    names
}

/// The unit of per-layer metric `name`, read off its naming convention
/// (`ns_per_*` ns, `*_s` seconds, `*rss_mb` MiB, `bytes`, ratios, and
/// counts for the rest).
pub fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("ns_per_call") || name.contains("ns_per_node_cycle") {
        "ns"
    } else if name.ends_with("_s") || name.contains("_s.") {
        "s"
    } else if name.contains("rss_mb") {
        "MiB"
    } else if name.ends_with("bytes") {
        "bytes"
    } else if name.ends_with("frac")
        || name.ends_with("ratio")
        || name.ends_with("rate")
        || name.ends_with("fraction")
        || name.ends_with("speedup")
        || name.contains("overhead_frac")
    {
        "ratio"
    } else {
        "count"
    }
}

/// Which way per-layer metric `name` improves: rates, adaptivity and
/// speed-up read higher-is-better; times, sizes and overheads lower.
pub fn layer_better(name: &str) -> Better {
    let higher = [
        "speedup",
        "injection_rate",
        "dynamic_hop_frac",
        "host_threads",
    ];
    if higher.iter().any(|h| name.ends_with(h)) {
        Better::Higher
    } else {
        Better::Lower
    }
}

/// Total seconds of spans called `name` (in `workload`, if given).
fn span_s(spans: &[Span], workload: Option<&str>, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && workload.is_none_or(|w| s.workload == w))
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .sum()
}

/// Run the traced measurement at `scale`.
pub fn run(seed: u64, scale: Scale, golden: Option<&Golden>) -> Traced {
    let mut tr = Tracer::new(true);
    let mut checks = Checks::default();
    let mut values: Vec<(String, f64)> = Vec::new();
    let mut facts = BTreeMap::new();
    for name in NAMES {
        let w = Workload::named(name, scale).expect("every listed workload exists");
        let p = w.prepare(seed);
        // Warm-up pass, traced pass, then the untraced pass it is
        // compared with, so both timed passes run warm.
        let mut plain = Tracer::new(false);
        p.pass(&mut plain);
        let out = p.pass(&mut tr);
        let traced = tr.last_s();
        tr.take_setup_s();
        p.pass(&mut plain);
        let untraced = plain.last_s();
        checks.outputs(&out.outs, golden);
        values.push((
            format!("trace.overhead_frac.{name}"),
            traced / untraced - 1.0,
        ));
        for (k, v) in out.facts {
            facts.insert(k, v);
        }
        if let Prepared::FaultedResume {
            spec,
            cfg,
            plan_json,
        } = &p
        {
            values.extend(fault_twins(
                spec.n,
                spec.shards,
                spec.cycles,
                *cfg,
                plan_json,
                &mut checks,
            ));
        }
    }

    // Layer seconds: every span of a call, summed over the workload that
    // makes it (the harness folds run in every workload).
    let spans = tr.spans();
    for (w, span) in [
        ("paper_tables", "sim.engine.new"),
        ("paper_tables", "sim.engine.run_static"),
        ("paper_tables", "sim.engine.run_dynamic"),
        ("faulted_resume", "sim.sharded.new"),
        ("faulted_resume", "sim.sharded.run"),
        ("faulted_resume", "sim.fault.parse"),
        ("faulted_resume", "sim.snapshot.checkpoint"),
        ("faulted_resume", "sim.snapshot.restore"),
        ("certify_lint", "verify.certify_plan"),
        ("certify_lint", "verify.check"),
        ("certify_lint", "lint.fault_plan"),
    ] {
        values.push((format!("{span}_s"), span_s(spans, Some(w), span)));
    }
    values.push((
        "metrics.reduce_s".into(),
        span_s(spans, None, "metrics.reduce"),
    ));
    for (k, v) in &facts {
        match k.strip_prefix("engine.run_s.") {
            Some(n) => {
                let cycles = facts[&format!("engine.node_cycles.{n}")];
                values.push((
                    format!("sim.engine.ns_per_node_cycle.{n}"),
                    v * 1e9 / cycles,
                ));
            }
            None => values.push((k.clone(), *v)),
        }
    }
    values.extend(core_probes(seed));
    values.extend(counter_pass(seed, &mut checks));

    // Report exactly the advertised names, in order; a missing one is a
    // failed check rather than a silently shorter list.
    let names = layer_names(scale);
    let mut metrics = Vec::with_capacity(names.len());
    for name in names {
        let found = values.iter().find(|(k, _)| *k == name).map(|(_, v)| *v);
        checks.check(found.is_some(), || {
            format!("traced run did not measure {name}")
        });
        metrics.push(LayerMetric {
            unit: layer_unit(&name),
            value: found.unwrap_or(f64::NAN),
            name,
        });
    }
    Traced {
        metrics,
        checks,
        tracer: tr,
    }
}

/// Uninterrupted twins of the faulted run: the plan on 1 and on `shards`
/// shards (their results must agree), and `shards` shards without it.
fn fault_twins(
    n: usize,
    shards: usize,
    cycles: u64,
    cfg: SimConfig,
    plan_json: &str,
    checks: &mut Checks,
) -> Vec<(String, f64)> {
    let rf = HypercubeFullyAdaptive::new(n);
    let nodes = 1usize << n;
    let dest = move |s, rng: &mut StdRng| Pattern::Random.draw(s, nodes, rng);
    let plan = FaultPlan::parse(plan_json).ok();
    let timed = |k: usize, plan: Option<FaultPlan>| {
        let mut sim = ShardedSimulator::new(rf, cfg, k);
        if let Some(p) = plan {
            sim = sim.with_faults(p);
        }
        let t0 = Instant::now();
        let res = sim.run_dynamic(1.0, dest, cycles);
        (t0.elapsed().as_secs_f64(), res)
    };
    let (one, r1) = timed(1, plan.clone());
    let (many, rk) = timed(shards, plan);
    let (clean, _) = timed(shards, None);
    let digest = |res| Res::Dynamic { nodes, cycles, res }.digest();
    checks.check(digest(r1) == digest(rk), || {
        format!("faulted run differs between 1 and {shards} shards")
    });
    vec![
        ("sim.sharded.speedup".into(), one / many),
        ("sim.sharded.host_threads".into(), sys::nproc() as f64),
        ("sim.fault.overhead_ratio".into(), many / clean),
    ]
}

/// Nanoseconds per `for_each_transition` call over a fixed seeded sample
/// of central-queue states, for each scheme family.
fn core_probes(seed: u64) -> Vec<(String, f64)> {
    let mut rng = StdRng::seed_from_u64(workloads::mix(seed, 0xc02e));
    vec![
        (
            "core.hypercube_fa.ns_per_call".into(),
            probe(&HypercubeFullyAdaptive::new(12), 1 << 12, &mut rng),
        ),
        (
            "core.mesh_fa.ns_per_call".into(),
            probe(&MeshFullyAdaptive::new(32, 32), 1024, &mut rng),
        ),
        (
            "core.torus.ns_per_call".into(),
            probe(&TorusTwoPhase::new(32, 32), 1024, &mut rng),
        ),
        (
            "core.se.ns_per_call".into(),
            probe(&ShuffleExchangeRouting::new(11), 1 << 11, &mut rng),
        ),
    ]
}

fn probe<R: RoutingFunction>(rf: &R, nodes: usize, rng: &mut StdRng) -> f64 {
    // Random walks from random injections; every central queue visited
    // joins the sample.
    let mut sample: Vec<(QueueId, R::Msg)> = Vec::with_capacity(PROBE_STATES);
    while sample.len() < PROBE_STATES {
        let src = rng.gen_range(0..nodes);
        let dst = rng.gen_range(0..nodes);
        if src == dst {
            continue;
        }
        let mut at = QueueId::inject(src);
        let mut msg = rf.initial_msg(src, dst);
        for _ in 0..4 * rf.max_hops() + 4 {
            let ts = rf.transitions(at, &msg);
            if ts.is_empty() {
                break;
            }
            let t = ts[rng.gen_range(0..ts.len())].clone();
            if t.to.kind == QueueKind::Deliver {
                break;
            }
            (at, msg) = (t.to, t.msg);
            if matches!(at.kind, QueueKind::Central(_)) && sample.len() < PROBE_STATES {
                sample.push((at, msg.clone()));
            }
        }
    }
    let mut calls = 0u64;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < 0.1 {
        for (at, msg) in &sample {
            rf.for_each_transition(*at, msg, &mut |t| {
                black_box(t);
            });
        }
        calls += sample.len() as u64;
    }
    t0.elapsed().as_secs_f64() * 1e9 / calls as f64
}

/// Routing-decision counts from an untimed `CounterSink` pass over all
/// twelve tables at n = 10; identical on every commit that routes the
/// same packets the same way.
fn counter_pass(seed: u64, checks: &mut Checks) -> Vec<(String, f64)> {
    let n = 10;
    let nodes = 1usize << n;
    let (mut links, mut dynamic, mut injected, mut attempts) = (0u64, 0u64, 0u64, 0u64);
    for table in 1..=12 {
        let r = workloads::table_run(seed, table, n);
        let rf = HypercubeFullyAdaptive::new(n);
        let mut sim =
            Simulator::with_recorder(rf, r.cfg, CounterSink::new(nodes, rf.num_classes()));
        match &r.load {
            Load::Static(backlog) => {
                let res = sim.run_static(backlog);
                checks.check(res.drained, || {
                    format!("counter pass: table {table} drains")
                });
            }
            Load::Dynamic(pattern) => {
                let res = sim.run_dynamic(1.0, |s, rng| pattern.draw(s, nodes, rng), 500);
                injected += res.injected;
                attempts += res.attempts;
            }
        }
        let c = sim.into_recorder();
        links += c.links_total();
        dynamic += c.links_dynamic;
    }
    vec![
        ("sim.engine.link_hops".into(), links as f64),
        (
            "sim.engine.dynamic_hop_frac".into(),
            dynamic as f64 / links as f64,
        ),
        (
            "sim.engine.injection_rate".into(),
            injected as f64 / attempts as f64,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_valid_and_bounded() {
        for scale in [Scale::Paper, Scale::Timed] {
            let names = layer_names(scale);
            assert!(names.len() <= 128);
            let mut sorted = names.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), names.len(), "duplicate names");
            for n in &names {
                assert!(n.len() <= 64, "{n}");
                assert!(
                    n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
                    "{n}"
                );
            }
        }
    }

    #[test]
    fn units_follow_the_names() {
        assert_eq!(layer_unit("core.se.ns_per_call"), "ns");
        assert_eq!(layer_unit("sim.engine.ns_per_node_cycle.n10"), "ns");
        assert_eq!(layer_unit("sim.engine.new_s"), "s");
        assert_eq!(layer_unit("verify.certify_s.se9"), "s");
        assert_eq!(layer_unit("sim.lanes.new_rss_mb.n10"), "MiB");
        assert_eq!(layer_unit("sim.snapshot.bytes"), "bytes");
        assert_eq!(layer_unit("sim.sharded.cut_fraction"), "ratio");
        assert_eq!(layer_unit("trace.overhead_frac.paper_tables"), "ratio");
        assert_eq!(layer_unit("sim.lanes.states.n8"), "count");
        assert_eq!(layer_unit("lint.findings"), "count");
    }
}
