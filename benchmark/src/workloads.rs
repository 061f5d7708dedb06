//! The four workloads: what each runs, the inputs it generates from the
//! seed, and how one unit of it calls into the library.
//!
//! Every workload is closed-loop batch work from one process: a pass is
//! a fixed list of units run back to back, and the next pass starts when
//! the previous one ends. Inputs are generated from the seed before any
//! timing starts; the library only ever receives the generated inputs.
//! Each input is a pure function of the seed and the coordinates in its
//! output label, so a label names the same run at every scale.

use std::collections::BTreeMap;
use std::hint::black_box;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use fadr_core::{HypercubeFullyAdaptive, MeshFullyAdaptive, ShuffleExchangeRouting, TorusTwoPhase};
use fadr_lint::{lint_fault_plan, lint_scheme, LintConfig, Report};
use fadr_metrics::RunningStats;
use fadr_qdg::sym::Symmetry;
use fadr_sim::{
    lane_seeds, DynamicOutcome, FaultKind, FaultPlan, LaneSim, ShardedSimulator, SimConfig,
    Simulator,
};
use fadr_verify::{certify, certify_plan, check_certificate, Certificate, Outcome};
use fadr_workloads::{static_backlog, Pattern};

use crate::golden::{Digest, Res, RunOut};
use crate::sys;
use crate::trace::Tracer;

/// Workload names, in the order `run` executes them.
pub const NAMES: [&str; 4] = [
    "paper_tables",
    "lane_replicas",
    "faulted_resume",
    "certify_lint",
];

/// Problem sizes: the paper's (`run` and `trace` without `--seconds`) or
/// ones sized so several passes fit a time-boxed run (`--seconds`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's § 7 sizes; a full `run` takes about three minutes.
    Paper,
    /// Passes of about two seconds.
    Timed,
}

impl Scale {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Timed => "timed",
        }
    }
}

/// § 7 Tables 1–12 on `HypercubeFullyAdaptive`, queue capacity 5, on the
/// sequential `Simulator`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tables {
    /// `(table, n)` runs, in pass order.
    pub runs: Vec<(usize, usize)>,
    /// Horizon of the dynamic (λ = 1) tables.
    pub cycles: u64,
}

/// Table 9's configuration replicated as lanes of a fresh `LaneSim`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lanes {
    /// `(n, lanes)` groups: one `LaneSim` each.
    pub groups: Vec<(usize, usize)>,
    /// Horizon in routing cycles.
    pub cycles: u64,
}

/// A faulted `ShardedSimulator` run paused, checkpointed, restored into
/// a fresh engine, and resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resume {
    /// Hypercube dimension.
    pub n: usize,
    /// Shard threads.
    pub shards: usize,
    /// Horizon in routing cycles.
    pub cycles: u64,
    /// Cycle the run pauses and checkpoints at.
    pub pause_at: u64,
}

/// Certification and lint, with no simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certify {
    /// Hypercube dimension (certify, certify_plan, lint, lint_fault_plan).
    pub cube: usize,
    /// Side of the square mesh and torus.
    pub grid: usize,
    /// Shuffle-exchange dimension for certify.
    pub se: usize,
    /// Shuffle-exchange dimension for lint.
    pub lint_se: usize,
}

/// A workload at a chosen scale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Workload {
    /// See [`Tables`].
    PaperTables(Tables),
    /// See [`Lanes`].
    LaneReplicas(Lanes),
    /// See [`Resume`].
    FaultedResume(Resume),
    /// See [`Certify`].
    CertifyLint(Certify),
}

impl Workload {
    /// The workload called `name` at `scale`.
    pub fn named(name: &str, scale: Scale) -> Option<Self> {
        let paper = scale == Scale::Paper;
        Some(match name {
            "paper_tables" => {
                let mut runs = Vec::new();
                if paper {
                    runs.extend((1..=8).flat_map(|t| (10..=14).map(move |n| (t, n))));
                    runs.extend((9..=12).flat_map(|t| (10..=12).map(move |n| (t, n))));
                } else {
                    runs.extend((1..=8).map(|t| (t, 10)));
                    runs.extend([(1, 12), (5, 12), (1, 14), (9, 10), (10, 10)]);
                }
                Workload::PaperTables(Tables { runs, cycles: 500 })
            }
            "lane_replicas" => Workload::LaneReplicas(Lanes {
                groups: if paper {
                    vec![(8, 16), (11, 8)]
                } else {
                    vec![(8, 8), (10, 2)]
                },
                cycles: 500,
            }),
            "faulted_resume" => Workload::FaultedResume(Resume {
                n: if paper { 12 } else { 11 },
                shards: 2,
                cycles: 300,
                pause_at: 150,
            }),
            "certify_lint" => Workload::CertifyLint(if paper {
                Certify {
                    cube: 10,
                    grid: 32,
                    se: 11,
                    lint_se: 10,
                }
            } else {
                Certify {
                    cube: 8,
                    grid: 16,
                    se: 9,
                    lint_se: 8,
                }
            }),
            _ => return None,
        })
    }

    /// The workload's name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::PaperTables(_) => NAMES[0],
            Workload::LaneReplicas(_) => NAMES[1],
            Workload::FaultedResume(_) => NAMES[2],
            Workload::CertifyLint(_) => NAMES[3],
        }
    }

    /// Timed passes of a paper-scale `run`.
    pub fn passes(&self) -> usize {
        match self {
            Workload::PaperTables(_) => 2,
            Workload::LaneReplicas(_) | Workload::CertifyLint(_) => 3,
            Workload::FaultedResume(_) => 6,
        }
    }

    /// Whether the workload simulates packets (so delivery rates apply).
    pub fn simulates(&self) -> bool {
        !matches!(self, Workload::CertifyLint(_))
    }

    /// Generate the inputs of `seed` (untimed).
    pub fn prepare(&self, seed: u64) -> Prepared {
        match self {
            Workload::PaperTables(spec) => Prepared::PaperTables {
                runs: spec
                    .runs
                    .iter()
                    .map(|&(table, n)| table_run(seed, table, n))
                    .collect(),
                spec: spec.clone(),
            },
            Workload::LaneReplicas(spec) => Prepared::LaneReplicas {
                groups: spec
                    .groups
                    .iter()
                    .map(|&(n, lanes)| {
                        let master = mix(seed, 0x1a9e_0000 ^ n as u64);
                        LaneGroup {
                            n,
                            cfg: SimConfig {
                                seed: master,
                                ..SimConfig::default()
                            },
                            seeds: lane_seeds(master, lanes),
                        }
                    })
                    .collect(),
                spec: spec.clone(),
            },
            Workload::FaultedResume(spec) => Prepared::FaultedResume {
                cfg: SimConfig {
                    seed: mix(seed, 0xfa17_0000 ^ spec.n as u64),
                    ..SimConfig::default()
                },
                plan_json: resume_plan(seed, spec).to_json(),
                spec: spec.clone(),
            },
            Workload::CertifyLint(spec) => {
                let mut rng = StdRng::seed_from_u64(mix(seed, 0xce27_0000 ^ spec.cube as u64));
                let mut plan = FaultPlan::new(rng.next_u64(), 0);
                let to = 1u32 << rng.gen_range(0..spec.cube);
                plan.push(1, FaultKind::LinkDown { from: 0, to });
                Prepared::CertifyLint {
                    plan_json: plan.to_json(),
                    spec: spec.clone(),
                }
            }
        }
    }
}

/// SplitMix64 of `a ^ splitmix(b)`: derive independent sub-seeds.
pub fn mix(a: u64, b: u64) -> u64 {
    fn sm(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    sm(a ^ sm(b))
}

/// One paper-table run's engine configuration and load.
#[derive(Debug, Clone)]
pub struct TableRun {
    /// Paper table (1–12).
    pub table: usize,
    /// Hypercube dimension.
    pub n: usize,
    /// Engine configuration (seed included).
    pub cfg: SimConfig,
    /// What the nodes inject.
    pub load: Load,
}

/// A run's offered load.
#[derive(Debug, Clone)]
pub enum Load {
    /// Per-node destination backlogs (Tables 1–8).
    Static(Vec<Vec<usize>>),
    /// λ = 1 injection with destinations from a pattern (Tables 9–12).
    Dynamic(Pattern),
}

/// The seeding of the table harness's row `(table, n)`, replication 0,
/// so a run here equals the same row of `tables --seed <seed>`.
pub(crate) fn table_run(seed: u64, table: usize, n: usize) -> TableRun {
    let row_seed = seed ^ ((table as u64) << 32) ^ n as u64;
    let pattern = match (table - 1) % 4 {
        0 => Pattern::Random,
        1 => Pattern::complement(n),
        2 => Pattern::transpose(n),
        _ => Pattern::leveled_permutation(n, &mut StdRng::seed_from_u64(row_seed ^ 0x1e7e1)),
    };
    let load = match table {
        1..=8 => {
            let per_node = if table <= 4 { 1 } else { n };
            let mut rng = StdRng::seed_from_u64(row_seed ^ 0xbac1);
            Load::Static(static_backlog(&pattern, 1 << n, per_node, &mut rng))
        }
        _ => Load::Dynamic(pattern),
    };
    TableRun {
        table,
        n,
        cfg: SimConfig {
            seed: row_seed,
            ..SimConfig::default()
        },
        load,
    }
}

/// The seeded 4-event plan of `faulted_resume`: two dead links, one
/// flaky link and one queue freeze, all firing before the pause. The seed
/// picks where each fault lands; when it fires is fixed, because the
/// degraded-routing cost grows with the cycles run after the first dead
/// link, and a seed should not change how much work a pass does. A
/// hypercube survives any two dead directed links, so no plan partitions
/// it.
fn resume_plan(seed: u64, spec: &Resume) -> FaultPlan {
    let nodes = 1usize << spec.n;
    let p = spec.pause_at;
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x91a9_0000 ^ spec.n as u64));
    let mut plan = FaultPlan::new(rng.next_u64(), 3);
    let mut link = || {
        let v = rng.gen_range(0..nodes);
        let to = v ^ (1 << rng.gen_range(0..spec.n));
        (node_id(v), node_id(to))
    };
    let (from, to) = link();
    plan.push(p / 8, FaultKind::LinkDown { from, to });
    let (from, to) = link();
    plan.push(
        p / 4,
        FaultKind::FlakyLink {
            from,
            to,
            until: p / 4 + spec.cycles / 2,
            threshold: 40,
        },
    );
    let (from, to) = link();
    plan.push(p * 3 / 8, FaultKind::LinkDown { from, to });
    let node = node_id(rng.gen_range(0..nodes));
    let class = rng.gen_range(0..2u8);
    plan.push(
        p / 2,
        FaultKind::QueueFreeze {
            node,
            class,
            duration: spec.cycles / 5,
        },
    );
    plan
}

fn node_id(v: usize) -> u32 {
    u32::try_from(v).expect("benchmark networks have fewer than 2^32 nodes")
}

/// One `LaneSim` group's seeds.
#[derive(Debug, Clone)]
pub struct LaneGroup {
    /// Hypercube dimension.
    pub n: usize,
    /// Shared configuration (its seed is the group's master seed).
    pub cfg: SimConfig,
    /// Per-lane seeds.
    pub seeds: Vec<u64>,
}

/// A workload with its generated inputs.
#[derive(Debug, Clone)]
pub enum Prepared {
    /// `paper_tables`.
    PaperTables {
        /// Sizes.
        spec: Tables,
        /// One input per run.
        runs: Vec<TableRun>,
    },
    /// `lane_replicas`.
    LaneReplicas {
        /// Sizes.
        spec: Lanes,
        /// One input per `LaneSim`.
        groups: Vec<LaneGroup>,
    },
    /// `faulted_resume`.
    FaultedResume {
        /// Sizes.
        spec: Resume,
        /// Engine configuration.
        cfg: SimConfig,
        /// The fault plan, serialized as `--faults` reads it.
        plan_json: String,
    },
    /// `certify_lint`.
    CertifyLint {
        /// Sizes.
        spec: Certify,
        /// A one-link `link_down` plan, serialized.
        plan_json: String,
    },
}

/// What a pass (or a unit) produced.
#[derive(Debug, Clone, Default)]
pub struct PassOut {
    /// Labelled outputs, one per run, lane or verdict.
    pub outs: Vec<RunOut>,
    /// Packets delivered.
    pub delivered: u64,
    /// Simulated nodes × routing cycles.
    pub node_cycles: u64,
    /// Per-layer facts (summed by key) for the traced run.
    pub facts: BTreeMap<String, f64>,
}

impl PassOut {
    fn fact(&mut self, key: String, v: f64) {
        *self.facts.entry(key).or_insert(0.0) += v;
    }

    /// Record an output; returns the node·cycles it simulated.
    fn push(&mut self, label: String, res: Res) -> u64 {
        let (delivered, node_cycles) = match &res {
            Res::Static { n, res: r, .. } => (r.delivered, (1u64 << n) * r.cycles),
            Res::Dynamic { nodes, res: r, .. } => (r.delivered, *nodes as u64 * r.cycles),
            _ => (0, 0),
        };
        self.delivered += delivered;
        self.node_cycles += node_cycles;
        self.outs.push(RunOut { label, res });
        node_cycles
    }

    /// Record that the library failed on valid input.
    fn failed(&mut self, label: String, why: String) {
        self.push(label, Res::Failed(why));
    }
}

const META: &str = "fadr-benchmark faulted_resume";

impl Prepared {
    /// The workload name.
    pub fn name(&self) -> &'static str {
        match self {
            Prepared::PaperTables { .. } => NAMES[0],
            Prepared::LaneReplicas { .. } => NAMES[1],
            Prepared::FaultedResume { .. } => NAMES[2],
            Prepared::CertifyLint { .. } => NAMES[3],
        }
    }

    /// Units in one pass.
    pub fn units(&self) -> usize {
        match self {
            Prepared::PaperTables { runs, .. } => runs.len(),
            Prepared::LaneReplicas { groups, .. } => groups.len(),
            Prepared::FaultedResume { .. } => 1,
            Prepared::CertifyLint { .. } => 10,
        }
    }

    /// Run one pass: every unit, in order, inside a workload span.
    pub fn pass(&self, tr: &mut Tracer) -> PassOut {
        let mut out = PassOut::default();
        tr.set_workload(self.name());
        tr.open(match self {
            Prepared::PaperTables { .. } => "workload.paper_tables",
            Prepared::LaneReplicas { .. } => "workload.lane_replicas",
            Prepared::FaultedResume { .. } => "workload.faulted_resume",
            Prepared::CertifyLint { .. } => "workload.certify_lint",
        });
        for u in 0..self.units() {
            self.unit(u, tr, &mut out);
        }
        tr.close();
        out
    }

    /// Run unit `u` of a pass.
    pub fn unit(&self, u: usize, tr: &mut Tracer, out: &mut PassOut) {
        tr.set_unit(u32::try_from(u).unwrap_or(u32::MAX));
        match self {
            Prepared::PaperTables { spec, runs } => table_unit(&runs[u], spec.cycles, tr, out),
            Prepared::LaneReplicas { spec, groups } => {
                let largest = groups.iter().all(|g| g.n <= groups[u].n);
                lane_unit(&groups[u], largest, spec.cycles, tr, out);
            }
            Prepared::FaultedResume {
                spec,
                cfg,
                plan_json,
            } => resume_unit(spec, *cfg, plan_json, tr, out),
            Prepared::CertifyLint { spec, plan_json } => certify_unit(spec, plan_json, u, tr, out),
        }
    }

    /// The same inputs run on the sequential `Simulator` (certification
    /// has no engine: it reruns itself). With `all`, every output — what
    /// `bless` records; otherwise one spot check per output produced by
    /// another engine (lane 0 of each `LaneSim`, the resumed run).
    pub fn reference(&self, all: bool) -> Vec<RunOut> {
        let mut out = PassOut::default();
        let mut tr = Tracer::new(false);
        match self {
            Prepared::PaperTables { .. } | Prepared::CertifyLint { .. } => {
                if all {
                    out = self.pass(&mut tr);
                }
            }
            Prepared::LaneReplicas { spec, groups } => {
                for g in groups {
                    let rf = HypercubeFullyAdaptive::new(g.n);
                    let nodes = 1usize << g.n;
                    let lanes = if all { g.seeds.len() } else { 1 };
                    for (k, &seed) in g.seeds.iter().enumerate().take(lanes) {
                        let cfg = SimConfig { seed, ..g.cfg };
                        let res = Simulator::new(rf, cfg).run_dynamic(
                            1.0,
                            |s, rng| Pattern::Random.draw(s, nodes, rng),
                            spec.cycles,
                        );
                        out.push(
                            lane_label(g.n, k),
                            Res::Dynamic {
                                nodes,
                                cycles: spec.cycles,
                                res,
                            },
                        );
                    }
                }
            }
            Prepared::FaultedResume {
                spec,
                cfg,
                plan_json,
            } => {
                let nodes = 1usize << spec.n;
                let res = match FaultPlan::parse(plan_json) {
                    Ok(plan) => Res::Dynamic {
                        nodes,
                        cycles: spec.cycles,
                        res: Simulator::new(HypercubeFullyAdaptive::new(spec.n), *cfg)
                            .with_faults(plan)
                            .run_dynamic(
                                1.0,
                                |s, rng| Pattern::Random.draw(s, nodes, rng),
                                spec.cycles,
                            ),
                    },
                    Err(e) => Res::Failed(format!("fault plan does not parse: {e}")),
                };
                out.push(format!("faulted_resume/n{}", spec.n), res);
            }
        }
        out.outs
    }

    /// Each paper-table run's relative `L_avg` error against the paper's
    /// published value, for information: `(label, error)`.
    pub fn paper_errors(&self, outs: &[RunOut]) -> Vec<(String, f64)> {
        let Prepared::PaperTables { runs, .. } = self else {
            return Vec::new();
        };
        runs.iter()
            .zip(outs)
            .filter_map(|(r, o)| {
                let mean = match &o.res {
                    Res::Static { res, .. } => res.stats.mean(),
                    Res::Dynamic { res, .. } => res.stats.mean(),
                    _ => return None,
                };
                let paper = crate::paper::l_avg(r.table, r.n)?;
                Some((o.label.clone(), (mean - paper).abs() / paper))
            })
            .collect()
    }
}

fn lane_label(n: usize, k: usize) -> String {
    format!("lane_replicas/n{n}/lane{k}")
}

fn table_unit(r: &TableRun, cycles: u64, tr: &mut Tracer, out: &mut PassOut) {
    let nodes = 1usize << r.n;
    let rf = HypercubeFullyAdaptive::new(r.n);
    let mut sim = tr.setup("sim.engine.new", || Simulator::new(rf, r.cfg));
    let res = match &r.load {
        Load::Static(backlog) => Res::Static {
            table: r.table,
            n: r.n,
            res: tr.call("sim.engine.run_static", || sim.run_static(backlog)),
        },
        Load::Dynamic(pattern) => Res::Dynamic {
            nodes,
            cycles,
            res: tr.call("sim.engine.run_dynamic", || {
                sim.run_dynamic(1.0, |s, rng| pattern.draw(s, nodes, rng), cycles)
            }),
        },
    };
    let run_s = tr.last_s();
    // The harness's row fold: L_avg, L_max and (dynamic) I_r.
    tr.call("metrics.reduce", || match &res {
        Res::Static { res, .. } => black_box((res.stats.mean(), res.stats.max(), 0.0)),
        Res::Dynamic { res, .. } => {
            black_box((res.stats.mean(), res.stats.max(), res.injection_rate()))
        }
        _ => (0.0, 0, 0.0),
    });
    let node_cycles = out.push(format!("paper_tables/t{}/n{}", r.table, r.n), res);
    out.fact(format!("engine.run_s.n{}", r.n), run_s);
    out.fact(format!("engine.node_cycles.n{}", r.n), node_cycles as f64);
}

fn lane_unit(g: &LaneGroup, largest: bool, cycles: u64, tr: &mut Tracer, out: &mut PassOut) {
    let nodes = 1usize << g.n;
    let rf = HypercubeFullyAdaptive::new(g.n);
    // The traced run also measures the largest table's memory: the peak
    // across construction over the resident set before it.
    let rss_before = if largest && tr.tracing() && sys::reset_peak_rss() {
        sys::rss_mb()
    } else {
        None
    };
    let mut sim = tr.setup("sim.lanes.new", || {
        LaneSim::with_lane_seeds(rf, g.cfg, g.seeds.clone())
    });
    out.fact(format!("sim.lanes.new_s.n{}", g.n), tr.last_s());
    out.fact(
        format!("sim.lanes.states.n{}", g.n),
        sim.memo_entries() as f64,
    );
    if let (Some(before), Some(peak)) = (rss_before, sys::peak_rss_mb()) {
        out.fact(format!("sim.lanes.new_rss_mb.n{}", g.n), peak - before);
    }
    let results = tr.call("sim.lanes.run", || {
        sim.run_dynamic(1.0, |s, rng| Pattern::Random.draw(s, nodes, rng), cycles)
    });
    out.fact(format!("sim.lanes.run_s.n{}", g.n), tr.last_s());
    // The sweep harness's lane fold: mean ± 95% CI across lanes.
    tr.call("metrics.reduce", || {
        let mut l_avg = RunningStats::new();
        let mut ir = RunningStats::new();
        for r in &results {
            l_avg.push(r.stats.mean());
            ir.push(r.injection_rate());
        }
        black_box((l_avg.ci95(), ir.ci95()))
    });
    for (k, res) in results.into_iter().enumerate() {
        out.push(lane_label(g.n, k), Res::Dynamic { nodes, cycles, res });
    }
}

fn resume_unit(spec: &Resume, cfg: SimConfig, plan_json: &str, tr: &mut Tracer, out: &mut PassOut) {
    let label = format!("faulted_resume/n{}", spec.n);
    let nodes = 1usize << spec.n;
    let rf = HypercubeFullyAdaptive::new(spec.n);
    let dest = move |s, rng: &mut StdRng| Pattern::Random.draw(s, nodes, rng);
    let plan = match tr.setup("sim.fault.parse", || FaultPlan::parse(plan_json)) {
        Ok(plan) => plan,
        Err(e) => return out.failed(label, format!("fault plan: {e}")),
    };
    let mut sim = tr.setup("sim.sharded.new", || {
        ShardedSimulator::new(rf, cfg, spec.shards).with_faults(plan.clone())
    });
    out.fact(
        "sim.sharded.cut_fraction".into(),
        sim.partition_stats().cut_fraction(),
    );
    let paused = tr.call("sim.sharded.run", || {
        sim.run_dynamic_until(1.0, dest, spec.cycles, Some(spec.pause_at))
    });
    let DynamicOutcome::Paused(progress) = paused else {
        return out.failed(label, "run did not pause".into());
    };
    let text = tr.call("sim.snapshot.checkpoint", || {
        sim.checkpoint(META, &progress)
    });
    out.fact("sim.snapshot.bytes".into(), text.len() as f64);
    drop(sim);
    let mut fresh = tr.setup("sim.sharded.new", || {
        ShardedSimulator::new(rf, cfg, spec.shards).with_faults(plan)
    });
    let restored = tr.call("sim.snapshot.restore", || fresh.restore(&text));
    let resumed_from = match restored {
        Ok((meta, p)) if meta == META && p == progress => p,
        Ok(_) => return out.failed(label, "restore changed meta or progress".into()),
        Err(e) => return out.failed(label, format!("restore: {e}")),
    };
    let res = match tr.call("sim.sharded.run", || {
        fresh.resume_dynamic(1.0, dest, spec.cycles, resumed_from, None)
    }) {
        DynamicOutcome::Finished(res) => Res::Dynamic {
            nodes,
            cycles: spec.cycles,
            res,
        },
        DynamicOutcome::Paused(_) => Res::Failed("resume paused again".into()),
    };
    out.push(label, res);
}

/// Hash of a certificate's rank function (every class and its rank).
pub fn rank_hash(cert: &Certificate) -> u64 {
    let mut d = Digest::default();
    for (class, rank) in &cert.ranks {
        d.str(&class.to_string()).u64(*rank);
    }
    d.finish()
}

fn verdict<R: Symmetry + ?Sized>(tr: &mut Tracer, rf: &R, outcome: &Outcome, expect: bool) -> Res {
    match outcome.certificate() {
        Some(cert) => Res::Verdict {
            certified: true,
            expect,
            rank_hash: rank_hash(cert),
            check: tr.call("verify.check", || check_certificate(rf, cert)),
        },
        None => Res::Verdict {
            certified: false,
            expect,
            rank_hash: 0,
            check: Ok(()),
        },
    }
}

fn certify_one<R: Symmetry>(
    tr: &mut Tracer,
    out: &mut PassOut,
    inst: &str,
    expect: bool,
    new: impl FnOnce() -> R,
) {
    let rf = tr.setup("core.new", new);
    let outcome = tr.call("verify.certify", || certify(&rf));
    if expect {
        out.fact(format!("verify.certify_s.{inst}"), tr.last_s());
    }
    if let (true, Some(cert)) = (inst.starts_with("se"), outcome.certificate()) {
        out.fact(format!("verify.classes.{inst}"), cert.ranks.len() as f64);
    }
    let res = verdict(tr, &rf, &outcome, expect);
    let kind = if expect { "certify" } else { "reject" };
    out.push(format!("certify_lint/{kind}/{inst}"), res);
}

fn lint_one<R: Symmetry>(tr: &mut Tracer, out: &mut PassOut, inst: &str, new: impl FnOnce() -> R) {
    let rf = tr.setup("core.new", new);
    let report = tr.call("lint.scheme", || lint_scheme(&rf, &LintConfig::default()));
    out.fact(format!("lint.scheme_s.{inst}"), tr.last_s());
    push_lint(out, format!("certify_lint/lint/{inst}"), &report);
}

fn push_lint(out: &mut PassOut, label: String, report: &Report) {
    let findings = report.findings.len() + report.suppressed.iter().map(|s| s.1).sum::<usize>();
    out.fact("lint.findings".into(), findings as f64);
    out.push(
        label,
        Res::Lint {
            errors: report.errors(),
            findings,
            states: report.states_explored,
        },
    );
}

fn certify_unit(spec: &Certify, plan_json: &str, u: usize, tr: &mut Tracer, out: &mut PassOut) {
    let (c, g) = (spec.cube, spec.grid);
    match u {
        0 => certify_one(tr, out, &format!("hypercube{c}"), true, || {
            HypercubeFullyAdaptive::new(c)
        }),
        1 => certify_one(tr, out, &format!("mesh{g}"), true, || {
            MeshFullyAdaptive::new(g, g)
        }),
        2 => certify_one(tr, out, &format!("torus{g}"), true, || {
            TorusTwoPhase::new(g, g)
        }),
        3 => certify_one(tr, out, &format!("se{}", spec.se), true, || {
            ShuffleExchangeRouting::new(spec.se)
        }),
        4 | 9 => {
            let label = if u == 4 {
                format!("certify_lint/certify_plan/hypercube{c}")
            } else {
                format!("certify_lint/lint_fault_plan/hypercube{c}")
            };
            let rf = tr.setup("core.new", || HypercubeFullyAdaptive::new(c));
            let plan = match tr.setup("sim.fault.parse", || FaultPlan::parse(plan_json)) {
                Ok(plan) => plan,
                Err(e) => return out.failed(label, format!("fault plan: {e}")),
            };
            if u == 9 {
                let report = tr.call("lint.fault_plan", || {
                    lint_fault_plan(&rf, &plan, &LintConfig::default())
                });
                return push_lint(out, label, &report);
            }
            let res = match tr.call("verify.certify_plan", || certify_plan(&rf, &plan)) {
                Ok((faulted, outcome)) => verdict(tr, &faulted, &outcome, true),
                Err(e) => Res::Failed(format!("certify_plan: {e}")),
            };
            out.push(label, res);
        }
        5 => certify_one(tr, out, "se4-paper-literal", false, || {
            ShuffleExchangeRouting::paper_literal(4)
        }),
        6 => lint_one(tr, out, &format!("hypercube{c}"), || {
            HypercubeFullyAdaptive::new(c)
        }),
        7 => lint_one(tr, out, &format!("mesh{g}"), || {
            MeshFullyAdaptive::new(g, g)
        }),
        _ => lint_one(tr, out, &format!("se{}", spec.lint_se), || {
            ShuffleExchangeRouting::new(spec.lint_se)
        }),
    }
}
