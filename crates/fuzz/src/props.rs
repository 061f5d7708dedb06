//! The four differential property families a case is checked against.
//!
//! 1. **Differential** — the sequential engine, the sharded engine (at
//!    every requested shard count under the case's partition strategy),
//!    and, in scope, the wormhole engine must agree: identical results,
//!    identical partitioned-destination sets, identical journal
//!    fingerprints, and complete wormhole delivery. When the case draws
//!    `lanes > 1` (and has no faults), the table option source joins
//!    the panel: for each of the case's `lanes` seeds, a simulator on
//!    one shared routing-state table must reproduce the computed run
//!    with that seed — result, partition set and journal fingerprint.
//! 2. **Oracle parity** — the certifier, the exhaustive checker, and
//!    the lint battery must agree on accept/reject, and the class
//!    graph's level assignment must exist exactly when it is acyclic.
//! 3. **Certificate round-trip** — every accepted `fadr-verify/1`
//!    certificate re-validates, and targeted single-field tamperings
//!    are all rejected by the independent checker.
//! 4. **Verdicts** — watchdog/partition verdicts and the delivery-time
//!    bound match ground truth computed from the case spec: connected
//!    certified networks drain with no drops, wedged networks stall
//!    with a deadlock verdict, and certified fault-free drains respect
//!    a Faber-style `O(P · H)` cycle bound.

use std::sync::Arc;

use fadr_core::scheme::{with_scheme, SchemeVisitor};
use fadr_lint::{lint_scheme, LintConfig};
use fadr_qdg::sym::Symmetry;
use fadr_qdg::verify::verify_deadlock_free;
use fadr_qdg::{explore, RoutingFunction};
use fadr_sim::{
    lane_seeds, DynamicOutcome, Engine, FaultPlan, ShardPanicked, ShardedSimulator, SimConfig,
    Simulator, SinkSet, SnapshotMsg, StateTable, StaticOutcome, StopReason,
};
use fadr_topology::NodeId;
use fadr_verify::{certify, check_certificate, Certificate, ClassifierMode, Outcome};
use fadr_workloads::{static_backlog, Pattern};
use fadr_wormhole::{WormConfig, WormholeSim};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spec::{CaseSpec, Mutated, MutationSpec, WorkloadSpec};

/// Which property family a failure belongs to (shrinking preserves it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropertyId {
    /// Engine disagreement (seq vs sharded vs wormhole), or a worker
    /// panic surfaced as [`fadr_sim::ShardPanicked`].
    Differential,
    /// Certifier vs exhaustive checker vs lint disagreement.
    OracleParity,
    /// Certificate fails to re-validate, or a tampering slips through.
    CertificateRoundtrip,
    /// Watchdog/partition verdict or delivery-bound violation.
    Verdicts,
}

impl PropertyId {
    /// Stable name (used in case files and reports).
    pub fn name(self) -> &'static str {
        match self {
            Self::Differential => "differential",
            Self::OracleParity => "oracle-parity",
            Self::CertificateRoundtrip => "certificate-roundtrip",
            Self::Verdicts => "verdicts",
        }
    }
}

/// A property violation: which family, and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The violated property family.
    pub property: PropertyId,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.property.name(), self.detail)
    }
}

fn fail(property: PropertyId, detail: String) -> Result<(), Failure> {
    Err(Failure { property, detail })
}

/// Journal capacity: comfortably above any small-case event count, so
/// the ring buffer never wraps and fingerprints are total.
const JOURNAL_CAP: usize = 1 << 16;

/// Watchdog no-progress window for the verdict runs.
const WATCHDOG_WINDOW: u64 = 64;

/// Safety horizon; a case that reaches it is itself a finding.
const MAX_CYCLES: u64 = 50_000;

/// Run every applicable property family against the case.
///
/// # Errors
///
/// Returns the first [`Failure`] found.
pub fn run_case(spec: &CaseSpec) -> Result<(), Failure> {
    with_scheme(&spec.scheme, CaseRunner { spec })
}

struct CaseRunner<'a> {
    spec: &'a CaseSpec,
}

impl SchemeVisitor for CaseRunner<'_> {
    type Out = Result<(), Failure>;

    fn visit<R>(self, rf: R) -> Self::Out
    where
        R: Symmetry + Clone + Send + 'static,
        R::Msg: Send + SnapshotMsg,
    {
        let spec = self.spec;
        let rf = Mutated::new(rf, spec.mutation);
        let cert = oracle_parity(&rf)?;
        if let Some(cert) = &cert {
            certificate_roundtrip(&rf, cert)?;
        }
        // The runtime properties compare engines on the *unmutated*
        // scheme: sabotaged schemes are the certifier's concern, and
        // feeding a known dead end to the simulator just wedges it.
        if spec.mutation == MutationSpec::None {
            differential(spec, &rf, cert.as_ref())?;
            table_differential(spec, &rf)?;
            verdicts(spec, &rf, cert.is_some())?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Property 2: oracle parity
// ---------------------------------------------------------------------

fn oracle_parity<R: Symmetry>(rf: &R) -> Result<Option<Certificate>, Failure> {
    let report = lint_scheme(rf, &LintConfig::default());
    let outcome = certify(rf);
    let exhaustive = verify_deadlock_free(rf);
    let cert = match (&outcome, &exhaustive) {
        (Outcome::Certified(cert), Ok(())) => Some(cert.clone()),
        (Outcome::Rejected(_), Err(_)) => None,
        (Outcome::Certified(_), Err(v)) => {
            return Err(Failure {
                property: PropertyId::OracleParity,
                detail: format!(
                    "{}: certifier accepts but exhaustive checker rejects ({v})",
                    rf.name()
                ),
            });
        }
        (Outcome::Rejected(rej), Ok(())) => {
            return Err(Failure {
                property: PropertyId::OracleParity,
                detail: format!(
                    "{}: exhaustive checker accepts but certifier rejects ({})",
                    rf.name(),
                    rej.violation
                ),
            });
        }
    };
    if report.errors() == 0 && cert.is_none() {
        return Err(Failure {
            property: PropertyId::OracleParity,
            detail: format!(
                "{}: lint battery is clean but the certifier rejects",
                rf.name()
            ),
        });
    }
    // The class graph's level assignment must exist iff it is acyclic
    // (the `Digraph::levels` contract; cyclic inputs used to panic).
    let qdg = explore::build_qdg(rf);
    let acyclic = qdg.static_is_acyclic();
    let leveled = qdg.static_levels().is_some();
    if acyclic != leveled {
        return Err(Failure {
            property: PropertyId::OracleParity,
            detail: format!(
                "{}: static QDG acyclic={acyclic} but levels exist={leveled}",
                rf.name()
            ),
        });
    }
    Ok(cert)
}

// ---------------------------------------------------------------------
// Property 3: certificate round-trip
// ---------------------------------------------------------------------

fn certificate_roundtrip<R: Symmetry>(rf: &R, cert: &Certificate) -> Result<(), Failure> {
    if let Err(e) = check_certificate(rf, cert) {
        return fail(
            PropertyId::CertificateRoundtrip,
            format!(
                "{}: emitted certificate fails its own checker: {e}",
                rf.name()
            ),
        );
    }
    // Single-field tamperings the independent checker is contractually
    // bound to reject (each targets a check in `fadr-verify::check`).
    let mut tampered: Vec<(&str, Certificate)> = Vec::new();
    {
        let mut c = cert.clone();
        c.nodes += 1;
        tampered.push(("node-count bump", c));
    }
    {
        let mut c = cert.clone();
        c.algorithm.push_str("-tampered");
        tampered.push(("algorithm rename", c));
    }
    if let Some(&first) = cert.ranks.first() {
        let mut c = cert.clone();
        c.ranks.push(first);
        tampered.push(("duplicated rank entry", c));
    }
    if cert.ranks.len() >= 2 {
        // A certified scheme has at least one static non-stutter class
        // edge, so a flat rank function cannot strictly increase on it.
        let mut c = cert.clone();
        for r in &mut c.ranks {
            r.1 = 0;
        }
        tampered.push(("flattened ranks", c));
    }
    if !cert.all_dsts
        && !matches!(cert.classifier, ClassifierMode::Concrete)
        && !cert.dsts.is_empty()
    {
        let mut c = cert.clone();
        c.dsts.pop();
        tampered.push(("dropped representative destination", c));
    }
    for (what, c) in &tampered {
        if check_certificate(rf, c).is_ok() {
            return fail(
                PropertyId::CertificateRoundtrip,
                format!(
                    "{}: checker accepted a tampered certificate ({what})",
                    rf.name()
                ),
            );
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Property 1: differential
// ---------------------------------------------------------------------

fn sim_config(spec: &CaseSpec) -> SimConfig {
    SimConfig {
        queue_capacity: spec.queue_capacity,
        seed: spec.seed,
        max_cycles: MAX_CYCLES,
        ..SimConfig::default()
    }
}

/// The case's static backlog (derived from the spec seed, independent of
/// the engine's own RNG stream).
pub fn backlog_for(spec: &CaseSpec, num_nodes: usize) -> Vec<Vec<NodeId>> {
    match spec.workload {
        WorkloadSpec::Static { per_node } => {
            let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xB10C_B10C);
            static_backlog(&Pattern::Random, num_nodes, per_node, &mut rng)
        }
        WorkloadSpec::Dynamic { .. } => Vec::new(),
    }
}

fn journal_fingerprint(rec: &SinkSet) -> (u64, u64) {
    rec.journal
        .as_ref()
        .map_or((0, 0), |j| (j.hash(), j.count()))
}

/// The case's injection model, as failure messages name it.
fn model(spec: &CaseSpec) -> &'static str {
    match spec.workload {
        WorkloadSpec::Static { .. } => "static",
        WorkloadSpec::Dynamic { .. } => "dynamic",
    }
}

/// One engine leg of the differential: the case's workload run to
/// completion on `engine`, as a comparable `Debug` rendering of its
/// result, plus its partitioned-destination set and journal fingerprint.
type LegOutcome = (String, Vec<u32>, (u64, u64));

fn run_leg<E: Engine<Rec = SinkSet>>(
    mut engine: E,
    spec: &CaseSpec,
    backlog: &[Vec<NodeId>],
    n: usize,
) -> Result<LegOutcome, ShardPanicked> {
    let result = match spec.workload {
        WorkloadSpec::Static { .. } => match engine.run_static_until(backlog, None)? {
            StaticOutcome::Finished(r) => format!("{r:?}"),
            StaticOutcome::Paused(_) => unreachable!("no pause requested"),
        },
        WorkloadSpec::Dynamic { lambda_pct, cycles } => {
            let lambda = f64::from(lambda_pct) / 100.0;
            let dest = |s: NodeId, rng: &mut StdRng| Pattern::Random.draw(s, n, rng);
            match engine.run_dynamic_until(lambda, dest, cycles, None)? {
                DynamicOutcome::Finished(r) => format!("{r:?}"),
                DynamicOutcome::Paused(_) => unreachable!("no pause requested"),
            }
        }
    };
    let part = engine.partitioned_destinations();
    Ok((result, part, journal_fingerprint(&engine.into_recorder())))
}

fn differential<R>(spec: &CaseSpec, rf: &R, cert: Option<&Certificate>) -> Result<(), Failure>
where
    R: Symmetry + Clone + Send + 'static,
    R::Msg: Send + SnapshotMsg,
{
    let n = rf.topology().num_nodes();
    let cfg = sim_config(spec);
    let mk = || SinkSet::new().with_journal(JOURNAL_CAP);
    let backlog = backlog_for(spec, n);
    let seq = Simulator::with_recorder(rf.clone(), cfg, mk()).with_faults(spec.faults.clone());
    let (seq_res, seq_part, seq_journal) = run_leg(seq, spec, &backlog, n)
        .unwrap_or_else(|_| unreachable!("the sequential engine has no workers"));
    for &shards in &spec.shards {
        let shr = ShardedSimulator::with_recorders_strategy(
            rf.clone(),
            cfg,
            shards,
            spec.strategy,
            |_| mk(),
        )
        .with_faults(spec.faults.clone());
        let (shr_res, shr_part, shr_journal) = match run_leg(shr, spec, &backlog, n) {
            Ok(out) => out,
            Err(e) => return fail(PropertyId::Differential, format!("{}: {e}", rf.name())),
        };
        if shr_res != seq_res {
            return fail(
                PropertyId::Differential,
                format!(
                    "{}: {} result diverged at {shards} shards ({}): seq {seq_res} vs sharded {shr_res}",
                    rf.name(),
                    model(spec),
                    spec.strategy.name()
                ),
            );
        }
        if shr_part != seq_part {
            return fail(
                PropertyId::Differential,
                format!(
                    "{}: partition set diverged at {shards} shards: {seq_part:?} vs {shr_part:?}",
                    rf.name()
                ),
            );
        }
        if shr_journal != seq_journal {
            return fail(
                PropertyId::Differential,
                format!(
                    "{}: journal fingerprint diverged at {shards} shards: {seq_journal:?} vs {shr_journal:?}",
                    rf.name()
                ),
            );
        }
    }
    // Wormhole leg: on a certified scheme with no faults, the flit-level
    // engine must deliver the same static message set in full (journals
    // are not comparable across models — worms never enter central
    // queues — so the check is delivery completeness, with the VC regime
    // the certificate scopes).
    if let (Some(cert), WorkloadSpec::Static { .. }) = (cert, spec.workload) {
        if spec.faults.events.is_empty() {
            let wcfg = WormConfig {
                seed: spec.seed,
                use_dynamic_vcs: cert.adaptive_wormhole_in_scope(),
                max_cycles: 1_000_000,
                ..WormConfig::default()
            };
            let mut worm = WormholeSim::new(rf.clone(), wcfg);
            let wres = worm.run_static(&backlog);
            if !wres.drained || wres.delivered != wres.total {
                return fail(
                    PropertyId::Differential,
                    format!(
                        "{}: wormhole leg failed to deliver: {}/{} in {} cycles (dynamic VCs: {})",
                        rf.name(),
                        wres.delivered,
                        wres.total,
                        wres.cycles,
                        cert.adaptive_wormhole_in_scope()
                    ),
                );
            }
        }
    }
    Ok(())
}

/// Table leg of the differential: for each of the case's `lanes` seeds,
/// a simulator on one shared [`StateTable`] must reproduce the computed
/// run with that seed. Skipped when the case drew `lanes == 1` or
/// carries faults (the table describes fault-free routing).
fn table_differential<R>(spec: &CaseSpec, rf: &R) -> Result<(), Failure>
where
    R: Symmetry + Clone + Send + 'static,
    R::Msg: Send + SnapshotMsg,
{
    if spec.lanes <= 1 || !spec.faults.events.is_empty() {
        return Ok(());
    }
    let n = rf.topology().num_nodes();
    let table = StateTable::build(rf);
    let backlog = backlog_for(spec, n);
    let mk = || SinkSet::new().with_journal(JOURNAL_CAP);
    let no_workers = |_| unreachable!("the sequential engine has no workers");
    for (k, seed) in lane_seeds(spec.seed, spec.lanes).into_iter().enumerate() {
        let cfg = SimConfig {
            seed,
            ..sim_config(spec)
        };
        let tab = Simulator::with_table(rf.clone(), cfg, mk(), Arc::clone(&table));
        let seq = Simulator::with_recorder(rf.clone(), cfg, mk());
        let tab = run_leg(tab, spec, &backlog, n).unwrap_or_else(no_workers);
        let seq = run_leg(seq, spec, &backlog, n).unwrap_or_else(no_workers);
        if tab != seq {
            return fail(
                PropertyId::Differential,
                format!(
                    "{}: seed {k}/{} {} run diverged between the table and computed sources: \
                     table {tab:?} vs computed {seq:?}",
                    rf.name(),
                    spec.lanes,
                    model(spec)
                ),
            );
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Property 4: verdicts
// ---------------------------------------------------------------------

/// Whether the network survives the plan fully intact as a graph: no
/// node dies and the digraph minus permanently dead links stays strongly
/// connected (finite freezes and flaky windows heal, so they never
/// affect this).
pub fn survives_connected<R: RoutingFunction>(rf: &R, plan: &FaultPlan) -> bool {
    let topo = rf.topology();
    let size = topo.num_nodes();
    if plan.final_dead_nodes(size).iter().any(|&d| d) {
        return false;
    }
    let dead = plan.final_dead_links();
    let mut fwd = vec![Vec::new(); size];
    let mut rev = vec![Vec::new(); size];
    for (v, out) in fwd.iter_mut().enumerate() {
        for p in 0..topo.max_ports() {
            if let Some(w) = topo.neighbor(v, p) {
                if !dead.contains(&(v as u32, w as u32)) {
                    out.push(w);
                    rev[w].push(v);
                }
            }
        }
    }
    let reaches_all = |adj: &[Vec<usize>]| {
        let mut seen = vec![false; size];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(v) = stack.pop() {
            for &w in &adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        seen.iter().all(|&s| s)
    };
    reaches_all(&fwd) && reaches_all(&rev)
}

fn verdicts<R>(spec: &CaseSpec, rf: &R, certified: bool) -> Result<(), Failure>
where
    R: Symmetry + Clone + Send + 'static,
    R::Msg: Send,
{
    let n = rf.topology().num_nodes();
    let cfg = sim_config(spec);
    let connected = survives_connected(rf, &spec.faults);
    let fault_free = spec.faults.events.is_empty();
    let mut sim = Simulator::with_recorder(
        rf.clone(),
        cfg,
        SinkSet::new().with_watchdog(WATCHDOG_WINDOW),
    )
    .with_faults(spec.faults.clone());

    match spec.workload {
        WorkloadSpec::Static { .. } => {
            let backlog = backlog_for(spec, n);
            let total: u64 = backlog.iter().map(|b| b.len() as u64).sum();
            let res = sim.run_static(&backlog);
            let part = sim.partitioned_destinations();
            if res.stop == StopReason::MaxCycles {
                return fail(
                    PropertyId::Verdicts,
                    format!(
                        "{}: static run hit the {MAX_CYCLES}-cycle cap with a {WATCHDOG_WINDOW}-cycle watchdog attached",
                        rf.name()
                    ),
                );
            }
            if (res.stop == StopReason::Partitioned) == part.is_empty() {
                return fail(
                    PropertyId::Verdicts,
                    format!(
                        "{}: stop={:?} but partitioned destinations = {part:?}",
                        rf.name(),
                        res.stop
                    ),
                );
            }
            if fault_free && res.stop == StopReason::Drained && res.delivered != total {
                return fail(
                    PropertyId::Verdicts,
                    format!(
                        "{}: fault-free drain lost packets: delivered {} of {total}",
                        rf.name(),
                        res.delivered
                    ),
                );
            }
            if certified && connected && spec.queue_capacity >= 8 {
                if res.stop != StopReason::Drained {
                    return fail(
                        PropertyId::Verdicts,
                        format!(
                            "{}: certified scheme on a connected network stopped {:?} (verdict: {:?})",
                            rf.name(),
                            res.stop,
                            sim.recorder().stall().map(fadr_sim::StallReport::verdict)
                        ),
                    );
                }
                if res.dropped != 0 || res.lost != 0 || !part.is_empty() {
                    return fail(
                        PropertyId::Verdicts,
                        format!(
                            "{}: connected network reported drops/losses/partition: dropped={} lost={} part={part:?}",
                            rf.name(),
                            res.dropped,
                            res.lost
                        ),
                    );
                }
                // Faber-style delivery-time bound: a fault-free drain on
                // a certified minimal adaptive scheme is O(P · H); the
                // constants are deliberately loose — a violation means
                // the run did something pathological, not merely slow.
                if fault_free {
                    let h = rf.max_hops() as u64;
                    let bound = 4 * total * (2 * h + 5) + 200;
                    if res.cycles > bound {
                        return fail(
                            PropertyId::Verdicts,
                            format!(
                                "{}: drained in {} cycles, over the delivery bound {bound} (P={total}, H={h})",
                                rf.name(),
                                res.cycles
                            ),
                        );
                    }
                }
            }
            // A zero-capacity network is wedged by construction: any
            // real packet must produce a stall whose verdict is
            // "deadlock" (nothing can move, so no livelock ambiguity).
            let wedged_packet = backlog
                .iter()
                .enumerate()
                .any(|(src, dsts)| dsts.iter().any(|&d| d != src));
            if spec.queue_capacity == 0 && fault_free && wedged_packet {
                let verdict = sim.recorder().stall().map(fadr_sim::StallReport::verdict);
                if res.stop != StopReason::Aborted || verdict != Some("deadlock") {
                    return fail(
                        PropertyId::Verdicts,
                        format!(
                            "{}: wedged network stopped {:?} with verdict {verdict:?}, expected an aborted deadlock",
                            rf.name(),
                            res.stop
                        ),
                    );
                }
            }
        }
        WorkloadSpec::Dynamic { lambda_pct, cycles } => {
            let lambda = f64::from(lambda_pct) / 100.0;
            let res = sim.run_dynamic(lambda, |s, rng| Pattern::Random.draw(s, n, rng), cycles);
            let part = sim.partitioned_destinations();
            if (res.stop == StopReason::Partitioned) == part.is_empty() {
                return fail(
                    PropertyId::Verdicts,
                    format!(
                        "{}: dynamic stop={:?} but partitioned destinations = {part:?}",
                        rf.name(),
                        res.stop
                    ),
                );
            }
            if certified && connected && spec.queue_capacity >= 8 {
                if res.stop != StopReason::HorizonReached {
                    return fail(
                        PropertyId::Verdicts,
                        format!(
                            "{}: certified dynamic run on a connected network aborted: {:?}",
                            rf.name(),
                            res.stop
                        ),
                    );
                }
                if res.dropped != 0 {
                    return fail(
                        PropertyId::Verdicts,
                        format!(
                            "{}: connected dynamic run dropped {} packets",
                            rf.name(),
                            res.dropped
                        ),
                    );
                }
            }
        }
    }
    Ok(())
}
