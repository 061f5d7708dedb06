//! `fadr-lint`: a static scheme analyzer running a battery of named,
//! individually toggleable lints over a routing scheme × topology (and
//! optionally a fault plan), *before* any simulation or certification.
//!
//! The paper's deadlock-freedom argument (§ 2) is a set of statically
//! checkable conditions on the buffer-class graph. The certifier
//! (`fadr-verify`) decides accept/reject; the watchdog catches the
//! fallout at runtime. This crate sits in front of both and *localizes*
//! the violated clause instead: every [`Finding`] names its lint, the
//! paper clause it mechanizes, a concrete witness (queues, nodes, the
//! destination and message state that exhibit it), and a suggested fix.
//! Findings serialize as `fadr-lint/1` JSON ([`Report::to_json`]) so CI
//! can gate on them fail-closed.
//!
//! The battery (see [`LintId`]):
//!
//! * **Errors** — conditions whose violation the certifier would also
//!   reject (the parity suite in `tests/parity.rs` pins *lint-clean ⇒
//!   certifier accepts*): dead ends, delivery at the wrong node, missing
//!   static escapes (§ 2 condition 3), static stutter cycles, and static
//!   QDG cycles — split into [`LintId::ClassCapacityExhausted`] (the
//!   cycle is confined to one buffer class, so the class order can never
//!   break it: a *provisioning* bug, e.g.
//!   `ShuffleExchangeRouting::paper_literal` on composite `n`) and
//!   [`LintId::UnrankableClassOrder`] (the cycle spans classes: the
//!   class *order* itself is broken). Minimality violations, undeclared
//!   buffer classes and a relative state key that merges states with
//!   different moves ([`LintId::StateKey`]) are errors the certifier
//!   does not check.
//! * **Warnings** — provisioning smells that cost hardware or trust but
//!   not correctness: declared-but-unused buffer classes, central
//!   classes never occupied, and a declared symmetry quotient that is
//!   unrankable even though the concrete order is fine.
//! * **Fault-plan lints** — static dead-end analysis of a
//!   `fadr-faults/1` plan: destinations with no surviving minimal path,
//!   plus well-formedness of the plan against the instance.
//!
//! The analysis is exact: the lints visit the one per-destination state
//! walk (`fadr_qdg::walk`, which the certifier's class-graph builder
//! visits too), always over *all* destinations with the identity
//! classifier — lints never trust a scheme's symmetry declaration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
mod engine;
mod faultpass;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use fadr_qdg::sym::Symmetry;
use fadr_qdg::{QueueId, RoutingFunction};
use fadr_sim::json::{self, Quoted};
use fadr_sim::FaultPlan;
use fadr_topology::NodeId;

/// Diagnostic schema identifier.
pub const SCHEMA: &str = "fadr-lint/1";

/// Witnesses kept per lint before further findings are only counted.
pub const MAX_WITNESSES_PER_LINT: usize = 16;

/// Severity of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: costs hardware or trust, not correctness.
    Warning,
    /// The scheme (or plan) violates a correctness condition.
    Error,
}

impl Severity {
    /// Lowercase name used in JSON and text output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// The lint battery. Each lint has a stable kebab-case id (used by CI
/// and the `--allow`/`--only`/`--expect` flags), a fixed severity, and
/// the paper clause it mechanizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintId {
    /// A route option's link hop fails to decrease the distance to the
    /// destination although the scheme claims minimality.
    NonMinimalHop,
    /// A reachable, non-delivered state has no transition at all.
    DeadEnd,
    /// A route delivers at a node other than its destination.
    WrongDelivery,
    /// A reachable state has no *static* continuation, so a message that
    /// arrived over a dynamic link may have no escape (§ 2 condition 3).
    NoStaticEscape,
    /// A static same-queue stutter cycle: states cycle in place without
    /// acquiring a new queue, invisible to the QDG rank argument.
    StutterCycle,
    /// The static QDG has a cycle spanning several buffer classes: no
    /// rank function over the static class order exists.
    UnrankableClassOrder,
    /// The static QDG has a cycle confined to a single buffer class:
    /// however the classes are ordered, this class can never break its
    /// own cycle — a provisioning bug (add a class).
    ClassCapacityExhausted,
    /// A link hop lands in a buffer class the channel does not declare.
    UndeclaredBufferClass,
    /// A channel declares a buffer class no route ever uses.
    ShadowedBufferClass,
    /// A central queue class below `num_classes()` is never occupied.
    UnreachableClass,
    /// The scheme declares more than 256 central queue classes: class
    /// ids are 8-bit throughout the § 6 buffer encoding, so such a
    /// declaration cannot be provisioned (and would previously panic
    /// the analyzer instead of producing a finding).
    ClassCountOverflow,
    /// The scheme's declared symmetry quotient is cyclic although the
    /// concrete static QDG is acyclic: the certifier must fall back.
    NonMonotoneClassOrder,
    /// Two reachable central states share a relative state key
    /// (`RoutingFunction::state_key`) but differ in class or moves, so
    /// the routing-state table would give one of them the other's moves.
    StateKey,
    /// A fault plan leaves a destination with no surviving minimal path
    /// from some surviving source.
    FaultDeadEnd,
    /// A fault event references a node, link endpoint, or queue class
    /// outside the instance.
    FaultOutOfRange,
    /// A link fault names a node pair that is not a channel (no-op).
    FaultNoopLink,
}

/// Every lint, in reporting order.
pub const ALL_LINTS: &[LintId] = &[
    LintId::NonMinimalHop,
    LintId::DeadEnd,
    LintId::WrongDelivery,
    LintId::NoStaticEscape,
    LintId::StutterCycle,
    LintId::UnrankableClassOrder,
    LintId::ClassCapacityExhausted,
    LintId::UndeclaredBufferClass,
    LintId::ShadowedBufferClass,
    LintId::UnreachableClass,
    LintId::ClassCountOverflow,
    LintId::NonMonotoneClassOrder,
    LintId::StateKey,
    LintId::FaultDeadEnd,
    LintId::FaultOutOfRange,
    LintId::FaultNoopLink,
];

impl LintId {
    /// Stable kebab-case identifier.
    pub fn id(self) -> &'static str {
        match self {
            LintId::NonMinimalHop => "non-minimal-hop",
            LintId::DeadEnd => "dead-end",
            LintId::WrongDelivery => "wrong-delivery",
            LintId::NoStaticEscape => "no-static-escape",
            LintId::StutterCycle => "stutter-cycle",
            LintId::UnrankableClassOrder => "unrankable-class-order",
            LintId::ClassCapacityExhausted => "class-capacity-exhausted",
            LintId::UndeclaredBufferClass => "undeclared-buffer-class",
            LintId::ShadowedBufferClass => "shadowed-buffer-class",
            LintId::UnreachableClass => "unreachable-class",
            LintId::ClassCountOverflow => "class-count-overflow",
            LintId::NonMonotoneClassOrder => "non-monotone-class-order",
            LintId::StateKey => "state-key",
            LintId::FaultDeadEnd => "fault-dead-end",
            LintId::FaultOutOfRange => "fault-out-of-range",
            LintId::FaultNoopLink => "fault-noop-link",
        }
    }

    /// Parse a stable identifier back into a lint.
    pub fn from_id(s: &str) -> Option<Self> {
        ALL_LINTS.iter().copied().find(|l| l.id() == s)
    }

    /// Fixed severity of the lint's findings.
    pub fn severity(self) -> Severity {
        match self {
            LintId::NonMinimalHop
            | LintId::DeadEnd
            | LintId::WrongDelivery
            | LintId::NoStaticEscape
            | LintId::StutterCycle
            | LintId::UnrankableClassOrder
            | LintId::ClassCapacityExhausted
            | LintId::UndeclaredBufferClass
            | LintId::ClassCountOverflow
            | LintId::StateKey
            | LintId::FaultDeadEnd
            | LintId::FaultOutOfRange => Severity::Error,
            LintId::ShadowedBufferClass
            | LintId::UnreachableClass
            | LintId::NonMonotoneClassOrder
            | LintId::FaultNoopLink => Severity::Warning,
        }
    }

    /// The paper clause (or plan invariant) the lint mechanizes — see
    /// DESIGN.md § 14 for the full mapping.
    pub fn clause(self) -> &'static str {
        match self {
            LintId::NonMinimalHop => "Theorems 1-2 (minimal-path restriction)",
            LintId::DeadEnd => "§ 2 (R̃ total: every reachable state keeps a continuation)",
            LintId::WrongDelivery => "§ 2 (delivery only at the destination)",
            LintId::NoStaticEscape => "§ 2 condition 3 (static escape always available)",
            LintId::StutterCycle => "§ 2 condition 1 (acyclic static QDG; stutter cycles)",
            LintId::UnrankableClassOrder => "§ 2 condition 1 (acyclic static QDG)",
            LintId::ClassCapacityExhausted => {
                "§ 2 condition 1 via § 6 provisioning (a class cannot break its own cycle)"
            }
            LintId::UndeclaredBufferClass => "§ 6 (buffer provisioning: undeclared class in use)",
            LintId::ShadowedBufferClass => "§ 6 (buffer provisioning: declared class never used)",
            LintId::UnreachableClass => "§ 6 (central queue class never occupied)",
            LintId::ClassCountOverflow => "§ 6 (class ids are 8-bit; num_classes must be ≤ 256)",
            LintId::NonMonotoneClassOrder => {
                "§ 2 condition 1 (declared symmetry quotient unrankable)"
            }
            LintId::StateKey => "routing-state table (one state key, one class and move list)",
            LintId::FaultDeadEnd => "§ 2 on the surviving graph (no surviving minimal path)",
            LintId::FaultOutOfRange | LintId::FaultNoopLink => {
                "fadr-faults/1 well-formedness against the instance"
            }
        }
    }

    /// Generic suggested fix for the lint's findings.
    pub fn suggestion(self) -> &'static str {
        match self {
            LintId::NonMinimalHop => {
                "drop the hop from R̃, or stop claiming minimality (is_minimal)"
            }
            LintId::DeadEnd => "give the state a static continuation or make it deliverable",
            LintId::WrongDelivery => "gate the delivery hop on node == destination",
            LintId::NoStaticEscape => {
                "keep at least one static link in R̃ at this state (condition 3)"
            }
            LintId::StutterCycle => "bound the stutter counter so in-place states cannot cycle",
            LintId::UnrankableClassOrder => {
                "reorder the classes so every static hop ascends (Kahn-rankable)"
            }
            LintId::ClassCapacityExhausted => {
                "provision an additional class to break this cycle (cf. classes_per_phase)"
            }
            LintId::UndeclaredBufferClass => "declare the class in buffer_classes for this channel",
            LintId::ShadowedBufferClass => {
                "remove the declared class from this channel (unused buffers cost hardware)"
            }
            LintId::UnreachableClass => "lower num_classes or route traffic through the class",
            LintId::ClassCountOverflow => "declare at most 256 central queue classes",
            LintId::NonMonotoneClassOrder => {
                "refine queue_class so static class edges ascend (avoids the exact fallback pass)"
            }
            LintId::StateKey => "refine state_key so it separates these states, or declare none",
            LintId::FaultDeadEnd => {
                "drop the disconnecting events or accept a Partitioned verdict for these flows"
            }
            LintId::FaultOutOfRange => "fix the event's node/class against this instance",
            LintId::FaultNoopLink => "name an existing directed channel (from, to)",
        }
    }
}

/// One diagnostic: a lint, its concrete witness, and a suggested fix.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which lint fired.
    pub lint: LintId,
    /// What went wrong, rendered for humans.
    pub message: String,
    /// The queues implicated (a cycle in order, or the offending queue).
    pub queues: Vec<QueueId>,
    /// The nodes implicated when no queue is (fault-plan findings).
    pub nodes: Vec<NodeId>,
    /// The destination whose routes exhibit the finding, if any.
    pub dst: Option<NodeId>,
    /// Debug rendering of the message state taking the offending hop.
    pub state: Option<String>,
}

impl Finding {
    /// Severity, inherited from the lint.
    pub fn severity(&self) -> Severity {
        self.lint.severity()
    }
}

/// Which lints to run. Default: all of them.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// Lints to skip entirely.
    pub disabled: Vec<LintId>,
}

impl LintConfig {
    /// Enable only the given lints.
    pub fn only(lints: &[LintId]) -> Self {
        Self {
            disabled: ALL_LINTS
                .iter()
                .copied()
                .filter(|l| !lints.contains(l))
                .collect(),
        }
    }

    /// Whether `lint` should run.
    pub fn enabled(&self, lint: LintId) -> bool {
        !self.disabled.contains(&lint)
    }
}

/// Collects findings with a per-lint witness cap (further findings are
/// only counted, so a badly broken scheme cannot flood the report).
pub(crate) struct Collector<'c> {
    cfg: &'c LintConfig,
    findings: Vec<Finding>,
    per_lint: BTreeMap<LintId, usize>,
}

impl<'c> Collector<'c> {
    pub(crate) fn new(cfg: &'c LintConfig) -> Self {
        Self {
            cfg,
            findings: Vec::new(),
            per_lint: BTreeMap::new(),
        }
    }

    pub(crate) fn enabled(&self, lint: LintId) -> bool {
        self.cfg.enabled(lint)
    }

    pub(crate) fn emit(&mut self, f: Finding) {
        if !self.cfg.enabled(f.lint) {
            return;
        }
        let n = self.per_lint.entry(f.lint).or_insert(0);
        *n += 1;
        if *n <= MAX_WITNESSES_PER_LINT {
            self.findings.push(f);
        }
    }
}

/// Summary of the fault plan a report was produced against.
#[derive(Debug, Clone, Copy)]
pub struct FaultSummary {
    /// Total scheduled events.
    pub events: usize,
    /// Permanently dead nodes after all events fired.
    pub dead_nodes: usize,
    /// Permanently dead directed links (excluding dead-node incidences).
    pub dead_links: usize,
}

/// The result of a lint run: all findings plus instance metadata,
/// serializable as `fadr-lint/1` JSON.
#[derive(Debug)]
pub struct Report {
    /// Scheme name (`RoutingFunction::name`).
    pub scheme: String,
    /// Topology name.
    pub topology: String,
    /// Node count of the instance.
    pub nodes: usize,
    /// Total `(queue, message)` states explored.
    pub states_explored: usize,
    /// Distinct concrete queues with outgoing transitions.
    pub queues_seen: usize,
    /// Present when the run included fault-plan lints.
    pub fault_plan: Option<FaultSummary>,
    /// The findings, in battery order of first occurrence.
    pub findings: Vec<Finding>,
    /// Findings beyond [`MAX_WITNESSES_PER_LINT`], counted per lint.
    pub suppressed: Vec<(LintId, usize)>,
}

impl Report {
    fn from_collector(
        scheme: String,
        topology: String,
        nodes: usize,
        states_explored: usize,
        queues_seen: usize,
        fault_plan: Option<FaultSummary>,
        col: Collector<'_>,
    ) -> Self {
        let suppressed = col
            .per_lint
            .iter()
            .filter(|&(_, &n)| n > MAX_WITNESSES_PER_LINT)
            .map(|(&l, &n)| (l, n - MAX_WITNESSES_PER_LINT))
            .collect();
        Self {
            scheme,
            topology,
            nodes,
            states_explored,
            queues_seen,
            fault_plan,
            findings: col.findings,
            suppressed,
        }
    }

    /// Number of error findings (suppressed witnesses included).
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning findings (suppressed witnesses included).
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, sev: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity() == sev).count()
            + self
                .suppressed
                .iter()
                .filter(|(l, _)| l.severity() == sev)
                .map(|&(_, n)| n)
                .sum::<usize>()
    }

    /// Whether a finding of the given lint is present.
    pub fn has(&self, lint: LintId) -> bool {
        self.findings.iter().any(|f| f.lint == lint)
    }

    /// Serialize as a one-line `fadr-lint/1` JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"schema\": {}, \"scheme\": {}, \"topology\": {}, \"nodes\": {}, \"states_explored\": {}, \"queues_seen\": {}, \"fault_plan\": ",
            Quoted(SCHEMA),
            Quoted(&self.scheme),
            Quoted(&self.topology),
            self.nodes,
            self.states_explored,
            self.queues_seen
        );
        let _ = match &self.fault_plan {
            Some(fp) => write!(
                s,
                "{{\"events\": {}, \"dead_nodes\": {}, \"dead_links\": {}}}",
                fp.events, fp.dead_nodes, fp.dead_links
            ),
            None => write!(s, "null"),
        };
        s.push_str(", \"findings\": ");
        json::list(&mut s, &self.findings, |s, f| {
            let dst = f.dst.map_or("null".into(), |d| d.to_string());
            let state = f
                .state
                .as_deref()
                .map_or("null".into(), |m| Quoted(m).to_string());
            write!(
                s,
                "{{\"lint\": {}, \"severity\": {}, \"clause\": {}, \"message\": {}, \"witness\": {{\"queues\": ",
                Quoted(f.lint.id()),
                Quoted(f.severity().as_str()),
                Quoted(f.lint.clause()),
                Quoted(&f.message)
            )?;
            json::list(s, &f.queues, |s, q| write!(s, "{}", Quoted(&q.to_string())));
            s.push_str(", \"nodes\": ");
            json::list(s, &f.nodes, |s, v| write!(s, "{v}"));
            write!(
                s,
                ", \"dst\": {dst}, \"state\": {state}}}, \"suggestion\": {}}}",
                Quoted(f.lint.suggestion())
            )
        });
        s.push_str(", \"suppressed\": ");
        json::list(&mut s, &self.suppressed, |s, (l, n)| {
            write!(s, "{{\"lint\": {}, \"count\": {n}}}", Quoted(l.id()))
        });
        let _ = writeln!(
            s,
            ", \"errors\": {}, \"warnings\": {}}}",
            self.errors(),
            self.warnings()
        );
        s
    }

    /// Render the findings as compiler-style text.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "lint {} on {} ({} nodes): {} error(s), {} warning(s) \
             [{} states explored, {} queues]",
            self.scheme,
            self.topology,
            self.nodes,
            self.errors(),
            self.warnings(),
            self.states_explored,
            self.queues_seen
        );
        for f in &self.findings {
            let _ = writeln!(
                s,
                "{}[{}]: {}",
                f.severity().as_str(),
                f.lint.id(),
                f.message
            );
            let _ = writeln!(s, "  clause: {}", f.lint.clause());
            if !f.queues.is_empty() {
                let qs: Vec<String> = f.queues.iter().map(ToString::to_string).collect();
                let _ = writeln!(s, "  queues: {}", qs.join(" -> "));
            }
            if let (Some(dst), Some(state)) = (f.dst, f.state.as_deref()) {
                let _ = writeln!(s, "  witness: route to dst {dst} in state {state}");
            } else if let Some(dst) = f.dst {
                let _ = writeln!(s, "  witness: routes to dst {dst}");
            }
            let _ = writeln!(s, "  fix: {}", f.lint.suggestion());
        }
        for (l, n) in &self.suppressed {
            let _ = writeln!(
                s,
                "note: {n} further {} finding(s) suppressed (cap {MAX_WITNESSES_PER_LINT})",
                l.id()
            );
        }
        s
    }
}

/// Run the scheme lints over every destination of the concrete instance.
pub fn lint_scheme<R: Symmetry + ?Sized>(rf: &R, cfg: &LintConfig) -> Report {
    lint_all(rf, None, cfg)
}

/// Run only the fault-plan lints of `plan` against the scheme's instance
/// (no route exploration).
pub fn lint_fault_plan<R: RoutingFunction + ?Sized>(
    rf: &R,
    plan: &FaultPlan,
    cfg: &LintConfig,
) -> Report {
    let mut col = Collector::new(cfg);
    let summary = faultpass::run(rf, plan, &mut col);
    Report::from_collector(
        rf.name(),
        rf.topology().name(),
        rf.topology().num_nodes(),
        0,
        0,
        Some(summary),
        col,
    )
}

/// Run the full battery: scheme lints plus, when a plan is given, the
/// fault-plan lints, merged into one report.
pub fn lint_all<R: Symmetry + ?Sized>(
    rf: &R,
    plan: Option<&FaultPlan>,
    cfg: &LintConfig,
) -> Report {
    let mut col = Collector::new(cfg);
    let (states_explored, queues_seen) = engine::run(rf, &mut col);
    let summary = plan.map(|p| faultpass::run(rf, p, &mut col));
    Report::from_collector(
        rf.name(),
        rf.topology().name(),
        rf.topology().num_nodes(),
        states_explored,
        queues_seen,
        summary,
        col,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_ids_roundtrip() {
        for &l in ALL_LINTS {
            assert_eq!(LintId::from_id(l.id()), Some(l));
        }
        assert_eq!(LintId::from_id("no-such-lint"), None);
    }

    #[test]
    fn config_only_disables_the_rest() {
        let cfg = LintConfig::only(&[LintId::DeadEnd]);
        assert!(cfg.enabled(LintId::DeadEnd));
        assert!(!cfg.enabled(LintId::NonMinimalHop));
    }

    #[test]
    fn collector_caps_witnesses_per_lint() {
        let cfg = LintConfig::default();
        let mut col = Collector::new(&cfg);
        for i in 0..MAX_WITNESSES_PER_LINT + 5 {
            col.emit(Finding {
                lint: LintId::DeadEnd,
                message: format!("f{i}"),
                queues: Vec::new(),
                nodes: Vec::new(),
                dst: None,
                state: None,
            });
        }
        let rep = Report::from_collector("s".into(), "t".into(), 1, 0, 0, None, col);
        assert_eq!(rep.findings.len(), MAX_WITNESSES_PER_LINT);
        assert_eq!(rep.suppressed, vec![(LintId::DeadEnd, 5)]);
        assert_eq!(rep.errors(), MAX_WITNESSES_PER_LINT + 5);
    }

    #[test]
    fn esc_escapes_json_specials() {
        let cfg = LintConfig::default();
        let mut col = Collector::new(&cfg);
        col.emit(Finding {
            lint: LintId::DeadEnd,
            message: "a\"b\\c\nd".into(),
            queues: Vec::new(),
            nodes: Vec::new(),
            dst: None,
            state: Some("\u{1}".into()),
        });
        let rep = Report::from_collector("s\"".into(), "t\\".into(), 1, 0, 0, None, col);
        let doc = rep.to_json();
        assert!(doc.contains("\"scheme\": \"s\\\"\""), "{doc}");
        assert!(doc.contains("\"topology\": \"t\\\\\""), "{doc}");
        assert!(doc.contains("\"message\": \"a\\\"b\\\\c\\nd\""), "{doc}");
        assert!(doc.contains("\"state\": \"\\u0001\""), "{doc}");
        assert_eq!(doc.lines().count(), 1);
    }
}
