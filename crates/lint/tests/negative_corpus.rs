//! The negative corpus: known-broken schemes and plans, each pinned to
//! its specific lint with a stable diagnostic snapshot. CI's lint-gate
//! runs the same corpus through the `lint` binary with `--expect`; these
//! tests additionally pin the diagnostic *content* (exact witness
//! queues and clause text) so a refactor that silently weakens a lint's
//! localization fails here first.

use fadr_core::hypercube::{hung_corrections, CubeMsg};
use fadr_core::{HypercubeFullyAdaptive, ShuffleExchangeRouting};
use fadr_lint::{lint_all, lint_scheme, LintConfig, LintId, Severity};
use fadr_qdg::sym::Symmetry;
use fadr_qdg::verify::test_fixtures::EcubeHypercube;
use fadr_qdg::{BufferClass, HopKind, LinkKind, QueueId, QueueKind, RoutingFunction, Transition};
use fadr_sim::FaultPlan;
use fadr_topology::{Hypercube, NodeId, Port, Topology};

/// SE(4) with the paper's literal "two classes per phase" provisioning:
/// the composite dimension count leaves the saturated class with a
/// cycle of its own, and the lint must name the exact offending queues.
#[test]
fn se4_paper_literal_flags_capacity_with_exact_queues() {
    let rf = ShuffleExchangeRouting::paper_literal(4);
    let report = lint_scheme(&rf, &LintConfig::default());
    assert!(report.errors() > 0);
    let findings: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == LintId::ClassCapacityExhausted)
        .collect();
    assert!(!findings.is_empty(), "{}", report.render_text());
    // Stable snapshot: the phase-1 saturated class cycles on the
    // period-2 shuffle necklace 0101 <-> 1010 (nodes 5 and 10).
    let witness: Vec<String> = findings[0].queues.iter().map(ToString::to_string).collect();
    assert_eq!(witness, vec!["q1[10]", "q1[5]"], "{}", report.render_text());
    assert_eq!(
        findings[0].lint.clause(),
        "§ 2 condition 1 via § 6 provisioning (a class cannot break its own cycle)"
    );
    // The diagnostic is machine-readable fadr-lint/1.
    let json = report.to_json();
    assert!(json.contains("\"schema\": \"fadr-lint/1\""));
    assert!(json.contains("\"lint\": \"class-capacity-exhausted\""));
    assert!(json.contains("q1[10]"));
    // The correctly provisioned scheme is clean of errors.
    let fixed = lint_scheme(&ShuffleExchangeRouting::new(4), &LintConfig::default());
    assert_eq!(fixed.errors(), 0, "{}", fixed.render_text());
}

/// The PR 5 degraded-mode plan that cuts every channel into node 15 of
/// the 4-cube: the fault pass must name the isolated destination
/// without running any simulation.
#[test]
fn hypercube_partition_plan_flags_fault_dead_end() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/faults/hypercube_partition.json"
    ))
    .expect("corpus plan exists");
    let plan = FaultPlan::parse(&text).expect("corpus plan parses");
    let rf = fadr_core::HypercubeFullyAdaptive::new(4);
    let report = lint_all(&rf, Some(&plan), &LintConfig::default());
    let f = report
        .findings
        .iter()
        .find(|f| f.lint == LintId::FaultDeadEnd)
        .unwrap_or_else(|| panic!("no fault-dead-end finding:\n{}", report.render_text()));
    // Stable snapshot: destination 15 is isolated from all 15 surviving
    // sources (the plan downs links but no nodes).
    assert_eq!(f.dst, Some(15));
    assert_eq!(f.nodes.first(), Some(&15));
    assert!(
        f.message.contains("destination 15") && f.message.contains("15 of 15 surviving source(s)"),
        "{}",
        f.message
    );
    assert_eq!(
        f.lint.clause(),
        "§ 2 on the surviving graph (no surviving minimal path)"
    );
    let summary = report.fault_plan.expect("fault summary present");
    assert_eq!(
        (summary.events, summary.dead_nodes, summary.dead_links),
        (4, 0, 4)
    );
    // The plan's link events name real channels and in-range nodes.
    assert!(!report.has(LintId::FaultOutOfRange));
    assert!(!report.has(LintId::FaultNoopLink));
}

/// Hand-built non-minimal scheme: e-cube on the 2-cube that *claims*
/// minimality but detours 0 → 2 when routing to 1.
struct DetourEcube {
    cube: Hypercube,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Dst(NodeId);

impl RoutingFunction for DetourEcube {
    type Msg = Dst;

    fn topology(&self) -> &dyn Topology {
        &self.cube
    }

    fn num_classes(&self) -> usize {
        1
    }

    fn initial_msg(&self, _src: NodeId, dst: NodeId) -> Dst {
        Dst(dst)
    }

    fn destination(&self, msg: &Dst) -> NodeId {
        msg.0
    }

    fn deliverable(&self, node: NodeId, msg: &Dst) -> bool {
        node == msg.0
    }

    fn for_each_transition(&self, at: QueueId, msg: &Dst, f: &mut dyn FnMut(Transition<Dst>)) {
        let hop = |dim: usize| Transition {
            kind: LinkKind::Static,
            hop: HopKind::Link(dim),
            to: QueueId::central(at.node ^ (1 << dim), 0),
            msg: msg.clone(),
        };
        match at.kind {
            QueueKind::Inject => f(Transition {
                kind: LinkKind::Static,
                hop: HopKind::Internal,
                to: QueueId::central(at.node, 0),
                msg: msg.clone(),
            }),
            QueueKind::Central(_) if at.node == msg.0 => f(Transition {
                kind: LinkKind::Static,
                hop: HopKind::Internal,
                to: QueueId::deliver(at.node),
                msg: msg.clone(),
            }),
            QueueKind::Central(_) => {
                if at.node == 0 && msg.0 == 1 {
                    // The detour: walk AWAY from 1 via dimension 1.
                    f(hop(1));
                } else {
                    f(hop((at.node ^ msg.0).trailing_zeros() as usize));
                }
            }
            QueueKind::Deliver => {}
        }
    }

    fn buffer_classes(&self, _node: NodeId, _port: Port) -> Vec<BufferClass> {
        vec![BufferClass::Static(0)]
    }

    fn is_minimal(&self) -> bool {
        true // the lie the lint catches
    }

    fn max_hops(&self) -> usize {
        4
    }

    fn name(&self) -> String {
        "detour-ecube (negative corpus)".into()
    }
}

impl Symmetry for DetourEcube {}

#[test]
fn hand_built_detour_flags_non_minimal_hop() {
    let rf = DetourEcube {
        cube: Hypercube::new(2),
    };
    let report = lint_scheme(&rf, &LintConfig::default());
    let f = report
        .findings
        .iter()
        .find(|f| f.lint == LintId::NonMinimalHop)
        .unwrap_or_else(|| panic!("no non-minimal-hop finding:\n{}", report.render_text()));
    // Stable snapshot: the offending hop is q0[0] -> q0[2] toward dst 1.
    let witness: Vec<String> = f.queues.iter().map(ToString::to_string).collect();
    assert_eq!(witness, vec!["q0[0]", "q0[2]"]);
    assert_eq!(f.dst, Some(1));
    assert!(f.message.contains("distance 1 -> 2"), "{}", f.message);
    assert_eq!(f.lint.severity(), Severity::Error);
}

/// The classic single-queue store-and-forward deadlock: its static
/// cycle is confined to the only class, so the lint classifies it as
/// capacity exhaustion, not an order problem.
#[test]
fn single_queue_ecube_flags_capacity_not_order() {
    let report = lint_scheme(&EcubeHypercube::new(2), &LintConfig::default());
    assert!(
        report.has(LintId::ClassCapacityExhausted),
        "{}",
        report.render_text()
    );
    assert!(!report.has(LintId::UnrankableClassOrder));
    // Every queue in the witness cycle is a class-0 central queue.
    let f = report
        .findings
        .iter()
        .find(|f| f.lint == LintId::ClassCapacityExhausted)
        .expect("finding present");
    assert!(f.queues.len() >= 2);
    assert!(f
        .queues
        .iter()
        .all(|q| matches!(q.kind, QueueKind::Central(0))));
}

/// `HypercubeFullyAdaptive` with a wrong state key, one that drops the
/// `ones` mask: states that differ only in their upward corrections
/// share a key although their moves differ.
struct DropOnes(HypercubeFullyAdaptive);

impl RoutingFunction for DropOnes {
    type Msg = CubeMsg;

    fn topology(&self) -> &dyn Topology {
        self.0.topology()
    }

    fn num_classes(&self) -> usize {
        self.0.num_classes()
    }

    fn initial_msg(&self, src: NodeId, dst: NodeId) -> CubeMsg {
        self.0.initial_msg(src, dst)
    }

    fn destination(&self, msg: &CubeMsg) -> NodeId {
        self.0.destination(msg)
    }

    fn deliverable(&self, node: NodeId, msg: &CubeMsg) -> bool {
        self.0.deliverable(node, msg)
    }

    fn for_each_transition(
        &self,
        at: QueueId,
        msg: &CubeMsg,
        f: &mut dyn FnMut(Transition<CubeMsg>),
    ) {
        self.0.for_each_transition(at, msg, f);
    }

    fn buffer_classes(&self, node: NodeId, port: Port) -> Vec<BufferClass> {
        self.0.buffer_classes(node, port)
    }

    fn is_minimal(&self) -> bool {
        self.0.is_minimal()
    }

    fn max_hops(&self) -> usize {
        self.0.max_hops()
    }

    fn name(&self) -> String {
        format!("drop-ones[{}]", self.0.name())
    }

    fn state_key(&self, node: NodeId, class: u8, msg: &CubeMsg) -> Option<u64> {
        let (zeros, _ones) = hung_corrections(node, msg.dst, self.0.root());
        Some((u64::from(class) << 32) | zeros as u64)
    }
}

impl Symmetry for DropOnes {}

#[test]
fn a_key_that_drops_ones_flags_state_key() {
    let rf = DropOnes(HypercubeFullyAdaptive::new(4));
    let report = lint_scheme(&rf, &LintConfig::default());
    let f = report
        .findings
        .iter()
        .find(|f| f.lint == LintId::StateKey)
        .unwrap_or_else(|| panic!("no state-key finding:\n{}", report.render_text()));
    // Stable snapshot: the first two states to share a key are the
    // phase-B states 1 -> 0 and 2 -> 0. Each has one move and it
    // delivers, but on different ports.
    let witness: Vec<String> = f.queues.iter().map(ToString::to_string).collect();
    assert_eq!(witness, vec!["q1[1]", "q1[2]"]);
    assert_eq!(f.dst, Some(0));
    assert!(
        f.message
            .contains("class 1 [pos 0 -> q1 delivers] vs class 1 [pos 2 -> q1 delivers]"),
        "{}",
        f.message
    );
    assert_eq!(f.lint.severity(), Severity::Error);
    // The scheme's own key is clean, and the check explores no states
    // of its own.
    let honest = lint_scheme(&HypercubeFullyAdaptive::new(4), &LintConfig::default());
    assert!(!honest.has(LintId::StateKey), "{}", honest.render_text());
    assert_eq!(honest.errors(), 0, "{}", honest.render_text());
    assert_eq!(honest.states_explored, report.states_explored);
}

/// Toggles: `--allow`-style suppression hides a lint; `only` runs one.
#[test]
fn lint_toggles_suppress_and_select() {
    let rf = ShuffleExchangeRouting::paper_literal(4);
    let off = LintConfig {
        disabled: vec![LintId::ClassCapacityExhausted],
    };
    let report = lint_scheme(&rf, &off);
    assert!(!report.has(LintId::ClassCapacityExhausted));
    let only = lint_scheme(&rf, &LintConfig::only(&[LintId::ClassCapacityExhausted]));
    assert!(only.has(LintId::ClassCapacityExhausted));
    assert_eq!(only.warnings(), 0, "{}", only.render_text());
}
