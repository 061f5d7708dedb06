//! Cross-validation of the certifier against the exhaustive checker:
//! on every small instance the two must agree on accept/reject, and
//! every emitted certificate must survive the independent checker. The
//! one per-destination state walk that the certifier and the linter
//! share is pinned to the per-pair reference (`explore_pair`) on the
//! same instances.

use std::collections::HashSet;
use std::convert::Infallible;

use fadr_core::{
    AdaptiveSbp, EcubeSbp, HypercubeFullyAdaptive, HypercubeStaticHang, MeshFullyAdaptive,
    MeshKDFullyAdaptive, MeshStaticHang, MeshXY, ShuffleExchangeRouting, TorusTwoPhase,
};
use fadr_lint::{lint_scheme, LintConfig};
use fadr_qdg::explore::explore_pair;
use fadr_qdg::sym::Symmetry;
use fadr_qdg::verify::verify_deadlock_free;
use fadr_qdg::walk::Walk;
use fadr_qdg::{BufferClass, HopKind, LinkKind, QueueId, QueueKind, RoutingFunction, Transition};
use fadr_topology::{Hypercube, Mesh2D, NodeId, Port, Topology};
use fadr_verify::{certify, check_certificate, ClassifierMode, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Certifier and exhaustive checker must agree; certificates must
/// check; the walk must visit exactly the pairs' states; and a
/// certificate over every destination must count the states and queues
/// that lint counts.
fn assert_parity<R: Symmetry + ?Sized>(rf: &R) {
    assert_walk_is_union_of_pairs(rf);
    let exhaustive = verify_deadlock_free(rf);
    let outcome = certify(rf);
    match (&exhaustive, &outcome) {
        (Ok(()), Outcome::Certified(cert)) => {
            check_certificate(rf, cert).unwrap_or_else(|e| {
                panic!(
                    "{}: emitted certificate fails its own checker: {e}",
                    rf.name()
                )
            });
            // Representative destinations (the hypercube schemes) explore
            // fewer states by design; over every destination, lint and
            // certify walk the same states.
            if cert.all_dsts {
                let report = lint_scheme(rf, &LintConfig::default());
                assert_eq!(
                    (report.states_explored, report.queues_seen),
                    (cert.states_explored, cert.queues_seen),
                    "{}: lint's (states, queues) differ from the certificate's",
                    rf.name()
                );
            }
        }
        (Err(_), Outcome::Rejected(_)) => {}
        (Ok(()), Outcome::Rejected(r)) => {
            panic!(
                "{}: exhaustive accepts but certifier rejects: {}",
                rf.name(),
                r.violation
            )
        }
        (Err(v), Outcome::Certified(_)) => {
            panic!(
                "{}: exhaustive rejects ({v}) but certifier accepts",
                rf.name()
            )
        }
    }
}

/// For every destination, the walk's state set is the union over
/// sources of `explore_pair(src, dst).states`: source elimination
/// neither loses nor invents a state.
fn assert_walk_is_union_of_pairs<R: RoutingFunction + ?Sized>(rf: &R) {
    let n = rf.topology().num_nodes();
    let mut walk = Walk::default();
    for dst in 0..n {
        let Ok(_) = walk.run(rf, dst, |_, _, _| Ok::<(), Infallible>(()));
        let walked: HashSet<_> = walk.states().iter().cloned().collect();
        let pairs: HashSet<_> = (0..n)
            .filter(|&src| src != dst)
            .flat_map(|src| explore_pair(rf, src, dst).states)
            .collect();
        assert!(
            walked == pairs,
            "{}: the walk toward {dst} visits {} states, the pairs' union {}",
            rf.name(),
            walked.len(),
            pairs.len()
        );
    }
}

#[test]
fn hypercube_schemes_agree_with_exhaustive() {
    for n in 1..=4 {
        assert_parity(&HypercubeFullyAdaptive::new(n));
        assert_parity(&HypercubeStaticHang::new(n));
        assert_parity(&EcubeSbp::new(n));
    }
}

#[test]
fn mesh_schemes_agree_with_exhaustive() {
    for (w, h) in [(2, 2), (3, 3), (3, 4), (4, 4), (5, 2)] {
        assert_parity(&MeshFullyAdaptive::new(w, h));
        assert_parity(&MeshStaticHang::new(w, h));
        assert_parity(&MeshXY::new(w, h));
    }
    assert_parity(&MeshKDFullyAdaptive::new(&[3, 3, 2]));
    assert_parity(&MeshKDFullyAdaptive::new(&[2, 2, 2, 2]));
}

#[test]
fn torus_and_se_and_sbp_agree_with_exhaustive() {
    for (w, h) in [(3, 3), (4, 4), (5, 3)] {
        assert_parity(&TorusTwoPhase::new(w, h));
    }
    for n in 2..=4 {
        assert_parity(&ShuffleExchangeRouting::new(n));
        assert_parity(&ShuffleExchangeRouting::without_dynamic_links(n));
    }
    // Paper-literal SE: sound for prime n, deadlock-prone for n = 4.
    assert_parity(&ShuffleExchangeRouting::paper_literal(3));
    assert_parity(&ShuffleExchangeRouting::paper_literal(4));
    assert_parity(&AdaptiveSbp::new(Hypercube::new(3)));
    assert_parity(&AdaptiveSbp::new(Mesh2D::new(3, 4)));
}

#[test]
fn random_small_instances_agree_with_exhaustive() {
    // Seeded property coverage, repo idiom: random small shapes, both
    // checkers must agree and every certificate must check.
    let mut rng = StdRng::seed_from_u64(0xfad_5eed_0001);
    const CASES: usize = 24;
    for _ in 0..CASES {
        match rng.gen_range(0..4u8) {
            0 => {
                let n = rng.gen_range(1..=4usize);
                assert_parity(&HypercubeFullyAdaptive::new(n));
            }
            1 => {
                let (w, h) = (rng.gen_range(2..=5usize), rng.gen_range(2..=5usize));
                assert_parity(&MeshFullyAdaptive::new(w, h));
            }
            2 => {
                let (w, h) = (rng.gen_range(3..=5usize), rng.gen_range(3..=5usize));
                assert_parity(&TorusTwoPhase::new(w, h));
            }
            _ => {
                let n = rng.gen_range(2..=4usize);
                assert_parity(&ShuffleExchangeRouting::new(n));
            }
        }
    }
}

#[test]
fn hypercube_representatives_cover_all_destinations() {
    // The trusted boundary: the hypercube schemes nominate one
    // representative destination per Hamming level. Re-running the same
    // classifier over *all* destinations must produce the identical
    // static class-edge set and verdict.
    let rf = HypercubeFullyAdaptive::new(4);
    let reduced = fadr_verify::classgraph::build(&rf, false).unwrap();
    let full = fadr_verify::classgraph::build(&rf, true).unwrap();
    let edge_set = |cg: &fadr_verify::ClassGraph| {
        let mut edges: Vec<(String, String)> = cg
            .witnesses
            .keys()
            .map(|&(a, b)| (cg.classes[a].to_string(), cg.classes[b].to_string()))
            .collect();
        edges.sort();
        edges
    };
    assert!(reduced.dsts.len() < full.dsts.len());
    assert_eq!(edge_set(&reduced), edge_set(&full));
}

#[test]
fn tampered_certificate_is_rejected() {
    let rf = HypercubeFullyAdaptive::new(4);
    let Outcome::Certified(cert) = certify(&rf) else {
        panic!("hypercube must certify")
    };
    check_certificate(&rf, &cert).unwrap();
    // Swap two central-class ranks: some static transition now descends.
    let mut bad = cert.clone();
    let centrals: Vec<usize> = bad
        .ranks
        .iter()
        .enumerate()
        .filter(|(_, (c, _))| matches!(c.kind, QueueKind::Central(_)))
        .map(|(i, _)| i)
        .collect();
    let (i, j) = (centrals[0], centrals[centrals.len() - 1]);
    let (ri, rj) = (bad.ranks[i].1, bad.ranks[j].1);
    bad.ranks[i].1 = rj;
    bad.ranks[j].1 = ri;
    let err = check_certificate(&rf, &bad).expect_err("tampered ranks must fail");
    assert!(err.contains("rank"), "{err}");
    // A certificate for the wrong instance must also fail.
    let other = HypercubeFullyAdaptive::new(3);
    assert!(check_certificate(&other, &cert).is_err());
}

#[test]
fn scheme_classifiers_are_actually_reduced() {
    // The point of the tentpole: certificates for the structured schemes
    // must come from the scheme classifier (no concrete fallback) with a
    // class count independent of (or much smaller than) the queue count.
    let rf = HypercubeFullyAdaptive::new(5);
    let Outcome::Certified(cert) = certify(&rf) else {
        panic!("must certify")
    };
    assert!(matches!(cert.classifier, ClassifierMode::Scheme { .. }));
    assert!(!cert.all_dsts, "hypercube uses level representatives");
    assert!(
        cert.ranks.len() < cert.queues_seen / 4,
        "classes {} vs queues {}",
        cert.ranks.len(),
        cert.queues_seen
    );
    let rf = MeshFullyAdaptive::new(6, 6);
    let Outcome::Certified(cert) = certify(&rf) else {
        panic!("must certify")
    };
    assert!(matches!(cert.classifier, ClassifierMode::Scheme { .. }));
    assert!(cert.ranks.len() < cert.queues_seen / 2);
}

// --- a deliberately broken scheme: single-queue store-and-forward e-cube ---

/// Oblivious ascending-dimension routing with one central queue per node:
/// the classic store-and-forward deadlock (cyclic static QDG).
struct Ecube1Q {
    cube: Hypercube,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Msg {
    dst: NodeId,
}

impl RoutingFunction for Ecube1Q {
    type Msg = Msg;

    fn topology(&self) -> &dyn Topology {
        &self.cube
    }

    fn num_classes(&self) -> usize {
        1
    }

    fn initial_msg(&self, _src: NodeId, dst: NodeId) -> Msg {
        Msg { dst }
    }

    fn destination(&self, msg: &Msg) -> NodeId {
        msg.dst
    }

    fn deliverable(&self, node: NodeId, msg: &Msg) -> bool {
        node == msg.dst
    }

    fn for_each_transition(&self, at: QueueId, msg: &Msg, f: &mut dyn FnMut(Transition<Msg>)) {
        match at.kind {
            QueueKind::Inject => f(Transition {
                kind: LinkKind::Static,
                hop: HopKind::Internal,
                to: QueueId::central(at.node, 0),
                msg: *msg,
            }),
            QueueKind::Central(_) => {
                if at.node == msg.dst {
                    f(Transition {
                        kind: LinkKind::Static,
                        hop: HopKind::Internal,
                        to: QueueId::deliver(at.node),
                        msg: *msg,
                    });
                } else {
                    let dim = (at.node ^ msg.dst).trailing_zeros() as usize;
                    f(Transition {
                        kind: LinkKind::Static,
                        hop: HopKind::Link(dim),
                        to: QueueId::central(at.node ^ (1 << dim), 0),
                        msg: *msg,
                    });
                }
            }
            QueueKind::Deliver => {}
        }
    }

    fn buffer_classes(&self, _node: NodeId, _port: Port) -> Vec<BufferClass> {
        vec![BufferClass::Static(0)]
    }

    fn is_minimal(&self) -> bool {
        true
    }

    fn max_hops(&self) -> usize {
        self.cube.dims()
    }

    fn name(&self) -> String {
        "ecube-1q".into()
    }
}

impl Symmetry for Ecube1Q {}

#[test]
fn broken_scheme_yields_a_concrete_counterexample() {
    let rf = Ecube1Q {
        cube: Hypercube::new(3),
    };
    assert!(verify_deadlock_free(&rf).is_err());
    let Outcome::Rejected(rej) = certify(&rf) else {
        panic!("store-and-forward e-cube must be rejected")
    };
    assert_eq!(rej.violation.check, "deadlock-free");
    let cx = rej
        .counterexample
        .as_ref()
        .expect("cycle rejection carries a counterexample");
    assert!(cx.cycle.len() >= 2);
    assert_eq!(cx.cycle.len(), cx.edges.len());
    // Every edge witness matches its cycle edge and names a real route.
    for (k, e) in cx.edges.iter().enumerate() {
        assert_eq!(e.from, cx.cycle[k]);
        assert_eq!(e.to, cx.cycle[(k + 1) % cx.cycle.len()]);
        assert!(matches!(e.from.kind, QueueKind::Central(_)));
    }
    // The violation mirrors the cycle and the DOT renders it.
    assert_eq!(rej.violation.queues, cx.cycle);
    assert!(cx.dot.contains("digraph"));
    for q in &cx.cycle {
        assert!(cx.dot.contains(&q.to_string()), "{q} missing from dot");
    }
}
