//! `fadr-verify`: a scalable deadlock-freedom certifier for the SPAA'91
//! routing schemes, with machine-checkable certificates and
//! counterexample extraction.
//!
//! The exhaustive model checker (`fadr_qdg::verify`) enumerates every
//! `(src, dst)` pair — exact but quadratic, topping out around the
//! 5-cube. This crate certifies far larger instances in three layers:
//!
//! 1. **Symmetry-reduced construction** ([`classgraph`]): a visitor of
//!    the one per-destination state walk ([`fadr_qdg::walk`]; sources
//!    are folded into the seed set — transitions depend only on the
//!    `(queue, message)` state), with queues quotiented through the
//!    scheme's [`Symmetry`] declaration.
//! 2. **Certificates** ([`certificate`]): an accepted scheme yields a
//!    `fadr-verify/1` document with an explicit rank function witnessing
//!    static-DAG acyclicity plus per-class escape witnesses, re-validated
//!    from scratch by the independent [`check_certificate`].
//! 3. **Counterexamples**: a rejected scheme yields the shortest static
//!    class-graph cycle — re-derived over *concrete* queues, since a
//!    quotient cycle need not lift — annotated with the concrete routes
//!    inducing each edge and rendered via `fadr_qdg::dot`.
//!
//! Acceptance is sound unconditionally whenever all destinations are
//! explored (every concrete static edge then contributes a class edge,
//! so class ranks lift to concrete queues); the scheme's symmetry
//! promise is trusted only for schemes nominating a proper subset of
//! representative destinations (see `Symmetry`'s contract).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certificate;
pub mod check;
pub mod classgraph;
pub mod cli;
pub mod concrete;
pub mod faulted;

use std::collections::HashMap;

use fadr_qdg::dot::{qdg_to_dot, DotOptions};
use fadr_qdg::explore::Qdg;
use fadr_qdg::graph::Digraph;
use fadr_qdg::sym::Symmetry;
use fadr_qdg::verify::Violation;
use fadr_qdg::QueueId;

pub use certificate::{Certificate, ClassifierMode, SCHEMA};
pub use check::check_certificate;
pub use classgraph::{ClassGraph, EdgeWitness, EscapeWitness};
pub use concrete::Concrete;
pub use faulted::{Faulted, SurvivingTopology};

/// A static-QDG cycle over concrete queues, with per-edge witnesses and
/// a Graphviz rendering.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The cycle's queues in order (edge `k` goes `cycle[k] →
    /// cycle[(k+1) % len]`).
    pub cycle: Vec<QueueId>,
    /// One concrete route witness per cycle edge, aligned with `cycle`.
    pub edges: Vec<EdgeWitness>,
    /// Graphviz rendering of the cycle (solid static edges).
    pub dot: String,
}

/// Why a scheme was rejected: the violation, plus — for static-cycle
/// rejections — the extracted concrete counterexample.
#[derive(Debug, Clone)]
pub struct Rejection {
    /// The first violation found.
    pub violation: Violation,
    /// Present iff the violation is a static QDG cycle.
    pub counterexample: Option<Counterexample>,
}

/// The certifier's verdict on a scheme.
pub enum Outcome {
    /// Deadlock-free: here is the machine-checkable witness.
    Certified(Certificate),
    /// Not certifiable: here is why.
    Rejected(Box<Rejection>),
}

impl Outcome {
    /// The certificate, if certified.
    pub fn certificate(&self) -> Option<&Certificate> {
        match self {
            Outcome::Certified(c) => Some(c),
            Outcome::Rejected(_) => None,
        }
    }

    /// The rejection, if rejected.
    pub fn rejection(&self) -> Option<&Rejection> {
        match self {
            Outcome::Certified(_) => None,
            Outcome::Rejected(r) => Some(r),
        }
    }
}

/// Certify a scheme's deadlock freedom on its concrete network instance.
///
/// Runs the symmetry-reduced construction first; on a class-graph cycle
/// the construction is repeated with the identity classifier over all
/// destinations (exact), so the final accept/reject matches
/// `fadr_qdg::verify::verify_deadlock_free` whenever the scheme's
/// representative-destination promise holds (trivially, whenever it
/// nominates all destinations).
pub fn certify<R: Symmetry + ?Sized>(rf: &R) -> Outcome {
    let built = match classgraph::build(rf, false) {
        // A quotient cycle need not lift to concrete queues: rebuild
        // exactly (identity classifier, all destinations) before
        // rejecting.
        Ok(cg) if rf.is_reduced() && !cg.static_graph.is_acyclic() => {
            classgraph::build(&Concrete(rf), true).map(|cg| (cg, false))
        }
        built => built.map(|cg| (cg, rf.is_reduced())),
    };
    match built {
        Err(violation) => Outcome::Rejected(Box::new(Rejection {
            violation,
            counterexample: None,
        })),
        Ok((cg, reduced)) if cg.static_graph.is_acyclic() => {
            let mode = if reduced {
                ClassifierMode::Scheme {
                    description: rf.symmetry(),
                }
            } else {
                ClassifierMode::Concrete
            };
            Outcome::Certified(certificate(rf, mode, &cg))
        }
        Ok((cg, _)) => Outcome::Rejected(Box::new(extract(rf.name(), &cg))),
    }
}

/// Re-certify a scheme's *degraded* QDG after a fault plan's permanent
/// faults (dead nodes and dead links; transient freezes and flaky
/// windows do not change the eventual topology).
///
/// Returns the [`Faulted`] wrapper alongside the [`Outcome`] so the
/// caller can re-validate an accepted certificate against it with
/// [`check_certificate`]. A plan that disconnects a surviving
/// destination is rejected with a dead-end violation — the concrete
/// counterexample; a connected plan certifies with a rank function for
/// the degraded static QDG. Errors only on a malformed fault set
/// (wrong node count, out-of-range link, all nodes dead).
pub fn certify_plan<'a, R: fadr_qdg::RoutingFunction + ?Sized>(
    rf: &'a R,
    plan: &fadr_sim::FaultPlan,
) -> Result<(faulted::Faulted<'a, R>, Outcome), String> {
    let n = rf.topology().num_nodes();
    let f = faulted::Faulted::new(rf, &plan.final_dead_nodes(n), &plan.final_dead_links())?;
    let outcome = certify(&f);
    Ok((f, outcome))
}

fn certificate<R: Symmetry + ?Sized>(rf: &R, mode: ClassifierMode, cg: &ClassGraph) -> Certificate {
    Certificate::from_class_graph(
        rf.name(),
        rf.topology().name(),
        rf.topology().num_nodes(),
        mode,
        cg,
    )
}

/// Extract the minimal concrete cycle from a cyclic identity-classifier
/// class graph, with per-edge route witnesses and a DOT rendering.
fn extract(name: String, cg: &ClassGraph) -> Rejection {
    let idx = cg
        .static_graph
        .shortest_cycle()
        .expect("extract requires a cyclic graph");
    let cycle: Vec<QueueId> = idx
        .iter()
        .map(|&i| cg.classes[i].as_concrete_queue())
        .collect();
    let edges: Vec<EdgeWitness> = (0..idx.len())
        .map(|k| {
            let pair = (idx[k], idx[(k + 1) % idx.len()]);
            cg.witnesses
                .get(&pair)
                .expect("every static class edge has a witness")
                .clone()
        })
        .collect();
    let dot = render_cycle(&name, &cycle);
    let pretty: Vec<String> = cycle.iter().map(ToString::to_string).collect();
    Rejection {
        violation: Violation {
            check: "deadlock-free",
            detail: format!("static QDG has a cycle: {}", pretty.join(" -> ")),
            queues: cycle.clone(),
        },
        counterexample: Some(Counterexample { cycle, edges, dot }),
    }
}

/// Assemble a one-cycle [`Qdg`] and render it through `fadr_qdg::dot`.
fn render_cycle(name: &str, cycle: &[QueueId]) -> String {
    let mut queues = Vec::with_capacity(cycle.len());
    let mut index = HashMap::new();
    for &q in cycle {
        index.insert(q, queues.len());
        queues.push(q);
    }
    let mut static_graph = Digraph::new(cycle.len());
    let mut full_graph = Digraph::new(cycle.len());
    for k in 0..cycle.len() {
        let b = (k + 1) % cycle.len();
        static_graph.add_edge(k, b);
        full_graph.add_edge(k, b);
    }
    let qdg = Qdg {
        queues,
        index,
        static_graph,
        full_graph,
        dynamic_edges: Vec::new(),
    };
    qdg_to_dot(
        &qdg,
        &format!("{name}: static QDG cycle"),
        &|q| q.to_string(),
        DotOptions {
            show_inject: true,
            show_deliver: true,
        },
    )
}

#[cfg(test)]
mod hasher {
    //! The shared hasher (`fadr_qdg::hasher`) that the class graph, the
    //! certificate checker and [`Faulted`](crate::Faulted) key their
    //! maps with.

    mod tests {
        use std::hash::Hasher;

        use fadr_qdg::hasher::{FxHashSet, FxHasher};

        #[test]
        fn distinct_keys_hash_distinctly() {
            let mut set = FxHashSet::default();
            for i in 0..1000u64 {
                set.insert((i, i.wrapping_mul(3)));
            }
            assert_eq!(set.len(), 1000);
        }

        /// Keys that differ only above bit 28 must still spread over
        /// the low bits a hash table picks its bucket from.
        #[test]
        fn high_bit_keys_spread_over_the_low_bits() {
            let low: FxHashSet<u64> = (0..4096u64)
                .map(|k| {
                    let mut h = FxHasher::default();
                    h.write_u64(k << 28);
                    h.finish() & 0xfff
                })
                .collect();
            assert!(low.len() >= 2048, "{} distinct low-bit values", low.len());
        }

        #[test]
        fn write_matches_word_path_for_aligned_input() {
            let mut a = FxHasher::default();
            a.write_u64(0xdead_beef);
            let mut b = FxHasher::default();
            b.write(&0xdead_beef_u64.to_le_bytes());
            assert_eq!(a.finish(), b.finish());
        }
    }
}
