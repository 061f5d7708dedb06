//! Machine-checkable deadlock-freedom certificates (`fadr-verify/1`).
//!
//! A certificate records the *rank function* over queue classes that
//! witnesses acyclicity of the static class-dependency graph (Kahn
//! levels: every static non-stutter transition strictly raises the
//! rank), plus per-class escape witnesses for the § 2 conditions and
//! enough metadata for an independent checker — [`crate::check_certificate`]
//! shares no graph machinery with the constructor — to re-derive every
//! claim against the scheme itself.

use std::fmt::Write as _;

use fadr_qdg::sym::QueueClass;
use fadr_sim::json::{self, Quoted};
use fadr_topology::NodeId;

use crate::classgraph::{ClassGraph, EscapeWitness};

/// Certificate schema identifier.
pub const SCHEMA: &str = "fadr-verify/1";

/// How queues were classified during construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassifierMode {
    /// The scheme's declared symmetry classifier, with its argument.
    Scheme {
        /// The scheme's human-readable symmetry description.
        description: String,
    },
    /// The identity classifier over all destinations (exact; used when
    /// the scheme declares no reduction or as the fallback pass).
    Concrete,
}

/// A deadlock-freedom certificate for one scheme on one concrete network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Algorithm name (must match the scheme's `name()`).
    pub algorithm: String,
    /// Topology name.
    pub topology: String,
    /// Node count of the instance.
    pub nodes: usize,
    /// How queues were classified.
    pub classifier: ClassifierMode,
    /// Whether every destination was explored.
    pub all_dsts: bool,
    /// The representative destinations (empty when `all_dsts`).
    pub dsts: Vec<NodeId>,
    /// Distinct concrete queues encountered.
    pub queues_seen: usize,
    /// Total states explored during construction.
    pub states_explored: usize,
    /// Distinct static class edges.
    pub static_class_edges: usize,
    /// Distinct dynamic class edges.
    pub dynamic_class_edges: usize,
    /// The rank function: Kahn level of every class in the static class
    /// graph, sorted by class. Every static non-stutter transition maps
    /// a class to a strictly higher-ranked class.
    pub ranks: Vec<(QueueClass, u64)>,
    /// Per-class static-continuation witnesses (§ 2 condition 3).
    pub escapes: Vec<EscapeWitness>,
}

impl Certificate {
    /// Assemble a certificate from an acyclic class graph.
    pub(crate) fn from_class_graph(
        algorithm: String,
        topology: String,
        nodes: usize,
        classifier: ClassifierMode,
        cg: &ClassGraph,
    ) -> Self {
        let levels = cg
            .static_graph
            .levels()
            .expect("certificates are only assembled from acyclic class graphs");
        let mut ranks: Vec<(QueueClass, u64)> = cg
            .classes
            .iter()
            .copied()
            .zip(
                levels
                    .iter()
                    .map(|&l| u64::try_from(l).expect("level fits u64")),
            )
            .collect();
        ranks.sort_unstable();
        Self {
            algorithm,
            topology,
            nodes,
            classifier,
            all_dsts: cg.all_dsts,
            dsts: if cg.all_dsts {
                Vec::new()
            } else {
                cg.dsts.clone()
            },
            queues_seen: cg.queues_seen,
            states_explored: cg.states_explored,
            static_class_edges: cg.static_graph.num_edges(),
            dynamic_class_edges: cg.dynamic_class_edges,
            ranks,
            escapes: cg.escapes.clone(),
        }
    }

    /// Whether the *adaptive wormhole* discipline is within the scope of
    /// the paper's § 2 packet argument: dynamic class edges create the
    /// indirect (extended) channel dependencies that the static-QDG rank
    /// argument does not cover under wormhole switching, so adaptive
    /// wormhole use of a certified scheme is flagged out-of-scope
    /// whenever any dynamic edge exists. The static-VC discipline is
    /// certified by the same rank function either way.
    pub fn adaptive_wormhole_in_scope(&self) -> bool {
        self.dynamic_class_edges == 0
    }

    /// Serialize as one-line `fadr-verify/1` JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"schema\": {}, \"algorithm\": {}, \"topology\": {}, \"nodes\": {}, \"classifier\": ",
            Quoted(SCHEMA),
            Quoted(&self.algorithm),
            Quoted(&self.topology),
            self.nodes
        );
        let _ = match &self.classifier {
            ClassifierMode::Scheme { description } => write!(
                s,
                "{{\"mode\": \"scheme\", \"description\": {}}}",
                Quoted(description)
            ),
            ClassifierMode::Concrete => write!(s, "{{\"mode\": \"concrete\"}}"),
        };
        if self.all_dsts {
            s.push_str(", \"destinations\": {\"mode\": \"all\"}");
        } else {
            s.push_str(", \"destinations\": {\"mode\": \"representatives\", \"nodes\": ");
            json::list(&mut s, &self.dsts, |s, v| write!(s, "{v}"));
            s.push('}');
        }
        let _ = write!(
            s,
            ", \"queues_seen\": {}, \"states_explored\": {}, \"static_class_edges\": {}, \"dynamic_class_edges\": {}, \"wormhole\": {{\"adaptive_in_scope\": {}, \"dynamic_class_edges\": {}}}, \"ranks\": ",
            self.queues_seen,
            self.states_explored,
            self.static_class_edges,
            self.dynamic_class_edges,
            self.adaptive_wormhole_in_scope(),
            self.dynamic_class_edges
        );
        json::list(&mut s, &self.ranks, |s, (c, r)| {
            write!(
                s,
                "{{\"class\": {}, \"rank\": {r}}}",
                Quoted(&c.to_string())
            )
        });
        s.push_str(", \"escapes\": ");
        json::list(&mut s, &self.escapes, |s, e| {
            write!(
                s,
                "{{\"class\": {}, \"from\": {}, \"to\": {}, \"dst\": {}}}",
                Quoted(&e.class.to_string()),
                Quoted(&e.from.to_string()),
                Quoted(&e.to.to_string()),
                e.dst
            )
        });
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn esc_escapes_quotes_and_backslashes() {
        let cert = Certificate {
            algorithm: "a\"b\\c".into(),
            topology: "t".into(),
            nodes: 1,
            classifier: ClassifierMode::Scheme {
                description: "d\"".into(),
            },
            all_dsts: true,
            dsts: Vec::new(),
            queues_seen: 0,
            states_explored: 0,
            static_class_edges: 0,
            dynamic_class_edges: 0,
            ranks: Vec::new(),
            escapes: Vec::new(),
        };
        let doc = cert.to_json();
        assert!(doc.contains("\"algorithm\": \"a\\\"b\\\\c\""), "{doc}");
        assert!(doc.contains("\"description\": \"d\\\"\""), "{doc}");
    }
}
