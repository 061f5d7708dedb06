//! # fadroute — fully-adaptive minimal deadlock-free packet routing
//!
//! A from-scratch Rust reproduction of Pifarré, Gravano, Felperin &
//! Sanz, *"Fully-Adaptive Minimal Deadlock-Free Packet Routing in
//! Hypercubes, Meshes, and Other Networks"* (SPAA 1991): the routing
//! algorithms, the queue-dependency-graph theory that proves them
//! deadlock-free, a cycle-accurate packet simulator reproducing the
//! paper's evaluation, and the workloads/metrics around it.
//!
//! ## Crates
//!
//! * [`topology`] — hypercube, mesh, torus, shuffle-exchange networks;
//! * [`qdg`] — queue dependency graphs and the § 2 model checker;
//! * [`verify`] — symmetry-reduced deadlock-freedom certifier with
//!   machine-checkable certificates and counterexample extraction;
//! * [`lint`] — static scheme analyzer: the paper-condition lint
//!   battery with `fadr-lint/1` diagnostics, run before certification;
//! * [`routing`] — the paper's algorithms (§§ 3–5) and baselines;
//! * [`sim`] — the § 6/§ 7.1 node model and simulator;
//! * [`workloads`] — § 7 traffic patterns and static backlogs;
//! * [`metrics`] — latency statistics and paper-style tables;
//! * [`wormhole`] — the flit-level wormhole generalization (\[GPS91\]).
//!
//! ## Quickstart
//!
//! ```
//! use fadroute::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // The paper's fully-adaptive hypercube algorithm on a 256-node cube …
//! let algorithm = HypercubeFullyAdaptive::new(8);
//!
//! // … is deadlock-free by construction (machine-checkable on small
//! // instances):
//! fadroute::qdg::verify::verify_all(&HypercubeFullyAdaptive::new(3), true).unwrap();
//!
//! // Simulate one packet per node under random traffic (§ 7, Table 1):
//! let mut sim = Simulator::new(algorithm, SimConfig::default());
//! let mut rng = StdRng::seed_from_u64(7);
//! let backlog = static_backlog(&Pattern::Random, 256, 1, &mut rng);
//! let result = sim.run_static(&backlog);
//! assert!(result.drained);
//! assert!(result.stats.mean() < 12.0); // ≈ 2·(n/2) + 1 = 9 plus light congestion
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fadr_core as routing;
pub use fadr_lint as lint;
pub use fadr_metrics as metrics;
pub use fadr_qdg as qdg;
pub use fadr_sim as sim;
pub use fadr_topology as topology;
pub use fadr_verify as verify;
pub use fadr_workloads as workloads;
pub use fadr_wormhole as wormhole;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use fadr_core::{
        AdaptiveSbp, EcubeSbp, HypercubeFullyAdaptive, HypercubeStaticHang, MeshFullyAdaptive,
        MeshKDFullyAdaptive, MeshStaticHang, MeshXY, ShuffleExchangeRouting, TorusTwoPhase,
    };
    pub use fadr_lint::{lint_scheme, LintConfig, LintId};
    pub use fadr_metrics::{LatencyStats, Table};
    pub use fadr_qdg::{BufferClass, HopKind, LinkKind, QueueId, QueueKind, RoutingFunction};
    pub use fadr_sim::{
        DynamicResult, ShardedSimulator, SimConfig, Simulator, StaticResult, StopReason,
    };
    pub use fadr_topology::{
        Hypercube, Mesh2D, MeshKD, NodeId, Port, ShuffleExchange, Topology, Torus2D,
    };
    pub use fadr_verify::{certify, check_certificate, Certificate, Outcome};
    pub use fadr_workloads::{static_backlog, Pattern};
    pub use fadr_wormhole::{WormConfig, WormholeResult, WormholeSim};
}
