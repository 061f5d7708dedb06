//! Routing algorithms of the SPAA'91 paper *"Fully-Adaptive Minimal
//! Deadlock-Free Packet Routing in Hypercubes, Meshes, and Other
//! Networks"* (Pifarré, Gravano, Felperin, Sanz), plus the baselines they
//! are compared against.
//!
//! # The paper's algorithms
//!
//! * [`HypercubeFullyAdaptive`] (§ 3) — hang the n-cube from `0…0`;
//!   phase A corrects `0→1` bits moving "down" (static links), phase B
//!   corrects `1→0` bits moving "up"; *dynamic links* additionally let a
//!   phase-A message correct a `1→0` whenever queue space allows. Fully
//!   adaptive, minimal, deadlock- and livelock-free with **two** central
//!   queues per node.
//! * [`MeshFullyAdaptive`] (§ 4) — the same two-phase idea on the 2-D
//!   mesh, with level `x + y`; phase A additionally allows *any*
//!   minimal move as a dynamic link while some `+` move remains.
//! * [`ShuffleExchangeRouting`] (§ 5) — two passes over the address bits
//!   (one per phase), shuffle cycles broken Dally–Seitz style; adaptive
//!   (not fully), paths of at most `3n` hops.
//! * [`TorusTwoPhase`] — the torus extension the paper sketches after
//!   Theorem 2 ("4 queues following \[GPS91\]"); our verified construction
//!   uses 6 central queues (see the module docs of [`torus`] for why).
//!
//! # Baselines
//!
//! * [`HypercubeStaticHang`] / [`MeshStaticHang`] — the *underlying*
//!   routing functions alone (no dynamic links): the partially-adaptive
//!   schemes of \[BGSS89\]/\[Kon90\] that the paper improves on.
//! * [`EcubeSbp`] — oblivious dimension-order (e-cube) hypercube routing
//!   made deadlock-free with a structured buffer pool (\[Gun81, MS80\]):
//!   one queue class per hop taken, i.e. `n + 1` classes — exactly the
//!   "excessive amount of hardware" the paper's introduction criticizes.
//! * [`MeshXY`] — oblivious XY routing on the mesh with four
//!   direction-class queues.
//!
//! Every algorithm implements [`fadr_qdg::RoutingFunction`]; the
//! `fadr-qdg` model checker proves deadlock freedom, minimality, bounded
//! paths, and (where claimed) full adaptivity on small instances, and the
//! `fadr-sim` simulator scales the same implementations to 16K-node
//! networks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hypercube;
pub mod mesh;
pub mod mesh_kd;
pub mod sbp;
pub mod scheme;
pub mod shuffle;
pub mod snapshot;
pub mod torus;

pub use hypercube::{EcubeSbp, HypercubeFullyAdaptive, HypercubeStaticHang};
pub use mesh::{MeshFullyAdaptive, MeshStaticHang, MeshXY};
pub use mesh_kd::MeshKDFullyAdaptive;
pub use sbp::AdaptiveSbp;
pub use shuffle::ShuffleExchangeRouting;
pub use torus::TorusTwoPhase;

/// Central-queue class of phase A (`q_A`) in the two-phase algorithms.
pub const CLASS_A: u8 = 0;
/// Central-queue class of phase B (`q_B`) in the two-phase algorithms.
pub const CLASS_B: u8 = 1;
