//! Traffic patterns and injection workloads for routing experiments.
//!
//! Implements the communication patterns of the paper's § 7 —
//! **Random Routing**, **Complement**, **Transpose**, and **Leveled
//! Permutation** — plus common extensions (bit reversal, perfect-shuffle
//! permutation, random permutation, hotspot), and static backlogs of
//! 1 or `log N` packets per node (the dynamic Bernoulli-λ injection
//! model lives in the simulator's `run_dynamic`).
//!
//! Patterns are *compiled* per network instance into a [`Pattern`] that
//! the simulator samples; permutation-based patterns are deterministic,
//! `Random` draws a fresh destination per packet.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hypercube;
pub mod injection;
pub mod pattern;

pub use injection::static_backlog;
pub use pattern::Pattern;
