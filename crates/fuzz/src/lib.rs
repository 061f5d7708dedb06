//! `fadr-fuzz`: a shrinking differential fuzzer for the whole stack.
//!
//! The repo's components triple-check each other by construction: two
//! packet engines (sequential and sharded) and a wormhole engine run
//! the same routing functions; a certifier, an exhaustive checker, and
//! a lint battery judge the same schemes; a watchdog classifies the
//! same stalls the § 2 theory predicts. This crate turns that redundancy
//! into an adversarial search loop:
//!
//! 1. [`gen`] draws seeded random cases — scheme × instance size ×
//!    sabotage mutation × queue capacity × fault plan × workload ×
//!    shard layout;
//! 2. [`props`] checks each case against four property families
//!    (engine differential, oracle parity, certificate round-trip,
//!    verdict ground truth);
//! 3. [`mod@shrink`] reduces any failure to a minimal spec that still
//!    fails the same property;
//! 4. [`runner`] persists the shrunk witness as a `fadr-fuzz/1` JSON
//!    case file, which `tests/replay_corpus.rs` replays forever after —
//!    every bug the fuzzer ever finds becomes a committed regression.
//!
//! Everything is deterministic from the master seed: no wall clock, no
//! global RNG, no external dependencies (the generator/shrinker are
//! hand-rolled; the build has no registry access).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod props;
pub mod runner;
pub mod shrink;
pub mod spec;

pub use gen::gen_case;
pub use props::{run_case, Failure, PropertyId};
pub use runner::{fuzz, replay_file, run_case_guarded, FoundCase, FuzzConfig, FuzzOutcome};
pub use shrink::{shrink, shrink_with};
pub use spec::{CaseSpec, Mutated, MutationSpec, WorkloadSpec, SCHEMA};
