//! Seeded case generation.
//!
//! `gen_case(master, idx)` is a pure function: the same master seed and
//! case index always produce the same [`CaseSpec`], so a fuzz run is
//! replayable from its command line alone. Instances are deliberately
//! small (≤ ~16 nodes) — every oracle in the property battery is
//! exhaustive in the network size, and a counterexample on 8 nodes is
//! worth more than an unexplored one on 1024.

use fadr_core::scheme::{self, with_scheme, SchemeSpec, SchemeVisitor, Size};
use fadr_sim::{FaultKind, FaultPlan, PartitionStrategy};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::spec::{CaseSpec, MutationSpec, WorkloadSpec};

/// Per-index seed mix (golden-ratio stride, the repo's property-suite
/// idiom).
fn case_rng(master: u64, idx: u64) -> StdRng {
    StdRng::seed_from_u64(master ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Collects the instance facts generation needs: class count and the
/// directed channel list (so drawn faults always name real links).
struct InstanceInfo;

impl SchemeVisitor for InstanceInfo {
    type Out = (usize, Vec<(u32, u32)>);

    fn visit<R>(self, rf: R) -> Self::Out
    where
        R: fadr_qdg::sym::Symmetry + Clone + Send + 'static,
        R::Msg: Send + fadr_qdg::SnapshotMsg,
    {
        let topo = rf.topology();
        let mut links = Vec::new();
        for v in 0..topo.num_nodes() {
            for p in 0..topo.max_ports() {
                if let Some(w) = topo.neighbor(v, p) {
                    links.push((v as u32, w as u32));
                }
            }
        }
        (rf.num_classes(), links)
    }
}

fn gen_scheme(rng: &mut StdRng) -> SchemeSpec {
    let sides = |width, height| Size::Sides { width, height };
    let (name, size) = match rng.gen_range(0..12u8) {
        0 => ("hypercube-fa", Size::Dims(rng.gen_range(2..=4))),
        1 => ("hypercube-hang", Size::Dims(rng.gen_range(2..=3))),
        2 => ("ecube-sbp", Size::Dims(rng.gen_range(2..=3))),
        3 => ("mesh-fa", sides(rng.gen_range(2..=4), rng.gen_range(2..=3))),
        4 => (
            "mesh-hang",
            sides(rng.gen_range(2..=3), rng.gen_range(2..=3)),
        ),
        5 => ("mesh-xy", sides(rng.gen_range(2..=4), rng.gen_range(2..=3))),
        6 => (
            "mesh-kd",
            Size::Extents(if rng.gen_range(0..2u8) == 0 {
                vec![2, 2, 2]
            } else {
                vec![2, 3, 2]
            }),
        ),
        7 => ("torus", sides(rng.gen_range(3..=4), 3)),
        8 => ("shuffle-exchange", Size::Dims(rng.gen_range(2..=3))),
        // Paper-literal SE: prime dims are sound, dims = 4 is the known
        // § 6 deadlock — keep both in the pool.
        9 => (
            "shuffle-exchange-paper",
            Size::Dims(if rng.gen_range(0..2u8) == 0 { 3 } else { 4 }),
        ),
        10 => ("ecube-store-forward", Size::Dims(rng.gen_range(2..=3))),
        _ => (
            "sbp-random-regular",
            Size::Graph {
                nodes: 2 * rng.gen_range(4..=7usize),
                degree: 3,
                seed: rng.next_u64(),
            },
        ),
    };
    let scheme = scheme::by_name(name).expect("the generator draws registry rows");
    SchemeSpec::new(scheme, size).expect("the generator draws sizes within bounds")
}

fn gen_faults(
    rng: &mut StdRng,
    num_nodes: usize,
    num_classes: usize,
    links: &[(u32, u32)],
) -> FaultPlan {
    let mut plan = FaultPlan::new(rng.next_u64(), rng.gen_range(0..4u32));
    if rng.gen_range(0..2u8) == 0 {
        return plan; // half the pool is fault-free
    }
    for _ in 0..rng.gen_range(1..=4usize) {
        let cycle = rng.gen_range(0..30u64);
        let (from, to) = links[rng.gen_range(0..links.len())];
        let kind = match rng.gen_range(0..10u8) {
            0..=3 => FaultKind::LinkDown { from, to },
            4 => FaultKind::NodeDown {
                node: rng.gen_range(0..num_nodes as u32),
            },
            5 | 6 => FaultKind::QueueFreeze {
                node: rng.gen_range(0..num_nodes as u32),
                class: rng.gen_range(0..num_classes.min(256) as u8),
                duration: rng.gen_range(2..20u64),
            },
            _ => FaultKind::FlakyLink {
                from,
                to,
                until: cycle + rng.gen_range(5..40u64),
                threshold: rng.gen_range(10..=95u8),
            },
        };
        plan.push(cycle, kind);
    }
    // Canonical event order (what `FaultPlan::parse` produces), so specs
    // survive the JSON round-trip bit-identically.
    plan.normalize();
    plan
}

/// Draw case `idx` of the run seeded by `master`.
pub fn gen_case(master: u64, idx: u64) -> CaseSpec {
    let mut rng = case_rng(master, idx);
    let scheme = gen_scheme(&mut rng);
    let n = scheme.num_nodes();
    let (num_classes, links) = with_scheme(&scheme, InstanceInfo);

    let mutation = match rng.gen_range(0..10u8) {
        0..=6 => MutationSpec::None,
        7 => MutationSpec::DemoteStatic(rng.gen_range(1..n)),
        8 => MutationSpec::DropTransitions(rng.gen_range(1..n)),
        _ => MutationSpec::InflateClasses(257 + rng.gen_range(0..64usize)),
    };

    let queue_capacity = match rng.gen_range(0..10u8) {
        0 => 0, // deliberately wedged: exercises the watchdog verdict
        1 | 2 => 8,
        _ => 64,
    };

    let workload = if rng.gen_range(0..3u8) < 2 {
        WorkloadSpec::Static {
            per_node: rng.gen_range(1..=3),
        }
    } else {
        WorkloadSpec::Dynamic {
            lambda_pct: rng.gen_range(30..=95),
            cycles: rng.gen_range(40..=80),
        }
    };

    let faults = gen_faults(&mut rng, n, num_classes, &links);

    let shards = match rng.gen_range(0..3u8) {
        0 => vec![2],
        1 => vec![3],
        _ => vec![2, 3],
    };
    let strategy = match rng.gen_range(0..5u8) {
        0 => PartitionStrategy::Contiguous,
        1 => PartitionStrategy::HammingPrefix,
        2 => PartitionStrategy::Bisection,
        3 => PartitionStrategy::BfsGrowth,
        _ => PartitionStrategy::Auto,
    };

    // Drawn *after* the seed so every prefix of the draw stream — and
    // therefore every pre-lanes corpus replay — is unchanged.
    let seed = rng.next_u64();
    let lanes = match rng.gen_range(0..3u8) {
        0 => 1, // a third of the pool skips the lane differential
        1 => 2,
        _ => 4,
    };

    CaseSpec {
        seed,
        scheme,
        mutation,
        queue_capacity,
        faults,
        workload,
        shards,
        strategy,
        lanes,
    }
}
