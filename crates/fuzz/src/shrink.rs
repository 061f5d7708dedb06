//! Greedy spec-level shrinking.
//!
//! A failing [`CaseSpec`] is reduced move-by-move: each candidate is a
//! structurally smaller spec, accepted iff it still fails the *same*
//! property family. Moves iterate to a fixpoint under a bounded
//! evaluation budget, so shrinking always terminates even when a move
//! re-enables another. The result is what gets committed to the
//! regression corpus: the smallest witness the shrinker could find, not
//! the sprawling instance the generator happened to draw.

use fadr_core::scheme::{SchemeSpec, Size};
use fadr_sim::FaultKind;

use crate::props::Failure;
use crate::runner::run_case_guarded;
use crate::spec::{CaseSpec, MutationSpec, WorkloadSpec};

/// Evaluation budget: each candidate costs one full property run, so
/// the cap bounds shrink time at roughly 200 case executions.
const MAX_EVALS: usize = 200;

/// Shrink `spec` while it keeps failing with `failure`'s property.
/// Returns the smallest accepted spec and its (possibly re-worded)
/// failure.
pub fn shrink(spec: &CaseSpec, failure: &Failure) -> (CaseSpec, Failure) {
    shrink_with(spec, failure, run_case_guarded)
}

/// [`shrink`] with an explicit evaluation oracle — the full greedy loop
/// (move generation, same-property acceptance, fixpoint, budget) driven
/// by `eval` instead of the real property battery, so the machinery is
/// testable without a live engine bug to reproduce.
pub fn shrink_with(
    spec: &CaseSpec,
    failure: &Failure,
    mut eval: impl FnMut(&CaseSpec) -> Result<(), Failure>,
) -> (CaseSpec, Failure) {
    let mut best = spec.clone();
    let mut best_fail = failure.clone();
    let mut evals = 0usize;
    loop {
        let mut improved = false;
        for cand in candidates(&best) {
            if evals >= MAX_EVALS {
                return (best, best_fail);
            }
            evals += 1;
            if let Err(f) = eval(&cand) {
                if f.property == best_fail.property {
                    best = cand;
                    best_fail = f;
                    improved = true;
                    break;
                }
            }
        }
        if !improved {
            return (best, best_fail);
        }
    }
}

/// All single-move reductions of `spec`, biggest first.
fn candidates(spec: &CaseSpec) -> Vec<CaseSpec> {
    let mut out = Vec::new();

    // Drop the whole fault plan.
    if !spec.faults.events.is_empty() {
        let mut c = spec.clone();
        c.faults.events.clear();
        out.push(c);
    }

    // Shrink the topology (dropping fault events and clamping the
    // mutation node so the smaller instance stays well-formed).
    for scheme in shrunk_schemes(&spec.scheme) {
        let mut c = spec.clone();
        let n = scheme.num_nodes();
        c.scheme = scheme;
        c.faults.events.retain(|e| match e.kind {
            FaultKind::LinkDown { from, to } | FaultKind::FlakyLink { from, to, .. } => {
                (from as usize) < n && (to as usize) < n
            }
            FaultKind::NodeDown { node } | FaultKind::QueueFreeze { node, .. } => {
                (node as usize) < n
            }
        });
        match &mut c.mutation {
            MutationSpec::DemoteStatic(v) | MutationSpec::DropTransitions(v) => {
                *v = (*v).clamp(1, n - 1);
            }
            MutationSpec::None | MutationSpec::InflateClasses(_) => {}
        }
        out.push(c);
    }

    // Lighten the workload.
    match spec.workload {
        WorkloadSpec::Static { per_node } if per_node > 1 => {
            let mut c = spec.clone();
            c.workload = WorkloadSpec::Static { per_node: 1 };
            out.push(c);
        }
        WorkloadSpec::Dynamic { lambda_pct, cycles } if cycles > 10 => {
            let mut c = spec.clone();
            c.workload = WorkloadSpec::Dynamic {
                lambda_pct,
                cycles: (cycles / 2).max(10),
            };
            out.push(c);
        }
        _ => {}
    }

    // Drop individual fault events.
    for i in 0..spec.faults.events.len() {
        let mut c = spec.clone();
        c.faults.events.remove(i);
        out.push(c);
    }

    // Fewer lanes (1 drops the lane-engine leg entirely), fewer shard
    // counts, then the default strategy.
    if spec.lanes > 1 {
        let mut c = spec.clone();
        c.lanes = 1;
        out.push(c);
    }
    if spec.lanes > 2 {
        let mut c = spec.clone();
        c.lanes = 2;
        out.push(c);
    }
    if spec.shards != [2] {
        let mut c = spec.clone();
        c.shards = vec![2];
        out.push(c);
    }
    if spec.strategy != fadr_sim::PartitionStrategy::Auto {
        let mut c = spec.clone();
        c.strategy = fadr_sim::PartitionStrategy::Auto;
        out.push(c);
    }

    // Canonicalize the mutated node.
    match spec.mutation {
        MutationSpec::DemoteStatic(v) if v > 1 => {
            let mut c = spec.clone();
            c.mutation = MutationSpec::DemoteStatic(1);
            out.push(c);
        }
        MutationSpec::DropTransitions(v) if v > 1 => {
            let mut c = spec.clone();
            c.mutation = MutationSpec::DropTransitions(1);
            out.push(c);
        }
        _ => {}
    }

    out
}

/// One-step-smaller instances of a scheme (empty when already minimal),
/// by the shape of its size. Dims stop at 2 and random-regular graphs
/// at `degree + 2` nodes (the fuzzer's floors); every other move stops
/// at the row's bounds, which [`SchemeSpec::new`] checks.
fn shrunk_schemes(s: &SchemeSpec) -> Vec<SchemeSpec> {
    let sizes = match s.size() {
        &Size::Dims(dims) if dims > 2 => vec![Size::Dims(dims - 1)],
        &Size::Sides { width, height } => vec![
            Size::Sides {
                width: width - 1,
                height,
            },
            Size::Sides {
                width,
                height: height - 1,
            },
        ],
        Size::Extents(extents) => {
            let mut out: Vec<Size> = (0..extents.len())
                .map(|i| {
                    let mut smaller = extents.clone();
                    smaller[i] -= 1;
                    Size::Extents(smaller)
                })
                .collect();
            if extents.len() > 2 {
                for i in 0..extents.len() {
                    let mut fewer = extents.clone();
                    fewer.remove(i);
                    out.push(Size::Extents(fewer));
                }
            }
            out
        }
        // Keep the configuration model valid: degree < nodes and an
        // even stub count (degree is 3 in generated cases, so the node
        // count stays even).
        &Size::Graph {
            nodes,
            degree,
            seed,
        } if nodes >= degree + 4 => vec![Size::Graph {
            nodes: nodes - 2,
            degree,
            seed,
        }],
        _ => Vec::new(),
    };
    sizes
        .into_iter()
        .filter_map(|size| SchemeSpec::new(s.scheme(), size).ok())
        .collect()
}
