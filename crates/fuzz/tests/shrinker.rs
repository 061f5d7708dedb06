//! The greedy shrinker, driven through [`fadr_fuzz::shrink_with`] with
//! synthetic failure oracles (the real property battery is exercised by
//! the campaign itself; here we pin the *machinery*: move generation,
//! same-property acceptance, fixpoint, and budget termination).

use fadr_core::scheme::{self, SchemeSpec, Size};
use fadr_fuzz::props::{Failure, PropertyId};
use fadr_fuzz::shrink_with;
use fadr_fuzz::spec::{CaseSpec, MutationSpec, WorkloadSpec};
use fadr_sim::{FaultKind, FaultPlan, PartitionStrategy};

fn fail(property: PropertyId) -> Failure {
    Failure {
        property,
        detail: "synthetic".into(),
    }
}

/// A deliberately sprawling spec: 16-node hypercube, three fault events
/// (one load-bearing), heavy workload, two shard counts, a non-default
/// strategy.
fn big_spec() -> CaseSpec {
    let mut faults = FaultPlan::new(11, 2);
    faults.push(3, FaultKind::LinkDown { from: 1, to: 0 });
    faults.push(
        5,
        FaultKind::QueueFreeze {
            node: 2,
            class: 0,
            duration: 9,
        },
    );
    faults.push(
        8,
        FaultKind::FlakyLink {
            from: 4,
            to: 5,
            until: 20,
            threshold: 50,
        },
    );
    CaseSpec {
        seed: 77,
        scheme: cube(4),
        mutation: MutationSpec::None,
        queue_capacity: 8,
        faults,
        workload: WorkloadSpec::Static { per_node: 3 },
        shards: vec![2, 3],
        strategy: PartitionStrategy::Bisection,
        lanes: 4,
    }
}

/// The fully-adaptive scheme on the `dims`-cube.
fn cube(dims: usize) -> SchemeSpec {
    SchemeSpec::new(scheme::by_name("hypercube-fa").unwrap(), Size::Dims(dims)).unwrap()
}

fn has_link_down(spec: &CaseSpec) -> bool {
    spec.faults
        .events
        .iter()
        .any(|e| matches!(e.kind, FaultKind::LinkDown { .. }))
}

/// A "bug" that needs ≥ 8 nodes and a LinkDown event shrinks to exactly
/// the 8-node hypercube with exactly that event — everything incidental
/// (extra faults, workload weight, shard counts, strategy) is stripped.
#[test]
fn shrinks_to_minimal_witness() {
    let spec = big_spec();
    let oracle = |cand: &CaseSpec| {
        if cand.scheme.num_nodes() >= 8 && has_link_down(cand) {
            Err(fail(PropertyId::Differential))
        } else {
            Ok(())
        }
    };
    let (min, f) = shrink_with(&spec, &fail(PropertyId::Differential), oracle);
    assert_eq!(f.property, PropertyId::Differential);
    assert_eq!(min.scheme, cube(3));
    assert_eq!(min.scheme.num_nodes(), 8);
    assert_eq!(
        min.faults.events.len(),
        1,
        "incidental faults kept: {min:?}"
    );
    assert!(has_link_down(&min));
    assert_eq!(min.workload, WorkloadSpec::Static { per_node: 1 });
    assert_eq!(min.shards, vec![2]);
    assert_eq!(min.strategy, PartitionStrategy::Auto);
    assert_eq!(min.lanes, 1, "incidental lane leg kept: {min:?}");
}

/// A candidate failing a *different* property is never accepted: the
/// shrunk witness must reproduce the original bug, not some other one.
#[test]
fn rejects_cross_property_candidates() {
    let spec = big_spec();
    let oracle = |_: &CaseSpec| Err(fail(PropertyId::OracleParity));
    let (min, _) = shrink_with(&spec, &fail(PropertyId::Differential), oracle);
    assert_eq!(min, spec, "accepted a candidate with the wrong property");
}

/// An always-failing oracle terminates (fixpoint once every move is
/// exhausted, or the evaluation budget) at a fully minimal spec.
#[test]
fn always_failing_oracle_terminates_minimal() {
    let spec = big_spec();
    let oracle = |_: &CaseSpec| Err(fail(PropertyId::Verdicts));
    let (min, _) = shrink_with(&spec, &fail(PropertyId::Verdicts), oracle);
    assert_eq!(min.scheme, cube(2));
    assert!(min.faults.events.is_empty());
    assert_eq!(min.workload, WorkloadSpec::Static { per_node: 1 });
    assert_eq!(min.shards, vec![2]);
    assert_eq!(min.lanes, 1);
}

/// Topology moves keep the spec well-formed: fault events that name
/// nodes outside the smaller instance are dropped along the way.
#[test]
fn topology_shrink_drops_out_of_range_faults() {
    let mut spec = big_spec();
    spec.faults = FaultPlan::new(1, 0);
    spec.faults.push(2, FaultKind::NodeDown { node: 15 });
    // Fails regardless of faults, so the shrinker is free to descend.
    let oracle = |cand: &CaseSpec| {
        if cand.scheme.num_nodes() >= 8 {
            Err(fail(PropertyId::Differential))
        } else {
            Ok(())
        }
    };
    let (min, _) = shrink_with(&spec, &fail(PropertyId::Differential), oracle);
    assert_eq!(min.scheme.num_nodes(), 8);
    assert!(
        min.faults.events.is_empty(),
        "node-15 fault survived an 8-node shrink: {min:?}"
    );
}
