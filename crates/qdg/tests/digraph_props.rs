//! Randomized property tests of the digraph machinery the QDG checks
//! rest on. (Formerly proptest-based; now seeded loops over the
//! workspace RNG so the suite has no external dependencies. Each test
//! drives the same property over hundreds of random graphs.)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fadr_qdg::graph::Digraph;

const CASES: usize = 256;

fn random_edges(rng: &mut StdRng, n: usize, max_edges: usize) -> Vec<(usize, usize)> {
    let m = rng.gen_range(0..max_edges);
    (0..m)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect()
}

/// `topological_order` and `find_cycle` agree: exactly one returns
/// something.
#[test]
fn acyclicity_checks_agree() {
    let mut rng = StdRng::seed_from_u64(0xd16a);
    for _ in 0..CASES {
        let edges = random_edges(&mut rng, 12, 40);
        let mut g = Digraph::new(12);
        for &(a, b) in &edges {
            g.add_edge(a, b);
        }
        assert_eq!(g.is_acyclic(), g.find_cycle().is_none(), "{edges:?}");
    }
}

/// A reported topological order respects every edge.
#[test]
fn topological_order_respects_edges() {
    let mut rng = StdRng::seed_from_u64(0xd16b);
    for _ in 0..CASES {
        let edges = random_edges(&mut rng, 10, 30);
        let mut g = Digraph::new(10);
        for &(a, b) in &edges {
            g.add_edge(a, b);
        }
        if let Some(order) = g.topological_order() {
            let mut pos = [0; 10];
            for (i, &v) in order.iter().enumerate() {
                pos[v] = i;
            }
            for &(a, b) in &edges {
                assert!(pos[a] < pos[b], "edge {a}->{b} violated in {edges:?}");
            }
        }
    }
}

/// A reported cycle really is one: consecutive pairs are edges.
#[test]
fn reported_cycles_are_cycles() {
    let mut rng = StdRng::seed_from_u64(0xd16c);
    for _ in 0..CASES {
        let edges = random_edges(&mut rng, 8, 24);
        let mut g = Digraph::new(8);
        for &(a, b) in &edges {
            g.add_edge(a, b);
        }
        if let Some(c) = g.find_cycle() {
            assert!(!c.is_empty());
            for i in 0..c.len() {
                assert!(
                    g.has_edge(c[i], c[(i + 1) % c.len()]),
                    "non-edge in cycle {c:?} of {edges:?}"
                );
            }
        }
    }
}

/// Levels are monotone along edges (strictly increasing).
#[test]
fn levels_increase_along_edges() {
    let mut rng = StdRng::seed_from_u64(0xd16d);
    for _ in 0..CASES {
        let edges = random_edges(&mut rng, 10, 25);
        let mut g = Digraph::new(10);
        for &(a, b) in &edges {
            if a != b {
                g.add_edge(a, b);
            }
        }
        if g.is_acyclic() {
            let lv = g.levels().expect("acyclic graphs have levels");
            for v in 0..10 {
                for &b in g.successors(v) {
                    assert!(lv[b] > lv[v], "level not monotone on {v}->{b}");
                }
            }
        }
    }
}

/// Forcing a known cycle makes the graph cyclic no matter what else is
/// added.
#[test]
fn forced_cycle_is_found() {
    let mut rng = StdRng::seed_from_u64(0xd16e);
    for _ in 0..CASES {
        let extra = random_edges(&mut rng, 9, 20);
        let k = rng.gen_range(2..6usize);
        let mut g = Digraph::new(9);
        for i in 0..k {
            g.add_edge(i, (i + 1) % k);
        }
        for &(a, b) in &extra {
            g.add_edge(a, b);
        }
        assert!(!g.is_acyclic());
        assert!(g.find_cycle().is_some());
    }
}

/// Edge deduplication: adding the same edges twice changes nothing.
#[test]
fn idempotent_edges() {
    let mut rng = StdRng::seed_from_u64(0xd16f);
    for _ in 0..CASES {
        let edges = random_edges(&mut rng, 8, 16);
        let mut g1 = Digraph::new(8);
        let mut g2 = Digraph::new(8);
        for &(a, b) in &edges {
            g1.add_edge(a, b);
            g2.add_edge(a, b);
            g2.add_edge(a, b);
        }
        assert_eq!(g1.num_edges(), g2.num_edges());
        assert_eq!(g1.is_acyclic(), g2.is_acyclic());
    }
}

/// `add_edge` reports an edge as new exactly once: the first time it is
/// added, and never again.
#[test]
fn add_edge_reports_each_distinct_edge_once() {
    let mut rng = StdRng::seed_from_u64(0xd170);
    for _ in 0..CASES {
        let edges = random_edges(&mut rng, 8, 48);
        let mut g = Digraph::new(8);
        let mut seen = std::collections::BTreeSet::new();
        for &(a, b) in edges.iter().chain(&edges) {
            assert_eq!(
                g.add_edge(a, b),
                seen.insert((a, b)),
                "{a}->{b} in {edges:?}"
            );
        }
        assert_eq!(g.num_edges(), seen.len());
    }
}
