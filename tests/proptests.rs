//! Randomized property tests on the core invariants. (Formerly
//! proptest-based; now seeded loops over the workspace RNG so the suite
//! has no external dependencies. Each test exercises the same property
//! over dozens of random cases.)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fadroute::prelude::*;
use fadroute::qdg::{HopKind, LinkKind};
use fadroute::topology::{graph, hamming_distance};

const CASES: usize = 64;

/// Walk a message greedily through `R̃`, always taking the `choice`-th
/// available transition, and return the link-hop count to delivery.
fn greedy_walk<RF: RoutingFunction>(rf: &RF, src: NodeId, dst: NodeId, mut choice: u64) -> usize {
    let mut q = QueueId::inject(src);
    let mut msg = rf.initial_msg(src, dst);
    let mut hops = 0usize;
    let mut steps = 0usize;
    loop {
        steps += 1;
        assert!(steps < 10_000, "walk did not terminate");
        if q.kind == QueueKind::Deliver {
            assert_eq!(q.node, dst, "delivered at the wrong node");
            return hops;
        }
        let ts = rf.transitions(q, &msg);
        assert!(!ts.is_empty(), "dead end at {q} with {msg:?}");
        let t = &ts[(choice % ts.len() as u64) as usize];
        choice = choice
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if matches!(t.hop, HopKind::Link(_)) {
            hops += 1;
        }
        q = t.to;
        msg = t.msg.clone();
    }
}

/// Any adversarially-chosen sequence of R̃ choices delivers a hypercube
/// packet in exactly Hamming-distance hops (minimality + no dead ends).
#[test]
fn hypercube_walks_are_minimal() {
    let mut rng = StdRng::seed_from_u64(0xf00d);
    let rf = HypercubeFullyAdaptive::new(6);
    for _ in 0..CASES {
        let (src, dst) = (rng.gen_range(0..64usize), rng.gen_range(0..64usize));
        if src == dst {
            continue;
        }
        let hops = greedy_walk(&rf, src, dst, rng.gen_range(0..u64::MAX));
        assert_eq!(hops, hamming_distance(src, dst));
    }
}

/// Same for the mesh: exactly Manhattan distance.
#[test]
fn mesh_walks_are_minimal() {
    let mut rng = StdRng::seed_from_u64(0xf00e);
    let rf = MeshFullyAdaptive::new(6, 6);
    for _ in 0..CASES {
        let (src, dst) = (rng.gen_range(0..36usize), rng.gen_range(0..36usize));
        if src == dst {
            continue;
        }
        let d = rf.topology().distance(src, dst);
        assert_eq!(greedy_walk(&rf, src, dst, rng.gen_range(0..u64::MAX)), d);
    }
}

/// Torus: exactly wraparound distance.
#[test]
fn torus_walks_are_minimal() {
    let mut rng = StdRng::seed_from_u64(0xf00f);
    let rf = TorusTwoPhase::new(5, 5);
    for _ in 0..CASES {
        let (src, dst) = (rng.gen_range(0..25usize), rng.gen_range(0..25usize));
        if src == dst {
            continue;
        }
        let d = rf.topology().distance(src, dst);
        assert_eq!(greedy_walk(&rf, src, dst, rng.gen_range(0..u64::MAX)), d);
    }
}

/// Shuffle-exchange: any walk delivers within 3n link hops (Theorem 3),
/// for both the adaptive and static variants.
#[test]
fn shuffle_exchange_walks_are_bounded() {
    let mut rng = StdRng::seed_from_u64(0xf010);
    let n = 5;
    let adaptive = ShuffleExchangeRouting::new(n);
    let static_rf = ShuffleExchangeRouting::without_dynamic_links(n);
    for _ in 0..CASES {
        let (src, dst) = (rng.gen_range(0..32usize), rng.gen_range(0..32usize));
        if src == dst {
            continue;
        }
        let choice = rng.gen_range(0..u64::MAX);
        for hops in [
            greedy_walk(&adaptive, src, dst, choice),
            greedy_walk(&static_rf, src, dst, choice),
        ] {
            assert!(hops <= 3 * n, "{hops} hops");
        }
    }
}

/// Static-link hops only still deliver (condition 3 / the underlying
/// DAG route always exists): restrict choices to static transitions.
#[test]
fn hypercube_static_only_walks_deliver() {
    let rf = HypercubeFullyAdaptive::new(5);
    for src in 0..32usize {
        for dst in 0..32usize {
            if src == dst {
                continue;
            }
            let mut q = QueueId::inject(src);
            let mut msg = rf.initial_msg(src, dst);
            let mut steps = 0;
            while q.kind != QueueKind::Deliver {
                steps += 1;
                assert!(steps < 1000);
                let ts = rf.transitions(q, &msg);
                let t = ts
                    .iter()
                    .find(|t| t.kind == LinkKind::Static)
                    .expect("static escape");
                q = t.to;
                msg = t.msg;
            }
            assert_eq!(q.node, dst);
        }
    }
}

/// Simulator invariant: every static run drains and delivers exactly
/// the injected packet count, whatever the (pattern-free) random
/// destination multiset.
#[test]
fn simulator_conserves_packets() {
    let mut seeder = StdRng::seed_from_u64(0xf011);
    for _ in 0..16 {
        let seed = seeder.gen_range(0..u64::MAX);
        let packets = seeder.gen_range(1..4usize);
        let n = 5;
        let size = 1usize << n;
        let cfg = SimConfig {
            seed,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(HypercubeFullyAdaptive::new(n), cfg);
        let mut rng = StdRng::seed_from_u64(seed);
        let backlog = static_backlog(&Pattern::Random, size, packets, &mut rng);
        let res = sim.run_static(&backlog);
        assert!(res.drained);
        assert_eq!(res.delivered, (size * packets) as u64);
        // Latencies are odd (2k+1) and at least 1.
        assert!(res.stats.min() >= 1);
        assert_eq!(res.stats.min() % 2, 1);
        assert_eq!(res.stats.max() % 2, 1);
    }
}

/// LatencyStats agrees with a naive recomputation.
#[test]
fn latency_stats_matches_naive() {
    let mut rng = StdRng::seed_from_u64(0xf012);
    for _ in 0..CASES {
        let len = rng.gen_range(1..200usize);
        let values: Vec<u64> = (0..len).map(|_| rng.gen_range(0..500u64)).collect();
        let mut s = LatencyStats::new();
        for &v in &values {
            s.record(v);
        }
        let naive_mean = values.iter().sum::<u64>() as f64 / values.len() as f64;
        assert!((s.mean() - naive_mean).abs() < 1e-9);
        assert_eq!(s.max(), *values.iter().max().unwrap());
        assert_eq!(s.min(), *values.iter().min().unwrap());
        assert_eq!(s.count(), values.len() as u64);
        // Median sanity: at least half the mass is <= the 50th percentile.
        let p50 = s.percentile(0.5);
        let at_most = values.iter().filter(|&&v| v <= p50).count();
        assert!(at_most * 2 >= values.len());
    }
}

/// Topology distances: symmetric on undirected networks and consistent
/// with BFS.
#[test]
fn undirected_distances_are_symmetric() {
    let mut rng = StdRng::seed_from_u64(0xf013);
    let h = Hypercube::new(6);
    let t = Torus2D::new(8, 8);
    for _ in 0..CASES {
        let (a, b) = (rng.gen_range(0..64usize), rng.gen_range(0..64usize));
        assert_eq!(h.distance(a, b), h.distance(b, a));
        assert_eq!(t.distance(a, b), t.distance(b, a));
        assert_eq!(t.distance(a, b), graph::bfs_distance(&t, a, b).unwrap());
    }
}

/// Patterns never draw destinations out of range.
#[test]
fn pattern_draws_in_range() {
    let mut rng = StdRng::seed_from_u64(0xf014);
    for _ in 0..CASES {
        let src = rng.gen_range(0..256usize);
        for p in [
            Pattern::Random,
            Pattern::complement(8),
            Pattern::transpose(8),
            Pattern::bit_reversal(8),
        ] {
            let d = p.draw(src, 256, &mut rng);
            assert!(d < 256);
        }
    }
}

/// Plain reverse BFS, one target at a time: the hop distance from every
/// node to `t` over the directed edges `pred[v] ∋ u` (`u -> v`),
/// `u32::MAX` when a node cannot reach `t`.
fn scalar_row(pred: &[Vec<usize>], t: usize) -> Vec<u32> {
    let mut d = vec![u32::MAX; pred.len()];
    d[t] = 0;
    let mut queue = std::collections::VecDeque::from([t]);
    while let Some(v) = queue.pop_front() {
        for &u in &pred[v] {
            if d[u] == u32::MAX {
                d[u] = d[v] + 1;
                queue.push_back(u);
            }
        }
    }
    d
}

/// A random surviving graph of `topo`: each node dies with
/// probability `cut`, and so does each link between live nodes. Returns
/// the dead flags, the predecessor lists of the live links and the
/// kernel's successor lists of the same links.
fn surviving(
    topo: &dyn Topology,
    rng: &mut StdRng,
    cut: f64,
) -> (Vec<bool>, Vec<Vec<usize>>, graph::Csr) {
    let n = topo.num_nodes();
    let dead: Vec<bool> = (0..n).map(|_| rng.gen_bool(cut)).collect();
    let mut pred = vec![Vec::new(); n];
    let mut live = std::collections::HashSet::new();
    for u in 0..n {
        for port in 0..topo.max_ports() {
            if let Some(v) = topo.neighbor(u, port) {
                if !dead[u] && !dead[v] && !rng.gen_bool(cut) {
                    pred[v].push(u);
                    live.insert((u, v));
                }
            }
        }
    }
    let g = graph::Csr::from_topology(topo, |u, v| live.contains(&(u, v)));
    (dead, pred, g)
}

/// The bit-parallel reverse BFS (`graph::reverse_bfs_batch`) fills
/// every row exactly as a scalar reverse BFS per target does, over
/// random dead channels and nodes: networks below (32, 60, 63), at (64)
/// and above (72) one batch of 64 nodes, aligned batches and target
/// ranges at any offset (crossing a 64-node boundary on the torus),
/// dead targets and live nodes that cannot reach a live target. The
/// row cache (`graph::DistanceRows`) serves the same rows walked in
/// order, walked backwards with every batch kept, and refilled after a
/// reset onto another cut.
#[test]
fn batched_reverse_bfs_matches_scalar() {
    let mut rng = StdRng::seed_from_u64(0xf015);
    let topos: [Box<dyn Topology>; 5] = [
        Box::new(Hypercube::new(5)),
        Box::new(Mesh2D::new(9, 7)),
        Box::new(Torus2D::new(8, 9)),
        Box::new(MeshKD::new(&[3, 4, 5])),
        Box::new(ShuffleExchange::new(6)),
    ];
    let (mut dead_targets, mut unreachable, mut crossing) = (0, 0, 0);
    for topo in &topos {
        let n = topo.num_nodes();
        for case in 0..CASES / 4 {
            // From intact to heavily cut, so some cases disconnect.
            let cut = [0.0, 0.03, 0.1, 0.3][case % 4];
            let (dead_node, pred, g) = surviving(topo.as_ref(), &mut rng, cut);
            let what = format!("{} case {case}", topo.name());
            let check = |t: usize, row: &[u32], unreachable: &mut usize| {
                assert_eq!(row, scalar_row(&pred, t), "{what}: target {t}");
                if !dead_node[t] {
                    *unreachable += (0..n)
                        .filter(|&u| !dead_node[u] && row[u] == u32::MAX)
                        .count();
                }
            };
            // Every target, one aligned batch held at a time.
            let mut rows = graph::DistanceRows::in_order(g.clone());
            for t in 0..n {
                check(t, rows.row(t), &mut unreachable);
            }
            dead_targets += dead_node.iter().filter(|&&d| d).count();
            // A range at a random offset, and the last 64 targets.
            let lo = rng.gen_range(0..n);
            let hi = rng.gen_range(lo + 1..=n.min(lo + graph::BATCH));
            for targets in [lo..hi, n.saturating_sub(graph::BATCH)..n] {
                crossing += usize::from(targets.start < 64 && targets.end > 64);
                let mut rows = vec![0; targets.len() * n];
                graph::reverse_bfs_batch(&g, targets.clone(), &mut rows);
                for (i, t) in targets.enumerate() {
                    check(t, &rows[i * n..(i + 1) * n], &mut unreachable);
                }
            }
            // Backwards with every batch kept, then every row again.
            let mut rows = graph::DistanceRows::new(g);
            for t in (0..n).rev() {
                check(t, rows.row(t), &mut unreachable);
            }
            for t in 0..n {
                assert_eq!(rows.get(t), Some(&scalar_row(&pred, t)[..]), "{what}");
            }
            // A reset leaves every batch stale until refilled.
            let (_, pred, g) = surviving(topo.as_ref(), &mut rng, cut);
            rows.reset(g);
            assert_eq!(rows.get(n - 1), None, "{what}: stale row served");
            rows.fill_all();
            for t in 0..n {
                assert_eq!(
                    rows.get(t),
                    Some(&scalar_row(&pred, t)[..]),
                    "{what}: after reset"
                );
            }
        }
    }
    assert!(dead_targets > 0 && unreachable > 0 && crossing > 0);
}
