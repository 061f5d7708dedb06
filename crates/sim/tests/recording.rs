//! Tests of the observability layer against known routing facts: link
//! counters on analytically predictable workloads, watchdog detection of
//! a deliberately wedged network, trace lifecycles, and occupancy
//! total consistency.

use fadr_core::{HypercubeFullyAdaptive, HypercubeStaticHang};
use fadr_qdg::RoutingFunction;
use fadr_sim::{CounterSink, SimConfig, Simulator, SinkSet};
use fadr_topology::hamming_distance;
use fadr_workloads::{static_backlog, Pattern};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One packet per backlog entry `(src, dst)`, nothing else in flight.
fn lone_backlog(size: usize, src: usize, dst: usize) -> Vec<Vec<usize>> {
    let mut backlog = vec![Vec::new(); size];
    backlog[src].push(dst);
    backlog
}

/// A single packet on the adaptivity-disabled hang traverses exactly
/// `hamming(src, dst)` links, all of them static — the counter-level
/// statement of minimality plus "no dynamic links exist in the hang".
#[test]
fn single_packet_static_hang_counts_hamming_links() {
    let n = 5;
    let size = 1usize << n;
    let rf = HypercubeStaticHang::new(n);
    let classes = rf.num_classes();
    for (src, dst) in [(0usize, 0b10110), (0b10101, 0b01010), (1, 0)] {
        let mut sim = Simulator::with_recorder(
            HypercubeStaticHang::new(n),
            SimConfig::default(),
            CounterSink::new(size, classes),
        );
        let res = sim.run_static(&lone_backlog(size, src, dst));
        assert!(res.drained);
        let c = sim.recorder();
        let d = hamming_distance(src, dst) as u64;
        assert_eq!(c.links_total(), d, "({src:#b} -> {dst:#b})");
        assert_eq!(c.links_dynamic, 0, "hang must never use dynamic links");
        assert_eq!(c.links_static, d);
        assert_eq!(c.dynamic_share(), 0.0);
        assert_eq!(c.injected, 1);
        assert_eq!(c.delivered, 1);
    }
}

/// Two fully-adaptive packets crossing in opposite directions: the § 3
/// algorithm offers its dynamic links in fill order before the escape
/// path, so the crossing exercises at least one dynamic link, while
/// minimality pins the total link count to the two Hamming distances.
#[test]
fn crossing_packets_fully_adaptive_take_a_dynamic_link() {
    let n = 4;
    let size = 1usize << n;
    let rf = HypercubeFullyAdaptive::new(n);
    let classes = rf.num_classes();
    let (a, b) = (0b0101usize, 0b1010usize);
    let mut backlog = vec![Vec::new(); size];
    backlog[a].push(b);
    backlog[b].push(a);
    let mut sim = Simulator::with_recorder(
        HypercubeFullyAdaptive::new(n),
        SimConfig::default(),
        CounterSink::new(size, classes),
    );
    let res = sim.run_static(&backlog);
    assert!(res.drained);
    let c = sim.recorder();
    assert_eq!(c.links_total(), 2 * hamming_distance(a, b) as u64);
    assert!(
        c.links_dynamic >= 1,
        "fully-adaptive crossing took no dynamic link (static {} / dynamic {})",
        c.links_static,
        c.links_dynamic
    );
    assert_eq!(c.delivered, 2);
}

/// A capacity-0 central queue wedges the network (packets can never
/// leave their injection buffers). The watchdog aborts the run with a
/// deadlock-signature stall report instead of spinning to `max_cycles`.
#[test]
fn watchdog_catches_capacity_zero_wedge() {
    let n = 3;
    let size = 1usize << n;
    let cfg = SimConfig {
        queue_capacity: 0,
        max_cycles: 1_000_000, // far beyond the watchdog window
        ..SimConfig::default()
    };
    let k = 64;
    let mut sim = Simulator::with_recorder(
        HypercubeFullyAdaptive::new(n),
        cfg,
        SinkSet::new().with_watchdog(k),
    );
    let res = sim.run_static(&lone_backlog(size, 0, size - 1));
    assert!(!res.drained, "a wedged network must not drain");
    assert!(
        res.cycles <= 2 * k,
        "watchdog should abort near its window, ran {} cycles",
        res.cycles
    );
    let report = sim.recorder().stall().expect("stall report");
    assert_eq!(report.in_flight, 1);
    assert_eq!(
        report.links_in_window, 0,
        "nothing can move: deadlock signature"
    );
    let (pkt, src, dst, inject) = report.oldest.expect("oldest packet");
    assert_eq!(
        (pkt, src as usize, dst as usize, inject),
        (0, 0, size - 1, 0)
    );
}

/// Without a watchdog the same wedge spins to the cycle cap — the
/// behavior the watchdog exists to replace.
#[test]
fn capacity_zero_without_watchdog_hits_the_cap() {
    let cfg = SimConfig {
        queue_capacity: 0,
        max_cycles: 200,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(HypercubeFullyAdaptive::new(3), cfg);
    let res = sim.run_static(&lone_backlog(8, 0, 7));
    assert!(!res.drained);
    assert_eq!(res.cycles, 200);
}

/// The trace sink reconstructs a lone packet's full lifecycle: injected
/// at cycle 0, delivered, and exactly `hamming(src, dst)` non-stutter
/// hops.
#[test]
fn trace_records_full_lifecycle() {
    let n = 4;
    let size = 1usize << n;
    let (src, dst) = (0usize, 0b1101usize);
    let mut sim = Simulator::with_recorder(
        HypercubeFullyAdaptive::new(n),
        SimConfig::default(),
        SinkSet::new().with_trace(8),
    );
    assert!(sim.run_static(&lone_backlog(size, src, dst)).drained);
    let mut sinks = sim.into_recorder();
    sinks.flush();
    let trace = sinks.trace.as_ref().unwrap();
    assert_eq!(trace.lines().len(), 1);
    let line = &trace.lines()[0];
    assert!(line.contains("\"delivered\": true"), "{line}");
    assert!(
        line.contains(&format!("\"src\": {src}, \"dst\": {dst}")),
        "{line}"
    );
    let hops = line.matches("\"kind\": ").count();
    let stutters = line.matches("\"kind\": \"stutter\"").count();
    assert_eq!(hops - stutters, hamming_distance(src, dst), "{line}");
}

/// Per-queue `CounterSink` occupancy values stay consistent with its
/// total accessors: totals are the sum (means) and max (peaks) of the
/// per-queue values.
#[test]
fn occupancy_probe_totals_match_per_queue_values() {
    let n = 6;
    let size = 1usize << n;
    let rf = HypercubeFullyAdaptive::new(n);
    let classes = rf.num_classes();
    let counters = CounterSink::new(size, classes);
    let mut sim = Simulator::with_recorder(rf, SimConfig::default(), counters);
    let mut rng = StdRng::seed_from_u64(11);
    let backlog = static_backlog(&Pattern::complement(n), size, n, &mut rng);
    assert!(sim.run_static(&backlog).drained);
    let probe = sim.recorder();
    assert_eq!(probe.num_queues(), size * classes);
    let mut mean_sum = 0.0;
    let mut peak_max = 0;
    for v in 0..size {
        for c in 0..classes {
            mean_sum += probe.queue_mean(v, c);
            peak_max = peak_max.max(probe.queue_peak(v, c));
        }
    }
    assert!(
        (probe.mean_total() - mean_sum).abs() < 1e-9,
        "mean_total {} vs per-queue sum {mean_sum}",
        probe.mean_total()
    );
    assert_eq!(probe.peak_max(), peak_max);
    assert!(probe.mean_total() > 0.0, "complement load occupies queues");
}
