//! Recording must be an observer, not a participant: measured rows are
//! bit-identical with sinks attached, merged sinks are deterministic
//! across `--jobs`, and the exported JSON is well-formed.

use fadr_bench::obs::{metrics_json, trace_jsonl, MetricsRow, RecordConfig};
use fadr_bench::runner::{run_rows, run_rows_recorded, spec, RunOptions};

fn opts() -> RunOptions {
    RunOptions {
        reps: 2,
        dynamic_cycles: 60,
        ..RunOptions::default()
    }
}

fn full_config() -> RecordConfig {
    RecordConfig {
        counters: true,
        trace: Some(16),
        watchdog: Some(100_000),
        ..RecordConfig::default()
    }
}

/// Attaching every sink must not change a single measured bit, static
/// or dynamic (the recorder observes the simulation, it never steers
/// arbitration or RNG streams).
#[test]
fn recorded_rows_are_bit_identical_to_plain_rows() {
    for table in [2usize, 9] {
        let dims = [5usize, 6];
        let plain = run_rows(spec(table), &dims, opts(), 1).unwrap();
        let recorded = run_rows_recorded(spec(table), &dims, opts(), 1, full_config()).unwrap();
        assert_eq!(plain.len(), recorded.len());
        for (p, r) in plain.iter().zip(&recorded) {
            assert_eq!(p.n, r.row.n);
            assert_eq!(p.l_avg.to_bits(), r.row.l_avg.to_bits(), "table {table}");
            assert_eq!(p.l_max, r.row.l_max);
            assert_eq!(
                p.injection_rate.map(f64::to_bits),
                r.row.injection_rate.map(f64::to_bits)
            );
        }
    }
}

/// Merged sinks reduce in fixed replication order, so the whole metrics
/// document — counters, occupancy, traces — is identical for any
/// worker count, extending PR 1's bit-identity guarantee to recording.
#[test]
fn recorded_sinks_are_identical_across_jobs() {
    let dims = [5usize, 6];
    let doc = |jobs: usize| {
        let recorded = run_rows_recorded(spec(6), &dims, opts(), jobs, full_config()).unwrap();
        let rows: Vec<MetricsRow> = recorded
            .iter()
            .map(|r| MetricsRow::from_recorded(6, r))
            .collect();
        (metrics_json("FullyAdaptive", &rows), trace_jsonl(&rows))
    };
    let (metrics1, trace1) = doc(1);
    for jobs in [2usize, 4] {
        let (metrics_j, trace_j) = doc(jobs);
        assert_eq!(metrics1, metrics_j, "metrics differ at jobs={jobs}");
        assert_eq!(trace1, trace_j, "traces differ at jobs={jobs}");
    }
}

/// The exported document parses as JSON and contains the advertised
/// schema fields (validated by a small structural parser — the repo has
/// no JSON dependency).
#[test]
fn metrics_document_is_well_formed_json() {
    let recorded = run_rows_recorded(spec(2), &[5], opts(), 1, full_config()).unwrap();
    let rows: Vec<MetricsRow> = recorded
        .iter()
        .map(|r| MetricsRow::from_recorded(2, r))
        .collect();
    let doc = metrics_json("FullyAdaptive", &rows);
    assert_json(&doc);
    for key in [
        "\"schema\": \"fadr-metrics/1\"",
        "\"algo\":",
        "\"rows\":",
        "\"counters\":",
        "\"dynamic_share\":",
        "\"stall\":",
    ] {
        assert!(doc.contains(key), "missing {key} in {doc}");
    }
    for line in trace_jsonl(&rows).lines() {
        assert_json(line);
    }
}

/// Minimal JSON validator: consumes one value, requires the whole input
/// to be exactly that value. Panics with context on malformed input.
fn assert_json(s: &str) {
    let b = s.as_bytes();
    let end = parse_value(b, skip_ws(b, 0));
    assert_eq!(skip_ws(b, end), b.len(), "trailing garbage in {s}");
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && (b[i] as char).is_ascii_whitespace() {
        i += 1;
    }
    i
}

fn parse_value(b: &[u8], i: usize) -> usize {
    match b.get(i) {
        Some(b'{') => parse_seq(b, i, b'}', true),
        Some(b'[') => parse_seq(b, i, b']', false),
        Some(b'"') => parse_string(b, i),
        Some(b't') => expect(b, i, b"true"),
        Some(b'f') => expect(b, i, b"false"),
        Some(b'n') => expect(b, i, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, i),
        other => panic!("unexpected {other:?} at byte {i}"),
    }
}

fn parse_seq(b: &[u8], open: usize, close: u8, keyed: bool) -> usize {
    let mut i = skip_ws(b, open + 1);
    if b.get(i) == Some(&close) {
        return i + 1;
    }
    loop {
        if keyed {
            i = skip_ws(b, parse_string(b, i));
            assert_eq!(b.get(i), Some(&b':'), "expected ':' at byte {i}");
            i = skip_ws(b, i + 1);
        }
        i = skip_ws(b, parse_value(b, i));
        match b.get(i) {
            Some(b',') => i = skip_ws(b, i + 1),
            Some(c) if *c == close => return i + 1,
            other => panic!("expected ',' or close at byte {i}, got {other:?}"),
        }
    }
}

fn parse_string(b: &[u8], i: usize) -> usize {
    assert_eq!(b.get(i), Some(&b'"'), "expected string at byte {i}");
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            b'"' => return j + 1,
            b'\\' => j += 2,
            _ => j += 1,
        }
    }
    panic!("unterminated string starting at byte {i}");
}

fn parse_number(b: &[u8], i: usize) -> usize {
    let mut j = i;
    while j < b.len() && matches!(b[j], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        j += 1;
    }
    assert!(j > i, "empty number at byte {i}");
    j
}

fn expect(b: &[u8], i: usize, word: &[u8]) -> usize {
    assert!(
        b[i..].starts_with(word),
        "expected {} at byte {i}",
        String::from_utf8_lossy(word)
    );
    i + word.len()
}

/// A watchdogged recorded run of a wedged configuration reports the
/// stall through the whole pipeline (runner merge → JSON export)
/// instead of panicking on the drain assert.
#[test]
fn wedged_run_reports_stall_through_export() {
    let o = RunOptions {
        queue_capacity: 0,
        ..RunOptions::default()
    };
    let rc = RecordConfig {
        counters: true,
        trace: None,
        watchdog: Some(200),
        ..RecordConfig::default()
    };
    let recorded = run_rows_recorded(spec(2), &[4], o, 1, rc).unwrap();
    let rows: Vec<MetricsRow> = recorded
        .iter()
        .map(|r| MetricsRow::from_recorded(2, r))
        .collect();
    assert!(rows[0].sinks.stall().is_some(), "watchdog must fire");
    let doc = metrics_json("FullyAdaptive", &rows);
    assert_json(&doc);
    assert!(doc.contains("\"links_in_window\": 0"), "{doc}");
    assert!(!doc.contains("\"stall\": null"), "{doc}");
}
