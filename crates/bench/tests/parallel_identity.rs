//! Regression: the parallel harness is bit-identical to sequential
//! execution. Every work unit derives its RNG streams purely from
//! `(seed, table, rep, n)`, and the per-row reduction runs in fixed rep
//! order on one thread, so `--jobs N` must reproduce `--jobs 1` exactly
//! — including the floating-point latency means, compared here via
//! `f64::to_bits` (no epsilon).

use fadr_bench::runner::{dims_for, run_row, run_rows, run_table_dims, spec, RunOptions};

/// Reduced scale so all 12 tables stay fast: small cubes, two
/// replications, short dynamic horizon.
fn opts() -> RunOptions {
    RunOptions {
        reps: 2,
        dynamic_cycles: 60,
        ..RunOptions::default()
    }
}

const DIMS: [usize; 2] = [5, 6];

/// Every cell of every table renders identically under 1 and 4 jobs.
#[test]
fn run_table_cells_identical_across_jobs() {
    for t in 1..=12usize {
        let seq = run_table_dims(t, &DIMS, opts(), 1).unwrap();
        let par = run_table_dims(t, &DIMS, opts(), 4).unwrap();
        assert_eq!(seq.title(), par.title(), "table {t}");
        assert_eq!(seq.num_rows(), par.num_rows(), "table {t}");
        assert_eq!(seq.to_text(), par.to_text(), "table {t} text differs");
        assert_eq!(seq.to_csv(), par.to_csv(), "table {t} csv differs");
    }
}

/// The parallel fan-out agrees with the plain sequential `run_row` loop
/// bit-for-bit, not just after rendering/rounding.
#[test]
fn run_rows_bitwise_identical_to_run_row() {
    for t in [1usize, 6, 9, 12] {
        let s = spec(t);
        let par = run_rows(s, &DIMS, opts(), 4).unwrap();
        assert_eq!(par.len(), DIMS.len());
        for (row, &n) in par.iter().zip(&DIMS) {
            let seq = run_row(s, n, opts()).unwrap();
            assert_eq!(row.n, seq.n);
            assert_eq!(row.l_max, seq.l_max, "table {t} n={n}");
            assert_eq!(
                row.l_avg.to_bits(),
                seq.l_avg.to_bits(),
                "table {t} n={n}: {} != {}",
                row.l_avg,
                seq.l_avg
            );
            assert_eq!(
                row.injection_rate.map(f64::to_bits),
                seq.injection_rate.map(f64::to_bits),
                "table {t} n={n}"
            );
        }
    }
}

/// Oversubscription (more jobs than work units) and jobs = 1 both hit
/// the same path outputs.
#[test]
fn job_count_never_changes_output() {
    let s = spec(6);
    let base = run_rows(s, &DIMS, opts(), 1).unwrap();
    for jobs in [2, 3, 64] {
        let got = run_rows(s, &DIMS, opts(), jobs).unwrap();
        for (a, b) in base.iter().zip(&got) {
            assert_eq!(a.l_avg.to_bits(), b.l_avg.to_bits(), "jobs={jobs}");
            assert_eq!(a.l_max, b.l_max, "jobs={jobs}");
        }
    }
}

/// The default-dims entry point agrees with the explicit-dims one.
#[test]
fn dims_override_matches_defaults() {
    let s = spec(2);
    let dims = dims_for(s, false);
    assert_eq!(dims, vec![10, 11, 12]);
}
