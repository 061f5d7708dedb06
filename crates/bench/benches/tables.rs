//! One timing bench per paper table (1–12), at reduced scale (n = 8,
//! short dynamic horizon) so a full `cargo bench` stays tractable; the
//! `tables` binary regenerates the paper-scale numbers.

#![forbid(unsafe_code)]

use fadr_bench::perf::{report_line, time};
use fadr_bench::runner::{run_row, spec, RunOptions};

const BENCH_DIMS: usize = 8;
const SAMPLES: usize = 10;

fn opts() -> RunOptions {
    RunOptions {
        dynamic_cycles: 100,
        ..RunOptions::default()
    }
}

fn main() {
    println!("paper_tables (dims = {BENCH_DIMS}, {SAMPLES} samples)");
    for t in 1..=12usize {
        let name = match t {
            1..=4 => format!("table{t:02}_static1"),
            5..=8 => format!("table{t:02}_staticN"),
            _ => format!("table{t:02}_dynamic"),
        };
        let m = time(&name, SAMPLES, || {
            run_row(spec(t), BENCH_DIMS, opts()).unwrap()
        });
        println!("{}", report_line(&m));
    }
}
