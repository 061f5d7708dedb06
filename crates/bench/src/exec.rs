//! Deterministic parallel execution of independent work items.
//!
//! The harness's unit of work is one simulation run (one table row ×
//! one replication), and every run derives its RNG stream purely from
//! `(seed, table, rep, n)` — no shared mutable state. That makes the
//! fan-out embarrassingly parallel *and* order-independent: workers may
//! finish in any order, but each result lands in the slot of its item
//! index, and callers reduce the slots in the same fixed order a
//! sequential loop would. Output is therefore bit-identical for any
//! `--jobs` value (enforced by `tests/parallel_identity.rs`).
//!
//! Built on `std::thread::scope` only; no external dependencies.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default worker count: the machine's available parallelism (1 if it
/// cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Evaluate `f(0), f(1), …, f(count - 1)` on up to `jobs` worker
/// threads and return the results in index order, or fail fast: once a
/// unit has returned `Err`, no worker claims another, and the error is
/// the lowest-index unit's. Units are claimed in index order, so that is
/// the unit a sequential loop stops at, and the message is the same for
/// any `jobs`.
///
/// Work is distributed dynamically (an atomic cursor), so uneven item
/// costs — e.g. table rows at growing dimension — still load-balance.
/// With `jobs <= 1` the items run inline on the caller's thread, with
/// no thread machinery at all; results are identical either way as long
/// as `f` is a pure function of its index.
///
/// # Panics
///
/// Propagates a panic from any worker (the first one joined).
pub fn run_indexed<T, E, F>(count: usize, jobs: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let jobs = jobs.clamp(1, count.max(1));
    if jobs == 1 {
        return (0..count).map(f).collect();
    }
    // An error moves the cursor past the end, so the claim that follows
    // it in the cursor's modification order finds no unit.
    let cursor = AtomicUsize::new(0);
    // `forbid(unsafe_code)` rules out writing into shared slots from the
    // workers, so each worker returns its own (index, value) batch and
    // the gather below scatters them back into index order.
    let batches: Vec<Vec<(usize, Result<T, E>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        let v = f(i);
                        if v.is_err() {
                            cursor.fetch_max(count, Ordering::Relaxed);
                        }
                        mine.push((i, v));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(count).collect();
    let mut failed: Option<(usize, E)> = None;
    for (i, v) in batches.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "item {i} computed twice");
        match v {
            Ok(v) => slots[i] = Some(v),
            Err(e) if failed.as_ref().is_none_or(|&(j, _)| i < j) => failed = Some((i, e)),
            Err(_) => {}
        }
    }
    if let Some((_, e)) = failed {
        return Err(e);
    }
    Ok(slots
        .into_iter()
        .enumerate()
        .map(|(i, v)| v.unwrap_or_else(|| panic!("item {i} never computed")))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok<T>(v: T) -> Result<T, String> {
        Ok(v)
    }

    #[test]
    fn preserves_index_order() {
        for jobs in [1, 2, 3, 8, 64] {
            let out = run_indexed(37, jobs, |i| ok(i * i));
            assert_eq!(
                out,
                Ok((0..37).map(|i| i * i).collect::<Vec<_>>()),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn handles_empty_and_tiny() {
        assert_eq!(run_indexed(0, 4, ok), Ok(Vec::<usize>::new()));
        assert_eq!(run_indexed(1, 4, |i| ok(i + 10)), Ok(vec![10]));
    }

    #[test]
    fn uneven_items_still_ordered() {
        // Make early items slow so late items finish first on other
        // workers; the gather must still restore index order.
        let out = run_indexed(16, 4, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            ok(i)
        });
        assert_eq!(out, Ok((0..16).collect::<Vec<_>>()));
    }

    #[test]
    fn stops_claiming_after_an_error() {
        // Unit 3 fails slowly and unit 4 at once: at two jobs unit 4
        // may fail first, but the error is still unit 3's, and at most
        // the one unit claimed beside it runs past it.
        for (jobs, most) in [(1, 4), (2, 5)] {
            let started = AtomicUsize::new(0);
            let out = run_indexed(100, jobs, |i| {
                started.fetch_add(1, Ordering::Relaxed);
                match i {
                    3 => {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Err(format!("unit {i}"))
                    }
                    4 => Err(format!("unit {i}")),
                    _ => Ok(i),
                }
            });
            assert_eq!(out, Err("unit 3".to_string()), "jobs={jobs}");
            let started = started.into_inner();
            assert!(
                (4..=most).contains(&started),
                "jobs={jobs}: {started} units started"
            );
        }
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
