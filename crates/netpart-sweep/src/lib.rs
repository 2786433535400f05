//! Parallel sweep executor for independent simulation cells.
//!
//! Every paper artifact this workspace regenerates — Table 2's config ×
//! size grid, Fig. 3's P-sweep, the calibration (p, b) grid, the A1–A8
//! ablations — is a set of *independent, single-threaded* discrete-event
//! simulations. [`sweep`] fans such cells across cores with a
//! self-scheduling shared queue (each idle worker steals the next
//! unclaimed cell) and collects results **by cell index**, not completion
//! order. Because each cell owns its inputs — including its own seeded
//! RNG inside the simulated network — parallel output is byte-identical
//! to the sequential path, which the determinism regression tests assert.
//!
//! [`sweep_with`] adds per-worker state: each worker makes its state with
//! `init` before its first cell (at most once, and not at all when it
//! claims none) and hands it to every cell it runs — the calibration grid
//! keeps one warm simulator per worker this way. Which worker runs a cell,
//! and after which others, depends on timing, so the byte-identity above
//! holds only when a cell's result does not depend on what the state saw
//! before it. That is the contract on `run`: it must return to the state
//! `init` made (a simulator's `reset`) before reading it. [`sweep`] is the
//! stateless case.
//!
//! Thread count: `NETPART_SWEEP_THREADS` env var, else a programmatic
//! [`set_threads`] override, else [`std::thread::available_parallelism`].
//! A count of 1 (or a single cell) runs the one worker loop on the calling
//! thread with zero spawn overhead.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Programmatic thread-count override; 0 means "auto".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Force the worker count for subsequent [`sweep`] calls (0 restores
/// auto-detection). Results are byte-identical for any count, so racing
/// callers can only affect speed, never output — tests use this to compare
/// the sequential and parallel paths directly.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The worker count [`sweep`] will use right now.
pub fn threads() -> usize {
    if let Ok(v) = std::env::var("NETPART_SWEEP_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Run `run_cell` over every cell, in parallel, returning results in cell
/// order. Panics in a cell propagate to the caller after the scope joins.
pub fn sweep<T, R, F>(cells: Vec<T>, run_cell: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    sweep_with(cells, || (), |(), cell| run_cell(cell))
}

/// [`sweep`] with per-worker state: a worker calls `init` once, before its
/// first cell, and passes the state to `run` for every cell it claims.
/// `run` must not let a cell's result depend on the cells the state served
/// before (see the [crate docs](crate)).
pub fn sweep_with<T, S, R, I, F>(cells: Vec<T>, init: I, run: F) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    let n = cells.len();
    let queue = Mutex::new(cells.into_iter().enumerate());
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let worker = || {
        let mut state = None;
        loop {
            // Hold the queue lock only for the pop, not the cell run.
            let next = queue.lock().expect("sweep queue poisoned").next();
            let Some((i, cell)) = next else { break };
            let state = state.get_or_insert_with(&init);
            *slots[i].lock().expect("sweep slot poisoned") = Some(run(state, cell));
        }
    };
    match threads().min(n) {
        0 | 1 => worker(),
        workers => thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(worker);
            }
        }),
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .expect("sweep slot poisoned")
                .unwrap_or_else(|| panic!("sweep cell {i} produced no result"))
        })
        .collect()
}

/// [`sweep`] over `0..n`, for grids that are cheaper to index than to
/// materialize.
pub fn sweep_indexed<R, F>(n: usize, run_cell: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    sweep((0..n).collect(), run_cell)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_index_ordered() {
        let out = sweep((0..100u64).collect(), |i| i * i);
        assert_eq!(out, (0..100u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_sequential() {
        let cells: Vec<u64> = (0..64).collect();
        set_threads(1);
        let seq = sweep(cells.clone(), |i| i.wrapping_mul(0x9E37).rotate_left(7));
        set_threads(8);
        let par = sweep(cells, |i| i.wrapping_mul(0x9E37).rotate_left(7));
        set_threads(0);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_single_cell() {
        assert_eq!(sweep(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(sweep(vec![41], |x| x + 1), vec![42]);
    }

    #[test]
    fn indexed_variant() {
        assert_eq!(sweep_indexed(5, |i| i * 2), vec![0, 2, 4, 6, 8]);
    }

    /// Per-worker state: each result carries the thread its state was
    /// made on and how many cells that state had served, so stateful
    /// output is visible. The stateless part must not differ across thread
    /// counts, and `init` must run exactly once on each worker that ran a
    /// cell. (Workers are counted by thread id: other tests move the
    /// global thread count concurrently.)
    #[test]
    fn sweep_with_matches_sequential_and_inits_once_per_worker() {
        use std::collections::HashSet;
        use std::sync::atomic::AtomicUsize;
        let cells: Vec<u64> = (0..97).collect();
        let mut outputs = Vec::new();
        for workers in [1, 3, 8] {
            set_threads(workers);
            let inits = AtomicUsize::new(0);
            let served = sweep_with(
                cells.clone(),
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    (thread::current().id(), 0u64)
                },
                |(made_on, seen), cell| {
                    assert_eq!(*made_on, thread::current().id(), "state left its worker");
                    *seen += 1;
                    (cell.wrapping_mul(0x9E37).rotate_left(7), *made_on, *seen)
                },
            );
            set_threads(0);
            let workers_used: HashSet<_> = served.iter().map(|&(_, t, _)| t).collect();
            assert_eq!(inits.into_inner(), workers_used.len());
            let firsts = served.iter().filter(|&&(_, _, seen)| seen == 1).count();
            assert_eq!(firsts, workers_used.len(), "one first cell per state");
            outputs.push(served.into_iter().map(|(r, ..)| r).collect::<Vec<_>>());
        }
        assert!(outputs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn sweep_with_never_inits_without_cells() {
        let out: Vec<u32> = sweep_with(Vec::<u32>::new(), || panic!("init ran"), |(), x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn large_fanout_with_uneven_cost() {
        set_threads(8);
        let out = sweep((0..200usize).collect(), |i| {
            // Uneven per-cell cost exercises the self-scheduling queue.
            let mut acc = 0usize;
            for k in 0..(i % 17) * 1000 {
                acc = acc.wrapping_add(k ^ i);
            }
            (i, acc)
        });
        set_threads(0);
        for (i, row) in out.iter().enumerate() {
            assert_eq!(row.0, i);
        }
    }
}
