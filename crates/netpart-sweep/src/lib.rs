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
//! [`submit`] is the other use of the cores: one job at a time, handed to
//! a process-wide pool of [`threads`]` − 1` workers and redeemed with
//! [`Pending::join`], whose caller runs queued jobs itself while it waits.
//! The SPMD engine runs a rank's arithmetic this way between its compute
//! start and its completion. A job submitted from a [`sweep`] worker runs
//! inline, so a parallel sweep of runs does not oversubscribe the cores.
//!
//! Thread count: `NETPART_SWEEP_THREADS` env var, else a programmatic
//! [`set_threads`] override, else [`std::thread::available_parallelism`].
//! It sizes both the sweep and the pool. A count of 1 (or a single cell)
//! runs the one worker loop on the calling thread with zero spawn
//! overhead, and every submitted job inline.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;

/// Programmatic thread-count override; 0 means "auto".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The host's [`thread::available_parallelism`], the "auto" count.
static AVAILABLE: OnceLock<usize> = OnceLock::new();

/// Force the thread count for subsequent [`sweep`] and [`submit`] calls
/// (0 restores auto-detection). Results are byte-identical for any count,
/// so racing callers can only affect speed, never output — tests use
/// this to compare the sequential and parallel paths directly.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The thread count [`sweep`] and [`submit`] use right now: a sweep's
/// workers, and the pool's workers plus the joining thread.
pub fn threads() -> usize {
    if let Ok(v) = std::env::var("NETPART_SWEEP_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        // Read once: on Linux the call reads cgroup files, too slow for a
        // count asked for on every submitted job.
        0 => *AVAILABLE.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get())),
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
                s.spawn(|| {
                    IS_WORKER.set(true);
                    worker()
                });
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

thread_local! {
    /// Whether this thread is a spawned sweep worker or a pool worker:
    /// the cores are taken, so what it submits runs inline.
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// A queued job, type-erased: it stores its own outcome.
type Task = Box<dyn FnOnce() + Send>;

/// The process-wide pool behind [`submit`]. Its workers live as long as
/// the process and are never joined: every job runs under
/// `catch_unwind`, so a worker outlives any job's panic and the panic
/// reaches the job's joiner instead.
struct Pool {
    state: Mutex<PoolState>,
    /// Signalled when a job is queued or finishes: idle workers wait for
    /// the first, joiners for either.
    changed: Condvar,
}

struct PoolState {
    queue: VecDeque<Task>,
    workers: usize,
}

static POOL: Pool = Pool {
    state: Mutex::new(PoolState {
        queue: VecDeque::new(),
        workers: 0,
    }),
    changed: Condvar::new(),
};

fn pool_state() -> MutexGuard<'static, PoolState> {
    // Jobs run outside the lock, so no panic can poison it.
    POOL.state.lock().expect("pool lock poisoned")
}

/// Run `task` outside the pool lock, then retake it and wake the waiters:
/// its joiner checks for the outcome under the lock, so the wake-up cannot
/// slip in between that check and its wait.
fn run_unlocked(
    state: MutexGuard<'static, PoolState>,
    task: Task,
) -> MutexGuard<'static, PoolState> {
    drop(state);
    task();
    let state = pool_state();
    POOL.changed.notify_all();
    state
}

/// A pool worker: runs queued jobs, in submission order, until the
/// process ends.
fn pool_worker() {
    IS_WORKER.set(true);
    let mut state = pool_state();
    loop {
        state = match state.queue.pop_front() {
            Some(task) => run_unlocked(state, task),
            None => POOL.changed.wait(state).expect("pool lock poisoned"),
        };
    }
}

/// A job handed to [`submit`], redeemed for its result by [`Pending::join`].
pub struct Pending<R> {
    outcome: Arc<Mutex<Option<thread::Result<R>>>>,
}

/// Hand `job` to the process-wide pool and return at once. With
/// [`threads`]` == 1`, or from a sweep or pool worker, the job runs inline
/// before `submit` returns; either way its result, or its panic, comes out
/// of [`Pending::join`].
pub fn submit<R, F>(job: F) -> Pending<R>
where
    R: Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    let outcome = Arc::new(Mutex::new(None));
    let run = {
        let outcome = Arc::clone(&outcome);
        move || {
            let out = panic::catch_unwind(AssertUnwindSafe(job));
            *outcome.lock().expect("job outcome poisoned") = Some(out);
        }
    };
    let workers = threads().saturating_sub(1);
    if workers == 0 || IS_WORKER.get() {
        run();
    } else {
        let mut state = pool_state();
        while state.workers < workers {
            // A worker that cannot start costs speed, not progress: every
            // joiner runs queued jobs itself.
            let spawned = thread::Builder::new()
                .name("netpart-pool".into())
                .spawn(pool_worker);
            if spawned.is_err() {
                break;
            }
            state.workers += 1;
        }
        state.queue.push_back(Box::new(run));
        drop(state);
        POOL.changed.notify_all();
    }
    Pending { outcome }
}

impl<R> Pending<R> {
    /// Wait for the job and return its result; while it is not done, run
    /// queued jobs (its own among them) on this thread. A job that
    /// panicked re-raises its panic here.
    pub fn join(self) -> R {
        let mut state = pool_state();
        let out = loop {
            if let Some(out) = self.outcome.lock().expect("job outcome poisoned").take() {
                break out;
            }
            state = match state.queue.pop_front() {
                Some(task) => run_unlocked(state, task),
                None => POOL.changed.wait(state).expect("pool lock poisoned"),
            };
        };
        drop(state);
        out.unwrap_or_else(|payload| panic::resume_unwind(payload))
    }
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

    /// Whatever the thread count, every job's result comes back to its
    /// own handle, joined in any order.
    #[test]
    fn submitted_jobs_return_their_own_results() {
        for workers in [1, 2, 4] {
            set_threads(workers);
            let pending: Vec<_> = (0..50u64)
                .map(|i| submit(move || i.wrapping_mul(0x9E37).rotate_left(7)))
                .collect();
            set_threads(0);
            let got: Vec<u64> = pending.into_iter().rev().map(Pending::join).collect();
            let want: Vec<u64> = (0..50u64)
                .rev()
                .map(|i| i.wrapping_mul(0x9E37).rotate_left(7))
                .collect();
            assert_eq!(got, want, "{workers} threads");
        }
    }

    /// A job's panic comes out of its joiner, not a worker, and the pool
    /// keeps serving afterwards.
    #[test]
    fn a_panicking_job_panics_its_joiner() {
        for workers in [1, 2] {
            set_threads(workers);
            let doomed = submit(move || -> u32 { panic!("job {workers} failed") });
            let fine = submit(|| 7u32);
            set_threads(0);
            let payload = panic::catch_unwind(AssertUnwindSafe(|| doomed.join()))
                .expect_err("the job's panic reaches its joiner");
            let msg = payload.downcast_ref::<String>().expect("a formatted panic");
            assert_eq!(msg, &format!("job {workers} failed"));
            assert_eq!(fine.join(), 7);
        }
    }

    /// A spawned sweep worker already holds a core: what it submits runs
    /// on its own thread.
    #[test]
    fn a_sweep_worker_runs_its_jobs_inline() {
        set_threads(2);
        let ran = sweep((0..4).collect(), |_: u32| {
            let job = submit(|| thread::current().id());
            (IS_WORKER.get(), thread::current().id(), job.join())
        });
        set_threads(0);
        for (spawned, here, job) in ran {
            if spawned {
                assert_eq!(here, job);
            }
        }
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
