//! `TimedApp`: an [`SpmdApp`] wrapper that times every call the engine
//! makes back into the application — the only way to separate `apps` host
//! time from `spmd`/`mmps`/`sim` host time without spans inside the
//! product. Used in traced repetitions only; untraced repetitions hand
//! the engine the bare application.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use netpart::model::{OpKind, PartitionVector};
use netpart::spmd::{Rank, SpmdApp, Step};

use crate::trace::Tracer;

/// One timed call into the application.
#[derive(Debug, Clone, Copy)]
pub struct AppCall {
    /// Span name (`apps.compute`, `apps.produce`, …).
    pub name: &'static str,
    /// When the call started.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
}

/// Where a [`TimedApp`] records: shared, because a recoverable run builds
/// one application per execution segment and all of them report here. The
/// engine is single-threaded, so `Rc<RefCell<…>>` is enough.
#[derive(Debug, Clone, Default)]
pub struct AppLog {
    calls: Rc<RefCell<Vec<AppCall>>>,
    checkpoint_bytes: Rc<RefCell<u64>>,
}

impl AppLog {
    /// An empty log.
    pub fn new() -> AppLog {
        AppLog::default()
    }

    /// Move every recorded call into `tracer` as children of span
    /// `parent`, and return the checkpoint bytes serialized meanwhile.
    pub fn adopt_into(&self, tracer: &mut Tracer, parent: u32) -> u64 {
        for c in self.calls.borrow_mut().drain(..) {
            tracer.leaf_under(parent, c.name, c.start, c.end);
        }
        std::mem::take(&mut *self.checkpoint_bytes.borrow_mut())
    }
}

/// An application with a stopwatch around each trait method.
pub struct TimedApp<A> {
    /// The wrapped application (its state holds the computed answer).
    pub inner: A,
    log: AppLog,
}

impl<A> TimedApp<A> {
    /// Wrap `inner`, recording into `log`.
    pub fn new(inner: A, log: &AppLog) -> TimedApp<A> {
        TimedApp {
            inner,
            log: log.clone(),
        }
    }

    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut A) -> R) -> R {
        let start = Instant::now();
        let out = f(&mut self.inner);
        let end = Instant::now();
        self.log
            .calls
            .borrow_mut()
            .push(AppCall { name, start, end });
        out
    }
}

impl<A: SpmdApp> SpmdApp for TimedApp<A> {
    fn setup(&mut self, rank: Rank, vector: &PartitionVector) {
        self.timed("apps.setup", |a| a.setup(rank, vector));
    }

    fn num_cycles(&self) -> u64 {
        self.inner.num_cycles()
    }

    fn script(&self, rank: Rank, cycle: u64) -> Vec<Step> {
        let start = Instant::now();
        let out = self.inner.script(rank, cycle);
        let end = Instant::now();
        self.log.calls.borrow_mut().push(AppCall {
            name: "apps.script",
            start,
            end,
        });
        out
    }

    fn produce(&mut self, rank: Rank, cycle: u64, to: Rank) -> Bytes {
        self.timed("apps.produce", |a| a.produce(rank, cycle, to))
    }

    fn consume(&mut self, rank: Rank, cycle: u64, from: Rank, payload: &[u8]) {
        self.timed("apps.consume", |a| a.consume(rank, cycle, from, payload));
    }

    fn compute(&mut self, rank: Rank, cycle: u64, part: u32) -> (f64, OpKind) {
        self.timed("apps.compute", |a| a.compute(rank, cycle, part))
    }

    fn distribution_bytes(&self, rank: Rank) -> u64 {
        self.inner.distribution_bytes(rank)
    }

    fn checkpoint(&self, rank: Rank, cycle: u64) -> Option<Bytes> {
        let start = Instant::now();
        let out = self.inner.checkpoint(rank, cycle);
        let end = Instant::now();
        self.log.calls.borrow_mut().push(AppCall {
            name: "apps.checkpoint",
            start,
            end,
        });
        if let Some(blob) = &out {
            *self.log.checkpoint_bytes.borrow_mut() += blob.len() as u64;
        }
        out
    }
}
