//! Cooperative deadlines.
//!
//! Long-running planning work (a calibration sweep, the partitioner's
//! fill loop) cannot be preempted — Rust threads have no safe kill — so
//! cancellation is *cooperative*: the caller hands the work a [`Budget`]
//! and the work polls [`Budget::check`] at natural checkpoints. An
//! expired or revoked budget surfaces as the typed
//! [`NetpartError::PlanDeadlineExceeded`] instead of burning the worker.

use crate::error::NetpartError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cooperative wall-clock deadline plus a revocation flag.
///
/// Cloning shares the revocation flag (an `Arc`), so a server can hand a
/// clone to a worker and later [`cancel`](Budget::cancel) it from
/// another thread; the worker observes the revocation at its next
/// [`check`](Budget::check).
#[derive(Debug, Clone)]
pub struct Budget {
    start: Instant,
    /// Wall-clock budget in milliseconds; `f64::INFINITY` = unlimited.
    budget_ms: f64,
    cancelled: Arc<AtomicBool>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget that never expires (but can still be cancelled).
    pub fn unlimited() -> Budget {
        Budget {
            start: Instant::now(),
            budget_ms: f64::INFINITY,
            cancelled: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A budget of `ms` wall-clock milliseconds starting now.
    pub fn deadline_ms(ms: f64) -> Budget {
        Budget {
            start: Instant::now(),
            budget_ms: ms.max(0.0),
            cancelled: Arc::new(AtomicBool::new(false)),
        }
    }

    /// True when no wall-clock deadline was set.
    pub fn is_unlimited(&self) -> bool {
        self.budget_ms.is_infinite()
    }

    /// Milliseconds elapsed since the budget started.
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    /// Milliseconds remaining (`INFINITY` when unlimited, `0` when
    /// expired or cancelled).
    pub fn remaining_ms(&self) -> f64 {
        if self.is_cancelled() {
            return 0.0;
        }
        if self.is_unlimited() {
            return f64::INFINITY;
        }
        (self.budget_ms - self.elapsed_ms()).max(0.0)
    }

    /// Revoke the budget: every holder of a clone fails its next
    /// [`check`](Budget::check).
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// True once [`cancel`](Budget::cancel) has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// The cooperative checkpoint: `Ok(())` while the budget holds,
    /// [`NetpartError::PlanDeadlineExceeded`] once it is expired or
    /// revoked. A revoked budget reports `budget_ms: 0`.
    pub fn check(&self) -> Result<(), NetpartError> {
        if self.is_cancelled() {
            return Err(NetpartError::PlanDeadlineExceeded {
                elapsed_ms: self.elapsed_ms().round() as u64,
                budget_ms: 0,
            });
        }
        if self.is_unlimited() {
            return Ok(());
        }
        let elapsed = self.elapsed_ms();
        if elapsed > self.budget_ms {
            return Err(NetpartError::PlanDeadlineExceeded {
                elapsed_ms: elapsed.round() as u64,
                budget_ms: self.budget_ms.round() as u64,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_passes_check() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert!(b.check().is_ok());
        assert_eq!(b.remaining_ms(), f64::INFINITY);
    }

    #[test]
    fn zero_budget_expires_immediately() {
        let b = Budget::deadline_ms(0.0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        match b.check() {
            Err(NetpartError::PlanDeadlineExceeded { budget_ms, .. }) => {
                assert_eq!(budget_ms, 0)
            }
            other => panic!("expected PlanDeadlineExceeded, got {other:?}"),
        }
        assert_eq!(b.remaining_ms(), 0.0);
    }

    #[test]
    fn cancel_propagates_through_clones() {
        let b = Budget::unlimited();
        let c = b.clone();
        assert!(c.check().is_ok());
        b.cancel();
        assert!(c.is_cancelled());
        match c.check() {
            Err(NetpartError::PlanDeadlineExceeded { budget_ms, .. }) => {
                assert_eq!(budget_ms, 0)
            }
            other => panic!("expected PlanDeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn budget_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Budget>();
    }
}
