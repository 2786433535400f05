//! A per-class circuit breaker with counted half-open probing.
//!
//! The plan server keys breakers by *fingerprint class* (for calibrated
//! scenarios, the calibration fingerprint — the unit that fails
//! together when calibration breaks). The state machine is the classic
//! three-state breaker, made deterministic by counting requests instead
//! of consulting a clock:
//!
//! ```text
//!            N consecutive countable failures
//!   Closed ────────────────────────────────────▶ Open
//!     ▲                                           │ every `probe_every`-th
//!     │ probe succeeds                            ▼ arrival is admitted
//!     └──────────────────────────────────────  HalfOpen (probe in flight)
//!                    probe fails: back to Open, counter reset
//!          probe ends uncounted: back to Open, counter reset
//! ```
//!
//! "Uncounted" is any other end of the probe — its own deadline, an
//! error the breaker does not count, a coalesced leader's uncounted
//! error — reported by [`Breaker::release_probe`]; without it the class
//! would stay half-open, and degraded, for good.
//!
//! While Open, non-probe arrivals are served in degraded mode (stale
//! cache or fallback) without touching the failing path.

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive countable failures that open the circuit.
    pub failure_threshold: u32,
    /// While open, every `probe_every`-th arriving request for the class
    /// is admitted as a half-open probe (clamped to ≥ 1).
    pub probe_every: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            probe_every: 4,
        }
    }
}

/// One class's breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Closed {
        consecutive_failures: u32,
    },
    Open {
        /// Arrivals since the circuit opened (or since the last probe).
        arrivals: u32,
    },
    /// A probe is in flight; further arrivals stay degraded until it
    /// reports.
    HalfOpen,
}

/// What the breaker tells the server to do with an arriving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Circuit closed: take the normal path.
    Normal,
    /// Circuit open: serve degraded (stale cache or fallback).
    Degraded,
    /// Circuit open, and this request is the half-open probe: take the
    /// normal path and report the outcome.
    Probe,
}

/// A deterministic three-state circuit breaker for one class.
#[derive(Debug, Clone, Copy)]
pub struct Breaker {
    cfg: BreakerConfig,
    state: State,
}

impl Breaker {
    /// A closed breaker.
    pub fn new(cfg: BreakerConfig) -> Breaker {
        Breaker {
            cfg,
            state: State::Closed {
                consecutive_failures: 0,
            },
        }
    }

    /// Is the circuit currently open (including a probe in flight)?
    pub fn is_open(&self) -> bool {
        !matches!(self.state, State::Closed { .. })
    }

    /// Route an arriving request.
    pub fn admit(&mut self) -> Admission {
        match self.state {
            State::Closed { .. } => Admission::Normal,
            State::HalfOpen => Admission::Degraded,
            State::Open { arrivals } => {
                let arrivals = arrivals + 1;
                if arrivals >= self.cfg.probe_every.max(1) {
                    self.state = State::HalfOpen;
                    Admission::Probe
                } else {
                    self.state = State::Open { arrivals };
                    Admission::Degraded
                }
            }
        }
    }

    /// Report a normal-path (or probe) success. Returns `true` when this
    /// closed an open circuit.
    pub fn record_success(&mut self) -> bool {
        let was_open = self.is_open();
        self.state = State::Closed {
            consecutive_failures: 0,
        };
        was_open
    }

    /// Report a countable failure. Returns `true` when this opened the
    /// circuit (threshold crossed, or a failed probe re-opened it).
    pub fn record_failure(&mut self) -> bool {
        match self.state {
            State::Closed {
                consecutive_failures,
            } => {
                let n = consecutive_failures + 1;
                if n >= self.cfg.failure_threshold.max(1) {
                    self.state = State::Open { arrivals: 0 };
                    true
                } else {
                    self.state = State::Closed {
                        consecutive_failures: n,
                    };
                    false
                }
            }
            State::HalfOpen => {
                self.state = State::Open { arrivals: 0 };
                true
            }
            State::Open { .. } => false,
        }
    }

    /// Report that the half-open probe ended without a success or a
    /// countable failure: re-open with the arrival counter reset, so the
    /// `probe_every`-th next arrival probes again. No-op unless half-open.
    pub fn release_probe(&mut self) {
        if self.state == State::HalfOpen {
            self.state = State::Open { arrivals: 0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> Breaker {
        Breaker::new(BreakerConfig {
            failure_threshold: 3,
            probe_every: 4,
        })
    }

    #[test]
    fn opens_after_consecutive_failures_only() {
        let mut b = breaker();
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        b.record_success(); // streak broken
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert!(b.record_failure(), "third consecutive failure opens");
        assert!(b.is_open());
    }

    #[test]
    fn probes_every_nth_arrival_and_closes_on_success() {
        let mut b = breaker();
        for _ in 0..3 {
            b.record_failure();
        }
        assert_eq!(b.admit(), Admission::Degraded);
        assert_eq!(b.admit(), Admission::Degraded);
        assert_eq!(b.admit(), Admission::Degraded);
        assert_eq!(b.admit(), Admission::Probe, "4th arrival probes");
        // While the probe is in flight everyone else stays degraded.
        assert_eq!(b.admit(), Admission::Degraded);
        assert!(b.record_success(), "probe success closes the circuit");
        assert_eq!(b.admit(), Admission::Normal);
    }

    #[test]
    fn failed_probe_reopens_and_recounts() {
        let mut b = breaker();
        for _ in 0..3 {
            b.record_failure();
        }
        for _ in 0..3 {
            assert_eq!(b.admit(), Admission::Degraded);
        }
        assert_eq!(b.admit(), Admission::Probe);
        assert!(b.record_failure(), "failed probe re-opens");
        // The arrival counter restarted: three more degraded before the
        // next probe.
        for _ in 0..3 {
            assert_eq!(b.admit(), Admission::Degraded);
        }
        assert_eq!(b.admit(), Admission::Probe);
    }

    #[test]
    fn released_probe_reopens_and_recounts() {
        let mut b = breaker();
        b.release_probe();
        assert_eq!(b.admit(), Admission::Normal, "no-op while closed");
        for _ in 0..3 {
            b.record_failure();
        }
        for _ in 0..3 {
            assert_eq!(b.admit(), Admission::Degraded);
        }
        assert_eq!(b.admit(), Admission::Probe);
        b.release_probe();
        for _ in 0..3 {
            assert_eq!(b.admit(), Admission::Degraded);
        }
        assert_eq!(b.admit(), Admission::Probe, "a later arrival probes again");
    }
}
