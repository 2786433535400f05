//! Simulated time.
//!
//! The simulator tracks time as an integer number of nanoseconds since the
//! start of the run. Nanosecond resolution is fine enough to express the
//! sub-microsecond per-byte costs of a 10 Mbit/s ethernet (0.8 µs/byte)
//! while a `u64` still covers ~584 years of simulated time, so overflow is
//! not a practical concern.
//!
//! Two newtypes keep instants and durations from being confused:
//! [`SimTime`] is a point on the simulated clock and [`SimDur`] is a span.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// An instant on the simulated clock, in nanoseconds since the run started.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDur(pub u64);

impl SimTime {
    /// The instant at which every simulation starts.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since the start of the run.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in milliseconds (the paper's unit).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1.0e6
    }

    /// This instant expressed in seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1.0e9
    }

    /// The span from `earlier` to `self`, saturating at zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDur {
        SimDur(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDur {
    /// A zero-length span.
    pub const ZERO: SimDur = SimDur(0);

    /// Build a span from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> SimDur {
        SimDur(ns)
    }

    /// Build a span from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> SimDur {
        SimDur(us * 1_000)
    }

    /// Build a span from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> SimDur {
        SimDur(ms * 1_000_000)
    }

    /// Build a span from a floating point number of seconds.
    ///
    /// Negative or non-finite inputs clamp to zero; durations cannot be
    /// negative in the simulator.
    #[inline]
    pub fn from_secs_f64(s: f64) -> SimDur {
        if !s.is_finite() || s <= 0.0 {
            return SimDur(0);
        }
        SimDur((s * 1.0e9).round() as u64)
    }

    /// Build a span from a floating point number of milliseconds.
    #[inline]
    pub fn from_millis_f64(ms: f64) -> SimDur {
        SimDur::from_secs_f64(ms / 1.0e3)
    }

    /// Nanoseconds in this span.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span expressed in milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1.0e6
    }

    /// This span expressed in seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1.0e9
    }

    /// Saturating multiplication by an integer factor.
    #[inline]
    pub fn saturating_mul(self, k: u64) -> SimDur {
        SimDur(self.0.saturating_mul(k))
    }
}

impl Add<SimDur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDur) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDur> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}

impl Add for SimDur {
    type Output = SimDur;
    #[inline]
    fn add(self, rhs: SimDur) -> SimDur {
        SimDur(self.0 + rhs.0)
    }
}

impl AddAssign for SimDur {
    #[inline]
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDur {
    type Output = SimDur;
    #[inline]
    fn sub(self, rhs: SimDur) -> SimDur {
        SimDur(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDur {
    type Output = SimDur;
    #[inline]
    fn mul(self, rhs: u64) -> SimDur {
        SimDur(self.0 * rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}ms", self.as_millis_f64())
    }
}

impl fmt::Debug for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::ZERO + SimDur::from_millis(5) + SimDur::from_micros(250);
        assert_eq!(t.as_nanos(), 5_250_000);
        assert!((t.as_millis_f64() - 5.25).abs() < 1e-12);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime(100);
        let b = SimTime(40);
        assert_eq!(a.since(b).as_nanos(), 60);
        assert_eq!(b.since(a).as_nanos(), 0);
    }

    #[test]
    fn from_secs_f64_clamps_bad_inputs() {
        assert_eq!(SimDur::from_secs_f64(-1.0).as_nanos(), 0);
        assert_eq!(SimDur::from_secs_f64(f64::NAN).as_nanos(), 0);
        assert_eq!(SimDur::from_secs_f64(f64::INFINITY).as_nanos(), 0);
        assert_eq!(SimDur::from_secs_f64(1.5e-9).as_nanos(), 2); // rounds
    }

    #[test]
    fn duration_ordering_and_mul() {
        assert!(SimDur::from_micros(10) < SimDur::from_millis(1));
        assert_eq!(SimDur::from_micros(10) * 3, SimDur::from_micros(30));
        assert_eq!(
            SimDur::from_millis(1).saturating_mul(u64::MAX),
            SimDur(u64::MAX)
        );
    }

    #[test]
    fn max_picks_later_instant() {
        assert_eq!(SimTime(5).max(SimTime(9)), SimTime(9));
        assert_eq!(SimTime(9).max(SimTime(5)), SimTime(9));
    }
}
