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

    /// Build a span from a floating point number of seconds, rounded to
    /// the nearest nanosecond (halves away from zero).
    ///
    /// Negative or non-finite inputs clamp to zero; durations cannot be
    /// negative in the simulator.
    #[inline]
    pub fn from_secs_f64(s: f64) -> SimDur {
        if !s.is_finite() || s <= 0.0 {
            return SimDur(0);
        }
        SimDur(round_to_u64(s * 1.0e9))
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

/// `x.round() as u64` for `x >= 0`, without `round`, which baseline
/// x86-64 reaches through an out-of-line call on every packet and compute
/// block. Below 2^52 the fraction `x - trunc(x)` is exact, so comparing it
/// with one half rounds exactly half away from zero; from 2^52 on every
/// `f64` is an integer and the cast (saturating at 2^64) is the answer.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    const EXACT: f64 = (1u64 << 52) as f64;
    if x >= EXACT {
        return x as u64;
    }
    let i = x as u64;
    i + u64::from(x - i as f64 >= 0.5)
}

/// A duration that depends only on a frame's size, served from the last
/// [`MEMO_SIZES`] sizes it computed. The simulator charges a per-byte host
/// or wire time on every frame, through `f64` arithmetic and
/// [`SimDur::from_secs_f64`]'s rounding, and a run sends few distinct
/// sizes: a flood repeats one, a fragment train cycles through full
/// fragments, its last fragment and acks. A hit returns the value the
/// formula returned for that size, so a served duration is bit-identical
/// to a computed one by construction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SizeMemo {
    /// The sizes computed last; `u64::MAX` (no `u32` size) marks an empty
    /// entry.
    sizes: [u64; MEMO_SIZES],
    durs: [SimDur; MEMO_SIZES],
    /// The entry the next miss overwrites, the oldest.
    next: usize,
}

/// Sizes a [`SizeMemo`] holds. A `calib256` grid point cycles through
/// three per segment, router and processor type; with two entries a
/// quarter of the lookups missed.
const MEMO_SIZES: usize = 4;

impl SizeMemo {
    /// A memo that has computed nothing yet.
    pub(crate) const EMPTY: SizeMemo = SizeMemo {
        sizes: [u64::MAX; MEMO_SIZES],
        durs: [SimDur::ZERO; MEMO_SIZES],
        next: 0,
    };

    /// `formula(size)`, computed only when `size` is not among the sizes
    /// held.
    #[inline]
    pub(crate) fn get(&mut self, size: u32, formula: impl FnOnce(u32) -> SimDur) -> SimDur {
        let key = u64::from(size);
        if let Some(i) = self.sizes.iter().position(|&s| s == key) {
            return self.durs[i];
        }
        let d = formula(size);
        self.sizes[self.next] = key;
        self.durs[self.next] = d;
        self.next = (self.next + 1) % MEMO_SIZES;
        d
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
    use proptest::prelude::*;

    #[test]
    fn rounding_matches_round_at_the_edges() {
        let two52 = (1u64 << 52) as f64;
        for x in [
            0.0,
            0.5,
            0.49999999999999994,
            1.5,
            2.5,
            two52 - 0.5,
            two52 - 1.5,
            two52,
            two52 + 1.0,
            two52 * 2.0 + 2.0,
            1.8446744073709552e19, // 2^64
            f64::MAX,
        ] {
            assert_eq!(round_to_u64(x), x.round() as u64, "{x}");
        }
        assert_eq!(round_to_u64(0.5), 1);
        assert_eq!(round_to_u64(0.49999999999999994), 0);
        assert_eq!(round_to_u64(two52 - 0.5), 1 << 52);
        assert_eq!(round_to_u64(1.8446744073709552e19), u64::MAX);
    }

    proptest! {
        /// Exactly `round` over random bit patterns (every non-negative
        /// finite `f64` is reachable) and over the dense range of halves
        /// and quarters below 2^53, where rounding has work to do.
        #[test]
        fn rounding_matches_round(bits in any::<u64>(), m in 0u64..1 << 55, shift in 0u32..4) {
            let x = f64::from_bits(bits >> 1);
            if x.is_finite() {
                prop_assert_eq!(round_to_u64(x), x.round() as u64);
            }
            let y = m as f64 / f64::from(1u32 << shift);
            prop_assert_eq!(round_to_u64(y), y.round() as u64);
            let s = y * 1e-9;
            prop_assert_eq!(SimDur::from_secs_f64(s).0, (s * 1.0e9).round() as u64);
        }
    }

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
