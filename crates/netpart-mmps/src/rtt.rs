//! Adaptive retransmission timeout (Jacobson/Karels, RFC 6298).
//!
//! This estimator tracks the smoothed round-trip time and its variation
//! per (sender, destination) pair and yields `srtt + max(4·rttvar,
//! MIN_RTO)`: RFC 6298's `srtt + max(G, K·rttvar)` with
//! [`MIN_RTO`](crate::MIN_RTO) as `G`. The floor matters on a
//! bulk-synchronous channel, where every cycle's round trip is nearly the
//! same: `rttvar` decays until the timeout sits a millisecond above
//! `srtt`, and the first queueing excursion would fire it for a message
//! that was never lost.
//!
//! The static size-scaled RTO, [`rto_for`](crate::rto_for), is a pair's
//! *first* timeout, used until the pair has a sample. It is not a
//! ceiling: many stations with large messages on one segment can need a
//! round trip above it, and clamping there re-sends what is still queued.
//!
//! Karn's rule applies: samples from retransmitted messages are discarded
//! (the ack cannot be attributed to a specific transmission).

use netpart_sim::SimDur;

const ALPHA: f64 = 1.0 / 8.0; // srtt gain
const BETA: f64 = 1.0 / 4.0; // rttvar gain

/// Per-destination RTT estimator.
#[derive(Debug, Clone, Copy, Default)]
pub struct RttEstimator {
    /// Smoothed RTT in seconds (0 = no sample yet).
    srtt: f64,
    /// RTT variation in seconds.
    rttvar: f64,
    /// Samples folded in.
    samples: u64,
}

impl RttEstimator {
    /// Fold in one round-trip sample (send → ack).
    pub fn observe(&mut self, rtt: SimDur) {
        let r = rtt.as_secs_f64();
        if self.samples == 0 {
            self.srtt = r;
            self.rttvar = r / 2.0;
        } else {
            self.rttvar = (1.0 - BETA) * self.rttvar + BETA * (self.srtt - r).abs();
            self.srtt = (1.0 - ALPHA) * self.srtt + ALPHA * r;
        }
        self.samples += 1;
    }

    /// Number of samples folded in.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Current smoothed RTT, if any samples exist.
    pub fn srtt(&self) -> Option<SimDur> {
        (self.samples > 0).then(|| SimDur::from_secs_f64(self.srtt))
    }

    /// The adaptive timeout `srtt + max(4·rttvar, floor)`, once a sample
    /// exists.
    pub fn rto(&self, floor: SimDur) -> Option<SimDur> {
        (self.samples > 0).then(|| {
            SimDur::from_secs_f64(self.srtt + (4.0 * self.rttvar).max(floor.as_secs_f64()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes() {
        let mut e = RttEstimator::default();
        assert_eq!(e.srtt(), None);
        e.observe(SimDur::from_millis(10));
        assert_eq!(e.samples(), 1);
        let srtt = e.srtt().unwrap();
        assert_eq!(srtt, SimDur::from_millis(10));
        // rto = 10 + 4·5 = 30 ms
        assert_eq!(e.rto(SimDur::from_millis(1)), Some(SimDur::from_millis(30)));
    }

    #[test]
    fn converges_on_stable_rtt() {
        let mut e = RttEstimator::default();
        for _ in 0..100 {
            e.observe(SimDur::from_millis(20));
        }
        let srtt = e.srtt().unwrap().as_millis_f64();
        assert!((srtt - 20.0).abs() < 0.01);
        // Variation decays toward zero, so rto approaches srtt + floor.
        let rto = e.rto(SimDur::from_millis(1)).unwrap();
        assert!(rto.as_millis_f64() < 25.0, "{rto}");
        assert!(rto >= SimDur::from_millis(21), "{rto}");
    }

    #[test]
    fn spikes_raise_variation() {
        let mut e = RttEstimator::default();
        for _ in 0..20 {
            e.observe(SimDur::from_millis(10));
        }
        let calm = e.rto(SimDur::from_millis(1));
        e.observe(SimDur::from_millis(200));
        let spiked = e.rto(SimDur::from_millis(1));
        assert!(spiked > calm, "{spiked:?} vs {calm:?}");
    }

    #[test]
    fn no_timeout_before_the_first_sample_and_no_ceiling_after() {
        // No samples → no adaptive value: MMPS falls back to the
        // size-scaled first timeout.
        assert_eq!(RttEstimator::default().rto(SimDur::from_millis(5)), None);
        // A tiny round trip: the variance term (4 · 0.5 µs) is floored.
        let mut e = RttEstimator::default();
        e.observe(SimDur::from_micros(1));
        assert_eq!(
            e.rto(SimDur::from_millis(5)),
            Some(SimDur::from_micros(5_001))
        );
        // A long round trip is not clamped to anything: 5 s + 4 · 2.5 s.
        let mut e = RttEstimator::default();
        e.observe(SimDur::from_millis(5_000));
        assert_eq!(
            e.rto(SimDur::from_millis(5)),
            Some(SimDur::from_millis(15_000))
        );
    }

    #[test]
    fn steady_samples_give_srtt_plus_floor() {
        // 100 equal samples decay rttvar to ~0, far below the floor, so
        // the timeout is exactly srtt + MIN_RTO.
        let mut e = RttEstimator::default();
        for _ in 0..100 {
            e.observe(SimDur::from_millis(12));
        }
        assert_eq!(e.srtt(), Some(SimDur::from_millis(12)));
        assert_eq!(e.rto(SimDur::from_millis(5)), Some(SimDur::from_millis(17)));
    }
}
