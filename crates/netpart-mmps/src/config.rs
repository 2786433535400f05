//! MMPS protocol constants.
//!
//! MMPS is one fixed mechanism, so these are constants rather than
//! settings. They are public so a closed-form model of the transport can
//! read the same numbers the simulated service uses.

use netpart_sim::SimDur;

/// Bytes of MMPS header prepended to every fragment on the wire
/// (message id, fragment index/count, user tag, total length).
pub const HEADER_BYTES: u32 = 32;

/// Wire size of an acknowledgement datagram.
pub const ACK_BYTES: u32 = 32;

/// Base of a pair's first retransmission timeout, used until the pair
/// has a round-trip sample (then the adaptive estimate takes over, with
/// no ceiling; see [`rto_for`]).
pub const BASE_RTO: SimDur = SimDur::from_millis(100);

/// Additional first timeout per message byte (large messages take longer
/// to drain through a contended channel, so their first timeout scales).
pub const RTO_PER_BYTE: SimDur = SimDur::from_micros(60);

/// Retransmissions before a message fails with
/// [`MmpsEvent::MessageFailed`](crate::MmpsEvent::MessageFailed).
pub const MAX_RETRIES: u32 = 10;

/// Receiver-side data coercion cost per byte when the sender's and
/// receiver's data formats differ (paper `T_coerce`, a per-byte penalty).
pub const COERCE_PER_BYTE: SimDur = SimDur::from_nanos(250);

/// Fixed per-message coercion cost when formats differ.
pub const COERCE_PER_MSG: SimDur = SimDur::from_micros(150);

/// Floor of the adaptive RTO's variance term: once a pair has a
/// round-trip sample its timeout is `srtt + max(4·rttvar, MIN_RTO)`
/// (Jacobson/Karels with RFC 6298's granularity term), so a steady pair
/// still waits `MIN_RTO` past its smoothed round trip.
pub const MIN_RTO: SimDur = SimDur::from_millis(5);

/// Base spacing between fragments of a *retransmitted* message. The
/// original transmission bursts (that is what the paper's cost functions
/// measure), but retransmissions pace out — doubling with each retry —
/// so a congested or slow hop (e.g. an overflowing router buffer)
/// eventually sees fragments it can keep.
pub const RETX_FRAGMENT_SPACING: SimDur = SimDur::from_millis(2);

/// First retransmission timeout for a message of `bytes` payload bytes:
/// what a pair waits before it has a round-trip sample. Once it has one,
/// the adaptive estimate replaces this value, above or below it.
pub fn rto_for(bytes: u32) -> SimDur {
    BASE_RTO + SimDur::from_nanos(RTO_PER_BYTE.as_nanos() * bytes as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rto_scales_with_size() {
        let small = rto_for(100);
        let big = rto_for(10_000);
        assert!(big > small);
        // 10 kB at 60 µs/byte adds 600 ms on top of the base.
        assert_eq!(big.as_nanos() - BASE_RTO.as_nanos(), 10_000 * 60_000);
    }
}
