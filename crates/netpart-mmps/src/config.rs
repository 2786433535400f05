//! MMPS configuration knobs.

use netpart_sim::SimDur;

/// Tuning parameters of the reliable messaging layer.
#[derive(Debug, Clone)]
pub struct MmpsConfig {
    /// Bytes of MMPS header prepended to every fragment on the wire
    /// (message id, fragment index/count, user tag, total length).
    pub header_bytes: u32,
    /// Wire size of an acknowledgement datagram.
    pub ack_bytes: u32,
    /// Base of a pair's first retransmission timeout, used until the
    /// pair has a round-trip sample (then the adaptive estimate takes
    /// over, with no ceiling; see [`MmpsConfig::rto_for`]).
    pub base_rto: SimDur,
    /// Additional first-timeout per message byte (large messages take
    /// longer to drain through a contended channel, so their first
    /// timeout scales).
    pub rto_per_byte: SimDur,
    /// Give up after this many retransmissions and surface
    /// [`MmpsEvent::MessageFailed`](crate::MmpsEvent::MessageFailed).
    pub max_retries: u32,
    /// Receiver-side data coercion cost per byte when the sender's and
    /// receiver's data formats differ (paper `T_coerce`, a per-byte
    /// penalty).
    pub coerce_per_byte: SimDur,
    /// Fixed per-message coercion cost when formats differ.
    pub coerce_per_msg: SimDur,
    /// Floor of the adaptive RTO's variance term: once a pair has a
    /// round-trip sample its timeout is `srtt + max(4·rttvar, min_rto)`
    /// (Jacobson/Karels with RFC 6298's granularity term), so a steady
    /// pair still waits `min_rto` past its smoothed round trip.
    pub min_rto: SimDur,
    /// Per-message delivery deadline: if set, a message still unacked this
    /// long after submission fails at the next retransmission check even
    /// if retries remain. Bounds failure-*detection* latency independently
    /// of the (backed-off, size-scaled) retry schedule. `None` (the
    /// default) preserves the pure retry-budget behaviour.
    pub give_up_after: Option<SimDur>,
    /// Base spacing between fragments of a *retransmitted* message. The
    /// original transmission bursts (that is what the paper's cost
    /// functions measure), but retransmissions pace out — doubling with
    /// each retry — so a congested or slow hop (e.g. an overflowing
    /// router buffer) eventually sees fragments it can keep.
    pub retx_fragment_spacing: SimDur,
}

impl Default for MmpsConfig {
    fn default() -> Self {
        MmpsConfig {
            header_bytes: 32,
            ack_bytes: 32,
            base_rto: SimDur::from_millis(100),
            rto_per_byte: SimDur::from_nanos(60_000), // 60 µs per byte
            max_retries: 10,
            coerce_per_byte: SimDur::from_nanos(250), // 0.25 µs per byte
            coerce_per_msg: SimDur::from_micros(150),
            min_rto: SimDur::from_millis(5),
            give_up_after: None,
            retx_fragment_spacing: SimDur::from_millis(2),
        }
    }
}

impl MmpsConfig {
    /// First retransmission timeout for a message of `bytes` payload
    /// bytes: what a pair waits before it has a round-trip sample. Once
    /// it has one, the adaptive estimate replaces this value, above or
    /// below it.
    pub fn rto_for(&self, bytes: u32) -> SimDur {
        self.base_rto + SimDur::from_nanos(self.rto_per_byte.as_nanos() * bytes as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rto_scales_with_size() {
        let cfg = MmpsConfig::default();
        let small = cfg.rto_for(100);
        let big = cfg.rto_for(10_000);
        assert!(big > small);
        // 10 kB at 60 µs/byte adds 600 ms on top of the base.
        assert_eq!(big.as_nanos() - cfg.base_rto.as_nanos(), 10_000 * 60_000);
    }
}
