//! Shared-medium network segments (ethernet channels).
//!
//! The essential property of a segment in the paper's model is *private
//! bandwidth*: every frame sent by any station on the segment serializes
//! through one shared channel. The paper's cost functions
//! `c1 + c2·p + b·(c3 + c4·p)` are linear in the number of communicating
//! processors `p`, because on its lightly-loaded 1994 testbed "offered
//! load is linear in p on ethernet" (§3).
//!
//! The model here is a FIFO channel with:
//! * transmission time = frame bytes × 8 / bandwidth,
//! * a fixed inter-frame gap (9.6 µs at 10 Mbit/s),
//! * a contention penalty per frame that grows with the number of frames
//!   already queued, standing in for CSMA/CD backoff, and
//! * optional random frame loss.
//!
//! The contention penalty makes this channel *not* linear in `p`. A frame
//! pays `contention_per_queued` for each frame already queued, and a
//! bulk-synchronous exchange queues all `p` ranks' frames at once, so the
//! queue holds O(p) frames, each pays O(p), and the exchange costs O(p²).
//! ROADMAP item 1 replaces the law with one that stays linear in `p`.

use std::collections::VecDeque;

use crate::slab::DgramHandle;
use crate::time::{SimDur, SimTime};

/// Static description of a segment.
#[derive(Debug, Clone)]
pub struct SegmentSpec {
    /// Channel bandwidth in bits per second (classic ethernet: 1.0e7).
    pub bandwidth_bps: f64,
    /// Idle time enforced between consecutive frames.
    pub inter_frame_gap: SimDur,
    /// Extra access delay charged per frame per already-queued frame,
    /// modelling expected CSMA/CD backoff under contention.
    pub contention_per_queued: SimDur,
    /// Probability that a frame is silently lost on this channel.
    pub loss_probability: f64,
}

impl SegmentSpec {
    /// A lightly-loaded 10 Mbit/s ethernet, the paper's testbed medium.
    pub fn ethernet_10mbps() -> SegmentSpec {
        SegmentSpec {
            bandwidth_bps: 10.0e6,
            inter_frame_gap: SimDur::from_nanos(9_600),
            contention_per_queued: SimDur::from_micros(5),
            loss_probability: 0.0,
        }
    }

    /// A 100 Mbit/s FDDI ring — the paper's other example medium ("all
    /// segments are ethernet-connected or FDDI-connected"). Token-ring
    /// access has no collisions, so the contention penalty is zero and
    /// the inter-frame gap is the token rotation slice.
    pub fn fddi_100mbps() -> SegmentSpec {
        SegmentSpec {
            bandwidth_bps: 100.0e6,
            inter_frame_gap: SimDur::from_nanos(2_000),
            contention_per_queued: SimDur::ZERO,
            loss_probability: 0.0,
        }
    }

    /// Time to clock `bytes` onto the wire.
    #[inline]
    pub fn tx_time(&self, bytes: u32) -> SimDur {
        SimDur::from_secs_f64(bytes as f64 * 8.0 / self.bandwidth_bps)
    }
}

/// Runtime state of one segment.
#[derive(Debug)]
pub(crate) struct Segment {
    /// The segment as built; never changed by a run, so a reset can
    /// return to it.
    pub(crate) spec: SegmentSpec,
    /// The channel-loss probability outside loss bursts: the spec's,
    /// until [`Network::set_loss_probability`](crate::Network::set_loss_probability)
    /// moves it.
    pub(crate) loss: f64,
    /// Frames waiting for the channel, FIFO. Slab handles, not packets:
    /// the payload lives in the network's datagram slab.
    pub(crate) queue: VecDeque<DgramHandle>,
    /// Whether a frame is currently on the wire.
    pub(crate) busy: bool,
    /// Cumulative time the channel has spent transmitting (for utilization
    /// statistics).
    pub(crate) busy_time: SimDur,
    /// Frames fully transmitted on this segment.
    pub(crate) frames_sent: u64,
    /// Payload+overhead bytes transmitted.
    pub(crate) bytes_sent: u64,
    /// Injected loss burst: overrides `loss` until
    /// `burst_until`. Overlapping bursts merge via `max` of the end time
    /// (the later burst's probability wins from its start).
    pub(crate) burst_loss: f64,
    /// End of the current loss-burst window (exclusive).
    pub(crate) burst_until: SimTime,
    /// Injected corruption burst: probability that a frame transmitted on
    /// this segment has its bits mangled in flight, until `corrupt_until`.
    /// Outside a burst the probability is zero (the spec has no base
    /// corruption rate), so runs without corruption faults never draw from
    /// the RNG for it.
    pub(crate) corrupt_prob: f64,
    /// End of the current corruption-burst window (exclusive).
    pub(crate) corrupt_until: SimTime,
}

impl Segment {
    pub(crate) fn new(spec: SegmentSpec) -> Segment {
        // Pre-size for a typical fragment train so steady-state traffic
        // never grows the ring buffer (it is recycled, never shrunk).
        Segment::initial(spec, VecDeque::with_capacity(32))
    }

    /// Return to the just-built state, keeping the queue's buffer.
    pub(crate) fn reset(&mut self) {
        let mut queue = std::mem::take(&mut self.queue);
        queue.clear();
        *self = Segment::initial(self.spec.clone(), queue);
    }

    /// The just-built state of a segment over `spec`, queueing into the
    /// empty `queue`: the one definition [`new`](Segment::new) and
    /// [`reset`](Segment::reset) share.
    fn initial(spec: SegmentSpec, queue: VecDeque<DgramHandle>) -> Segment {
        Segment {
            loss: spec.loss_probability,
            spec,
            queue,
            busy: false,
            busy_time: SimDur::ZERO,
            frames_sent: 0,
            bytes_sent: 0,
            burst_loss: 0.0,
            burst_until: SimTime::ZERO,
            corrupt_prob: 0.0,
            corrupt_until: SimTime::ZERO,
        }
    }

    /// The channel-loss probability in effect at `now`: `loss`,
    /// unless an injected loss burst is active.
    #[inline]
    pub(crate) fn effective_loss(&self, now: SimTime) -> f64 {
        if now < self.burst_until {
            self.burst_loss
        } else {
            self.loss
        }
    }

    /// The frame-corruption probability in effect at `now`: zero unless an
    /// injected corruption burst is active.
    #[inline]
    pub(crate) fn effective_corrupt(&self, now: SimTime) -> f64 {
        if now < self.corrupt_until {
            self.corrupt_prob
        } else {
            0.0
        }
    }

    /// Access delay the next frame must pay before its transmission starts,
    /// given the current queue depth (the frame itself is already popped):
    /// `inter_frame_gap + contention_per_queued · q` for `q` frames still
    /// queued. All arithmetic is integer nanoseconds, so the delay is
    /// deterministic across platforms.
    pub(crate) fn access_delay(&self) -> SimDur {
        let q = self.queue.len() as u64;
        self.spec.inter_frame_gap
            + SimDur::from_nanos(self.spec.contention_per_queued.as_nanos() * q)
    }
}

/// Utilization snapshot of a segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentStats {
    /// Fraction of elapsed time the channel was transmitting.
    pub utilization: f64,
    /// Frames fully transmitted.
    pub frames_sent: u64,
    /// Bytes (incl. frame overhead) transmitted.
    pub bytes_sent: u64,
}

impl Segment {
    pub(crate) fn stats(&self, now: SimTime) -> SegmentStats {
        let elapsed = now.as_secs_f64();
        SegmentStats {
            utilization: if elapsed > 0.0 {
                self.busy_time.as_secs_f64() / elapsed
            } else {
                0.0
            },
            frames_sent: self.frames_sent,
            bytes_sent: self.bytes_sent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_matches_bandwidth() {
        let spec = SegmentSpec::ethernet_10mbps();
        // 1250 bytes at 10 Mbit/s = 1 ms.
        assert_eq!(spec.tx_time(1250), SimDur::from_millis(1));
        assert_eq!(spec.tx_time(0), SimDur::ZERO);
    }

    #[test]
    fn fddi_is_ten_times_faster() {
        let eth = SegmentSpec::ethernet_10mbps();
        let fddi = SegmentSpec::fddi_100mbps();
        assert_eq!(
            eth.tx_time(5000).as_nanos(),
            fddi.tx_time(5000).as_nanos() * 10
        );
        assert_eq!(fddi.contention_per_queued, SimDur::ZERO);
    }

    #[test]
    fn access_delay_grows_with_queue() {
        // The channel's access law, pinned exactly: the gap plus one
        // contention penalty per frame already queued, linear in q.
        for spec in [SegmentSpec::ethernet_10mbps(), SegmentSpec::fddi_100mbps()] {
            let mut seg = Segment::new(spec.clone());
            for q in 0..=64u64 {
                assert_eq!(
                    seg.access_delay(),
                    spec.inter_frame_gap
                        + SimDur::from_nanos(q * spec.contention_per_queued.as_nanos()),
                    "q = {q}"
                );
                seg.queue.push_back(DgramHandle(q as u32));
            }
        }
        let mut seg = Segment::new(SegmentSpec::ethernet_10mbps());
        let idle = seg.access_delay();
        for k in 0..4 {
            seg.queue.push_back(DgramHandle(k));
        }
        assert!(seg.access_delay() > idle);
    }

    #[test]
    fn stats_report_utilization() {
        let mut seg = Segment::new(SegmentSpec::ethernet_10mbps());
        seg.busy_time = SimDur::from_millis(5);
        seg.frames_sent = 3;
        seg.bytes_sent = 4500;
        let s = seg.stats(SimTime(10_000_000)); // 10 ms elapsed
        assert!((s.utilization - 0.5).abs() < 1e-9);
        assert_eq!(s.frames_sent, 3);
        assert_eq!(s.bytes_sent, 4500);
    }
}
