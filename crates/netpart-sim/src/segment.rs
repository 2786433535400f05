//! Shared-medium network segments (ethernet channels).
//!
//! The essential property of a segment in the paper's model is *private
//! bandwidth*: every frame sent by any station on the segment serializes
//! through one shared channel. In the lightly-loaded regime the paper's
//! 1994 testbed operated in, that serialization makes the offered load —
//! and hence the measured per-cycle communication cost — linear in the
//! number of communicating processors `p`, which is the shape the paper's
//! cost functions `c1 + c2·p + b·(c3 + c4·p)` assume. The linearity is a
//! property of that regime, not of shared media in general: past the knee
//! of the utilization curve a real channel saturates, queues grow
//! superlinearly, and frames are marked or dropped. The optional
//! [`CongestionSpec`] models that regime; with it left `None` (the
//! default, and the paper-testbed configuration) the channel can never
//! saturate and behaves exactly as before.
//!
//! The model here is a FIFO channel with:
//! * transmission time = frame bytes × 8 / bandwidth,
//! * a fixed inter-frame gap (9.6 µs at 10 Mbit/s),
//! * a contention penalty per frame that grows with the number of frames
//!   already queued, standing in for CSMA/CD backoff,
//! * optional random frame loss, and
//! * an optional congestion model ([`CongestionSpec`]): a bounded
//!   transmit queue with an overflow policy ([`OverflowPolicy::Drop`]
//!   tail-drops, [`OverflowPolicy::Mark`] sets an ECN-style congestion
//!   bit on frames that transit a queue deeper than the knee — and still
//!   tail-drops at the hard bound), plus a saturating access-delay curve
//!   that replaces the linear contention term above `knee_queue`.

use std::collections::VecDeque;

use crate::slab::DgramHandle;
use crate::time::{SimDur, SimTime};

/// What a congested segment does with frames once its bounded transmit
/// queue passes the knee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Tail-drop at the hard queue bound: the frame is silently lost and
    /// surfaced as `DropReason::QueueOverflow`. The MMPS retry budget must
    /// absorb the loss.
    Drop,
    /// ECN-style marking: frames that transit a queue deeper than
    /// `knee_queue` carry a congestion bit to the receiver (RED-style
    /// early notification), letting window-based senders back off before
    /// loss. The hard bound still tail-drops — marking alone cannot bound
    /// the queue against a non-reacting sender.
    Mark,
}

/// Opt-in congestion model for a segment. `None` on [`SegmentSpec`] (the
/// default and both stock constructors) keeps the original unbounded,
/// linear-contention channel byte-for-byte.
///
/// Knee semantics: with `q` frames already queued at enqueue/access time,
/// * `q < knee_queue` — linear regime, identical to the uncongested model;
/// * `q >= knee_queue` — saturated regime: under [`OverflowPolicy::Mark`]
///   the frame is marked, and the access delay follows a saturating curve
///   `linear(knee) + saturated_penalty · excess / (excess + knee)` instead
///   of growing linearly without bound;
/// * `q >= queue_frames` — the hard bound: the frame is tail-dropped under
///   either policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CongestionSpec {
    /// Hard bound on queued frames; arrivals beyond it are tail-dropped.
    pub queue_frames: usize,
    /// What happens between the knee and the hard bound.
    pub overflow: OverflowPolicy,
    /// Queue depth at which the channel leaves the linear regime.
    pub knee_queue: usize,
    /// Asymptotic extra access delay at full saturation; the saturating
    /// curve approaches (never exceeds) this bound as the queue fills.
    pub saturated_penalty: SimDur,
}

impl CongestionSpec {
    /// A mark-capable congestion model sized for a 10 Mbit/s ethernet:
    /// knee at 8 queued frames, hard bound at 64, half a millisecond of
    /// asymptotic saturation penalty.
    pub fn ethernet_default(overflow: OverflowPolicy) -> CongestionSpec {
        CongestionSpec {
            queue_frames: 64,
            overflow,
            knee_queue: 8,
            saturated_penalty: SimDur::from_micros(500),
        }
    }
}

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
    /// Opt-in congestion model. `None` (the default) leaves the channel
    /// unbounded and linear — the paper-testbed behaviour.
    pub congestion: Option<CongestionSpec>,
}

impl SegmentSpec {
    /// A lightly-loaded 10 Mbit/s ethernet, the paper's testbed medium.
    pub fn ethernet_10mbps() -> SegmentSpec {
        SegmentSpec {
            bandwidth_bps: 10.0e6,
            inter_frame_gap: SimDur::from_nanos(9_600),
            contention_per_queued: SimDur::from_micros(5),
            loss_probability: 0.0,
            congestion: None,
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
            congestion: None,
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
    /// Frames that received an ECN-style congestion mark on this segment
    /// (only ever non-zero with a `Mark`-policy [`CongestionSpec`]).
    pub(crate) frames_marked: u64,
    /// Frames tail-dropped at the bounded queue's hard limit (only ever
    /// non-zero with a [`CongestionSpec`]).
    pub(crate) frames_overflowed: u64,
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
            frames_marked: 0,
            frames_overflowed: 0,
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
    /// given the current queue depth (the frame itself is already popped).
    ///
    /// Without a [`CongestionSpec`] the delay is linear in queue depth.
    /// With one, depths past `knee_queue` switch to a saturating curve:
    /// the linear term is frozen at the knee and an excess term
    /// `saturated_penalty · e / (e + knee)` (with `e` frames past the
    /// knee) approaches the configured asymptote instead of growing
    /// without bound. All arithmetic is integer nanoseconds, so the curve
    /// is deterministic across platforms.
    pub(crate) fn access_delay(&self) -> SimDur {
        let q = self.queue.len() as u64;
        if let Some(c) = &self.spec.congestion {
            let knee = c.knee_queue as u64;
            if q > knee {
                let excess = q - knee;
                let denom = excess + knee.max(1);
                let sat = (c.saturated_penalty.as_nanos() as u128 * excess as u128 / denom as u128)
                    as u64;
                return self.spec.inter_frame_gap
                    + SimDur::from_nanos(self.spec.contention_per_queued.as_nanos() * knee + sat);
            }
        }
        self.spec
            .inter_frame_gap
            .saturating_mul(1)
            .max(SimDur::ZERO)
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
    /// Frames that received an ECN-style congestion mark (zero unless a
    /// `Mark`-policy [`CongestionSpec`] is configured).
    pub frames_marked: u64,
    /// Frames tail-dropped at the bounded queue's hard limit (zero unless
    /// a [`CongestionSpec`] is configured).
    pub frames_overflowed: u64,
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
            frames_marked: self.frames_marked,
            frames_overflowed: self.frames_overflowed,
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
        let mut seg = Segment::new(SegmentSpec::ethernet_10mbps());
        let idle = seg.access_delay();
        for k in 0..4 {
            seg.queue.push_back(DgramHandle(k));
        }
        assert!(seg.access_delay() > idle);
    }

    #[test]
    fn access_delay_saturates_above_knee() {
        let mut spec = SegmentSpec::ethernet_10mbps();
        spec.congestion = Some(CongestionSpec {
            queue_frames: 64,
            overflow: OverflowPolicy::Mark,
            knee_queue: 4,
            saturated_penalty: SimDur::from_micros(500),
        });
        let mut seg = Segment::new(spec.clone());
        let mut uncongested = Segment::new(SegmentSpec::ethernet_10mbps());
        // Below the knee the two models agree exactly.
        for k in 0..4 {
            assert_eq!(seg.access_delay(), uncongested.access_delay());
            seg.queue.push_back(DgramHandle(k));
            uncongested.queue.push_back(DgramHandle(k));
        }
        assert_eq!(seg.access_delay(), uncongested.access_delay());
        // Past the knee the congested delay grows, but stays bounded by
        // linear(knee) + saturated_penalty, while the linear model does not.
        let bound = spec.inter_frame_gap
            + SimDur::from_nanos(spec.contention_per_queued.as_nanos() * 4)
            + SimDur::from_micros(500);
        let mut prev = seg.access_delay();
        for k in 4..60 {
            seg.queue.push_back(DgramHandle(k));
            let d = seg.access_delay();
            assert!(d >= prev, "saturating curve must be monotone");
            assert!(d < bound, "curve must stay under its asymptote");
            prev = d;
        }
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
