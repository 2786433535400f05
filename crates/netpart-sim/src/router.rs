//! Routers joining network segments.
//!
//! The paper's third network assumption is that every pair of segments is
//! connected by a single router, so messages travel at most one hop. Its
//! empirical finding is that "the router may be treated as an additional
//! station that contends for the ethernet channel plus internal router
//! delay", and that the delay is a per-byte penalty — this is the
//! `T_router[C_i, C_j](b)` term of the cost model.
//!
//! The implementation is store-and-forward: a frame must fully arrive on
//! the ingress segment, then occupies the router's forwarding engine for
//! `per_frame + per_byte × len`, then joins the egress segment's queue
//! like any other station's frame.

use crate::ids::SegmentId;
use crate::time::{SimDur, SimTime, SizeMemo};

/// Static description of a router.
#[derive(Debug, Clone)]
pub struct RouterSpec {
    /// Segments this router joins (two or more).
    pub segments: Vec<SegmentId>,
    /// Fixed forwarding cost per frame.
    pub per_frame: SimDur,
    /// Forwarding cost per payload byte, in seconds per byte. The paper
    /// measured ≈ 0.6 µs/byte (0.0006 msec/byte).
    pub per_byte_sec: f64,
    /// Maximum frames the router will hold; arrivals beyond this are
    /// dropped (surfaced as `DropReason::RouterOverflow`).
    pub buffer_frames: usize,
}

impl RouterSpec {
    /// A router matching the paper's measured per-byte forwarding penalty
    /// of 0.0006 msec/byte.
    pub fn paper_router(segments: Vec<SegmentId>) -> RouterSpec {
        RouterSpec {
            segments,
            per_frame: SimDur::from_micros(120),
            per_byte_sec: 0.6e-6,
            buffer_frames: 256,
        }
    }

    /// Forwarding time for a frame carrying `payload_bytes`.
    #[inline]
    pub fn forward_time(&self, payload_bytes: u32) -> SimDur {
        self.per_frame + SimDur::from_secs_f64(payload_bytes as f64 * self.per_byte_sec)
    }

    /// Does this router join `a` and `b`?
    pub fn joins(&self, a: SegmentId, b: SegmentId) -> bool {
        self.segments.contains(&a) && self.segments.contains(&b)
    }
}

/// Runtime state of a router.
#[derive(Debug)]
pub(crate) struct Router {
    pub(crate) spec: RouterSpec,
    /// When the forwarding engine frees up (forwarding is serialized).
    pub(crate) free_at: SimTime,
    /// Frames currently buffered (being forwarded or waiting).
    pub(crate) in_flight: usize,
    /// Total frames forwarded.
    pub(crate) frames_forwarded: u64,
    /// Frames dropped due to buffer overflow.
    pub(crate) frames_dropped: u64,
    /// Injected outage: frames arriving before this instant are dropped.
    /// Overlapping outage windows merge via `max`.
    pub(crate) down_until: SimTime,
    /// Injected per-port link outages, indexed parallel to
    /// `spec.segments`; a frame must not enter or leave through a port
    /// whose entry is in the future. Allocated lazily on the first
    /// `LinkDown` fault so fabrics that never see one pay nothing (an
    /// empty vector means every port is up).
    pub(crate) port_down_until: Vec<SimTime>,
    /// [`RouterSpec::forward_time`] of the payload sizes seen last.
    fwd_memo: SizeMemo,
}

impl Router {
    pub(crate) fn new(spec: RouterSpec) -> Router {
        Router {
            spec,
            free_at: SimTime::ZERO,
            in_flight: 0,
            frames_forwarded: 0,
            frames_dropped: 0,
            down_until: SimTime::ZERO,
            port_down_until: Vec::new(),
            fwd_memo: SizeMemo::EMPTY,
        }
    }

    /// Return to the just-built state.
    pub(crate) fn reset(&mut self) {
        let segments = std::mem::take(&mut self.spec.segments);
        *self = Router::new(RouterSpec {
            segments,
            ..self.spec
        });
    }

    /// [`RouterSpec::forward_time`] of a frame carrying `payload_bytes`,
    /// bit for bit, without the `f64` rounding when the size repeats.
    #[inline]
    pub(crate) fn forward_time(&mut self, payload_bytes: u32) -> SimDur {
        let spec = &self.spec;
        self.fwd_memo.get(payload_bytes, |b| spec.forward_time(b))
    }

    /// Whether the router as a whole is inside an outage window at `now`.
    #[inline]
    pub(crate) fn is_down(&self, now: SimTime) -> bool {
        now < self.down_until
    }

    /// Whether the port at `port_idx` (an index into `spec.segments`) is
    /// inside a link-down window at `now`.
    #[inline]
    pub(crate) fn port_is_down(&self, port_idx: usize, now: SimTime) -> bool {
        self.port_down_until
            .get(port_idx)
            .is_some_and(|&until| now < until)
    }

    /// Merge a link-down window onto the port attached to `segment`,
    /// allocating the per-port table on first use. Returns `false` when
    /// the router has no port on `segment` (callers validate first, so
    /// this is defensive).
    pub(crate) fn merge_port_down(&mut self, segment: SegmentId, until: SimTime) -> bool {
        let Some(idx) = self.spec.segments.iter().position(|&s| s == segment) else {
            return false;
        };
        if self.port_down_until.is_empty() {
            self.port_down_until = vec![SimTime::ZERO; self.spec.segments.len()];
        }
        self.port_down_until[idx] = self.port_down_until[idx].max(until);
        true
    }
}

/// Statistics snapshot of a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterStats {
    /// Total frames forwarded.
    pub frames_forwarded: u64,
    /// Frames dropped due to buffer overflow.
    pub frames_dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_time_is_per_byte_linear() {
        let r = RouterSpec::paper_router(vec![SegmentId(0), SegmentId(1)]);
        let t0 = r.forward_time(0);
        let t1 = r.forward_time(1000);
        let t2 = r.forward_time(2000);
        // Differences are the per-byte part: equal increments.
        assert_eq!(t1.as_nanos() - t0.as_nanos(), t2.as_nanos() - t1.as_nanos());
        // 1000 bytes at 0.6 µs/byte = 600 µs.
        assert_eq!(t1.as_nanos() - t0.as_nanos(), 600_000);
    }

    #[test]
    fn joins_checks_both_segments() {
        let r = RouterSpec::paper_router(vec![SegmentId(0), SegmentId(1)]);
        assert!(r.joins(SegmentId(0), SegmentId(1)));
        assert!(r.joins(SegmentId(1), SegmentId(0)));
        assert!(!r.joins(SegmentId(0), SegmentId(2)));
    }
}
