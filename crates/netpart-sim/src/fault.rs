//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a schedule of fault events — node crashes, node
//! slowdowns, router outage windows, segment loss bursts — that a test or
//! experiment installs into a [`Network`](crate::network::Network) before
//! (or during) a run. A [`FaultEvent`] is an onset time plus a
//! [`FaultKind`], and that is the only spelling of a fault in the crate:
//! the builders write it, [`FaultPlan::validate`] reads the ids it names,
//! the event queue carries the `FaultKind` as handed in, and the network
//! applies (and clamps) it when it matures. Faults ride the same
//! time-ordered event queue as every other work item, so a given
//! `(network description, seed, plan)` triple always produces the same
//! trajectory, failure times included.
//! Installing an **empty** plan pushes nothing into the queue and perturbs
//! neither the RNG nor the event sequence numbering, so a run with an empty
//! plan is byte-identical to a run with no plan at all (the determinism
//! guard in the workspace test suite asserts exactly this).
//!
//! # Semantics
//!
//! * **Crash** — from the crash instant the node is gone: datagrams it
//!   would send are silently swallowed (a dead host's protocol stack dies
//!   with it), frames addressed to it are dropped with
//!   [`DropReason::NodeDown`](crate::event::DropReason::NodeDown), and
//!   compute blocks running on it never complete. Crashes are permanent
//!   unless the plan also schedules a later [`FaultKind::NodeRecover`]
//!   for the same node.
//! * **Slowdown** — compute blocks *started* at or after time `at` stretch
//!   by `factor` (on top of the external-load stretch). Models a machine
//!   that degrades without dying. A scheduled
//!   [`FaultKind::EndSlowdown`] clears the multiplier; compute blocks
//!   already in flight keep the rate sampled when they started.
//! * **Recover** — the node rejoins the network: it accepts frames and
//!   can compute again, but anything that was lost while it was down
//!   stays lost (protocol layers must re-establish state themselves).
//! * **External load** — sets the node's background-load fraction (the
//!   same knob as [`Network::set_external_load`](crate::network::Network::set_external_load)),
//!   which stretches compute started from then on by `1/(1-load)`. A
//!   sequence of these events forms a load ramp;
//!   [`FaultPlan::load_ramp`] is a convenience that emits the steps.
//! * **Router outage** — frames reaching the router inside the window are
//!   dropped with [`DropReason::RouterDown`](crate::event::DropReason::RouterDown).
//!   Overlapping windows merge. The network also recomputes its live
//!   routing table over the residual fabric at the window's start and
//!   end, so flows shift to alternate routers where path diversity
//!   exists and sends fail fast with
//!   [`SimError::FabricPartitioned`]
//!   where none does.
//! * **Link down** — one router *port* (a `(router, segment)` attachment)
//!   drops every frame that would enter or leave through it inside the
//!   window, surfaced as
//!   [`DropReason::LinkDown`](crate::event::DropReason::LinkDown).
//!   Like a router outage it triggers a live-route recompute, so traffic
//!   detours around the dead link when the fabric has another path.
//!   Overlapping windows merge.
//! * **Loss burst** — inside the window the segment's channel-loss
//!   probability is replaced by `loss`; outside it reverts to the spec
//!   value. The burst draws from the same seeded RNG stream as ordinary
//!   channel loss.
//! * **Corruption burst** — inside the window each frame transmitted on
//!   the segment is bit-mangled with probability `prob`. Corrupted frames
//!   still occupy the channel and are delivered; the MMPS frame checksum
//!   discards them on arrival, so the cost is time and retransmissions,
//!   never payload integrity. The draw shares the seeded RNG stream and
//!   happens only while a burst is active, so corruption-free runs stay
//!   byte-identical.
//!
//! # Boundary tie-break
//!
//! Faults scheduled for time *t* resolve **before** any other work item
//! at *t*, regardless of insertion order. Concretely: a slowdown ending
//! at *t* and a compute block starting at *t* always resolve as
//! end-then-start, so the block runs at the restored rate; symmetrically
//! a slowdown starting at *t* does slow a block started at *t*. Compute
//! blocks already in flight at either boundary keep the rate sampled at
//! their start (duration is computed once, when the block starts).
//!
//! # No cheating
//!
//! The query APIs ([`Network::node_crashed`](crate::network::Network::node_crashed)
//! and friends) exist for tests and for the simulation substrate itself
//! (e.g. the MMPS layer suppressing a dead host's retransmission timers).
//! Recovery layers above the message service must *not* consult them:
//! detection is only legitimate through observable message behaviour —
//! retransmission budgets expiring, probes going unanswered.

use crate::error::SimError;
use crate::ids::{NodeId, RouterId, SegmentId};
use crate::time::{SimDur, SimTime};

/// One scheduled fault: what happens ([`FaultKind`]) and when. The
/// simulator queues the kind exactly as written here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// The instant the fault takes effect (window start for windowed
    /// faults). An onset already in the past at install takes effect at
    /// the install instant.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// What a fault does. Windowed kinds carry their (exclusive) window end
/// `until`; the window starts at [`FaultEvent::at`]. Out-of-range
/// magnitudes are clamped when the fault matures, as documented per field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// `node` fail-stops (permanent unless a later
    /// [`NodeRecover`](FaultKind::NodeRecover) names it).
    NodeCrash {
        /// The victim.
        node: NodeId,
    },
    /// Compute blocks started on `node` from now on stretch by `factor`.
    NodeSlowdown {
        /// The affected node.
        node: NodeId,
        /// Seconds-per-op multiplier (values below 1 are clamped to 1).
        factor: f64,
    },
    /// `router` drops every frame it is handed until `until`.
    RouterOutage {
        /// The affected router.
        router: RouterId,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// The link between `router` and `segment` is severed until `until`:
    /// frames must neither enter nor leave the router through that port,
    /// and the live routing table detours around it. The pair must
    /// actually be wired — [`FaultPlan::validate`] rejects a `LinkDown`
    /// naming a port the router does not have, instead of silently
    /// no-opping.
    LinkDown {
        /// The router whose port goes down.
        router: RouterId,
        /// The segment the dead port attaches to.
        segment: SegmentId,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// `segment`'s channel-loss probability becomes `loss` until `until`.
    LossBurst {
        /// The affected segment.
        segment: SegmentId,
        /// Window end (exclusive).
        until: SimTime,
        /// Loss probability inside the window (clamped to `[0, 0.999]`).
        loss: f64,
    },
    /// The compute-slowdown multiplier on `node` is cleared (back to 1.0).
    /// Compute already in flight keeps its sampled rate.
    EndSlowdown {
        /// The recovering node.
        node: NodeId,
    },
    /// A crashed `node` rejoins the network (accepts frames, can compute).
    /// State lost during the outage stays lost.
    NodeRecover {
        /// The returning node.
        node: NodeId,
    },
    /// The external (background) load on `node` becomes `load`, stretching
    /// compute started from then on by `1/(1-load)`.
    ExternalLoad {
        /// The affected node.
        node: NodeId,
        /// Background-load fraction (clamped to `[0, 0.99]`).
        load: f64,
    },
    /// Until `until` each frame transmitted on `segment` is corrupted
    /// (bits mangled in flight) with probability `prob`. Corrupted frames
    /// still occupy the channel and are delivered, but a checksumming
    /// receiver (the MMPS layer) discards them, so they cost time and
    /// retransmissions, never payload integrity.
    CorruptBurst {
        /// The affected segment.
        segment: SegmentId,
        /// Window end (exclusive).
        until: SimTime,
        /// Per-frame corruption probability inside the window (clamped to
        /// `[0, 1]`).
        prob: f64,
    },
    /// Until `until` a background cross-traffic flood runs on `segment`:
    /// `bytes`-byte frames injected every `period` between the segment's
    /// first two attached nodes, contending for the channel's FIFO queue
    /// exactly like application traffic. The frames carry tag 0, which
    /// reliability layers ignore. A segment with fewer than two nodes
    /// floods nothing.
    TrafficBurst {
        /// The flooded segment.
        segment: SegmentId,
        /// Window end (exclusive).
        until: SimTime,
        /// Payload bytes per flood frame (clamped to the MTU).
        bytes: u32,
        /// Interval between flood frames (at least 1 ns).
        period: SimDur,
    },
}

impl FaultKind {
    /// The node, router and segment this fault names and its window end —
    /// everything [`FaultPlan::validate`] checks, spelled once per kind.
    fn names(
        &self,
    ) -> (
        Option<NodeId>,
        Option<RouterId>,
        Option<SegmentId>,
        Option<SimTime>,
    ) {
        match *self {
            FaultKind::NodeCrash { node }
            | FaultKind::NodeSlowdown { node, .. }
            | FaultKind::EndSlowdown { node }
            | FaultKind::NodeRecover { node }
            | FaultKind::ExternalLoad { node, .. } => (Some(node), None, None, None),
            FaultKind::RouterOutage { router, until } => (None, Some(router), None, Some(until)),
            FaultKind::LinkDown {
                router,
                segment,
                until,
            } => (None, Some(router), Some(segment), Some(until)),
            FaultKind::LossBurst { segment, until, .. }
            | FaultKind::CorruptBurst { segment, until, .. }
            | FaultKind::TrafficBurst { segment, until, .. } => {
                (None, None, Some(segment), Some(until))
            }
        }
    }
}

/// A deterministic schedule of fault events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled events, in the order they were added (the event queue
    /// orders them by time at install).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing; byte-identical to no plan).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    fn push(mut self, at: SimTime, kind: FaultKind) -> FaultPlan {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Schedule a permanent fail-stop crash of `node` at `at`.
    pub fn crash(self, at: SimTime, node: NodeId) -> FaultPlan {
        self.push(at, FaultKind::NodeCrash { node })
    }

    /// Schedule a compute slowdown of `node` by `factor` from `at`.
    pub fn slow(self, at: SimTime, node: NodeId, factor: f64) -> FaultPlan {
        self.push(at, FaultKind::NodeSlowdown { node, factor })
    }

    /// Schedule a router outage window.
    pub fn router_outage(self, router: RouterId, from: SimTime, until: SimTime) -> FaultPlan {
        self.push(from, FaultKind::RouterOutage { router, until })
    }

    /// Schedule a link-down window on the port joining `router` to
    /// `segment`.
    pub fn link_down(
        self,
        router: RouterId,
        segment: SegmentId,
        from: SimTime,
        until: SimTime,
    ) -> FaultPlan {
        let kind = FaultKind::LinkDown {
            router,
            segment,
            until,
        };
        self.push(from, kind)
    }

    /// Schedule a segment loss burst.
    pub fn loss_burst(
        self,
        segment: SegmentId,
        from: SimTime,
        until: SimTime,
        loss: f64,
    ) -> FaultPlan {
        let kind = FaultKind::LossBurst {
            segment,
            until,
            loss,
        };
        self.push(from, kind)
    }

    /// Schedule the end of a compute slowdown on `node` at `at`.
    pub fn end_slowdown(self, at: SimTime, node: NodeId) -> FaultPlan {
        self.push(at, FaultKind::EndSlowdown { node })
    }

    /// Schedule a crashed `node` to rejoin the network at `at`.
    pub fn node_recover(self, at: SimTime, node: NodeId) -> FaultPlan {
        self.push(at, FaultKind::NodeRecover { node })
    }

    /// Schedule `node`'s external (background) load to become `load` at
    /// `at`.
    pub fn load(self, at: SimTime, node: NodeId, load: f64) -> FaultPlan {
        self.push(at, FaultKind::ExternalLoad { node, load })
    }

    /// Schedule a background-load ramp on `node`: `steps` evenly spaced
    /// [`FaultKind::ExternalLoad`] events across `[from, until]`,
    /// linearly interpolating from the current load assumption `start`
    /// to `end`. With `steps == 1` this degenerates to a single step to
    /// `end` at `from`.
    pub fn load_ramp(
        mut self,
        node: NodeId,
        from: SimTime,
        until: SimTime,
        start: f64,
        end: f64,
        steps: u32,
    ) -> FaultPlan {
        let steps = steps.max(1);
        let span = until.0.saturating_sub(from.0);
        for k in 0..steps {
            let frac = if steps == 1 {
                1.0
            } else {
                f64::from(k + 1) / f64::from(steps)
            };
            let at = SimTime(from.0 + (span as f64 * f64::from(k) / f64::from(steps)) as u64);
            self = self.load(at, node, start + (end - start) * frac);
        }
        self
    }

    /// Schedule a segment corruption burst: frames transmitted on
    /// `segment` in `[from, until)` are bit-mangled with probability
    /// `prob` (they still cost channel time; a checksumming receiver
    /// drops them).
    pub fn corrupt_burst(
        self,
        segment: SegmentId,
        from: SimTime,
        until: SimTime,
        prob: f64,
    ) -> FaultPlan {
        let kind = FaultKind::CorruptBurst {
            segment,
            until,
            prob,
        };
        self.push(from, kind)
    }

    /// Schedule a background traffic flood on `segment`: `bytes`-byte
    /// frames injected every `period` in `[from, until)`, contending with
    /// application traffic for the channel.
    pub fn traffic_burst(
        self,
        segment: SegmentId,
        from: SimTime,
        until: SimTime,
        bytes: u32,
        period: SimDur,
    ) -> FaultPlan {
        let kind = FaultKind::TrafficBurst {
            segment,
            until,
            bytes,
            period,
        };
        self.push(from, kind)
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Check every event against a network: each referenced node, router,
    /// or segment must exist, a [`FaultKind::LinkDown`] must name a port
    /// its router actually has, and a windowed fault must have
    /// `until >= at`. `ports[r]` lists the segments router `r` attaches
    /// to (so `ports.len()` is the router count). Returns the first
    /// offence found, described with the event's index in the plan.
    /// [`Network::install_fault_plan`](crate::network::Network::install_fault_plan)
    /// calls this, so a bad plan is rejected before any event is queued.
    pub fn validate(
        &self,
        num_nodes: usize,
        num_segments: usize,
        ports: &[&[SegmentId]],
    ) -> Result<(), SimError> {
        let num_routers = ports.len();
        let bad =
            |i: usize, what: String| Err(SimError::InvalidFaultPlan(format!("event {i} {what}")));
        for (i, ev) in self.events.iter().enumerate() {
            let (node, router, segment, until) = ev.kind.names();
            if let Some(n) = node.filter(|n| n.index() >= num_nodes) {
                return bad(i, format!("names unknown node {n} ({num_nodes} nodes)"));
            }
            if let Some(r) = router.filter(|r| r.index() >= num_routers) {
                return bad(
                    i,
                    format!("names unknown router {r} ({num_routers} routers)"),
                );
            }
            if let Some(s) = segment.filter(|s| s.index() >= num_segments) {
                return bad(
                    i,
                    format!("names unknown segment {s} ({num_segments} segments)"),
                );
            }
            if let (Some(r), Some(s)) = (router, segment) {
                if !ports[r.index()].contains(&s) {
                    return bad(i, format!("downs a link {r} does not have: no port on {s}"));
                }
            }
            if let Some(until) = until.filter(|&until| until < ev.at) {
                let (until, from) = (until.as_millis_f64(), ev.at.as_millis_f64());
                return bad(i, format!("has until {until} ms < from {from} ms"));
            }
        }
        Ok(())
    }

    /// Draw a random fault schedule from a seeded PRNG, valid by
    /// construction for any network within `bounds`. Event kinds span the
    /// whole fault model — crashes (sometimes with a later recover),
    /// slowdowns (always paired with an end), router outages, loss
    /// bursts, corruption bursts, and background-load steps — with every
    /// instant inside `[0, bounds.horizon_ms)`. When
    /// `bounds.router_ports` describes the fabric wiring the draw widens
    /// to traffic bursts and link downs as well (with link downs drawn
    /// only on wired `(router, segment)` pairs); with empty
    /// `router_ports` the draw is byte-identical to the classic six-kind
    /// generator, so existing seeded sweeps keep their schedules. The
    /// same `(seed, bounds)` always yields the same plan; this is the
    /// generator the chaos fuzzer iterates over hundreds of seeds.
    pub fn random(seed: u64, bounds: &FaultBounds) -> FaultPlan {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        let t = |frac: f64| SimTime::ZERO + SimDur::from_millis_f64(frac);
        let n_events = 1 + (rng.random::<u32>() % bounds.max_events.max(1)) as usize;
        let mut crashes = 0u32;
        let wired: Vec<usize> = bounds
            .router_ports
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .map(|(i, _)| i)
            .collect();
        let kinds: u32 = if bounds.router_ports.is_empty() { 6 } else { 8 };
        for _ in 0..n_events {
            let kind = rng.random::<u32>() % kinds;
            match kind {
                0 if crashes < bounds.max_crashes && bounds.num_nodes > 0 => {
                    crashes += 1;
                    let node = NodeId(rng.random::<u32>() % bounds.num_nodes);
                    let at = bounds.horizon_ms * rng.random::<f64>();
                    plan = plan.crash(t(at), node);
                    if rng.random::<bool>() {
                        let back = at + bounds.horizon_ms * rng.random::<f64>();
                        plan = plan.node_recover(t(back), node);
                    }
                }
                1 if bounds.num_nodes > 0 => {
                    let node = NodeId(rng.random::<u32>() % bounds.num_nodes);
                    let from = bounds.horizon_ms * rng.random::<f64>();
                    let span = bounds.horizon_ms * 0.5 * rng.random::<f64>();
                    let factor = 1.5 + 4.0 * rng.random::<f64>();
                    plan = plan
                        .slow(t(from), node, factor)
                        .end_slowdown(t(from + span), node);
                }
                2 if bounds.num_routers > 0 => {
                    let router = RouterId((rng.random::<u32>() % bounds.num_routers) as u16);
                    let from = bounds.horizon_ms * rng.random::<f64>();
                    let span = bounds.horizon_ms * 0.2 * rng.random::<f64>();
                    plan = plan.router_outage(router, t(from), t(from + span));
                }
                3 if bounds.num_segments > 0 => {
                    let segment = SegmentId((rng.random::<u32>() % bounds.num_segments) as u16);
                    let from = bounds.horizon_ms * rng.random::<f64>();
                    let span = bounds.horizon_ms * 0.3 * rng.random::<f64>();
                    let loss = 0.1 + 0.5 * rng.random::<f64>();
                    plan = plan.loss_burst(segment, t(from), t(from + span), loss);
                }
                4 if bounds.num_segments > 0 => {
                    let segment = SegmentId((rng.random::<u32>() % bounds.num_segments) as u16);
                    let from = bounds.horizon_ms * rng.random::<f64>();
                    let span = bounds.horizon_ms * 0.3 * rng.random::<f64>();
                    let prob = 0.1 + 0.6 * rng.random::<f64>();
                    plan = plan.corrupt_burst(segment, t(from), t(from + span), prob);
                }
                6 if bounds.num_segments > 0 => {
                    let segment = SegmentId((rng.random::<u32>() % bounds.num_segments) as u16);
                    let from = bounds.horizon_ms * rng.random::<f64>();
                    let span = bounds.horizon_ms * 0.3 * rng.random::<f64>();
                    let bytes = 256 + rng.random::<u32>() % 1024;
                    let period = SimDur::from_millis_f64(0.2 + rng.random::<f64>());
                    plan = plan.traffic_burst(segment, t(from), t(from + span), bytes, period);
                }
                7 if !wired.is_empty() => {
                    let ri = wired[(rng.random::<u32>() as usize) % wired.len()];
                    let ports = &bounds.router_ports[ri];
                    let segment = ports[(rng.random::<u32>() as usize) % ports.len()];
                    let from = bounds.horizon_ms * rng.random::<f64>();
                    let span = bounds.horizon_ms * 0.2 * rng.random::<f64>();
                    plan = plan.link_down(RouterId(ri as u16), segment, t(from), t(from + span));
                }
                _ if bounds.num_nodes > 0 => {
                    let node = NodeId(rng.random::<u32>() % bounds.num_nodes);
                    let at = bounds.horizon_ms * rng.random::<f64>();
                    let load = 0.5 * rng.random::<f64>();
                    plan = plan.load(t(at), node, load);
                }
                _ => {}
            }
        }
        plan
    }
}

/// Shape limits for [`FaultPlan::random`]: the network dimensions every
/// drawn id must respect, the time horizon fault onsets fall in, and
/// caps on schedule size.
#[derive(Debug, Clone)]
pub struct FaultBounds {
    /// Nodes in the target network (ids drawn in `[0, num_nodes)`).
    pub num_nodes: u32,
    /// Routers in the target network.
    pub num_routers: u32,
    /// Segments in the target network.
    pub num_segments: u32,
    /// Fault onsets are drawn in `[0, horizon_ms)` (windows may extend
    /// past it).
    pub horizon_ms: f64,
    /// Maximum events drawn per plan (at least 1 is always drawn).
    pub max_events: u32,
    /// Cap on crash events per plan, so a schedule cannot trivially kill
    /// every node.
    pub max_crashes: u32,
    /// Fabric wiring: `router_ports[r]` lists the segments router `r`
    /// attaches to. When **empty** the draw is restricted to the classic
    /// six event kinds and is byte-identical to the pre-fabric generator
    /// (existing seeded sweeps keep their schedules); when populated the
    /// draw also produces traffic bursts and link downs, the latter only
    /// on wired `(router, segment)` pairs.
    pub router_ports: Vec<Vec<SegmentId>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_events_in_order() {
        let t = |ms| SimTime::ZERO + SimDur::from_millis(ms);
        let plan = FaultPlan::new()
            .crash(t(5), NodeId(3))
            .slow(t(1), NodeId(2), 4.0)
            .router_outage(RouterId(0), t(2), t(9))
            .loss_burst(SegmentId(1), t(3), t(4), 0.5);
        assert_eq!(plan.len(), 4);
        assert!(!plan.is_empty());
        assert_eq!(plan.events[0].at, t(5));
        assert_eq!(plan.events[2].at, t(2));
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn transient_builders_record_events() {
        let t = |ms| SimTime::ZERO + SimDur::from_millis(ms);
        let plan = FaultPlan::new()
            .slow(t(1), NodeId(0), 4.0)
            .end_slowdown(t(6), NodeId(0))
            .crash(t(2), NodeId(1))
            .node_recover(t(8), NodeId(1))
            .load(t(3), NodeId(2), 0.5);
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.events[1].at, t(6));
        assert_eq!(plan.events[3].at, t(8));
        assert!(matches!(
            plan.events[4].kind,
            FaultKind::ExternalLoad { load, .. } if load == 0.5
        ));
    }

    #[test]
    fn validate_rejects_unknown_ids_and_inverted_windows() {
        let t = |ms| SimTime::ZERO + SimDur::from_millis(ms);
        // 3 nodes, 2 segments, one router wired to both.
        let ports: [&[SegmentId]; 1] = [&[SegmentId(0), SegmentId(1)]];
        let ok = FaultPlan::new()
            .crash(t(1), NodeId(2))
            .router_outage(RouterId(0), t(2), t(2))
            .loss_burst(SegmentId(1), t(3), t(9), 0.5)
            .corrupt_burst(SegmentId(0), t(1), t(4), 0.3);
        assert_eq!(ok.validate(3, 2, &ports), Ok(()));

        let bad_node = FaultPlan::new().slow(t(0), NodeId(3), 2.0);
        let e = bad_node.validate(3, 2, &ports).unwrap_err();
        assert!(e.to_string().contains("unknown node n3"), "{e}");

        let bad_router = FaultPlan::new().router_outage(RouterId(1), t(0), t(5));
        let e = bad_router.validate(3, 2, &ports).unwrap_err();
        assert!(e.to_string().contains("unknown router r1"), "{e}");

        let bad_seg = FaultPlan::new().corrupt_burst(SegmentId(2), t(0), t(5), 0.2);
        let e = bad_seg.validate(3, 2, &ports).unwrap_err();
        assert!(e.to_string().contains("unknown segment seg2"), "{e}");

        let inverted = FaultPlan::new().loss_burst(SegmentId(0), t(7), t(3), 0.5);
        let e = inverted.validate(3, 2, &ports).unwrap_err();
        assert!(e.to_string().contains('<'), "{e}");

        // The offending event's index is reported, not just its kind.
        let second = FaultPlan::new()
            .crash(t(0), NodeId(0))
            .crash(t(1), NodeId(9));
        let e = second.validate(3, 2, &ports).unwrap_err();
        assert!(e.to_string().contains("event 1"), "{e}");
    }

    #[test]
    fn random_plans_are_deterministic_and_valid_by_construction() {
        let bounds = FaultBounds {
            num_nodes: 12,
            num_routers: 1,
            num_segments: 2,
            horizon_ms: 50.0,
            max_events: 6,
            max_crashes: 2,
            router_ports: Vec::new(),
        };
        let mut distinct = 0usize;
        for seed in 0..500u64 {
            let a = FaultPlan::random(seed, &bounds);
            let b = FaultPlan::random(seed, &bounds);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert!(!a.is_empty(), "seed {seed} drew an empty plan");
            let ports: [&[SegmentId]; 1] = [&[SegmentId(0), SegmentId(1)]];
            assert_eq!(a.validate(12, 2, &ports), Ok(()), "seed {seed} invalid");
            if a != FaultPlan::random(seed + 1, &bounds) {
                distinct += 1;
            }
        }
        assert!(distinct > 400, "plans barely vary: {distinct}/500");
    }

    #[test]
    fn validate_rejects_unwired_link_down() {
        let t = |ms| SimTime::ZERO + SimDur::from_millis(ms);
        let ports: Vec<&[SegmentId]> =
            vec![&[SegmentId(0), SegmentId(1)], &[SegmentId(1), SegmentId(2)]];
        // The same shape with every router on every segment.
        let all = [SegmentId(0), SegmentId(1), SegmentId(2)];
        let full: Vec<&[SegmentId]> = vec![&all, &all];

        // A wired pair passes under both wirings.
        let ok = FaultPlan::new().link_down(RouterId(1), SegmentId(2), t(1), t(5));
        assert_eq!(ok.validate(3, 3, &full), Ok(()));
        assert_eq!(ok.validate(3, 3, &ports), Ok(()));

        // A pair whose ids both exist passes where it is wired, and is
        // rejected — not silently no-opped — where it is not.
        let unwired = FaultPlan::new().link_down(RouterId(0), SegmentId(2), t(1), t(5));
        assert_eq!(unwired.validate(3, 3, &full), Ok(()));
        let e = unwired.validate(3, 3, &ports).unwrap_err();
        assert!(e.to_string().contains("no port on seg2"), "{e}");
        assert!(e.to_string().contains("event 0"), "{e}");

        // Out-of-range ids and inverted windows are still caught.
        let bad_router = FaultPlan::new().link_down(RouterId(2), SegmentId(0), t(1), t(5));
        let e = bad_router.validate(3, 3, &ports).unwrap_err();
        assert!(e.to_string().contains("unknown router r2"), "{e}");
        let bad_seg = FaultPlan::new().link_down(RouterId(0), SegmentId(3), t(1), t(5));
        let e = bad_seg.validate(3, 3, &ports).unwrap_err();
        assert!(e.to_string().contains("unknown segment seg3"), "{e}");
        let inverted = FaultPlan::new().link_down(RouterId(0), SegmentId(1), t(5), t(1));
        let e = inverted.validate(3, 3, &ports).unwrap_err();
        assert!(e.to_string().contains('<'), "{e}");
    }

    #[test]
    fn random_with_wiring_draws_every_fault_kind() {
        // Fabric-shaped bounds: the widened 8-kind draw must surface every
        // FaultKind variant somewhere across a modest seed range, and
        // every drawn plan must already satisfy the wired validation.
        let ports: Vec<Vec<SegmentId>> = vec![
            vec![SegmentId(0), SegmentId(1)],
            vec![SegmentId(1), SegmentId(2)],
        ];
        let bounds = FaultBounds {
            num_nodes: 12,
            num_routers: 2,
            num_segments: 3,
            horizon_ms: 50.0,
            max_events: 8,
            max_crashes: 2,
            router_ports: ports.clone(),
        };
        let port_refs: Vec<&[SegmentId]> = ports.iter().map(|p| p.as_slice()).collect();
        let mut seen = [false; 10];
        for seed in 0..64u64 {
            let plan = FaultPlan::random(seed, &bounds);
            assert_eq!(
                plan.validate(12, 3, &port_refs),
                Ok(()),
                "seed {seed} drew an invalid plan"
            );
            for ev in &plan.events {
                let k = match ev.kind {
                    FaultKind::NodeCrash { .. } => 0,
                    FaultKind::NodeSlowdown { .. } => 1,
                    FaultKind::RouterOutage { .. } => 2,
                    FaultKind::LinkDown { .. } => 3,
                    FaultKind::LossBurst { .. } => 4,
                    FaultKind::EndSlowdown { .. } => 5,
                    FaultKind::NodeRecover { .. } => 6,
                    FaultKind::ExternalLoad { .. } => 7,
                    FaultKind::CorruptBurst { .. } => 8,
                    FaultKind::TrafficBurst { .. } => 9,
                };
                seen[k] = true;
            }
        }
        let names = [
            "NodeCrash",
            "NodeSlowdown",
            "RouterOutage",
            "LinkDown",
            "LossBurst",
            "EndSlowdown",
            "NodeRecover",
            "ExternalLoad",
            "CorruptBurst",
            "TrafficBurst",
        ];
        for (k, name) in names.iter().enumerate() {
            assert!(seen[k], "{name} never drawn across 64 seeds");
        }
    }

    #[test]
    fn random_without_wiring_never_draws_fabric_kinds() {
        // Empty router_ports pins the classic six-kind draw: no LinkDown
        // and no TrafficBurst may appear, so pre-fabric seeded sweeps
        // keep their schedules byte-identically.
        let bounds = FaultBounds {
            num_nodes: 12,
            num_routers: 1,
            num_segments: 2,
            horizon_ms: 50.0,
            max_events: 8,
            max_crashes: 2,
            router_ports: Vec::new(),
        };
        for seed in 0..128u64 {
            let plan = FaultPlan::random(seed, &bounds);
            for ev in &plan.events {
                assert!(
                    !matches!(
                        ev.kind,
                        FaultKind::LinkDown { .. } | FaultKind::TrafficBurst { .. }
                    ),
                    "seed {seed} drew a fabric fault without wiring: {ev:?}"
                );
            }
        }
    }

    #[test]
    fn load_ramp_interpolates_evenly() {
        let t = |ms| SimTime::ZERO + SimDur::from_millis(ms);
        let plan = FaultPlan::new().load_ramp(NodeId(4), t(0), t(40), 0.0, 0.8, 4);
        assert_eq!(plan.len(), 4);
        let loads: Vec<f64> = plan
            .events
            .iter()
            .map(|e| match e.kind {
                FaultKind::ExternalLoad { load, .. } => load,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(loads, vec![0.2, 0.4, 0.6000000000000001, 0.8]);
        assert_eq!(plan.events[0].at, t(0));
        assert_eq!(plan.events[3].at, t(30));

        let single = FaultPlan::new().load_ramp(NodeId(4), t(5), t(9), 0.1, 0.7, 1);
        assert_eq!(single.len(), 1);
        assert_eq!(single.events[0].at, t(5));
        assert!(matches!(
            single.events[0].kind,
            FaultKind::ExternalLoad { load, .. } if load == 0.7
        ));
    }
}
