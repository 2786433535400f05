//! The simulated network: construction, datagram transport, computation,
//! timers, and the event loop.
//!
//! [`Network`] is a pump: layers above submit work
//! ([`send_datagram`](Network::send_datagram),
//! [`start_compute`](Network::start_compute),
//! [`set_timer`](Network::set_timer)) and then repeatedly call
//! [`next_event`](Network::next_event), which advances the simulated clock
//! and returns the next externally visible [`SimEvent`]. All internal
//! plumbing (frame queuing, channel contention, router store-and-forward)
//! happens between calls.
//!
//! # Datagram pipeline
//!
//! ```text
//! send_datagram ──► sender host processing (serialized per node)
//!                 ──► segment FIFO ──► wire transmission
//!                 ──► ┤ repeated per router on the path (zero times when
//!                     │ source and destination share a segment):
//!                     │   router store-and-forward
//!                     │   ──► next-hop segment FIFO ──► wire transmission
//!                 ──► receiver host processing ──► DatagramDelivered
//! ```
//!
//! Cross-segment frames follow the next-hop routing table precomputed at
//! build time (`fabric::compute_routes`): each wire hop ends with
//! a table lookup that hands the frame to the next router on the shortest
//! path, so a frame crossing a hierarchical fabric pays host processing
//! once per endpoint but channel access, transmission, loss, corruption,
//! and router store-and-forward *per hop*. Loss can occur on any wire hop
//! or at any full (or down) router buffer along the path; real UDP gives
//! senders no notification, so reliability lives in `netpart-mmps`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use bytes::Bytes;

use crate::datagram::{Datagram, MAX_DATAGRAM_PAYLOAD};
use crate::error::SimError;
use crate::event::{DropReason, EventQueue, SimEvent, Work};
use crate::fasthash::FastSet;
use crate::fault::{FaultKind, FaultPlan};
use crate::ids::{DgramId, NodeId, ProcTypeId, RouterId, SegmentId, TimerId};
use crate::node::{Node, OpClass, ProcType};
use crate::router::{Router, RouterSpec, RouterStats};
use crate::segment::{Segment, SegmentSpec, SegmentStats};
use crate::slab::{DgramHandle, DgramSlab};
use crate::time::{SimDur, SimTime};

/// Builder for a [`Network`]. For the standard shapes (star, tree,
/// fat-tree, dumbbell) prefer generating a validated
/// [`Fabric`](crate::fabric::Fabric) and calling its `build`; the raw
/// builder is the escape hatch for hand-wired networks. Multi-segment
/// paths need a chain of routers — `build` precomputes the shortest-path
/// next-hop table, and frames are forwarded hop by hop:
///
/// ```
/// use netpart_sim::{NetworkBuilder, ProcType, SegmentSpec, RouterSpec};
///
/// let mut b = NetworkBuilder::new(42);
/// let sparc2 = b.add_proc_type(ProcType::sparcstation_2());
/// let ipc = b.add_proc_type(ProcType::sun4_ipc());
/// let seg1 = b.add_segment(SegmentSpec::ethernet_10mbps());
/// let trunk = b.add_segment(SegmentSpec::ethernet_10mbps());
/// let seg2 = b.add_segment(SegmentSpec::ethernet_10mbps());
/// // Two routers: seg1 ─r0─ trunk ─r1─ seg2. A seg1→seg2 datagram is
/// // store-and-forwarded twice and transmits on all three segments.
/// b.add_router(RouterSpec::paper_router(vec![seg1, trunk]));
/// b.add_router(RouterSpec::paper_router(vec![trunk, seg2]));
/// let src = b.add_node(sparc2, seg1);
/// let dst = b.add_node(ipc, seg2);
/// let net = b.build().unwrap();
/// assert!(net.route_exists(src, dst));
/// ```
pub struct NetworkBuilder {
    proc_types: Vec<ProcType>,
    segments: Vec<SegmentSpec>,
    nodes: Vec<(ProcTypeId, SegmentId)>,
    routers: Vec<RouterSpec>,
    seed: u64,
}

impl NetworkBuilder {
    /// Start building a network. `seed` drives the loss model (and nothing
    /// else); two networks built with the same description and seed evolve
    /// identically.
    pub fn new(seed: u64) -> NetworkBuilder {
        NetworkBuilder {
            proc_types: Vec::new(),
            segments: Vec::new(),
            nodes: Vec::new(),
            routers: Vec::new(),
            seed,
        }
    }

    /// Register a processor type.
    pub fn add_proc_type(&mut self, pt: ProcType) -> ProcTypeId {
        self.proc_types.push(pt);
        ProcTypeId((self.proc_types.len() - 1) as u16)
    }

    /// Add a network segment.
    pub fn add_segment(&mut self, spec: SegmentSpec) -> SegmentId {
        self.segments.push(spec);
        SegmentId((self.segments.len() - 1) as u16)
    }

    /// Add a workstation of type `pt` on `segment`.
    pub fn add_node(&mut self, pt: ProcTypeId, segment: SegmentId) -> NodeId {
        self.nodes.push((pt, segment));
        NodeId((self.nodes.len() - 1) as u32)
    }

    /// Add a router joining two or more segments.
    pub fn add_router(&mut self, spec: RouterSpec) -> RouterId {
        self.routers.push(spec);
        RouterId((self.routers.len() - 1) as u16)
    }

    /// Validate and build the runtime network.
    pub fn build(self) -> Result<Network, SimError> {
        if self.nodes.is_empty() || self.segments.is_empty() {
            return Err(SimError::EmptyNetwork);
        }
        for spec in &self.segments {
            if spec.bandwidth_bps.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return Err(SimError::InvalidParameter(
                    "segment bandwidth must be positive",
                ));
            }
            if !(0.0..1.0).contains(&spec.loss_probability) {
                return Err(SimError::InvalidParameter(
                    "loss probability must be in [0,1)",
                ));
            }
        }
        for (pt, seg) in &self.nodes {
            if pt.index() >= self.proc_types.len() {
                return Err(SimError::InvalidParameter(
                    "node references unknown proc type",
                ));
            }
            if seg.index() >= self.segments.len() {
                return Err(SimError::UnknownSegment(*seg));
            }
        }
        for r in &self.routers {
            if r.segments.len() < 2 {
                return Err(SimError::InvalidParameter(
                    "router must join at least two segments",
                ));
            }
            for s in &r.segments {
                if s.index() >= self.segments.len() {
                    return Err(SimError::UnknownSegment(*s));
                }
            }
            if let Some(bps) = r.port_bandwidth_bps {
                if bps.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                    return Err(SimError::InvalidParameter(
                        "router port bandwidth must be positive",
                    ));
                }
            }
        }
        let routes =
            crate::fabric::compute_routes(self.segments.len(), &self.routers, SimTime::ZERO);
        Ok(Network {
            proc_types: self.proc_types,
            routes,
            seed: self.seed,
            segments: self.segments.into_iter().map(Segment::new).collect(),
            nodes: self
                .nodes
                .into_iter()
                .map(|(pt, seg)| Node::new(pt, seg))
                .collect(),
            routers: self.routers.into_iter().map(Router::new).collect(),
            queue: EventQueue::new(),
            slab: DgramSlab::new(),
            pending_timers: FastSet::default(),
            background: Vec::new(),
            run: RunState::new(self.seed),
        })
    }
}

/// A background cross-traffic flow: periodic datagrams between two nodes
/// that contend for the shared channels exactly like application traffic.
/// The paper benchmarks "when the network and processors were lightly
/// loaded"; flows let experiments violate that assumption on purpose.
#[derive(Debug, Clone)]
pub struct BackgroundFlow {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Payload bytes per datagram (≤ MTU).
    pub bytes: u32,
    /// Interval between datagrams.
    pub period: SimDur,
}

/// The runtime network. See the [module docs](self) for the transport
/// pipeline and the crate docs for how the layers stack.
///
/// A network is the description it was built from plus what a run
/// changes, and [`reset`](Network::reset) returns the second to its
/// just-built state while keeping the allocations it has grown.
pub struct Network {
    proc_types: Vec<ProcType>,
    /// Dense next-hop table, `src_seg × dst_seg` → (router, egress
    /// segment), precomputed at build time by
    /// [`crate::fabric::compute_routes`]. This is the *static* table over
    /// the full fabric; it never changes after build.
    routes: Vec<Option<(RouterId, SegmentId)>>,
    /// The build seed; every reset re-seeds the loss RNG from it.
    seed: u64,
    segments: Vec<Segment>,
    nodes: Vec<Node>,
    routers: Vec<Router>,
    queue: EventQueue,
    /// In-flight datagrams; work items carry slab handles, not payloads.
    slab: DgramSlab,
    /// Timers set but not yet fired or cancelled. A cancel removes the id
    /// here; when the queued work item later pops it finds the id gone and
    /// is swallowed. Bounded by the number of queued timers by
    /// construction — unlike the old tombstone set, which grew forever if
    /// callers cancelled already-fired timers.
    pending_timers: FastSet<TimerId>,
    background: Vec<(BackgroundFlow, bool)>,
    /// Everything else a run changes.
    run: RunState,
}

/// The network's clock, id counters, loss RNG, counters and live routing
/// table. [`RunState::new`] is their just-built state, for `build` and
/// [`Network::reset`] alike.
struct RunState {
    /// The *live* next-hop table over the residual fabric (routers and
    /// links currently inside injected outage windows removed),
    /// recomputed by [`crate::fabric::compute_routes`] at every
    /// liveness transition. `None` until the first router or link fault
    /// fires — the fault-free path never recomputes and routes off the
    /// static table byte-identically to the pre-liveness simulator.
    live_routes: Option<Vec<Option<(RouterId, SegmentId)>>>,
    /// How many residual re-BFS passes have run (0 on any fault-free run;
    /// the byte-parity suites pin this).
    route_recomputes: u64,
    now: SimTime,
    next_dgram: u64,
    next_timer: u64,
    /// Cancelled timers whose queue entries have not popped yet; keeps
    /// [`pending_work`](Network::pending_work) honest.
    cancelled_unpopped: usize,
    rng: SmallRng,
    delivered: u64,
    dropped: u64,
    events_processed: u64,
}

impl RunState {
    fn new(seed: u64) -> RunState {
        RunState {
            live_routes: None,
            route_recomputes: 0,
            now: SimTime::ZERO,
            next_dgram: 0,
            next_timer: 0,
            cancelled_unpopped: 0,
            rng: SmallRng::seed_from_u64(seed),
            delivered: 0,
            dropped: 0,
            events_processed: 0,
        }
    }
}

impl Network {
    /// Return the network to exactly the state [`NetworkBuilder::build`]
    /// left it in: clock, id counters, event-queue sequence, the loss RNG
    /// re-seeded from the build seed, every node, segment and router's
    /// runtime state, the live routing table, timers, background flows and
    /// in-flight datagrams. The allocations a run grew — wheel slot
    /// buffers, the datagram slab, the timer set, segment queues — are
    /// kept, and none of them can change what a later run does: a run
    /// after `reset` is event for event the run on a fresh build.
    pub fn reset(&mut self) {
        // Destructured, so a field added to the network does not compile
        // until it is reset here too.
        let Network {
            proc_types: _,
            routes: _,
            seed,
            segments,
            nodes,
            routers,
            queue,
            slab,
            pending_timers,
            background,
            run,
        } = self;
        for s in segments {
            s.reset();
        }
        for n in nodes {
            *n = Node::new(n.proc_type, n.segment);
        }
        for r in routers {
            r.reset();
        }
        queue.clear();
        slab.clear();
        pending_timers.clear();
        background.clear();
        *run = RunState::new(*seed);
    }

    // ---- introspection ---------------------------------------------------

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.run.now
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// The node's descriptor.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The processor type of a node.
    pub fn proc_type_of(&self, id: NodeId) -> &ProcType {
        &self.proc_types[self.nodes[id.index()].proc_type.index()]
    }

    /// The processor type by id.
    pub fn proc_type(&self, id: ProcTypeId) -> &ProcType {
        &self.proc_types[id.index()]
    }

    /// All nodes attached to `segment`.
    pub fn nodes_on_segment(&self, segment: SegmentId) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].segment == segment)
            .map(|i| NodeId(i as u32))
            .collect()
    }

    /// Set the externally-imposed CPU load of a node (for availability and
    /// dynamic-rebalance experiments). Affects compute blocks started after
    /// this call.
    pub fn set_external_load(&mut self, node: NodeId, load: f64) {
        self.nodes[node.index()].external_load = load.clamp(0.0, 0.99);
    }

    /// Change the loss probability of a segment mid-run (failure injection).
    pub fn set_loss_probability(&mut self, segment: SegmentId, p: f64) {
        self.segments[segment.index()].loss = p.clamp(0.0, 0.999);
    }

    // ---- fault injection -------------------------------------------------

    /// Install a [`FaultPlan`]: every scheduled fault joins the event queue
    /// at its onset time. Installing an empty plan pushes nothing and is
    /// byte-identical to never calling this. Events whose onset is in the
    /// past take effect at the current instant. The plan is validated
    /// against this network first ([`FaultPlan::validate`]); an event
    /// naming an unknown node/router/segment or an inverted window
    /// rejects the whole plan with [`SimError::InvalidFaultPlan`] before
    /// anything is queued — silently skipping a misaddressed fault would
    /// make a chaos schedule quietly weaker than it claims.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), SimError> {
        let ports: Vec<&[SegmentId]> = self
            .routers
            .iter()
            .map(|r| r.spec.segments.as_slice())
            .collect();
        plan.validate(self.nodes.len(), self.segments.len(), &ports)?;
        for ev in &plan.events {
            self.queue
                .push(ev.at.max(self.run.now), Work::Fault(ev.kind));
        }
        Ok(())
    }

    /// Whether a scheduled fault has fail-stopped this node.
    ///
    /// **Substrate-only**: tests and the MMPS layer may consult this (a
    /// dead host's protocol stack dies with it); recovery layers must
    /// detect failure through message behaviour alone.
    pub fn node_crashed(&self, node: NodeId) -> bool {
        self.nodes[node.index()].crashed
    }

    /// Utilization statistics for a segment.
    pub fn segment_stats(&self, segment: SegmentId) -> SegmentStats {
        self.segments[segment.index()].stats(self.run.now)
    }

    /// Statistics for a router.
    pub fn router_stats(&self, router: RouterId) -> RouterStats {
        let r = &self.routers[router.index()];
        RouterStats {
            frames_forwarded: r.frames_forwarded,
            frames_dropped: r.frames_dropped,
        }
    }

    /// Total datagrams delivered since the start of the run.
    pub fn datagrams_delivered(&self) -> u64 {
        self.run.delivered
    }

    /// Total datagrams dropped since the start of the run.
    pub fn datagrams_dropped(&self) -> u64 {
        self.run.dropped
    }

    /// Lifetime count of scheduler work items processed by
    /// [`next_event`](Network::next_event) — internal frame-pipeline steps
    /// included, not just externally visible events. Divide by wall-clock
    /// seconds for the events/s throughput of the simulator core (the
    /// repo benchmark's `sim.ns_per_event` is its reciprocal).
    pub fn events_processed(&self) -> u64 {
        self.run.events_processed
    }

    /// Whether a route exists between two nodes (same segment, or a chain
    /// of routers joins their segments).
    pub fn route_exists(&self, a: NodeId, b: NodeId) -> bool {
        let sa = self.nodes[a.index()].segment;
        let sb = self.nodes[b.index()].segment;
        sa == sb || self.next_hop(sa, sb).is_some()
    }

    /// Router hops on the path between two nodes' segments (0 when they
    /// share a segment), or `None` when no path exists. Walks the live
    /// next-hop table, so it reports the hop count frames actually pay.
    pub fn hop_count(&self, a: NodeId, b: NodeId) -> Option<u32> {
        self.walk(self.live_table(), a, b)
    }

    /// Router hops between two nodes' segments on the build-time routing
    /// table, unaffected by injected faults. The baseline
    /// [`hop_count`](Network::hop_count) is compared against when a
    /// reroute's detour needs to be distinguished from the planned path.
    pub fn static_hop_count(&self, a: NodeId, b: NodeId) -> Option<u32> {
        self.walk(&self.routes, a, b)
    }

    /// The live next hop between two segments — the entry frames actually
    /// follow right now (the frame path makes this same lookup at every
    /// wire hop). For callers outside the crate it is substrate-only,
    /// like [`node_crashed`](Network::node_crashed): tests and diagnostics
    /// may inspect it; recovery layers must detect reroutes through
    /// observed message behaviour.
    #[inline]
    pub fn next_hop(&self, from: SegmentId, to: SegmentId) -> Option<(RouterId, SegmentId)> {
        self.lookup(self.live_table(), from, to)
    }

    /// The build-time next hop between two segments, unaffected by
    /// injected faults. Substrate-only.
    pub fn static_next_hop(&self, from: SegmentId, to: SegmentId) -> Option<(RouterId, SegmentId)> {
        self.lookup(&self.routes, from, to)
    }

    /// The table frames follow: the live one once any fabric fault has
    /// fired (so flows shift to alternate routers/links wherever the
    /// residual fabric has path diversity), the build-time one until then.
    #[inline]
    fn live_table(&self) -> &[Option<(RouterId, SegmentId)>] {
        self.run.live_routes.as_deref().unwrap_or(&self.routes)
    }

    /// `table`'s next hop for a frame on `from` bound for a node on `to`
    /// (the router to hand it to and the segment that router forwards
    /// onto); `None` also when either id is out of range.
    #[inline]
    fn lookup(
        &self,
        table: &[Option<(RouterId, SegmentId)>],
        from: SegmentId,
        to: SegmentId,
    ) -> Option<(RouterId, SegmentId)> {
        let n = self.segments.len();
        if from.index() >= n || to.index() >= n {
            return None;
        }
        table[from.index() * n + to.index()]
    }

    /// Count router hops from `a`'s segment to `b`'s by following `table`.
    fn walk(&self, table: &[Option<(RouterId, SegmentId)>], a: NodeId, b: NodeId) -> Option<u32> {
        let mut cur = self.nodes[a.index()].segment;
        let dst = self.nodes[b.index()].segment;
        let mut hops = 0;
        while cur != dst {
            cur = self.lookup(table, cur, dst)?.1;
            hops += 1;
        }
        Some(hops)
    }

    /// Number of residual re-BFS passes the network has run. Stays 0 for
    /// the lifetime of any run without router or link faults — the
    /// byte-parity suites pin exactly that.
    pub fn route_recomputes(&self) -> u64 {
        self.run.route_recomputes
    }

    /// Whether any router or link is inside an injected outage window
    /// right now. Substrate-only.
    pub fn fabric_degraded(&self) -> bool {
        self.routers.iter().any(|r| {
            r.is_down(self.run.now) || r.port_down_until.iter().any(|&until| self.run.now < until)
        })
    }

    /// Recompute the live next-hop table over the residual fabric. Called
    /// only at liveness transitions (outage onset, window end), never
    /// from the steady-state frame path.
    fn recompute_live_routes(&mut self) {
        self.run.live_routes = Some(crate::fabric::compute_routes(
            self.segments.len(),
            &self.routers,
            self.run.now,
        ));
        self.run.route_recomputes += 1;
    }

    /// A router or link outage window was applied: schedule the recompute
    /// at the window end and re-BFS the residual fabric now. Overlapping
    /// windows merge via `max` on the entity's `down_until`, so an early
    /// restore recomputes against a still-down entity and changes
    /// nothing; the final restore brings the original routes back.
    fn fabric_fault_applied(&mut self, until: SimTime) {
        if until > self.run.now {
            self.queue.push(until, Work::FabricRestore);
            self.recompute_live_routes();
        }
    }

    // ---- submitting work -------------------------------------------------

    /// Send one datagram from `src` to `dst`. The payload must fit in a
    /// single MTU ([`MAX_DATAGRAM_PAYLOAD`]); larger messages must be
    /// fragmented by the caller (that is the MMPS layer's job).
    ///
    /// Timing charged: sender host processing (serialized per node), then
    /// per wire hop a channel access + transmission, with a router
    /// store-and-forward between consecutive hops (zero routers same
    /// segment, one for the paper's star, more across hierarchical
    /// fabrics), then receiver host processing. Returns the datagram id.
    pub fn send_datagram(
        &mut self,
        src: NodeId,
        dst: NodeId,
        tag: u64,
        payload: Bytes,
    ) -> Result<DgramId, SimError> {
        let wire_len = payload.len() as u32;
        self.send_datagram_sized(src, dst, tag, payload, wire_len)
    }

    /// Like [`send_datagram`](Network::send_datagram) but with an explicit
    /// wire length, so calibration programs can time b-byte packets without
    /// materializing b bytes.
    pub fn send_datagram_sized(
        &mut self,
        src: NodeId,
        dst: NodeId,
        tag: u64,
        payload: Bytes,
        wire_len: u32,
    ) -> Result<DgramId, SimError> {
        if src.index() >= self.nodes.len() {
            return Err(SimError::UnknownNode(src));
        }
        if dst.index() >= self.nodes.len() {
            return Err(SimError::UnknownNode(dst));
        }
        if wire_len as usize > MAX_DATAGRAM_PAYLOAD {
            return Err(SimError::DatagramTooLarge {
                len: wire_len as usize,
                max: MAX_DATAGRAM_PAYLOAD,
            });
        }
        let src_seg = self.nodes[src.index()].segment;
        let dst_seg = self.nodes[dst.index()].segment;
        if src_seg != dst_seg && self.next_hop(src_seg, dst_seg).is_none() {
            // Typed fail-fast: a pair the built fabric never joined is
            // `NoRoute`; a pair that is wired but currently severed by
            // injected outages is `FabricPartitioned`, so callers can
            // stop retrying instead of burning a budget on a dead path.
            return Err(if self.static_next_hop(src_seg, dst_seg).is_some() {
                SimError::FabricPartitioned {
                    from: src_seg,
                    to: dst_seg,
                }
            } else {
                SimError::NoRoute {
                    from: src_seg,
                    to: dst_seg,
                }
            });
        }

        let id = DgramId(self.run.next_dgram);
        self.run.next_dgram += 1;

        // A crashed host's protocol stack is dead: the send is silently
        // swallowed (no frame, no error — fail-stop gives no feedback).
        if self.nodes[src.index()].crashed {
            self.run.dropped += 1;
            return Ok(id);
        }

        let dgram = Datagram {
            id,
            src,
            dst,
            tag,
            payload,
            wire_len,
            corrupted: false,
        };

        // Sender host processing: serialized on the node's protocol stack.
        let pt = &self.proc_types[self.nodes[src.index()].proc_type.index()];
        let host = pt.send_overhead + SimDur::from_secs_f64(wire_len as f64 * pt.send_sec_per_byte);
        let start = self.run.now.max(self.nodes[src.index()].net_free_at);
        let done = start + host;
        self.nodes[src.index()].net_free_at = done;
        let dgram = self.slab.insert(dgram);
        self.queue.push(done, Work::FrameReady { dgram });
        Ok(id)
    }

    /// Start a compute block of `ops` operations of class `class` on
    /// `node`. Completion surfaces as [`SimEvent::ComputeDone`] with the
    /// given `token`. Concurrent compute blocks on the same node do not
    /// serialize — the SPMD runtime issues one per node at a time.
    pub fn start_compute(&mut self, node: NodeId, ops: f64, class: OpClass, token: u64) {
        let n = &self.nodes[node.index()];
        let pt = &self.proc_types[n.proc_type.index()];
        let dur = SimDur::from_secs_f64(ops.max(0.0) * pt.sec_per_op(class) * n.slowdown());
        self.queue
            .push(self.run.now + dur, Work::ComputeDone { node, token });
    }

    /// Register a background cross-traffic flow and start it immediately.
    /// Its datagrams carry tag 0 (which reliability layers ignore) and
    /// contend for channels, routers, and host stacks like any other
    /// traffic. Returns a handle for [`stop_background_flow`].
    ///
    /// While any flow runs, the event queue never drains, so
    /// [`next_event`](Network::next_event) never returns `None` — drive
    /// the simulation by your own completion condition, not by queue
    /// exhaustion.
    ///
    /// [`stop_background_flow`]: Network::stop_background_flow
    pub fn add_background_flow(&mut self, flow: BackgroundFlow) -> usize {
        let idx = self.background.len();
        self.background.push((flow, true));
        self.queue
            .push(self.run.now, Work::BackgroundSend { flow: idx });
        idx
    }

    /// Stop a background flow; in-flight datagrams still complete.
    pub fn stop_background_flow(&mut self, handle: usize) {
        if let Some(entry) = self.background.get_mut(handle) {
            entry.1 = false;
        }
    }

    /// Set a timer that fires after `delay`. `owner` and `token` are
    /// returned in the [`SimEvent::TimerFired`] event.
    pub fn set_timer(&mut self, delay: SimDur, owner: u64, token: u64) -> TimerId {
        let id = TimerId(self.run.next_timer);
        self.run.next_timer += 1;
        self.pending_timers.insert(id);
        self.queue
            .push(self.run.now + delay, Work::Timer { id, owner, token });
        id
    }

    /// Cancel a pending timer. Cancelling an already-fired (or
    /// already-cancelled) timer is a no-op and costs nothing: no state is
    /// retained for ids that are not actually pending.
    pub fn cancel_timer(&mut self, id: TimerId) {
        if self.pending_timers.remove(&id) {
            self.run.cancelled_unpopped += 1;
        }
    }

    // ---- the event loop --------------------------------------------------

    /// Advance the clock to the next externally visible event and return
    /// it, or `None` when the network is quiescent. Every item popped
    /// moves the clock to its time; every push `process` makes is at or
    /// after that time, which is the event queue's one contract.
    pub fn next_event(&mut self) -> Option<SimEvent> {
        while let Some((at, work)) = self.queue.pop() {
            debug_assert!(at >= self.run.now, "time went backwards");
            self.run.now = at;
            self.run.events_processed += 1;
            if let Some(evt) = self.process(work) {
                return Some(evt);
            }
        }
        None
    }

    /// Whether any work (internal or external) is still pending.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Number of pending internal work items (diagnostics). Cancelled
    /// timers whose queue entries have not been reaped yet are *not*
    /// counted — they are dead weight, not pending work.
    pub fn pending_work(&self) -> usize {
        self.queue.len() - self.run.cancelled_unpopped
    }

    fn process(&mut self, work: Work) -> Option<SimEvent> {
        match work {
            Work::FrameReady { dgram } => {
                // The host crashed after queueing but before the NIC got
                // the frame: the frame dies in the dead host's buffers.
                let src = self.slab.get(dgram).src;
                if self.nodes[src.index()].crashed {
                    let d = self.slab.take(dgram);
                    self.run.dropped += 1;
                    return Some(SimEvent::DatagramDropped {
                        at: self.run.now,
                        id: d.id,
                        src: d.src,
                        dst: d.dst,
                        reason: DropReason::NodeDown,
                    });
                }
                let seg = self.nodes[src.index()].segment;
                self.enqueue_frame(seg, dgram)
            }
            Work::TxEnd { segment, dgram } => self.tx_end(segment, dgram),
            Work::RouterForwarded {
                router,
                dgram,
                egress,
            } => {
                let now = self.run.now;
                let r = &mut self.routers[router.index()];
                r.in_flight -= 1;
                // The router (or the egress link) died while the frame
                // sat in its store-and-forward buffer: the frame dies
                // with it. MMPS retransmission covers the loss — over
                // the rerouted path, once the live table has one.
                if r.is_down(now) {
                    r.frames_dropped += 1;
                    return self.drop_frame(dgram, DropReason::RouterDown);
                }
                if !r.port_down_until.is_empty() {
                    let port_dead = r
                        .spec
                        .segments
                        .iter()
                        .position(|&s| s == egress)
                        .is_some_and(|pi| r.port_is_down(pi, now));
                    if port_dead {
                        r.frames_dropped += 1;
                        return self.drop_frame(dgram, DropReason::LinkDown);
                    }
                }
                r.frames_forwarded += 1;
                self.enqueue_frame(egress, dgram)
            }
            Work::Deliver { dgram } => {
                let dgram = self.slab.take(dgram);
                // Receiver crashed between final-hop arrival and the end of
                // its host processing: the delivery never happens.
                if self.nodes[dgram.dst.index()].crashed {
                    self.run.dropped += 1;
                    return Some(SimEvent::DatagramDropped {
                        at: self.run.now,
                        id: dgram.id,
                        src: dgram.src,
                        dst: dgram.dst,
                        reason: DropReason::NodeDown,
                    });
                }
                self.run.delivered += 1;
                Some(SimEvent::DatagramDelivered {
                    at: self.run.now,
                    dgram,
                })
            }
            Work::ComputeDone { node, token } => {
                // A crashed node's in-progress compute block never
                // completes — the event is swallowed, so the rank above
                // simply stops making progress (detectable only through
                // its silence on the network).
                if self.nodes[node.index()].crashed {
                    return None;
                }
                Some(SimEvent::ComputeDone {
                    at: self.run.now,
                    node,
                    token,
                })
            }
            Work::Timer { id, owner, token } => {
                if self.pending_timers.remove(&id) {
                    Some(SimEvent::TimerFired {
                        at: self.run.now,
                        id,
                        owner,
                        token,
                    })
                } else {
                    // Cancelled before firing; reap the tombstone count.
                    self.run.cancelled_unpopped -= 1;
                    None
                }
            }
            Work::BackgroundSend { flow } => {
                let (f, enabled) = self.background.get(flow)?;
                if !*enabled {
                    return None;
                }
                let (src, dst, bytes, period) = (f.src, f.dst, f.bytes, f.period);
                // A crashed source kills its flow.
                if self.nodes[src.index()].crashed {
                    return None;
                }
                // Best effort: background traffic never fails the run.
                let _ = self.send_datagram_sized(src, dst, 0, Bytes::new(), bytes);
                self.queue
                    .push(self.run.now + period, Work::BackgroundSend { flow });
                None
            }
            Work::Fault(kind) => {
                self.apply_fault(kind);
                None
            }
            Work::FabricRestore => {
                self.recompute_live_routes();
                None
            }
            Work::FloodStop(handle) => {
                self.stop_background_flow(handle);
                None
            }
        }
    }

    /// A scheduled fault matured: apply it, clamping its magnitudes to the
    /// ranges [`FaultKind`] documents.
    fn apply_fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::NodeCrash { node } => self.nodes[node.index()].crashed = true,
            FaultKind::NodeRecover { node } => self.nodes[node.index()].crashed = false,
            FaultKind::NodeSlowdown { node, factor } => {
                self.nodes[node.index()].fault_slowdown = factor.max(1.0);
            }
            FaultKind::EndSlowdown { node } => self.nodes[node.index()].fault_slowdown = 1.0,
            FaultKind::ExternalLoad { node, load } => self.set_external_load(node, load),
            FaultKind::RouterOutage { router, until } => {
                let r = &mut self.routers[router.index()];
                r.down_until = r.down_until.max(until);
                self.fabric_fault_applied(until);
            }
            FaultKind::LinkDown {
                router,
                segment,
                until,
            } => {
                if self.routers[router.index()].merge_port_down(segment, until) {
                    self.fabric_fault_applied(until);
                }
            }
            FaultKind::LossBurst {
                segment,
                until,
                loss,
            } => {
                let s = &mut self.segments[segment.index()];
                s.burst_loss = loss.clamp(0.0, 0.999);
                s.burst_until = s.burst_until.max(until);
            }
            FaultKind::CorruptBurst {
                segment,
                until,
                prob,
            } => {
                let s = &mut self.segments[segment.index()];
                s.corrupt_prob = prob.clamp(0.0, 1.0);
                s.corrupt_until = s.corrupt_until.max(until);
            }
            FaultKind::TrafficBurst {
                segment,
                until,
                bytes,
                period,
            } => {
                // The flood rides the ordinary background-flow machinery:
                // frames between the segment's first two nodes, stopped by
                // a scheduled FloodStop. Fewer than two attached nodes
                // means there is nothing to flood between.
                let mut on_seg = (0..self.nodes.len())
                    .filter(|&i| self.nodes[i].segment == segment)
                    .map(|i| NodeId(i as u32));
                if let (Some(src), Some(dst)) = (on_seg.next(), on_seg.next()) {
                    let handle = self.add_background_flow(BackgroundFlow {
                        src,
                        dst,
                        bytes: bytes.min(MAX_DATAGRAM_PAYLOAD as u32),
                        period: period.max(SimDur::from_nanos(1)),
                    });
                    self.queue
                        .push(until.max(self.run.now), Work::FloodStop(handle));
                }
            }
        }
    }

    /// Take an interned frame out of the slab and surface its drop.
    fn drop_frame(&mut self, dgram: DgramHandle, reason: DropReason) -> Option<SimEvent> {
        let d = self.slab.take(dgram);
        self.run.dropped += 1;
        Some(SimEvent::DatagramDropped {
            at: self.run.now,
            id: d.id,
            src: d.src,
            dst: d.dst,
            reason,
        })
    }

    /// A frame wants the channel on `segment`: queue it, and start
    /// transmitting if the channel is idle.
    fn enqueue_frame(&mut self, segment: SegmentId, dgram: DgramHandle) -> Option<SimEvent> {
        let seg = &mut self.segments[segment.index()];
        seg.queue.push_back(dgram);
        if !seg.busy {
            self.start_next_tx(segment);
        }
        None
    }

    /// Pop the next frame off `segment`'s queue and put it on the wire.
    fn start_next_tx(&mut self, segment: SegmentId) {
        let seg = &mut self.segments[segment.index()];
        let Some(dgram) = seg.queue.pop_front() else {
            seg.busy = false;
            return;
        };
        // Access delay: inter-frame gap plus contention that grows with the
        // number of stations still waiting — the linear-in-p load the
        // paper's cost model assumes.
        let access = seg.access_delay();
        let frame_bytes = self.slab.get(dgram).frame_bytes();
        let tx = seg.spec.tx_time(frame_bytes);
        seg.busy = true;
        seg.busy_time += tx;
        seg.frames_sent += 1;
        seg.bytes_sent += frame_bytes as u64;
        let end = self.run.now + access + tx;
        // The frame rides inside the TxEnd item itself: a segment's wire
        // holds at most one frame at a time, so no side slot is needed and
        // the datagram moves straight from queue to work item to handler.
        self.queue.push(end, Work::TxEnd { segment, dgram });
    }

    fn tx_end(&mut self, segment: SegmentId, dgram: DgramHandle) -> Option<SimEvent> {
        // Kick the next queued frame first so channel work continues
        // regardless of what happens to this frame.
        self.start_next_tx(segment);

        // Channel loss? (A loss burst overrides the spec probability but
        // draws from the same seeded RNG stream — and, like the spec path,
        // draws nothing when the effective probability is zero, so an
        // empty fault plan leaves the stream untouched.)
        let loss_p = self.segments[segment.index()].effective_loss(self.run.now);
        if loss_p > 0.0 && self.run.rng.random::<f64>() < loss_p {
            return self.drop_frame(dgram, DropReason::ChannelLoss);
        }

        // Corruption? The frame survives the hop — it already paid for the
        // channel — but arrives bit-mangled; a checksumming receiver will
        // discard it. Like the loss draw, nothing is drawn when no
        // corruption burst is active, so corruption-free runs leave the
        // RNG stream untouched.
        let corrupt_p = self.segments[segment.index()].effective_corrupt(self.run.now);
        if corrupt_p > 0.0 && self.run.rng.random::<f64>() < corrupt_p {
            self.slab.get_mut(dgram).corrupted = true;
        }

        let (dst, wire_len, frame_bytes) = {
            let d = self.slab.get(dgram);
            (d.dst, d.wire_len, d.frame_bytes())
        };
        let dst_seg = self.nodes[dst.index()].segment;
        if dst_seg == segment {
            // A crashed receiver's interface hears nothing.
            if self.nodes[dst.index()].crashed {
                return self.drop_frame(dgram, DropReason::NodeDown);
            }
            // Final hop: receiver host processing, then delivery.
            let pt = &self.proc_types[self.nodes[dst.index()].proc_type.index()];
            let host =
                pt.recv_overhead + SimDur::from_secs_f64(wire_len as f64 * pt.recv_sec_per_byte);
            let start = self.run.now.max(self.nodes[dst.index()].net_free_at);
            let done = start + host;
            self.nodes[dst.index()].net_free_at = done;
            self.queue.push(done, Work::Deliver { dgram });
            None
        } else {
            // Cross-segment: the routing table names the next router on
            // the path and the segment it forwards onto; each hop repeats
            // this step until the frame lands on the destination segment.
            // The lookup is against the *live* table, so a frame mid-path
            // reroutes hop by hop around outages that struck after it was
            // sent — and dies here when the residual fabric no longer
            // joins the pair at all.
            let Some((router, egress)) = self.next_hop(segment, dst_seg) else {
                return self.drop_frame(dgram, DropReason::LinkDown);
            };
            let r = &mut self.routers[router.index()];
            if self.run.now < r.down_until {
                r.frames_dropped += 1;
                return self.drop_frame(dgram, DropReason::RouterDown);
            }
            if r.in_flight >= r.spec.buffer_frames {
                r.frames_dropped += 1;
                return self.drop_frame(dgram, DropReason::RouterOverflow);
            }
            let fwd = r.spec.forward_time(wire_len);
            let start = self.run.now.max(r.free_at);
            let mut done = start + fwd;
            r.free_at = done;
            // Per-direction port bandwidth: after the forwarding engine,
            // the frame serializes through its egress port, independently
            // of other ports. `None` (the default) skips this entirely.
            if let Some(ptx) = r.spec.port_tx_time(frame_bytes) {
                let port = r
                    .spec
                    .segments
                    .iter()
                    .position(|&s| s == egress)
                    .expect("egress is one of the router's ports");
                let dep = done.max(r.port_free_at[port]) + ptx;
                r.port_free_at[port] = dep;
                done = dep;
            }
            r.in_flight += 1;
            self.queue.push(
                done,
                Work::RouterForwarded {
                    router,
                    dgram,
                    egress,
                },
            );
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The queue carries a fault's magnitudes exactly as the plan wrote
    /// them; the clamps [`FaultKind`] documents are applied when the fault
    /// matures. So each is checked on a live network: nothing moves at
    /// install, and the bound holds once the onset has been processed.
    #[test]
    fn fault_magnitudes_are_clamped_when_the_fault_matures() {
        let (n0, s0) = (NodeId(0), SegmentId(0));
        let (at, until) = (SimTime(5_000), SimTime(5_010));
        let flood = |bytes, ns| FaultPlan::new().traffic_burst(s0, at, until, bytes, SimDur(ns));
        type Probe = fn(&Network) -> f64;
        let cases: [(&str, FaultPlan, Probe, f64); 8] = [
            (
                "slowdown factor >= 1",
                FaultPlan::new().slow(at, n0, 0.25),
                |n| n.nodes[0].fault_slowdown,
                1.0,
            ),
            (
                "external load <= 0.99",
                FaultPlan::new().load(at, n0, 7.0),
                |n| n.nodes[0].external_load,
                0.99,
            ),
            (
                "external load >= 0",
                FaultPlan::new().load(at, n0, -1.0),
                |n| n.nodes[0].external_load,
                0.0,
            ),
            (
                "burst loss <= 0.999",
                FaultPlan::new().loss_burst(s0, at, until, 1.5),
                |n| n.segments[0].burst_loss,
                0.999,
            ),
            (
                "burst loss >= 0",
                FaultPlan::new().loss_burst(s0, at, until, -0.5),
                |n| n.segments[0].burst_loss,
                0.0,
            ),
            (
                "corruption probability <= 1",
                FaultPlan::new().corrupt_burst(s0, at, until, 2.0),
                |n| n.segments[0].corrupt_prob,
                1.0,
            ),
            (
                "flood frame <= MTU",
                flood(u32::MAX, 4),
                |n| {
                    n.background
                        .first()
                        .map_or(-1.0, |(f, _)| f64::from(f.bytes))
                },
                MAX_DATAGRAM_PAYLOAD as f64,
            ),
            (
                "flood period >= 1 ns",
                flood(64, 0),
                |n| {
                    n.background
                        .first()
                        .map_or(-1.0, |(f, _)| f.period.0 as f64)
                },
                1.0,
            ),
        ];
        for (name, plan, probe, want) in cases {
            let mut b = NetworkBuilder::new(1);
            let pt = b.add_proc_type(ProcType::sparcstation_2());
            let seg = b.add_segment(SegmentSpec::ethernet_10mbps());
            b.add_node(pt, seg);
            b.add_node(pt, seg);
            let mut net = b.build().expect("network");
            let before = probe(&net);
            net.install_fault_plan(&plan).expect("valid plan");
            assert_eq!(probe(&net), before, "{name}: applied at install");
            while net.next_event().is_some() {}
            assert_eq!(probe(&net), want, "{name}");
        }
    }
}
