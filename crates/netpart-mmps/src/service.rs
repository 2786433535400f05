//! The MMPS service: reliable messages over unreliable simulated datagrams.
//!
//! Mirrors the role of the paper's MMPS library \[5\]: "a reliable
//! heterogeneous message-passing system based on UDP datagrams". The
//! service owns the [`Network`] and layers on top of it:
//!
//! * **fragmentation** — messages larger than one MTU are split into
//!   header-carrying fragments;
//! * **reliability** — receivers acknowledge complete messages; senders
//!   retransmit on timeout with a size-scaled first RTO and give up after
//!   [`MAX_RETRIES`];
//! * **coercion** — when sender and receiver data formats differ, the
//!   receiver pays a per-byte + per-message conversion cost before
//!   delivery (the paper's `T_coerce`).
//!
//! One simulation shortcut is worth knowing: fragment *timing* is fully
//! simulated (each fragment is a real frame contending for channels and
//! routers), but the delivered payload is the sender's original buffer
//! handed over zero-copy once the last fragment arrives, and the frames
//! themselves carry only their wire size, no bytes. Loss and
//! retransmission therefore affect timing and statistics, never content.

use bytes::Bytes;

use netpart_sim::{FastMap, Network, NodeId, SimDur, SimError, SimEvent, SimTime, TimerId};

use crate::config::{
    rto_for, ACK_BYTES, COERCE_PER_BYTE, COERCE_PER_MSG, HEADER_BYTES, MAX_RETRIES, MIN_RTO,
    RETX_FRAGMENT_SPACING,
};
use crate::message::{pack_tag, unpack_tag, FragPlan, MsgId, WireKind};
use crate::rtt::RttEstimator;

/// Timer owner word reserved for MMPS-internal timers. User timers set
/// through [`Mmps::set_timer`] must use a smaller owner value.
pub const OWNER_MMPS: u64 = u64::MAX - 1;

const TOKEN_KIND_SHIFT: u32 = 62;
const TOKEN_FRAG_SHIFT: u32 = 42;
const TOKEN_RETX: u64 = 0;
const TOKEN_DELIVER: u64 = 1;
const TOKEN_FRAG: u64 = 2;

fn token(kind: u64, msg: u64) -> u64 {
    (kind << TOKEN_KIND_SHIFT) | msg
}

fn frag_token(msg: u64, frag: u32) -> u64 {
    (TOKEN_FRAG << TOKEN_KIND_SHIFT) | ((frag as u64) << TOKEN_FRAG_SHIFT) | msg
}

/// Events surfaced by [`Mmps::next_event`].
#[derive(Debug)]
pub enum MmpsEvent {
    /// A complete message arrived (after coercion, if any).
    MessageDelivered {
        /// Delivery time.
        at: SimTime,
        /// Sender node.
        src: NodeId,
        /// Receiver node.
        dst: NodeId,
        /// User tag supplied at send time.
        tag: u64,
        /// The payload (empty for dummy-sized calibration messages).
        payload: Bytes,
        /// Logical message length in bytes (equals `payload.len()` except
        /// for dummy messages).
        len: u32,
    },
    /// The receiver acknowledged a message this node sent.
    MessageAcked {
        /// Ack receipt time.
        at: SimTime,
        /// The message.
        msg: MsgId,
        /// Original sender (the node that now knows its send completed).
        src: NodeId,
    },
    /// A message exhausted its retransmission budget: [`MAX_RETRIES`]
    /// retries on a ladder that starts at [`rto_for`] and doubles up to
    /// 64×. The peer is presumed unreachable. This only ever fires at a
    /// *live* sender — a crashed node's pending retransmissions die
    /// silently with its protocol stack — so the `dst` field names the
    /// suspect, never the witness.
    MessageFailed {
        /// Give-up time.
        at: SimTime,
        /// The message.
        msg: MsgId,
        /// Sender.
        src: NodeId,
        /// Intended receiver.
        dst: NodeId,
        /// User tag supplied at send time (lets layers above attribute the
        /// failure to an epoch/cycle without a lookup table).
        tag: u64,
        /// Total transmission attempts made (original send + retries).
        attempts: u32,
    },
    /// Pass-through of [`SimEvent::ComputeDone`].
    ComputeDone {
        /// Completion time.
        at: SimTime,
        /// Node the block ran on.
        node: NodeId,
        /// Caller token.
        token: u64,
    },
    /// Pass-through of a user timer.
    TimerFired {
        /// Fire time.
        at: SimTime,
        /// Caller's owner word.
        owner: u64,
        /// Caller's token word.
        token: u64,
    },
}

/// Counters maintained by the service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MmpsStats {
    /// Messages submitted for sending.
    pub messages_sent: u64,
    /// Messages delivered to receivers.
    pub messages_delivered: u64,
    /// Acks received by senders.
    pub messages_acked: u64,
    /// Whole-message retransmissions performed.
    pub retransmissions: u64,
    /// Messages that exhausted retries.
    pub messages_failed: u64,
    /// Datagrams observed dropped (loss or router overflow).
    pub datagrams_dropped: u64,
    /// Duplicate completed messages re-acknowledged.
    pub duplicates: u64,
    /// Frames discarded by the receive-side frame checksum (corruption
    /// fault injection). The retransmission budget recovers the content.
    pub corrupt_dropped: u64,
    /// Always 0: the service has no congestion window to halve. Kept only
    /// because the repo benchmark (`benchmark/`) still reports it; it goes
    /// with that benchmark's next schema change.
    pub window_halvings: u64,
}

struct OutMsg {
    src: NodeId,
    dst: NodeId,
    user_tag: u64,
    payload: Bytes,
    len: u32,
    plan: FragPlan,
    retries: u32,
    timer: TimerId,
    /// When the original transmission was submitted (for RTT sampling).
    sent_at: SimTime,
}

struct InMsg {
    got: Vec<bool>,
    n_got: u32,
}

/// How many retired fragment bitmaps the pool keeps. In a cycle loop the
/// number of concurrently open incoming messages is bounded by the fan-in
/// of one exchange, so a small cap covers steady state while bounding the
/// memory a pathological burst could pin.
const FRAG_POOL_CAP: usize = 64;

/// The reliable message-passing service. See the [module docs](self).
pub struct Mmps {
    net: Network,
    next_msg: u64,
    outgoing: FastMap<u64, OutMsg>,
    incoming: FastMap<u64, InMsg>,
    /// One bit per message id, set once the message is delivered, kept to
    /// re-ack duplicates. Ids are dense from 0 (per build and per
    /// [`reset`](Mmps::reset)), so word `id / 64` holds id's bit.
    completed: Vec<u64>,
    /// Deliveries delayed by coercion: msg id → ready event.
    pending_delivery: FastMap<u64, (NodeId, NodeId, u64, Bytes, u32)>,
    /// Per-(sender, receiver) round-trip estimators for adaptive RTO.
    rtt: FastMap<(NodeId, NodeId), RttEstimator>,
    /// Retired fragment bitmaps, recycled into new [`InMsg`]s so a
    /// steady-state cycle loop stops allocating one `Vec<bool>` per
    /// message received.
    frag_pool: Vec<Vec<bool>>,
    stats: MmpsStats,
}

impl Mmps {
    /// Wrap a network.
    pub fn with_defaults(net: Network) -> Mmps {
        Mmps {
            net,
            next_msg: 0,
            outgoing: FastMap::default(),
            incoming: FastMap::default(),
            completed: Vec::new(),
            pending_delivery: FastMap::default(),
            rtt: FastMap::default(),
            frag_pool: Vec::new(),
            stats: MmpsStats::default(),
        }
    }

    /// Return the service and its network to their just-built state:
    /// [`Network::reset`], message ids from 0, every message, delivery,
    /// RTT estimate and counter gone. The tables keep their capacity and
    /// the fragment-bitmap pool its bitmaps; none of them is read in an
    /// order that depends on capacity, so a run after `reset` is the run
    /// on a fresh build.
    pub fn reset(&mut self) {
        // Destructured, so a field added to the service does not compile
        // until it is reset here too.
        let Mmps {
            net,
            next_msg,
            outgoing,
            incoming,
            completed,
            pending_delivery,
            rtt,
            frag_pool: _,
            stats,
        } = self;
        net.reset();
        *next_msg = 0;
        outgoing.clear();
        incoming.clear();
        completed.clear();
        pending_delivery.clear();
        rtt.clear();
        *stats = MmpsStats::default();
    }

    /// Take an all-false fragment bitmap of length `n` from the pool, or
    /// allocate one.
    fn frag_bitmap(pool: &mut Vec<Vec<bool>>, n: usize) -> Vec<bool> {
        match pool.pop() {
            Some(mut v) => {
                v.clear();
                v.resize(n, false);
                v
            }
            None => vec![false; n],
        }
    }

    /// Whether message `msg` was delivered (its bit in `completed`).
    fn is_completed(&self, msg: u64) -> bool {
        self.completed
            .get((msg / 64) as usize)
            .is_some_and(|w| w >> (msg % 64) & 1 == 1)
    }

    /// Record message `msg` as delivered.
    fn mark_completed(&mut self, msg: u64) {
        let word = (msg / 64) as usize;
        if word >= self.completed.len() {
            self.completed.resize(word + 1, 0);
        }
        self.completed[word] |= 1 << (msg % 64);
    }

    /// Retire a finished incoming message's bitmap back into the pool.
    fn retire_incoming(&mut self, msg: u64) {
        if let Some(in_msg) = self.incoming.remove(&msg) {
            if self.frag_pool.len() < FRAG_POOL_CAP {
                self.frag_pool.push(in_msg.got);
            }
        }
    }

    /// The wrapped network (compute, timers, loads, statistics).
    pub fn net(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Read-only view of the wrapped network.
    pub fn net_ref(&self) -> &Network {
        &self.net
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// Service counters.
    pub fn stats(&self) -> MmpsStats {
        self.stats
    }

    /// Send `payload` from `src` to `dst` with user `tag`. Returns the
    /// message id; completion surfaces as [`MmpsEvent::MessageAcked`] at
    /// the sender and [`MmpsEvent::MessageDelivered`] at the receiver.
    pub fn send_message(
        &mut self,
        src: NodeId,
        dst: NodeId,
        tag: u64,
        payload: Bytes,
    ) -> Result<MsgId, SimError> {
        let len = payload.len() as u32;
        self.send_inner(src, dst, tag, payload, len)
    }

    /// Send a message whose timing corresponds to `len` bytes without
    /// materializing a buffer (used by the calibration programs, which
    /// time b-byte cycles for many values of b).
    pub fn send_message_dummy(
        &mut self,
        src: NodeId,
        dst: NodeId,
        tag: u64,
        len: u32,
    ) -> Result<MsgId, SimError> {
        self.send_inner(src, dst, tag, Bytes::new(), len)
    }

    fn send_inner(
        &mut self,
        src: NodeId,
        dst: NodeId,
        tag: u64,
        payload: Bytes,
        len: u32,
    ) -> Result<MsgId, SimError> {
        let msg = MsgId(self.next_msg);
        self.next_msg += 1;
        self.stats.messages_sent += 1;

        if src == dst {
            // Loopback: no wire, just a small local handoff.
            self.pending_delivery
                .insert(msg.0, (src, dst, tag, payload, len));
            self.net.set_timer(
                SimDur::from_micros(50),
                OWNER_MMPS,
                token(TOKEN_DELIVER, msg.0),
            );
            return Ok(msg);
        }

        self.transmit(msg.0, src, dst, tag, payload, len)?;
        Ok(msg)
    }

    /// Put a message on the wire: burst its fragments and arm the
    /// retransmission timer.
    fn transmit(
        &mut self,
        msg: u64,
        src: NodeId,
        dst: NodeId,
        tag: u64,
        payload: Bytes,
        len: u32,
    ) -> Result<(), SimError> {
        let plan = FragPlan::new(len, HEADER_BYTES);
        for i in 0..plan.n_frags {
            self.send_fragment(msg, src, dst, &plan, i)?;
        }
        let timer = self.net.set_timer(
            self.effective_rto(src, dst, len),
            OWNER_MMPS,
            token(TOKEN_RETX, msg),
        );
        let sent_at = self.net.now();
        self.outgoing.insert(
            msg,
            OutMsg {
                src,
                dst,
                user_tag: tag,
                payload,
                len,
                plan,
                retries: 0,
                timer,
                sent_at,
            },
        );
        Ok(())
    }

    /// Put fragment `i` of message `msg` on the wire. The frame carries
    /// the fragment's wire size but no bytes: the receiver is handed the
    /// sender's whole buffer once the last fragment arrives, so nothing
    /// reads a fragment's content.
    fn send_fragment(
        &mut self,
        msg: u64,
        src: NodeId,
        dst: NodeId,
        plan: &FragPlan,
        i: u32,
    ) -> Result<(), SimError> {
        let (s, e) = plan.range(i);
        self.net.send_datagram_sized(
            src,
            dst,
            pack_tag(WireKind::Data, MsgId(msg), i),
            (e - s) + HEADER_BYTES,
        )?;
        Ok(())
    }

    /// Acknowledge `msg` from its receiver `from` back to its sender `to`.
    /// Best effort: a lost or refused ack is what retransmission is for.
    fn send_ack(&mut self, msg: u64, from: NodeId, to: NodeId) {
        let _ = self.net.send_datagram_sized(
            from,
            to,
            pack_tag(WireKind::Ack, MsgId(msg), 0),
            ACK_BYTES,
        );
    }

    /// Give up on `msg`: drop its state and report the failure.
    fn fail_message(&mut self, at: SimTime, msg: u64) -> Option<MmpsEvent> {
        let out = self.outgoing.remove(&msg)?;
        self.stats.messages_failed += 1;
        self.retire_incoming(msg);
        Some(MmpsEvent::MessageFailed {
            at,
            msg: MsgId(msg),
            src: out.src,
            dst: out.dst,
            tag: out.user_tag,
            attempts: out.retries,
        })
    }

    /// Start a compute block (pass-through to the network).
    pub fn start_compute(
        &mut self,
        node: NodeId,
        ops: f64,
        class: netpart_sim::OpClass,
        token: u64,
    ) {
        self.net.start_compute(node, ops, class, token);
    }

    /// Set a user timer. `owner` must be below [`OWNER_MMPS`].
    pub fn set_timer(&mut self, delay: SimDur, owner: u64, tok: u64) -> TimerId {
        assert!(owner < OWNER_MMPS, "owner word reserved for MMPS");
        self.net.set_timer(delay, owner, tok)
    }

    /// Advance the simulation to the next message-level event.
    pub fn next_event(&mut self) -> Option<MmpsEvent> {
        loop {
            let evt = self.net.next_event()?;
            match evt {
                SimEvent::DatagramDelivered { at, dgram } => {
                    if let Some(out) = self.on_datagram(at, dgram) {
                        return Some(out);
                    }
                }
                SimEvent::DatagramDropped { .. } => {
                    self.stats.datagrams_dropped += 1;
                }
                SimEvent::ComputeDone { at, node, token } => {
                    return Some(MmpsEvent::ComputeDone { at, node, token });
                }
                SimEvent::TimerFired {
                    at,
                    owner,
                    token: t,
                    ..
                } => {
                    if owner == OWNER_MMPS {
                        if let Some(out) = self.on_mmps_timer(at, t) {
                            return Some(out);
                        }
                    } else {
                        return Some(MmpsEvent::TimerFired {
                            at,
                            owner,
                            token: t,
                        });
                    }
                }
            }
        }
    }

    fn on_datagram(&mut self, at: SimTime, dgram: netpart_sim::Datagram) -> Option<MmpsEvent> {
        // Frame checksum: a frame flagged corrupted by the wire is
        // discarded before any protocol accounting — data and acks alike.
        // The sender's retransmission budget recovers the content, so a
        // corruption burst affects timing and statistics, never bytes.
        if dgram.corrupted {
            self.stats.corrupt_dropped += 1;
            return None;
        }
        let (kind, msg, frag) = unpack_tag(dgram.tag)?;
        match kind {
            WireKind::Ack => {
                let out = self.outgoing.remove(&msg)?;
                self.net.cancel_timer(out.timer);
                self.stats.messages_acked += 1;
                // Karn's rule: only unambiguous (never-retransmitted)
                // exchanges produce RTT samples.
                if out.retries == 0 {
                    self.rtt
                        .entry((out.src, out.dst))
                        .or_default()
                        .observe(at.since(out.sent_at));
                }
                Some(MmpsEvent::MessageAcked {
                    at,
                    msg: MsgId(msg),
                    src: out.src,
                })
            }
            WireKind::Data => {
                if self.is_completed(msg) {
                    // Duplicate of an already-delivered message: re-ack.
                    // Every data fragment, first send or retransmission,
                    // leaves from the message's sender.
                    self.stats.duplicates += 1;
                    self.send_ack(msg, dgram.dst, dgram.src);
                    return None;
                }
                let out = self.outgoing.get(&msg)?;
                let n_frags = out.plan.n_frags;
                let pool = &mut self.frag_pool;
                let entry = self.incoming.entry(msg).or_insert_with(|| InMsg {
                    got: Self::frag_bitmap(pool, n_frags as usize),
                    n_got: 0,
                });
                let idx = frag as usize;
                if idx >= entry.got.len() || entry.got[idx] {
                    return None;
                }
                entry.got[idx] = true;
                entry.n_got += 1;
                if entry.n_got < n_frags {
                    return None;
                }
                // Complete: ack, then deliver (possibly after coercion).
                // The payload is *moved* out of the sender's record rather
                // than cloned: the receiver has the only remaining use for
                // its content. A later retransmission (lost ack) needs only
                // the fragment plan, since frames carry wire sizes and no
                // bytes, and duplicates of a completed message are
                // re-acked without being delivered.
                self.retire_incoming(msg);
                let out = self.outgoing.get_mut(&msg).expect("checked above");
                let payload = std::mem::take(&mut out.payload);
                let (src, dst, tag, len) = (out.src, out.dst, out.user_tag, out.len);
                self.mark_completed(msg);
                self.send_ack(msg, dst, src);
                let coerce = self.coercion_cost(src, dst, len);
                if coerce > SimDur::ZERO {
                    self.pending_delivery
                        .insert(msg, (src, dst, tag, payload, len));
                    self.net
                        .set_timer(coerce, OWNER_MMPS, token(TOKEN_DELIVER, msg));
                    None
                } else {
                    self.stats.messages_delivered += 1;
                    Some(MmpsEvent::MessageDelivered {
                        at,
                        src,
                        dst,
                        tag,
                        payload,
                        len,
                    })
                }
            }
        }
    }

    fn on_mmps_timer(&mut self, at: SimTime, tok: u64) -> Option<MmpsEvent> {
        let kind = tok >> TOKEN_KIND_SHIFT;
        // For RETX/DELIVER the payload is the message id; TOKEN_FRAG packs
        // (fragment, message) and re-extracts both below.
        let msg = tok & ((1 << TOKEN_KIND_SHIFT) - 1);
        match kind {
            TOKEN_DELIVER => {
                let (src, dst, tag, payload, len) = self.pending_delivery.remove(&msg)?;
                // The receiver crashed while the delivery (loopback handoff
                // or coercion) was in progress: it never sees the message.
                if self.net.node_crashed(dst) {
                    return None;
                }
                self.stats.messages_delivered += 1;
                Some(MmpsEvent::MessageDelivered {
                    at,
                    src,
                    dst,
                    tag,
                    payload,
                    len,
                })
            }
            TOKEN_RETX => {
                let out = self.outgoing.get_mut(&msg)?;
                // A crashed sender's protocol stack died with it: its
                // pending retransmissions stop silently. No MessageFailed
                // fires — failure *detection* belongs to live nodes whose
                // own sends to the dead peer go unanswered.
                if self.net.node_crashed(out.src) {
                    self.outgoing.remove(&msg);
                    self.retire_incoming(msg);
                    return None;
                }
                out.retries += 1;
                if out.retries > MAX_RETRIES {
                    return self.fail_message(at, msg);
                }
                self.stats.retransmissions += 1;
                let (src, dst, plan, len, retries) = {
                    let o = &*out;
                    (o.src, o.dst, o.plan, o.len, o.retries)
                };
                // Pace the fragments out instead of re-bursting: a hop
                // that dropped the tail of the original burst (slow
                // router, tiny buffer) gets room to drain. Spacing doubles
                // with each retry.
                let spacing = RETX_FRAGMENT_SPACING.saturating_mul(1u64 << (retries - 1).min(6));
                for i in 0..plan.n_frags {
                    self.net.set_timer(
                        SimDur::from_nanos(spacing.as_nanos() * i as u64),
                        OWNER_MMPS,
                        frag_token(msg, i),
                    );
                }
                let base = self.effective_rto(src, dst, len);
                let spread = SimDur::from_nanos(spacing.as_nanos() * plan.n_frags as u64);
                let delay = base.saturating_mul(1u64 << retries.min(6)) + spread;
                let timer = self
                    .net
                    .set_timer(delay, OWNER_MMPS, token(TOKEN_RETX, msg));
                self.outgoing.get_mut(&msg).expect("present").timer = timer;
                None
            }
            TOKEN_FRAG => {
                let msg_id = msg & ((1 << TOKEN_FRAG_SHIFT) - 1);
                let frag = ((tok >> TOKEN_FRAG_SHIFT)
                    & ((1 << (TOKEN_KIND_SHIFT - TOKEN_FRAG_SHIFT)) - 1))
                    as u32;
                let out = self.outgoing.get(&msg_id)?; // acked meanwhile: skip
                let (src, dst, plan) = (out.src, out.dst, out.plan);
                match self.send_fragment(msg_id, src, dst, &plan, frag) {
                    // Every router path to the destination is down: fail
                    // the message *now* instead of burning the remaining
                    // retry budget on frames a partitioned fabric can only
                    // refuse. (Other errors keep the old behaviour — the
                    // retransmission timer decides the message's fate.)
                    Err(SimError::FabricPartitioned { .. }) => self.fail_message(at, msg_id),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// The retransmission timeout for a `len`-byte message from `src` to
    /// `dst`: the adaptive estimate `srtt + max(4·rttvar, MIN_RTO)` once
    /// the pair has an RTT sample, the static size-scaled RTO until then.
    fn effective_rto(&self, src: NodeId, dst: NodeId, len: u32) -> netpart_sim::SimDur {
        self.rtt
            .get(&(src, dst))
            .and_then(|est| est.rto(MIN_RTO))
            .unwrap_or_else(|| rto_for(len))
    }

    /// Drop all protocol state involving `node`: pending outgoing messages
    /// (their retransmission timers are cancelled), partially received
    /// messages, deliveries in flight, and RTT history. Call this once a
    /// peer has been *declared* dead by a layer above — it keeps a long
    /// recovery timeline from dragging a tail of doomed retransmissions
    /// (and their eventual `MessageFailed`s) into later epochs.
    pub fn abort_peer(&mut self, node: NodeId) {
        let doomed: Vec<u64> = self
            .outgoing
            .iter()
            .filter(|(_, o)| o.src == node || o.dst == node)
            .map(|(&id, _)| id)
            .collect();
        for id in doomed {
            if let Some(out) = self.outgoing.remove(&id) {
                self.net.cancel_timer(out.timer);
            }
            self.retire_incoming(id);
            self.pending_delivery.remove(&id);
        }
        self.pending_delivery
            .retain(|_, (src, dst, ..)| *src != node && *dst != node);
        self.rtt.retain(|(a, b), _| *a != node && *b != node);
    }

    /// Observed smoothed RTT between two nodes, if any acks completed.
    pub fn smoothed_rtt(&self, src: NodeId, dst: NodeId) -> Option<netpart_sim::SimDur> {
        self.rtt.get(&(src, dst)).and_then(|e| e.srtt())
    }

    /// Coercion delay for a message of `len` bytes from `src` to `dst`
    /// (zero when data formats match).
    pub fn coercion_cost(&self, src: NodeId, dst: NodeId, len: u32) -> SimDur {
        if src == dst {
            return SimDur::ZERO;
        }
        let f_src = self.net.proc_type_of(src).data_format;
        let f_dst = self.net.proc_type_of(dst).data_format;
        if f_src == f_dst {
            SimDur::ZERO
        } else {
            COERCE_PER_MSG + SimDur::from_nanos(COERCE_PER_BYTE.as_nanos() * len as u64)
        }
    }
}
