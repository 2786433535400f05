//! Message identities and fragmentation math.

use netpart_sim::MAX_DATAGRAM_PAYLOAD;

/// Identifier of an MMPS message, unique per service instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub u64);

/// Kinds of datagram the service puts on the wire, encoded in the upper
/// bits of the simulator's datagram tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WireKind {
    Data,
    Ack,
}

const KIND_SHIFT: u32 = 62;
const MSG_SHIFT: u32 = 20;
const FRAG_MASK: u64 = (1 << MSG_SHIFT) - 1;
const MSG_MASK: u64 = (1 << (KIND_SHIFT - MSG_SHIFT)) - 1;

/// Pack (kind, message id, fragment index) into a datagram tag.
pub(crate) fn pack_tag(kind: WireKind, msg: MsgId, frag: u32) -> u64 {
    let k = match kind {
        WireKind::Data => 1u64,
        WireKind::Ack => 2u64,
    };
    debug_assert!(frag as u64 <= FRAG_MASK, "fragment index overflow");
    (k << KIND_SHIFT) | ((msg.0 & MSG_MASK) << MSG_SHIFT) | (frag as u64 & FRAG_MASK)
}

/// Unpack a datagram tag.
pub(crate) fn unpack_tag(tag: u64) -> Option<(WireKind, u64, u32)> {
    let kind = match tag >> KIND_SHIFT {
        1 => WireKind::Data,
        2 => WireKind::Ack,
        _ => return None,
    };
    Some((
        kind,
        (tag >> MSG_SHIFT) & MSG_MASK,
        (tag & FRAG_MASK) as u32,
    ))
}

/// Width of the rank field in a cycle tag.
const CYCLE_RANK_BITS: u32 = 16;
/// Width of the per-(cycle, peer) sequence field in a cycle tag.
const CYCLE_SEQ_BITS: u32 = 8;
const CYCLE_SHIFT: u32 = CYCLE_RANK_BITS + CYCLE_SEQ_BITS;
const CYCLE_RANK_MASK: u64 = (1 << CYCLE_RANK_BITS) - 1;
const CYCLE_SEQ_MASK: u64 = (1 << CYCLE_SEQ_BITS) - 1;

/// The SPMD cycle-tag layout: `(cycle+1) << 24 | from << 8 | seq`.
///
/// This is the *message*-level tag the cycle engine hands to
/// [`Mmps::send_message`](crate::Mmps::send_message) so a receiver can
/// demultiplex deliveries by (cycle, sender, sequence) — distinct from the
/// datagram-level `pack_tag` wire encoding. The cycle component `0` is
/// reserved for the startup data distribution, which is why the cycle
/// number is stored off by one.
///
/// The rank field is 16 bits wide; ranks `≥ 2^16` are rejected by a
/// `debug_assert!` and masked in release builds (the simulator cannot
/// instantiate that many stations on a segment, so this is a true
/// invariant, not a fallible path).
pub fn tag_of(cycle_plus1: u64, from: usize, seq: u8) -> u64 {
    debug_assert!(
        (from as u64) <= CYCLE_RANK_MASK,
        "rank {from} overflows the 16-bit cycle-tag rank field"
    );
    (cycle_plus1 << CYCLE_SHIFT) | ((from as u64 & CYCLE_RANK_MASK) << CYCLE_SEQ_BITS) | seq as u64
}

/// Inverse of [`tag_of`]: split a cycle tag into
/// `(cycle+1, sending rank, sequence)`.
pub fn untag(tag: u64) -> (u64, usize, u8) {
    (
        tag >> CYCLE_SHIFT,
        ((tag >> CYCLE_SEQ_BITS) & CYCLE_RANK_MASK) as usize,
        (tag & CYCLE_SEQ_MASK) as u8,
    )
}

/// Liveness-ping flag, the top bit of the epoch-stripped cycle-tag space.
///
/// When the cycle engine quiesces with unfinished ranks it cannot tell a
/// logical deadlock from a crashed peer whose traffic simply stopped (a
/// fail-stop node neither sends nor provokes retransmission failures at
/// others once their in-flight messages drain). Blocked ranks therefore
/// ping the peers they are waiting on: a ping that the message layer
/// gives up on names the dead node, while a delivered ping proves the
/// peer's stack is alive and changes no task state. The flag sits at bit
/// 47 — above any reachable `(cycle+1) << 24` component (cycles stay far
/// below 2^23) and below the epoch field, so pings are epoch-filtered
/// like all other engine traffic.
pub const PING_TAG: u64 = 1 << 47;

/// Checkpoint-replica flag, one bit below [`PING_TAG`].
///
/// When a replicated checkpoint store is active, each rank mirrors its
/// freshly captured checkpoint blob to a buddy rank over ordinary MMPS
/// traffic, tagged `CKPT_TAG | tag_of(cycle+1, owner, 0)`. Bit 46 is still
/// above any reachable `(cycle+1) << 24` component and below both the ping
/// flag and the epoch field, so replica traffic demultiplexes cleanly,
/// epoch-filters like everything else, and a failed replica send enters
/// the normal failure-detection path (the buddy is a real peer).
pub const CKPT_TAG: u64 = 1 << 46;

/// Bit position of the epoch field layered on top of cycle tags.
const EPOCH_SHIFT: u32 = 48;
const EPOCH_MASK: u64 = (1 << (64 - EPOCH_SHIFT)) - 1;

/// Stamp an execution epoch into the high bits of a cycle tag.
///
/// When consecutive engine runs share one network timeline (the recovery
/// path re-runs a computation on the survivors after a crash), messages
/// from an abandoned run can still be in flight when the next run starts.
/// The epoch field — 16 bits above the cycle component, which real
/// workloads never reach — lets the engine discard that stale traffic by
/// value, with no bookkeeping of outstanding message ids. Epoch 0 is the
/// default for standalone runs (and what non-engine protocols such as the
/// availability round implicitly use), so tags are unchanged unless a
/// recovery layer opts in.
pub fn with_epoch(epoch: u16, tag: u64) -> u64 {
    debug_assert!(
        tag >> EPOCH_SHIFT == 0,
        "cycle tag already uses the epoch bits"
    );
    ((epoch as u64) << EPOCH_SHIFT) | tag
}

/// The epoch stamped into a tag (0 for un-stamped tags).
pub fn epoch_of(tag: u64) -> u16 {
    ((tag >> EPOCH_SHIFT) & EPOCH_MASK) as u16
}

/// The tag with its epoch bits cleared (inverse of [`with_epoch`]).
pub fn strip_epoch(tag: u64) -> u64 {
    tag & ((1 << EPOCH_SHIFT) - 1)
}

/// Fragmentation plan for a message of `len` payload bytes with
/// `header_bytes` of MMPS header per fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragPlan {
    /// Payload bytes carried per full fragment.
    pub per_frag: u32,
    /// Number of fragments (≥ 1 even for empty messages).
    pub n_frags: u32,
    /// Total message payload bytes.
    pub total: u32,
}

impl FragPlan {
    /// Compute the plan.
    pub fn new(len: u32, header_bytes: u32) -> FragPlan {
        let per_frag = (MAX_DATAGRAM_PAYLOAD as u32)
            .saturating_sub(header_bytes)
            .max(1);
        let n_frags = if len == 0 { 1 } else { len.div_ceil(per_frag) };
        FragPlan {
            per_frag,
            n_frags,
            total: len,
        }
    }

    /// Payload byte range `[start, end)` of fragment `idx`.
    pub fn range(&self, idx: u32) -> (u32, u32) {
        let start = idx * self.per_frag;
        let end = (start + self.per_frag).min(self.total);
        (start.min(self.total), end)
    }

    /// Payload bytes in fragment `idx`.
    pub fn frag_len(&self, idx: u32) -> u32 {
        let (s, e) = self.range(idx);
        e - s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_round_trips() {
        for (kind, msg, frag) in [
            (WireKind::Data, 0u64, 0u32),
            (WireKind::Ack, 12345, 0),
            (WireKind::Data, (1 << 42) - 1, 1_000_000),
        ] {
            let tag = pack_tag(kind, MsgId(msg), frag);
            let (k2, m2, f2) = unpack_tag(tag).unwrap();
            assert_eq!(k2, kind);
            assert_eq!(m2, msg & MSG_MASK);
            assert_eq!(f2, frag);
        }
        assert_eq!(unpack_tag(0), None);
        assert_eq!(unpack_tag(3 << KIND_SHIFT), None);
    }

    #[test]
    fn cycle_tag_round_trips() {
        for (cyc1, rank, seq) in [
            (0u64, 0usize, 0u8),
            (1, 0, 0),
            (5, 3, 255),
            (1 << 39, 0xFFFF, 17),
        ] {
            assert_eq!(untag(tag_of(cyc1, rank, seq)), (cyc1, rank, seq));
        }
    }

    #[test]
    fn cycle_tag_seq_wraps_at_u8() {
        // The engine wraps the per-(cycle, peer) sequence with
        // `wrapping_add`; 255 is the last representable value and the
        // wrapped 0 must land in a *distinct* tag.
        let last = tag_of(7, 2, 255);
        let wrapped = tag_of(7, 2, 255u8.wrapping_add(1));
        assert_eq!(untag(last).2, 255);
        assert_eq!(untag(wrapped).2, 0);
        assert_ne!(last, wrapped);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overflows the 16-bit cycle-tag rank field")]
    fn cycle_tag_rank_overflow_asserts() {
        let _ = tag_of(1, 1 << 16, 0);
    }

    #[test]
    fn cycle_tag_startup_component_is_reserved() {
        // Cycle component 0 marks the startup distribution; any real
        // cycle c is stored as c+1 and can never collide with it.
        let startup = tag_of(0, 0, 0);
        assert_eq!(untag(startup).0, 0);
        assert_eq!(untag(tag_of(1, 0, 0)).0, 1);
    }

    #[test]
    fn epoch_stamp_round_trips_and_is_transparent_at_zero() {
        let tag = tag_of(42, 3, 7);
        assert_eq!(epoch_of(tag), 0);
        assert_eq!(with_epoch(0, tag), tag);
        let stamped = with_epoch(5, tag);
        assert_eq!(epoch_of(stamped), 5);
        assert_eq!(strip_epoch(stamped), tag);
        assert_eq!(untag(strip_epoch(stamped)), (42, 3, 7));
        // The availability protocol's tag space (bits 40/41) is untouched
        // by epoch 0 and distinguishable from any stamped engine tag.
        let probe = 1u64 << 40;
        assert_eq!(epoch_of(probe), 0);
        assert_ne!(epoch_of(with_epoch(1, 0)), 0);
    }

    #[test]
    fn ckpt_tag_is_disjoint_from_cycle_ping_and_epoch_spaces() {
        // A replica tag composes with any reachable cycle tag without
        // colliding with the ping flag or spilling into the epoch bits.
        let cycle = tag_of(1 << 21, 0xFFFF, 255);
        let replica = CKPT_TAG | cycle;
        assert_eq!(replica & PING_TAG, 0);
        assert_eq!(replica >> 48, 0);
        assert_eq!(untag(replica & !CKPT_TAG), (1 << 21, 0xFFFF, 255));
        let stamped = with_epoch(3, replica);
        assert_eq!(epoch_of(stamped), 3);
        assert_ne!(strip_epoch(stamped) & CKPT_TAG, 0);
    }

    #[test]
    fn frag_plan_covers_message_exactly() {
        let plan = FragPlan::new(10_000, 32);
        assert_eq!(plan.per_frag, 1440);
        assert_eq!(plan.n_frags, 7);
        let mut covered = 0;
        for i in 0..plan.n_frags {
            covered += plan.frag_len(i);
        }
        assert_eq!(covered, 10_000);
        // last fragment is the remainder
        assert_eq!(plan.frag_len(6), 10_000 - 6 * 1440);
    }

    #[test]
    fn empty_message_is_one_fragment() {
        let plan = FragPlan::new(0, 32);
        assert_eq!(plan.n_frags, 1);
        assert_eq!(plan.frag_len(0), 0);
    }

    #[test]
    fn single_byte_message() {
        let plan = FragPlan::new(1, 32);
        assert_eq!(plan.n_frags, 1);
        assert_eq!(plan.frag_len(0), 1);
    }

    #[test]
    fn exact_multiple_has_no_empty_tail() {
        let plan = FragPlan::new(1440 * 3, 32);
        assert_eq!(plan.n_frags, 3);
        assert_eq!(plan.frag_len(2), 1440);
    }
}
