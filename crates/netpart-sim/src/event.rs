//! The discrete-event core: event kinds and the time-ordered event queue.
//!
//! The queue is a hierarchical time-wheel (a calendar queue) whose tiers
//! span the whole 64-bit clock: every item lands in one wheel slot with
//! O(1) push, however far ahead it is scheduled (windowed fault ends,
//! `give_up_after` deadlines, the tail of a deep router backlog). Pops
//! drain the earliest occupied slot into a sorted batch, so the
//! steady-state cost per event is O(1) plus a tiny amortized slot sort.
//!
//! The queue's one contract is the simulator's causality: every push is
//! at or after the time of the last pop (debug builds check it). The
//! network only ever schedules at `now` plus a duration, so the wheel's
//! cursor never has to move backwards.
//!
//! Items pop in `(time, class, seq)` order, exactly as the old binary
//! heap did, where `seq` is a monotonically increasing insertion
//! tie-breaker and `class` makes fault events (a [`FaultKind`] carried as
//! the plan wrote it, and the window ends the network schedules for it)
//! resolve first at equal instants. Ties broken by insertion order make
//! every run of the simulator fully deterministic for a given seed, which
//! the golden, chaos, and drift suites rely on byte-for-byte; a property
//! test pits the wheel against the retired heap (kept below as a
//! test-only shim) on causal push/pop scripts to pin the parity.

use std::collections::VecDeque;

use crate::datagram::Datagram;
use crate::fault::FaultKind;
use crate::ids::{DgramId, NodeId, RouterId, SegmentId, TimerId};
use crate::slab::DgramHandle;
use crate::time::SimTime;

/// Events visible to the layers above the raw network (MMPS, the SPMD
/// runtime, the calibration driver). Internal plumbing such as frame
/// transmission boundaries never escapes
/// [`Network::next_event`](crate::network::Network::next_event).
#[derive(Debug)]
pub enum SimEvent {
    /// A datagram survived the trip and finished receive-side host
    /// processing at its destination.
    DatagramDelivered {
        /// Delivery time.
        at: SimTime,
        /// The delivered packet.
        dgram: Datagram,
    },
    /// A datagram was dropped in flight (channel loss or router queue
    /// overflow). Real UDP gives the sender no such notification; this
    /// event exists for statistics and tests, and reliability layers must
    /// not act on it.
    DatagramDropped {
        /// Drop time.
        at: SimTime,
        /// Id of the lost packet.
        id: DgramId,
        /// Original sender.
        src: NodeId,
        /// Intended destination.
        dst: NodeId,
        /// What killed it.
        reason: DropReason,
    },
    /// A unit of computation previously started with
    /// [`Network::start_compute`](crate::network::Network::start_compute)
    /// finished.
    ComputeDone {
        /// Completion time.
        at: SimTime,
        /// Node the block ran on.
        node: NodeId,
        /// Caller's token from `start_compute`.
        token: u64,
    },
    /// A timer set with
    /// [`Network::set_timer`](crate::network::Network::set_timer) fired
    /// (and was not cancelled).
    TimerFired {
        /// Fire time.
        at: SimTime,
        /// The timer's id.
        id: TimerId,
        /// Caller's owner word.
        owner: u64,
        /// Caller's token word.
        token: u64,
    },
}

impl SimEvent {
    /// The instant the event occurred.
    pub fn at(&self) -> SimTime {
        match self {
            SimEvent::DatagramDelivered { at, .. }
            | SimEvent::DatagramDropped { at, .. }
            | SimEvent::ComputeDone { at, .. }
            | SimEvent::TimerFired { at, .. } => *at,
        }
    }
}

/// Why a datagram was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Random loss on the shared channel (collision residue, noise).
    ChannelLoss,
    /// The router's store-and-forward buffer was full.
    RouterOverflow,
    /// The sending or receiving node had crashed (fault injection).
    NodeDown,
    /// The router was inside a scheduled outage window (fault injection).
    RouterDown,
    /// The frame needed a router port inside a scheduled link-down window
    /// (fault injection), or was in flight when the residual fabric lost
    /// its last path to the destination.
    LinkDown,
}

/// Internal scheduler work items. These drive the frame pipeline and are
/// consumed inside the network; only the `Deliver*`, `ComputeDone` and
/// `Timer` items surface as [`SimEvent`]s.
///
/// In-flight datagrams are interned in the network's
/// [`DgramSlab`](crate::slab::DgramSlab); work items carry the pooled
/// handle, not the packet, so queue entries stay small and moving one
/// never touches payload bytes.
#[derive(Debug)]
pub(crate) enum Work {
    /// Sender-side host processing finished; frame joins its segment queue.
    FrameReady { dgram: DgramHandle },
    /// A frame finished transmitting on `segment`. The frame's handle
    /// rides in the work item itself — a segment's wire holds at most one
    /// frame, so no per-frame side slot is needed.
    TxEnd {
        segment: SegmentId,
        dgram: DgramHandle,
    },
    /// A router finished store-and-forward processing of a frame and the
    /// frame now joins the queue of `egress`, the next-hop segment chosen
    /// from the routing table when the frame left its previous segment.
    /// On a multi-hop path one of these is processed per router crossed.
    RouterForwarded {
        router: RouterId,
        dgram: DgramHandle,
        egress: SegmentId,
    },
    /// Receive-side host processing finished; surface the delivery.
    Deliver { dgram: DgramHandle },
    /// A compute block finished on `node`.
    ComputeDone { node: NodeId, token: u64 },
    /// A timer matured.
    Timer { id: TimerId, owner: u64, token: u64 },
    /// A background cross-traffic flow fires its next datagram.
    BackgroundSend { flow: usize },
    /// A scheduled fault from a [`FaultPlan`](crate::fault::FaultPlan)
    /// takes effect. The kind rides exactly as the plan spelled it; the
    /// network clamps its magnitudes when it applies it. Windowed kinds
    /// carry their end time so overlapping windows merge via `max`.
    Fault(FaultKind),
    /// A router or link outage window ended: recompute the live routing
    /// table from current liveness. Scheduled when the outage is applied;
    /// with merged (max'd) overlapping windows an early restore finds the
    /// entity still down and the recompute is a deterministic no-op.
    FabricRestore,
    /// A traffic burst's window ended: stop the background flow with the
    /// given handle. Scheduled when the burst starts.
    FloodStop(usize),
}

impl Work {
    /// Scheduling class at equal timestamps: faults (and the window ends
    /// they schedule) resolve before any other work item scheduled for
    /// the same instant. This makes the
    /// boundary semantics deterministic by construction — a slowdown
    /// ending at time *t* is applied before a compute block that starts
    /// at *t*, so the block runs at the restored rate (and symmetrically
    /// a slowdown *starting* at *t* does slow a block started at *t*).
    fn class(&self) -> u8 {
        match self {
            Work::Fault(_) | Work::FabricRestore | Work::FloodStop(_) => 0,
            _ => 1,
        }
    }
}

#[derive(Debug)]
struct Entry {
    at: SimTime,
    class: u8,
    seq: u64,
    work: Work,
}

impl Entry {
    /// The total order every pop obeys.
    #[inline]
    fn key(&self) -> (u64, u8, u64) {
        (self.at.0, self.class, self.seq)
    }
}

// ---- wheel geometry --------------------------------------------------------
//
// Times are nanoseconds; a tick is 2^TICK_SHIFT ns (1.024 µs), fine enough
// that a slot rarely mixes many distinct instants yet coarse enough that
// the paper's µs-scale protocol costs land one or two tiers up at most.
// Each tier has 2^SLOT_BITS slots; tier t's slot spans 2^(t·SLOT_BITS)
// ticks. Seven tiers cover all 54 tick bits, so every `SimTime` has a
// slot and nothing waits outside the wheel.
//
// Placement is the classic XOR scheme: an item's tier is the highest bit
// in which its tick differs from the cursor's tick, so tier-0 holds the
// cursor's 256-tick block, tier-1 the rest of its 64Ki-tick block, and so
// on. Two useful invariants fall out: within a tier, occupied slot
// indices are always strictly greater than the cursor's index at that
// tier (no wrap-around scan), and every tier-0 slot holds exactly one
// tick's worth of items. Both need the cursor at or before every pending
// tick, which causality guarantees: the cursor is the tick of the last
// pop.

const TICK_SHIFT: u32 = 10;
const SLOT_BITS: u32 = 8;
const SLOTS: usize = 1 << SLOT_BITS;
const TIERS: usize = (u64::BITS - TICK_SHIFT).div_ceil(SLOT_BITS) as usize;
// The tiers span the whole clock: XOR placement never leaves the wheel.
const _: () = assert!(TICK_SHIFT + TIERS as u32 * SLOT_BITS >= u64::BITS);
const BITMAP_WORDS: usize = SLOTS / 64;
/// Largest capacity a drained slot keeps for reuse. In steady state a
/// slot holds a handful of items and reusing its buffer saves an
/// allocation per cascade (freeing every drained slot made a two-thread
/// calibration run 2–3 % slower); a burst that parked thousands of items
/// in one slot must not keep that peak allocated for the network's life.
const SLOT_KEEP: usize = 1024;

#[inline]
fn tick_of(at: SimTime) -> u64 {
    at.0 >> TICK_SHIFT
}

/// Lowest set slot index in a tier's occupancy bitmap.
#[inline]
fn first_occupied(words: &[u64; BITMAP_WORDS]) -> Option<usize> {
    for (i, &w) in words.iter().enumerate() {
        if w != 0 {
            return Some(i * 64 + w.trailing_zeros() as usize);
        }
    }
    None
}

/// Time-ordered queue of internal work items (see the module docs for the
/// wheel layout and the ordering contract).
pub(crate) struct EventQueue {
    /// `TIERS × SLOTS` unsorted buckets; a drained slot keeps its buffer
    /// only up to [`SLOT_KEEP`] entries.
    slots: Vec<Vec<Entry>>,
    /// Per-tier occupancy bitmaps so the next non-empty slot is a few
    /// `trailing_zeros` away instead of a 256-slot scan.
    occ: [[u64; BITMAP_WORDS]; TIERS],
    /// Tick of the last popped item; advances monotonically.
    cur_tick: u64,
    /// The current tick's items, sorted ascending by `(time, class, seq)`.
    /// Same-tick pushes during the drain binary-insert here.
    batch: VecDeque<Entry>,
    len: usize,
    seq: u64,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue::initial(
            (0..TIERS * SLOTS).map(|_| Vec::new()).collect(),
            VecDeque::with_capacity(64),
        )
    }

    /// Empty the queue and rewind it to its new state (cursor at tick 0,
    /// `seq` at 0), keeping the slot and batch buffers a drained slot
    /// would keep. Only occupied slots are visited.
    pub(crate) fn clear(&mut self) {
        for (tier, words) in self.occ.iter().enumerate() {
            for (w, &bits) in words.iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let slot =
                        &mut self.slots[tier * SLOTS + w * 64 + bits.trailing_zeros() as usize];
                    slot.clear();
                    if slot.capacity() > SLOT_KEEP {
                        *slot = Vec::new();
                    }
                    bits &= bits - 1;
                }
            }
        }
        let slots = std::mem::take(&mut self.slots);
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        *self = EventQueue::initial(slots, batch);
    }

    /// A new queue over empty `slots` and `batch` buffers: the one
    /// definition [`new`](EventQueue::new) and
    /// [`clear`](EventQueue::clear) share.
    fn initial(slots: Vec<Vec<Entry>>, batch: VecDeque<Entry>) -> Self {
        EventQueue {
            slots,
            occ: [[0; BITMAP_WORDS]; TIERS],
            cur_tick: 0,
            batch,
            len: 0,
            seq: 0,
        }
    }

    /// Schedule `work` at `at`, which must not precede the last pop.
    /// Items scheduled for the same instant are processed in insertion
    /// order, except that fault events always resolve first (see
    /// [`Work::class`]).
    pub(crate) fn push(&mut self, at: SimTime, work: Work) {
        let seq = self.seq;
        self.seq += 1;
        let class = work.class();
        let e = Entry {
            at,
            class,
            seq,
            work,
        };
        self.len += 1;
        let tick = tick_of(at);
        debug_assert!(tick >= self.cur_tick, "push behind the last pop");
        if tick == self.cur_tick {
            // The batch stays sorted so same-instant pushes made while the
            // slot drains (zero-delay timers, fault-plan installs at `now`)
            // pop in exact (time, class, seq) order.
            let i = self.batch.partition_point(|x| x.key() < e.key());
            self.batch.insert(i, e);
        } else {
            self.place(e);
        }
    }

    /// Place an entry at or after the cursor's tick: at the back of the
    /// batch when it is the cursor's tick (the caller sorts the batch),
    /// else in its tier slot.
    fn place(&mut self, e: Entry) {
        let tick = tick_of(e.at);
        let masked = tick ^ self.cur_tick;
        if masked == 0 {
            self.batch.push_back(e);
            return;
        }
        let tier = ((63 - masked.leading_zeros()) / SLOT_BITS) as usize;
        let slot = ((tick >> (tier as u32 * SLOT_BITS)) & (SLOTS as u64 - 1)) as usize;
        self.slots[tier * SLOTS + slot].push(e);
        self.occ[tier][slot >> 6] |= 1 << (slot & 63);
    }

    /// Ensure the batch holds the earliest pending items, if any: drain
    /// the earliest occupied slot.
    fn prepare(&mut self) {
        if !self.batch.is_empty() {
            return;
        }
        let Some((tier, slot)) =
            (0..TIERS).find_map(|t| first_occupied(&self.occ[t]).map(|s| (t, s)))
        else {
            return;
        };
        // Every lower tier is empty, so this slot holds the earliest
        // pending items: move the cursor to their tick (not the slot's
        // base tick) so they go straight to the batch and only later
        // ticks re-enter a lower tier. The XOR invariants hold, since
        // every item here shares the slot's bits from `tier`'s field up.
        let idx = tier * SLOTS + slot;
        let mut moved = std::mem::take(&mut self.slots[idx]);
        self.occ[tier][slot >> 6] &= !(1u64 << (slot & 63));
        let first = moved.iter().map(|e| tick_of(e.at)).min();
        self.cur_tick = first.expect("an occupied slot holds an item");
        for e in moved.drain(..) {
            self.place(e);
        }
        if moved.capacity() <= SLOT_KEEP {
            self.slots[idx] = moved;
        }
        if self.batch.len() > 1 {
            self.batch
                .make_contiguous()
                .sort_unstable_by_key(Entry::key);
        }
    }

    /// Remove and return the earliest item.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, Work)> {
        self.prepare();
        let e = self.batch.pop_front()?;
        self.len -= 1;
        Some((e.at, e.work))
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The retired `BinaryHeap` event queue, kept as a test-only oracle: the
/// parity property test pushes identical sequences into it and the wheel
/// and asserts identical pop order.
#[cfg(test)]
pub(crate) mod heap_shim {
    use super::{SimTime, Work};
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    struct HeapEntry {
        at: SimTime,
        class: u8,
        seq: u64,
        work: Work,
    }

    impl PartialEq for HeapEntry {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl Eq for HeapEntry {}
    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: max-heap, earliest first; key is (time, class, seq).
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.class.cmp(&self.class))
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// The pre-wheel queue, verbatim ordering semantics.
    pub(crate) struct HeapQueue {
        heap: BinaryHeap<HeapEntry>,
        seq: u64,
    }

    impl HeapQueue {
        pub(crate) fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                seq: 0,
            }
        }

        pub(crate) fn push(&mut self, at: SimTime, work: Work) {
            let seq = self.seq;
            self.seq += 1;
            let class = work.class();
            self.heap.push(HeapEntry {
                at,
                class,
                seq,
                work,
            });
        }

        pub(crate) fn pop(&mut self) -> Option<(SimTime, Work)> {
            self.heap.pop().map(|e| (e.at, e.work))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn timer(token: u64) -> Work {
        Work::Timer {
            id: TimerId(token),
            owner: 0,
            token,
        }
    }

    fn token_of(w: &Work) -> u64 {
        match w {
            Work::Timer { token, .. } => *token,
            _ => panic!("not a timer"),
        }
    }

    /// A comparable fingerprint of a popped item for parity tests: the
    /// time, the class, and the payload token.
    fn fingerprint(at: SimTime, w: &Work) -> (u64, u8, u64) {
        match w {
            Work::Timer { token, .. } => (at.0, 1, *token),
            Work::Fault(FaultKind::ExternalLoad { node, .. }) => (at.0, 0, node.0 as u64),
            _ => panic!("parity tests only push timers and ExternalLoad faults"),
        }
    }

    /// Every queue entry pays for the fattest work item. `Work::Fault`
    /// carries a whole `FaultKind`, so a future fault kind with one field
    /// too many would grow the hot path's entries; this pins the size.
    #[test]
    fn a_fault_kind_does_not_fatten_the_work_item() {
        assert!(
            std::mem::size_of::<Work>() <= 32,
            "Work grew to {} bytes",
            std::mem::size_of::<Work>()
        );
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), timer(3));
        q.push(SimTime(10), timer(1));
        q.push(SimTime(20), timer(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, w)| token_of(&w))).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for k in 0..100 {
            q.push(SimTime(5), timer(k));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, w)| token_of(&w))).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fault_wins_ties_regardless_of_insertion_order() {
        let mut q = EventQueue::new();
        // Non-fault work enqueued first (lower seq), fault enqueued last:
        // at the shared instant the fault must still pop first.
        q.push(SimTime(5), timer(0));
        q.push(SimTime(5), timer(1));
        q.push(
            SimTime(5),
            Work::Fault(FaultKind::EndSlowdown { node: NodeId(0) }),
        );
        // The window ends a fault schedules are fault-class too.
        q.push(SimTime(5), Work::FabricRestore);
        q.push(SimTime(5), Work::FloodStop(0));
        let (_, first) = q.pop().unwrap();
        assert!(matches!(first, Work::Fault(_)));
        assert!(matches!(q.pop().unwrap().1, Work::FabricRestore));
        assert!(matches!(q.pop().unwrap().1, Work::FloodStop(0)));
        // The remaining same-time items keep FIFO order.
        assert_eq!(token_of(&q.pop().unwrap().1), 0);
        assert_eq!(token_of(&q.pop().unwrap().1), 1);
        // An earlier non-fault item still beats a later fault.
        q.push(SimTime(9), timer(7));
        q.push(
            SimTime(10),
            Work::Fault(FaultKind::NodeRecover { node: NodeId(1) }),
        );
        assert_eq!(q.pop().unwrap().0, SimTime(9));
    }

    #[test]
    fn len_counts_pending_items() {
        let mut q = EventQueue::new();
        assert!(q.is_empty() && q.pop().is_none());
        q.push(SimTime(42), timer(0));
        q.push(SimTime(7), timer(1));
        let (at, _) = q.pop().unwrap();
        assert_eq!(at, SimTime(7));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn same_instant_push_during_drain_keeps_fifo() {
        // A zero-delay push made *while* the instant drains (the MMPS
        // retransmission path does this) must pop after the items already
        // queued for that instant — insertion order within the tick.
        let mut q = EventQueue::new();
        q.push(SimTime(1000), timer(0));
        q.push(SimTime(1000), timer(1));
        let (at, w) = q.pop().unwrap();
        assert_eq!((at, token_of(&w)), (SimTime(1000), 0));
        q.push(SimTime(1000), timer(2)); // scheduled mid-drain
        assert_eq!(drain(&mut q), vec![(1000, 1), (1000, 2)]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "push behind the last pop")]
    fn a_push_behind_the_last_pop_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime(900_000), timer(0));
        q.pop();
        q.push(SimTime(1_000), timer(1));
    }

    #[test]
    fn items_straddling_tier_boundaries_pop_in_order() {
        // Tier t's first slot starts 2^(TICK_SHIFT + t·SLOT_BITS) ns past
        // the cursor: ≈ 17.2 s for tier 3, ≈ 9 years for tier 6, the top.
        // Items either side of both boundaries, with sub-tick offsets and
        // a same-instant pair, pop in exact order.
        let b3 = 1u64 << (TICK_SHIFT + 3 * SLOT_BITS);
        let b6 = 1u64 << (TICK_SHIFT + 6 * SLOT_BITS);
        let times = [b3 - 1, b3, b3 + 1, b3 + 1, b6 - 1, b6, b6 + 5, 3 * b6 + 5];
        let mut q = EventQueue::new();
        for (k, &t) in times.iter().enumerate().rev() {
            q.push(SimTime(t), timer(k as u64));
        }
        assert!(first_occupied(&q.occ[TIERS - 1]).is_some());
        // The same-instant pair went in reverse: token 3 before token 2.
        let mut expect: Vec<(u64, u64)> = times.iter().zip(0..).map(|(&t, k)| (t, k)).collect();
        expect.swap(2, 3);
        assert_eq!(drain(&mut q), expect);
    }

    #[test]
    fn times_beyond_the_top_tier_still_order_exactly() {
        // SimTime values near u64::MAX land in the top tier; ordering
        // still holds down to the nanosecond.
        let mut q = EventQueue::new();
        q.push(SimTime(u64::MAX), timer(3));
        q.push(SimTime(u64::MAX - (1 << 40)), timer(1));
        q.push(SimTime(0), timer(0));
        q.push(SimTime(u64::MAX - (1 << 40) + 7), timer(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, w)| token_of(&w))).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        // Refill after total drain at a huge cursor: the queue is reusable.
        q.push(SimTime(u64::MAX), timer(9));
        assert_eq!(drain(&mut q), vec![(u64::MAX, 9)]);
    }

    /// Drain the queue, returning `(time, token)` in pop order.
    fn drain(q: &mut EventQueue) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| q.pop().map(|(at, w)| (at.0, token_of(&w)))).collect()
    }

    #[test]
    fn a_cascaded_slot_sends_its_earliest_tick_straight_to_the_batch() {
        // Ticks 300, 301 and 400 all sit in tier-1 slot 1 (ticks
        // 256..512) while the cursor is at tick 0.
        let ns = |tick: u64, off: u64| (tick << TICK_SHIFT) + off;
        let mut q = EventQueue::new();
        q.push(SimTime(ns(400, 0)), timer(4));
        q.push(SimTime(ns(301, 9)), timer(3));
        q.push(SimTime(ns(300, 700)), timer(2));
        q.push(SimTime(ns(300, 5)), timer(0));
        q.push(SimTime(ns(300, 700)), timer(1)); // same instant, later seq
        assert_eq!(first_occupied(&q.occ[0]), None);
        assert_eq!(first_occupied(&q.occ[1]), Some(1));
        assert_eq!(
            q.pop().map(|(at, w)| (at.0, token_of(&w))),
            Some((ns(300, 5), 0))
        );
        // One cascade: the cursor lands on tick 300 itself, whose items
        // are the sorted batch; only the later ticks went to tier 0.
        assert_eq!(q.cur_tick, 300);
        let batch: Vec<u64> = q.batch.iter().map(|e| token_of(&e.work)).collect();
        assert_eq!(batch, vec![2, 1]);
        assert_eq!(first_occupied(&q.occ[1]), None);
        assert_eq!(first_occupied(&q.occ[0]), Some(301 % SLOTS));
        assert_eq!(
            q.slots[300 % SLOTS].capacity(),
            0,
            "tick 300 skipped tier 0"
        );
        assert_eq!(
            drain(&mut q),
            vec![
                (ns(300, 700), 2),
                (ns(300, 700), 1),
                (ns(301, 9), 3),
                (ns(400, 0), 4),
            ]
        );
    }

    #[test]
    fn monotone_far_future_pushes_pop_in_order() {
        // A router backlog: each frame leaves ~1.1 ms after the previous
        // one, so the stream's tail runs four tier-3 slots (≈ 69 s) past
        // the cursor and every push lands behind earlier far items.
        let span = 1u64 << (TICK_SHIFT + 3 * SLOT_BITS);
        let n = 60_000u64;
        let gap = 4 * span / n;
        let mut q = EventQueue::new();
        for k in 0..n {
            q.push(SimTime(span / 2 + k * gap - k % 3), timer(k));
        }
        let order = drain(&mut q);
        assert_eq!(order.len(), n as usize);
        let mut expect: Vec<(u64, u64)> = (0..n).map(|k| (span / 2 + k * gap - k % 3, k)).collect();
        expect.sort_unstable();
        assert_eq!(order, expect);
        assert!(q.is_empty());
    }

    #[test]
    fn drained_slots_do_not_hoard_capacity() {
        // 100k items parked in a handful of slots: each of those grows far
        // past SLOT_KEEP, and none keeps that allocation once drained.
        let base = 1u64 << (TICK_SHIFT + 3 * SLOT_BITS);
        let n = 100_000u64;
        let mut q = EventQueue::new();
        for k in 0..n {
            q.push(SimTime(base + k * 20), timer(k));
        }
        assert_eq!(drain(&mut q).len(), n as usize);
        let worst = q.slots.iter().map(Vec::capacity).max().unwrap();
        let kept: usize = q.slots.iter().map(Vec::capacity).sum();
        assert!(worst <= SLOT_KEEP, "a slot kept {worst} entries");
        assert!(kept < n as usize / 4, "slots kept {kept} entries");
    }

    #[test]
    fn interleaved_monotone_push_pop_crosses_tiers() {
        // The simulator's actual pattern: pops advance time, pushes land
        // at now + various deltas spanning all tiers. Mirror against the
        // heap oracle.
        let deltas = [
            0u64,
            1,
            900,
            1_024,
            9_600,
            300_000,
            1_200_000,
            50_000_000,
            2_000_000_000,
            30_000_000_000,
        ];
        let mut wheel = EventQueue::new();
        let mut heap = heap_shim::HeapQueue::new();
        let mut now = 0u64;
        let mut k = 0u64;
        for round in 0..200u64 {
            for (i, &d) in deltas.iter().enumerate() {
                if !(round + i as u64).is_multiple_of(3) {
                    continue;
                }
                wheel.push(SimTime(now + d), timer(k));
                heap.push(SimTime(now + d), timer(k));
                k += 1;
            }
            // Pop a couple, advancing the clock.
            for _ in 0..2 {
                let a = wheel.pop().map(|(at, w)| fingerprint(at, &w));
                let b = heap.pop().map(|(at, w)| fingerprint(at, &w));
                assert_eq!(a, b);
                if let Some((t, ..)) = a {
                    now = t;
                }
            }
        }
        loop {
            let a = wheel.pop().map(|(at, w)| fingerprint(at, &w));
            let b = heap.pop().map(|(at, w)| fingerprint(at, &w));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// The two queues the microbenchmark times, behind one interface.
    trait Queue {
        fn new() -> Self;
        fn push(&mut self, at: SimTime, work: Work);
        fn pop(&mut self) -> Option<(SimTime, Work)>;
    }
    impl Queue for EventQueue {
        fn new() -> Self {
            EventQueue::new()
        }
        fn push(&mut self, at: SimTime, work: Work) {
            EventQueue::push(self, at, work);
        }
        fn pop(&mut self) -> Option<(SimTime, Work)> {
            EventQueue::pop(self)
        }
    }
    impl Queue for heap_shim::HeapQueue {
        fn new() -> Self {
            heap_shim::HeapQueue::new()
        }
        fn push(&mut self, at: SimTime, work: Work) {
            heap_shim::HeapQueue::push(self, at, work);
        }
        fn pop(&mut self) -> Option<(SimTime, Work)> {
            heap_shim::HeapQueue::pop(self)
        }
    }

    /// Hold model: `standing` items, then `ops` pops that each push the
    /// popped item back `delta(k)` ns later. Best of three, ns per op.
    fn hold<Q: Queue>(standing: u64, ops: u64, delta: impl Fn(u64) -> u64) -> f64 {
        let run = || {
            let mut q = Q::new();
            for k in 0..standing {
                q.push(SimTime(delta(k)), timer(k));
            }
            let t = std::time::Instant::now();
            for k in 0..ops {
                let (at, _) = q.pop().expect("standing set never empties");
                q.push(SimTime(at.0 + delta(k)), timer(k));
            }
            t.elapsed().as_secs_f64()
        };
        (0..3).map(|_| run()).fold(f64::INFINITY, f64::min) * 1e9 / ops as f64
    }

    /// Backlog: `n` pushes 1.1 ms apart (a router draining a standing
    /// queue), most of them in the wheel's upper tiers, then a full drain. Best of
    /// three, ns per item pushed and popped.
    fn backlog<Q: Queue>(n: u64) -> f64 {
        let run = || {
            let t = std::time::Instant::now();
            let mut q = Q::new();
            for k in 0..n {
                q.push(SimTime(k * 1_100_000), timer(k));
            }
            while q.pop().is_some() {}
            t.elapsed().as_secs_f64()
        };
        (0..3).map(|_| run()).fold(f64::INFINITY, f64::min) * 1e9 / n as f64
    }

    fn report(pattern: &str, wheel_ns: f64, heap_ns: f64) {
        println!(
            "{pattern:<36} wheel {wheel_ns:>6.1} ns/op  heap {heap_ns:>6.1} ns/op  heap/wheel {:.2}x",
            heap_ns / wheel_ns,
        );
    }

    /// Queue-level throughput probe, heap oracle vs wheel, on three
    /// patterns: cycled 2 µs–10 ms deltas at three standing-set sizes; the
    /// simulator's own (about 50 standing items 13 ms ahead, one per
    /// tier-1 slot, the shape of a calibration run); and a far-future
    /// backlog. Not a CI assertion — run in release mode to attribute
    /// end-to-end deltas to the queue itself:
    /// `cargo test --release -p netpart-sim queue_microbench -- --ignored --nocapture`
    #[test]
    #[ignore = "manual profiling aid, run with --release --nocapture"]
    fn queue_microbench() {
        let ops = 2_000_000u64;
        let deltas = [2_000u64, 10_000, 100_000, 1_000_000, 10_000_000];
        let cycled = |k: u64| deltas[(k % 5) as usize];
        for standing in [64u64, 1024, 65_536] {
            report(
                &format!("cycled deltas, standing={standing}"),
                hold::<EventQueue>(standing, ops, cycled),
                hold::<heap_shim::HeapQueue>(standing, ops, cycled),
            );
        }
        let sim = |k: u64| 13_100_000 + (k * 7_919) % 1_000;
        report(
            "simulator, 50 standing in tier 1",
            hold::<EventQueue>(50, ops, sim),
            hold::<heap_shim::HeapQueue>(50, ops, sim),
        );
        report(
            "backlog of 400k, 1.1 ms apart",
            backlog::<EventQueue>(400_000),
            backlog::<heap_shim::HeapQueue>(400_000),
        );
    }

    proptest! {
        /// The wheel pops causal push/pop scripts in exactly the order the
        /// retired heap did — the determinism contract every
        /// golden/chaos/drift suite leans on. A push is never earlier than
        /// the last popped time, as in the simulator.
        #[test]
        fn wheel_matches_heap_pop_order(
            items in prop::collection::vec((any::<u64>(), any::<bool>()), 1..300),
            interleave in prop::collection::vec(any::<bool>(), 0..300),
            monotone in any::<bool>(),
            high in any::<bool>(),
        ) {
            // Free mode: each push lands up to 2^40 ns (≈ 18 min) past the
            // last pop. Monotone mode: non-decreasing push times whose gaps
            // spread log-uniformly from 0 (ties) to 2^63 ns, saturating at
            // u64::MAX — the far-future stream a router backlog pushes.
            // `high` starts the clock 2^41 ns short of u64::MAX.
            let mut last = if high { u64::MAX - (1 << 41) } else { 0 };
            let mut stream = last;
            let mut next_at = |x: u64, last: u64| {
                if monotone {
                    stream = stream.saturating_add((x >> 1) >> (x % 64));
                    stream
                } else {
                    last.saturating_add(x >> 24)
                }
            };
            let mut wheel = EventQueue::new();
            let mut heap = heap_shim::HeapQueue::new();
            let make = |k: u64, fault: bool| -> Work {
                if fault {
                    Work::Fault(FaultKind::ExternalLoad { node: NodeId(k as u32), load: 0.0 })
                } else {
                    timer(k)
                }
            };
            let mut it = items.iter().enumerate();
            // Interleave pushes and pops per the boolean script, then
            // push the rest and drain; both structures must agree at every
            // step.
            for do_pop in interleave.iter().copied().chain(std::iter::repeat(false)) {
                if do_pop {
                    let a = wheel.pop().map(|(at, w)| fingerprint(at, &w));
                    let b = heap.pop().map(|(at, w)| fingerprint(at, &w));
                    prop_assert_eq!(a, b);
                    if let Some((t, ..)) = a {
                        last = t;
                    }
                } else if let Some((k, &(x, fault))) = it.next() {
                    let t = SimTime(next_at(x, last));
                    wheel.push(t, make(k as u64, fault));
                    heap.push(t, make(k as u64, fault));
                } else {
                    break;
                }
            }
            loop {
                let a = wheel.pop().map(|(at, w)| fingerprint(at, &w));
                let b = heap.pop().map(|(at, w)| fingerprint(at, &w));
                prop_assert_eq!(a, b);
                if a.is_none() { break; }
            }
        }
    }
}
