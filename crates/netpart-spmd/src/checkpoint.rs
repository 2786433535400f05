//! Cycle-boundary checkpointing for crash recovery.
//!
//! An application that implements
//! [`SpmdApp::checkpoint`](crate::SpmdApp::checkpoint) serializes each
//! rank's durable state (the blob format is the app's own), and a
//! [`CheckpointStore`] carried into the run by a
//! [`Segment`](crate::Segment) records those blobs per rank, per cycle:
//! the engine asks the store at every cycle boundary whether the cycle is
//! a checkpoint cycle and hands it the blob.
//!
//! # Consistency
//!
//! Ranks drift — rank 3 can complete cycle 12 while rank 0 is still in
//! cycle 10 — so a single recorded cycle is not automatically a global
//! snapshot. The store's *consistent frontier* is the largest cycle `C`
//! for which **every** rank has recorded a blob: because all ranks record
//! at the same cycle schedule, each rank's recorded set is a prefix of
//! that schedule and the frontier is simply the minimum over ranks of the
//! last cycle recorded. Resuming from the frontier re-executes at most
//! the drift window.
//!
//! # Durability
//!
//! The store runs in one of two durability modes. **Local**
//! ([`CheckpointStore::new`]) keeps each rank's blobs in host memory
//! beside the simulation ("stable storage" in the modeled world): a
//! crashed rank's already-recorded blobs remain usable, which is what
//! lets recovery resume a computation whose master rank died. It keeps no
//! checksums: its restore path, [`take`](CheckpointStore::take), reads
//! none. **Replicated** ([`CheckpointStore::replicated`]) additionally
//! mirrors each rank's blob to a *buddy* rank — preferentially in another
//! cluster — over the ordinary message layer, and guards every blob with
//! a CRC so a corrupted copy is detected rather than restored. Each blob
//! is hashed once, when its owner records it; the replica carries that
//! same checksum, so checking it compares the buddy's bytes with what the
//! owner wrote. Recovery then
//! [`assemble`](CheckpointStore::assemble)s the newest generation whose
//! every rank has an intact copy on a live node, falling back to the
//! buddy replica when the primary holder is dead or its blob fails the
//! checksum, and to an older generation (replaying the extra cycles) when
//! a newer one is only partly recorded.
//!
//! # Held generations
//!
//! A generation is **settled** once every rank holds it in full: its
//! primary, plus its replica when the rank has a buddy (in a local store
//! the settled generation is the [frontier](CheckpointStore::frontier)).
//! Settling drops every older generation, and a later `record` or
//! `record_replica` for a generation older than the settled one is
//! dropped unhashed. A store therefore holds the settled generation and
//! the partly recorded ones above it — about two in a run without
//! faults, whatever its length — rather than one per checkpoint. A
//! per-generation count of the ranks holding it in full finds settlement
//! in O(log generations) per record, with no scan over ranks.
//!
//! Nothing restorable is dropped. Within one store a rank's copies sit
//! on the same two nodes (owner and buddy) in every generation, so an
//! older generation survives a set of dead nodes only if the settled one
//! does; `assemble` returns the newest restorable generation, and `take`
//! reads the frontier, never older than the settled generation. The
//! argument assumes no stored blob rots, and nothing outside the tests
//! rots one: the message layer hands the buddy the sender's own buffer,
//! and corrupted frames never deliver. So when both copies of a settled
//! blob fail their checksum (test-injected rot), the store has no older
//! generation to offer, and recovery resumes from an older archived
//! store or replays from cycle 0.

use std::collections::BTreeMap;

use bytes::Bytes;

use netpart_sim::NodeId;

use crate::task::Rank;

/// Reflected ISO-HDLC generator polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the byte-at-a-time (Sarwate)
/// table, `CRC_TABLES[k][i]` is the CRC of byte `i` followed by `k` zero
/// bytes. A `static`, not a `const`: debug builds copy a `const` array
/// whole at every index expression, and tier-1 tests run in debug.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (ISO-HDLC polynomial, the zlib/`cksum -o 3` variant) of a byte
/// slice. Slicing-by-8 (Kounavis & Berry, ISCC 2005): eight bytes per step
/// through eight 256-entry tables, then the one-table loop over the 0–7
/// byte tail. Measured at ~1.5 GB/s in a release build, 8× the bitwise
/// loop it replaced. Only replicated stores call it: once per blob at
/// record, and once per copy [`assemble`](CheckpointStore::assemble)
/// inspects.
fn crc32(data: &[u8]) -> u32 {
    #[cfg(test)]
    tests::note_hashed(data.len());
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][lo as u8 as usize]
            ^ t[6][(lo >> 8) as u8 as usize]
            ^ t[5][(lo >> 16) as u8 as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][hi as u8 as usize]
            ^ t[2][(hi >> 8) as u8 as usize]
            ^ t[1][(hi >> 16) as u8 as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][(crc as u8 ^ b) as usize];
    }
    !crc
}

/// A stored blob plus, in a replicated store, the checksum its owner
/// computed at record time. `intact` re-hashes on read, so any later
/// bit-flip (injected or modeled) is caught before the copy can be
/// restored from; a blob without a checksum (local store) verifies
/// nothing and always reads as intact.
#[derive(Debug, Clone)]
struct Held {
    data: Bytes,
    crc: Option<u32>,
}

impl Held {
    fn intact(&self) -> bool {
        self.crc.is_none_or(|crc| crc32(&self.data) == crc)
    }
}

/// A globally consistent snapshot: one serialized blob per rank, all
/// recorded at the completion of the same cycle.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The cycle (in *global* terms — offsets from resumed segments are
    /// already folded in) whose completion this snapshot captures.
    pub cycle: u64,
    /// Per-rank serialized state, indexed by the rank layout of the run
    /// that recorded it. Resume constructors reassemble global state from
    /// the blobs, so a later run may use a different rank count.
    pub ranks: Vec<Bytes>,
}

/// Per-rank checkpoints every `every` cycles, and the consistent frontier
/// over them.
///
/// `base` is the global-cycle offset of the engine run this store is
/// attached to: a resumed run whose engine-local cycle 0 is really global
/// cycle `base` records checkpoints under their global numbers, so traces
/// and recovery statistics stay in one coordinate system across replans.
#[derive(Debug)]
pub struct CheckpointStore {
    every: u64,
    base: u64,
    per_rank: Vec<BTreeMap<u64, Held>>,
    /// Buddy-held mirror copies, indexed by the *owner* rank. Populated
    /// only in replicated mode, by [`record_replica`](Self::record_replica).
    replicas: Vec<BTreeMap<u64, Held>>,
    /// `buddies[r]` is the rank holding `r`'s replica (`None` in local
    /// mode or for single-rank runs).
    buddies: Option<Vec<Option<Rank>>>,
    /// The node each rank runs on — liveness of a copy is liveness of the
    /// node holding it. Empty in local mode.
    nodes: Vec<NodeId>,
    /// Highest global cycle any rank has completed (`None` until one has).
    max_cycle_seen: Option<u64>,
    /// The newest generation every rank holds in full; nothing older is
    /// held.
    settled: Option<u64>,
    /// For each generation newer than `settled`, how many ranks hold it
    /// in full.
    full: BTreeMap<u64, usize>,
}

/// The result of [`CheckpointStore::assemble`]: the newest restorable
/// snapshot plus counters describing how hard the store had to work for
/// it.
#[derive(Debug, Clone)]
pub struct AssembledCheckpoint {
    /// The restored snapshot.
    pub checkpoint: Checkpoint,
    /// Ranks whose blob came from the buddy replica rather than the
    /// primary copy (dead holder or failed checksum).
    pub replica_restores: u64,
    /// Newer generations that had to be skipped because some rank had no
    /// intact copy on a live node at that cycle.
    pub generation_fallbacks: u64,
}

impl CheckpointStore {
    /// A store for `ranks` ranks, checkpointing every `every` cycles
    /// (clamped to ≥ 1), with engine-local cycle 0 at global cycle `base`.
    /// Local durability: blobs live in host memory, no replication.
    pub fn new(ranks: usize, every: u64, base: u64) -> CheckpointStore {
        CheckpointStore {
            every: every.max(1),
            base,
            per_rank: vec![BTreeMap::new(); ranks],
            replicas: vec![BTreeMap::new(); ranks],
            buddies: None,
            nodes: Vec::new(),
            max_cycle_seen: None,
            settled: None,
            full: BTreeMap::new(),
        }
    }

    /// A replicated store: each rank's blob is mirrored to a buddy rank,
    /// preferentially one in a *different cluster* (`clusters[r]` is the
    /// cluster index of rank `r`), so a whole-segment loss cannot take
    /// both copies of any rank's state. When every rank shares one
    /// cluster the buddy is the ring neighbour `(r + 1) % n`; a
    /// single-rank run has no buddy at all. `nodes[r]` is the node rank
    /// `r` runs on, used by [`assemble`](CheckpointStore::assemble) to
    /// judge copy liveness.
    pub fn replicated(
        ranks: usize,
        every: u64,
        base: u64,
        nodes: &[NodeId],
        clusters: &[usize],
    ) -> CheckpointStore {
        debug_assert_eq!(nodes.len(), ranks);
        debug_assert_eq!(clusters.len(), ranks);
        let buddies = (0..ranks)
            .map(|r| {
                let others: Vec<Rank> = (0..ranks)
                    .filter(|&o| o != r && clusters[o] != clusters[r])
                    .collect();
                if !others.is_empty() {
                    Some(others[r % others.len()])
                } else if ranks > 1 {
                    Some((r + 1) % ranks)
                } else {
                    None
                }
            })
            .collect();
        CheckpointStore {
            every: every.max(1),
            base,
            per_rank: vec![BTreeMap::new(); ranks],
            replicas: vec![BTreeMap::new(); ranks],
            buddies: Some(buddies),
            nodes: nodes.to_vec(),
            max_cycle_seen: None,
            settled: None,
            full: BTreeMap::new(),
        }
    }

    /// The rank holding `rank`'s replica, if replication is on.
    pub fn buddy_of(&self, rank: Rank) -> Option<Rank> {
        self.buddies.as_ref()?.get(rank).copied().flatten()
    }

    /// The largest global cycle every rank has a blob for, if any.
    pub fn frontier(&self) -> Option<u64> {
        self.per_rank
            .iter()
            .map(|m| m.last_key_value().map(|(&c, _)| c))
            .min()
            .flatten()
    }

    /// Assemble the consistent snapshot at global `cycle` (normally the
    /// [`frontier`](CheckpointStore::frontier)). `None` if any rank lacks
    /// a blob for that cycle, which includes every cycle older than the
    /// settled generation (the store no longer holds them; the frontier
    /// is never among them). Reads primary copies only and verifies
    /// nothing, so it hashes no byte — the local-durability restore path,
    /// unchanged from before replication existed.
    pub fn take(&self, cycle: u64) -> Option<Checkpoint> {
        let ranks: Vec<Bytes> = self
            .per_rank
            .iter()
            .map(|m| m.get(&cycle).map(|h| h.data.clone()))
            .collect::<Option<_>>()?;
        Some(Checkpoint { cycle, ranks })
    }

    /// Restore the newest generation that survives the death of `dead`
    /// nodes: per rank, prefer an intact (checksum-verified) primary copy
    /// on a live node, fall back to an intact replica on a live buddy
    /// node, and when neither exists for some rank, fall back a whole
    /// generation (the resumed run replays the extra cycles). The oldest
    /// generation held is the settled one, so a fallback only passes
    /// newer, partly recorded generations; without rot no older
    /// generation could survive where the settled one does not (see the
    /// module docs). `None` when no held generation is fully restorable.
    /// Only the live copies the search reaches are hashed: the newest
    /// generation's primaries in the common case.
    ///
    /// A local store has no checksums, no placement and no replicas, so
    /// here `assemble` verifies nothing and ignores `dead`: it returns the
    /// same snapshot as [`take`](Self::take) at the
    /// [`frontier`](Self::frontier), counting the newer, partly recorded
    /// generations as fallbacks.
    pub fn assemble(&self, dead: &[NodeId]) -> Option<AssembledCheckpoint> {
        for (generation_fallbacks, &cycle) in self.held_cycles().iter().rev().enumerate() {
            if let Some((ranks, replica_restores)) = self.assemble_at(cycle, dead) {
                return Some(AssembledCheckpoint {
                    checkpoint: Checkpoint { cycle, ranks },
                    replica_restores,
                    generation_fallbacks: generation_fallbacks as u64,
                });
            }
        }
        None
    }

    fn node_alive(&self, rank: Rank, dead: &[NodeId]) -> bool {
        match self.nodes.get(rank) {
            Some(n) => !dead.contains(n),
            // Local mode records no placement; treat copies as reachable.
            None => true,
        }
    }

    fn assemble_at(&self, cycle: u64, dead: &[NodeId]) -> Option<(Vec<Bytes>, u64)> {
        let mut restores = 0u64;
        let mut out = Vec::with_capacity(self.per_rank.len());
        for rank in 0..self.per_rank.len() {
            let primary = self.per_rank[rank]
                .get(&cycle)
                .filter(|h| self.node_alive(rank, dead) && h.intact());
            if let Some(h) = primary {
                out.push(h.data.clone());
                continue;
            }
            let replica = self.buddy_of(rank).and_then(|b| {
                self.replicas[rank]
                    .get(&cycle)
                    .filter(|h| self.node_alive(b, dead) && h.intact())
            });
            match replica {
                Some(h) => {
                    restores += 1;
                    out.push(h.data.clone());
                }
                None => return None,
            }
        }
        Some((out, restores))
    }

    /// Highest global cycle any rank has completed in this run.
    pub fn max_cycle_seen(&self) -> Option<u64> {
        self.max_cycle_seen
    }

    /// The global-cycle offset of the attached engine run.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Some rank completed engine-local `cycle`.
    pub fn saw_cycle(&mut self, cycle: u64) {
        let global = self.base + cycle;
        self.max_cycle_seen = Some(self.max_cycle_seen.map_or(global, |m| m.max(global)));
    }

    /// Whether the completion of engine-local `cycle` is a checkpoint.
    pub(crate) fn wants(&self, cycle: u64) -> bool {
        (self.base + cycle + 1).is_multiple_of(self.every)
    }

    /// `rank`'s serialized state at the completion of engine-local `cycle`.
    /// A replicated store hashes the blob here, the only time before a
    /// restore check; a local store keeps it unhashed. A blob for a
    /// generation older than the settled one is dropped unhashed.
    pub fn record(&mut self, rank: Rank, cycle: u64, blob: Bytes) {
        let global = self.base + cycle;
        if self.is_stale(global) {
            return;
        }
        let crc = self.buddies.is_some().then(|| crc32(&blob));
        self.keep(rank, global, Held { data: blob, crc }, false);
    }

    /// The mirror copy of `owner`'s blob for engine-local `cycle`, arrived
    /// at its buddy's node. It takes the checksum its owner recorded for
    /// that cycle rather than hashing again — the message layer hands
    /// over the sender's buffer, and corrupted frames never deliver — so
    /// `intact` checks the replica against what its owner wrote. Only a
    /// replica without an owner entry is hashed here.
    pub(crate) fn record_replica(&mut self, owner: Rank, cycle: u64, blob: Bytes) {
        let global = self.base + cycle;
        if self.is_stale(global) {
            return;
        }
        let owners = self.per_rank[owner].get(&global).and_then(|h| h.crc);
        let crc = Some(owners.unwrap_or_else(|| crc32(&blob)));
        self.keep(owner, global, Held { data: blob, crc }, true);
    }

    /// Whether global `cycle` is older than the settled generation, so
    /// no copy of it is kept.
    fn is_stale(&self, cycle: u64) -> bool {
        self.settled.is_some_and(|s| cycle < s)
    }

    /// Whether `rank` holds global `cycle` in full: its primary, and its
    /// replica when it has a buddy.
    fn holds_in_full(&self, rank: Rank, cycle: u64) -> bool {
        self.per_rank[rank].contains_key(&cycle)
            && (self.buddy_of(rank).is_none() || self.replicas[rank].contains_key(&cycle))
    }

    /// Store a copy of `rank`'s blob at global `cycle`, its replica when
    /// `replica` is set. If that made the rank hold the generation in
    /// full, count it, and settle the generation once every rank does:
    /// every older copy is dropped.
    fn keep(&mut self, rank: Rank, cycle: u64, held: Held, replica: bool) {
        let was_full = self.holds_in_full(rank, cycle);
        let copies = if replica {
            &mut self.replicas
        } else {
            &mut self.per_rank
        };
        copies[rank].insert(cycle, held);
        if was_full || !self.holds_in_full(rank, cycle) {
            return;
        }
        let holders = self.full.entry(cycle).or_insert(0);
        *holders += 1;
        if *holders < self.per_rank.len() {
            return;
        }
        self.settled = Some(cycle);
        self.full = self.full.split_off(&(cycle + 1));
        for kept in self.per_rank.iter_mut().chain(self.replicas.iter_mut()) {
            *kept = kept.split_off(&cycle);
        }
    }

    /// How many generations the store holds any copy of. Not part of the
    /// API: tests pin the held bound with it.
    #[doc(hidden)]
    pub fn generations_held(&self) -> usize {
        self.held_cycles().len()
    }

    /// Every generation any copy is held for, oldest first.
    fn held_cycles(&self) -> Vec<u64> {
        let mut cycles: Vec<u64> = self
            .per_rank
            .iter()
            .chain(self.replicas.iter())
            .flat_map(|m| m.keys().copied())
            .collect();
        cycles.sort_unstable();
        cycles.dedup();
        cycles
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use proptest::prelude::*;

    thread_local! {
        /// Bytes `crc32` has hashed on this test thread.
        static HASHED: Cell<usize> = const { Cell::new(0) };
    }

    pub(super) fn note_hashed(bytes: usize) {
        HASHED.with(|h| h.set(h.get() + bytes));
    }

    /// Bytes hashed on this thread while `f` ran.
    fn hashed_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = HASHED.with(Cell::get);
        let out = f();
        (out, HASHED.with(Cell::get) - before)
    }

    /// The bitwise CRC-32 the sliced one replaced: the parity oracle.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    /// Fault injection for the tests below: at-rest rot the checksums
    /// must catch.
    impl CheckpointStore {
        /// Flip bit `at.1` of byte `at.0` in `rank`'s *primary* blob at
        /// global `cycle` without touching the recorded checksum. The next
        /// checksum verification must reject the copy.
        fn corrupt_primary(&mut self, rank: Rank, cycle: u64, at: (usize, u8)) -> bool {
            Self::flip_bit(self.per_rank[rank].get_mut(&cycle), at)
        }

        /// Flip bit `at.1` of byte `at.0` in `rank`'s *replica* blob at
        /// global `cycle` without touching the recorded checksum.
        fn corrupt_replica(&mut self, rank: Rank, cycle: u64, at: (usize, u8)) -> bool {
            Self::flip_bit(self.replicas[rank].get_mut(&cycle), at)
        }

        fn flip_bit(held: Option<&mut Held>, (byte, bit): (usize, u8)) -> bool {
            match held {
                Some(h) if byte < h.data.len() => {
                    let mut v = h.data.to_vec();
                    v[byte] ^= 1 << bit;
                    h.data = Bytes::from(v);
                    true
                }
                _ => false,
            }
        }
    }

    fn blob(x: u8) -> Bytes {
        Bytes::from(vec![x])
    }

    #[test]
    fn frontier_is_min_over_ranks_of_last_recorded() {
        let mut s = CheckpointStore::new(3, 1, 0);
        assert_eq!(s.frontier(), None);
        for c in 0..5u64 {
            s.record(0, c, blob(0));
        }
        for c in 0..3u64 {
            s.record(1, c, blob(1));
        }
        assert_eq!(s.frontier(), None, "rank 2 has recorded nothing");
        for c in 0..4u64 {
            s.record(2, c, blob(2));
        }
        assert_eq!(s.frontier(), Some(2), "rank 1 stops at cycle 2");
        let ckpt = s.take(2).unwrap();
        assert_eq!(ckpt.cycle, 2);
        assert_eq!(ckpt.ranks.len(), 3);
        assert!(s.take(4).is_none(), "cycle 4 is not consistent");
    }

    #[test]
    fn interval_and_base_offset_apply() {
        let s = CheckpointStore::new(1, 3, 0);
        // Global cycles 2, 5, 8, ... are checkpoint cycles ((c+1) % 3 == 0).
        assert!(!s.wants(0));
        assert!(s.wants(2));
        assert!(!s.wants(3));
        assert!(s.wants(5));

        // A resumed segment starting at global cycle 4: local cycle 1 is
        // global 5 — still a checkpoint cycle.
        let mut r = CheckpointStore::new(1, 3, 4);
        assert!(r.wants(1));
        assert!(!r.wants(2));
        r.record(0, 1, blob(9));
        assert_eq!(s.base(), 0);
        assert_eq!(r.frontier(), Some(5), "recorded under its global number");
        r.saw_cycle(2);
        assert_eq!(r.max_cycle_seen(), Some(6));
    }

    #[test]
    fn crc32_matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest! {
        /// Every length 0..=4096 (so every 0–7 byte tail), read through a
        /// `Bytes` view at a random start so the 8-byte loads are
        /// unaligned; the view and each of its seven shorter prefixes hash
        /// as the bitwise loop does.
        #[test]
        fn sliced_crc32_equals_the_bitwise_oracle(
            data in prop::collection::vec(any::<u8>(), 0..4097),
            start in 0usize..64,
            pad in any::<u8>(),
        ) {
            let mut buf = vec![pad; start];
            buf.extend_from_slice(&data);
            let view = Bytes::from(buf).slice(start..);
            for cut in 0..view.len().min(8) {
                let part = view.slice(..view.len() - cut);
                prop_assert_eq!(crc32(&part), crc32_bitwise(&part), "len {}", part.len());
            }
        }
    }

    /// A single bit flipped anywhere in a blob long enough for the 8-byte
    /// loop — in the first word, at a word edge, mid-blob, in the tail —
    /// fails the checksum, so `assemble` restores from the replica.
    #[test]
    fn a_flip_in_any_word_or_the_tail_falls_back_to_the_replica() {
        let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();
        let data: Vec<u8> = (0..1027u32).map(|i| (i * 31 + 7) as u8).collect();
        assert_eq!(data.len() % 8, 3, "the blob must have a tail");
        for (byte, bit) in [(0, 0), (7, 7), (8, 3), (512, 5), (1026, 1)] {
            let mut s = CheckpointStore::replicated(2, 1, 0, &nodes, &[0, 1]);
            for rank in 0..2usize {
                s.record(rank, 0, Bytes::from(data.clone()));
                s.record_replica(rank, 0, Bytes::from(data.clone()));
            }
            assert!(s.corrupt_primary(0, 0, (byte, bit)));
            let a = s.assemble(&[]).unwrap();
            assert_eq!(a.replica_restores, 1, "flip at byte {byte} bit {bit}");
            assert_eq!(&a.checkpoint.ranks[0][..], &data[..]);
        }
    }

    /// A blob of `len` bytes whose content depends on `seed`.
    fn sized(len: usize, seed: u8) -> Bytes {
        Bytes::from(
            (0..len)
                .map(|i| (i as u8).wrapping_mul(13) ^ seed)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn a_local_store_hashes_nothing() {
        let mut s = CheckpointStore::new(2, 1, 0);
        let ((), hashed) = hashed_by(|| {
            for c in 0..3u64 {
                for rank in 0..2 {
                    s.record(rank, c, sized(500, rank as u8));
                }
            }
        });
        assert_eq!(hashed, 0, "record");
        let (ckpt, hashed) = hashed_by(|| s.take(2));
        assert_eq!((ckpt.unwrap().cycle, hashed), (2, 0), "take");
    }

    /// `assemble` on a local store is `take` at the frontier: nothing is
    /// hashed, so a flipped bit goes undetected, and dead nodes are
    /// ignored because the store records no placement.
    #[test]
    fn assemble_on_a_local_store_is_take_at_the_frontier() {
        let mut s = CheckpointStore::new(2, 1, 0);
        for c in 0..3u64 {
            s.record(0, c, sized(64, c as u8));
        }
        for c in 0..2u64 {
            s.record(1, c, sized(64, 10 + c as u8));
        }
        assert!(s.corrupt_primary(0, 1, (5, 2)));
        let (a, hashed) = hashed_by(|| s.assemble(&[NodeId(0), NodeId(1)]).unwrap());
        assert_eq!(hashed, 0);
        let took = s.take(s.frontier().unwrap()).unwrap();
        assert_eq!(a.checkpoint.cycle, took.cycle);
        assert_eq!(a.checkpoint.ranks, took.ranks);
        assert_ne!(
            &a.checkpoint.ranks[0][..],
            &sized(64, 1)[..],
            "the flip is kept"
        );
        assert_eq!((a.replica_restores, a.generation_fallbacks), (0, 1));
    }

    #[test]
    fn record_and_record_replica_hash_each_blob_once() {
        let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();
        let mut s = CheckpointStore::replicated(2, 1, 0, &nodes, &[0, 1]);
        let ((), hashed) = hashed_by(|| {
            for rank in 0..2usize {
                s.record(rank, 0, sized(300 + rank, rank as u8));
                s.record_replica(rank, 0, sized(300 + rank, rank as u8));
            }
        });
        assert_eq!(hashed, 300 + 301, "each blob once, at record");
        // With no owner entry to copy from, the replica hashes itself.
        let ((), hashed) = hashed_by(|| s.record_replica(0, 7, sized(40, 0)));
        assert_eq!(hashed, 40);
        assert!(s.replicas[0][&7].intact());
    }

    #[test]
    fn assemble_hashes_only_the_generations_it_inspects() {
        let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();
        let mut s = CheckpointStore::replicated(2, 2, 0, &nodes, &[0, 1]);
        let len = |cycle: u64| 100 * cycle as usize;
        for cycle in [1u64, 3] {
            for rank in 0..2usize {
                s.record(rank, cycle, sized(len(cycle), rank as u8));
                s.record_replica(rank, cycle, sized(len(cycle), rank as u8));
            }
        }
        // Clean: the newest generation's two primaries only.
        let (a, hashed) = hashed_by(|| s.assemble(&[]).unwrap());
        assert_eq!((a.checkpoint.cycle, hashed), (3, 2 * len(3)));
        // A copy on a dead node is skipped unhashed.
        let (a, hashed) = hashed_by(|| s.assemble(&[NodeId(0)]).unwrap());
        assert_eq!((a.replica_restores, hashed), (1, 2 * len(3)));
        // A bad primary adds its replica.
        assert!(s.corrupt_primary(0, 3, (0, 0)));
        let (a, hashed) = hashed_by(|| s.assemble(&[]).unwrap());
        assert_eq!((a.replica_restores, hashed), (1, 3 * len(3)));
        // Both copies of rank 0 bad: rank 1 at cycle 3 is never looked
        // at, and generation 1 went when generation 3 settled, so rank
        // 0's two copies are all the search hashes.
        assert!(s.corrupt_replica(0, 3, (0, 0)));
        let (a, hashed) = hashed_by(|| s.assemble(&[]));
        assert!(a.is_none());
        assert_eq!(hashed, 2 * len(3));
    }

    /// The replica carries its owner's checksum, so a buddy copy whose
    /// bytes differ from what the owner wrote is caught end to end.
    #[test]
    fn a_replica_unlike_its_owners_blob_fails_intact() {
        let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();
        let mut s = CheckpointStore::replicated(2, 2, 0, &nodes, &[0, 1]);
        for cycle in [1u64, 3] {
            for rank in 0..2usize {
                s.record(rank, cycle, sized(80, rank as u8));
                s.record_replica(rank, cycle, sized(80, rank as u8));
            }
        }
        s.record_replica(0, 3, sized(80, 99));
        assert!(!s.replicas[0][&3].intact());
        assert!(s.replicas[1][&3].intact());
        // With the primary good the replica is never read.
        assert_eq!(s.assemble(&[]).unwrap().checkpoint.cycle, 3);
        // Primary lost too: settled generation 3 has no intact copy of
        // rank 0, and the store holds nothing older.
        assert!(s.assemble(&[NodeId(0)]).is_none());
    }

    #[test]
    fn buddies_prefer_another_cluster_and_fall_back_to_the_ring() {
        // Ranks 0,1 in cluster 0 and ranks 2,3 in cluster 1: every buddy
        // must sit in the other cluster.
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let s = CheckpointStore::replicated(4, 1, 0, &nodes, &[0, 0, 1, 1]);
        for r in 0..4 {
            let b = s.buddy_of(r).unwrap();
            assert_ne!(b, r);
            assert_ne!(r < 2, b < 2, "buddy of rank {r} must cross clusters");
        }
        // One cluster only: ring neighbour.
        let s = CheckpointStore::replicated(3, 1, 0, &nodes[..3], &[0, 0, 0]);
        assert_eq!(s.buddy_of(0), Some(1));
        assert_eq!(s.buddy_of(2), Some(0));
        // A single rank has nobody to mirror to.
        let s = CheckpointStore::replicated(1, 1, 0, &nodes[..1], &[0]);
        assert_eq!(s.buddy_of(0), None);
        // Local mode never has buddies.
        assert_eq!(CheckpointStore::new(4, 1, 0).buddy_of(0), None);
    }

    /// A two-rank replicated store with generations 1 and 3 recorded and
    /// mirrored on both ranks; rank `r`'s blob at `cycle` is the byte
    /// `10 * r + cycle`.
    fn two_generations() -> CheckpointStore {
        let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();
        let mut s = CheckpointStore::replicated(2, 2, 0, &nodes, &[0, 1]);
        for cycle in [1u64, 3] {
            for rank in 0..2usize {
                s.record(rank, cycle, blob(10 * rank as u8 + cycle as u8));
                s.record_replica(rank, cycle, blob(10 * rank as u8 + cycle as u8));
            }
        }
        s
    }

    #[test]
    fn assemble_prefers_primary_then_replica_then_older_generation() {
        let mut s = two_generations();
        // Generation 3 is settled, so generation 1 is gone.
        assert_eq!(s.generations_held(), 1);
        assert!(s.take(1).is_none());
        // Clean store: newest generation, all primaries.
        let a = s.assemble(&[]).unwrap();
        assert_eq!(a.checkpoint.cycle, 3);
        assert_eq!((a.replica_restores, a.generation_fallbacks), (0, 0));

        // Bit-flip rank 0's newest primary: the checksum must reject it
        // and the buddy replica restores the same bytes.
        assert!(s.corrupt_primary(0, 3, (0, 0)));
        let a = s.assemble(&[]).unwrap();
        assert_eq!(a.checkpoint.cycle, 3);
        assert_eq!((a.replica_restores, a.generation_fallbacks), (1, 0));
        assert_eq!(&a.checkpoint.ranks[0][..], &[3u8]);

        // Kill the replica too: rank 0 has no intact copy of the settled
        // generation, and the store holds none older to fall back to.
        assert!(s.corrupt_replica(0, 3, (0, 0)));
        assert!(s.assemble(&[]).is_none());

        // The fallback a run can take: generation 5 is partly recorded
        // (both primaries, rank 1's replica only), so with node 0 dead
        // rank 0 has no copy of it, and the store falls back to the
        // settled generation, restoring rank 0 from its buddy.
        let mut s = two_generations();
        for rank in 0..2usize {
            s.record(rank, 5, blob(10 * rank as u8 + 5));
        }
        s.record_replica(1, 5, blob(15));
        assert_eq!(s.generations_held(), 2);
        let a = s.assemble(&[]).unwrap();
        assert_eq!(a.checkpoint.cycle, 5);
        assert_eq!((a.replica_restores, a.generation_fallbacks), (0, 0));
        let a = s.assemble(&[NodeId(0)]).unwrap();
        assert_eq!(a.checkpoint.cycle, 3);
        assert_eq!((a.replica_restores, a.generation_fallbacks), (1, 1));
        assert_eq!(&a.checkpoint.ranks[0][..], &[3u8]);
        assert_eq!(&a.checkpoint.ranks[1][..], &[13u8]);
    }

    #[test]
    fn assemble_honours_dead_nodes() {
        let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();
        let mut s = CheckpointStore::replicated(2, 2, 0, &nodes, &[0, 1]);
        for rank in 0..2usize {
            s.record(rank, 1, blob(rank as u8 + 1));
            s.record_replica(rank, 1, blob(rank as u8 + 1));
        }
        // Node 0 dead: rank 0's primary is unreachable, but its replica
        // lives on rank 1 (node 1). Rank 1's own primary is fine.
        let a = s.assemble(&[NodeId(0)]).unwrap();
        assert_eq!(a.checkpoint.cycle, 1);
        assert_eq!(a.replica_restores, 1);
        assert_eq!(&a.checkpoint.ranks[0][..], &[1u8]);
        // Both nodes dead: nothing survives anywhere.
        assert!(s.assemble(&[NodeId(0), NodeId(1)]).is_none());
    }

    /// The never-pruning reference: `record` and `record_replica` as they
    /// were before generations settled, keeping every copy.
    impl CheckpointStore {
        fn keep_primary(&mut self, rank: Rank, cycle: u64, blob: Bytes) {
            let crc = self.buddies.is_some().then(|| crc32(&blob));
            self.per_rank[rank].insert(self.base + cycle, Held { data: blob, crc });
        }

        fn keep_replica(&mut self, owner: Rank, cycle: u64, blob: Bytes) {
            let global = self.base + cycle;
            let owners = self.per_rank[owner].get(&global).and_then(|h| h.crc);
            let crc = Some(owners.unwrap_or_else(|| crc32(&blob)));
            self.replicas[owner].insert(global, Held { data: blob, crc });
        }

        /// The newest generation every rank holds in full, by a scan.
        fn settled_by_scan(&self) -> Option<u64> {
            self.held_cycles()
                .into_iter()
                .rev()
                .find(|&c| (0..self.per_rank.len()).all(|r| self.holds_in_full(r, c)))
        }
    }

    /// An assembled snapshot as comparable values.
    type Assembled = Option<(u64, Vec<Bytes>, u64, u64)>;

    fn assembled(a: Option<AssembledCheckpoint>) -> Assembled {
        a.map(|a| {
            let counts = (a.replica_restores, a.generation_fallbacks);
            (a.checkpoint.cycle, a.checkpoint.ranks, counts.0, counts.1)
        })
    }

    /// Every set of at most two of the first `nodes` nodes.
    fn dead_sets(nodes: usize) -> Vec<Vec<NodeId>> {
        let mut sets = vec![vec![]];
        for a in 0..nodes {
            sets.push(vec![NodeId(a as u32)]);
            for b in a + 1..nodes {
                sets.push(vec![NodeId(a as u32), NodeId(b as u32)]);
            }
        }
        sets
    }

    proptest! {
        /// A pruning store against the never-pruning reference over random
        /// schedules. Each rank records six primaries in order (fewer in
        /// about half the draws), each a random gap after the last; each
        /// replica arrives a random delay after its primary, so late, out
        /// of order with later ones, or never (a delay of 36 or more).
        /// Delays longer than gaps make a replica arrive after its
        /// generation was passed by, so the stale path runs; about a
        /// quarter of the replicas arrive twice. After every copy both
        /// stores agree on the frontier, on `take` there, and on
        /// `assemble` for every dead set of up to two nodes. The pruning
        /// store holds exactly the reference's generations from the
        /// settled one up, and drops a copy older than that unhashed.
        #[test]
        fn a_pruning_store_restores_what_a_keeping_one_does(
            ranks in 1usize..7,
            replicated in any::<bool>(),
            clusters in prop::collection::vec(0usize..3, 6..7),
            recorded in prop::collection::vec(0u64..12, 6..7),
            timing in prop::collection::vec((1u32..4, 0u32..40, 0u32..160), 36..37),
            base in 0u64..4,
        ) {
            let nodes: Vec<NodeId> = (0..ranks as u32).map(NodeId).collect();
            let build = || {
                if replicated {
                    CheckpointStore::replicated(ranks, 1, base, &nodes, &clusters[..ranks])
                } else {
                    CheckpointStore::new(ranks, 1, base)
                }
            };
            let (mut pruning, mut keeping) = (build(), build());
            // (arrival, is replica, rank, engine-local cycle)
            let mut copies = Vec::new();
            for (rank, &count) in recorded.iter().enumerate().take(ranks) {
                let mut at = 0;
                for cycle in 0..count.min(6) {
                    let (gap, delay, again) = timing[rank * 6 + cycle as usize];
                    at += gap;
                    copies.push((at, false, rank, cycle));
                    if delay < 36 && pruning.buddy_of(rank).is_some() {
                        copies.push((at + delay, true, rank, cycle));
                        if again < 40 {
                            copies.push((at + delay + again, true, rank, cycle));
                        }
                    }
                }
            }
            copies.sort_unstable();
            let dead_sets = dead_sets(ranks);
            for (_, replica, rank, cycle) in copies {
                let data = Bytes::from(vec![rank as u8, cycle as u8, 0x5A, 0xC3]);
                let stale = pruning.settled.is_some_and(|s| base + cycle < s);
                let held_before = pruning.held_cycles();
                let ((), hashed) = hashed_by(|| {
                    if replica {
                        pruning.record_replica(rank, cycle, data.clone());
                    } else {
                        pruning.record(rank, cycle, data.clone());
                    }
                });
                if replica {
                    keeping.keep_replica(rank, cycle, data);
                } else {
                    keeping.keep_primary(rank, cycle, data);
                }
                if stale {
                    prop_assert_eq!(hashed, 0);
                    prop_assert_eq!(pruning.held_cycles(), held_before);
                }

                let settled = keeping.settled_by_scan();
                prop_assert_eq!(pruning.settled, settled);
                let from_settled: Vec<u64> = keeping
                    .held_cycles()
                    .into_iter()
                    .filter(|&c| settled.is_none_or(|s| c >= s))
                    .collect();
                prop_assert_eq!(pruning.held_cycles(), from_settled);
                prop_assert!(pruning.full.keys().all(|&c| settled.is_none_or(|s| c > s)));

                let frontier = keeping.frontier();
                prop_assert_eq!(pruning.frontier(), frontier);
                if let Some(f) = frontier {
                    let took = |s: &CheckpointStore| s.take(f).map(|c| c.ranks);
                    prop_assert_eq!(took(&pruning), took(&keeping));
                }
                for dead in &dead_sets {
                    prop_assert_eq!(
                        assembled(pruning.assemble(dead)),
                        assembled(keeping.assemble(dead)),
                        "dead {:?}",
                        dead
                    );
                }
            }
        }
    }
}
