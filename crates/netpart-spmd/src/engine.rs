//! The unified SPMD cycle-execution engine.
//!
//! [`CycleEngine`] is the *only* place in the workspace that executes
//! communication/computation cycles on the simulated network. It owns the
//! per-task state machines, the message tagging (the cycle-tag layout
//! lives beside the message layer in [`netpart_mmps::tag_of`]), the phase
//! stepping, and the communication/computation overlap; everything else —
//! the [`Executor`](crate::Executor) facade, the calibration benchmarks,
//! the dynamic-rebalancing baseline — drives cycles through it.
//!
//! Instrumentation attaches through the [`Probe`] trait: per-cycle,
//! per-phase and per-message observation hooks with empty inlined
//! defaults, so a run through [`NoProbe`] monomorphizes to exactly the
//! un-instrumented engine. A probe only watches. What can change a run —
//! checkpoint capture, replica traffic, a drift abort, the error a crash
//! becomes — arrives as an explicit [`Segment`] the engine consults at
//! each cycle boundary.

use bytes::Bytes;

use netpart_mmps::{
    epoch_of, strip_epoch, tag_of, untag, with_epoch, Mmps, MmpsEvent, CKPT_TAG, PING_TAG,
};
use netpart_model::{NetpartError, PartitionVector};
use netpart_sim::{FastMap, NodeId, SimDur, SimTime};

use crate::checkpoint::CheckpointStore;
use crate::drift::DriftMonitor;
use crate::report::SpmdReport;
use crate::task::{Rank, SpmdApp, Step};

/// Map a send-time network error to its typed form: a fail-fast
/// partitioned fabric names the unreachable peer rank, so recovery can
/// classify it as an island event (replan over the reachable component,
/// re-admit once the fabric heals) instead of a generic network failure.
fn send_err(peer: Rank) -> impl Fn(netpart_sim::SimError) -> NetpartError {
    move |e| match e {
        netpart_sim::SimError::FabricPartitioned { .. } => {
            NetpartError::FabricPartitioned { rank: peer }
        }
        other => NetpartError::Network(other.to_string()),
    }
}

/// The phase of a cycle script a [`Probe`] observation refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A `Step::Send` — asynchronous sends to this cycle's peers.
    Send,
    /// A `Step::Compute` — the processor busy on its region.
    Compute,
    /// A `Step::Recv` — blocking receives from this cycle's peers.
    Recv,
}

/// Observation hooks into the cycle engine.
///
/// Every method has an empty `#[inline]` default, so probes implement
/// only what they need and [`NoProbe`] costs nothing after
/// monomorphization. Hooks fire with *simulated* times; `started == ended`
/// for phases that complete without blocking. No hook can change the run.
pub trait Probe {
    /// `rank` completed one phase step of `cycle`'s script. For
    /// [`Phase::Compute`] the span is the processor-busy time; for
    /// [`Phase::Recv`] it covers any time blocked waiting on messages.
    #[inline]
    fn on_phase(&mut self, rank: Rank, cycle: u64, phase: Phase, started: SimTime, ended: SimTime) {
        let _ = (rank, cycle, phase, started, ended);
    }

    /// `rank` finished every step of `cycle` at simulated time `at`.
    #[inline]
    fn on_cycle(&mut self, rank: Rank, cycle: u64, at: SimTime) {
        let _ = (rank, cycle, at);
    }

    /// A cycle message from `from` was delivered to `to` at `at`.
    #[inline]
    fn on_message(&mut self, from: Rank, to: Rank, cycle: u64, bytes: usize, at: SimTime) {
        let _ = (from, to, cycle, bytes, at);
    }
}

/// The no-op probe: an un-instrumented run.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl Probe for NoProbe {}

/// One segment of a recoverable run: everything beside the probe that the
/// engine consults at a cycle boundary, and the only way anything but the
/// application changes a run.
///
/// A run without a segment runs in epoch 0, serializes nothing, sends no
/// replica traffic and reports a silent peer as
/// [`NetpartError::PeerUnreachable`]. With one, a silent peer is
/// [`NetpartError::RankFailed`] carrying the store's consistent frontier.
#[derive(Debug)]
pub struct Segment<'s> {
    /// Stamped on every message tag and compute token; events stamped
    /// with any other epoch are ignored, so traffic from an abandoned
    /// (crashed) segment still in flight on the shared network is
    /// discarded by value instead of corrupting mailboxes.
    pub epoch: u16,
    /// Records each rank's checkpoint blobs and, in replicated mode,
    /// names the buddy rank the engine mirrors every blob to over the
    /// ordinary message layer.
    pub store: &'s mut CheckpointStore,
    /// Under an adaptive policy: fed phases and cycles, and a confirmed
    /// drift ends the run with
    /// [`NetpartError::DriftDegraded`].
    pub monitor: Option<&'s mut DriftMonitor>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Waiting {
    Ready,
    Compute,
    Msg,
    Done,
}

struct TaskState {
    cycle: u64,
    script: Vec<Step>,
    step: usize,
    recv_progress: usize,
    waiting: Waiting,
    started: bool,
    /// When the currently-executing phase step was first entered
    /// (tracked across blocking so probes see the full span).
    phase_started: SimTime,
    phase_active: bool,
}

/// The single cycle-execution implementation.
///
/// Borrows the message layer, the placement, the application, a probe and
/// optionally a [`Segment`] for the duration of one run; construct-and-run
/// through [`CycleEngine::run`]. The [`Executor`](crate::Executor) facade
/// wraps this for the common own-the-network case.
pub struct CycleEngine<'a, A: SpmdApp, P: Probe> {
    mmps: &'a mut Mmps,
    nodes: &'a [NodeId],
    app: &'a mut A,
    probe: &'a mut P,
    segment: Option<Segment<'a>>,
    states: Vec<TaskState>,
    mailbox: Vec<FastMap<(u64, Rank, u8), Bytes>>,
    /// Per rank, the next message sequence number to stamp on a send to
    /// each peer / expect from each peer *within the rank's current
    /// cycle*. A rank only sends and receives in its current cycle, so
    /// both maps are emptied when it advances and stay O(neighbors).
    send_seq: Vec<FastMap<Rank, u8>>,
    recv_next: Vec<FastMap<Rank, u8>>,
    cycle_max: Vec<SimTime>,
    rank_finish: Vec<SimTime>,
    compute_busy: Vec<SimDur>,
    compute_started: Vec<SimTime>,
    msg_wait: Vec<SimDur>,
    msg_wait_started: Vec<SimTime>,
    done: usize,
    num_cycles: u64,
    node_to_rank: FastMap<NodeId, Rank>,
    epoch: u16,
}

impl<'a, A: SpmdApp, P: Probe> CycleEngine<'a, A, P> {
    /// Run `app` to completion over `nodes` with the given partition
    /// vector, reporting observations to `probe`. `distribute` enables
    /// the startup data distribution from rank 0 (measured separately,
    /// excluded from `elapsed` as in the paper). `segment` carries a
    /// recoverable run's epoch, checkpoint store and drift monitor;
    /// `None` is a standalone run in epoch 0.
    pub fn run(
        mmps: &'a mut Mmps,
        nodes: &'a [NodeId],
        app: &'a mut A,
        vector: &PartitionVector,
        distribute: bool,
        probe: &'a mut P,
        segment: Option<Segment<'a>>,
    ) -> Result<SpmdReport, NetpartError> {
        if vector.num_ranks() != nodes.len() {
            return Err(NetpartError::RankMismatch {
                vector: vector.num_ranks(),
                nodes: nodes.len(),
            });
        }
        let n = nodes.len();
        let num_cycles = app.num_cycles();
        // The run's baseline is the *current* simulated time — the same
        // network may host consecutive runs (the dynamic-rebalancing
        // baseline alternates stencil chunks and redistribution runs).
        let run_start = mmps.now();
        for rank in 0..n {
            app.setup(rank, vector);
        }

        let node_to_rank = nodes.iter().enumerate().map(|(r, &nid)| (nid, r)).collect();
        let epoch = segment.as_ref().map_or(0, |s| s.epoch);
        let mut engine = CycleEngine {
            mmps,
            nodes,
            app,
            probe,
            segment,
            states: (0..n)
                .map(|rank| TaskState {
                    cycle: 0,
                    script: Vec::new(),
                    step: 0,
                    recv_progress: 0,
                    waiting: Waiting::Ready,
                    started: !distribute || rank == 0,
                    phase_started: run_start,
                    phase_active: false,
                })
                .collect(),
            mailbox: (0..n).map(|_| FastMap::default()).collect(),
            send_seq: (0..n).map(|_| FastMap::default()).collect(),
            recv_next: (0..n).map(|_| FastMap::default()).collect(),
            cycle_max: vec![SimTime::ZERO; num_cycles as usize],
            rank_finish: vec![SimTime::ZERO; n],
            compute_busy: vec![SimDur::ZERO; n],
            compute_started: vec![SimTime::ZERO; n],
            msg_wait: vec![SimDur::ZERO; n],
            msg_wait_started: vec![SimTime::ZERO; n],
            done: 0,
            num_cycles,
            node_to_rank,
            epoch,
        };

        // Startup distribution: rank 0's node ships every other rank its
        // block before that rank may begin cycling.
        let mut startup_end = run_start;
        if distribute && n > 1 {
            let master = engine.nodes[0];
            for rank in 1..n {
                let bytes = engine.app.distribution_bytes(rank);
                if bytes == 0 {
                    engine.states[rank].started = true;
                    continue;
                }
                engine
                    .mmps
                    .send_message_dummy(
                        master,
                        engine.nodes[rank],
                        with_epoch(epoch, tag_of(0, 0, 0)),
                        bytes as u32,
                    )
                    .map_err(send_err(rank))?;
            }
        }

        // Kick every rank that can already run (cycle scripts load lazily).
        if num_cycles == 0 {
            engine.done = n;
            for s in &mut engine.states {
                s.waiting = Waiting::Done;
            }
        } else {
            for rank in 0..n {
                if engine.states[rank].started {
                    engine.load_script(rank);
                    engine.advance(rank)?;
                }
            }
        }

        // Event loop. A quiescent network with unfinished ranks is either
        // a logical deadlock or a fail-stop peer whose silence looks like
        // one (its own sends are swallowed with its stack, and once the
        // live side's in-flight traffic drains nothing is left to fail).
        // One round of liveness pings tells them apart: blocked ranks ping
        // the peers they wait on; a ping the message layer gives up on
        // surfaces as `MessageFailed` naming the dead node, while pings
        // that all deliver change nothing and the second quiescence is a
        // genuine deadlock. Fault-free runs never quiesce early, so this
        // path costs them nothing.
        let mut pinged = false;
        while engine.done < n {
            let Some(evt) = engine.mmps.next_event() else {
                if !pinged {
                    pinged = true;
                    if engine.send_liveness_pings()? > 0 {
                        continue;
                    }
                }
                // A `ComputeDone` can only vanish from the timeline with
                // its host's fail-stop (the processor model always
                // completes work on a live node), so a rank still waiting
                // on one at quiescence *is* the failure — even when no
                // other rank depends on it and no ping could name it.
                if let Some(rank) = engine
                    .states
                    .iter()
                    .position(|s| s.waiting == Waiting::Compute)
                {
                    return Err(engine.silent(rank, 0));
                }
                let blocked = engine
                    .states
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.waiting != Waiting::Done)
                    .map(|(r, s)| {
                        (
                            r,
                            format!(
                                "cycle {} step {} waiting {:?} started {}",
                                s.cycle, s.step, s.waiting, s.started
                            ),
                        )
                    })
                    .collect();
                return Err(NetpartError::Deadlock { blocked });
            };
            match evt {
                MmpsEvent::MessageDelivered {
                    at,
                    dst,
                    tag,
                    payload,
                    ..
                } => {
                    // Stale traffic from an abandoned epoch (or another
                    // protocol sharing the network, e.g. a straggling
                    // availability reply) is discarded, not fatal.
                    if epoch_of(tag) != engine.epoch {
                        continue;
                    }
                    if strip_epoch(tag) & PING_TAG != 0 {
                        // A delivered liveness ping proves the peer's stack
                        // is up; it carries no task data.
                        continue;
                    }
                    if strip_epoch(tag) & CKPT_TAG != 0 {
                        // A checkpoint replica reached its buddy: it goes
                        // to the segment's store, never to the app's
                        // mailbox (only a segment sends replicas).
                        if let Some(seg) = &mut engine.segment {
                            let (cyc1, owner, _) = untag(strip_epoch(tag) & !CKPT_TAG);
                            seg.store.record_replica(owner, cyc1 - 1, payload);
                        }
                        continue;
                    }
                    let Some(&rank) = engine.node_to_rank.get(&dst) else {
                        // Delivery to a node outside this computation —
                        // a previous run's placement included it.
                        continue;
                    };
                    let (cyc1, from, seq) = untag(strip_epoch(tag));
                    if cyc1 == 0 {
                        // Startup distribution block arrived.
                        engine.states[rank].started = true;
                        startup_end = startup_end.max(at);
                        engine.load_script(rank);
                        engine.advance(rank)?;
                    } else {
                        engine
                            .probe
                            .on_message(from, rank, cyc1 - 1, payload.len(), at);
                        engine.mailbox[rank].insert((cyc1 - 1, from, seq), payload);
                        if engine.states[rank].waiting == Waiting::Msg {
                            engine.states[rank].waiting = Waiting::Ready;
                            let started = engine.msg_wait_started[rank];
                            engine.msg_wait[rank] += at.since(started);
                            engine.advance(rank)?;
                        }
                    }
                }
                MmpsEvent::ComputeDone { at, node, token } => {
                    // Token layout: epoch << 32 | rank. A completion from
                    // a previous epoch's run on a reused node is stale.
                    if token >> 32 != engine.epoch as u64 {
                        continue;
                    }
                    let rank = (token & 0xFFFF_FFFF) as usize;
                    debug_assert_eq!(engine.nodes[rank], node);
                    debug_assert_eq!(engine.states[rank].waiting, Waiting::Compute);
                    engine.states[rank].waiting = Waiting::Ready;
                    let started = engine.compute_started[rank];
                    engine.compute_busy[rank] += at.since(started);
                    let cycle = engine.states[rank].cycle;
                    engine.phase_done(rank, cycle, Phase::Compute, started, at);
                    engine.states[rank].phase_active = false;
                    engine.advance(rank)?;
                }
                MmpsEvent::MessageFailed {
                    src,
                    dst,
                    tag,
                    attempts,
                    ..
                } => {
                    // A doomed retransmission tail from an abandoned epoch
                    // may still expire during this run; it is not *our*
                    // failure.
                    if epoch_of(tag) != engine.epoch {
                        continue;
                    }
                    // Replica mirroring is best-effort background traffic:
                    // a mirror that exhausts its budget (lossy segment,
                    // dead buddy) costs one replica generation — which
                    // recovery's assembly already tolerates by falling back
                    // — and must not be read as the *computation* failing.
                    // A genuinely dead buddy is still caught through the
                    // cycle traffic and liveness pings addressed to it.
                    if strip_epoch(tag) & CKPT_TAG != 0 {
                        continue;
                    }
                    // Failures only fire at live senders (a crashed node's
                    // retransmissions die silently with its stack), so the
                    // *destination* names the unreachable suspect.
                    match engine.node_to_rank.get(&dst).copied() {
                        Some(to) => return Err(engine.silent(to, attempts)),
                        None => {
                            let from = engine.node_to_rank.get(&src).copied().unwrap_or(usize::MAX);
                            return Err(NetpartError::MessageLost {
                                from,
                                to: usize::MAX,
                            });
                        }
                    }
                }
                MmpsEvent::MessageAcked { .. } | MmpsEvent::TimerFired { .. } => {}
            }
        }

        let rank_finish: Vec<SimTime> = if num_cycles == 0 {
            vec![run_start; n]
        } else {
            engine.rank_finish.clone()
        };
        let finish = rank_finish.iter().copied().max().unwrap_or(SimTime::ZERO);
        let mut per_cycle = Vec::with_capacity(engine.cycle_max.len());
        let mut prev = startup_end;
        for &t in &engine.cycle_max {
            per_cycle.push(t.since(prev));
            prev = t;
        }
        let stats = engine.mmps.stats();
        Ok(SpmdReport {
            elapsed: finish.since(startup_end),
            startup: startup_end.since(SimTime::ZERO),
            per_cycle,
            rank_finish,
            compute_time: engine.compute_busy.clone(),
            wait_time: engine.msg_wait.clone(),
            mmps: stats,
        })
    }

    /// One round of failure detection at quiescence: every blocked rank
    /// pings the peers whose messages it is still waiting on (a rank that
    /// never received its startup block pings the distributing master).
    /// Pings from a crashed rank vanish with its stack — harmless — so a
    /// dead node is always probed *by* a live one as long as any live rank
    /// depends on it. Returns the number of pings sent.
    fn send_liveness_pings(&mut self) -> Result<usize, NetpartError> {
        let mut targets: Vec<(Rank, Rank)> = Vec::new();
        for (rank, s) in self.states.iter().enumerate() {
            if !s.started {
                if rank != 0 {
                    targets.push((rank, 0)); // waiting on the master's block
                }
                continue;
            }
            if s.waiting != Waiting::Msg {
                continue;
            }
            if let Some(Step::Recv { from }) = s.script.get(s.step) {
                for &f in &from[s.recv_progress..] {
                    if f != rank {
                        targets.push((rank, f));
                    }
                }
            }
        }
        for &(from, to) in &targets {
            self.mmps
                .send_message(
                    self.nodes[from],
                    self.nodes[to],
                    with_epoch(self.epoch, PING_TAG | ((from as u64) << 8) | to as u64),
                    Bytes::new(),
                )
                .map_err(send_err(to))?;
        }
        Ok(targets.len())
    }

    fn load_script(&mut self, rank: Rank) {
        let cycle = self.states[rank].cycle;
        let script = self.app.script(rank, cycle);
        let s = &mut self.states[rank];
        s.script = script;
        s.step = 0;
        s.recv_progress = 0;
    }

    /// The typed error for `rank` gone silent: [`NetpartError::RankFailed`]
    /// carrying the consistent frontier when a segment is checkpointing,
    /// [`NetpartError::PeerUnreachable`] otherwise.
    fn silent(&self, rank: Rank, attempts: u32) -> NetpartError {
        match &self.segment {
            Some(seg) => NetpartError::RankFailed {
                rank,
                cycle: self.states[rank].cycle,
                checkpoint: seg.store.frontier(),
                attempts,
            },
            None => NetpartError::PeerUnreachable { rank, attempts },
        }
    }

    /// A finished phase step, reported to the probe and to the segment's
    /// drift monitor.
    fn phase_done(
        &mut self,
        rank: Rank,
        cycle: u64,
        phase: Phase,
        started: SimTime,
        ended: SimTime,
    ) {
        self.probe.on_phase(rank, cycle, phase, started, ended);
        if let Some(m) = self.segment.as_mut().and_then(|s| s.monitor.as_deref_mut()) {
            m.on_phase(rank, cycle, phase, started, ended);
        }
    }

    /// The segment's work when `rank` completes `cycle`, in this order:
    /// the monitor folds in the cycle; the store captures the checkpoint
    /// and, replicated, the blob rides the wire to the buddy's node as a
    /// normal reliable message (a dead buddy enters ordinary failure
    /// detection as the suspect); a confirmed drift ends the run — after
    /// the checkpoint, so recovery resumes from the freshest consistent
    /// state.
    fn segment_boundary(
        &mut self,
        rank: Rank,
        cycle: u64,
        now: SimTime,
    ) -> Result<(), NetpartError> {
        let Some(seg) = &mut self.segment else {
            return Ok(());
        };
        if let Some(m) = seg.monitor.as_deref_mut() {
            m.on_cycle(rank, cycle, now);
        }
        seg.store.saw_cycle(cycle);
        if seg.store.wants(cycle) {
            if let Some(blob) = self.app.checkpoint(rank, cycle) {
                seg.store.record(rank, cycle, blob.clone());
                if let Some(buddy) = seg.store.buddy_of(rank) {
                    let tag = with_epoch(self.epoch, CKPT_TAG | tag_of(cycle + 1, rank, 0));
                    self.mmps
                        .send_message(self.nodes[rank], self.nodes[buddy], tag, blob)
                        .map_err(send_err(buddy))?;
                }
            }
        }
        if let Some(m) = seg.monitor.as_deref_mut() {
            if let Some(d) = m.confirmed() {
                return Err(NetpartError::DriftDegraded {
                    rank: d.rank,
                    cycle: d.cycle,
                    checkpoint: seg.store.frontier(),
                    severity_permille: d.severity_permille(),
                });
            }
        }
        Ok(())
    }

    /// Begin (or resume) the current phase step, returning when it was
    /// first entered.
    fn phase_enter(&mut self, rank: Rank) -> SimTime {
        if !self.states[rank].phase_active {
            self.states[rank].phase_active = true;
            self.states[rank].phase_started = self.mmps.now();
        }
        self.states[rank].phase_started
    }

    /// Run `rank`'s script until it blocks, finishes the run, or errors.
    fn advance(&mut self, rank: Rank) -> Result<(), NetpartError> {
        loop {
            let s = &self.states[rank];
            if s.waiting == Waiting::Done {
                return Ok(());
            }
            if s.step >= s.script.len() {
                // Cycle complete.
                let now = self.mmps.now();
                let cycle = self.states[rank].cycle;
                self.cycle_max[cycle as usize] = self.cycle_max[cycle as usize].max(now);
                self.probe.on_cycle(rank, cycle, now);
                self.segment_boundary(rank, cycle, now)?;
                let next = cycle + 1;
                if next >= self.num_cycles {
                    self.states[rank].waiting = Waiting::Done;
                    self.rank_finish[rank] = now;
                    self.done += 1;
                    return Ok(());
                }
                #[cfg(test)]
                tests::note_seq_entries(self.send_seq[rank].len() + self.recv_next[rank].len());
                self.send_seq[rank].clear();
                self.recv_next[rank].clear();
                self.states[rank].cycle = next;
                self.load_script(rank);
                continue;
            }
            // The script leaves its state while a step runs, so the step's
            // peer list is read in place while the engine mutates app,
            // message layer and state; it goes back before any error
            // propagates.
            let script = std::mem::take(&mut self.states[rank].script);
            let blocked = self.run_step(rank, &script[self.states[rank].step]);
            self.states[rank].script = script;
            if blocked? {
                return Ok(());
            }
        }
    }

    /// Run `rank`'s current step, `step`. `Ok(true)` when the rank
    /// blocked on it (a compute block started, or a receive found its
    /// mailbox short), `Ok(false)` when the step completed.
    fn run_step(&mut self, rank: Rank, step: &Step) -> Result<bool, NetpartError> {
        match step {
            Step::Send { to } => {
                let started = self.phase_enter(rank);
                let cycle = self.states[rank].cycle;
                for &peer in to {
                    let seq_entry = self.send_seq[rank].entry(peer).or_insert(0);
                    let seq = *seq_entry;
                    *seq_entry = seq_entry.wrapping_add(1);
                    let payload = self.app.produce(rank, cycle, peer);
                    self.mmps
                        .send_message(
                            self.nodes[rank],
                            self.nodes[peer],
                            with_epoch(self.epoch, tag_of(cycle + 1, rank, seq)),
                            payload,
                        )
                        .map_err(send_err(peer))?;
                }
                self.states[rank].step += 1;
                self.states[rank].phase_active = false;
                self.phase_done(rank, cycle, Phase::Send, started, self.mmps.now());
                Ok(false)
            }
            &Step::Compute { part } => {
                let started = self.phase_enter(rank);
                let cycle = self.states[rank].cycle;
                let (ops, kind) = self.app.compute(rank, cycle, part);
                let class = match kind {
                    netpart_model::OpKind::Flop => netpart_sim::OpClass::Flop,
                    netpart_model::OpKind::IntOp => netpart_sim::OpClass::IntOp,
                };
                self.compute_started[rank] = started;
                let token = ((self.epoch as u64) << 32) | rank as u64;
                self.mmps.start_compute(self.nodes[rank], ops, class, token);
                self.states[rank].step += 1;
                self.states[rank].waiting = Waiting::Compute;
                // The Compute phase probe fires on ComputeDone, where
                // the span is known.
                Ok(true)
            }
            Step::Recv { from } => {
                let started = self.phase_enter(rank);
                let cycle = self.states[rank].cycle;
                let mut progress = self.states[rank].recv_progress;
                while progress < from.len() {
                    let f = from[progress];
                    let next_seq = self.recv_next[rank].entry(f).or_insert(0);
                    match self.mailbox[rank].remove(&(cycle, f, *next_seq)) {
                        Some(payload) => {
                            *next_seq = next_seq.wrapping_add(1);
                            self.app.consume(rank, cycle, f, &payload);
                            progress += 1;
                        }
                        None => {
                            self.states[rank].recv_progress = progress;
                            self.states[rank].waiting = Waiting::Msg;
                            self.msg_wait_started[rank] = self.mmps.now();
                            return Ok(true);
                        }
                    }
                }
                self.states[rank].recv_progress = 0;
                self.states[rank].step += 1;
                self.states[rank].phase_active = false;
                self.phase_done(rank, cycle, Phase::Recv, started, self.mmps.now());
                Ok(false)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use netpart_model::OpKind;
    use netpart_sim::{NetworkBuilder, ProcType, SegmentSpec};

    use super::*;

    thread_local! {
        /// Most `send_seq` + `recv_next` entries any rank held when it
        /// finished a cycle, on this test thread.
        static SEQ_ENTRIES_HIGH_WATER: Cell<usize> = const { Cell::new(0) };
    }

    pub(super) fn note_seq_entries(entries: usize) {
        SEQ_ENTRIES_HIGH_WATER.with(|h| h.set(h.get().max(entries)));
    }

    /// A ring exchange with no arithmetic: two peers per rank per cycle.
    struct Ring {
        p: usize,
        cycles: u64,
    }

    impl SpmdApp for Ring {
        fn setup(&mut self, _rank: Rank, _vector: &PartitionVector) {}
        fn num_cycles(&self) -> u64 {
            self.cycles
        }
        fn script(&self, rank: Rank, _cycle: u64) -> Vec<Step> {
            let peers = vec![(rank + 1) % self.p, (rank + self.p - 1) % self.p];
            vec![
                Step::Send { to: peers.clone() },
                Step::Recv { from: peers },
                Step::Compute { part: 0 },
            ]
        }
        fn produce(&mut self, _rank: Rank, _cycle: u64, _to: Rank) -> Bytes {
            Bytes::from(vec![0u8; 8])
        }
        fn consume(&mut self, _rank: Rank, _cycle: u64, _from: Rank, _payload: &[u8]) {}
        fn compute(&mut self, _rank: Rank, _cycle: u64, _part: u32) -> (f64, OpKind) {
            (100.0, OpKind::Flop)
        }
    }

    /// The sequence maps used to be keyed by `(cycle, peer)` and never
    /// pruned: `neighbors` new entries per rank per cycle for the whole
    /// run. They must stay at one entry per peer per direction.
    #[test]
    fn sequence_maps_stay_bounded_by_neighbors_over_1000_cycles() {
        let p = 4;
        let mut b = NetworkBuilder::new(3);
        let pt = b.add_proc_type(ProcType::sparcstation_2());
        let seg = b.add_segment(SegmentSpec::ethernet_10mbps());
        let nodes: Vec<NodeId> = (0..p).map(|_| b.add_node(pt, seg)).collect();
        let mut mmps = Mmps::with_defaults(b.build().expect("network"));
        let mut app = Ring { p, cycles: 1000 };
        let vector = PartitionVector::equal(p as u64, p);
        let report = CycleEngine::run(
            &mut mmps,
            &nodes,
            &mut app,
            &vector,
            false,
            &mut NoProbe,
            None,
        )
        .expect("ring run");
        assert_eq!(report.per_cycle.len(), 1000);
        let neighbors = 2;
        assert_eq!(SEQ_ENTRIES_HIGH_WATER.with(Cell::get), 2 * neighbors);
    }
}
