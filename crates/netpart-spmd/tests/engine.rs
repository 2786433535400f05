//! Engine tests with a toy halo-exchange application: data integrity,
//! overlap benefit, load-balance behaviour, distribution accounting,
//! failure paths, and what a [`Segment`] adds to a run.

use std::any::Any;
use std::panic;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use bytes::Bytes;
use netpart_mmps::Mmps;
use netpart_model::{NetpartError, OpKind, PartitionVector};
use netpart_sim::{FaultPlan, NetworkBuilder, NodeId, ProcType, SegmentSpec, SimDur, SimTime};
use netpart_spmd::{
    CheckpointStore, DriftMonitor, Executor, Job, NoProbe, Segment, SpmdApp, SpmdReport, Step,
};
use netpart_topology::Topology;

/// A toy 1-D app: each rank holds a vector of f64 "rows"; every cycle it
/// sends its edge values to chain neighbors, receives theirs, and adds
/// them in. Compute cost is `ops_per_pdu` per held row.
struct HaloApp {
    cycles: u64,
    ops_per_pdu: f64,
    overlap: bool,
    /// per-rank data: (held rows, received sum accumulator)
    data: Vec<Vec<f64>>,
    consumed: Vec<Vec<(u64, usize, f64)>>,
    p: usize,
    dist_bytes: u64,
    msg_bytes: usize,
}

impl HaloApp {
    fn new(p: usize, cycles: u64, ops_per_pdu: f64, overlap: bool) -> HaloApp {
        HaloApp {
            cycles,
            ops_per_pdu,
            overlap,
            data: vec![Vec::new(); p],
            consumed: vec![Vec::new(); p],
            p,
            dist_bytes: 0,
            msg_bytes: 8,
        }
    }

    fn neighbors(&self, rank: usize) -> Vec<usize> {
        Topology::OneD
            .neighbors(rank as u32, self.p as u32)
            .into_iter()
            .map(|r| r as usize)
            .collect()
    }
}

impl SpmdApp for HaloApp {
    fn setup(&mut self, rank: usize, vector: &PartitionVector) {
        self.data[rank] = vec![rank as f64 + 1.0; vector.count(rank) as usize];
    }

    fn num_cycles(&self) -> u64 {
        self.cycles
    }

    fn script(&self, rank: usize, _cycle: u64) -> Vec<Step> {
        let n = self.neighbors(rank);
        if self.overlap {
            vec![
                Step::Send { to: n.clone() },
                Step::Compute { part: 0 },
                Step::Recv { from: n },
            ]
        } else {
            vec![
                Step::Send { to: n.clone() },
                Step::Recv { from: n },
                Step::Compute { part: 0 },
            ]
        }
    }

    fn produce(&mut self, rank: usize, cycle: u64, _to: usize) -> Bytes {
        let edge = *self.data[rank].first().unwrap_or(&0.0) + cycle as f64;
        let mut buf = vec![0u8; self.msg_bytes.max(8)];
        buf[..8].copy_from_slice(&edge.to_le_bytes());
        Bytes::from(buf)
    }

    fn consume(&mut self, rank: usize, cycle: u64, from: usize, payload: &[u8]) {
        let v = f64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
        self.consumed[rank].push((cycle, from, v));
    }

    fn compute(&mut self, rank: usize, _cycle: u64, _part: u32) -> (f64, OpKind) {
        let held = self.data[rank].len() as f64;
        for x in &mut self.data[rank] {
            *x += 0.5;
        }
        (held * self.ops_per_pdu, OpKind::Flop)
    }

    fn distribution_bytes(&self, _rank: usize) -> u64 {
        self.dist_bytes
    }

    fn checkpoint(&self, rank: usize, _cycle: u64) -> Option<Bytes> {
        let bytes: Vec<u8> = self.data[rank]
            .iter()
            .flat_map(|x| x.to_le_bytes())
            .collect();
        Some(Bytes::from(bytes))
    }
}

fn homogeneous_cluster(p: usize) -> (Mmps, Vec<NodeId>) {
    let mut b = NetworkBuilder::new(11);
    let pt = b.add_proc_type(ProcType::sparcstation_2());
    let seg = b.add_segment(SegmentSpec::ethernet_10mbps());
    let nodes: Vec<_> = (0..p).map(|_| b.add_node(pt, seg)).collect();
    (Mmps::with_defaults(b.build().expect("network")), nodes)
}

#[test]
fn exchange_delivers_expected_values() {
    let (mmps, nodes) = homogeneous_cluster(4);
    let mut app = HaloApp::new(4, 3, 1000.0, false);
    let mut exec = Executor::new(mmps, nodes);
    let report = exec
        .run(&mut app, &PartitionVector::equal(40, 4), false)
        .expect("run");
    assert_eq!(report.per_cycle.len(), 3);
    assert!(report.elapsed.as_millis_f64() > 0.0);

    // Every rank consumed one value per neighbor per cycle, in cycle order,
    // carrying the sender's edge value.
    for rank in 0..4usize {
        let nb = app.neighbors(rank);
        assert_eq!(app.consumed[rank].len(), 3 * nb.len());
        for &(cycle, from, v) in &app.consumed[rank] {
            assert!(nb.contains(&from));
            // sender's edge at that cycle: (from+1) + 0.5*completed_computes + cycle
            // Compute runs after recv in the non-overlap script, so the
            // edge sent at cycle c reflects c completed computes.
            let expected = (from as f64 + 1.0) + 0.5 * cycle as f64 + cycle as f64;
            assert!(
                (v - expected).abs() < 1e-12,
                "rank {rank} cycle {cycle} from {from}: {v} vs {expected}"
            );
        }
    }
}

#[test]
fn overlap_is_faster_when_compute_covers_comm() {
    // Enough compute per cycle that comm fully hides under it.
    let run = |overlap: bool| -> f64 {
        let (mmps, nodes) = homogeneous_cluster(6);
        // ~65 ms of compute per cycle against ~10 messages of 8 kB, so the
        // two are comparable and overlap has something to hide.
        let mut app = HaloApp::new(6, 5, 2200.0, overlap);
        app.msg_bytes = 8000;
        let mut exec = Executor::new(mmps, nodes);
        exec.run(&mut app, &PartitionVector::equal(600, 6), false)
            .expect("run")
            .elapsed
            .as_millis_f64()
    };
    let t_sync = run(false);
    let t_overlap = run(true);
    assert!(
        t_overlap < t_sync * 0.95,
        "overlap {t_overlap} ms should beat non-overlap {t_sync} ms"
    );
}

#[test]
fn heterogeneous_vector_balances_finish_times() {
    // 2 fast + 2 slow processors. A speed-proportional vector should let
    // everyone finish closer together than an equal split.
    let build = || {
        let mut b = NetworkBuilder::new(13);
        let fast = b.add_proc_type(ProcType::sparcstation_2());
        let slow = b.add_proc_type(ProcType::sun4_ipc());
        let seg = b.add_segment(SegmentSpec::ethernet_10mbps());
        let nodes = vec![
            b.add_node(fast, seg),
            b.add_node(fast, seg),
            b.add_node(slow, seg),
            b.add_node(slow, seg),
        ];
        (Mmps::with_defaults(b.build().expect("network")), nodes)
    };
    let elapsed = |vector: PartitionVector| -> f64 {
        let (mmps, nodes) = build();
        let mut app = HaloApp::new(4, 4, 100_000.0, false);
        let mut exec = Executor::new(mmps, nodes);
        exec.run(&mut app, &vector, false)
            .expect("run")
            .elapsed
            .as_millis_f64()
    };
    // Speed-balanced: fast gets 2 shares, slow 1 share.
    let balanced = elapsed(PartitionVector::from_real_shares(
        &[2.0, 2.0, 1.0, 1.0],
        600,
    ));
    let equal = elapsed(PartitionVector::equal(600, 4));
    assert!(
        balanced < equal * 0.85,
        "balanced {balanced} ms should clearly beat equal {equal} ms"
    );
}

#[test]
fn startup_distribution_is_measured_separately() {
    let (mmps, nodes) = homogeneous_cluster(4);
    let mut app = HaloApp::new(4, 2, 1000.0, false);
    app.dist_bytes = 100_000; // 100 kB per rank
    let mut exec = Executor::new(mmps, nodes);
    let with_dist = exec
        .run(&mut app, &PartitionVector::equal(40, 4), true)
        .expect("run");
    assert!(
        with_dist.startup.as_millis_f64() > 10.0,
        "3×100 kB over 10 Mbit/s must take tens of ms, got {}",
        with_dist.startup.as_millis_f64()
    );
    // total = startup + elapsed
    assert_eq!(
        with_dist.total().as_nanos(),
        with_dist.startup.as_nanos() + with_dist.elapsed.as_nanos()
    );
}

#[test]
fn rank_mismatch_is_rejected() {
    let (mmps, nodes) = homogeneous_cluster(4);
    let mut app = HaloApp::new(4, 1, 1.0, false);
    let mut exec = Executor::new(mmps, nodes);
    let err = exec
        .run(&mut app, &PartitionVector::equal(40, 3), false)
        .unwrap_err();
    assert!(matches!(
        err,
        NetpartError::RankMismatch {
            vector: 3,
            nodes: 4
        }
    ));
}

#[test]
fn zero_cycles_finishes_instantly() {
    let (mmps, nodes) = homogeneous_cluster(2);
    let mut app = HaloApp::new(2, 0, 1.0, false);
    let mut exec = Executor::new(mmps, nodes);
    let report = exec
        .run(&mut app, &PartitionVector::equal(10, 2), false)
        .expect("run");
    assert_eq!(report.elapsed.as_nanos(), 0);
    assert!(report.per_cycle.is_empty());
}

#[test]
fn single_rank_runs_without_communication() {
    let (mmps, nodes) = homogeneous_cluster(1);
    let mut app = HaloApp::new(1, 5, 10_000.0, false);
    let mut exec = Executor::new(mmps, nodes);
    let report = exec
        .run(&mut app, &PartitionVector::equal(100, 1), false)
        .expect("run");
    // 5 cycles × 100 PDUs × 10000 flops × 0.3 µs = 1500 ms.
    assert!((report.elapsed.as_millis_f64() - 1500.0).abs() < 1.0);
    assert_eq!(exec.mmps().stats().messages_sent, 0);
}

/// An app whose script waits for a message nobody sends.
struct DeadlockApp;
impl SpmdApp for DeadlockApp {
    fn setup(&mut self, _: usize, _: &PartitionVector) {}
    fn num_cycles(&self) -> u64 {
        1
    }
    fn script(&self, _rank: usize, _cycle: u64) -> Vec<Step> {
        vec![Step::Recv { from: vec![1] }]
    }
    fn produce(&mut self, _: usize, _: u64, _: usize) -> Bytes {
        Bytes::new()
    }
    fn consume(&mut self, _: usize, _: u64, _: usize, _: &[u8]) {}
    fn compute(&mut self, _: usize, _: u64, _: u32) -> (f64, OpKind) {
        (0.0, OpKind::Flop)
    }
}

#[test]
fn script_bug_surfaces_as_deadlock() {
    let (mmps, nodes) = homogeneous_cluster(2);
    let mut exec = Executor::new(mmps, nodes);
    let err = exec
        .run(&mut DeadlockApp, &PartitionVector::equal(2, 2), false)
        .unwrap_err();
    match err {
        NetpartError::Deadlock { blocked } => assert_eq!(blocked.len(), 2),
        other => panic!("expected deadlock, got {other}"),
    }
}

#[test]
fn lossy_network_still_completes_exactly() {
    // 15% loss: retransmissions must make the run complete with identical
    // consumed values (content is never corrupted, only delayed).
    let mut b = NetworkBuilder::new(31);
    let pt = b.add_proc_type(ProcType::sparcstation_2());
    let seg = b.add_segment(SegmentSpec {
        loss_probability: 0.15,
        ..SegmentSpec::ethernet_10mbps()
    });
    let nodes: Vec<_> = (0..4).map(|_| b.add_node(pt, seg)).collect();
    let mmps = Mmps::with_defaults(b.build().expect("network"));
    let mut app = HaloApp::new(4, 4, 1000.0, false);
    let mut exec = Executor::new(mmps, nodes);
    exec.run(&mut app, &PartitionVector::equal(40, 4), false)
        .expect("lossy run must still complete");
    let stats = exec.mmps().stats();
    assert!(
        stats.retransmissions > 0,
        "loss must have forced retransmits"
    );
    for rank in 0..4usize {
        assert_eq!(app.consumed[rank].len(), 4 * app.neighbors(rank).len());
    }
}

#[test]
fn wait_time_is_tracked_per_rank() {
    // A compute-imbalanced pair: rank 0 computes 10× longer, so rank 1
    // spends most of its run blocked on rank 0's border messages.
    let (mmps, nodes) = homogeneous_cluster(2);
    let mut app = HaloApp::new(2, 5, 1000.0, false);
    let mut exec = Executor::new(mmps, nodes);
    let vector = PartitionVector::from_counts(vec![100, 10]);
    let report = exec.run(&mut app, &vector, false).expect("run");
    assert_eq!(report.wait_time.len(), 2);
    let w0 = report.wait_time[0].as_millis_f64();
    let w1 = report.wait_time[1].as_millis_f64();
    assert!(
        w1 > w0 * 3.0,
        "light rank must wait much longer: {w1} vs {w0}"
    );
    // Compute + wait roughly fills the light rank's elapsed time.
    let c1 = report.compute_time[1].as_millis_f64();
    let elapsed = report.elapsed.as_millis_f64();
    assert!(
        (c1 + w1) > elapsed * 0.8,
        "breakdown should cover the run: {c1} + {w1} vs {elapsed}"
    );
}

/// Seven cycles checkpointed every third: blobs at cycles 2 and 5, and a
/// final cycle after the last one, so every replica is delivered before
/// the run ends.
const SEG_CYCLES: u64 = 7;
const SEG_EVERY: u64 = 3;
const SEG_CHECKPOINTS: u64 = 2;

/// A `SEG_CYCLES` halo run on a fresh 4-node cluster, in epoch 1 under
/// `store` when one is given, plainly otherwise.
fn halo_run(store: Option<&mut CheckpointStore>) -> (SpmdReport, HaloApp, Vec<NodeId>) {
    halo_run_for(SEG_CYCLES, store)
}

/// [`halo_run`] for `cycles` cycles.
fn halo_run_for(
    cycles: u64,
    store: Option<&mut CheckpointStore>,
) -> (SpmdReport, HaloApp, Vec<NodeId>) {
    let (mmps, nodes) = homogeneous_cluster(4);
    let mut app = HaloApp::new(4, cycles, 1000.0, false);
    let mut exec = Executor::new(mmps, nodes.clone());
    let vector = PartitionVector::equal(40, 4);
    let report = match store {
        None => exec.run(&mut app, &vector, false),
        Some(store) => {
            let segment = Segment {
                epoch: 1,
                store,
                monitor: None,
            };
            exec.run_segment(&mut app, &vector, false, &mut NoProbe, segment)
        }
    };
    (report.expect("run"), app, nodes)
}

#[test]
fn a_local_store_records_without_changing_the_run() {
    let (plain, plain_app, _) = halo_run(None);
    let mut store = CheckpointStore::new(4, SEG_EVERY, 0);
    let (seg, seg_app, _) = halo_run(Some(&mut store));
    assert_eq!(seg.elapsed, plain.elapsed);
    assert_eq!(seg.startup, plain.startup);
    assert_eq!(seg.per_cycle, plain.per_cycle);
    assert_eq!(seg.rank_finish, plain.rank_finish);
    assert_eq!(seg.compute_time, plain.compute_time);
    assert_eq!(seg.wait_time, plain.wait_time);
    assert_eq!(seg.mmps, plain.mmps);
    assert_eq!(seg_app.consumed, plain_app.consumed);
    assert_eq!(store.frontier(), Some(5), "the last checkpoint cycle");
    assert_eq!(store.max_cycle_seen(), Some(SEG_CYCLES - 1));
}

#[test]
fn a_replicated_store_mirrors_every_blob_beside_the_app() {
    let (plain, plain_app, _) = halo_run(None);
    let (_, nodes) = homogeneous_cluster(4);
    let mut store = CheckpointStore::replicated(4, SEG_EVERY, 0, &nodes, &[0; 4]);
    let (seg, seg_app, nodes) = halo_run(Some(&mut store));
    assert_eq!(
        seg_app.consumed, plain_app.consumed,
        "replicas never reach the app"
    );
    assert_eq!(
        seg.mmps.messages_sent,
        plain.mmps.messages_sent + 4 * SEG_CHECKPOINTS,
        "one replica per rank per checkpoint"
    );
    let frontier = store.frontier().expect("checkpointed");
    let primaries = store.take(frontier).expect("consistent");
    for (rank, &dead) in nodes.iter().enumerate() {
        let a = store.assemble(&[dead]).expect("the buddy holds a copy");
        assert_eq!(a.checkpoint.cycle, frontier, "rank {rank}");
        assert_eq!(a.replica_restores, 1, "rank {rank}");
        assert_eq!(a.checkpoint.ranks, primaries.ranks, "rank {rank}");
    }
}

/// A store that checkpoints every cycle holds the settled generation and
/// the partly recorded ones above it, however long the run: as many
/// generations after 200 cycles as after 50, not one per cycle. Each
/// dead node's blob still comes from its buddy, at the frontier or, when
/// the last cycle's replica was still in flight as the run ended, at the
/// settled generation just below it.
#[test]
fn a_replicated_store_holds_as_many_generations_after_200_cycles_as_after_50() {
    let held = |cycles: u64| {
        let (_, nodes) = homogeneous_cluster(4);
        let mut store = CheckpointStore::replicated(4, 1, 0, &nodes, &[0; 4]);
        let (_, _, nodes) = halo_run_for(cycles, Some(&mut store));
        let frontier = store.frontier().expect("checkpointed");
        assert_eq!(frontier, cycles - 1, "every cycle is a checkpoint");
        for (rank, &dead) in nodes.iter().enumerate() {
            let a = store.assemble(&[dead]).expect("the buddy holds a copy");
            let cycle = a.checkpoint.cycle;
            assert!(cycle + 1 >= frontier, "rank {rank} restored cycle {cycle}");
            assert_eq!(a.replica_restores, 1, "rank {rank}");
            let primaries = store.take(cycle).expect("consistent");
            assert_eq!(a.checkpoint.ranks, primaries.ranks, "rank {rank}");
        }
        store.generations_held()
    };
    let after_50 = held(50);
    assert!(after_50 <= 2, "{after_50} generations held after 50 cycles");
    assert_eq!(held(200), after_50);
}

#[test]
fn a_loaded_node_under_a_monitor_ends_the_run_as_drift() {
    let (plain, _, _) = halo_run(None);
    let cycles = 12;
    let pred_comp = plain
        .compute_time
        .iter()
        .map(|d| d.as_millis_f64() / SEG_CYCLES as f64)
        .collect();
    let mut monitor = DriftMonitor::new(0, pred_comp, 1.0);
    let mut store = CheckpointStore::new(4, 1, 0);
    let (mut mmps, nodes) = homogeneous_cluster(4);
    mmps.net().set_external_load(nodes[1], 0.75);
    let mut exec = Executor::new(mmps, nodes);
    let mut app = HaloApp::new(4, cycles, 1000.0, false);
    let segment = Segment {
        epoch: 1,
        store: &mut store,
        monitor: Some(&mut monitor),
    };
    let vector = PartitionVector::equal(40, 4);
    let err = exec
        .run_segment(&mut app, &vector, false, &mut NoProbe, segment)
        .unwrap_err();
    let report = *monitor.confirmed().expect("drift confirmed");
    assert_eq!(report.rank, 1, "the loaded node is named");
    assert!(report.cycle < cycles - 1, "the run ends early");
    // The loaded rank is the slowest, so its checkpoint of the confirming
    // cycle completes the frontier: recorded before the abort, not after.
    assert_eq!(store.frontier(), Some(report.cycle));
    assert_eq!(
        err,
        NetpartError::DriftDegraded {
            rank: report.rank,
            cycle: report.cycle,
            checkpoint: store.frontier(),
            severity_permille: report.severity_permille(),
        }
    );
}

/// [`HaloApp`] with every compute detached: a rank's rows leave in the job
/// and come back through `reattach`. Touching a rank whose rows are away
/// panics, and the job of `doomed` = (rank, cycle) panics.
struct DetachedHalo {
    halo: HaloApp,
    away: Vec<bool>,
    doomed: Option<(usize, u64)>,
}

impl DetachedHalo {
    fn new(halo: HaloApp) -> DetachedHalo {
        let away = vec![false; halo.p];
        DetachedHalo {
            halo,
            away,
            doomed: None,
        }
    }

    fn home(&self, rank: usize) -> &HaloApp {
        assert!(!self.away[rank], "rank {rank} touched while detached");
        &self.halo
    }
}

impl SpmdApp for DetachedHalo {
    fn setup(&mut self, rank: usize, vector: &PartitionVector) {
        self.halo.setup(rank, vector);
    }
    fn num_cycles(&self) -> u64 {
        self.halo.num_cycles()
    }
    fn script(&self, rank: usize, cycle: u64) -> Vec<Step> {
        self.halo.script(rank, cycle)
    }
    fn produce(&mut self, rank: usize, cycle: u64, to: usize) -> Bytes {
        self.home(rank);
        self.halo.produce(rank, cycle, to)
    }
    fn consume(&mut self, rank: usize, cycle: u64, from: usize, payload: &[u8]) {
        self.home(rank);
        self.halo.consume(rank, cycle, from, payload);
    }
    fn compute(&mut self, rank: usize, cycle: u64, part: u32) -> (f64, OpKind) {
        self.home(rank);
        self.halo.compute(rank, cycle, part)
    }
    fn compute_detached(
        &mut self,
        rank: usize,
        cycle: u64,
        _part: u32,
    ) -> (f64, OpKind, Option<Job>) {
        self.home(rank);
        let mut rows = std::mem::take(&mut self.halo.data[rank]);
        let ops = rows.len() as f64 * self.halo.ops_per_pdu;
        self.away[rank] = true;
        let doomed = self.doomed == Some((rank, cycle));
        let job: Job = Box::new(move || {
            assert!(!doomed, "rank {rank}'s job failed");
            for x in &mut rows {
                *x += 0.5;
            }
            Box::new(rows)
        });
        (ops, OpKind::Flop, Some(job))
    }
    fn reattach(&mut self, rank: usize, state: Box<dyn Any + Send>) {
        assert!(self.away[rank], "rank {rank} came back twice");
        self.halo.data[rank] = *state
            .downcast::<Vec<f64>>()
            .expect("a halo job returns its rows");
        self.away[rank] = false;
    }
    fn checkpoint(&self, rank: usize, cycle: u64) -> Option<Bytes> {
        self.home(rank).checkpoint(rank, cycle)
    }
}

/// Detaching changes nothing a run reports: the same report and the same
/// consumed values as the inline app, with every rank's rows home.
#[test]
fn a_detached_run_matches_the_inline_one() {
    let (plain, plain_app, _) = halo_run(None);
    netpart_sweep::set_threads(2);
    let (mmps, nodes) = homogeneous_cluster(4);
    let mut app = DetachedHalo::new(HaloApp::new(4, SEG_CYCLES, 1000.0, false));
    let report = Executor::new(mmps, nodes)
        .run(&mut app, &PartitionVector::equal(40, 4), false)
        .expect("run");
    netpart_sweep::set_threads(0);
    assert_eq!(report.elapsed, plain.elapsed);
    assert_eq!(report.per_cycle, plain.per_cycle);
    assert_eq!(report.compute_time, plain.compute_time);
    assert_eq!(report.mmps, plain.mmps);
    assert_eq!(app.halo.consumed, plain_app.consumed);
    assert_eq!(app.halo.data, plain_app.data);
    assert!(app.away.iter().all(|&a| !a));
}

/// A node that fail-stops while its rank's compute is detached: its
/// `ComputeDone` never fires, the run ends with the typed error naming the
/// rank, and the rows come home anyway, so every checkpoint still reads.
#[test]
fn a_crash_during_a_detached_compute_returns_the_typed_error_with_every_rank_home() {
    netpart_sweep::set_threads(2);
    let (mut mmps, nodes) = homogeneous_cluster(4);
    // Each compute is 10 rows × 100k flops × 0.3 µs = 300 ms; the crash
    // lands inside cycle 0's.
    let crash = FaultPlan::new().crash(SimTime::ZERO + SimDur::from_millis(100), nodes[2]);
    mmps.net().install_fault_plan(&crash).expect("valid plan");
    let mut app = DetachedHalo::new(HaloApp::new(4, 3, 100_000.0, false));
    let err = Executor::new(mmps, nodes)
        .run(&mut app, &PartitionVector::equal(40, 4), false)
        .unwrap_err();
    netpart_sweep::set_threads(0);
    assert!(
        matches!(err, NetpartError::PeerUnreachable { rank: 2, .. }),
        "{err}"
    );
    assert!(app.away.iter().all(|&a| !a), "{:?}", app.away);
    for rank in 0..4 {
        assert_eq!(app.halo.data[rank].len(), 10, "rank {rank}");
        assert!(app.checkpoint(rank, 0).is_some());
    }
}

/// A drift abort ends the run at the loaded rank's cycle boundary while
/// rank 3, holding six times the rows, is still computing detached: its
/// rows come home too.
#[test]
fn a_drift_abort_brings_every_detached_rank_home() {
    let vector = PartitionVector::from_counts(vec![10, 10, 10, 60]);
    let (mmps, nodes) = homogeneous_cluster(4);
    let plain = Executor::new(mmps, nodes)
        .run(
            &mut HaloApp::new(4, SEG_CYCLES, 1000.0, false),
            &vector,
            false,
        )
        .expect("run");
    let pred_comp = plain
        .compute_time
        .iter()
        .map(|d| d.as_millis_f64() / SEG_CYCLES as f64)
        .collect();
    let mut monitor = DriftMonitor::new(0, pred_comp, 1.0);
    let mut store = CheckpointStore::new(4, 1, 0);
    let (mut mmps, nodes) = homogeneous_cluster(4);
    mmps.net().set_external_load(nodes[1], 0.75);
    let mut app = DetachedHalo::new(HaloApp::new(4, 12, 1000.0, false));
    let segment = Segment {
        epoch: 1,
        store: &mut store,
        monitor: Some(&mut monitor),
    };
    netpart_sweep::set_threads(2);
    let err = Executor::new(mmps, nodes)
        .run_segment(&mut app, &vector, false, &mut NoProbe, segment)
        .unwrap_err();
    netpart_sweep::set_threads(0);
    assert!(
        matches!(err, NetpartError::DriftDegraded { rank: 1, .. }),
        "{err}"
    );
    assert!(app.away.iter().all(|&a| !a), "{:?}", app.away);
}

/// A job that panics surfaces as a panic from the run, not a hang. The
/// run goes on its own thread so a hang fails the wait instead of
/// stalling the suite.
#[test]
fn a_panicking_job_panics_the_caller_within_a_bounded_wait() {
    let (tx, rx) = mpsc::channel();
    let runner = thread::spawn(move || {
        let out = panic::catch_unwind(|| {
            netpart_sweep::set_threads(2);
            let (mmps, nodes) = homogeneous_cluster(4);
            let mut app = DetachedHalo::new(HaloApp::new(4, 3, 1000.0, false));
            app.doomed = Some((1, 1));
            Executor::new(mmps, nodes)
                .run(&mut app, &PartitionVector::equal(40, 4), false)
                .is_ok()
        });
        netpart_sweep::set_threads(0);
        let out = out.map_err(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        });
        tx.send(out).expect("the test waits");
    });
    let out = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the run returned or panicked instead of hanging");
    runner.join().expect("the runner caught the panic");
    let msg = out.expect_err("the job's panic reaches the caller");
    assert_eq!(msg, "rank 1's job failed");
}
