//! Cross-module tests of the partitioning core: network-speed
//! sensitivity, lossy availability rounds, PDU-dependent message sizes,
//! and the general partitioner on three clusters.

use netpart_calibrate::{
    calibrate_testbed, CalibrationConfig, CommCostModel, PaperCostModel, Testbed,
};
use netpart_core::{
    determine_available, partition, partition_exhaustive, Estimator, PartitionOptions, SystemModel,
};
use netpart_model::{AppModel, CommPhase, CompPhase, OpKind};
use netpart_sim::SegmentSpec;
use netpart_topology::{PlacementStrategy, Topology};

fn stencil(n: u64) -> AppModel {
    AppModel::new("stencil", "row", n)
        .with_comp(CompPhase::linear("u", 5.0 * n as f64, OpKind::Flop))
        .with_comm(CommPhase::constant("b", Topology::OneD, 4.0 * n as f64))
}

/// A faster network shifts `p_ideal` upward: on FDDI the same small
/// problem profitably uses more processors than on ethernet.
#[test]
fn faster_network_means_more_processors() {
    let quick = CalibrationConfig {
        b_values: vec![256, 1024, 4096],
        cycles: 8,
        warmup: 2,
    };
    let eth_tb = Testbed::paper();
    let mut fddi_tb = Testbed::paper();
    fddi_tb.segment = SegmentSpec::fddi_100mbps();

    let eth_model = calibrate_testbed(&eth_tb, &[Topology::OneD], &quick).expect("calibration");
    let fddi_model = calibrate_testbed(&fddi_tb, &[Topology::OneD], &quick).expect("calibration");
    let sys = SystemModel::from_testbed(&eth_tb);

    let app = stencil(60);
    let eth_est = Estimator::new(&sys, &eth_model, &app);
    let fddi_est = Estimator::new(&sys, &fddi_model, &app);
    let eth = partition(&eth_est, &PartitionOptions::default()).unwrap();
    let fddi = partition(&fddi_est, &PartitionOptions::default()).unwrap();
    assert!(
        fddi.total_processors() >= eth.total_processors(),
        "FDDI {:?} should use at least as many processors as ethernet {:?}",
        fddi.config,
        eth.config
    );
    // And the communication estimate must be much cheaper where the wire
    // dominates (large messages; small ones are host-overhead-bound on
    // both media).
    let b = 4096.0;
    assert!(
        fddi_model.total_ms(&[4, 0], Topology::OneD, b)
            < eth_model.total_ms(&[4, 0], Topology::OneD, b) * 0.7,
        "FDDI comm should be far cheaper at b={b}"
    );
}

/// The availability protocol completes on a lossy network — MMPS
/// retransmissions make the probes reliable.
#[test]
fn availability_survives_loss() {
    let mut tb = Testbed::paper();
    tb.segment.loss_probability = 0.20;
    let (mut mmps, _) = tb.build(&[0, 0], PlacementStrategy::ClusterContiguous);
    let clusters: Vec<_> = (0..2u16)
        .map(|s| mmps.net_ref().nodes_on_segment(netpart_sim::SegmentId(s)))
        .collect();
    mmps.net().set_external_load(clusters[0][3], 0.7);
    let r = determine_available(&mut mmps, &clusters);
    assert_eq!(r.available, vec![5, 6]);
    assert!(
        mmps.stats().retransmissions > 0 || mmps.stats().datagrams_dropped == 0,
        "loss should be visible in the stats"
    );
}

/// PDU-dependent message sizes flow through Eq. 5: fewer processors →
/// bigger per-task blocks → bigger messages → higher comm estimate.
#[test]
fn pdu_dependent_bytes_reach_the_estimator() {
    let sys = SystemModel::from_testbed(&Testbed::paper());
    let cost = PaperCostModel;
    // A column-ish decomposition: each task ships 8 bytes per held PDU.
    let app = AppModel::new("columns", "column", 1024)
        .with_comp(CompPhase::linear("w", 1000.0, OpKind::Flop))
        .with_comm(CommPhase::with_bytes("col borders", Topology::OneD, |a| {
            8.0 * a
        }));
    let est = Estimator::new(&sys, &cost, &app);
    let few = est.breakdown(&[2, 0]);
    let many = est.breakdown(&[6, 0]);
    // 2 procs: a_i = 512 → 4096-byte messages; 6 procs: a_i ≈ 171 → 1365.
    assert!(few.t_comm_ms > 0.0 && many.t_comm_ms > 0.0);
    let b_few = 8.0 * few.shares[0];
    let b_many = 8.0 * many.shares[0];
    assert!(b_few > 2.9 * b_many, "{b_few} vs {b_many}");
}

/// The exhaustive partitioner handles three clusters (its odometer walks
/// the full cross product) and never does worse than the heuristic.
#[test]
fn exhaustive_beats_or_matches_heuristic_on_metasystem() {
    let quick = CalibrationConfig {
        b_values: vec![512, 4096],
        cycles: 6,
        warmup: 1,
    };
    let tb = Testbed::metasystem();
    let model = calibrate_testbed(&tb, &[Topology::OneD], &quick).expect("calibration");
    let sys = SystemModel::from_testbed(&tb);
    for n in [120u64, 600] {
        let app = stencil(n);
        let est = Estimator::new(&sys, &model, &app);
        let h = partition(&est, &PartitionOptions::default()).unwrap();
        let e = partition_exhaustive(&est).unwrap();
        assert!(
            e.predicted_tc_ms() <= h.predicted_tc_ms() + 1e-9,
            "N={n}: exhaustive {:?}={} vs heuristic {:?}={}",
            e.config,
            e.predicted_tc_ms(),
            h.config,
            h.predicted_tc_ms()
        );
        assert_eq!(e.vector.total(), n);
        assert_eq!(h.vector.total(), n);
    }
}

/// Decisions are deterministic: the same inputs give byte-identical
/// partitions (the estimator and search have no hidden state).
#[test]
fn partitioning_is_deterministic() {
    let sys = SystemModel::from_testbed(&Testbed::paper());
    let cost = PaperCostModel;
    let app = stencil(600);
    let run = || {
        let est = Estimator::new(&sys, &cost, &app);
        let p = partition(&est, &PartitionOptions::default()).unwrap();
        (p.config.clone(), p.vector.counts().to_vec(), p.evaluations)
    };
    assert_eq!(run(), run());
}

/// A one-cluster system degenerates cleanly: the heuristic is a pure
/// within-cluster search and the vector is near-uniform.
#[test]
fn single_cluster_degenerates_cleanly() {
    let mut tb = Testbed::paper();
    tb.clusters.truncate(1);
    let sys = SystemModel::from_testbed(&tb);
    let cost = PaperCostModel;
    let app = stencil(600);
    let est = Estimator::new(&sys, &cost, &app);
    let p = partition(&est, &PartitionOptions::default()).unwrap();
    assert_eq!(p.config.len(), 1);
    assert!(p.config[0] >= 1 && p.config[0] <= 6);
    let counts = p.vector.counts();
    let max = counts.iter().max().unwrap();
    let min = counts.iter().min().unwrap();
    assert!(max - min <= 1, "homogeneous cluster must split evenly");
}
