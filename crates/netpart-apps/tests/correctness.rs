//! End-to-end application correctness on the simulated testbed: whatever
//! the partition vector, the distributed computations must produce the
//! same answers as their sequential references.

use netpart_apps::gauss::{back_substitute, make_system, GaussApp};
use netpart_apps::stencil::{sequential_reference, StencilApp, StencilVariant};
use netpart_calibrate::Testbed;
use netpart_model::PartitionVector;
use netpart_spmd::Executor;
use netpart_topology::{PlacementStrategy, Topology};
use proptest::prelude::*;

fn run_stencil(
    n: usize,
    iters: u64,
    variant: StencilVariant,
    per_cluster: &[u32],
    vector: PartitionVector,
) -> (Vec<f32>, f64) {
    let tb = Testbed::paper();
    let (mmps, nodes) = tb.build(per_cluster, PlacementStrategy::ClusterContiguous);
    let p: u32 = per_cluster.iter().sum();
    let mut app = StencilApp::new(n, iters, variant, p as usize);
    let mut exec = Executor::new(mmps, nodes);
    let report = exec.run(&mut app, &vector, false).expect("stencil run");
    (app.gather(), report.elapsed.as_millis_f64())
}

#[test]
fn sten1_matches_sequential_bitwise() {
    let n = 48;
    let iters = 6;
    let reference = sequential_reference(n, iters);
    for (per_cluster, shares) in [
        (vec![1u32, 0u32], vec![1.0]),
        (vec![4, 0], vec![1.0, 1.0, 1.0, 1.0]),
        (vec![3, 2], vec![2.0, 2.0, 2.0, 1.0, 1.0]),
        (
            vec![6, 6],
            vec![2.0; 6].into_iter().chain(vec![1.0; 6]).collect(),
        ),
    ] {
        let vector = PartitionVector::from_real_shares(&shares, n as u64);
        let (grid, _) = run_stencil(n, iters, StencilVariant::Sten1, &per_cluster, vector);
        assert_eq!(grid, reference, "config {per_cluster:?}");
    }
}

#[test]
fn sten2_matches_sequential_bitwise() {
    let n = 48;
    let iters = 6;
    let reference = sequential_reference(n, iters);
    for per_cluster in [vec![2u32, 0u32], vec![6, 2], vec![6, 6]] {
        let p: u32 = per_cluster.iter().sum();
        let vector = PartitionVector::equal(n as u64, p as usize);
        let (grid, _) = run_stencil(n, iters, StencilVariant::Sten2, &per_cluster, vector);
        assert_eq!(grid, reference, "config {per_cluster:?}");
    }
}

proptest! {
    /// Any grid down to N = 2, any rank count, any partition vector that
    /// leaves no rank empty — one-row ranks fed by both halos and ranks
    /// holding a global boundary row included — under both variants: the
    /// slice kernels and the wire codec reproduce the naive reference.
    #[test]
    fn stencil_matches_sequential_for_any_partition(
        n in 2usize..28,
        p in 1usize..13,
        picks in prop::collection::vec(any::<u64>(), 28..29),
        overlap in any::<bool>(),
        iters in 1u64..4,
    ) {
        let p = p.min(n);
        let mut counts = vec![1u64; p];
        for pick in &picks[..n - p] {
            counts[(pick % p as u64) as usize] += 1;
        }
        let variant = if overlap { StencilVariant::Sten2 } else { StencilVariant::Sten1 };
        let per_cluster = [p.min(6) as u32, (p - p.min(6)) as u32];
        let vector = PartitionVector::from_counts(counts.clone());
        let (grid, _) = run_stencil(n, iters, variant, &per_cluster, vector);
        prop_assert_eq!(grid, sequential_reference(n, iters), "{:?} {:?}", variant, counts);
    }

    /// The 2-D decomposition on every mesh that fits the grid, down to
    /// blocks one point wide and one point high.
    #[test]
    fn stencil2d_matches_sequential_for_any_mesh(n in 2usize..20, p in 1u32..13, iters in 1u64..4) {
        use netpart_apps::stencil2d::Stencil2DApp;
        let (rows, cols) = Topology::mesh_dims(p);
        prop_assume!(n >= rows.max(cols) as usize);
        let tb = Testbed::paper();
        let (mmps, nodes) = tb.build(&[p.min(6), p - p.min(6)], PlacementStrategy::ClusterContiguous);
        let mut app = Stencil2DApp::new(n, iters, p as usize);
        let mut exec = Executor::new(mmps, nodes);
        exec.run(&mut app, &PartitionVector::equal(n as u64, p as usize), false)
            .expect("2-D run");
        prop_assert_eq!(app.gather(), sequential_reference(n, iters), "n={} p={}", n, p);
    }
}

#[test]
fn sten2_beats_sten1_on_same_configuration() {
    // §6: "As expected, STEN-2 outperforms STEN-1 for all problem sizes
    // due to communication overlap."
    let n = 120;
    let vector = PartitionVector::from_real_shares(
        &[2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        n as u64,
    );
    let (_, t1) = run_stencil(n, 10, StencilVariant::Sten1, &[6, 6], vector.clone());
    let (_, t2) = run_stencil(n, 10, StencilVariant::Sten2, &[6, 6], vector);
    assert!(t2 < t1, "STEN-2 {t2} ms must beat STEN-1 {t1} ms");
}

#[test]
fn heterogeneous_decomposition_beats_equal_on_mixed_clusters() {
    // The paper's N=1200 observation: an equal split over 6+6 mixed
    // processors loses to the speed-weighted partition vector.
    let n = 240;
    let weighted = PartitionVector::from_real_shares(
        &[2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        n as u64,
    );
    let equal = PartitionVector::equal(n as u64, 12);
    let (_, tw) = run_stencil(n, 10, StencilVariant::Sten1, &[6, 6], weighted);
    let (_, te) = run_stencil(n, 10, StencilVariant::Sten1, &[6, 6], equal);
    assert!(
        tw < te * 0.92,
        "weighted {tw} ms must clearly beat equal {te} ms"
    );
}

#[test]
fn gauss_solves_heterogeneously_partitioned_system() {
    let n = 40;
    let (a, b, x_true) = make_system(n, 11);
    let tb = Testbed::paper();
    for per_cluster in [vec![1u32, 0u32], vec![4, 0], vec![3, 3]] {
        let p: u32 = per_cluster.iter().sum();
        let (mmps, nodes) = tb.build(&per_cluster, PlacementStrategy::ClusterContiguous);
        let mut app = GaussApp::new(n, a.clone(), b.clone(), p as usize);
        let mut exec = Executor::new(mmps, nodes);
        let vector = PartitionVector::equal(n as u64, p as usize);
        exec.run(&mut app, &vector, false).expect("gauss run");
        let x = app.solve();
        for (got, want) in x.iter().zip(&x_true) {
            assert!(
                (got - want).abs() < 1e-8,
                "config {per_cluster:?}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn gauss_distributed_pivot_sequence_matches_sequential() {
    let n = 24;
    let (a, b, _) = make_system(n, 3);
    // Sequential pivot order.
    let mut a2 = a.clone();
    let mut b2 = b.clone();
    let mut used = vec![false; n];
    let mut seq_pivots = Vec::new();
    for k in 0..n {
        let pivot = (0..n)
            .filter(|&i| !used[i])
            .max_by(|&i, &j| {
                a2[i * n + k]
                    .abs()
                    .partial_cmp(&a2[j * n + k].abs())
                    .unwrap()
            })
            .unwrap();
        used[pivot] = true;
        seq_pivots.push(pivot);
        for i in 0..n {
            if used[i] {
                continue;
            }
            let f = a2[i * n + k] / a2[pivot * n + k];
            for j in k..n {
                a2[i * n + j] -= f * a2[pivot * n + j];
            }
            b2[i] -= f * b2[pivot];
        }
    }
    let _ = back_substitute(n, &a2, &b2, &seq_pivots);

    let tb = Testbed::paper();
    let (mmps, nodes) = tb.build(&[4, 0], PlacementStrategy::ClusterContiguous);
    let mut app = GaussApp::new(n, a, b, 4);
    let mut exec = Executor::new(mmps, nodes);
    exec.run(&mut app, &PartitionVector::equal(n as u64, 4), false)
        .expect("gauss run");
    assert_eq!(app.pivots(), &seq_pivots[..]);
}

#[test]
fn stencil_survives_lossy_network_exactly() {
    // Loss delays but must never corrupt: the grid still matches the
    // reference bit for bit.
    let n = 32;
    let iters = 4;
    let mut tb = Testbed::paper();
    tb.segment.loss_probability = 0.10;
    let (mmps, nodes) = tb.build(&[4, 0], PlacementStrategy::ClusterContiguous);
    let mut app = StencilApp::new(n, iters, StencilVariant::Sten1, 4);
    let mut exec = Executor::new(mmps, nodes);
    exec.run(&mut app, &PartitionVector::equal(n as u64, 4), false)
        .expect("lossy run completes");
    assert_eq!(app.gather(), sequential_reference(n, iters));
    assert!(exec.mmps().stats().retransmissions > 0);
}

#[test]
fn stencil2d_matches_sequential_bitwise() {
    use netpart_apps::stencil2d::Stencil2DApp;
    let n = 48;
    let iters = 6;
    let reference = sequential_reference(n, iters);
    let tb = Testbed::paper();
    // Homogeneous meshes: 2×1, 2×2, 2×3 over the Sparc2 cluster.
    for p in [2u32, 4, 6] {
        let (mmps, nodes) = tb.build(&[p, 0], PlacementStrategy::ClusterContiguous);
        let mut app = Stencil2DApp::new(n, iters, p as usize);
        let mut exec = Executor::new(mmps, nodes);
        exec.run(
            &mut app,
            &PartitionVector::equal(n as u64, p as usize),
            false,
        )
        .expect("2-D run");
        assert_eq!(app.gather(), reference, "p={p}");
    }
}

#[test]
fn stencil2d_ships_fewer_border_bytes_than_1d() {
    // The decomposition trade-off that motivates 2-D: at p=6 a 2×3 mesh
    // moves less border data per cycle than the 1-D chain.
    use netpart_apps::stencil2d::Stencil2DApp;
    let n = 240;
    let tb = Testbed::paper();
    let bytes_moved = |two_d: bool| -> u64 {
        let (mmps, nodes) = tb.build(&[6, 0], PlacementStrategy::ClusterContiguous);
        let mut exec = Executor::new(mmps, nodes);
        if two_d {
            let mut app = Stencil2DApp::new(n, 4, 6);
            exec.run(&mut app, &PartitionVector::equal(n as u64, 6), false)
                .expect("run");
        } else {
            let mut app = StencilApp::new(n, 4, StencilVariant::Sten1, 6);
            exec.run(&mut app, &PartitionVector::equal(n as u64, 6), false)
                .expect("run");
        }
        exec.mmps()
            .net_ref()
            .segment_stats(netpart_sim::SegmentId(0))
            .bytes_sent
    };
    let one_d = bytes_moved(false);
    let two_d = bytes_moved(true);
    assert!(
        two_d < one_d,
        "2-D should move fewer border bytes: {two_d} vs {one_d}"
    );
}

#[test]
fn gauss_survives_lossy_network() {
    // Pivot selection and row broadcasts ride the reliable layer: 5%
    // frame loss must not change the solution (only the simulated time).
    let n = 20;
    let (a, b, x_true) = make_system(n, 5);
    let mut tb = Testbed::paper();
    tb.segment.loss_probability = 0.05;
    let (mmps, nodes) = tb.build(&[3, 0], PlacementStrategy::ClusterContiguous);
    let mut app = GaussApp::new(n, a, b, 3);
    let mut exec = Executor::new(mmps, nodes);
    exec.run(&mut app, &PartitionVector::equal(n as u64, 3), false)
        .expect("lossy gauss run");
    let x = app.solve();
    for (g, w) in x.iter().zip(&x_true) {
        assert!((g - w).abs() < 1e-8, "{g} vs {w}");
    }
    assert!(
        exec.mmps().stats().datagrams_dropped > 0,
        "loss must have occurred"
    );
}

#[test]
fn sten2_rank_drift_is_bounded_by_neighbor_dependencies() {
    // Without a global barrier ranks drift, but a rank can never complete
    // cycle c+2 before its neighbor completed cycle c (it needs that
    // border). Check via per-rank finish times: all within 2 cycles'
    // worth of each other at the end.
    let n = 120;
    let iters = 8;
    let tb = Testbed::paper();
    let (mmps, nodes) = tb.build(&[6, 0], PlacementStrategy::ClusterContiguous);
    let mut app = StencilApp::new(n, iters, StencilVariant::Sten2, 6);
    let mut exec = Executor::new(mmps, nodes);
    let report = exec
        .run(&mut app, &PartitionVector::equal(n as u64, 6), false)
        .expect("run");
    let finishes: Vec<f64> = report
        .rank_finish
        .iter()
        .map(|t| t.as_millis_f64())
        .collect();
    let spread = finishes.iter().cloned().fold(f64::MIN, f64::max)
        - finishes.iter().cloned().fold(f64::MAX, f64::min);
    let cycle = report.mean_cycle().as_millis_f64();
    assert!(
        spread <= 2.0 * cycle + 1.0,
        "final spread {spread:.2} ms exceeds two cycles ({cycle:.2} ms each)"
    );
}
