//! Ablations of the design choices DESIGN.md calls out (A1–A6).

use netpart_apps::stencil::{stencil_model, StencilApp, StencilVariant};
use netpart_calibrate::{
    calibrate_testbed_cached, CalibratedCostModel, CalibrationConfig, FittedCost, Testbed,
};
use netpart_core::{
    partition, ClusterOrder, Estimator, PartitionOptions, SearchStrategy, SystemModel,
};
use netpart_model::{NetpartError, PartitionVector};
use netpart_spmd::Executor;
use netpart_topology::{PlacementStrategy, Topology};

use crate::dynamic::run_dynamic_stencil;
use crate::experiments::run_stencil_config;

/// A1 — cluster consideration order.
#[derive(Debug, Clone)]
pub struct OrderingAblation {
    /// Problem size.
    pub n: u64,
    /// Config and simulated ms with the paper's fastest-first rule.
    pub fastest: (Vec<u32>, f64),
    /// Config and simulated ms with the slowest-first rule.
    pub slowest: (Vec<u32>, f64),
}

/// Compare fastest-first against slowest-first cluster ordering.
pub fn ablation_ordering(
    model: &CalibratedCostModel,
    sizes: &[u64],
    iters: u64,
) -> Result<Vec<OrderingAblation>, NetpartError> {
    let sys = SystemModel::from_testbed(&Testbed::paper());
    // Plan phase: one partitioner decision per (size, order).
    let plans: Vec<(u64, netpart_core::Partition)> = sizes
        .iter()
        .flat_map(|&n| {
            [ClusterOrder::FastestFirst, ClusterOrder::SlowestFirst]
                .into_iter()
                .map(move |order| (n, order))
        })
        .map(|(n, order)| {
            let app = stencil_model(n, StencilVariant::Sten1);
            let est = Estimator::new(&sys, model, &app);
            let p = partition(
                &est,
                &PartitionOptions {
                    order,
                    ..Default::default()
                },
            )?;
            Ok((n, p))
        })
        .collect::<Result<_, NetpartError>>()?;
    // Simulation phase: every (size, order) run is an independent cell.
    // Ranks are built in the consideration order the partitioner chose,
    // so the vector's ranks land on the right clusters.
    let timings: Vec<f64> = crate::sweep::sweep_indexed(plans.len(), |i| {
        let (n, p) = &plans[i];
        run_ordered(&p.config, &p.order, &p.vector, *n as usize, iters)
    })
    .into_iter()
    .collect::<Result<_, _>>()?;
    Ok(plans
        .chunks(2)
        .zip(timings.chunks(2))
        .map(|(pair, ms)| OrderingAblation {
            n: pair[0].0,
            fastest: (pair[0].1.config.clone(), ms[0]),
            slowest: (pair[1].1.config.clone(), ms[1]),
        })
        .collect())
}

/// Run a stencil with ranks laid out cluster-contiguously in an explicit
/// cluster order (the partitioner's consideration order).
fn run_ordered(
    config: &[u32],
    order: &[usize],
    vector: &PartitionVector,
    n: usize,
    iters: u64,
) -> Result<f64, NetpartError> {
    let tb = Testbed::paper();
    // Assignment in consideration order.
    let mut assignment = Vec::new();
    for &k in order {
        assignment.extend(std::iter::repeat_n(k as u32, config[k] as usize));
    }
    let (mmps, nodes) = build_assignment(&tb, &assignment)?;
    let p: u32 = config.iter().sum();
    let mut app = StencilApp::new(n, iters, StencilVariant::Sten1, p as usize);
    let mut exec = Executor::new(mmps, nodes);
    Ok(exec.run(&mut app, vector, false)?.elapsed.as_millis_f64())
}

/// Build a testbed network with an explicit rank→cluster assignment.
fn build_assignment(
    tb: &Testbed,
    assignment: &[u32],
) -> Result<(netpart_mmps::Mmps, Vec<netpart_sim::NodeId>), NetpartError> {
    // Count per cluster, build contiguously, then reorder node handles to
    // match the assignment sequence.
    let mut per_cluster = vec![0u32; tb.num_clusters()];
    for &c in assignment {
        per_cluster[c as usize] += 1;
    }
    let (mmps, nodes) = tb.try_build(&per_cluster, PlacementStrategy::ClusterContiguous)?;
    // nodes are contiguous by cluster index; walk the assignment and pull
    // from each cluster's pool in order.
    let mut pools: Vec<Vec<netpart_sim::NodeId>> = vec![Vec::new(); tb.num_clusters()];
    let mut idx = 0usize;
    for (k, &cnt) in per_cluster.iter().enumerate() {
        for _ in 0..cnt {
            pools[k].push(nodes[idx]);
            idx += 1;
        }
        pools[k].reverse(); // pop from the front via pop()
    }
    let ordered: Vec<netpart_sim::NodeId> = assignment
        .iter()
        .map(|&c| pools[c as usize].pop().expect("pool sized by assignment"))
        .collect();
    Ok((mmps, ordered))
}

/// A2 — task placement across the router.
#[derive(Debug, Clone)]
pub struct PlacementAblation {
    /// Problem size.
    pub n: u64,
    /// Simulated ms with the paper's contiguous placement (1 crossing).
    pub contiguous_ms: f64,
    /// Simulated ms with round-robin placement (11 crossings).
    pub round_robin_ms: f64,
}

/// Compare contiguous and round-robin placements of the full (6,6)
/// configuration — the paper's §6 point that "task placement is
/// important ... since router costs may be large".
pub fn ablation_placement(
    sizes: &[u64],
    iters: u64,
) -> Result<Vec<PlacementAblation>, NetpartError> {
    let tb = Testbed::paper();
    let cells: Vec<(u64, PlacementStrategy)> = sizes
        .iter()
        .flat_map(|&n| {
            [
                PlacementStrategy::ClusterContiguous,
                PlacementStrategy::RoundRobin,
            ]
            .into_iter()
            .map(move |p| (n, p))
        })
        .collect();
    let timings: Vec<f64> = crate::sweep::sweep(cells, |(n, placement)| {
        let (mmps, nodes) = tb.try_build(&[6, 6], placement)?;
        // Vector shares must follow the placement's rank→cluster map.
        let assignment = placement.assign(&[6, 6]);
        let shares: Vec<f64> = assignment
            .iter()
            .map(|&c| if c == 0 { 2.0 } else { 1.0 })
            .collect();
        let vector = PartitionVector::from_real_shares(&shares, n);
        let mut app = StencilApp::new(n as usize, iters, StencilVariant::Sten1, 12);
        let mut exec = Executor::new(mmps, nodes);
        Ok(exec.run(&mut app, &vector, false)?.elapsed.as_millis_f64())
    })
    .into_iter()
    .collect::<Result<_, NetpartError>>()?;
    Ok(sizes
        .iter()
        .zip(timings.chunks(2))
        .map(|(&n, ms)| PlacementAblation {
            n,
            contiguous_ms: ms[0],
            round_robin_ms: ms[1],
        })
        .collect())
}

/// A3 — search strategy cost/quality.
#[derive(Debug, Clone)]
pub struct SearchAblation {
    /// Problem size.
    pub n: u64,
    /// (strategy name, chosen config, predicted T_c ms, evaluations).
    pub rows: Vec<(&'static str, Vec<u32>, f64, u64)>,
}

/// Compare the binary search against exhaustive and golden-section within
/// the heuristic.
pub fn ablation_search(
    model: &CalibratedCostModel,
    sizes: &[u64],
) -> Result<Vec<SearchAblation>, NetpartError> {
    let sys = SystemModel::from_testbed(&Testbed::paper());
    // No simulations here, but exhaustive search over many sizes still
    // adds up; each size is independent (the estimator is rebuilt per
    // cell — it carries a thread-local evaluation counter).
    crate::sweep::sweep(sizes.to_vec(), |n| {
        let app = stencil_model(n, StencilVariant::Sten1);
        let est = Estimator::new(&sys, model, &app);
        let rows = [
            ("binary", SearchStrategy::Binary),
            ("exhaustive", SearchStrategy::Exhaustive),
            ("golden", SearchStrategy::GoldenSection),
        ]
        .into_iter()
        .map(|(name, strategy)| {
            let p = partition(
                &est,
                &PartitionOptions {
                    strategy,
                    ..Default::default()
                },
            )?;
            Ok((name, p.config.clone(), p.predicted_tc_ms(), p.evaluations))
        })
        .collect::<Result<_, NetpartError>>()?;
        Ok(SearchAblation { n, rows })
    })
    .into_iter()
    .collect()
}

/// A5 — sensitivity of the decision to mis-calibrated constants.
#[derive(Debug, Clone)]
pub struct SensitivityAblation {
    /// Relative perturbation applied to every cost constant.
    pub perturbation: f64,
    /// Fraction of (size, variant, direction) cases whose configuration
    /// decision stayed identical to the unperturbed one.
    pub stable_fraction: f64,
    /// Worst relative simulated-time regression among changed decisions.
    pub worst_regression: f64,
}

/// Perturb the calibrated constants by ±`eps` and measure how often the
/// partitioning decision survives, and how costly the changes are.
pub fn ablation_sensitivity(
    model: &CalibratedCostModel,
    sizes: &[u64],
    iters: u64,
    eps: f64,
) -> Result<SensitivityAblation, NetpartError> {
    let sys = SystemModel::from_testbed(&Testbed::paper());
    // Every (direction, size, variant) case is independent: it perturbs
    // its own copy of the model, partitions twice, and (only when the
    // decision flipped) runs the two simulations. The reduction below is
    // order-insensitive (counts and a max), so parallel results match the
    // sequential path exactly.
    let cells: Vec<(f64, u64, StencilVariant)> = [1.0 + eps, 1.0 - eps]
        .into_iter()
        .flat_map(|dir| {
            sizes.iter().flat_map(move |&n| {
                [StencilVariant::Sten1, StencilVariant::Sten2]
                    .into_iter()
                    .map(move |variant| (dir, n, variant))
            })
        })
        .collect();
    let outcomes: Vec<Option<f64>> = crate::sweep::sweep(cells, |(dir, n, variant)| {
        let mut perturbed = model.clone();
        for fit in perturbed.intra.values_mut() {
            *fit = FittedCost {
                c1: fit.c1 * dir,
                c2: fit.c2 * dir,
                c3: fit.c3 * dir,
                c4: fit.c4 * dir,
                ..*fit
            };
        }
        let app = stencil_model(n, variant);
        let base_est = Estimator::new(&sys, model, &app);
        let pert_est = Estimator::new(&sys, &perturbed, &app);
        let base = partition(&base_est, &PartitionOptions::default())?;
        let pert = partition(&pert_est, &PartitionOptions::default())?;
        if base.config == pert.config {
            Ok(None)
        } else {
            let base_ms =
                run_stencil_config(&base.config, &base.vector, variant, n as usize, iters)?;
            let pert_ms =
                run_stencil_config(&pert.config, &pert.vector, variant, n as usize, iters)?;
            Ok(Some((pert_ms - base_ms) / base_ms))
        }
    })
    .into_iter()
    .collect::<Result<_, NetpartError>>()?;
    let total = outcomes.len() as u32;
    let stable = outcomes.iter().filter(|o| o.is_none()).count() as u32;
    let worst_regression = outcomes.into_iter().flatten().fold(0.0f64, f64::max);
    Ok(SensitivityAblation {
        perturbation: eps,
        stable_fraction: stable as f64 / total as f64,
        worst_regression,
    })
}

/// A4 — dynamic repartitioning under induced imbalance.
#[derive(Debug, Clone)]
pub struct DynamicAblation {
    /// External load injected on one Sparc2 node.
    pub load: f64,
    /// Static speed-balanced run, ms.
    pub static_ms: f64,
    /// Dynamic rebalancing run, ms (including redistribution).
    pub dynamic_ms: f64,
    /// Rebalance events performed.
    pub rebalances: u32,
}

/// Compare the static partition against chunked dynamic rebalancing when
/// one node loses most of its CPU to another user mid-run.
pub fn ablation_dynamic(
    n: u64,
    iters: u64,
    loads: &[f64],
) -> Result<Vec<DynamicAblation>, NetpartError> {
    // Each load level is an independent pair of simulations; one chunk of
    // all `iters` iterations is the static baseline.
    crate::sweep::sweep(loads.to_vec(), |load| {
        let mut node_loads = vec![0.0; 6];
        node_loads[2] = load;
        let static_run = run_dynamic_stencil(n as usize, iters, &node_loads, iters)?;
        let dynamic_run = run_dynamic_stencil(n as usize, iters, &node_loads, 5)?;
        Ok(DynamicAblation {
            load,
            static_ms: static_run.elapsed.as_millis_f64(),
            dynamic_ms: dynamic_run.elapsed.as_millis_f64(),
            rebalances: dynamic_run.rebalances,
        })
    })
    .into_iter()
    .collect()
}

/// A6 — the three-cluster metasystem (paper §7 future work).
#[derive(Debug, Clone)]
pub struct MetasystemResult {
    /// Problem size.
    pub n: u64,
    /// The partitioner's configuration over (RS6000, HP, Sparc2).
    pub config: Vec<u32>,
    /// Predicted `T_c` (ms).
    pub predicted_tc_ms: f64,
    /// Simulated elapsed ms of the chosen configuration.
    pub measured_ms: f64,
    /// Simulated elapsed ms of the best configuration among a probe sweep.
    pub best_probe_ms: f64,
}

/// Partition and run the stencil on a three-cluster metasystem with
/// cross-format coercion in play.
pub fn metasystem_experiment(
    sizes: &[u64],
    iters: u64,
) -> Result<Vec<MetasystemResult>, NetpartError> {
    let tb = Testbed::metasystem();
    let model = calibrate_testbed_cached(&tb, &[Topology::OneD], &CalibrationConfig::default())?;
    let sys = SystemModel::from_testbed(&tb);

    // Plan phase (sequential): the partitioner and the probe vectors both
    // need an `Estimator`, which is not `Sync`. Each job is one
    // (config, order, vector) simulation; job 0 of every size is the
    // partitioner's own choice, the rest are probes.
    struct SizePlan {
        n: u64,
        config: Vec<u32>,
        predicted_tc_ms: f64,
        jobs: Vec<(Vec<u32>, Vec<usize>, PartitionVector)>,
    }
    let plans: Vec<SizePlan> = sizes
        .iter()
        .map(|&n| {
            let app = stencil_model(n, StencilVariant::Sten1);
            let est = Estimator::new(&sys, &model, &app);
            let part = partition(&est, &PartitionOptions::default())?;
            let mut jobs = vec![(part.config.clone(), part.order.clone(), part.vector.clone())];
            // Probe sweep: single clusters and the full machine.
            for config in [
                vec![4u32, 0, 0],
                vec![0, 4, 0],
                vec![0, 0, 6],
                vec![4, 4, 0],
                vec![4, 4, 6],
            ] {
                let order = vec![0usize, 1, 2];
                let vector = est.partition_vector(&config, &order);
                if vector.counts().contains(&0) && config.iter().sum::<u32>() > 1 {
                    continue; // stencil ranks need at least one row
                }
                jobs.push((config, order, vector));
            }
            Ok(SizePlan {
                n,
                config: part.config.clone(),
                predicted_tc_ms: part.predicted_tc_ms(),
                jobs,
            })
        })
        .collect::<Result<_, NetpartError>>()?;

    // Simulation phase: flatten to (size index, job index) and sweep.
    let flat: Vec<(usize, usize)> = plans
        .iter()
        .enumerate()
        .flat_map(|(si, plan)| (0..plan.jobs.len()).map(move |ji| (si, ji)))
        .collect();
    let timings: Vec<f64> = crate::sweep::sweep(flat.clone(), |(si, ji)| {
        let plan = &plans[si];
        let (config, order, vector) = &plan.jobs[ji];
        let mut assignment = Vec::new();
        for &k in order {
            assignment.extend(std::iter::repeat_n(k as u32, config[k] as usize));
        }
        let (mmps, nodes) = build_assignment(&tb, &assignment)?;
        let p: u32 = config.iter().sum();
        let mut app = StencilApp::new(plan.n as usize, iters, StencilVariant::Sten1, p as usize);
        let mut exec = Executor::new(mmps, nodes);
        Ok(exec.run(&mut app, vector, false)?.elapsed.as_millis_f64())
    })
    .into_iter()
    .collect::<Result<_, NetpartError>>()?;
    let mut ms_by_size: Vec<Vec<f64>> = plans
        .iter()
        .map(|p| Vec::with_capacity(p.jobs.len()))
        .collect();
    for (&(si, _), &ms) in flat.iter().zip(timings.iter()) {
        ms_by_size[si].push(ms);
    }
    Ok(plans
        .into_iter()
        .zip(ms_by_size)
        .map(|(plan, ms)| MetasystemResult {
            n: plan.n,
            config: plan.config,
            predicted_tc_ms: plan.predicted_tc_ms,
            measured_ms: ms[0],
            best_probe_ms: ms[1..].iter().copied().fold(f64::MAX, f64::min),
        })
        .collect())
}

/// A7 — 1-D row decomposition vs 2-D block decomposition.
#[derive(Debug, Clone)]
pub struct DecompositionAblation {
    /// Problem size.
    pub n: u64,
    /// Processors (homogeneous Sparc2 mesh).
    pub p: u32,
    /// 1-D chain, simulated ms.
    pub one_d_ms: f64,
    /// 2-D mesh, simulated ms.
    pub two_d_ms: f64,
    /// Border bytes shipped per run, 1-D.
    pub one_d_bytes: u64,
    /// Border bytes shipped per run, 2-D.
    pub two_d_bytes: u64,
}

/// Compare the paper's 1-D block-row decomposition with a 2-D block
/// decomposition on the homogeneous Sparc2 cluster: 2-D ships less border
/// data but pays more per-message latency (four smaller messages).
pub fn ablation_decomposition(
    sizes: &[u64],
    p: u32,
    iters: u64,
) -> Result<Vec<DecompositionAblation>, NetpartError> {
    use netpart_apps::stencil2d::Stencil2DApp;
    let tb = Testbed::paper();
    // Flatten to (size, decomposition) cells — every simulation is
    // independent, and results reassemble pairwise by index.
    let cells: Vec<(u64, bool)> = sizes
        .iter()
        .flat_map(|&n| [(n, false), (n, true)])
        .collect();
    let runs: Vec<(f64, u64)> = crate::sweep::sweep(cells, |(n, two_d)| {
        let (mmps, nodes) = tb.try_build(&[p, 0], PlacementStrategy::ClusterContiguous)?;
        let mut exec = Executor::new(mmps, nodes);
        let vector = PartitionVector::equal(n, p as usize);
        let elapsed = if two_d {
            let mut app = Stencil2DApp::new(n as usize, iters, p as usize);
            exec.run(&mut app, &vector, false)?.elapsed
        } else {
            let mut app = StencilApp::new(n as usize, iters, StencilVariant::Sten1, p as usize);
            exec.run(&mut app, &vector, false)?.elapsed
        };
        let bytes = exec
            .mmps()
            .net_ref()
            .segment_stats(netpart_sim::SegmentId(0))
            .bytes_sent;
        Ok((elapsed.as_millis_f64(), bytes))
    })
    .into_iter()
    .collect::<Result<_, NetpartError>>()?;
    Ok(sizes
        .iter()
        .zip(runs.chunks(2))
        .map(|(&n, pair)| DecompositionAblation {
            n,
            p,
            one_d_ms: pair[0].0,
            two_d_ms: pair[1].0,
            one_d_bytes: pair[0].1,
            two_d_bytes: pair[1].1,
        })
        .collect())
}

/// A8 — sensitivity to background cross-traffic.
#[derive(Debug, Clone)]
pub struct CrossTrafficAblation {
    /// Offered background load as a fraction of the 10 Mbit/s channel.
    pub offered_load: f64,
    /// Simulated stencil ms under that load.
    pub elapsed_ms: f64,
    /// Slowdown relative to the quiet channel.
    pub slowdown: f64,
}

/// The paper calibrates "when the network and processors were lightly
/// loaded". This ablation violates that: two idle Sparc2s exchange
/// periodic 1400-byte datagrams while a (4,0) stencil runs, at increasing
/// offered loads, quantifying how far quiet-network calibration can be
/// trusted.
pub fn ablation_cross_traffic(
    n: u64,
    iters: u64,
    loads: &[f64],
) -> Result<Vec<CrossTrafficAblation>, NetpartError> {
    use netpart_sim::BackgroundFlow;
    let tb = Testbed::paper();
    let wire_ns_per_frame = (1400.0 + 54.0) * 8.0 / 10.0e6 * 1e9; // ≈1.16 ms
                                                                  // Simulations fan out; the quiet-baseline normalisation is a post-pass
                                                                  // that walks results in input order, exactly like the sequential loop
                                                                  // did (loads before the first 0.0 entry normalise to themselves).
    let timings: Vec<f64> = crate::sweep::sweep(loads.to_vec(), |load| {
        let (mut mmps, nodes) = tb.try_build(&[4, 0], PlacementStrategy::ClusterContiguous)?;
        if load > 0.0 {
            // Period so that frame_time / period = offered load.
            let period_ns = (wire_ns_per_frame / load) as u64;
            let idle: Vec<netpart_sim::NodeId> = mmps
                .net_ref()
                .nodes_on_segment(netpart_sim::SegmentId(0))
                .into_iter()
                .filter(|n| !nodes.contains(n))
                .collect();
            mmps.net().add_background_flow(BackgroundFlow {
                src: idle[0],
                dst: idle[1],
                bytes: 1400,
                period: netpart_sim::SimDur::from_nanos(period_ns),
            });
        }
        let mut app = StencilApp::new(n as usize, iters, StencilVariant::Sten1, 4);
        let mut exec = Executor::new(mmps, nodes);
        Ok(exec
            .run(&mut app, &PartitionVector::equal(n, 4), false)?
            .elapsed
            .as_millis_f64())
    })
    .into_iter()
    .collect::<Result<_, NetpartError>>()?;
    let mut quiet_ms = None;
    Ok(loads
        .iter()
        .zip(timings)
        .map(|(&load, elapsed_ms)| {
            if load == 0.0 {
                quiet_ms = Some(elapsed_ms);
            }
            CrossTrafficAblation {
                offered_load: load,
                elapsed_ms,
                slowdown: elapsed_ms / quiet_ms.unwrap_or(elapsed_ms),
            }
        })
        .collect())
}
