//! The heuristic partitioning algorithm (paper §5).
//!
//! The heuristic orders clusters by processor power and fills them in that
//! order, preferring faster processors and communication locality over
//! additional cross-segment bandwidth:
//!
//! 1. Order candidate clusters fastest-first by instruction rate.
//! 2. For the first cluster, search `p ∈ [1, N₁]` for the count minimizing
//!    the `T_c` estimate (binary search over the unimodal Fig. 3 curve).
//! 3. While the previous cluster was fully consumed, consider the next
//!    cluster: search `p ∈ [0, N_k]` with earlier allocations fixed; stop
//!    when a cluster is left partially used or unused.
//!
//! Worst case the equations are recomputed `K·log₂P` times (§5's
//! scalability argument), which [`Partition::evaluations`] lets tests
//! verify.

use netpart_model::{NetpartError, PartitionVector};

use crate::estimator::{Estimator, TcBreakdown};
use crate::search::SearchStrategy;

/// Cluster consideration order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ClusterOrder {
    /// The paper's rule: fastest instruction rate first.
    #[default]
    FastestFirst,
    /// Slowest first — exists for the ordering ablation.
    SlowestFirst,
    /// An explicit order (must be a permutation of cluster indices).
    Given(Vec<usize>),
}

/// Partitioner knobs.
#[derive(Debug, Clone, Default)]
pub struct PartitionOptions {
    /// Within-cluster minimum search strategy.
    pub strategy: SearchStrategy,
    /// Cluster consideration order.
    pub order: ClusterOrder,
    /// Kernighan–Lin-style refinement passes after the fill loop: each
    /// pass applies the best single-processor move (shift one processor
    /// between clusters, add one, or drop one) while it improves `T_c`.
    /// `0` (the default) reproduces the paper's plain fill heuristic.
    pub refine_passes: u32,
}

/// The partitioner's output: the processor configuration and the data
/// decomposition.
#[derive(Debug, Clone, Default)]
pub struct Partition {
    /// Processors used per cluster, indexed by cluster id.
    pub config: Vec<u32>,
    /// The cluster consideration order used (fastest first by default).
    pub order: Vec<usize>,
    /// PDUs per rank; ranks run cluster-contiguously in `order` (the
    /// paper's 1-D placement: Sparc2 tasks first, then IPC tasks).
    pub vector: PartitionVector,
    /// The winning configuration's estimate breakdown.
    pub breakdown: TcBreakdown,
    /// `T_c` evaluations spent (the §5 overhead metric).
    pub evaluations: u64,
    /// Per-cluster units of estimation work spent
    /// ([`Estimator::cluster_evals`]): `K` per context and `1` per
    /// [`FillContext`](crate::FillContext) probe, `K` per full breakdown
    /// where the model falls back to those (and in refinement).
    pub cluster_evals: u64,
    /// Single-processor refinement moves applied (0 unless
    /// [`PartitionOptions::refine_passes`] > 0 found improvements).
    pub refinement_moves: u32,
}

impl Partition {
    /// Total processors chosen.
    pub fn total_processors(&self) -> u32 {
        self.config.iter().sum()
    }

    /// Each rank's cluster id, in rank order — the task placement.
    pub fn rank_clusters(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.total_processors() as usize);
        for &k in &self.order {
            out.extend(std::iter::repeat_n(k as u32, self.config[k] as usize));
        }
        out
    }

    /// Predicted per-cycle time in ms.
    pub fn predicted_tc_ms(&self) -> f64 {
        self.breakdown.t_c_ms
    }
}

/// Run the heuristic partitioning algorithm.
pub fn partition(est: &Estimator<'_>, opts: &PartitionOptions) -> Result<Partition, NetpartError> {
    let sys = est.system();
    let k = sys.num_clusters();
    let order = consideration_order(est, &opts.order)?;
    if sys.total_available() == 0 {
        return Err(NetpartError::NoProcessorsAvailable);
    }

    est.reset_evaluations();
    let mut config = vec![0u32; k];
    // The filled clusters, summarized: each cluster's context reads one
    // row of crossing penalties instead of re-walking every filled pair.
    // `None` where the delta-eval algebra does not apply; every probe is
    // then a full breakdown.
    let mut filled = est.fill_state(&config);
    let mut first = true;
    for &cluster in &order {
        let avail = sys.clusters[cluster].available;
        if avail == 0 {
            if first {
                continue; // the first *usable* cluster must contribute ≥ 1
            }
            break;
        }
        let ctx = filled.as_ref().map(|f| f.context(cluster));
        let result = opts
            .strategy
            .minimize(u32::from(first), avail, |p| match &ctx {
                Some(ctx) => ctx.t_c_ms(p),
                None => {
                    config[cluster] = p;
                    est.t_c_ms(&config)
                }
            });
        config[cluster] = result.argmin;
        if let (Some(filled), Some(ctx)) = (&mut filled, &ctx) {
            filled.commit(ctx, result.argmin);
        }
        first = false;
        if result.argmin < avail {
            // Communication locality: move to another segment only when
            // this cluster is exhausted.
            break;
        }
    }
    if config.iter().all(|&p| p == 0) {
        return Err(NetpartError::NoProcessorsAvailable);
    }

    let refinement_moves = refine(est, &mut config, opts.refine_passes);

    Ok(finish(est, config, order, refinement_moves))
}

/// Price the chosen configuration and decompose the data over it.
fn finish(
    est: &Estimator<'_>,
    config: Vec<u32>,
    order: Vec<usize>,
    refinement_moves: u32,
) -> Partition {
    let breakdown = est.breakdown(&config);
    Partition {
        vector: est.partition_vector(&config, &order),
        // The closing breakdown is not search work.
        evaluations: est.evaluations() - 1,
        cluster_evals: est.cluster_evals() - config.len() as u64,
        breakdown,
        config,
        order,
        refinement_moves,
    }
}

/// Resolve a [`ClusterOrder`] to cluster indices for `est`'s system.
fn consideration_order(
    est: &Estimator<'_>,
    order: &ClusterOrder,
) -> Result<Vec<usize>, NetpartError> {
    let sys = est.system();
    let kind = est.app().dominant_comp().op_kind;
    match order {
        ClusterOrder::FastestFirst => Ok(sys.speed_order(kind)),
        ClusterOrder::SlowestFirst => {
            let mut o = sys.speed_order(kind);
            o.reverse();
            Ok(o)
        }
        ClusterOrder::Given(o) => {
            let mut sorted = o.clone();
            sorted.sort_unstable();
            if sorted != (0..sys.num_clusters()).collect::<Vec<_>>() {
                return Err(NetpartError::InvalidOrder);
            }
            Ok(o.clone())
        }
    }
}

/// Kernighan–Lin-style local refinement: repeatedly apply the best
/// improving single-processor move — shift one processor from cluster `a`
/// to `b`, add one idle processor, or release one — until no move
/// improves `T_c` or `max_passes` moves were taken. Returns the number
/// of moves applied.
///
/// The fill heuristic's locality bias (§5) can strand it one move from a
/// better configuration — e.g. the N=300 STEN-1 optimum idles one fast
/// processor the fill loop insists on using. One exchange pass recovers
/// exactly that class of miss at O(K²) evaluations per pass, far below
/// the exhaustive search's `Π(Nᵢ+1)`.
fn refine(est: &Estimator<'_>, config: &mut [u32], max_passes: u32) -> u32 {
    if max_passes == 0 {
        return 0;
    }
    let sys = est.system();
    let k = config.len();
    let mut best = est.t_c_ms(config);
    let mut moves = 0u32;
    while moves < max_passes {
        // Candidate moves: (from, to) shifts one processor; from == to
        // with a spare means "add one"; to == usize::MAX means "drop one".
        let mut winner: Option<(usize, usize, f64)> = None;
        let mut consider = |from: usize, to: usize, candidate: &[u32]| {
            let tc = est.t_c_ms(candidate);
            if tc < best - 1e-12 && winner.is_none_or(|(_, _, w)| tc < w) {
                winner = Some((from, to, tc));
            }
        };
        let mut candidate = config.to_vec();
        for a in 0..k {
            if config[a] > 0 {
                // Release one processor of cluster a.
                candidate[a] -= 1;
                if candidate.iter().any(|&p| p > 0) {
                    consider(a, usize::MAX, &candidate);
                }
                // Shift it to every other cluster with headroom.
                for b in 0..k {
                    if b != a && config[b] < sys.clusters[b].available {
                        candidate[b] += 1;
                        consider(a, b, &candidate);
                        candidate[b] -= 1;
                    }
                }
                candidate[a] += 1;
            }
            if config[a] < sys.clusters[a].available {
                // Recruit one more processor of cluster a.
                candidate[a] += 1;
                consider(a, a, &candidate);
                candidate[a] -= 1;
            }
        }
        let Some((from, to, tc)) = winner else { break };
        if to == usize::MAX {
            config[from] -= 1;
        } else if from == to {
            config[from] += 1;
        } else {
            config[from] -= 1;
            config[to] += 1;
        }
        best = tc;
        moves += 1;
    }
    moves
}

/// The *general* partitioner: exhaustively search the full cross-product
/// of per-cluster counts. Exponential in `K`, exact even with multiple
/// minima and non-conflicting cluster mixes — the reference the heuristic
/// is measured against (and a stand-in for the general nonlinear
/// formulation the paper leaves open).
pub fn partition_exhaustive(est: &Estimator<'_>) -> Result<Partition, NetpartError> {
    let sys = est.system();
    let k = sys.num_clusters();
    let kind = est.app().dominant_comp().op_kind;
    if sys.total_available() == 0 {
        return Err(NetpartError::NoProcessorsAvailable);
    }
    est.reset_evaluations();
    let caps: Vec<u32> = sys.clusters.iter().map(|c| c.available).collect();
    let mut config = vec![0u32; k];
    let mut best: Option<(Vec<u32>, f64)> = None;
    loop {
        if config.iter().any(|&p| p > 0) {
            let tc = est.t_c_ms(&config);
            if best.as_ref().is_none_or(|(_, b)| tc < *b) {
                best = Some((config.clone(), tc));
            }
        }
        // Odometer increment over the cross product.
        let mut i = 0;
        loop {
            if i == k {
                let Some((config, _)) = best else {
                    // Unreachable while total_available() > 0, but a typed
                    // error beats a panic if a caller mutates availability
                    // mid-search.
                    return Err(NetpartError::NoProcessorsAvailable);
                };
                return Ok(finish(est, config, sys.speed_order(kind), 0));
            }
            if config[i] < caps[i] {
                config[i] += 1;
                break;
            }
            config[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemModel;
    use netpart_calibrate::{CommCostModel, PaperCostModel, Testbed, Wiring};
    use netpart_model::{AppModel, CommPhase, CompPhase, OpKind};
    use netpart_topology::Topology;
    use std::cell::Cell;

    fn paper_system() -> SystemModel {
        SystemModel::from_testbed(&Testbed::paper())
    }

    fn stencil(n: u64, overlap: bool) -> AppModel {
        let comm = CommPhase::constant("border", Topology::OneD, 4.0 * n as f64);
        let comm = if overlap {
            comm.overlapping("update")
        } else {
            comm
        };
        AppModel::new("stencil", "row", n)
            .with_comp(CompPhase::linear("update", 5.0 * n as f64, OpKind::Flop))
            .with_comm(comm)
    }

    #[test]
    fn sten2_table1_decisions() {
        // Table 1's STEN-2 column under the paper's printed cost model:
        // N=60 → (2,0); N=600 → (6,6); N=1200 → (6,6). N=300 sits on a
        // T_c plateau (see EXPERIMENTS.md): any P2 ∈ {1..4} attains the
        // minimum the paper's (6,2) attains.
        let sys = paper_system();
        let cost = PaperCostModel;
        for (n, expect) in [(60u64, vec![2, 0]), (600, vec![6, 6]), (1200, vec![6, 6])] {
            let app = stencil(n, true);
            let est = Estimator::new(&sys, &cost, &app);
            let p = partition(&est, &PartitionOptions::default()).unwrap();
            assert_eq!(p.config, expect, "STEN-2 N={n}");
        }
        // The plateau case: our pick must cost no more than the paper's.
        let app = stencil(300, true);
        let est = Estimator::new(&sys, &cost, &app);
        let p = partition(&est, &PartitionOptions::default()).unwrap();
        assert_eq!(p.config[0], 6);
        let paper_tc = est.t_c_ms(&[6, 2]);
        assert!(
            p.predicted_tc_ms() <= paper_tc + 1e-9,
            "ours {} vs paper's (6,2) {}",
            p.predicted_tc_ms(),
            paper_tc
        );
    }

    #[test]
    fn sten1_first_cluster_decisions() {
        // STEN-1 P1 under the printed model: N=60 → 2 (Table 2's starred
        // measured minimum; Table 1 prints 1 — see EXPERIMENTS.md), all
        // larger sizes → 6.
        let sys = paper_system();
        let cost = PaperCostModel;
        for (n, expect_p1) in [(60u64, 2u32), (300, 6), (600, 6), (1200, 6)] {
            let app = stencil(n, false);
            let est = Estimator::new(&sys, &cost, &app);
            let p = partition(&est, &PartitionOptions::default()).unwrap();
            assert_eq!(p.config[0], expect_p1, "STEN-1 N={n}");
        }
    }

    #[test]
    fn sten1_never_worse_than_papers_choice() {
        // Where our argmin differs from Table 1, it must be because the
        // printed cost model scores it at least as good.
        let sys = paper_system();
        let cost = PaperCostModel;
        let paper_configs = [
            (60u64, [1u32, 0u32]),
            (300, [6, 0]),
            (600, [6, 4]),
            (1200, [6, 6]),
        ];
        for (n, paper_cfg) in paper_configs {
            let app = stencil(n, false);
            let est = Estimator::new(&sys, &cost, &app);
            let p = partition(&est, &PartitionOptions::default()).unwrap();
            let paper_tc = est.t_c_ms(&paper_cfg);
            assert!(
                p.predicted_tc_ms() <= paper_tc + 1e-9,
                "N={n}: ours {:?}={} vs paper {:?}={}",
                p.config,
                p.predicted_tc_ms(),
                paper_cfg,
                paper_tc
            );
        }
    }

    #[test]
    fn small_problems_stay_local() {
        // N=60: IPCs must not be used ("the IPCs were not utilized until
        // the problem was sufficiently large").
        let sys = paper_system();
        let cost = PaperCostModel;
        for overlap in [false, true] {
            let app = stencil(60, overlap);
            let est = Estimator::new(&sys, &cost, &app);
            let p = partition(&est, &PartitionOptions::default()).unwrap();
            assert_eq!(p.config[1], 0, "overlap={overlap}");
            assert!(p.total_processors() <= 2);
        }
    }

    #[test]
    fn heuristic_close_to_exhaustive_on_stencil() {
        // The heuristic is deliberately biased ("faster processors and
        // communication locality as more important than additional
        // communication bandwidth", §5), so it may concede a few percent
        // to the exact optimum — but never more than ~10% on the paper's
        // workloads.
        let sys = paper_system();
        let cost = PaperCostModel;
        for n in [60u64, 300, 600, 1200] {
            for overlap in [false, true] {
                let app = stencil(n, overlap);
                let est = Estimator::new(&sys, &cost, &app);
                let h = partition(&est, &PartitionOptions::default()).unwrap();
                let e = partition_exhaustive(&est).unwrap();
                assert!(
                    h.predicted_tc_ms() <= e.predicted_tc_ms() * 1.10 + 1e-9,
                    "N={n} overlap={overlap}: heuristic {:?}={} vs exhaustive {:?}={}",
                    h.config,
                    h.predicted_tc_ms(),
                    e.config,
                    e.predicted_tc_ms()
                );
                assert!(h.predicted_tc_ms() >= e.predicted_tc_ms() - 1e-9);
            }
        }
    }

    #[test]
    fn heuristic_locality_bias_is_observable() {
        // N=300 STEN-1 under the printed cost model: the exact optimum
        // leaves one Sparc2 idle ((5,4)) to cut the fast segment's
        // contention; the heuristic's fill-the-fast-cluster-first rule
        // cannot reach that configuration. This is the documented cost of
        // the paper's locality bias.
        let sys = paper_system();
        let cost = PaperCostModel;
        let app = stencil(300, false);
        let est = Estimator::new(&sys, &cost, &app);
        let h = partition(&est, &PartitionOptions::default()).unwrap();
        let e = partition_exhaustive(&est).unwrap();
        assert_eq!(h.config[0], 6, "heuristic exhausts the Sparc2 cluster");
        assert!(e.config[0] < 6, "exact optimum idles a fast processor");
        assert!(e.predicted_tc_ms() < h.predicted_tc_ms());
    }

    #[test]
    fn evaluation_count_is_k_log_p() {
        let sys = paper_system();
        let cost = PaperCostModel;
        let app = stencil(1200, false);
        let est = Estimator::new(&sys, &cost, &app);
        let p = partition(&est, &PartitionOptions::default()).unwrap();
        // K=2, P=12: §6 says "the equations are recomputed 6 times";
        // allow the 2-evaluations-per-step binary variant: ≤ 2·K·(⌈log₂6⌉+1).
        let bound = 2 * 2 * (6f64.log2().ceil() as u64 + 1);
        assert!(
            p.evaluations <= bound,
            "evaluations {} exceed K·log₂P-style bound {bound}",
            p.evaluations
        );
    }

    #[test]
    fn vector_sums_and_ratio() {
        let sys = paper_system();
        let cost = PaperCostModel;
        let app = stencil(1200, true);
        let est = Estimator::new(&sys, &cost, &app);
        let p = partition(&est, &PartitionOptions::default()).unwrap();
        assert_eq!(p.config, vec![6, 6]);
        assert_eq!(p.vector.total(), 1200);
        // Sparc2 ranks get twice the IPC ranks' rows (2:1 speed ratio).
        let a1 = p.vector.count(0) as f64;
        let a2 = p.vector.count(11) as f64;
        assert!((a1 / a2 - 2.0).abs() < 0.05, "{a1} vs {a2}");
        // Placement: first six ranks on cluster 0, rest on cluster 1.
        assert_eq!(p.rank_clusters(), vec![0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1]);
    }

    fn synthetic_setup(k: usize) -> (SystemModel, netpart_calibrate::CalibratedCostModel) {
        use netpart_calibrate::{CalibratedCostModel, FittedCost, LinearCost};
        let sys = SystemModel::from_testbed(&Testbed::synthetic(k, 8, 1.15));
        let mut cost = CalibratedCostModel::default();
        for i in 0..k {
            cost.set_intra(
                i,
                Topology::OneD,
                FittedCost {
                    c1: 0.2 + 0.01 * i as f64,
                    c2: 0.5,
                    c3: -0.001,
                    c4: 0.0011,
                    r_squared: 1.0,
                    abs_fix: true,
                },
            );
        }
        for a in 0..k {
            for b in a + 1..k {
                cost.set_router(
                    a,
                    b,
                    LinearCost {
                        a: 0.5,
                        k: 0.0006 * (1 + (b - a) % 3) as f64,
                    },
                );
            }
        }
        (sys, cost)
    }

    /// Forwards to a calibrated model, counting table reads.
    struct Counting<'m> {
        inner: &'m netpart_calibrate::CalibratedCostModel,
        intra: Cell<u64>,
        router: Cell<u64>,
    }

    impl<'m> Counting<'m> {
        fn new(inner: &'m netpart_calibrate::CalibratedCostModel) -> Self {
            Counting {
                inner,
                intra: Cell::new(0),
                router: Cell::new(0),
            }
        }
    }

    impl CommCostModel for Counting<'_> {
        fn intra_ms(&self, cluster: usize, topo: Topology, bytes: f64, p: u32) -> f64 {
            self.intra.set(self.intra.get() + 1);
            self.inner.intra_ms(cluster, topo, bytes, p)
        }
        fn router_ms(&self, a: usize, b: usize, bytes: f64) -> f64 {
            self.router.set(self.router.get() + 1);
            self.inner.router_ms(a, b, bytes)
        }
        fn coerce_ms(&self, a: usize, b: usize, bytes: f64) -> f64 {
            self.inner.coerce_ms(a, b, bytes)
        }
    }

    /// The complexity guard: a default plan reads the router table
    /// O(K²) times — one row per filled cluster plus the final Eq. 2 —
    /// where re-walking every filled pair for every cluster read it
    /// ≈ K³/3 times (~700k at K = 128). An exact count, no wall clock.
    #[test]
    fn a_plan_reads_the_router_table_k_squared_times() {
        for k in [16usize, 128] {
            let (_, cost) = synthetic_setup(k);
            // Equal speeds and a large problem: the fill runs through
            // every cluster, the worst case for pair walks.
            let sys = SystemModel::from_testbed(&Testbed::synthetic(k, 8, 1.0));
            let counting = Counting::new(&cost);
            let app = stencil(8 * 8 * k as u64, false);
            let est = Estimator::new(&sys, &counting, &app);
            let p = partition(&est, &PartitionOptions::default()).unwrap();
            assert_eq!(
                p.total_processors(),
                8 * k as u32,
                "K={k}: fill must reach every cluster"
            );
            let (k, router, intra) = (k as u64, counting.router.get(), counting.intra.get());
            assert!(router <= 2 * k * k, "K={k}: {router} router reads");
            assert!(
                intra <= p.evaluations + 3 * k,
                "K={k}: {intra} intra reads for {} evaluations",
                p.evaluations
            );
        }
    }

    /// The fill loop with cluster `c`'s search run by `search(config, c,
    /// lo, avail)`, then refinement: the configuration and the order.
    fn reference_fill(
        est: &Estimator<'_>,
        opts: &PartitionOptions,
        search: impl Fn(&[u32], usize, u32, u32) -> u32,
    ) -> (Vec<u32>, Vec<usize>, u32) {
        let sys = est.system();
        let order = consideration_order(est, &opts.order).unwrap();
        est.reset_evaluations();
        let mut config = vec![0u32; sys.num_clusters()];
        let mut first = true;
        for &cluster in &order {
            let avail = sys.clusters[cluster].available;
            if avail == 0 {
                if first {
                    continue;
                }
                break;
            }
            config[cluster] = search(&config, cluster, u32::from(first), avail);
            first = false;
            if config[cluster] < avail {
                break;
            }
        }
        let refinement_moves = refine(est, &mut config, opts.refine_passes);
        (config, order, refinement_moves)
    }

    /// The fill loop as it ran before the running state: each cluster's
    /// context summarized from scratch, and the vector rounded rank by
    /// rank.
    fn partition_from_scratch(est: &Estimator<'_>, opts: &PartitionOptions) -> Partition {
        let (config, order, refinement_moves) = reference_fill(est, opts, |config, c, lo, hi| {
            let ctx = est
                .fill_context_from_scratch(config, c)
                .expect("stencil models take the fast path");
            opts.strategy.minimize(lo, hi, |p| ctx.t_c_ms(p)).argmin
        });
        let breakdown = est.breakdown(&config);
        let shares = est.shares(&config);
        let per_rank: Vec<(f64, usize)> = order
            .iter()
            .flat_map(|&c| std::iter::repeat_n((shares[c], 1), config[c] as usize))
            .collect();
        Partition {
            vector: PartitionVector::from_share_runs(&per_rank, est.app().num_pdus()),
            evaluations: est.evaluations() - 1,
            cluster_evals: est.cluster_evals() - config.len() as u64,
            config,
            order,
            breakdown,
            refinement_moves,
        }
    }

    /// The fill loop with every probe priced by a full
    /// [`Estimator::t_c_ms`] — the reference the delta-eval must equal.
    fn partition_by_breakdowns(est: &Estimator<'_>, opts: &PartitionOptions) -> Partition {
        let (config, order, refinement_moves) = reference_fill(est, opts, |config, c, lo, hi| {
            let mut candidate = config.to_vec();
            opts.strategy
                .minimize(lo, hi, |p| {
                    candidate[c] = p;
                    est.t_c_ms(&candidate)
                })
                .argmin
        });
        finish(est, config, order, refinement_moves)
    }

    /// A random system for the running-state properties: any wiring, a
    /// fifth of the clusters idle and a fifth half available.
    fn random_system(
        k: usize,
        nodes_per: u32,
        picks: (usize, usize),
        busy: &[u32],
    ) -> (SystemModel, netpart_calibrate::CalibratedCostModel) {
        let wiring = match picks.0 {
            0 => Wiring::Star,
            1 => Wiring::Pairwise,
            2 => Wiring::Tree { arity: 2 + k % 3 },
            3 => Wiring::FatTree {
                pod: 1 + k % 4,
                spines: 2,
            },
            4 => Wiring::Dumbbell,
            _ => Wiring::Custom((1..k).map(|i| vec![i - 1, i]).collect()),
        };
        let testbed =
            Testbed::synthetic(k, nodes_per, [1.0, 1.07, 1.3][picks.1]).with_wiring(wiring);
        let available: Vec<u32> = (0..k)
            .map(|c| match busy[c] {
                0 => 0,
                1 => nodes_per / 2,
                _ => nodes_per,
            })
            .collect();
        let sys = SystemModel::from_testbed(&testbed).with_available(&available);
        (sys, hop_model(&testbed))
    }

    /// Refinement on when `flags & 2`; the order from `flags >> 2`:
    /// fastest first, slowest first, or shuffled by `keys`.
    fn random_options(k: usize, keys: &[u32], flags: u32) -> PartitionOptions {
        PartitionOptions {
            refine_passes: if flags & 2 == 0 { 0 } else { 2 },
            order: match flags >> 2 {
                0 => ClusterOrder::FastestFirst,
                1 => ClusterOrder::SlowestFirst,
                _ => {
                    let mut o: Vec<usize> = (0..k).collect();
                    o.sort_by_key(|&c| keys[c]);
                    ClusterOrder::Given(o)
                }
            },
            ..Default::default()
        }
    }

    proptest::proptest! {
        /// One pricing path at every K: the plan equals the fill loop
        /// that prices every probe with a full breakdown — configuration,
        /// `T_c` bits, evaluations, vector and refinement moves — on
        /// random systems of every wiring, in all three orders, with
        /// refinement on and off. Slowest-first and shuffled orders pin
        /// clusters above the varied one, whose Eq. 3 terms a probe adds
        /// after its own.
        #[test]
        fn delta_eval_plans_equal_full_breakdown_plans(
            k in 1usize..49,
            nodes_per in 1u32..9,
            picks in (0usize..6, 0usize..3),
            n in 50u64..200_000,
            busy in proptest::prop::collection::vec(0u32..5, 48..49),
            keys in proptest::prop::collection::vec(proptest::any::<u32>(), 48..49),
            flags in 0u32..16,
        ) {
            let (sys, cost) = random_system(k, nodes_per, picks, &busy);
            proptest::prop_assume!(sys.total_available() > 0);
            let app = stencil(n, flags & 1 != 0);
            let est = Estimator::new(&sys, &cost, &app);
            let opts = random_options(k, &keys, flags);
            let expect = partition_by_breakdowns(&est, &opts);
            let got = partition(&est, &opts).unwrap();
            proptest::prop_assert_eq!(&got.config, &expect.config);
            proptest::prop_assert_eq!(
                got.predicted_tc_ms().to_bits(),
                expect.predicted_tc_ms().to_bits()
            );
            proptest::prop_assert_eq!(got.evaluations, expect.evaluations);
            proptest::prop_assert_eq!(got.vector.counts(), expect.vector.counts());
            proptest::prop_assert_eq!(got.refinement_moves, expect.refinement_moves);
        }

        /// The running fill state changes what a plan costs and nothing
        /// about the plan: configuration, `T_c` bits, both work counters
        /// and the vector equal the from-scratch loop's on random
        /// systems of every wiring, with idle clusters, explicit orders
        /// and refinement.
        #[test]
        fn running_fill_state_equals_the_from_scratch_loop(
            k in 1usize..49,
            nodes_per in 1u32..9,
            picks in (0usize..6, 0usize..3),
            n in 50u64..200_000,
            busy in proptest::prop::collection::vec(0u32..5, 48..49),
            keys in proptest::prop::collection::vec(proptest::any::<u32>(), 48..49),
            flags in 0u32..16,
        ) {
            let (sys, cost) = random_system(k, nodes_per, picks, &busy);
            proptest::prop_assume!(sys.total_available() > 0);
            let counting = Counting::new(&cost);
            let app = stencil(n, flags & 1 != 0);
            let est = Estimator::new(&sys, &counting, &app);
            let opts = random_options(k, &keys, flags);
            let expect = partition_from_scratch(&est, &opts);
            let got = partition(&est, &opts).unwrap();
            proptest::prop_assert_eq!(&got.config, &expect.config);
            proptest::prop_assert_eq!(
                got.predicted_tc_ms().to_bits(),
                expect.predicted_tc_ms().to_bits()
            );
            proptest::prop_assert_eq!(got.evaluations, expect.evaluations);
            proptest::prop_assert_eq!(got.cluster_evals, expect.cluster_evals);
            proptest::prop_assert_eq!(got.refinement_moves, expect.refinement_moves);
            proptest::prop_assert_eq!(got.vector.counts(), expect.vector.counts());
            proptest::prop_assert_eq!(&got.order, &expect.order);
        }

        /// Below the plan: pin clusters in a random order at random
        /// counts — not only the counts a search would choose — and every
        /// context the running state hands out prices every candidate to
        /// the bits of the context summarized from scratch.
        #[test]
        fn running_contexts_equal_from_scratch_contexts(
            k in 1usize..33,
            nodes_per in 1u32..9,
            picks in (0usize..6, 0usize..3),
            busy in proptest::prop::collection::vec(0u32..5, 32..33),
            keys in proptest::prop::collection::vec(proptest::any::<u32>(), 32..33),
            sten1 in proptest::any::<bool>(),
        ) {
            let (sys, cost) = random_system(k, nodes_per, picks, &busy);
            let counting = Counting::new(&cost);
            let app = stencil(20_000, sten1);
            let est = Estimator::new(&sys, &counting, &app);
            let mut order: Vec<usize> = (0..k).collect();
            order.sort_by_key(|&c| keys[c]);
            let mut config = vec![0u32; k];
            let mut filled = est.fill_state(&config).expect("stencil models take the fast path");
            for cluster in order {
                let running = filled.context(cluster);
                let scratch = est.fill_context_from_scratch(&config, cluster).unwrap();
                let avail = sys.clusters[cluster].available;
                for p in 0..=avail {
                    proptest::prop_assert_eq!(
                        running.t_c_ms(p).to_bits(),
                        scratch.t_c_ms(p).to_bits(),
                        "cluster {} at p={} over {:?}", cluster, p, config
                    );
                }
                config[cluster] = (keys[cluster] >> 8) % (avail + 1);
                filled.commit(&running, config[cluster]);
            }
        }
    }

    /// Router penalties from the testbed's hop distances, per-cluster
    /// intra fits, and coercion between clusters of different parity.
    fn hop_model(testbed: &Testbed) -> netpart_calibrate::CalibratedCostModel {
        use netpart_calibrate::{CalibratedCostModel, FittedCost, LinearCost};
        let hops = testbed.cluster_hops().expect("the wirings used connect");
        let mut model = CalibratedCostModel::default();
        for (a, row) in hops.iter().enumerate() {
            model.set_intra(
                a,
                Topology::OneD,
                FittedCost {
                    c1: 0.2 + 0.013 * (a % 7) as f64,
                    c2: 0.5,
                    c3: -0.001,
                    c4: 0.0011,
                    r_squared: 1.0,
                    abs_fix: true,
                },
            );
            for (b, &d) in row.iter().enumerate().skip(a + 1) {
                // Scrambled per pair, so a late cluster's row is often
                // cheaper than a pair filled long before it.
                let h = f64::from(d) * (1 + (a * 7 + b * 13) % 4) as f64;
                model.set_router(
                    a,
                    b,
                    LinearCost {
                        a: 0.4 * h,
                        k: 0.0007 * h,
                    },
                );
                if (a + b) % 2 == 1 {
                    model.set_coerce(
                        a,
                        b,
                        LinearCost {
                            a: 0.0,
                            k: 0.0002 * (1 + b % 3) as f64,
                        },
                    );
                }
            }
        }
        model
    }

    #[test]
    fn refinement_recovers_the_locality_miss() {
        // The N=300 STEN-1 case where the exact optimum idles a fast
        // processor (see heuristic_locality_bias_is_observable): one
        // refinement move — dropping a Sparc2 — closes the gap the fill
        // loop's locality bias leaves open.
        let sys = paper_system();
        let cost = PaperCostModel;
        let app = stencil(300, false);
        let est = Estimator::new(&sys, &cost, &app);
        let plain = partition(&est, &PartitionOptions::default()).unwrap();
        let refined = partition(
            &est,
            &PartitionOptions {
                refine_passes: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let exact = partition_exhaustive(&est).unwrap();
        assert!(refined.refinement_moves >= 1);
        assert!(refined.predicted_tc_ms() < plain.predicted_tc_ms());
        assert!(
            refined.predicted_tc_ms() <= exact.predicted_tc_ms() + 1e-9,
            "refined {:?}={} vs exact {:?}={}",
            refined.config,
            refined.predicted_tc_ms(),
            exact.config,
            exact.predicted_tc_ms()
        );
    }

    #[test]
    fn refinement_leaves_optima_alone() {
        // Where the fill heuristic already finds the exhaustive optimum
        // (N=1200 STEN-2 → (6,6)), refinement must be a no-op.
        let sys = paper_system();
        let cost = PaperCostModel;
        let app = stencil(1200, true);
        let est = Estimator::new(&sys, &cost, &app);
        let refined = partition(
            &est,
            &PartitionOptions {
                refine_passes: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(refined.config, vec![6, 6]);
        assert_eq!(refined.refinement_moves, 0);
    }

    #[test]
    fn zero_availability_errors() {
        let sys = paper_system().with_available(&[0, 0]);
        let cost = PaperCostModel;
        let app = stencil(300, false);
        let est = Estimator::new(&sys, &cost, &app);
        assert_eq!(
            partition(&est, &PartitionOptions::default()).unwrap_err(),
            NetpartError::NoProcessorsAvailable
        );
    }

    #[test]
    fn first_cluster_empty_falls_through() {
        // Sparc2s all busy: the IPC cluster becomes the first usable one.
        let sys = paper_system().with_available(&[0, 6]);
        let cost = PaperCostModel;
        let app = stencil(600, false);
        let est = Estimator::new(&sys, &cost, &app);
        let p = partition(&est, &PartitionOptions::default()).unwrap();
        assert_eq!(p.config[0], 0);
        assert!(p.config[1] >= 1);
    }

    #[test]
    fn invalid_given_order_rejected() {
        let sys = paper_system();
        let cost = PaperCostModel;
        let app = stencil(300, false);
        let est = Estimator::new(&sys, &cost, &app);
        let opts = PartitionOptions {
            order: ClusterOrder::Given(vec![0, 0]),
            ..Default::default()
        };
        assert_eq!(
            partition(&est, &opts).unwrap_err(),
            NetpartError::InvalidOrder
        );
    }

    #[test]
    fn slowest_first_is_worse_or_equal() {
        // The ordering ablation's premise: considering slow clusters first
        // cannot beat the paper's fastest-first rule on the stencil.
        let sys = paper_system();
        let cost = PaperCostModel;
        let app = stencil(600, false);
        let est = Estimator::new(&sys, &cost, &app);
        let fast = partition(&est, &PartitionOptions::default()).unwrap();
        let slow = partition(
            &est,
            &PartitionOptions {
                order: ClusterOrder::SlowestFirst,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(fast.predicted_tc_ms() <= slow.predicted_tc_ms() + 1e-9);
    }
}
