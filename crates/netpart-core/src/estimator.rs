//! The per-cycle elapsed-time estimator: Equations 3–6 of the paper.
//!
//! For a candidate processor configuration `P = (P_1 … P_K)`:
//!
//! * **Eq. 3** computes the load-balanced PDU share `A_i` of each
//!   processor in cluster `i`. For linear computational complexity the
//!   closed form is `A_i = num_PDUs / (S_i · Σ_j P_j / S_j)` — the
//!   derivation of the paper's (garbled as printed) equation that
//!   reproduces its own worked example `A[Sparc2] = 2N/(2P_1 + P_2)`.
//!   Non-linear complexity is balanced numerically by bisection (the
//!   generalization the paper defers to \[6\]).
//! * **Eq. 4** `T_comp[p_i] = S_i × complexity × A_i` — per-cycle compute
//!   time. Balanced, it is the same for every active cluster in exact
//!   arithmetic; `T_c` reads it from the lowest-index active cluster.
//! * **Eq. 5** `T_comm` — the topology's cost function evaluated for the
//!   configuration (Eq. 1/Eq. 2 via [`CommCostModel`]).
//! * **Eq. 6** `T_c = T_comp + T_comm − T_overlap`, with
//!   `T_overlap = min(T_comp, T_comm)` when the implementation overlaps
//!   the dominant phases (STEN-2) and 0 otherwise (STEN-1).
//!
//! Every call to [`Estimator::t_c_ms`] is counted, so the `O(K·log₂P)`
//! overhead claim of §5 can be verified empirically. A second counter,
//! [`Estimator::cluster_evals`], measures the *per-cluster* work: a full
//! breakdown walks all `K` clusters, while a [`FillContext`] delta-eval —
//! how the partitioner's fill loop prices a probe, where only one
//! cluster's count varies — touches exactly one, and returns the bits a
//! full breakdown would. The fill loop itself keeps Eq. 2 summarized over
//! the clusters already filled (a `FillState`), so a plan reads the cost
//! tables `O(K²)` times in all.

use std::cell::Cell;

use netpart_calibrate::CommCostModel;
use netpart_model::{AppModel, CompPhase, PartitionVector};
use netpart_topology::Topology;

use crate::system::SystemModel;

/// Detailed estimate for one configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TcBreakdown {
    /// Per-cluster PDU share of one processor (real-valued Eq. 3 result).
    pub shares: Vec<f64>,
    /// Per-cluster `T_comp` in ms (equal across clusters when balanced).
    pub t_comp_ms: Vec<f64>,
    /// `T_comm` in ms (Eq. 5 / Eq. 2).
    pub t_comm_ms: f64,
    /// `T_overlap` in ms.
    pub t_overlap_ms: f64,
    /// `T_c` in ms (Eq. 6).
    pub t_c_ms: f64,
}

/// Evaluates Equations 3–6 for candidate configurations.
pub struct Estimator<'a> {
    system: &'a SystemModel,
    cost: &'a dyn CommCostModel,
    app: &'a AppModel,
    evaluations: Cell<u64>,
    cluster_evals: Cell<u64>,
}

impl<'a> Estimator<'a> {
    /// Bind an estimator to a system, a cost model, and an application.
    pub fn new(
        system: &'a SystemModel,
        cost: &'a dyn CommCostModel,
        app: &'a AppModel,
    ) -> Estimator<'a> {
        Estimator {
            system,
            cost,
            app,
            evaluations: Cell::new(0),
            cluster_evals: Cell::new(0),
        }
    }

    /// The system model in use.
    pub fn system(&self) -> &SystemModel {
        self.system
    }

    /// The application model in use.
    pub fn app(&self) -> &AppModel {
        self.app
    }

    /// How many times `T_c` has been evaluated (the §5 overhead metric).
    pub fn evaluations(&self) -> u64 {
        self.evaluations.get()
    }

    /// Per-cluster units of estimation work spent: `K` for every full
    /// breakdown, `1` for every [`FillContext`] delta-eval, `K` to build a
    /// context (its Eq. 3 denominator is `K` additions). Unlike
    /// [`evaluations`](Estimator::evaluations), it tells a delta-eval
    /// from a walk over all clusters.
    pub fn cluster_evals(&self) -> u64 {
        self.cluster_evals.get()
    }

    /// Reset the evaluation counter.
    pub fn reset_evaluations(&self) {
        self.evaluations.set(0);
        self.cluster_evals.set(0);
    }

    /// Eq. 3: the real-valued per-processor PDU share of each cluster.
    /// Clusters with `config[k] == 0` get share 0.
    pub fn shares(&self, config: &[u32]) -> Vec<f64> {
        let comp = self.app.dominant_comp();
        let kind = comp.op_kind;
        let num_pdus = self.app.num_pdus() as f64;
        if comp.linear {
            // Closed form: A_i = num_PDUs / (S_i · Σ_j P_j / S_j).
            let denom: f64 = config
                .iter()
                .enumerate()
                .map(|(j, &p)| p as f64 / self.system.clusters[j].sec_per_op(kind))
                .sum();
            if denom <= 0.0 {
                return vec![0.0; config.len()];
            }
            config
                .iter()
                .enumerate()
                .map(|(i, &p)| {
                    if p == 0 {
                        0.0
                    } else {
                        num_pdus / (self.system.clusters[i].sec_per_op(kind) * denom)
                    }
                })
                .collect()
        } else {
            self.balance_nonlinear(config)
        }
    }

    /// Numerical load balance for non-linear complexity: find per-cluster
    /// shares `a_i` with `Σ P_i·a_i = num_PDUs` and equal per-processor
    /// compute times `S_i · ops(a_i)`. Outer bisection on the common time
    /// `t`, inner bisection inverting the (monotone) `ops` callback.
    fn balance_nonlinear(&self, config: &[u32]) -> Vec<f64> {
        let comp = self.app.dominant_comp();
        let kind = comp.op_kind;
        let num_pdus = self.app.num_pdus() as f64;
        let total_p: u32 = config.iter().sum();
        if total_p == 0 {
            return vec![0.0; config.len()];
        }
        // a_i(t): the share that makes cluster i's compute time equal t.
        let share_for_time = |i: usize, t: f64| -> f64 {
            let s = self.system.clusters[i].sec_per_op(kind);
            let target_ops = t / s;
            // Invert ops(a) = target_ops on [0, num_pdus] by bisection
            // (ops is assumed monotone non-decreasing in a).
            let (mut lo, mut hi) = (0.0f64, num_pdus);
            if comp.ops(hi) <= target_ops {
                return hi;
            }
            for _ in 0..64 {
                let mid = 0.5 * (lo + hi);
                if comp.ops(mid) <= target_ops {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        };
        let assigned = |t: f64| -> f64 {
            config
                .iter()
                .enumerate()
                .map(|(i, &p)| p as f64 * share_for_time(i, t))
                .sum()
        };
        // Outer bisection on t: assigned(t) is monotone increasing.
        let s_max = config
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > 0)
            .map(|(i, _)| self.system.clusters[i].sec_per_op(kind))
            .fold(0.0f64, f64::max);
        let (mut lo, mut hi) = (0.0f64, s_max * comp.ops(num_pdus) + 1e-12);
        for _ in 0..96 {
            let mid = 0.5 * (lo + hi);
            if assigned(mid) < num_pdus {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let t = 0.5 * (lo + hi);
        config
            .iter()
            .enumerate()
            .map(|(i, &p)| if p == 0 { 0.0 } else { share_for_time(i, t) })
            .collect()
    }

    /// Eqs. 3–6 for one configuration, fully broken down. `T_c`'s
    /// `T_comp` is the lowest-index active cluster's Eq. 4 value, for
    /// every model. Under linear complexity every active cluster's value
    /// is that one up to rounding; under non-linear complexity the
    /// bisection balances them only to its tolerance, so the lead value
    /// may sit a hair below the slowest cluster's. `t_comp_ms` lists
    /// them all.
    pub fn breakdown(&self, config: &[u32]) -> TcBreakdown {
        self.evaluations.set(self.evaluations.get() + 1);
        self.cluster_evals
            .set(self.cluster_evals.get() + config.len() as u64);
        let comp = self.app.dominant_comp();
        let comm = self.app.dominant_comm();
        let kind = comp.op_kind;

        let shares = self.shares(config);
        // Eq. 4 per cluster (ms): S_i [ms/op] × ops(A_i).
        let t_comp_ms: Vec<f64> = shares
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                if config[i] == 0 {
                    0.0
                } else {
                    self.system.clusters[i].sec_per_op(kind) * 1.0e3 * comp.ops(a)
                }
            })
            .collect();
        // Balanced, every active cluster's Eq. 4 value is the same in exact
        // arithmetic: read it from the lowest-index one, as a `FillContext`
        // does, so the two paths round alike.
        let t_comp = config
            .iter()
            .position(|&p| p > 0)
            .map_or(0.0, |i| t_comp_ms[i]);

        // Eq. 5: message size may depend on the PDU share; conservatively
        // use the largest share (constant for the stencil's 4N). An idle
        // cluster's share is 0.
        let max_share = shares.iter().copied().fold(0.0f64, f64::max);
        let bytes = comm.bytes(max_share).max(0.0);
        let t_comm_ms = self.cost.total_ms(config, comm.topology, bytes);

        // Eq. 6.
        let t_overlap_ms = if self.app.dominant_phases_overlap() {
            t_comp.min(t_comm_ms)
        } else {
            0.0
        };
        TcBreakdown {
            shares,
            t_comp_ms,
            t_comm_ms,
            t_overlap_ms,
            t_c_ms: t_comp + t_comm_ms - t_overlap_ms,
        }
    }

    /// Eq. 6: the per-cycle elapsed-time estimate `T_c` in ms.
    pub fn t_c_ms(&self, config: &[u32]) -> f64 {
        self.breakdown(config).t_c_ms
    }

    /// The integral partition vector for a configuration: ranks laid out
    /// cluster-contiguously in `order` (the cluster consideration order),
    /// shares rounded by largest remainder so `Σ A_i = num_PDUs`. Each
    /// cluster is one run of equal shares, so rounding sorts `K` values,
    /// not `P`.
    pub fn partition_vector(&self, config: &[u32], order: &[usize]) -> PartitionVector {
        let shares = self.shares(config);
        let runs: Vec<(f64, usize)> = order
            .iter()
            .map(|&k| (shares[k], config[k] as usize))
            .collect();
        PartitionVector::from_share_runs(&runs, self.app.num_pdus())
    }

    /// Precompute a [`FillContext`] for the fill-in-order inner loop:
    /// every cluster's count in `fixed` is pinned except `cluster`'s
    /// (whose entry in `fixed` is ignored), and subsequent
    /// [`FillContext::t_c_ms`] calls price candidate counts for that one
    /// cluster in O(1) instead of re-walking all `K` clusters.
    ///
    /// Returns `None` when the fast path's algebra does not apply —
    /// non-linear computational complexity (shares come from bisection),
    /// share-dependent message sizes, or a bandwidth-limited topology
    /// (every cluster's Eq. 1 term sees the *total* count, so nothing is
    /// fixed). Callers fall back to [`Estimator::t_c_ms`]. Where it
    /// applies, a probe equals that fallback to the bit.
    ///
    /// The context itself costs `K` [`cluster_evals`] units to build —
    /// amortized over the `O(log P)` probes of one cluster's search. An
    /// arbitrary background is summarized from scratch here, one crossing
    /// penalty per pair of its active clusters; the partitioner's fill
    /// loop, whose background only ever grows, keeps the summary running
    /// instead.
    ///
    /// [`cluster_evals`]: Estimator::cluster_evals
    pub fn fill_context(&self, fixed: &[u32], cluster: usize) -> Option<FillContext<'a, '_>> {
        let mut background = fixed.to_vec();
        background[cluster] = 0;
        Some(self.fill_state(&background)?.context(cluster))
    }

    /// Summarize `background` (processors pinned per cluster) as a
    /// [`FillState`]; `None` exactly when [`fill_context`] refuses.
    ///
    /// [`fill_context`]: Estimator::fill_context
    pub(crate) fn fill_state(&self, background: &[u32]) -> Option<FillState<'a, '_>> {
        let comp = self.app.dominant_comp();
        let comm = self.app.dominant_comm();
        if !comp.linear || !comm.constant_bytes || comm.topology.is_bandwidth_limited() {
            return None;
        }
        let mut state = FillState {
            pinned: Pinned {
                est: self,
                comp,
                bytes: comm.bytes(0.0).max(0.0),
                topo: comm.topology,
                overlap: self.app.dominant_phases_overlap(),
                total: 0,
                worst_intra: 0.0,
                worst_cross: 0.0,
            },
            counts: vec![0; background.len()],
            denom_terms: vec![0.0; background.len()],
            active: Vec::new(),
        };
        for (j, &p) in background.iter().enumerate().filter(|(_, &p)| p > 0) {
            let cross = state.cross_with(j);
            state.push(j, p, cross);
        }
        Some(state)
    }
}

/// Eq. 2 summarized over a set of pinned clusters, together with the
/// application constants every probe against them prices with.
#[derive(Clone, Copy)]
struct Pinned<'a, 'b> {
    est: &'b Estimator<'a>,
    comp: &'a CompPhase,
    bytes: f64,
    topo: Topology,
    overlap: bool,
    /// Processors pinned in all; nonzero exactly when a cluster is active.
    total: u32,
    /// Worst Eq. 1 term over the active clusters, each as one of several.
    worst_intra: f64,
    /// Worst crossing penalty over pairs of active clusters.
    worst_cross: f64,
}

/// The [`Pinned`] summary of a set of clusters that only grows — the
/// partitioner's fill loop commits one cluster at a time and never
/// revisits it. Pricing the next cluster then needs its own row of
/// crossing penalties against the pinned ones (`O(active)` table reads),
/// not every pair again; pinning it folds that row in with one `max`.
///
/// `max` does not care in which order it meets its operands, and Eq. 3's
/// denominator is still added up in cluster-index order from per-cluster
/// terms, so a [`FillContext`] taken from a running state holds the same
/// bits as one summarized from scratch.
pub(crate) struct FillState<'a, 'b> {
    pinned: Pinned<'a, 'b>,
    /// Processors pinned per cluster.
    counts: Vec<u32>,
    /// `counts[j] / S_j` — Eq. 3's denominator, term by term.
    denom_terms: Vec<f64>,
    /// Clusters with a nonzero pinned count.
    active: Vec<usize>,
}

impl<'a, 'b> FillState<'a, 'b> {
    /// Worst router + coercion penalty between `cluster` and any pinned
    /// active cluster.
    fn cross_with(&self, cluster: usize) -> f64 {
        let Pinned { est, bytes, .. } = self.pinned;
        self.active.iter().fold(0.0f64, |worst, &j| {
            worst.max(est.cost.router_ms(cluster, j, bytes) + est.cost.coerce_ms(cluster, j, bytes))
        })
    }

    fn push(&mut self, cluster: usize, p: u32, cross_with_c: f64) {
        if p == 0 {
            return;
        }
        let pin = &mut self.pinned;
        let own = pin
            .est
            .cost
            .intra_ms(cluster, pin.topo, pin.bytes, p.max(2));
        pin.worst_intra = pin.worst_intra.max(own);
        pin.worst_cross = pin.worst_cross.max(cross_with_c);
        pin.total += p;
        self.counts[cluster] = p;
        self.denom_terms[cluster] =
            p as f64 / pin.est.system.clusters[cluster].sec_per_op(pin.comp.op_kind);
        self.active.push(cluster);
    }

    /// The context that varies `cluster` — one the state has not pinned —
    /// against everything it has.
    pub(crate) fn context(&self, cluster: usize) -> FillContext<'a, 'b> {
        debug_assert_eq!(self.counts[cluster], 0, "cluster is already pinned");
        let pinned = self.pinned;
        let est = pinned.est;
        est.cluster_evals
            .set(est.cluster_evals.get() + self.counts.len() as u64);
        let (below, above) = self.denom_terms.split_at(cluster);
        FillContext {
            pinned,
            cluster,
            below_denom: below.iter().sum(),
            // Adding a zero term leaves a sum's bits alone.
            above_terms: above[1..].iter().copied().filter(|&t| t != 0.0).collect(),
            lead: self.counts.iter().position(|&p| p > 0),
            comm_p0: match self.active[..] {
                _ if pinned.total <= 1 => 0.0,
                [only] => est
                    .cost
                    .intra_ms(only, pinned.topo, pinned.bytes, self.counts[only]),
                _ => pinned.worst_intra + pinned.worst_cross,
            },
            cross_with_c: self.cross_with(cluster),
        }
    }

    /// Pin `ctx`'s cluster at `p` processors.
    pub(crate) fn commit(&mut self, ctx: &FillContext<'_, '_>, p: u32) {
        self.push(ctx.cluster, p, ctx.cross_with_c);
    }
}

/// O(1) `T_c` evaluator for the partitioner's inner loop: all clusters
/// pinned except one. Built by [`Estimator::fill_context`]; each
/// [`t_c_ms`](FillContext::t_c_ms) probe costs one
/// [`cluster_evals`](Estimator::cluster_evals) unit instead of `K`.
///
/// A probe does the floating-point operations of [`Estimator::t_c_ms`]
/// in the same order, so the two agree to the bit: Eq. 3's denominator
/// is added in cluster-index order, and Eq. 4 is read from the
/// lowest-index active cluster. Pinned clusters with a higher index than
/// the varied one are added after it, one addition each per probe —
/// none when clusters fill in index order.
pub struct FillContext<'a, 'b> {
    pinned: Pinned<'a, 'b>,
    cluster: usize,
    /// Σ_{j<c} P_j / S_j — the pinned part of Eq. 3's denominator that
    /// comes before the varied cluster's term.
    below_denom: f64,
    /// The nonzero pinned terms `P_j / S_j` with `j > c`, in index order.
    above_terms: Vec<f64>,
    /// The lowest-index pinned active cluster.
    lead: Option<usize>,
    /// Eq. 2 for the pinned clusters alone (the `p = 0` candidate).
    comm_p0: f64,
    /// Worst crossing penalty between the varied cluster and any pinned
    /// active cluster.
    cross_with_c: f64,
}

impl FillContext<'_, '_> {
    /// Eq. 6 with the varied cluster at `p` processors, in O(1).
    pub fn t_c_ms(&self, p: u32) -> f64 {
        let pin = &self.pinned;
        let est = pin.est;
        est.evaluations.set(est.evaluations.get() + 1);
        est.cluster_evals.set(est.cluster_evals.get() + 1);

        let sec_per_op = |j: usize| est.system.clusters[j].sec_per_op(pin.comp.op_kind);
        let mut denom = self.below_denom + p as f64 / sec_per_op(self.cluster);
        for &term in &self.above_terms {
            denom += term;
        }
        // Eq. 4 of the lowest-index active cluster.
        let lead = self
            .lead
            .filter(|&j| j < self.cluster || p == 0)
            .unwrap_or(self.cluster);
        let s = sec_per_op(lead);
        let t_comp = if denom > 0.0 {
            s * 1.0e3 * pin.comp.ops(est.app.num_pdus() as f64 / (s * denom))
        } else {
            0.0
        };

        let t_comm = if pin.total + p <= 1 {
            0.0
        } else if p == 0 {
            self.comm_p0
        } else if pin.total == 0 {
            est.cost.intra_ms(self.cluster, pin.topo, pin.bytes, p)
        } else {
            let own = est
                .cost
                .intra_ms(self.cluster, pin.topo, pin.bytes, p.max(2));
            pin.worst_intra.max(own) + pin.worst_cross.max(self.cross_with_c)
        };

        let t_overlap = if pin.overlap { t_comp.min(t_comm) } else { 0.0 };
        t_comp + t_comm - t_overlap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_calibrate::{PaperCostModel, Testbed};
    use netpart_model::{CommPhase, CompPhase, OpKind};
    use netpart_topology::Topology;

    impl<'a> Estimator<'a> {
        /// [`fill_context`](Estimator::fill_context) as it was before the
        /// running [`FillState`]: every pair of pinned active clusters
        /// re-walked, and Eq. 2 evaluated once more for the `p = 0` candidate.
        /// The reference the running state must equal bit for bit.
        pub(crate) fn fill_context_from_scratch(
            &self,
            fixed: &[u32],
            cluster: usize,
        ) -> Option<FillContext<'a, '_>> {
            let comp = self.app.dominant_comp();
            let comm = self.app.dominant_comm();
            if !comp.linear || !comm.constant_bytes || comm.topology.is_bandwidth_limited() {
                return None;
            }
            let kind = comp.op_kind;
            let k = fixed.len();
            self.cluster_evals.set(self.cluster_evals.get() + k as u64);

            let bytes = comm.bytes(0.0).max(0.0);
            let topo = comm.topology;
            let s = |j: usize| self.system.clusters[j].sec_per_op(kind);

            // Eq. 3's denominator in cluster-index order around the varied
            // cluster, and Eq. 4's lowest-index active cluster.
            let mut below_denom = 0.0f64;
            let mut above_terms = Vec::new();
            for (j, &p) in fixed.iter().enumerate() {
                if j < cluster {
                    below_denom += p as f64 / s(j);
                } else if j > cluster && p > 0 {
                    above_terms.push(p as f64 / s(j));
                }
            }
            let lead = (0..k).find(|&j| j != cluster && fixed[j] > 0);

            // Eq. 2 decomposition: the fixed clusters' worst intra term and
            // worst pairwise crossing penalty never change; the candidate
            // cluster contributes one intra term and one best-of-partners
            // crossing term, each O(1) per probe.
            let fixed_active: Vec<usize> =
                (0..k).filter(|&j| j != cluster && fixed[j] > 0).collect();
            let mut fixed_worst_intra = 0.0f64;
            let mut cross_with_c = 0.0f64;
            for &j in &fixed_active {
                let p = fixed[j].max(2);
                fixed_worst_intra = fixed_worst_intra.max(self.cost.intra_ms(j, topo, bytes, p));
                cross_with_c = cross_with_c.max(
                    self.cost.router_ms(cluster, j, bytes) + self.cost.coerce_ms(cluster, j, bytes),
                );
            }
            let mut fixed_worst_cross = 0.0f64;
            for (i, &a) in fixed_active.iter().enumerate() {
                for &b in &fixed_active[i + 1..] {
                    fixed_worst_cross = fixed_worst_cross
                        .max(self.cost.router_ms(a, b, bytes) + self.cost.coerce_ms(a, b, bytes));
                }
            }

            // The p = 0 candidate reduces to the fixed configuration alone.
            let mut at_zero = fixed.to_vec();
            at_zero[cluster] = 0;
            let comm_p0 = self.cost.total_ms(&at_zero, topo, bytes);
            let fixed_total: u32 = at_zero.iter().sum();

            assert_eq!(fixed_active.is_empty(), fixed_total == 0);
            Some(FillContext {
                pinned: Pinned {
                    est: self,
                    comp,
                    bytes,
                    topo,
                    overlap: self.app.dominant_phases_overlap(),
                    total: fixed_total,
                    worst_intra: fixed_worst_intra,
                    worst_cross: fixed_worst_cross,
                },
                cluster,
                below_denom,
                above_terms,
                lead,
                comm_p0,
                cross_with_c,
            })
        }
    }

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
    fn eq3_matches_paper_worked_example() {
        // §6: A[Sparc2] = 2N/(2P1+P2), A[IPC] = N/(2P1+P2).
        let sys = paper_system();
        let cost = PaperCostModel;
        for n in [300u64, 600, 1200] {
            let app = stencil(n, false);
            let est = Estimator::new(&sys, &cost, &app);
            for (p1, p2) in [(6u32, 2u32), (6, 4), (6, 6), (4, 0)] {
                let shares = est.shares(&[p1, p2]);
                let denom = (2 * p1 + p2) as f64;
                assert!(
                    (shares[0] - 2.0 * n as f64 / denom).abs() < 1e-9,
                    "Sparc2 share N={n} ({p1},{p2})"
                );
                if p2 > 0 {
                    assert!((shares[1] - n as f64 / denom).abs() < 1e-9, "IPC share");
                }
            }
        }
    }

    #[test]
    fn table1_a_values_for_n300_config_6_2() {
        // Table 1, STEN-2, N=300, (P1,P2)=(6,2): A1=43, A2=21 after
        // rounding (600/14 = 42.86, 300/14 = 21.43).
        let sys = paper_system();
        let cost = PaperCostModel;
        let app = stencil(300, true);
        let est = Estimator::new(&sys, &cost, &app);
        let v = est.partition_vector(&[6, 2], &[0, 1]);
        assert_eq!(v.total(), 300);
        for r in 0..6 {
            assert!(
                (42..=43).contains(&v.count(r)),
                "Sparc2 rank {r}: {}",
                v.count(r)
            );
        }
        for r in 6..8 {
            assert!(
                (21..=22).contains(&v.count(r)),
                "IPC rank {r}: {}",
                v.count(r)
            );
        }
    }

    #[test]
    fn eq4_compute_times_balance_across_clusters() {
        let sys = paper_system();
        let cost = PaperCostModel;
        let app = stencil(600, false);
        let est = Estimator::new(&sys, &cost, &app);
        let b = est.breakdown(&[6, 4]);
        // §6: T_comp = 0.0003·(5·600)·(1200/16) = 67.5 ms on both clusters.
        assert!((b.t_comp_ms[0] - 67.5).abs() < 1e-9, "{}", b.t_comp_ms[0]);
        assert!((b.t_comp_ms[1] - 67.5).abs() < 1e-9, "{}", b.t_comp_ms[1]);
    }

    #[test]
    fn eq6_sten1_vs_sten2() {
        // STEN-1 adds comm; STEN-2 hides the smaller of the two.
        let sys = paper_system();
        let cost = PaperCostModel;
        let app1 = stencil(600, false);
        let app2 = stencil(600, true);
        let est1 = Estimator::new(&sys, &cost, &app1);
        let est2 = Estimator::new(&sys, &cost, &app2);
        let b1 = est1.breakdown(&[6, 0]);
        let b2 = est2.breakdown(&[6, 0]);
        assert_eq!(b1.t_overlap_ms, 0.0);
        assert!((b1.t_c_ms - (90.0 + b1.t_comm_ms)).abs() < 1e-9);
        assert!((b2.t_c_ms - 90.0f64.max(b2.t_comm_ms)).abs() < 1e-9);
        assert!(b2.t_c_ms < b1.t_c_ms);
    }

    #[test]
    fn single_processor_has_no_comm() {
        let sys = paper_system();
        let cost = PaperCostModel;
        let app = stencil(60, false);
        let est = Estimator::new(&sys, &cost, &app);
        let b = est.breakdown(&[1, 0]);
        assert_eq!(b.t_comm_ms, 0.0);
        // 0.0003 ms/op × 300 ops/row × 60 rows = 5.4 ms.
        assert!((b.t_c_ms - 5.4).abs() < 1e-9, "{}", b.t_c_ms);
    }

    #[test]
    fn evaluation_counter_counts() {
        let sys = paper_system();
        let cost = PaperCostModel;
        let app = stencil(300, false);
        let est = Estimator::new(&sys, &cost, &app);
        assert_eq!(est.evaluations(), 0);
        let _ = est.t_c_ms(&[2, 0]);
        let _ = est.t_c_ms(&[4, 0]);
        assert_eq!(est.evaluations(), 2);
        est.reset_evaluations();
        assert_eq!(est.evaluations(), 0);
    }

    #[test]
    fn nonlinear_balance_equalizes_times() {
        // Quadratic complexity: slower cluster must get a smaller share
        // than the linear rule would give.
        let sys = paper_system();
        let cost = PaperCostModel;
        let app = AppModel::new("quad", "row", 1000)
            .with_comp(CompPhase::with_ops("q", OpKind::Flop, |a| a * a))
            .with_comm(CommPhase::constant("c", Topology::OneD, 1000.0));
        let est = Estimator::new(&sys, &cost, &app);
        let config = [3u32, 3];
        let shares = est.shares(&config);
        // Conservation: Σ P_i a_i = num_PDUs.
        let total = 3.0 * shares[0] + 3.0 * shares[1];
        assert!((total - 1000.0).abs() < 0.01, "total {total}");
        // Equal times: S1·a1² = S2·a2² → a1/a2 = sqrt(S2/S1) = sqrt(2).
        let ratio = shares[0] / shares[1];
        assert!((ratio - 2.0f64.sqrt()).abs() < 0.01, "ratio {ratio}");
        // T_c reads T_comp from the lead cluster, which the bisection
        // balances against the slowest one to within its tolerance.
        let b = est.breakdown(&config);
        let slowest = b.t_comp_ms.iter().copied().fold(0.0f64, f64::max);
        let lead = b.t_comp_ms[0];
        assert!(
            (lead - slowest).abs() <= 1e-9 * slowest,
            "{lead} vs {slowest}"
        );
        assert_eq!(b.t_c_ms, lead + b.t_comm_ms);
    }

    /// GAUSS's annotations — linear elimination, a pivot broadcast and a
    /// tree select — fall back to full breakdowns (the broadcast is
    /// bandwidth-limited). There, too, `T_c` reads the lead cluster's
    /// Eq. 4 value, which equals the slowest cluster's up to rounding.
    #[test]
    fn gauss_breakdown_reads_the_lead_cluster() {
        let (sys, mut cost) = synthetic_setup(3);
        for i in 0..3 {
            for topology in [Topology::Broadcast, Topology::Tree] {
                let fit = cost.intra[&(i, Topology::OneD)];
                cost.set_intra(i, topology, fit);
            }
        }
        let n = 600;
        let app = AppModel::new("gaussian elimination", "matrix row", n)
            .with_comp(CompPhase::linear("eliminate", n as f64, OpKind::Flop))
            .with_comm(CommPhase::constant(
                "pivot broadcast",
                Topology::Broadcast,
                4.0 * (n as f64 + 2.0),
            ))
            .with_comm(CommPhase::constant("pivot select", Topology::Tree, 16.0));
        let est = Estimator::new(&sys, &cost, &app);
        assert!(
            est.fill_context(&[6, 6, 6], 1).is_none(),
            "GAUSS takes the fallback"
        );
        for config in [[8u32, 8, 8], [5, 3, 7], [0, 4, 1], [0, 0, 2]] {
            let b = est.breakdown(&config);
            let lead = config.iter().position(|&p| p > 0).unwrap();
            let slowest = b.t_comp_ms.iter().copied().fold(0.0f64, f64::max);
            let t_comp = b.t_comp_ms[lead];
            assert!((t_comp - slowest).abs() <= 1e-12 * slowest, "{config:?}");
            assert_eq!(b.t_c_ms, t_comp + b.t_comm_ms - b.t_overlap_ms);
        }
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

    #[test]
    fn fill_context_matches_full_breakdown() {
        let (sys, cost) = synthetic_setup(12);
        for overlap in [false, true] {
            let app = stencil(1200, overlap);
            let est = Estimator::new(&sys, &cost, &app);
            // Vary cluster 3 against a mixed fixed background.
            let mut fixed = vec![0u32; 12];
            for (j, p) in [(0usize, 8u32), (1, 8), (5, 3), (11, 1)] {
                fixed[j] = p;
            }
            let ctx = est.fill_context(&fixed, 3).expect("stencil is linear");
            for p in 0..=8u32 {
                let fast = ctx.t_c_ms(p);
                let mut full_cfg = fixed.clone();
                full_cfg[3] = p;
                let full = est.t_c_ms(&full_cfg);
                assert_eq!(
                    fast.to_bits(),
                    full.to_bits(),
                    "overlap={overlap} p={p}: {fast} vs {full}"
                );
            }
            // Empty background, and one lone pinned processor: the
            // context must also price the single-active-cluster and
            // p ∈ {0, 1} shapes correctly.
            for lone in [0u32, 1] {
                let mut fixed = vec![0u32; 12];
                fixed[7] = lone;
                let ctx = est.fill_context(&fixed, 3).unwrap();
                for p in [0u32, 1, 2, 8] {
                    let mut full_cfg = fixed.clone();
                    full_cfg[3] = p;
                    let full = est.t_c_ms(&full_cfg);
                    let fast = ctx.t_c_ms(p);
                    assert_eq!(
                        fast.to_bits(),
                        full.to_bits(),
                        "lone={lone} p={p}: {fast} vs {full}"
                    );
                }
            }
        }
    }

    #[test]
    fn fill_context_counts_one_cluster_eval_per_probe() {
        let (sys, cost) = synthetic_setup(12);
        let app = stencil(600, false);
        let est = Estimator::new(&sys, &cost, &app);
        let fixed = vec![2u32; 12];
        let ctx = est.fill_context(&fixed, 0).unwrap();
        let after_build = est.cluster_evals();
        assert_eq!(after_build, 12, "context build costs K units");
        let _ = ctx.t_c_ms(4);
        let _ = ctx.t_c_ms(5);
        assert_eq!(est.cluster_evals() - after_build, 2, "1 unit per probe");
        assert_eq!(est.evaluations(), 2, "probes are still T_c evaluations");
        // A full breakdown costs K units.
        let _ = est.t_c_ms(&fixed);
        assert_eq!(est.cluster_evals(), after_build + 2 + 12);
    }

    #[test]
    fn fill_context_refuses_inapplicable_models() {
        let (sys, cost) = synthetic_setup(4);
        // Non-linear complexity → bisection, no closed-form denominator.
        let app = AppModel::new("quad", "row", 100)
            .with_comp(CompPhase::with_ops("q", OpKind::Flop, |a| a * a))
            .with_comm(CommPhase::constant("c", Topology::OneD, 100.0));
        let est = Estimator::new(&sys, &cost, &app);
        assert!(est.fill_context(&[1, 1, 0, 0], 2).is_none());
        // Share-dependent bytes → Eq. 5 moves with every cluster.
        let app = AppModel::new("cols", "col", 100)
            .with_comp(CompPhase::linear("u", 10.0, OpKind::Flop))
            .with_comm(CommPhase::with_bytes("c", Topology::OneD, |a| 8.0 * a));
        let est = Estimator::new(&sys, &cost, &app);
        assert!(est.fill_context(&[1, 1, 0, 0], 2).is_none());
        // Bandwidth-limited topology → every intra term sees total p.
        let app = AppModel::new("bc", "row", 100)
            .with_comp(CompPhase::linear("u", 10.0, OpKind::Flop))
            .with_comm(CommPhase::constant("c", Topology::Broadcast, 100.0));
        let est = Estimator::new(&sys, &cost, &app);
        assert!(est.fill_context(&[1, 1, 0, 0], 2).is_none());
    }

    #[test]
    fn partition_vector_respects_order() {
        let sys = paper_system();
        let cost = PaperCostModel;
        let app = stencil(300, false);
        let est = Estimator::new(&sys, &cost, &app);
        // Reversed consideration order puts IPC ranks first.
        let v = est.partition_vector(&[6, 2], &[1, 0]);
        assert_eq!(v.num_ranks(), 8);
        assert!(v.count(0) < v.count(7), "IPC ranks lead and hold less");
        assert_eq!(v.total(), 300);
    }
}
