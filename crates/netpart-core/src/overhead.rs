//! Partitioning-overhead measurement (paper §5/§6).
//!
//! The paper argues the runtime overhead is negligible: the equations are
//! recomputed `K·log₂P` times worst case (6 times for K=2, P=12), each
//! recomputation costing `O(K)` floating point work, against application
//! elapsed times of hundreds to thousands of milliseconds. This module
//! reports the evaluation count of a partitioning call against that
//! bound, so the claim can be reproduced as numbers; what the call costs
//! in host time is the repo benchmark's `plan_scale` workload.

use netpart_model::NetpartError;

use crate::estimator::Estimator;
use crate::partitioner::{partition, Partition, PartitionOptions};

/// Measured overhead of one partitioning call.
#[derive(Debug, Clone)]
pub struct OverheadReport {
    /// `T_c` evaluations spent by the search.
    pub evaluations: u64,
    /// The paper's worst-case bound for this system: `2·K·(⌈log₂P_max⌉+1)`
    /// (two probes per binary-search step).
    pub bound: u64,
    /// The partition produced.
    pub partition: Partition,
}

/// Partition and measure the overhead of doing so.
pub fn measure_overhead(
    est: &Estimator<'_>,
    opts: &PartitionOptions,
) -> Result<OverheadReport, NetpartError> {
    let k = est.system().num_clusters() as u64;
    let p_max = est
        .system()
        .clusters
        .iter()
        .map(|c| c.available)
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    let bound = 2 * k * (p_max.log2().ceil() as u64 + 1);
    let partition = partition(est, opts)?;
    Ok(OverheadReport {
        evaluations: partition.evaluations,
        bound,
        partition,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemModel;
    use netpart_calibrate::{PaperCostModel, Testbed};
    use netpart_model::{AppModel, CommPhase, CompPhase, OpKind};
    use netpart_topology::Topology;

    #[test]
    fn overhead_is_within_bound_and_fast() {
        let sys = SystemModel::from_testbed(&Testbed::paper());
        let cost = PaperCostModel;
        let app = AppModel::new("stencil", "row", 1200)
            .with_comp(CompPhase::linear("u", 6000.0, OpKind::Flop))
            .with_comm(CommPhase::constant("b", Topology::OneD, 4800.0));
        let est = Estimator::new(&sys, &cost, &app);
        let r = measure_overhead(&est, &PartitionOptions::default()).unwrap();
        assert!(r.evaluations <= r.bound, "{} > {}", r.evaluations, r.bound);
    }
}
