//! Benchmark-based configuration selection (the Cheung & Reeves
//! comparator, ref \[1\] of the paper).
//!
//! "Reeves et al propose a strategy for partitioning data parallel
//! computation based on benchmarking. Their approach is limited to ...
//! a set of possible processor configurations." This baseline does
//! exactly that: given an explicit candidate list, it *runs* a short
//! probe of the real application on each candidate and keeps the fastest.
//! Accurate (it measures reality) but expensive: the probing cost scales
//! with the number of candidates, where the paper's method spends only
//! `K·log₂P` closed-form evaluations.

use netpart_calibrate::Testbed;
use netpart_model::{NetpartError, PartitionVector};
use netpart_sim::SimDur;
use netpart_spmd::{Executor, SpmdApp};
use netpart_topology::PlacementStrategy;

/// Result of probe-based selection.
#[derive(Debug, Clone)]
pub struct ProbeSelection {
    /// The winning configuration (per-cluster processor counts).
    pub config: Vec<u32>,
    /// Mean probe cycle time of the winner, ms.
    pub best_cycle_ms: f64,
    /// Total simulated time burned probing all candidates — the cost of
    /// this strategy.
    pub probe_cost: SimDur,
    /// Mean cycle time measured for every candidate, in input order.
    pub measured_ms: Vec<f64>,
}

/// Probe each candidate configuration with `probe_cycles` cycles of the
/// real application and select the fastest.
///
/// `make_app` builds a fresh application instance for a given processor
/// count; `make_vector` builds the data decomposition to probe with.
pub fn select_by_probing<A: SpmdApp>(
    testbed: &Testbed,
    candidates: &[Vec<u32>],
    probe_cycles: u64,
    mut make_app: impl FnMut(u32, u64) -> A,
    mut make_vector: impl FnMut(&[u32]) -> PartitionVector,
) -> Result<ProbeSelection, NetpartError> {
    assert!(!candidates.is_empty(), "need at least one candidate");
    let mut probe_cost = SimDur::ZERO;
    let mut measured = Vec::with_capacity(candidates.len());
    let mut best: Option<(usize, f64)> = None;
    for (i, cand) in candidates.iter().enumerate() {
        let p: u32 = cand.iter().sum();
        let (mmps, nodes) = testbed.build(cand, PlacementStrategy::ClusterContiguous);
        let mut app = make_app(p, probe_cycles);
        let mut exec = Executor::new(mmps, nodes);
        let report = exec.run(&mut app, &make_vector(cand), false)?;
        let cycle_ms = report.mean_cycle().as_millis_f64();
        probe_cost += report.elapsed;
        measured.push(cycle_ms);
        if best.is_none_or(|(_, b)| cycle_ms < b) {
            best = Some((i, cycle_ms));
        }
    }
    let (idx, best_cycle_ms) = best.expect("candidates non-empty");
    Ok(ProbeSelection {
        config: candidates[idx].clone(),
        best_cycle_ms,
        probe_cost,
        measured_ms: measured,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_apps::stencil::{StencilApp, StencilVariant};

    #[test]
    fn probing_finds_a_sensible_configuration() {
        let tb = Testbed::paper();
        let n = 96usize;
        let candidates = vec![vec![1, 0], vec![2, 0], vec![4, 0], vec![6, 0]];
        let sel = select_by_probing(
            &tb,
            &candidates,
            3,
            |p, cycles| StencilApp::new(n, cycles, StencilVariant::Sten1, p as usize),
            |cand| {
                let p: u32 = cand.iter().sum();
                PartitionVector::equal(n as u64, p as usize)
            },
        )
        .unwrap();
        assert_eq!(sel.measured_ms.len(), 4);
        // For a 96×96 grid, more Sparc2s beat one.
        let p: u32 = sel.config.iter().sum();
        assert!(p >= 2, "selected {:?}", sel.config);
        // Probing cost covers all candidate runs.
        assert!(sel.probe_cost.as_millis_f64() > 0.0);
        // The winner's measured cycle is the minimum of the measurements.
        let min = sel.measured_ms.iter().cloned().fold(f64::MAX, f64::min);
        assert!((sel.best_cycle_ms - min).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_candidates_panics() {
        let tb = Testbed::paper();
        let _ = select_by_probing(
            &tb,
            &[],
            1,
            |p, cycles| StencilApp::new(16, cycles, StencilVariant::Sten1, p as usize),
            |c| PartitionVector::equal(16, c.iter().sum::<u32>() as usize),
        );
    }
}
