//! Execution reports produced by the runtime.

use netpart_mmps::MmpsStats;
use netpart_sim::{SimDur, SimTime};

/// What one SPMD execution measured.
#[derive(Debug, Clone)]
pub struct SpmdReport {
    /// Simulated time spent in the iterative part (excludes startup
    /// distribution, matching the paper's Table 2 timings).
    pub elapsed: SimDur,
    /// Simulated time of the initial data distribution (zero when
    /// distribution was disabled).
    pub startup: SimDur,
    /// Per-cycle elapsed times: `per_cycle[c]` is the span between the
    /// completion of cycle `c-1` (or startup) and of cycle `c`, taken over
    /// the *last* rank to finish — the synchronous completion the paper's
    /// `T_c` estimates.
    pub per_cycle: Vec<SimDur>,
    /// When each rank finished its final cycle.
    pub rank_finish: Vec<SimTime>,
    /// Simulated time each rank spent inside `Compute` steps — the
    /// per-processor computation rate signal a dynamic load balancer
    /// (the dataparallel-C style baseline) feeds on.
    pub compute_time: Vec<SimDur>,
    /// Simulated time each rank spent blocked in `Recv` steps waiting for
    /// messages — the communication share of the cycle, which together
    /// with `compute_time` explains where Fig. 3's regions come from.
    pub wait_time: Vec<SimDur>,
    /// Message-layer counters accumulated during the run.
    pub mmps: MmpsStats,
}

impl SpmdReport {
    /// Mean per-cycle time, the quantity the partitioner's `T_c` predicts.
    pub fn mean_cycle(&self) -> SimDur {
        if self.per_cycle.is_empty() {
            return SimDur::ZERO;
        }
        let total: u64 = self.per_cycle.iter().map(|d| d.as_nanos()).sum();
        SimDur::from_nanos(total / self.per_cycle.len() as u64)
    }

    /// Total simulated time including startup.
    pub fn total(&self) -> SimDur {
        self.startup + self.elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_model::NetpartError;

    #[test]
    fn mean_cycle_averages() {
        let r = SpmdReport {
            elapsed: SimDur::from_millis(30),
            startup: SimDur::from_millis(5),
            per_cycle: vec![
                SimDur::from_millis(10),
                SimDur::from_millis(20),
                SimDur::from_millis(30),
            ],
            rank_finish: vec![],
            compute_time: vec![],
            wait_time: vec![],
            mmps: Default::default(),
        };
        assert_eq!(r.mean_cycle(), SimDur::from_millis(20));
        assert_eq!(r.total(), SimDur::from_millis(35));
    }

    #[test]
    fn empty_report_mean_is_zero() {
        let r = SpmdReport {
            elapsed: SimDur::ZERO,
            startup: SimDur::ZERO,
            per_cycle: vec![],
            rank_finish: vec![],
            compute_time: vec![],
            wait_time: vec![],
            mmps: Default::default(),
        };
        assert_eq!(r.mean_cycle(), SimDur::ZERO);
    }

    #[test]
    fn error_display() {
        let e = NetpartError::MessageLost { from: 1, to: 2 };
        assert!(e.to_string().contains("rank 1"));
    }
}
