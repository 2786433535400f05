//! Gray-failure drift detection.
//!
//! The partition vector is computed once from calibrated cost functions,
//! and the paper explicitly assumes dedicated processors and networks —
//! dynamically-changing load is named as the open problem. A
//! [`DriftMonitor`] closes part of that gap: carried into the run by a
//! [`Segment`](crate::Segment) and fed phases and cycles as a [`Probe`]
//! is, it compares each rank's *observed* phase times against the plan's
//! *predicted* per-cycle `T_comp` / `T_comm` and flags a rank whose
//! EWMA-smoothed observation stays past a degradation threshold for a
//! hysteresis window of consecutive cycles.
//!
//! # Byte transparency
//!
//! The monitor is purely observational: it sends no messages, sets no
//! timers, draws no randomness, and never touches the simulated network.
//! A fault-free run with a monitor attached is therefore byte-identical
//! to the same run without one — the property test in the pipeline crate
//! asserts exactly this. The only way a monitor changes a run is by
//! confirming drift, which makes the engine return
//! [`NetpartError::DriftDegraded`](netpart_model::NetpartError::DriftDegraded)
//! instead of running to completion.
//!
//! # Hysteresis
//!
//! One slow cycle is noise (a cold cache, an unlucky retransmission); a
//! *sustained* ratio is a gray failure. Confirmation requires the
//! smoothed observed/predicted ratio to exceed [`DEGRADE_THRESHOLD`] for
//! [`HYSTERESIS`] consecutive cycles of the same rank, after the first
//! [`WARMUP_CYCLES`] are ignored entirely and outside any cooldown window
//! an adaptive policy may impose after declining to act. The communication test
//! additionally grants each rank one compute phase of bulk-synchronous
//! skew allowance before any receive-wait counts against the network —
//! a healthy but imbalanced step keeps fast ranks waiting on slow ones,
//! and that wait says nothing about the links.

use netpart_sim::SimTime;

use crate::engine::{Phase, Probe};
use crate::task::Rank;

/// Observed/predicted ratio above which a cycle counts as degraded
/// (`1.75` = 75% slower than the plan predicted).
pub const DEGRADE_THRESHOLD: f64 = 1.75;

/// Consecutive degraded cycles required to confirm drift.
pub const HYSTERESIS: u32 = 3;

/// Cycles (global) ignored at the start of the run — startup effects
/// (cold caches, distribution stragglers) are not drift.
pub const WARMUP_CYCLES: u64 = 1;

/// EWMA smoothing factor. High enough that a step change (the typical
/// gray failure) converges within the hysteresis window — downstream
/// cost/benefit decisions read the smoothed ratio as the magnitude, not
/// just as a binary alarm — while still damping single-cycle blips.
pub const EWMA_ALPHA: f64 = 0.7;

/// Absolute slack in milliseconds added to the predicted time before the
/// ratio test, so sub-millisecond predictions don't produce spurious
/// ratios.
pub const SLACK_MS: f64 = 0.25;

/// What a confirmed drift looked like, for recalibration and the
/// cost/benefit decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftReport {
    /// The degraded rank.
    pub rank: Rank,
    /// Global cycle at which drift was confirmed.
    pub cycle: u64,
    /// Smoothed observed/predicted compute-time ratio at confirmation.
    pub comp_ratio: f64,
    /// Smoothed observed/predicted receive-wait ratio at confirmation.
    pub comm_ratio: f64,
    /// Global cycle at which the degraded ratio streak began — the drift
    /// onset as far as the monitor can tell.
    pub first_degraded_cycle: u64,
}

impl DriftReport {
    /// The larger of the two ratios at confirmation, in permille — the
    /// severity [`NetpartError::DriftDegraded`](netpart_model::NetpartError::DriftDegraded)
    /// carries.
    pub fn severity_permille(&self) -> u32 {
        (self.comp_ratio.max(self.comm_ratio) * 1000.0)
            .round()
            .clamp(0.0, f64::from(u32::MAX)) as u32
    }
}

/// A [`Probe`] that watches per-rank phase times against the plan's
/// predictions and confirms sustained degradation.
///
/// `base` plays the same role as in
/// [`CheckpointStore`](crate::CheckpointStore): the global-cycle offset
/// of the engine run this monitor is attached to, so warmup, cooldown
/// and reports all use one coordinate system across replans.
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    base: u64,
    /// Per-rank predicted compute milliseconds per cycle (from the plan's
    /// `TcBreakdown`, mapped through the rank → cluster layout).
    pred_comp_ms: Vec<f64>,
    /// Predicted per-cycle communication milliseconds (shared: the
    /// estimator's `T_comm` is the cycle's communication phase).
    pred_comm_ms: f64,
    ewma_comp: Vec<Option<f64>>,
    ewma_comm: Vec<Option<f64>>,
    /// Per-cycle accumulators: an app may run several compute or receive
    /// phases per cycle (STEN-2 exchanges twice), and the predictions are
    /// per *cycle*, so phase times fold into the EWMA only at cycle
    /// completion, summed.
    acc_comp: Vec<f64>,
    acc_comm: Vec<f64>,
    streak: Vec<u32>,
    streak_start: Vec<u64>,
    /// Global cycle before which confirmations are suppressed (cooldown
    /// after a declined repartition).
    cooldown_until: u64,
    confirmed: Option<DriftReport>,
}

impl DriftMonitor {
    /// A monitor for `pred_comp_ms.len()` ranks with the given per-rank
    /// predicted compute times and shared predicted communication time
    /// (both per cycle, in milliseconds), starting at global cycle `base`.
    pub fn new(base: u64, pred_comp_ms: Vec<f64>, pred_comm_ms: f64) -> Self {
        let n = pred_comp_ms.len();
        DriftMonitor {
            base,
            pred_comp_ms,
            pred_comm_ms,
            ewma_comp: vec![None; n],
            ewma_comm: vec![None; n],
            acc_comp: vec![0.0; n],
            acc_comm: vec![0.0; n],
            streak: vec![0; n],
            streak_start: vec![0; n],
            cooldown_until: 0,
            confirmed: None,
        }
    }

    /// Suppress confirmations before global cycle `cycle` (an adaptive
    /// policy's cooldown after declining to repartition). Also clears any
    /// already-confirmed report and running streaks so the monitor
    /// re-arms cleanly.
    pub fn set_cooldown_until(&mut self, cycle: u64) {
        self.cooldown_until = cycle;
        self.confirmed = None;
        for s in &mut self.streak {
            *s = 0;
        }
    }

    /// The confirmed drift, if any.
    pub fn confirmed(&self) -> Option<&DriftReport> {
        self.confirmed.as_ref()
    }

    /// The smoothed observed/predicted compute ratio for `rank`, if any
    /// compute phase has been observed. `1.0` ≈ running as planned.
    pub fn comp_ratio(&self, rank: Rank) -> Option<f64> {
        let obs = self.ewma_comp[rank]?;
        Some(obs / (self.pred_comp_ms[rank] + SLACK_MS))
    }

    /// The smoothed observed/predicted receive-wait ratio for `rank`.
    pub fn comm_ratio(&self, rank: Rank) -> Option<f64> {
        let obs = self.ewma_comm[rank]?;
        Some(obs / (self.pred_comm_ms + SLACK_MS))
    }

    /// The detection ratio for communication drift. Receive-wait confounds
    /// network time with bulk-synchronous skew: a perfectly healthy
    /// neighbour can keep `rank` waiting for up to one compute phase
    /// before its boundary data even enters the network. So detection
    /// divides by `pred_comm + pred_comp` — only wait that worst-case
    /// skew cannot explain counts against the network. (Recalibration
    /// still uses [`comm_ratio`](Self::comm_ratio), the pure network
    /// inflation estimate, once a confirmation is in hand.)
    fn comm_wait_ratio(&self, rank: Rank) -> Option<f64> {
        let obs = self.ewma_comm[rank]?;
        Some(obs / (self.pred_comm_ms + self.pred_comp_ms[rank] + SLACK_MS))
    }

    /// Attribute the confirmed drift to its *source*: the refined report
    /// (source rank and that rank's raw ratios) plus the source's compute
    /// slowdown relative to its peers (`1.0` = no compute outlier, the
    /// confirmation stands as communication drift). `rank_clusters[r]`
    /// is rank `r`'s cluster. `None` until a drift is confirmed.
    ///
    /// In a bulk-synchronous cycle the *healthy* neighbours of a slow
    /// rank can trip the receive-wait test first (they sit waiting on
    /// it), so the confirmed rank may name a symptom. And the plan's
    /// per-cluster compute prediction can be systematically biased for a
    /// given app, which shifts every ratio in a cluster by the same
    /// factor. Both problems cancel against same-cluster peers: the rank
    /// whose compute ratio stands [`DEGRADE_THRESHOLD`]`×` above its peers'
    /// median (and above prediction in absolute terms) is the
    /// degradation source, and the ratio relative to that peer median is
    /// its slowdown.
    pub fn attribute(&self, rank_clusters: &[u32]) -> Option<(DriftReport, f64)> {
        let report = self.confirmed?;
        let ratios: Vec<f64> = (0..self.pred_comp_ms.len())
            .map(|r| self.comp_ratio(r).unwrap_or(1.0))
            .collect();
        // A rank alone in its cluster has no peers to difference
        // against; its baseline falls back to the prediction (1.0).
        let peer_median = |r: usize| -> f64 {
            let mut peers: Vec<f64> = (0..ratios.len())
                .filter(|&q| q != r && rank_clusters[q] == rank_clusters[r])
                .map(|q| ratios[q])
                .collect();
            if peers.is_empty() {
                return 1.0;
            }
            peers.sort_by(f64::total_cmp);
            peers[peers.len() / 2].max(f64::EPSILON)
        };
        let worst = (0..ratios.len())
            .map(|r| (r, ratios[r] / peer_median(r)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or((report.rank, 1.0));
        let (rank, comp_scale) = if worst.1 > DEGRADE_THRESHOLD && ratios[worst.0] > 1.0 {
            (worst.0, worst.1.max(1.0))
        } else {
            (report.rank, 1.0)
        };
        let comm_ratio = if rank == report.rank {
            report.comm_ratio
        } else {
            self.comm_ratio(rank).unwrap_or(1.0)
        };
        let source = DriftReport {
            rank,
            comp_ratio: ratios[rank],
            comm_ratio,
            ..report
        };
        Some((source, comp_scale))
    }

    fn smooth(prev: Option<f64>, sample: f64) -> f64 {
        match prev {
            None => sample,
            Some(p) => p + EWMA_ALPHA * (sample - p),
        }
    }
}

impl Probe for DriftMonitor {
    fn on_phase(
        &mut self,
        rank: Rank,
        _cycle: u64,
        phase: Phase,
        started: SimTime,
        ended: SimTime,
    ) {
        let ms = ended.since(started).as_millis_f64();
        match phase {
            Phase::Compute => self.acc_comp[rank] += ms,
            Phase::Recv => self.acc_comm[rank] += ms,
            Phase::Send => {}
        }
    }

    fn on_cycle(&mut self, rank: Rank, cycle: u64, _at: SimTime) {
        self.ewma_comp[rank] = Some(Self::smooth(self.ewma_comp[rank], self.acc_comp[rank]));
        self.ewma_comm[rank] = Some(Self::smooth(self.ewma_comm[rank], self.acc_comm[rank]));
        self.acc_comp[rank] = 0.0;
        self.acc_comm[rank] = 0.0;
        if self.confirmed.is_some() {
            return;
        }
        let global = self.base + cycle;
        if global < WARMUP_CYCLES || global < self.cooldown_until {
            self.streak[rank] = 0;
            return;
        }
        let comp = self.comp_ratio(rank).unwrap_or(1.0);
        let comm = self.comm_wait_ratio(rank).unwrap_or(1.0);
        if comp > DEGRADE_THRESHOLD || comm > DEGRADE_THRESHOLD {
            if self.streak[rank] == 0 {
                self.streak_start[rank] = global;
            }
            self.streak[rank] += 1;
            if self.streak[rank] >= HYSTERESIS {
                self.confirmed = Some(DriftReport {
                    rank,
                    cycle: global,
                    comp_ratio: comp,
                    // The report carries the recalibration-facing ratio
                    // (pure network inflation), not the detection one.
                    comm_ratio: self.comm_ratio(rank).unwrap_or(1.0),
                    first_degraded_cycle: self.streak_start[rank],
                });
            }
        } else {
            self.streak[rank] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_sim::SimDur;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDur::from_millis(ms)
    }

    fn feed_cycle(m: &mut DriftMonitor, rank: Rank, cycle: u64, comp_ms: u64) {
        m.on_phase(rank, cycle, Phase::Compute, t(0), t(comp_ms));
        m.on_cycle(rank, cycle, t(comp_ms));
    }

    #[test]
    fn healthy_run_never_confirms() {
        let mut m = DriftMonitor::new(0, vec![10.0, 10.0], 2.0);
        for c in 0..50 {
            feed_cycle(&mut m, 0, c, 10);
            feed_cycle(&mut m, 1, c, 11); // 10% off is not drift
        }
        assert!(m.confirmed().is_none());
    }

    #[test]
    fn sustained_slowdown_confirms_after_hysteresis() {
        let mut m = DriftMonitor::new(0, vec![10.0, 10.0], 2.0);
        feed_cycle(&mut m, 0, 0, 10);
        feed_cycle(&mut m, 1, 0, 10);
        // Rank 1 goes 4× from cycle 1.
        for c in 1..10 {
            feed_cycle(&mut m, 0, c, 10);
            feed_cycle(&mut m, 1, c, 40);
            if c < 3 {
                assert!(m.confirmed().is_none(), "hysteresis holds at cycle {c}");
            }
        }
        let r = m.confirmed().expect("confirmed");
        assert_eq!(r.rank, 1);
        assert_eq!(r.cycle, 3, "third consecutive degraded cycle confirms");
        assert_eq!(r.first_degraded_cycle, 1);
        assert!(r.comp_ratio > 3.0);
        assert!(r.severity_permille() > 3000);
    }

    #[test]
    fn transient_blip_resets_the_streak() {
        let mut m = DriftMonitor::new(0, vec![10.0], 2.0);
        // After the warmup cycle: two degraded, one healthy, two degraded,
        // never three in a row. The healthy cycle is fast enough to pull
        // the smoothed time (40 → 15.5 ms) back under the threshold.
        for (c, ms) in [(0, 40), (1, 40), (2, 40), (3, 5), (4, 40), (5, 40)] {
            feed_cycle(&mut m, 0, c, ms);
        }
        assert!(m.confirmed().is_none());
        feed_cycle(&mut m, 0, 6, 40);
        assert!(m.confirmed().is_some(), "a third in a row confirms");
    }

    #[test]
    fn warmup_and_cooldown_suppress_confirmation() {
        let mut m = DriftMonitor::new(0, vec![10.0], 2.0);
        // Three degraded cycles would confirm, but the first is warmup.
        for c in 0..3 {
            feed_cycle(&mut m, 0, c, 40);
        }
        assert!(m.confirmed().is_none(), "warmup cycles never count");
        m.set_cooldown_until(10);
        for c in 3..10 {
            feed_cycle(&mut m, 0, c, 40);
        }
        assert!(m.confirmed().is_none(), "cooldown suppresses");
        for c in 10..13 {
            feed_cycle(&mut m, 0, c, 40);
        }
        let r = m.confirmed().expect("re-arms after cooldown");
        assert_eq!(r.first_degraded_cycle, 10);
    }

    #[test]
    fn base_offset_shifts_the_coordinate_system() {
        // Resumed segment: engine-local cycle 0 is global cycle 6.
        let mut m = DriftMonitor::new(6, vec![10.0], 2.0);
        for c in 0..3 {
            feed_cycle(&mut m, 0, c, 40);
        }
        let r = m.confirmed().expect("confirmed");
        assert_eq!(r.cycle, 8);
        assert_eq!(r.first_degraded_cycle, 6, "global 6 is past the warmup");
    }

    #[test]
    fn comm_drift_confirms_too() {
        let mut m = DriftMonitor::new(0, vec![10.0], 2.0);
        for c in 0..4 {
            m.on_phase(0, c, Phase::Compute, t(0), t(10));
            m.on_phase(0, c, Phase::Recv, t(10), t(50)); // 40 ms vs 2 predicted
            m.on_cycle(0, c, t(50));
        }
        let r = m.confirmed().expect("confirmed");
        assert!(r.comm_ratio > 5.0);
        assert!(r.comp_ratio < 1.5);
    }

    #[test]
    fn comm_drift_without_marks_stays_rank_attributed() {
        let mut m = DriftMonitor::new(0, vec![10.0], 2.0);
        // Two healthy cycles, then a comm slowdown: the drift is the
        // waiting rank's, and its streak starts with the slowdown.
        for c in 0..2 {
            m.on_phase(0, c, Phase::Compute, t(0), t(10));
            m.on_phase(0, c, Phase::Recv, t(10), t(11));
            m.on_cycle(0, c, t(11));
        }
        for c in 2..5 {
            m.on_phase(0, c, Phase::Compute, t(0), t(10));
            m.on_phase(0, c, Phase::Recv, t(10), t(80));
            m.on_cycle(0, c, t(80));
        }
        let r = m.confirmed().expect("confirmed");
        assert_eq!(r.rank, 0);
        assert_eq!(r.first_degraded_cycle, 2, "the healthy prefix is no streak");
        assert!(r.comp_ratio < 1.5);
    }

    /// Regression pin (skew-allowance interaction): a slow *neighbour's
    /// compute* must never implicate the network. The slow rank itself
    /// confirms compute drift; the waiting rank's receive-wait stays
    /// inside the bulk-synchronous skew allowance and never confirms at
    /// all.
    #[test]
    fn marks_never_implicate_network_for_slow_compute() {
        let mut m = DriftMonitor::new(0, vec![10.0, 10.0], 2.0);
        for c in 0..6 {
            // Rank 1 computes 4× slow; rank 0 waits on it — a wait fully
            // explained by neighbour skew (11 ms < 10 + 2 + slack).
            m.on_phase(0, c, Phase::Compute, t(0), t(10));
            m.on_phase(0, c, Phase::Recv, t(10), t(21));
            m.on_cycle(0, c, t(21));
            m.on_phase(1, c, Phase::Compute, t(0), t(40));
            m.on_cycle(1, c, t(40));
        }
        let r = m.confirmed().expect("slow rank confirms");
        assert_eq!(r.rank, 1, "the slow computer is named, not the waiter");
        assert!(r.comp_ratio > 3.0);
    }

    #[test]
    fn bulk_sync_skew_is_not_comm_drift() {
        // A receive-wait fully explained by one neighbour compute phase
        // of skew (pred_comp 10 + pred_comm 2) must never confirm, no
        // matter how long it is sustained — it is the healthy signature
        // of an imbalanced bulk-synchronous step, not network drift.
        let mut m = DriftMonitor::new(0, vec![10.0], 2.0);
        for c in 0..20 {
            m.on_phase(0, c, Phase::Compute, t(0), t(10));
            m.on_phase(0, c, Phase::Recv, t(10), t(21)); // 11 ms < 12.25 allowance
            m.on_cycle(0, c, t(21));
        }
        assert!(m.confirmed().is_none());
    }

    /// The waiter confirms first, the slow computer is the source: peer
    /// differencing must name the outlier, not the symptom, and cancel a
    /// cluster-wide prediction bias instead of reading it as drift.
    #[test]
    fn attribution_names_the_compute_outlier_not_the_waiting_rank() {
        // Ranks 0-2 share cluster 0; rank 3 is alone in cluster 1. Every
        // cluster-0 rank runs 1.5x its (biased) prediction; rank 1 runs 6x.
        let mut m = DriftMonitor::new(0, vec![10.0; 4], 2.0);
        assert!(
            m.attribute(&[0, 0, 0, 1]).is_none(),
            "nothing confirmed yet"
        );
        for c in 0..4 {
            // Rank 0 waits 60 ms on its slow neighbour and trips first.
            m.on_phase(0, c, Phase::Compute, t(0), t(15));
            m.on_phase(0, c, Phase::Recv, t(15), t(75));
            m.on_cycle(0, c, t(75));
            feed_cycle(&mut m, 1, c, 60);
            feed_cycle(&mut m, 2, c, 15);
            feed_cycle(&mut m, 3, c, 10);
        }
        let confirmed = *m.confirmed().expect("confirmed");
        assert_eq!(confirmed.rank, 0, "the waiter is what the detector saw");
        let (source, comp_scale) = m.attribute(&[0, 0, 0, 1]).expect("attributed");
        assert_eq!(source.rank, 1, "the outlier is the source");
        assert_eq!(comp_scale, 4.0, "60 ms against the 15 ms peer median");
        assert!(
            (source.comp_ratio - 60.0 / 10.25).abs() < 1e-12,
            "raw ratio kept"
        );
        assert_eq!(
            source.comm_ratio, 0.0,
            "the source's own wait, not the waiter's"
        );
        assert_eq!(
            (source.cycle, source.first_degraded_cycle),
            (confirmed.cycle, confirmed.first_degraded_cycle)
        );

        // No outlier: a uniform bias is not a slowdown, so a comm-driven
        // confirmation stands as confirmed, with no compute scale.
        let mut m = DriftMonitor::new(0, vec![10.0; 2], 2.0);
        for c in 0..4 {
            for r in 0..2 {
                m.on_phase(r, c, Phase::Compute, t(0), t(15));
                m.on_phase(r, c, Phase::Recv, t(15), t(95));
                m.on_cycle(r, c, t(95));
            }
        }
        let confirmed = *m.confirmed().expect("confirmed");
        assert_eq!(m.attribute(&[0, 0]), Some((confirmed, 1.0)));
    }
}
