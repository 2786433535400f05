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
//! smoothed observed/predicted ratio to exceed `degrade_threshold` for
//! `hysteresis` consecutive cycles of the same rank, after a `warmup`
//! prefix is ignored entirely and outside any cooldown window an adaptive
//! policy may impose after declining to act. The communication test
//! additionally grants each rank one compute phase of bulk-synchronous
//! skew allowance before any receive-wait counts against the network —
//! a healthy but imbalanced step keeps fast ranks waiting on slow ones,
//! and that wait says nothing about the links.

use std::collections::HashMap;

use netpart_sim::SimTime;

use crate::engine::{Phase, Probe};
use crate::task::Rank;

/// Tuning knobs for a [`DriftMonitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Observed/predicted ratio above which a cycle counts as degraded
    /// (e.g. `1.75` = 75% slower than the plan predicted).
    pub degrade_threshold: f64,
    /// Consecutive degraded cycles required to confirm drift.
    pub hysteresis: u32,
    /// Cycles (global) ignored at the start of the run — startup effects
    /// (cold caches, distribution stragglers) are not drift.
    pub warmup: u64,
    /// EWMA smoothing factor in `(0, 1]`; 1.0 disables smoothing.
    pub alpha: f64,
    /// Absolute slack in milliseconds added to the predicted time before
    /// the ratio test, so sub-millisecond predictions don't produce
    /// spurious ratios.
    pub slack_ms: f64,
}

impl Default for DriftConfig {
    fn default() -> DriftConfig {
        DriftConfig {
            degrade_threshold: 1.75,
            hysteresis: 3,
            warmup: 1,
            // High enough that a step change (the typical gray failure)
            // converges within the hysteresis window — downstream
            // cost/benefit decisions read the smoothed ratio as the
            // magnitude, not just as a binary alarm — while still damping
            // single-cycle blips.
            alpha: 0.7,
            slack_ms: 0.25,
        }
    }
}

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
    /// The congested segment, when the confirmation is comm-driven and
    /// the message layer's congestion marks accumulated on one segment
    /// during the degraded streak. `None` attributes the drift to the
    /// rank itself — a slow processor, or a slow link that never marks.
    /// Compute degradation always wins: a rank whose own compute ratio
    /// is past threshold is reported as a rank problem even when marks
    /// are present, so a congested segment can never shadow a slow node.
    pub segment: Option<usize>,
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
    cfg: DriftConfig,
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
    /// Latest cumulative per-segment congestion-mark snapshot from the
    /// engine's cycle boundary (empty when the network never marks).
    marks_latest: Vec<(u16, u64)>,
    /// Per-rank snapshot of `marks_latest` taken when the rank's degraded
    /// streak began, so attribution counts only marks accumulated
    /// *during* the streak.
    marks_at_streak: Vec<Vec<(u16, u64)>>,
}

impl DriftMonitor {
    /// A monitor for `pred_comp_ms.len()` ranks with the given per-rank
    /// predicted compute times and shared predicted communication time
    /// (both per cycle, in milliseconds), starting at global cycle `base`.
    pub fn new(cfg: DriftConfig, base: u64, pred_comp_ms: Vec<f64>, pred_comm_ms: f64) -> Self {
        let n = pred_comp_ms.len();
        DriftMonitor {
            cfg,
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
            marks_latest: Vec::new(),
            marks_at_streak: vec![Vec::new(); n],
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

    /// The message layer's cumulative per-segment congestion-mark counts
    /// `(segment, marks)`, snapshotted at a cycle boundary after the
    /// cycle was folded in. Only marks accumulated during a degraded
    /// streak can name a segment.
    pub(crate) fn observe_marks(&mut self, marks: Vec<(u16, u64)>) {
        self.marks_latest = marks;
    }

    /// The smoothed observed/predicted compute ratio for `rank`, if any
    /// compute phase has been observed. `1.0` ≈ running as planned.
    pub fn comp_ratio(&self, rank: Rank) -> Option<f64> {
        let obs = self.ewma_comp[rank]?;
        Some(obs / (self.pred_comp_ms[rank] + self.cfg.slack_ms))
    }

    /// The smoothed observed/predicted receive-wait ratio for `rank`.
    pub fn comm_ratio(&self, rank: Rank) -> Option<f64> {
        let obs = self.ewma_comm[rank]?;
        Some(obs / (self.pred_comm_ms + self.cfg.slack_ms))
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
        Some(obs / (self.pred_comm_ms + self.pred_comp_ms[rank] + self.cfg.slack_ms))
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
    /// whose compute ratio stands `degrade_threshold ×` above its peers'
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
        let (rank, comp_scale) = if worst.1 > self.cfg.degrade_threshold && ratios[worst.0] > 1.0 {
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

    fn smooth(prev: Option<f64>, sample: f64, alpha: f64) -> f64 {
        match prev {
            None => sample,
            Some(p) => p + alpha * (sample - p),
        }
    }

    /// The segment that accumulated the most congestion marks since
    /// `baseline`, if any did. Ties break toward the lowest segment id,
    /// matching the message layer's own collapse attribution.
    fn marked_segment_since(&self, baseline: &[(u16, u64)]) -> Option<usize> {
        let base: HashMap<u16, u64> = baseline.iter().copied().collect();
        self.marks_latest
            .iter()
            .map(|&(seg, n)| (seg, n.saturating_sub(base.get(&seg).copied().unwrap_or(0))))
            .filter(|&(_, d)| d > 0)
            .max_by_key(|&(seg, d)| (d, std::cmp::Reverse(seg)))
            .map(|(seg, _)| seg as usize)
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
        self.ewma_comp[rank] = Some(Self::smooth(
            self.ewma_comp[rank],
            self.acc_comp[rank],
            self.cfg.alpha,
        ));
        self.ewma_comm[rank] = Some(Self::smooth(
            self.ewma_comm[rank],
            self.acc_comm[rank],
            self.cfg.alpha,
        ));
        self.acc_comp[rank] = 0.0;
        self.acc_comm[rank] = 0.0;
        if self.confirmed.is_some() {
            return;
        }
        let global = self.base + cycle;
        if global < self.cfg.warmup || global < self.cooldown_until {
            self.streak[rank] = 0;
            return;
        }
        let comp = self.comp_ratio(rank).unwrap_or(1.0);
        let comm = self.comm_wait_ratio(rank).unwrap_or(1.0);
        if comp > self.cfg.degrade_threshold || comm > self.cfg.degrade_threshold {
            if self.streak[rank] == 0 {
                self.streak_start[rank] = global;
                self.marks_at_streak[rank] = self.marks_latest.clone();
            }
            self.streak[rank] += 1;
            if self.streak[rank] >= self.cfg.hysteresis.max(1) {
                // Attribution: the rank's own slow compute always wins —
                // marks riding the wire say nothing about who is slow at
                // computing. Only a purely comm-driven confirmation may
                // name a segment, and only if marks actually accumulated
                // during the streak.
                let segment = if comp > self.cfg.degrade_threshold {
                    None
                } else {
                    self.marked_segment_since(&self.marks_at_streak[rank])
                };
                self.confirmed = Some(DriftReport {
                    rank,
                    cycle: global,
                    comp_ratio: comp,
                    // The report carries the recalibration-facing ratio
                    // (pure network inflation), not the detection one.
                    comm_ratio: self.comm_ratio(rank).unwrap_or(1.0),
                    first_degraded_cycle: self.streak_start[rank],
                    segment,
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
        let mut m = DriftMonitor::new(DriftConfig::default(), 0, vec![10.0, 10.0], 2.0);
        for c in 0..50 {
            feed_cycle(&mut m, 0, c, 10);
            feed_cycle(&mut m, 1, c, 11); // 10% off is not drift
        }
        assert!(m.confirmed().is_none());
    }

    #[test]
    fn sustained_slowdown_confirms_after_hysteresis() {
        let cfg = DriftConfig {
            hysteresis: 3,
            warmup: 0,
            alpha: 1.0,
            ..DriftConfig::default()
        };
        let mut m = DriftMonitor::new(cfg, 0, vec![10.0, 10.0], 2.0);
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
        let cfg = DriftConfig {
            hysteresis: 3,
            warmup: 0,
            alpha: 1.0,
            ..DriftConfig::default()
        };
        let mut m = DriftMonitor::new(cfg, 0, vec![10.0], 2.0);
        // Two degraded, one healthy, two degraded: never three in a row.
        for (c, ms) in [(0, 40), (1, 40), (2, 10), (3, 40), (4, 40)] {
            feed_cycle(&mut m, 0, c, ms);
        }
        assert!(m.confirmed().is_none());
    }

    #[test]
    fn warmup_and_cooldown_suppress_confirmation() {
        let cfg = DriftConfig {
            hysteresis: 2,
            warmup: 5,
            alpha: 1.0,
            ..DriftConfig::default()
        };
        let mut m = DriftMonitor::new(cfg, 0, vec![10.0], 2.0);
        for c in 0..5 {
            feed_cycle(&mut m, 0, c, 40);
        }
        assert!(m.confirmed().is_none(), "warmup cycles never count");
        m.set_cooldown_until(10);
        for c in 5..10 {
            feed_cycle(&mut m, 0, c, 40);
        }
        assert!(m.confirmed().is_none(), "cooldown suppresses");
        feed_cycle(&mut m, 0, 10, 40);
        feed_cycle(&mut m, 0, 11, 40);
        assert!(m.confirmed().is_some(), "re-arms after cooldown");
    }

    #[test]
    fn base_offset_shifts_the_coordinate_system() {
        let cfg = DriftConfig {
            hysteresis: 2,
            warmup: 0,
            alpha: 1.0,
            ..DriftConfig::default()
        };
        // Resumed segment: engine-local cycle 0 is global cycle 6.
        let mut m = DriftMonitor::new(cfg, 6, vec![10.0], 2.0);
        feed_cycle(&mut m, 0, 0, 40);
        feed_cycle(&mut m, 0, 1, 40);
        let r = m.confirmed().expect("confirmed");
        assert_eq!(r.cycle, 7);
        assert_eq!(r.first_degraded_cycle, 6);
    }

    #[test]
    fn comm_drift_confirms_too() {
        let cfg = DriftConfig {
            hysteresis: 2,
            warmup: 0,
            alpha: 1.0,
            ..DriftConfig::default()
        };
        let mut m = DriftMonitor::new(cfg, 0, vec![10.0], 2.0);
        for c in 0..3 {
            m.on_phase(0, c, Phase::Compute, t(0), t(10));
            m.on_phase(0, c, Phase::Recv, t(10), t(50)); // 40 ms vs 2 predicted
            m.on_cycle(0, c, t(50));
        }
        let r = m.confirmed().expect("confirmed");
        assert!(r.comm_ratio > 5.0);
        assert!(r.comp_ratio < 1.5);
    }

    #[test]
    fn comm_drift_with_marks_names_the_segment() {
        let cfg = DriftConfig {
            hysteresis: 2,
            warmup: 0,
            alpha: 1.0,
            ..DriftConfig::default()
        };
        let mut m = DriftMonitor::new(cfg, 0, vec![10.0], 2.0);
        // Marks accumulate on segment 2 (and, slower, on segment 0)
        // while the rank's receive-wait blows past even the skew
        // allowance. The engine feeds marks after each on_cycle.
        for c in 0..4 {
            m.on_phase(0, c, Phase::Compute, t(0), t(10));
            m.on_phase(0, c, Phase::Recv, t(10), t(80));
            m.on_cycle(0, c, t(80));
            m.observe_marks(vec![(0, 2 + c), (2, 50 * (c + 1))]);
        }
        let r = m.confirmed().expect("confirmed");
        assert_eq!(r.segment, Some(2), "most-marked segment is named");
        assert!(r.comp_ratio < 1.5);
    }

    #[test]
    fn comm_drift_without_marks_stays_rank_attributed() {
        let cfg = DriftConfig {
            hysteresis: 2,
            warmup: 0,
            alpha: 1.0,
            ..DriftConfig::default()
        };
        let mut m = DriftMonitor::new(cfg, 0, vec![10.0], 2.0);
        // Two healthy cycles during which segment 1 marked 7 frames, then
        // the marks freeze and a (mark-free) comm slowdown begins: the
        // stale marks predate the streak and cannot explain it.
        for c in 0..2 {
            m.on_phase(0, c, Phase::Compute, t(0), t(10));
            m.on_phase(0, c, Phase::Recv, t(10), t(11));
            m.on_cycle(0, c, t(11));
            m.observe_marks(vec![(1, 7)]);
        }
        for c in 2..5 {
            m.on_phase(0, c, Phase::Compute, t(0), t(10));
            m.on_phase(0, c, Phase::Recv, t(10), t(80));
            m.on_cycle(0, c, t(80));
            m.observe_marks(vec![(1, 7)]);
        }
        let r = m.confirmed().expect("confirmed");
        assert_eq!(r.rank, 0);
        assert_eq!(
            r.segment, None,
            "marks that stopped growing before the streak attribute nothing"
        );
    }

    /// Regression pin (congestion × skew-allowance interaction): a slow
    /// *neighbour's compute* must never implicate the network, even when
    /// congestion marks are present on the wire. The slow rank itself
    /// confirms compute drift with `segment: None`; the waiting rank's
    /// receive-wait stays inside the bulk-synchronous skew allowance and
    /// never confirms at all.
    #[test]
    fn marks_never_implicate_network_for_slow_compute() {
        let cfg = DriftConfig {
            hysteresis: 2,
            warmup: 0,
            alpha: 1.0,
            ..DriftConfig::default()
        };
        let mut m = DriftMonitor::new(cfg, 0, vec![10.0, 10.0], 2.0);
        for c in 0..6 {
            // Rank 1 computes 4× slow; rank 0 waits on it — a wait fully
            // explained by neighbour skew (11 ms < 10 + 2 + slack).
            m.on_phase(0, c, Phase::Compute, t(0), t(10));
            m.on_phase(0, c, Phase::Recv, t(10), t(21));
            m.on_cycle(0, c, t(21));
            m.on_phase(1, c, Phase::Compute, t(0), t(40));
            m.on_cycle(1, c, t(40));
            // Background congestion marks keep accumulating throughout.
            m.observe_marks(vec![(0, 100 * (c + 1))]);
        }
        let r = m.confirmed().expect("slow rank confirms");
        assert_eq!(r.rank, 1, "the slow computer is named, not the waiter");
        assert_eq!(
            r.segment, None,
            "marks on the wire must not shadow a slow node"
        );
        assert!(r.comp_ratio > 3.0);
    }

    #[test]
    fn bulk_sync_skew_is_not_comm_drift() {
        // A receive-wait fully explained by one neighbour compute phase
        // of skew (pred_comp 10 + pred_comm 2) must never confirm, no
        // matter how long it is sustained — it is the healthy signature
        // of an imbalanced bulk-synchronous step, not network drift.
        let cfg = DriftConfig {
            hysteresis: 2,
            warmup: 0,
            alpha: 1.0,
            ..DriftConfig::default()
        };
        let mut m = DriftMonitor::new(cfg, 0, vec![10.0], 2.0);
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
        let cfg = DriftConfig {
            hysteresis: 2,
            warmup: 0,
            alpha: 1.0,
            ..DriftConfig::default()
        };
        // Ranks 0-2 share cluster 0; rank 3 is alone in cluster 1. Every
        // cluster-0 rank runs 1.5x its (biased) prediction; rank 1 runs 6x.
        let mut m = DriftMonitor::new(cfg, 0, vec![10.0; 4], 2.0);
        assert!(
            m.attribute(&[0, 0, 0, 1]).is_none(),
            "nothing confirmed yet"
        );
        for c in 0..3 {
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
            (source.cycle, source.first_degraded_cycle, source.segment),
            (
                confirmed.cycle,
                confirmed.first_degraded_cycle,
                confirmed.segment
            )
        );

        // No outlier: a uniform bias is not a slowdown, so a comm-driven
        // confirmation stands as confirmed, with no compute scale.
        let mut m = DriftMonitor::new(cfg, 0, vec![10.0; 2], 2.0);
        for c in 0..3 {
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
