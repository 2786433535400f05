//! Congestion experiments: bounded queues, ECN marks, window backpressure,
//! and drift attribution to a *segment* rather than a rank.
//!
//! Three scenarios flood one cluster's segment with background cross
//! traffic on a congestion-enabled paper testbed ([`OverflowPolicy::Mark`]
//! queues plus the MMPS AIMD window):
//!
//! 1. **flood** — a sustained flood saturates cluster 0's segment until
//!    the end of the run. Plain `Replan` is blind to the gray degradation
//!    and limps; `Adapt` confirms drift, reads the accumulated congestion
//!    marks, attributes the confirmation to *segment 0* (not the waiting
//!    rank), recalibrates with the segment's cost inflated, and
//!    repartitions work off the congested cluster when the cost/benefit
//!    gate projects a win.
//! 2. **knee** — a gentler flow pushes the queue just past the knee
//!    mid-run: marks without collapse, the mildest congestion the model
//!    expresses.
//! 3. **transient** — the flood clears mid-run; whatever the monitor
//!    decided, the run must finish with the bit-identical answer.
//!
//! Every run is held to the chaos invariant: **bit-identical or typed
//! error**. A window collapse under sustained overload may surface as
//! [`NetpartError::SegmentSaturated`]; any other error fails the harness.
//!
//! The module also closes the calibration loop: a congested testbed whose
//! sweep crosses the knee fails the lack-of-fit R² gate, and
//! [`calibrate_cluster_gated`] falls back to the two-piece
//! [`CostModel::Piecewise`] — demonstrated by [`lack_of_fit_demo`]. The
//! transparency check pins the opt-in property: a congestion spec with
//! unreachable thresholds prices every run exactly like the plain paper
//! testbed.

use crate::drift::{adapt_policy, adapt_policy_json};
use crate::report::Json;
use crate::target::{replan_policy, Checked, Target, Verdict};
use netpart::{CheckpointPolicy, Fault, FaultSchedule, RecoveryPolicy};
use netpart_apps::StencilVariant;
use netpart_calibrate::{
    calibrate_cluster_gated, CalibratedCostModel, CalibrationConfig, CostModel, Testbed,
};
use netpart_mmps::WindowConfig;
use netpart_model::NetpartError;
use netpart_sim::{CongestionSpec, OverflowPolicy, SimDur};
use netpart_topology::Topology;

/// One congestion scenario: a flood window on cluster 0's segment, run
/// fault-free, under plain `Replan` (stays put), and under `Adapt`.
#[derive(Debug, Clone)]
pub struct CongestionRow {
    /// Scenario label (`flood`, `knee`, `transient`).
    pub scenario: &'static str,
    /// Application label.
    pub app: &'static str,
    /// Grid edge.
    pub n: u64,
    /// Iteration count.
    pub iters: u64,
    /// Ranks in the fault-free plan.
    pub ranks: usize,
    /// Fault-free simulated elapsed ms on the congestion-enabled testbed.
    pub fault_free_ms: f64,
    /// Flood window start, simulated ms.
    pub flood_from_ms: f64,
    /// Flood window end, simulated ms.
    pub flood_until_ms: f64,
    /// Microseconds between flood frames (lower = heavier).
    pub flood_period_us: u64,
    /// Outcome staying put (plain `Replan`, blind to gray congestion):
    /// finished and checked bit for bit, or the typed
    /// [`NetpartError::SegmentSaturated`] — the documented outcome when
    /// sustained overload collapses the send window.
    pub stay: Checked,
    /// Outcome under `Adapt`, with its drift accounting (zeroed when the
    /// run saturated): confirmations, those attributed to a congested
    /// segment rather than a rank, recalibrations, repartitions accepted
    /// and declined.
    pub adaptive: Checked,
}

/// Outcome of the lack-of-fit calibration demonstration.
#[derive(Debug, Clone)]
pub struct LackOfFitDemo {
    /// Cluster the gated calibration ran on.
    pub cluster: usize,
    /// The configured R² gate.
    pub gate: f64,
    /// R² of the rejected (or accepted) linear fit.
    pub linear_r_squared: f64,
    /// First processor count priced by the saturated piece, when the
    /// two-piece fallback fired.
    pub knee_p: Option<u32>,
    /// Whether the gated fit returned [`CostModel::Piecewise`].
    pub piecewise: bool,
}

/// Outcome of the opt-in transparency check: the same stencil on the
/// plain paper testbed and on a testbed whose congestion spec has
/// unreachable thresholds must price identically.
#[derive(Debug, Clone)]
pub struct TransparencyCheck {
    /// Elapsed ms on the plain paper testbed.
    pub baseline_ms: f64,
    /// Elapsed ms with the unreachable congestion spec installed.
    pub shadowed_ms: f64,
    /// Whether the two elapsed times are exactly equal and both answers
    /// are bit-identical to the sequential reference.
    pub identical: bool,
}

/// Everything a `congestion` invocation produced.
#[derive(Debug, Clone)]
pub struct CongestionReport {
    /// The flood, knee and transient scenarios.
    pub rows: Vec<CongestionRow>,
    /// The lack-of-fit calibration demonstration.
    pub lack_of_fit: LackOfFitDemo,
    /// The opt-in transparency check.
    pub transparency: TransparencyCheck,
}

impl CongestionReport {
    /// Every invariant the report breaks, one line each: a run that is
    /// neither bit-identical nor a typed error, a flood whose confirmed
    /// drift was never attributed to the segment, a lack-of-fit gate that
    /// stayed shut, or a congestion spec that was not transparent.
    pub fn violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for r in &self.rows {
            for (policy, outcome) in [("stay", &r.stay), ("adaptive", &r.adaptive)] {
                if outcome.verdict.is_violation() {
                    violations.push(format!(
                        "{}: {policy} run broke bit-identical-or-typed-error",
                        r.scenario
                    ));
                }
            }
            let rec = r.adaptive.rec();
            if r.scenario == "flood"
                && rec.drift_detections > 0
                && rec.congestion_confirmations == 0
            {
                violations.push(
                    "flood: drift confirmed but never attributed to the congested segment".into(),
                );
            }
        }
        let lof = &self.lack_of_fit;
        if !lof.piecewise {
            violations.push(format!(
                "lack-of-fit gate did not fire (linear R² {:.4} vs gate {:.3})",
                lof.linear_r_squared, lof.gate
            ));
        }
        if !self.transparency.identical {
            violations.push("unreachable congestion thresholds changed the run".into());
        }
        violations
    }
}

/// The paper testbed with the congestion model switched on: Mark-policy
/// bounded queues on every segment and the MMPS AIMD window.
///
/// Two knobs differ from the bare defaults, both to keep the *drift*
/// path observable rather than collapsing straight into the typed
/// error. `knee_queue: 2` marks early, at shallow queues where RTT
/// inflation is still mild — the drift monitor needs a few marked-but-
/// completing cycles to attribute slowness to a segment. And the window
/// floor is 2, not 1: the border exchange legitimately keeps one
/// message in flight while the next is offered, so a floor of 1 reads
/// ordinary bulk-synchronous stacking as collapse the moment the
/// window is squeezed. Saturation still surfaces — a flood the window
/// cannot throttle below two in-flight messages per pair is a real
/// oversubscription.
pub fn congested_testbed() -> Testbed {
    let mut t = Testbed::paper();
    t.segment.congestion = Some(CongestionSpec {
        knee_queue: 2,
        ..CongestionSpec::ethernet_default(OverflowPolicy::Mark)
    });
    t.mmps.congestion_window = Some(WindowConfig {
        floor: 2,
        ..WindowConfig::default()
    });
    t
}

/// Run `t` under `policy`. A finished run is checked bit for bit and a
/// [`NetpartError::SegmentSaturated`] is the accepted typed outcome; any
/// other typed error propagates as a harness error.
fn run_outcome(
    t: &Target,
    faults: &FaultSchedule,
    policy: RecoveryPolicy,
) -> Result<Checked, NetpartError> {
    let c = t.run(faults, policy, CheckpointPolicy::local(2));
    match c.verdict {
        Verdict::Typed(e) if !matches!(e, NetpartError::SegmentSaturated { .. }) => Err(e),
        _ => Ok(c),
    }
}

/// Run one congestion scenario. The flood window is expressed as
/// fractions of the fault-free elapsed time; `period_us` sets its
/// intensity (a 1400-byte frame occupies a 10 Mbit/s ethernet for
/// ~1.16 ms, so periods below that oversubscribe the channel).
#[allow(clippy::too_many_arguments)]
fn congestion_row(
    model: &CalibratedCostModel,
    n: usize,
    iters: u64,
    variant: StencilVariant,
    scenario: &'static str,
    from_frac: f64,
    until_frac: f64,
    period_us: u64,
) -> Result<CongestionRow, NetpartError> {
    let t = Target::sten(congested_testbed(), model, n, iters, variant)?;
    let flood_from_ms = t.fault_free_ms() * from_frac;
    let flood_until_ms = t.fault_free_ms() * until_frac;
    let faults = FaultSchedule::new().with(Fault::TrafficFlood {
        cluster: 0,
        from_ms: flood_from_ms,
        until_ms: flood_until_ms,
        bytes: 1400,
        period_us,
    });
    Ok(CongestionRow {
        scenario,
        app: t.label(),
        n: t.n(),
        iters,
        ranks: t.ranks(),
        fault_free_ms: t.fault_free_ms(),
        flood_from_ms,
        flood_until_ms,
        flood_period_us: period_us,
        stay: run_outcome(&t, &faults, replan_policy())?,
        adaptive: run_outcome(&t, &faults, adapt_policy(0.0))?,
    })
}

/// The congestion experiment at the given problem size: the sustained
/// flood, the mid-run knee crossing, and the congestion-then-clears
/// transient, then the lack-of-fit demonstration and the transparency
/// check.
pub fn congestion_report(
    model: &CalibratedCostModel,
    n: usize,
    iters: u64,
) -> Result<CongestionReport, NetpartError> {
    let rows = vec![
        // Sustained oversubscription from early in the run to past its end.
        congestion_row(
            model,
            n,
            iters,
            StencilVariant::Sten1,
            "flood",
            0.15,
            1.5,
            1500,
        )?,
        // Just past capacity mid-run: the queue hovers around the knee.
        congestion_row(
            model,
            n,
            iters,
            StencilVariant::Sten2,
            "knee",
            0.3,
            0.9,
            2500,
        )?,
        // The flood clears mid-run; the run must still finish exactly.
        congestion_row(
            model,
            n,
            iters,
            StencilVariant::Sten1,
            "transient",
            0.15,
            0.6,
            1500,
        )?,
    ];
    Ok(CongestionReport {
        rows,
        lack_of_fit: lack_of_fit_demo()?,
        transparency: transparency_check(model)?,
    })
}

/// Close the calibration loop on a congested testbed: shrink the knee and
/// raise the saturation penalty so the calibration sweep's larger rings
/// cross into the saturated regime, then run the gated fit. The linear
/// Eq. 1 shape cannot express the knee, its R² falls below the gate, and
/// the fit falls back to the two-piece model.
pub fn lack_of_fit_demo() -> Result<LackOfFitDemo, NetpartError> {
    let mut tb = congested_testbed();
    tb.segment.congestion = Some(CongestionSpec {
        queue_frames: 64,
        overflow: OverflowPolicy::Mark,
        knee_queue: 2,
        saturated_penalty: SimDur::from_millis(4),
    });
    // Offline calibration measures the channel, it does not need
    // backpressure — and sustained saturation would collapse the window
    // into the typed error before the sweep completes.
    tb.mmps.congestion_window = None;
    let gate = 0.97;
    let (model, lof) =
        calibrate_cluster_gated(&tb, 0, Topology::Ring, &CalibrationConfig::default(), gate)?;
    let piecewise = matches!(model, CostModel::Piecewise(_));
    Ok(match lof {
        Some(l) => LackOfFitDemo {
            cluster: 0,
            gate: l.gate,
            linear_r_squared: l.linear_r_squared,
            knee_p: Some(l.knee_p),
            piecewise,
        },
        None => LackOfFitDemo {
            cluster: 0,
            gate,
            linear_r_squared: match &model {
                CostModel::Linear(f) => f.r_squared,
                CostModel::Piecewise(_) => f64::NAN,
            },
            knee_p: None,
            piecewise,
        },
    })
}

/// The opt-in property, demonstrated end to end: a congestion spec whose
/// knee and queue bound can never be reached prices a full stencil run
/// exactly like the plain paper testbed — same elapsed time, same bits.
pub fn transparency_check(model: &CalibratedCostModel) -> Result<TransparencyCheck, NetpartError> {
    let run = |tb| Target::sten(tb, model, 120, 10, StencilVariant::Sten1);
    let base = run(Testbed::paper())?;
    let mut shadow = Testbed::paper();
    shadow.segment.congestion = Some(CongestionSpec {
        queue_frames: 1 << 20,
        overflow: OverflowPolicy::Mark,
        knee_queue: 1 << 20,
        saturated_penalty: SimDur::from_millis(100),
    });
    let shadowed = run(shadow)?;
    let (baseline_ms, shadowed_ms) = (base.fault_free_ms(), shadowed.fault_free_ms());
    Ok(TransparencyCheck {
        baseline_ms,
        shadowed_ms,
        identical: baseline_ms == shadowed_ms
            && base.fault_free().verdict.is_identical()
            && shadowed.fault_free().verdict.is_identical(),
    })
}

fn outcome_cell(o: &Checked) -> String {
    match &o.verdict {
        Verdict::Typed(NetpartError::SegmentSaturated { segment, .. }) => {
            format!("saturated(seg {segment})")
        }
        v => format!(
            "{:.1} ms ({})",
            o.elapsed_ms(),
            if v.is_identical() { "bit-id" } else { "WRONG" }
        ),
    }
}

/// Render the congestion report for the terminal: the scenario table,
/// then the lack-of-fit and transparency lines.
pub fn render_congestion(report: &CongestionReport) -> String {
    let mut out = String::new();
    out.push_str(
        "Congested-segment scenarios — cross traffic floods cluster 0's segment; \
         Adapt attributes drift to the segment via congestion marks:\n\n",
    );
    out.push_str(&format!(
        "{:<10} {:<8} {:>5} {:>12} {:>16} {:>8} {:>20} {:>20} {:>4} {:>4} {:>6} {:>8}\n",
        "scenario",
        "app",
        "n",
        "T_ff (ms)",
        "window (ms)",
        "per(µs)",
        "stay",
        "adaptive",
        "det",
        "seg",
        "repart",
        "declined"
    ));
    for r in &report.rows {
        let rec = r.adaptive.rec();
        out.push_str(&format!(
            "{:<10} {:<8} {:>5} {:>12.3} {:>16} {:>8} {:>20} {:>20} {:>4} {:>4} {:>6} {:>8}\n",
            r.scenario,
            r.app,
            r.n,
            r.fault_free_ms,
            format!("{:.0}..{:.0}", r.flood_from_ms, r.flood_until_ms),
            r.flood_period_us,
            outcome_cell(&r.stay),
            outcome_cell(&r.adaptive),
            rec.drift_detections,
            rec.congestion_confirmations,
            rec.repartitions,
            rec.repartitions_declined
        ));
    }
    let lof = &report.lack_of_fit;
    out.push_str(&format!(
        "\nlack-of-fit: cluster {} ring sweep, linear R² {:.4} vs gate {:.3} → {}\n",
        lof.cluster,
        lof.linear_r_squared,
        lof.gate,
        if lof.piecewise {
            format!("two-piece fallback (knee at p={})", lof.knee_p.unwrap_or(0))
        } else {
            "linear accepted".to_string()
        }
    ));
    let tr = &report.transparency;
    out.push_str(&format!(
        "transparency: plain {:.3} ms vs unreachable-congestion {:.3} ms → {}\n",
        tr.baseline_ms,
        tr.shadowed_ms,
        if tr.identical {
            "identical"
        } else {
            "DIVERGED"
        }
    ));
    out
}

fn outcome_json(o: &Checked) -> Json {
    match &o.verdict {
        Verdict::Typed(NetpartError::SegmentSaturated { segment, .. }) => Json::obj([
            ("finished", false.into()),
            ("typed_error", "SegmentSaturated".into()),
            ("segment", (*segment).into()),
        ]),
        v => Json::obj([
            ("finished", true.into()),
            ("elapsed_ms", Json::ms(o.elapsed_ms())),
            ("bit_identical", v.is_identical().into()),
        ]),
    }
}

/// The congestion report as `BENCH_congestion.json`.
pub fn congestion_json(report: &CongestionReport) -> String {
    let (lof, tr) = (&report.lack_of_fit, &report.transparency);
    Json::obj([
        (
            "description",
            "Congested-link experiments: background cross traffic floods cluster 0's \
             segment on a congestion-enabled paper testbed (Mark-policy bounded queues, MMPS \
             AIMD window). 'stay' runs under plain Replan and limps; 'adaptive' runs under \
             Adapt, whose drift monitor reads the accumulated congestion marks, attributes \
             the confirmation to the segment rather than the waiting rank, recalibrates \
             with the segment cost inflated, and repartitions when the gate projects a win. \
             Sustained overload may instead surface the typed SegmentSaturated error. \
             lack_of_fit shows the calibration-side closure: a sweep crossing the knee \
             fails the linear R-squared gate and falls back to the two-piece cost model. \
             transparency pins the opt-in property: unreachable congestion thresholds price \
             runs exactly like the plain testbed."
                .into(),
        ),
        ("policy", adapt_policy_json()),
        (
            "scenarios",
            Json::arr(&report.rows, |r| {
                let rec = r.adaptive.rec();
                Json::obj([
                    ("scenario", r.scenario.into()),
                    ("app", r.app.into()),
                    ("n", r.n.into()),
                    ("iters", r.iters.into()),
                    ("ranks", r.ranks.into()),
                    ("fault_free_ms", Json::ms(r.fault_free_ms)),
                    ("flood_from_ms", Json::ms(r.flood_from_ms)),
                    ("flood_until_ms", Json::ms(r.flood_until_ms)),
                    ("flood_period_us", r.flood_period_us.into()),
                    ("stay", outcome_json(&r.stay)),
                    ("adaptive", outcome_json(&r.adaptive)),
                    ("detections", rec.drift_detections.into()),
                    (
                        "congestion_confirmations",
                        rec.congestion_confirmations.into(),
                    ),
                    ("recalibrations", rec.recalibrations.into()),
                    ("repartitions", rec.repartitions.into()),
                    ("declined", rec.repartitions_declined.into()),
                ])
            }),
        ),
        (
            "lack_of_fit",
            Json::obj([
                ("cluster", lof.cluster.into()),
                ("gate", Json::fixed(lof.gate, 3)),
                ("linear_r_squared", Json::fixed(lof.linear_r_squared, 4)),
                ("knee_p", lof.knee_p.into()),
                ("piecewise", lof.piecewise.into()),
            ]),
        ),
        (
            "transparency",
            Json::obj([
                ("baseline_ms", Json::fixed(tr.baseline_ms, 6)),
                ("shadowed_ms", Json::fixed(tr.shadowed_ms, 6)),
                ("identical", tr.identical.into()),
            ]),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scheduler work items and marked deliveries of the congested-path
    /// drain: seven stations keep a fixed window of frames outstanding toward
    /// one receiver on a Mark-policy bounded queue, so the queue sits past
    /// the knee and every frame pays the congestion bookkeeping. Both counts
    /// are constants of the codebase.
    ///
    /// # Panics
    /// If the segment fails to deliver every frame — the bounded Mark queue
    /// must never drop under this window.
    fn run_congested_drain(sends: u64) -> (u64, u64) {
        use bytes::Bytes;
        use netpart_sim::{NetworkBuilder, ProcType, SegmentSpec, SimEvent};

        let mut nb = NetworkBuilder::new(1);
        let pt = nb.add_proc_type(ProcType::sparcstation_2());
        let mut spec = SegmentSpec::ethernet_10mbps();
        spec.congestion = Some(CongestionSpec::ethernet_default(OverflowPolicy::Mark));
        let seg = nb.add_segment(spec);
        let nodes: Vec<_> = (0..8).map(|_| nb.add_node(pt, seg)).collect();
        let mut net = nb.build().expect("valid topology");
        // Keep 28 frames outstanding: past the knee (8) so frames are marked,
        // under the hard bound (64) so none are tail-dropped.
        let window = 28u64.min(sends);
        let mut sent = 0u64;
        while sent < window {
            let s = (sent % 7) as usize;
            net.send_datagram(nodes[s], nodes[7], sent, Bytes::from_static(b"x"))
                .expect("send accepted");
            sent += 1;
        }
        let mut delivered = 0u64;
        let mut marked = 0u64;
        while let Some(evt) = net.next_event() {
            if let SimEvent::DatagramDelivered { dgram, .. } = evt {
                delivered += 1;
                if dgram.marked_by.is_some() {
                    marked += 1;
                }
                if sent < sends {
                    let s = (sent % 7) as usize;
                    net.send_datagram(nodes[s], nodes[7], sent, Bytes::from_static(b"x"))
                        .expect("send accepted");
                    sent += 1;
                }
            }
        }
        assert_eq!(delivered, sends, "bounded Mark queue must deliver all");
        (net.events_processed(), marked)
    }

    #[test]
    fn transparency_is_exact() {
        let model = crate::experiments::paper_calibration().expect("calibration");
        let t = transparency_check(&model).expect("transparency run");
        assert!(
            t.identical,
            "unreachable congestion thresholds must be byte-transparent: \
             baseline {} vs shadowed {}",
            t.baseline_ms, t.shadowed_ms
        );
    }

    #[test]
    fn congested_drain_is_deterministic() {
        let (events, marked) = run_congested_drain(500);
        assert_eq!(
            (events, marked),
            run_congested_drain(500),
            "event and mark counts must be deterministic"
        );
        assert!(marked > 0, "the drain must actually cross the knee");
    }

    #[test]
    fn lack_of_fit_gate_fires_on_a_congested_sweep() {
        let d = lack_of_fit_demo().expect("gated calibration");
        assert!(
            d.piecewise,
            "the congested sweep must reject the linear fit (R²={} vs gate {})",
            d.linear_r_squared, d.gate
        );
        assert!(d.linear_r_squared < d.gate);
        assert!(d.knee_p.is_some());
    }
}
