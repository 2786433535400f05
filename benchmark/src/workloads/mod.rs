//! The seven workloads, and the plan-and-run cell two of them share.

pub mod calib256;
pub mod fabric;
pub mod flood;
pub mod paper12;
pub mod plan_scale;
pub mod recover;
pub mod serve_open;

use std::time::Instant;

use netpart::apps::stencil::{StencilApp, StencilVariant};
use netpart::mmps::MmpsStats;
use netpart::sim::{Network, RouterId, SegmentId};
use netpart::spmd::{Executor, NoProbe};
use netpart::{Plan, Scenario};

use crate::harness::{Layers, TracedReps};
use crate::timed_app::{AppLog, TimedApp};
use crate::trace::Tracer;

/// Counters read off a run's network after it finished — only available
/// when the benchmark built the network itself (traced repetitions).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetFacts {
    /// `Network::events_processed`.
    pub events: u64,
    /// Frames transmitted, summed over segments.
    pub segment_frames: u64,
    /// Utilization of the busiest segment.
    pub segment_util_max: f64,
    /// Frames forwarded, summed over routers.
    pub router_frames: u64,
    /// Frames dropped at router buffers.
    pub router_drops: u64,
    /// `Network::datagrams_dropped`.
    pub datagrams_dropped: u64,
}

impl NetFacts {
    /// Read the counters of `net`, which has `routers` routers.
    pub fn read(net: &Network, routers: usize) -> NetFacts {
        let mut f = NetFacts {
            events: net.events_processed(),
            datagrams_dropped: net.datagrams_dropped(),
            ..NetFacts::default()
        };
        for s in 0..net.num_segments() {
            let st = net.segment_stats(SegmentId(s as u16));
            f.segment_frames += st.frames_sent;
            f.segment_util_max = f.segment_util_max.max(st.utilization);
        }
        for r in 0..routers {
            let st = net.router_stats(RouterId(r as u16));
            f.router_frames += st.frames_forwarded;
            f.router_drops += st.frames_dropped;
        }
        f
    }

    /// Add another run's counters (utilization keeps the maximum).
    pub fn add(&mut self, o: &NetFacts) {
        self.events += o.events;
        self.segment_frames += o.segment_frames;
        self.segment_util_max = self.segment_util_max.max(o.segment_util_max);
        self.router_frames += o.router_frames;
        self.router_drops += o.router_drops;
        self.datagrams_dropped += o.datagrams_dropped;
    }
}

/// Everything one stencil cell (plan + run) produced.
pub struct StencilCell {
    /// The application after the run; `gather()` is the computed answer.
    pub app: StencilApp,
    /// The plan that was run.
    pub plan: Plan,
    /// Simulated ms of the iterative part.
    pub sim_elapsed_ms: f64,
    /// Simulated ms all ranks spent computing.
    pub compute_sim_ms: f64,
    /// Simulated ms all ranks spent blocked in receives.
    pub recv_wait_sim_ms: f64,
    /// Rank-cycles completed.
    pub cycles: u64,
    /// Message-layer counters of the run.
    pub mmps: MmpsStats,
    /// Host ns of plan + run.
    pub host_ns: u64,
    /// Network counters (traced repetitions only).
    pub net: Option<NetFacts>,
}

/// Plan `scenario` and run an `n`×`n` stencil for `iters` iterations on the
/// plan. Untraced, this is exactly the facade's `Scenario::plan` +
/// `Plan::run`. Traced, the same steps are made one by one —
/// `Scenario::plan`, `Testbed::try_build`, `Executor::run_probed` around a
/// [`TimedApp`] — so each gets a span; `routers` is the fabric's router
/// count, needed to read their counters afterwards.
pub fn stencil_cell(
    scenario: &Scenario,
    n: usize,
    iters: u64,
    variant: StencilVariant,
    routers: usize,
    t: &mut Tracer,
) -> Result<StencilCell, String> {
    let start = Instant::now();
    let (app, plan, report, net) = if t.enabled() {
        let plan = t
            .span("pipeline.plan", |_| scenario.plan())
            .map_err(|e| format!("plan: {e}"))?;
        let (mmps, nodes) = t
            .span("sim.build", |_| {
                scenario.testbed.try_build(&plan.config, scenario.placement)
            })
            .map_err(|e| format!("build: {e}"))?;
        let mut exec = Executor::new(mmps, nodes);
        let log = AppLog::new();
        let mut app = TimedApp::new(StencilApp::new(n, iters, variant, plan.ranks()), &log);
        let run_span = t.next_id();
        let report = t
            .span("spmd.run", |_| {
                exec.run_probed(&mut app, &plan.vector, scenario.distribute, &mut NoProbe)
            })
            .map_err(|e| format!("run: {e}"))?;
        log.adopt_into(t, run_span);
        let net = NetFacts::read(exec.mmps().net_ref(), routers);
        (app.inner, plan, report, Some(net))
    } else {
        let plan = scenario.plan().map_err(|e| format!("plan: {e}"))?;
        let mut app = StencilApp::new(n, iters, variant, plan.ranks());
        let run = plan.run(&mut app).map_err(|e| format!("run: {e}"))?;
        (app, plan, run.report, None)
    };
    let host_ns = start.elapsed().as_nanos() as u64;
    // Both ways reduce the engine's report the same way, so the sums are
    // bit-identical whichever way a repetition went.
    let sum_ms = |d: &[netpart::sim::SimDur]| d.iter().map(|x| x.as_millis_f64()).sum::<f64>();
    Ok(StencilCell {
        app,
        sim_elapsed_ms: report.elapsed.as_millis_f64(),
        compute_sim_ms: sum_ms(&report.compute_time),
        recv_wait_sim_ms: sum_ms(&report.wait_time),
        cycles: (report.per_cycle.len() * report.rank_finish.len()) as u64,
        mmps: report.mmps,
        host_ns,
        net,
        plan,
    })
}

/// The facts of a cell that must repeat exactly, repetition after
/// repetition and traced or not: the simulator is deterministic, so any
/// difference is a bug (or a benchmark that is not measuring what it says).
#[derive(Debug, Clone, PartialEq)]
pub struct CellFacts {
    /// Processors per cluster the plan chose.
    pub config: Vec<u32>,
    /// Bits of the predicted `T_c`.
    pub predicted_bits: Option<u64>,
    /// Bits of the simulated elapsed ms.
    pub sim_elapsed_bits: u64,
    /// Messages the message layer sent.
    pub messages: u64,
    /// Retransmissions.
    pub retransmissions: u64,
}

impl CellFacts {
    /// Extract from a finished cell.
    pub fn of(cell: &StencilCell) -> CellFacts {
        CellFacts {
            config: cell.plan.config.clone(),
            predicted_bits: cell.plan.predicted_tc_ms.map(f64::to_bits),
            sim_elapsed_bits: cell.sim_elapsed_ms.to_bits(),
            messages: cell.mmps.messages_sent,
            retransmissions: cell.mmps.retransmissions,
        }
    }
}

/// Sum of the message-layer counters the per-layer table reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct MmpsTotals {
    /// Messages sent.
    pub messages: u64,
    /// Retransmissions.
    pub retransmissions: u64,
    /// Messages that exhausted their retries.
    pub failed: u64,
    /// Congestion-window halvings.
    pub window_halvings: u64,
}

impl MmpsTotals {
    /// Add one run's counters.
    pub fn add(&mut self, s: &MmpsStats) {
        self.messages += s.messages_sent;
        self.retransmissions += s.retransmissions;
        self.failed += s.messages_failed;
        self.window_halvings += s.window_halvings;
    }

    /// Retransmissions per message sent.
    pub fn retx_ratio(&self) -> f64 {
        self.retransmissions as f64 / self.messages.max(1) as f64
    }

    /// Write the `mmps.*` counters into `layers`.
    pub fn report(&self, layers: &mut Layers) {
        layers.set("mmps.messages", self.messages as f64);
        layers.set("mmps.retransmissions", self.retransmissions as f64);
        layers.set("mmps.retx_ratio", self.retx_ratio());
        layers.set("mmps.messages_failed", self.failed as f64);
        layers.set("mmps.window_halvings", self.window_halvings as f64);
    }
}

/// What a full-stack workload keeps of its latest repetition for the
/// per-layer metrics.
#[derive(Default)]
pub struct StackFacts {
    /// Simulated ms of each cell.
    pub sim_elapsed_ms: Vec<f64>,
    /// |predicted `T_c` − simulated ms per cycle| ÷ simulated, mean over cells.
    pub tc_rel_err: f64,
    compute_sim_ms: f64,
    recv_wait_sim_ms: f64,
    cycles: u64,
    mmps: MmpsTotals,
    net: Option<NetFacts>,
}

impl StackFacts {
    /// Replace the facts with those of `cells`, each run for `iters`
    /// iterations. Returns a failure line when the network counters of two
    /// traced repetitions differ.
    pub fn update(&mut self, cells: &[StencilCell], iters: u64) -> Option<String> {
        self.sim_elapsed_ms = cells.iter().map(|c| c.sim_elapsed_ms).collect();
        self.tc_rel_err = cells
            .iter()
            .map(|c| {
                let simulated = c.sim_elapsed_ms / iters as f64;
                c.plan
                    .predicted_tc_ms
                    .map_or(f64::NAN, |p| (p - simulated).abs() / simulated)
            })
            .sum::<f64>()
            / cells.len().max(1) as f64;
        self.compute_sim_ms = cells.iter().map(|c| c.compute_sim_ms).sum();
        self.recv_wait_sim_ms = cells.iter().map(|c| c.recv_wait_sim_ms).sum();
        self.cycles = cells.iter().map(|c| c.cycles).sum();
        self.mmps = MmpsTotals::default();
        for c in cells {
            self.mmps.add(&c.mmps);
        }
        if !cells.iter().all(|c| c.net.is_some()) {
            return None;
        }
        let mut net = NetFacts::default();
        for n in cells.iter().filter_map(|c| c.net.as_ref()) {
            net.add(n);
        }
        let differs = self.net.is_some_and(|prev| prev != net);
        self.net = Some(net);
        differs.then(|| "network counters differ between traced repetitions".to_string())
    }

    /// Write the `sim.*`, `mmps.*`, `spmd.*`, `apps.*` metrics and
    /// `core.tc_rel_err`; `host_ms` is the host time the simulated time is
    /// set against.
    pub fn report(&self, reps: &TracedReps, host_ms: f64, layers: &mut Layers) {
        report_apps(reps, layers);
        layers.set("spmd.run_ms", reps.total_ms("spmd.run"));
        layers.set("spmd.stack_self_ms", reps.self_ms("spmd.run"));
        layers.set("sim.build_us", reps.mean_us("sim.build"));
        self.mmps.report(layers);
        if let Some(net) = &self.net {
            report_net(net, layers);
            let stack_ns = reps.self_ms("spmd.run") * 1e6;
            layers.set("sim.ns_per_event", stack_ns / net.events.max(1) as f64);
        }
        let sim_ms: f64 = self.sim_elapsed_ms.iter().sum();
        layers.set("sim.elapsed_ms", sim_ms);
        layers.set(
            "sim.host_s_per_sim_s",
            host_ms / sim_ms.max(f64::MIN_POSITIVE),
        );
        layers.set("spmd.cycles", self.cycles as f64);
        layers.set("spmd.recv_wait_sim_ms", self.recv_wait_sim_ms);
        layers.set("spmd.compute_sim_ms", self.compute_sim_ms);
        layers.set("core.tc_rel_err", self.tc_rel_err);
    }
}

/// Write the `apps.*` host-time metrics from the `TimedApp` leaves of the
/// traced repetitions.
pub fn report_apps(reps: &TracedReps, layers: &mut Layers) {
    layers.set("apps.compute_ms", reps.total_ms("apps.compute"));
    layers.set(
        "apps.msg_ms",
        reps.total_ms("apps.produce")
            + reps.total_ms("apps.consume")
            + reps.total_ms("apps.script"),
    );
    layers.set("apps.setup_ms", reps.total_ms("apps.setup"));
    layers.set("apps.checkpoint_ms", reps.total_ms("apps.checkpoint"));
    layers.set("apps.share", reps.share("apps."));
}

/// Write the `sim.*` counters of one repetition into `layers`.
pub fn report_net(net: &NetFacts, layers: &mut Layers) {
    layers.set("sim.events", net.events as f64);
    layers.set("sim.segment_frames", net.segment_frames as f64);
    layers.set("sim.segment_util_max", net.segment_util_max);
    layers.set("sim.router_frames", net.router_frames as f64);
    layers.set("sim.router_drops", net.router_drops as f64);
    layers.set("sim.datagrams_dropped", net.datagrams_dropped as f64);
}
