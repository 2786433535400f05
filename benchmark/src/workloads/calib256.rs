//! `calib256` — cold calibration of a 256-node router tree.
//!
//! One repetition is `calibrate_testbed(synthetic(16, 16, 1.15) on a
//! tree of arity 4, [1-D], default config)`: 1440 intra-cluster grid
//! points plus the router fits, each a full simulation of the synthetic
//! `CommBench` application, which does no arithmetic. `sim` + `mmps` +
//! `spmd` therefore do all the work — an event-core or MMPS-table gain
//! must show here in full — and the grid fans out over the sweep engine's
//! default thread count, so this is also where its multi-core behaviour
//! is observed.

use std::time::{Duration, Instant};

use netpart::calibrate::{
    calibrate_testbed, calibrate_testbed_cached, CalibratedCostModel, CalibrationConfig, Testbed,
    Wiring,
};
use netpart::topology::Topology;

use crate::harness::{ClosedLoop, Layers, TracedReps};
use crate::trace::Tracer;

/// The sweep engine's environment override (the engine is not part of the
/// `netpart::` facade, so the variable is the only handle on it).
const SWEEP_THREADS_VAR: &str = "NETPART_SWEEP_THREADS";

/// Worker count the sweep engine uses right now: its environment override
/// if set, else the machine's parallelism — the same rule the engine
/// applies.
pub fn sweep_threads() -> usize {
    std::env::var(SWEEP_THREADS_VAR)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Simulations one default-config `calibrate_testbed` makes, computed from
/// its documented grid rather than observed: per cluster and topology,
/// `p ∈ 2..=nodes` × the message sizes; per distinct router-hop distance,
/// a cross pair and an intra pair per message size. (Coercion fits add
/// more only between clusters of different data formats; the testbeds
/// here have none.)
pub fn grid_points(testbed: &Testbed, topologies: usize) -> u64 {
    let sizes = CalibrationConfig::default().b_values.len() as u64;
    let intra: u64 = testbed
        .clusters
        .iter()
        .map(|c| u64::from(c.nodes.saturating_sub(1)) * sizes * topologies as u64)
        .sum();
    let distances = testbed.cluster_hops().map_or(0, |hops| {
        let mut d: Vec<u32> = hops
            .iter()
            .enumerate()
            .flat_map(|(a, row)| row.iter().skip(a + 1).copied())
            .collect();
        d.sort_unstable();
        d.dedup();
        d.len() as u64
    });
    intra + distances * 2 * sizes
}

/// Whether two fitted models are the same, constant for constant.
pub fn same_model(a: &CalibratedCostModel, b: &CalibratedCostModel) -> bool {
    a.intra == b.intra && a.piecewise == b.piecewise && a.router == b.router && a.coerce == b.coerce
}

/// State of the workload between repetitions.
pub struct Calib256 {
    testbed: Testbed,
    cfg: CalibrationConfig,
    /// The first repetition's model; every later one must equal it.
    expected: Option<CalibratedCostModel>,
}

impl ClosedLoop for Calib256 {
    type Output = CalibratedCostModel;

    fn setup(seed: u64, _nth: usize) -> Result<Calib256, String> {
        let mut testbed = Testbed::synthetic(16, 16, 1.15).with_wiring(Wiring::Tree { arity: 4 });
        // Lossless network: the seed is never drawn from (see paper12).
        testbed.seed = seed;
        Ok(Calib256 {
            testbed,
            cfg: CalibrationConfig::default(),
            expected: None,
        })
    }

    fn repetition(&mut self, t: &mut Tracer) -> Result<CalibratedCostModel, String> {
        t.span("calibrate.cold", |_| {
            calibrate_testbed(&self.testbed, &[Topology::OneD], &self.cfg)
        })
        .map_err(|e| format!("calibrate: {e}"))
    }

    fn check(&mut self, model: CalibratedCostModel) -> Vec<String> {
        let mut failures = Vec::new();
        let k = self.testbed.num_clusters();
        if model.intra.len() != k || model.router.len() != k * (k - 1) / 2 {
            failures.push(format!(
                "model covers {} clusters and {} pairs, expected {k} and {}",
                model.intra.len(),
                model.router.len(),
                k * (k - 1) / 2
            ));
        }
        match &self.expected {
            None => self.expected = Some(model),
            Some(first) if !same_model(first, &model) => {
                failures.push("fitted constants differ from the first repetition".into());
            }
            Some(_) => {}
        }
        failures
    }

    fn probes(&mut self, t: &mut Tracer, budget: Duration, layers: &mut Layers) -> Vec<String> {
        let mut failures = Vec::new();
        // The cached path: one miss (persisted to the run's private cache
        // directory), then memo hits.
        let cached = || calibrate_testbed_cached(&self.testbed, &[Topology::OneD], &self.cfg);
        match cached() {
            Err(e) => failures.push(format!("cached calibration: {e}")),
            Ok(first) => {
                let mut hits = Vec::new();
                for _ in 0..32 {
                    let t0 = Instant::now();
                    let hit = t.span("calibrate.cache_hit", |_| cached());
                    hits.push(t0.elapsed().as_secs_f64() * 1e6);
                    if !hit.is_ok_and(|m| same_model(&m, &first)) {
                        failures.push("cache hit differs from the calibration it cached".into());
                        break;
                    }
                }
                layers.set("calibrate.cache_hit_us", crate::stats::median(&hits));
            }
        }
        // Sweep speed-up: the same cold calibration on one worker against
        // the default count, alternating, for as long as the budget lasts.
        // No other thread of this process is alive here, so changing the
        // environment is safe.
        let deadline = Instant::now() + budget;
        let (mut one, mut many) = (Vec::new(), Vec::new());
        loop {
            std::env::set_var(SWEEP_THREADS_VAR, "1");
            let t0 = Instant::now();
            let a = t.span("calibrate.cold_1thread", |_| {
                calibrate_testbed(&self.testbed, &[Topology::OneD], &self.cfg)
            });
            one.push(t0.elapsed().as_secs_f64());
            std::env::remove_var(SWEEP_THREADS_VAR);
            let t0 = Instant::now();
            let b = t.span("calibrate.cold", |_| {
                calibrate_testbed(&self.testbed, &[Topology::OneD], &self.cfg)
            });
            many.push(t0.elapsed().as_secs_f64());
            match (a, b, &self.expected) {
                (Ok(a), Ok(b), Some(first)) if same_model(&a, first) && same_model(&b, first) => {}
                _ => failures.push("model depends on the sweep thread count".into()),
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        layers.set(
            "sweep.speedup",
            crate::stats::median(&one) / crate::stats::median(&many),
        );
        failures
    }

    fn layers(&self, reps: &TracedReps, layers: &mut Layers) {
        layers.set("calibrate.cold_ms", reps.total_ms("calibrate.cold"));
        layers.set(
            "calibrate.grid_points",
            grid_points(&self.testbed, 1) as f64,
        );
        layers.set("calibrate.threads", sweep_threads() as f64);
        if let Some(model) = &self.expected {
            layers.set(
                "calibrate.r2_min",
                model
                    .intra
                    .values()
                    .map(|f| f.r_squared)
                    .fold(f64::INFINITY, f64::min),
            );
        }
    }
}
