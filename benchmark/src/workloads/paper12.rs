//! `paper12` — the paper's own experiment.
//!
//! Testbed: 6 SPARCstation 2s + 6 Sun4 IPCs on two ethernet segments
//! joined by one router. One repetition is what a user of the method does
//! end to end: calibrate the testbed cold (all four topologies the paper's
//! applications use), then for {STEN-1, STEN-2} × N ∈ {300, 600, 1200}
//! plan under the calibrated model (warm cache) and run 50 iterations.
//!
//! The event population is sparse (a dozen ranks, a few frames in flight)
//! and the real stencil arithmetic is over 0.9 of host time, so this is
//! the workload an `apps` or engine change moves and a `sim`/`mmps` change
//! must not.

use std::time::{Duration, Instant};

use netpart::apps::stencil::{sequential_reference, stencil_model, StencilApp, StencilVariant};
use netpart::calibrate::{calibrate_testbed, CalibrationConfig, Testbed};
use netpart::model::PartitionVector;
use netpart::topology::Topology;
use netpart::{CostSource, Scenario};

use super::{stencil_cell, CellFacts, StackFacts, StencilCell};
use crate::harness::{ClosedLoop, Layers, TracedReps};
use crate::trace::Tracer;

/// Grid sizes, from the paper's Table 1/2 (N=60 left out: it runs in
/// microseconds and would only add noise).
pub const SIZES: [usize; 3] = [300, 600, 1200];
/// Iterations per run: five times the paper's 10, so a cell is long enough
/// to time.
pub const ITERS: u64 = 50;
/// The four topologies the paper's applications exercise.
pub const TOPOLOGIES: [Topology; 4] = [
    Topology::OneD,
    Topology::Ring,
    Topology::Tree,
    Topology::Broadcast,
];
/// Table 2's seven measured (Sparc2, IPC) configurations.
pub const TABLE2_CONFIGS: [[u32; 2]; 7] = [[1, 0], [2, 0], [4, 0], [6, 0], [6, 2], [6, 4], [6, 6]];
/// Iterations of the pinned runs behind `core.heuristic_gap` (the paper's
/// own count).
const GAP_ITERS: u64 = 10;

struct Cell {
    scenario: Scenario,
    n: usize,
    variant: StencilVariant,
    /// Index into `references`.
    size: usize,
}

/// State of the workload between repetitions.
pub struct Paper12 {
    testbed: Testbed,
    cells: Vec<Cell>,
    /// `sequential_reference(n, ITERS)` per size.
    references: Vec<Vec<f32>>,
    /// Facts of the first repetition; every later one must match.
    expected: Option<Vec<CellFacts>>,
    /// Facts of the latest repetition, for the layer metrics.
    stack: StackFacts,
    cold_ms: Vec<f64>,
    r2_min: f64,
}

/// What a repetition produced.
pub struct Output {
    cells: Vec<StencilCell>,
    cold_ms: f64,
    r2_min: f64,
}

impl ClosedLoop for Paper12 {
    type Output = Output;

    fn setup(seed: u64, nth: usize) -> Result<Paper12, String> {
        // The paper's network is lossless, so the simulator never draws
        // from its seed; deriving it from --seed (and the set-up count)
        // keeps every set-up's calibration a cache miss without changing
        // any simulated result.
        let mut testbed = Testbed::paper();
        testbed.seed = seed.wrapping_add((nth as u64) << 32);
        let mut cells = Vec::new();
        for variant in [StencilVariant::Sten1, StencilVariant::Sten2] {
            for (size, &n) in SIZES.iter().enumerate() {
                cells.push(Cell {
                    scenario: Scenario::new(testbed.clone(), stencil_model(n as u64, variant)),
                    n,
                    variant,
                    size,
                });
            }
        }
        Ok(Paper12 {
            testbed,
            cells,
            references: SIZES
                .iter()
                .map(|&n| sequential_reference(n, ITERS))
                .collect(),
            expected: None,
            stack: StackFacts::default(),
            cold_ms: Vec::new(),
            r2_min: 0.0,
        })
    }

    fn repetition(&mut self, t: &mut Tracer) -> Result<Output, String> {
        let cfg = CalibrationConfig::default();
        let t0 = Instant::now();
        let model = t
            .span("calibrate.cold", |_| {
                calibrate_testbed(&self.testbed, &TOPOLOGIES, &cfg)
            })
            .map_err(|e| format!("calibrate: {e}"))?;
        let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
        let r2_min = model
            .intra
            .values()
            .map(|f| f.r_squared)
            .fold(f64::INFINITY, f64::min);
        let mut cells = Vec::with_capacity(self.cells.len());
        for c in &self.cells {
            cells.push(stencil_cell(&c.scenario, c.n, ITERS, c.variant, 1, t)?);
        }
        Ok(Output {
            cells,
            cold_ms,
            r2_min,
        })
    }

    fn check(&mut self, out: Output) -> Vec<String> {
        let mut failures = Vec::new();
        let facts: Vec<CellFacts> = out.cells.iter().map(CellFacts::of).collect();
        for (cell, done) in self.cells.iter().zip(&out.cells) {
            if done.app.gather() != self.references[cell.size] {
                failures.push(format!(
                    "{:?} N={}: answer differs from sequential_reference",
                    cell.variant, cell.n
                ));
            }
        }
        match &self.expected {
            None => self.expected = Some(facts),
            Some(first) if *first != facts => {
                failures.push("simulated facts differ from the first repetition".into());
            }
            Some(_) => {}
        }
        failures.extend(self.stack.update(&out.cells, ITERS));
        self.cold_ms.push(out.cold_ms);
        self.r2_min = out.r2_min;
        failures
    }

    fn probes(&mut self, t: &mut Tracer, _budget: Duration, layers: &mut Layers) -> Vec<String> {
        // The paper's second claim: the heuristic finds the minimum. Run
        // the planned configuration and Table 2's seven pinned ones at the
        // paper's iteration count and compare simulated times.
        let mut failures = Vec::new();
        let mut gaps = Vec::new();
        for cell in &self.cells {
            let run_pinned = |config: &[u32], vector: PartitionVector| -> Result<f64, String> {
                let plan = cell
                    .scenario
                    .clone()
                    .with_cost(CostSource::Measured)
                    .plan_pinned(config, vector)
                    .map_err(|e| format!("plan_pinned {config:?}: {e}"))?;
                let mut app = StencilApp::new(cell.n, GAP_ITERS, cell.variant, plan.ranks());
                plan.run(&mut app)
                    .map(|r| r.elapsed_ms)
                    .map_err(|e| format!("pinned run {config:?}: {e}"))
            };
            let result = t.span("bench.heuristic_gap", |_| -> Result<f64, String> {
                let planned = cell.scenario.plan().map_err(|e| format!("plan: {e}"))?;
                let planned_ms = run_pinned(&planned.config, planned.vector.clone())?;
                let mut best = f64::INFINITY;
                for config in TABLE2_CONFIGS {
                    // Eq. 3 under the 2:1 Sparc2:IPC speed ratio.
                    let shares: Vec<f64> = std::iter::repeat_n(2.0, config[0] as usize)
                        .chain(std::iter::repeat_n(1.0, config[1] as usize))
                        .collect();
                    let vector = PartitionVector::from_real_shares(&shares, cell.n as u64);
                    best = best.min(run_pinned(&config, vector)?);
                }
                Ok(planned_ms / best - 1.0)
            });
            match result {
                Ok(gap) => gaps.push(gap),
                Err(e) => failures.push(e),
            }
        }
        if !gaps.is_empty() {
            layers.set(
                "core.heuristic_gap",
                gaps.iter().sum::<f64>() / gaps.len() as f64,
            );
        }
        failures
    }

    fn layers(&self, reps: &TracedReps, layers: &mut Layers) {
        // The cells' host time: the repetition minus its cold calibration.
        let cells_ms = reps.wall_ms() - reps.total_ms("calibrate.cold");
        self.stack.report(reps, cells_ms, layers);
        layers.set("calibrate.cold_ms", crate::stats::median(&self.cold_ms));
        layers.set("calibrate.r2_min", self.r2_min);
        layers.set("calibrate.threads", super::calib256::sweep_threads() as f64);
        layers.set(
            "calibrate.grid_points",
            super::calib256::grid_points(&self.testbed, TOPOLOGIES.len()) as f64,
        );
        layers.set("pipeline.plan_us.n12", reps.mean_us("pipeline.plan"));
    }
}
