//! `plan_scale` — planning only: "plan µs against node count".
//!
//! {tree, fat-tree, dumbbell} × {256, 1024, 4096 nodes} × {STEN-1, GAUSS},
//! prebuilt scenarios with a fixed (analytic hop) cost model and default
//! `PartitionOptions`. One repetition is one pass of `Scenario::plan()`
//! over the 18 cells. The simulator is never called: this is `core`
//! (estimator, search, partitioner) plus `pipeline::plan`'s own overhead
//! (validate, `cluster_hops`, `SystemModel`, clones).

use std::time::{Duration, Instant};

use netpart::apps::gauss::gauss_model;
use netpart::apps::stencil::{stencil_model, StencilVariant};
use netpart::calibrate::{CalibratedCostModel, Testbed, Wiring};
use netpart::core::{partition, Estimator, PartitionOptions, SystemModel};
use netpart::pipeline::scenario_fingerprint;
use netpart::{CostSource, Plan, Scenario};

use crate::cost::hop_cost_model;
use crate::harness::{ClosedLoop, Layers, TracedReps};
use crate::stats::median;
use crate::trace::Tracer;

/// (clusters, nodes per cluster): 256, 1024 and 4096 nodes.
pub const SIZES: [(usize, u32); 3] = [(16, 16), (32, 32), (64, 64)];

/// Span names of `Scenario::plan()` per (size, application).
const PLAN_SPANS: [[&str; 2]; 3] = [
    ["pipeline.plan.n256.sten1", "pipeline.plan.n256.gauss"],
    ["pipeline.plan.n1024.sten1", "pipeline.plan.n1024.gauss"],
    ["pipeline.plan.n4096.sten1", "pipeline.plan.n4096.gauss"],
];

struct Cell {
    scenario: Scenario,
    cost: CalibratedCostModel,
    /// Index into [`SIZES`].
    size: usize,
    /// 0 = STEN-1, 1 = GAUSS.
    app: usize,
}

/// State of the workload between repetitions.
pub struct PlanScale {
    cells: Vec<Cell>,
    /// (config, bits of predicted T_c) of the first repetition.
    expected: Option<Vec<(Vec<u32>, Option<u64>)>>,
    evaluations: u64,
    cluster_evals: u64,
}

fn wirings() -> [Wiring; 3] {
    [
        Wiring::Tree { arity: 4 },
        Wiring::FatTree { pod: 8, spines: 4 },
        Wiring::Dumbbell,
    ]
}

fn direct_partition(
    cell: &Cell,
    options: &PartitionOptions,
) -> Result<netpart::core::Partition, String> {
    let sys = SystemModel::from_testbed(&cell.scenario.testbed);
    let est = Estimator::new(&sys, &cell.cost, &cell.scenario.app);
    partition(&est, options).map_err(|e| format!("partition: {e}"))
}

impl ClosedLoop for PlanScale {
    type Output = Vec<Plan>;

    fn setup(seed: u64, _nth: usize) -> Result<PlanScale, String> {
        let mut cells = Vec::new();
        for wiring in wirings() {
            for (size, &(k, per)) in SIZES.iter().enumerate() {
                let nodes = k as u64 * u64::from(per);
                let mut testbed = Testbed::synthetic(k, per, 1.15).with_wiring(wiring.clone());
                // Planning never simulates; the seed only has to be an input.
                testbed.seed = seed;
                let apps = [
                    stencil_model(8 * nodes, StencilVariant::Sten1),
                    gauss_model(4 * nodes),
                ];
                for (app, model) in apps.into_iter().enumerate() {
                    let cost =
                        hop_cost_model(&testbed, &model).map_err(|e| format!("cost model: {e}"))?;
                    cells.push(Cell {
                        scenario: Scenario::new(testbed.clone(), model)
                            .with_cost(CostSource::Fixed(cost.clone())),
                        cost,
                        size,
                        app,
                    });
                }
            }
        }
        Ok(PlanScale {
            cells,
            expected: None,
            evaluations: 0,
            cluster_evals: 0,
        })
    }

    fn repetition(&mut self, t: &mut Tracer) -> Result<Vec<Plan>, String> {
        self.cells
            .iter()
            .map(|c| {
                t.span(PLAN_SPANS[c.size][c.app], |_| c.scenario.plan())
                    .map_err(|e| format!("plan: {e}"))
            })
            .collect()
    }

    fn check(&mut self, plans: Vec<Plan>) -> Vec<String> {
        let mut failures = Vec::new();
        let facts: Vec<(Vec<u32>, Option<u64>)> = plans
            .iter()
            .map(|p| (p.config.clone(), p.predicted_tc_ms.map(f64::to_bits)))
            .collect();
        match &self.expected {
            Some(first) if *first != facts => {
                failures.push("plans differ from the first repetition".into());
            }
            Some(_) => {}
            None => {
                // First repetition: every plan must be what the partitioner
                // itself decides on the same inputs.
                let options = PartitionOptions::default();
                for (cell, plan) in self.cells.iter().zip(&plans) {
                    match direct_partition(cell, &options) {
                        Ok(part)
                            if part.config == plan.config
                                && Some(part.predicted_tc_ms().to_bits())
                                    == plan.predicted_tc_ms.map(f64::to_bits) => {}
                        Ok(_) => failures.push("plan() differs from core::partition".into()),
                        Err(e) => failures.push(e),
                    }
                    if plan.vector.total() != cell.scenario.app.num_pdus() {
                        failures.push("partition vector does not cover every PDU".into());
                    }
                }
                self.expected = Some(facts);
            }
        }
        let parts = plans.iter().filter_map(|p| p.partition.as_ref());
        self.evaluations = parts.clone().map(|p| p.evaluations).sum();
        self.cluster_evals = parts.map(|p| p.cluster_evals).sum();
        failures
    }

    fn probes(&mut self, t: &mut Tracer, budget: Duration, layers: &mut Layers) -> Vec<String> {
        let mut failures = Vec::new();
        let deadline = Instant::now() + budget;
        let options = PartitionOptions::default();
        let refine = PartitionOptions {
            refine_passes: 2,
            ..PartitionOptions::default()
        };
        // Per STEN-1 cell: direct core::partition µs; per size: the mean
        // over its three wirings (each cell's value a median over passes).
        let sten: Vec<(usize, &Cell)> = self
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.app == 0)
            .collect();
        let mut part_us: Vec<Vec<f64>> = vec![Vec::new(); sten.len()];
        let mut refine_us = Vec::new();
        let mut tc_ns = Vec::new();
        let (mut part_ns_total, mut cluster_evals_total) = (0u64, 0u64);
        loop {
            for (i, &(at, cell)) in sten.iter().enumerate() {
                let t0 = Instant::now();
                match t.span("core.partition", |_| direct_partition(cell, &options)) {
                    Ok(p) => {
                        let ns = t0.elapsed().as_nanos() as u64;
                        part_us[i].push(ns as f64 / 1e3);
                        part_ns_total += ns;
                        cluster_evals_total += p.cluster_evals;
                    }
                    Err(e) => failures.push(e),
                }
                if cell.size == 2 {
                    let t0 = Instant::now();
                    if let Err(e) = t.span("core.refine", |_| direct_partition(cell, &refine)) {
                        failures.push(e);
                    }
                    refine_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    if let Some((config, _)) = self.expected.as_ref().and_then(|e| e.get(at)) {
                        let sys = SystemModel::from_testbed(&cell.scenario.testbed);
                        let est = Estimator::new(&sys, &cell.cost, &cell.scenario.app);
                        const EVALS: u32 = 64;
                        let t0 = Instant::now();
                        let mut acc = 0.0;
                        for _ in 0..EVALS {
                            acc += est.t_c_ms(std::hint::black_box(config));
                        }
                        std::hint::black_box(acc);
                        tc_ns.push(t0.elapsed().as_nanos() as f64 / f64::from(EVALS));
                    }
                }
            }
            if !failures.is_empty() || Instant::now() >= deadline {
                break;
            }
        }
        let per_size = |size: usize| -> f64 {
            let cells: Vec<f64> = sten
                .iter()
                .zip(&part_us)
                .filter(|((_, c), _)| c.size == size)
                .map(|(_, us)| median(us))
                .collect();
            cells.iter().sum::<f64>() / cells.len().max(1) as f64
        };
        layers.set("core.partition_us.n256", per_size(0));
        layers.set("core.partition_us.n1024", per_size(1));
        layers.set("core.partition_us.n4096", per_size(2));
        layers.set("core.refine_us.n4096", median(&refine_us));
        layers.set("core.tc_eval_ns", median(&tc_ns));
        layers.set(
            "core.ns_per_cluster_eval",
            part_ns_total as f64 / cluster_evals_total.max(1) as f64,
        );

        // Fingerprints: what a plan-cache hit still pays.
        let paper = Scenario::new(Testbed::paper(), stencil_model(600, StencilVariant::Sten1))
            .with_cost(CostSource::Paper);
        let by_size = |size: usize| {
            sten.iter()
                .find(|(_, c)| c.size == size)
                .map(|(_, c)| &c.scenario)
        };
        for (name, scenario) in [
            ("pipeline.fingerprint_us.n12", Some(&paper)),
            ("pipeline.fingerprint_us.n256", by_size(0)),
            ("pipeline.fingerprint_us.n1024", by_size(1)),
        ] {
            let Some(scenario) = scenario else { continue };
            let us: Vec<f64> = (0..16)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(t.span("pipeline.fingerprint", |_| {
                        scenario_fingerprint(std::hint::black_box(scenario))
                    }));
                    t0.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            layers.set(name, median(&us));
        }
        failures
    }

    fn layers(&self, reps: &TracedReps, layers: &mut Layers) {
        for (size, nodes) in ["n256", "n1024", "n4096"].into_iter().enumerate() {
            let plan_us = reps.mean_us(PLAN_SPANS[size][0]);
            let partition_us = layers.get(&format!("core.partition_us.{nodes}"));
            layers.set(&format!("pipeline.plan_us.{nodes}"), plan_us);
            layers.set(
                &format!("pipeline.plan_overhead_us.{nodes}"),
                plan_us - partition_us,
            );
        }
        layers.set("core.evaluations", self.evaluations as f64);
        layers.set("core.cluster_evals", self.cluster_evals as f64);
    }
}
