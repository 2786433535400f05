//! `fabric` — the full stack at ROADMAP's 256 and 1024 ranks.
//!
//! STEN-1, N = 2048, planned under the analytic hop cost model and run for
//! 5 iterations on four cells: `synthetic(16, 16, 1.15)` on a router tree
//! (arity 4) and on a fat-tree (pod 8, 4 spines) — 256 ranks — and
//! `synthetic(128, 8, 1.0)` on the same two wirings — 1024 ranks. One
//! repetition plans and runs all four.
//!
//! Multi-hop routing, MMPS fragment trains (an 8 KB border row is six
//! fragments) and thousands of live timers are all in play; the stencil
//! arithmetic is still 0.6–0.78 of host time (a third of that is
//! `produce`/`consume` at 1024 ranks), the stack 0.2–0.4.

use netpart::apps::stencil::{sequential_reference, stencil_model, StencilVariant};
use netpart::calibrate::{Testbed, Wiring};
use netpart::{CostSource, Scenario};

use super::{stencil_cell, CellFacts, StackFacts, StencilCell};
use crate::cost::hop_cost_model;
use crate::harness::{ClosedLoop, Layers, TracedReps};
use crate::stats::median;
use crate::trace::Tracer;

/// Grid size: two rows per rank at 1024 ranks.
pub const N: usize = 2048;
/// Iterations per run.
pub const ITERS: u64 = 5;

/// The four cells: metric suffix, clusters, nodes per cluster, speed
/// spread, wiring.
pub fn cells() -> [(&'static str, usize, u32, f64, Wiring); 4] {
    let tree = Wiring::Tree { arity: 4 };
    let fat = Wiring::FatTree { pod: 8, spines: 4 };
    [
        ("tree256", 16, 16, 1.15, tree.clone()),
        ("fat256", 16, 16, 1.15, fat.clone()),
        ("tree1024", 128, 8, 1.0, tree),
        ("fat1024", 128, 8, 1.0, fat),
    ]
}

struct Cell {
    scenario: Scenario,
    routers: usize,
}

/// State of the workload between repetitions.
pub struct Fabric {
    cells: Vec<Cell>,
    reference: Vec<f32>,
    expected: Option<Vec<CellFacts>>,
    stack: StackFacts,
    /// Host ns of each cell, one row per untraced repetition.
    cell_host_ns: Vec<Vec<u64>>,
}

impl ClosedLoop for Fabric {
    type Output = Vec<StencilCell>;

    fn setup(seed: u64, _nth: usize) -> Result<Fabric, String> {
        let app = stencil_model(N as u64, StencilVariant::Sten1);
        let mut built = Vec::new();
        for (_, k, per, spread, wiring) in cells() {
            let mut testbed = Testbed::synthetic(k, per, spread).with_wiring(wiring);
            // Lossless network: the seed is never drawn from (see paper12).
            testbed.seed = seed;
            let cost = hop_cost_model(&testbed, &app).map_err(|e| format!("cost model: {e}"))?;
            built.push(Cell {
                routers: testbed.fabric().num_routers(),
                scenario: Scenario::new(testbed, app.clone()).with_cost(CostSource::Fixed(cost)),
            });
        }
        Ok(Fabric {
            cells: built,
            reference: sequential_reference(N, ITERS),
            expected: None,
            stack: StackFacts::default(),
            cell_host_ns: Vec::new(),
        })
    }

    fn repetition(&mut self, t: &mut Tracer) -> Result<Vec<StencilCell>, String> {
        self.cells
            .iter()
            .map(|c| stencil_cell(&c.scenario, N, ITERS, StencilVariant::Sten1, c.routers, t))
            .collect()
    }

    fn check(&mut self, out: Vec<StencilCell>) -> Vec<String> {
        let mut failures = Vec::new();
        for ((name, ..), done) in cells().iter().zip(&out) {
            if done.app.gather() != self.reference {
                failures.push(format!("{name}: answer differs from sequential_reference"));
            }
            if done.mmps.messages_failed > 0 {
                failures.push(format!(
                    "{name}: {} messages exhausted their retries",
                    done.mmps.messages_failed
                ));
            }
        }
        let facts: Vec<CellFacts> = out.iter().map(CellFacts::of).collect();
        match &self.expected {
            None => self.expected = Some(facts),
            Some(first) if *first != facts => {
                failures.push("simulated facts differ from the first repetition".into());
            }
            Some(_) => {}
        }
        failures.extend(self.stack.update(&out, ITERS));
        if out.iter().all(|c| c.net.is_none()) {
            self.cell_host_ns
                .push(out.iter().map(|c| c.host_ns).collect());
        }
        failures
    }

    fn layers(&self, reps: &TracedReps, layers: &mut Layers) {
        self.stack.report(reps, reps.wall_ms(), layers);
        for (i, (name, ..)) in cells().iter().enumerate() {
            let host_ms: Vec<f64> = self
                .cell_host_ns
                .iter()
                .map(|row| row[i] as f64 / 1e6)
                .collect();
            if let Some(&sim_ms) = self.stack.sim_elapsed_ms.get(i) {
                layers.set(
                    &format!("spmd.host_s_per_sim_s.{name}"),
                    median(&host_ms) / sim_ms.max(f64::MIN_POSITIVE),
                );
            }
        }
    }
}
