//! Transport fidelity: does MMPS re-send what it never lost?
//!
//! Both instruments run on lossless networks, so every retransmission
//! they count is spurious — a timeout that fired on a message still
//! queued or already delivered:
//!
//! - one 16-node cluster of `calib256`'s testbed (the synthetic 16 × 16
//!   tree of arity 4) swept over the default calibration grid, `p ∈
//!   2..=16` × the default message sizes, with 1-D `CommBench`. Each
//!   point's mean cycle time is set against the Eq. 1 fit over the whole
//!   grid, so a point that retransmits shows as a residual;
//! - the paper testbed's six planned stencil cells (STEN-1/2 × N = 300,
//!   600, 1200) run for [`CELL_CYCLES`] cycles, ten times the paper's
//!   count, long enough for a retransmission spiral to show in the
//!   per-cycle time.

use netpart_apps::stencil::{StencilApp, StencilVariant};
use netpart_calibrate::{
    fit_eq1, measure_cycle, CalibratedCostModel, CalibrationConfig, Testbed, Wiring,
};
use netpart_mmps::MmpsStats;
use netpart_model::NetpartError;
use netpart_topology::Topology;

use crate::experiments::stencil_scenario;
use crate::report::variant_name;

/// Cycles each paper cell runs.
pub const CELL_CYCLES: u64 = 100;

/// The paper cells: both variants × the three grid sizes `paper12` runs,
/// largest first, so a sweep over them does not end on an N = 1200 cell
/// with a worker idle.
pub const CELLS: [(StencilVariant, u64); 6] = [
    (StencilVariant::Sten1, 1200),
    (StencilVariant::Sten2, 1200),
    (StencilVariant::Sten1, 600),
    (StencilVariant::Sten2, 600),
    (StencilVariant::Sten1, 300),
    (StencilVariant::Sten2, 300),
];

/// One `(p, b)` point of the calibration grid.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// Ranks exchanging.
    pub p: u32,
    /// Message bytes.
    pub b: u32,
    /// Mean cycle ms after the warm-up cycles, as calibration measures it.
    pub cycle_ms: f64,
    /// What the grid's Eq. 1 fit prices this point at.
    pub fitted_ms: f64,
    /// The run's message-layer counters.
    pub mmps: MmpsStats,
}

/// One planned paper cell, run for [`CELL_CYCLES`] cycles.
#[derive(Debug, Clone)]
pub struct PaperCell {
    /// Stencil variant.
    pub variant: StencilVariant,
    /// Grid edge.
    pub n: u64,
    /// The planned configuration (Sparc2s, IPCs).
    pub config: Vec<u32>,
    /// Per-cycle ms, startup excluded.
    pub per_cycle_ms: Vec<f64>,
    /// The run's message-layer counters.
    pub mmps: MmpsStats,
}

impl PaperCell {
    /// Mean ms per cycle of each consecutive `len`-cycle block.
    pub fn block_means(&self, len: usize) -> Vec<f64> {
        self.per_cycle_ms
            .chunks(len)
            .map(|b| b.iter().sum::<f64>() / b.len() as f64)
            .collect()
    }
}

/// Both instruments' results.
#[derive(Debug, Clone)]
pub struct TransportReport {
    /// The calibration grid, p-major.
    pub grid: Vec<GridPoint>,
    /// R² of the Eq. 1 fit over the grid.
    pub grid_r_squared: f64,
    /// The paper cells, in [`CELLS`] order.
    pub cells: Vec<PaperCell>,
}

impl TransportReport {
    /// A dropped datagram on these lossless networks is a simulator bug,
    /// and it would make the retransmission counts mean something else.
    pub fn violations(&self) -> Vec<String> {
        let grid = self.grid.iter().filter(|g| g.mmps.datagrams_dropped > 0);
        let cells = self.cells.iter().filter(|c| c.mmps.datagrams_dropped > 0);
        grid.map(|g| format!("grid p={} b={} dropped datagrams", g.p, g.b))
            .chain(
                cells.map(|c| format!("{} N={} dropped datagrams", variant_name(c.variant), c.n)),
            )
            .collect()
    }
}

/// Sweep cluster 0 of `calib256`'s testbed over the default calibration
/// grid and fit Eq. 1 to it, as calibration does. Returns the points and
/// the fit's R².
pub fn calib256_grid() -> Result<(Vec<GridPoint>, f64), NetpartError> {
    let tb = Testbed::synthetic(16, 16, 1.15).with_wiring(Wiring::Tree { arity: 4 });
    let cfg = CalibrationConfig::default();
    let points: Vec<(u32, u32)> = (2..=tb.clusters[0].nodes)
        .flat_map(|p| cfg.b_values.iter().map(move |&b| (p, b)))
        .collect();
    let runs = crate::sweep::sweep(points.clone(), |(p, b)| {
        let mut config = vec![0u32; tb.num_clusters()];
        config[0] = p;
        measure_cycle(&tb, &config, Topology::OneD, b, &cfg)
    })
    .into_iter()
    .collect::<Result<Vec<(f64, MmpsStats)>, NetpartError>>()?;
    let y: Vec<f64> = runs.iter().map(|r| r.0).collect();
    let fit = fit_eq1(&points, &y)
        .ok_or_else(|| NetpartError::Calibration("transport grid fit is singular".into()))?;
    let grid = points
        .iter()
        .zip(runs)
        .map(|(&(p, b), (cycle_ms, mmps))| GridPoint {
            p,
            b,
            cycle_ms,
            fitted_ms: fit.eval_ms(b as f64, p),
            mmps,
        })
        .collect();
    Ok((grid, fit.r_squared))
}

/// Plan one paper cell under `model` and run it for `cycles` cycles.
pub fn paper_cell(
    model: &CalibratedCostModel,
    variant: StencilVariant,
    n: u64,
    cycles: u64,
) -> Result<PaperCell, NetpartError> {
    let plan = stencil_scenario(n, variant, model).plan()?;
    let mut app = StencilApp::new(n as usize, cycles, variant, plan.ranks());
    let report = plan.run(&mut app)?.report;
    Ok(PaperCell {
        variant,
        n,
        config: plan.config,
        per_cycle_ms: report.per_cycle.iter().map(|d| d.as_millis_f64()).collect(),
        mmps: report.mmps,
    })
}

/// Run both instruments.
pub fn transport_report(model: &CalibratedCostModel) -> Result<TransportReport, NetpartError> {
    let (grid, grid_r_squared) = calib256_grid()?;
    let cells = crate::sweep::sweep(CELLS.to_vec(), |(variant, n)| {
        paper_cell(model, variant, n, CELL_CYCLES)
    })
    .into_iter()
    .collect::<Result<_, _>>()?;
    Ok(TransportReport {
        grid,
        grid_r_squared,
        cells,
    })
}

/// Render the report: the grid as two p × b matrices (mean cycle ms with
/// `[retransmissions/duplicates]` where any, then the residual against
/// the fit), and one line per paper cell.
pub fn render_transport(r: &TransportReport) -> String {
    let sizes: Vec<u32> = CalibrationConfig::default().b_values;
    let mut out = String::new();
    let (retx, dups) = r.grid.iter().fold((0, 0), |(x, d), g| {
        (x + g.mmps.retransmissions, d + g.mmps.duplicates)
    });
    out.push_str(&format!(
        "calib256 cluster 0 (16 nodes on one segment), 1-D CommBench, {} points: \
         {retx} retransmissions, {dups} duplicates; Eq. 1 fit R² {:.4}\n",
        r.grid.len(),
        r.grid_r_squared
    ));
    let header: String = sizes
        .iter()
        .map(|b| format!("{:>20}", format!("b={b}")))
        .collect();
    out.push_str(&format!(
        "mean cycle ms [retransmissions/duplicates]:\n{:>4}{header}\n",
        "p"
    ));
    for row in r.grid.chunks(sizes.len()) {
        out.push_str(&format!("{:>4}", row[0].p));
        for g in row {
            let counts = if g.mmps.retransmissions + g.mmps.duplicates > 0 {
                format!(" [{}/{}]", g.mmps.retransmissions, g.mmps.duplicates)
            } else {
                String::new()
            };
            out.push_str(&format!("{:>20}", format!("{:.2}{counts}", g.cycle_ms)));
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "residual (measured − fitted) ms:\n{:>4}{header}\n",
        "p"
    ));
    for row in r.grid.chunks(sizes.len()) {
        out.push_str(&format!("{:>4}", row[0].p));
        for g in row {
            out.push_str(&format!("{:>20.2}", g.cycle_ms - g.fitted_ms));
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "\npaper testbed, planned cells, {CELL_CYCLES} cycles:\n\
         {:<14} {:>8} {:>9} {:>6} {:>6} {:>8} {:>14}   10-cycle block ms, first → last\n",
        "cell", "config", "messages", "retx", "dups", "dropped", "mean cycle ms"
    ));
    for c in &r.cells {
        let blocks = c.block_means(10);
        let mean = c.per_cycle_ms.iter().sum::<f64>() / c.per_cycle_ms.len() as f64;
        out.push_str(&format!(
            "{:<14} {:>8} {:>9} {:>6} {:>6} {:>8} {:>14.2}   {:.2} → {:.2}\n",
            format!("{} N={}", variant_name(c.variant), c.n),
            format!("{:?}", c.config),
            c.mmps.messages_sent,
            c.mmps.retransmissions,
            c.mmps.duplicates,
            c.mmps.datagrams_dropped,
            mean,
            blocks[0],
            blocks[blocks.len() - 1]
        ));
    }
    out
}
