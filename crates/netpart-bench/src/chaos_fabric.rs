//! Fabric-level chaos: seeded fault schedules against *hierarchical*
//! fabrics at 256 and 1024 nodes.
//!
//! [`crate::chaos_fuzz`](mod@crate::chaos_fuzz) fuzzes the star testbed, where every node pair
//! shares one router and the backbone cannot fail independently of it.
//! This module points the same invariant at wired fabrics — trees and
//! leaf–spine fat-trees — where schedules drawn from
//! [`FaultPlan::random`] under
//! [`fabric_bounds`](crate::chaos_fuzz::fabric_bounds) additionally cover
//! `RouterOutage` on interior routers, `LinkDown` on individual router
//! ports, and bursts on trunk segments. The invariant is unchanged:
//! every run either completes **bit-identical** to the sequential
//! reference or ends in a **typed** recovery error; anything else is a
//! violation, delta-debugged to a minimal repro.
//!
//! # Cells
//!
//! The random sweep crosses `{STEN-1, GAUSS}` × `{tree(arity 4),
//! fat-tree(pod 8, spines 4)}` × `{64×4 = 256 nodes, 128×8 = 1024
//! nodes}` with uniform cluster speeds, eight seeds per cell — 64
//! schedules. The STEN-1 cells are sized so the plan spans **every**
//! cluster (routing crosses the live fabric each halo exchange); the
//! GAUSS cells plan into a single cluster, so for them the sweep checks
//! fabric *inertness* — backbone faults must not perturb a run that
//! never crosses the backbone.
//!
//! # Directed reroute
//!
//! Two handcrafted cases assert the stronger half of the contract: on a
//! fat-tree with four spines, a `LinkDown` that darkens one router's
//! first spine port mid-run must **complete via reroute** over the
//! remaining spines — a typed error here is a violation, not an
//! acceptable outcome, because path diversity exists by construction.
//!
//! Fabric cells run local-durability checkpoints rather than the star
//! fuzzer's replicated ones: mirroring hundred-KB blobs across 10 Mb
//! shared segments saturates them past the MMPS retransmission budget
//! at 1024 ranks, failing healthy nodes with zero faults injected (see
//! [`ChaosTarget::fabric`]).

use crate::chaos_fuzz::{ChaosFuzzCase, ChaosTarget, MinimizedRepro};
use crate::report::Json;
use crate::scale::scale_cost_model;
use crate::target::{Target, Verdict};
use netpart_apps::{gauss_model, stencil_model, StencilVariant};
use netpart_calibrate::{Testbed, Wiring};
use netpart_model::NetpartError;
use netpart_sim::{FaultPlan, RouterId, SimDur, SimTime};

/// Seeds per random cell; 8 cells × 8 seeds = 64 schedules per sweep.
pub const FABRIC_SEEDS_PER_CELL: u64 = 8;

/// One random-sweep cell: an app on a wired shape, with a deterministic
/// per-cell seed base so every schedule in the sweep is distinct and
/// reproducible from its `(cell, seed)` pair alone.
#[derive(Debug, Clone)]
struct CellSpec {
    /// GAUSS when set, STEN-1 otherwise.
    gauss: bool,
    wiring_name: &'static str,
    wiring: Wiring,
    clusters: u32,
    nodes_per: u32,
    seed_base: u64,
}

/// The full random-sweep cell list. Smoke runs reuse entries from this
/// list (same seed bases), so a smoke verdict is a strict subset of the
/// full sweep's.
fn cells() -> Vec<CellSpec> {
    let shapes = [(64u32, 4u32), (128, 8)];
    let wirings = [
        ("tree", Wiring::Tree { arity: 4 }),
        ("fat-tree", Wiring::FatTree { pod: 8, spines: 4 }),
    ];
    let mut out = Vec::new();
    let mut base = 0u64;
    for (clusters, nodes_per) in shapes {
        for (wname, wiring) in &wirings {
            for gauss in [false, true] {
                out.push(CellSpec {
                    gauss,
                    wiring_name: wname,
                    wiring: wiring.clone(),
                    clusters,
                    nodes_per,
                    seed_base: base,
                });
                base += 100;
            }
        }
    }
    out
}

/// Build the [`ChaosTarget`] for a cell: uniform speeds, STEN-1 grids at
/// 4 rows per node (capacity binds, so the plan spans every cluster),
/// GAUSS systems at 4 rows per *cluster* (single-cluster plans).
fn build_target(spec: &CellSpec) -> Result<ChaosTarget, NetpartError> {
    let tb = Testbed::synthetic(spec.clusters as usize, spec.nodes_per, 1.0)
        .with_wiring(spec.wiring.clone());
    let target = if spec.gauss {
        let n = (4 * spec.clusters) as usize;
        let model = scale_cost_model(&tb, &gauss_model(n as u64))?;
        Target::gauss(tb, &model, n)?
    } else {
        sten_target(tb, spec.clusters, spec.nodes_per)?
    };
    Ok(ChaosTarget::fabric(target))
}

/// STEN-1 at 4 rows per node, 6 iterations, priced for the fabric.
fn sten_target(tb: Testbed, clusters: u32, nodes_per: u32) -> Result<Target, NetpartError> {
    let n = (4 * clusters * nodes_per) as usize;
    let model = scale_cost_model(&tb, &stencil_model(n as u64, StencilVariant::Sten1))?;
    Target::sten(tb, &model, n, 6, StencilVariant::Sten1)
}

/// One random-sweep cell's results.
#[derive(Debug, Clone)]
pub struct FabricCellReport {
    /// Application label (`STEN-1`, `GAUSS`).
    pub app: &'static str,
    /// Wiring label (`tree`, `fat-tree`).
    pub wiring: &'static str,
    /// Clusters in the testbed.
    pub clusters: u32,
    /// Nodes per cluster.
    pub nodes_per: u32,
    /// Planned ranks.
    pub ranks: usize,
    /// Distinct clusters the plan places ranks on.
    pub clusters_spanned: usize,
    /// Fault-free simulated elapsed, ms (the fuzz horizon is 1.2× this).
    pub fault_free_ms: f64,
    /// One row per seed.
    pub cases: Vec<ChaosFuzzCase>,
}

/// A directed single-spine-outage case: must complete via reroute.
#[derive(Debug, Clone)]
pub struct DirectedRerouteCase {
    /// Clusters in the fat-tree testbed.
    pub clusters: u32,
    /// Nodes per cluster.
    pub nodes_per: u32,
    /// Planned ranks (spans every cluster, hence every pod).
    pub ranks: usize,
    /// Distinct pods the plan places ranks on (must be ≥ 2 for the
    /// outage to sit on live cross-pod paths).
    pub pods_spanned: usize,
    /// Router whose spine port goes dark.
    pub router: u16,
    /// The darkened spine trunk segment.
    pub spine_segment: u16,
    /// Outage window, ms (fractions of the fault-free run).
    pub window_ms: (f64, f64),
    /// Fault-free simulated elapsed, ms.
    pub fault_free_ms: f64,
    /// The run's outcome. Anything but `OkIdentical` violates the
    /// directed contract: with three live spines remaining, the fabric
    /// must reroute, not error.
    pub case: ChaosFuzzCase,
}

impl DirectedRerouteCase {
    /// The case's verdict under the directed (stricter) contract: a typed
    /// error is a violation too.
    fn verdict(&self) -> Verdict {
        match &self.case.outcome.verdict {
            Verdict::Typed(e) => Verdict::Violation(format!("typed error: {e}")),
            other => other.clone(),
        }
    }
}

/// Everything a `chaos-fabric` invocation produced.
#[derive(Debug, Clone)]
pub struct ChaosFabricReport {
    /// Random-sweep cells, eight seeds each.
    pub cells: Vec<FabricCellReport>,
    /// Directed single-spine-outage cases.
    pub directed: Vec<DirectedRerouteCase>,
    /// Shrunk repros for random-sweep violations.
    pub repros: Vec<MinimizedRepro>,
}

impl ChaosFabricReport {
    /// Total schedules across cells and directed cases.
    pub fn schedules(&self) -> usize {
        self.cells.iter().map(|c| c.cases.len()).sum::<usize>() + self.directed.len()
    }

    /// Invariant violations, one line each: random-sweep violations plus
    /// directed cases that did not complete bit-identically.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for c in &self.cells {
            for k in &c.cases {
                if let Verdict::Violation(v) = &k.outcome.verdict {
                    out.push(format!("{} {} seed {}: {v}", c.app, c.wiring, k.seed));
                }
            }
        }
        for d in &self.directed {
            if let Verdict::Violation(v) = d.verdict() {
                out.push(format!(
                    "directed fat-tree {}x{}: {v}",
                    d.clusters, d.nodes_per
                ));
            }
        }
        out
    }
}

/// Run one random-sweep cell: draw `seeds` schedules from the cell's
/// seed base and check each against the invariant, shrinking any
/// violation to a minimal repro.
fn run_cell(
    spec: &CellSpec,
    seeds: u64,
    repros: &mut Vec<MinimizedRepro>,
) -> Result<FabricCellReport, NetpartError> {
    let target = build_target(spec)?;
    let app = target.target();
    let rank_clusters = app.rank_clusters()?;
    let spanned: std::collections::BTreeSet<u32> = rank_clusters.iter().copied().collect();
    let mut cases = Vec::with_capacity(seeds as usize);
    for seed in spec.seed_base..spec.seed_base + seeds {
        let (case, repro) = target.fuzz(seed, false);
        cases.push(case);
        repros.extend(repro);
    }
    Ok(FabricCellReport {
        app: app.label(),
        wiring: spec.wiring_name,
        clusters: spec.clusters,
        nodes_per: spec.nodes_per,
        ranks: rank_clusters.len(),
        clusters_spanned: spanned.len(),
        fault_free_ms: app.fault_free_ms(),
        cases,
    })
}

/// Run one directed single-spine-outage case on a `FatTree { pod: 8,
/// spines: 4 }` of `clusters × nodes_per`: darken router 0's first
/// spine port for the middle half of the fault-free window and require
/// bit-identical completion via the three remaining spines.
fn run_directed(clusters: u32, nodes_per: u32) -> Result<DirectedRerouteCase, NetpartError> {
    const POD: usize = 8;
    let tb = Testbed::synthetic(clusters as usize, nodes_per, 1.0).with_wiring(Wiring::FatTree {
        pod: POD,
        spines: 4,
    });
    // The first trunk segment past the leaves is the first spine; the
    // fat-tree generator gives every pod router a port on every spine.
    let fabric = tb.fabric();
    let spine = fabric.routers[0]
        .segments
        .iter()
        .copied()
        .find(|s| (s.0 as u32) >= clusters)
        .ok_or_else(|| {
            NetpartError::InvalidScenario("fat-tree router 0 has no spine port".into())
        })?;
    let target = ChaosTarget::fabric(sten_target(tb, clusters, nodes_per)?);
    let rank_clusters = target.target().rank_clusters()?;
    let pods: std::collections::BTreeSet<u32> =
        rank_clusters.iter().map(|&c| c / POD as u32).collect();
    let ff = target.target().fault_free_ms();
    let (from_ms, until_ms) = (0.2 * ff, 0.7 * ff);
    let t = |ms: f64| SimTime::ZERO + SimDur::from_millis_f64(ms);
    let plan = FaultPlan::new().link_down(RouterId(0), spine, t(from_ms), t(until_ms));
    let case = target.run_case(0, &plan, false);
    Ok(DirectedRerouteCase {
        clusters,
        nodes_per,
        ranks: rank_clusters.len(),
        pods_spanned: pods.len(),
        router: 0,
        spine_segment: spine.0,
        window_ms: (from_ms, until_ms),
        fault_free_ms: ff,
        case,
    })
}

/// The full fabric chaos sweep: all eight random cells at
/// [`FABRIC_SEEDS_PER_CELL`] seeds each, plus the two directed
/// single-spine-outage cases (256 and 1024 nodes).
pub fn chaos_fabric() -> Result<ChaosFabricReport, NetpartError> {
    let mut repros = Vec::new();
    let mut cell_reports = Vec::new();
    for spec in cells() {
        cell_reports.push(run_cell(&spec, FABRIC_SEEDS_PER_CELL, &mut repros)?);
    }
    let directed = vec![run_directed(64, 4)?, run_directed(128, 8)?];
    Ok(ChaosFabricReport {
        cells: cell_reports,
        directed,
        repros,
    })
}

/// The CI smoke subset: the two 256-node fat-tree cells (STEN-1 and
/// GAUSS, four seeds each from the same seed bases as the full sweep)
/// plus the 256-node directed reroute case. Fast enough for every push;
/// any verdict here is a strict subset of the full sweep's.
pub fn chaos_fabric_smoke() -> Result<ChaosFabricReport, NetpartError> {
    let mut repros = Vec::new();
    let mut cell_reports = Vec::new();
    for spec in cells()
        .into_iter()
        .filter(|s| s.wiring_name == "fat-tree" && s.clusters == 64)
    {
        cell_reports.push(run_cell(&spec, 4, &mut repros)?);
    }
    let directed = vec![run_directed(64, 4)?];
    Ok(ChaosFabricReport {
        cells: cell_reports,
        directed,
        repros,
    })
}

/// Render a fabric chaos report for the terminal.
pub fn render_chaos_fabric(report: &ChaosFabricReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} schedules against wired fabrics: {} violation(s)\n\n",
        report.schedules(),
        report.violations().len()
    ));
    out.push_str(&format!(
        "{:<7} {:>9} {:>7} {:>6} {:>9} {:>12} {:>4} {:>6} {:>7}\n",
        "app", "wiring", "shape", "ranks", "clusters", "fault-free", "ok", "typed", "replans"
    ));
    for c in &report.cells {
        let verdicts = || c.cases.iter().map(|k| &k.outcome.verdict);
        let ok = verdicts().filter(|v| v.is_identical()).count();
        let typed = verdicts()
            .filter(|v| matches!(v, Verdict::Typed(_)))
            .count();
        let replans: u32 = c.cases.iter().map(|k| k.outcome.rec().replans).sum();
        out.push_str(&format!(
            "{:<7} {:>9} {:>7} {:>6} {:>9} {:>10.1}ms {:>4} {:>6} {:>7}\n",
            c.app,
            c.wiring,
            format!("{}x{}", c.clusters, c.nodes_per),
            c.ranks,
            c.clusters_spanned,
            c.fault_free_ms,
            ok,
            typed,
            replans
        ));
    }
    out.push_str("\ndirected single-spine outages (must complete via reroute):\n");
    for d in &report.directed {
        let verdict = match d.verdict() {
            Verdict::Violation(v) => format!("VIOLATION ({v})"),
            _ => "rerouted, bit-identical".to_string(),
        };
        out.push_str(&format!(
            "  fat-tree {}x{}: r{} spine seg{} dark {:.0}..{:.0}ms of {:.0}ms, \
             {} ranks over {} pods -> {}\n",
            d.clusters,
            d.nodes_per,
            d.router,
            d.spine_segment,
            d.window_ms.0,
            d.window_ms.1,
            d.fault_free_ms,
            d.ranks,
            d.pods_spanned,
            verdict
        ));
    }
    for r in &report.repros {
        out.push_str(&r.render());
    }
    out
}

/// The fabric chaos report as `BENCH_chaos_fabric.json`.
pub fn chaos_fabric_json(report: &ChaosFabricReport) -> String {
    Json::obj([
        (
            "description",
            "Fabric-level chaos: seeded random fault schedules (all eight kinds, including \
             router outages, per-port link downs, and trunk bursts) against tree and \
             fat-tree fabrics at 256 and 1024 nodes, plus directed single-spine outages \
             that must complete bit-identically via reroute over the remaining spines. \
             Invariant: every run completes bit-identical to the sequential reference or \
             ends in a typed recovery error. Deterministic per (cell, seed)."
                .into(),
        ),
        ("schedules", report.schedules().into()),
        ("violations", report.violations().len().into()),
        (
            "cells",
            Json::arr(&report.cells, |c| {
                Json::obj([
                    ("app", c.app.into()),
                    ("wiring", c.wiring.into()),
                    ("clusters", c.clusters.into()),
                    ("nodes_per", c.nodes_per.into()),
                    ("nodes", (c.clusters * c.nodes_per).into()),
                    ("ranks", c.ranks.into()),
                    ("clusters_spanned", c.clusters_spanned.into()),
                    ("fault_free_ms", Json::ms(c.fault_free_ms)),
                    ("cases", Json::arr(&c.cases, |k| k.json([]))),
                ])
            }),
        ),
        (
            "directed_reroute",
            Json::arr(&report.directed, |d| {
                let strict = d.verdict();
                let (verdict, detail) = strict.label_and_detail();
                Json::obj([
                    ("wiring", "fat-tree".into()),
                    ("clusters", d.clusters.into()),
                    ("nodes_per", d.nodes_per.into()),
                    ("nodes", (d.clusters * d.nodes_per).into()),
                    ("ranks", d.ranks.into()),
                    ("pods_spanned", d.pods_spanned.into()),
                    ("router", d.router.into()),
                    ("spine_segment", d.spine_segment.into()),
                    (
                        "window_ms",
                        Json::Arr(vec![Json::ms(d.window_ms.0), Json::ms(d.window_ms.1)]),
                    ),
                    ("fault_free_ms", Json::ms(d.fault_free_ms)),
                    ("recovered_ms", Json::ms(d.case.outcome.elapsed_ms())),
                    ("replans", d.case.outcome.rec().replans.into()),
                    ("verdict", verdict.into()),
                    ("detail", detail.into()),
                ])
            }),
        ),
        (
            "minimized_repros",
            Json::arr(&report.repros, MinimizedRepro::json),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_table_shape_and_seed_bases() {
        let cells = cells();
        assert_eq!(cells.len(), 8, "2 apps x 2 wirings x 2 sizes");
        // 8 cells x 8 seeds + 2 directed = at least the promised 64
        // random schedules.
        assert!(cells.len() as u64 * FABRIC_SEEDS_PER_CELL >= 64);
        // Seed bases are spaced so no two cells ever share a seed.
        let mut bases: Vec<u64> = cells.iter().map(|c| c.seed_base).collect();
        bases.sort_unstable();
        for w in bases.windows(2) {
            assert!(w[1] - w[0] >= FABRIC_SEEDS_PER_CELL);
        }
        // The smoke subset is non-empty and a strict subset.
        let smoke: Vec<&CellSpec> = cells
            .iter()
            .filter(|s| s.wiring_name == "fat-tree" && s.clusters == 64)
            .collect();
        assert_eq!(
            smoke.len(),
            2,
            "STEN-1 and GAUSS fat-tree cells at 256 nodes"
        );
    }

    #[test]
    fn directed_case_targets_a_spine_port() {
        // The directed builder must pick a trunk past the leaves that is
        // actually wired on router 0 — guard the id arithmetic against
        // generator changes.
        let tb = netpart_calibrate::Testbed::synthetic(16, 1, 1.0)
            .with_wiring(Wiring::FatTree { pod: 8, spines: 4 });
        let fabric = tb.fabric();
        let spine = fabric.routers[0]
            .segments
            .iter()
            .copied()
            .find(|s| s.0 >= 16)
            .expect("router 0 must have a spine port");
        assert!(
            (16..20).contains(&spine.0),
            "first spine sits right past the 16 leaves: {spine:?}"
        );
    }
}
