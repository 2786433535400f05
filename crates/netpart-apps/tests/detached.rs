//! Detached compute parity: a stencil rank's grid update may run on a pool
//! worker between its compute start and its `ComputeDone`, and where it
//! ran must change nothing. Each case runs once with one sweep thread
//! (every pass inline) and once with two (blocks of at least 32 Ki points
//! on the pool), and compares the grids bit for bit, every report field
//! and the message-layer counters. `NETPART_SWEEP_THREADS` overrides both
//! counts, so CI runs this file once under each.

use netpart_apps::stencil::{sequential_reference, StencilApp, StencilVariant};
use netpart_apps::stencil2d::Stencil2DApp;
use netpart_calibrate::Testbed;
use netpart_model::PartitionVector;
use netpart_spmd::{Executor, SpmdApp, SpmdReport};
use netpart_topology::PlacementStrategy;
use proptest::prelude::*;

/// Which app a case runs.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Sten(StencilVariant),
    TwoD,
}

/// Run `kind` over `counts` (one rank per entry, Sparc2s first) with
/// `threads` sweep threads; return the gathered grid's bits and the report.
fn run(kind: Kind, n: usize, iters: u64, counts: &[u64], threads: usize) -> (Vec<u32>, SpmdReport) {
    let p = counts.len();
    let per_cluster = [p.min(6) as u32, (p - p.min(6)) as u32];
    let (mmps, nodes) = Testbed::paper().build(&per_cluster, PlacementStrategy::ClusterContiguous);
    let mut exec = Executor::new(mmps, nodes);
    let vector = PartitionVector::from_counts(counts.to_vec());
    netpart_sweep::set_threads(threads);
    let grid = match kind {
        Kind::Sten(variant) => {
            let mut app = StencilApp::new(n, iters, variant, p);
            let report = run_app(&mut exec, &mut app, &vector);
            (app.gather(), report)
        }
        Kind::TwoD => {
            let mut app = Stencil2DApp::new(n, iters, p);
            let report = run_app(&mut exec, &mut app, &PartitionVector::equal(n as u64, p));
            (app.gather(), report)
        }
    };
    netpart_sweep::set_threads(0);
    (grid.0.iter().map(|x| x.to_bits()).collect(), grid.1)
}

fn run_app(exec: &mut Executor, app: &mut impl SpmdApp, vector: &PartitionVector) -> SpmdReport {
    exec.run(app, vector, false).expect("stencil run")
}

proptest! {
    /// Grids up to N = 512 cut by random row boundaries, so one run holds
    /// blocks on both sides of the 32 Ki-point threshold; STEN-1, STEN-2
    /// and the 2-D decomposition.
    #[test]
    fn detached_and_inline_runs_are_bit_identical(
        n in 2usize..513,
        p in 1usize..9,
        cuts in prop::collection::vec(any::<u64>(), 6..7),
        kind in 0u8..3,
        iters in 1u64..4,
    ) {
        let kind = match kind {
            0 => Kind::Sten(StencilVariant::Sten1),
            1 => Kind::Sten(StencilVariant::Sten2),
            _ => Kind::TwoD,
        };
        let p = p.min(n);
        // p − 1 distinct cut rows in 1..n: every rank owns at least one.
        let mut bounds: Vec<usize> = vec![0, n];
        for &c in &cuts {
            if bounds.len() == p + 1 {
                break;
            }
            let row = 1 + (c % (n as u64 - 1).max(1)) as usize;
            if row < n && !bounds.contains(&row) {
                bounds.push(row);
            }
        }
        // Too few distinct draws: fill with the lowest free rows.
        let mut row = 1;
        while bounds.len() < p + 1 {
            if !bounds.contains(&row) {
                bounds.push(row);
            }
            row += 1;
        }
        bounds.sort_unstable();
        let counts: Vec<u64> = bounds.windows(2).map(|w| (w[1] - w[0]) as u64).collect();

        let (inline_grid, inline) = run(kind, n, iters, &counts, 1);
        let (pool_grid, pool) = run(kind, n, iters, &counts, 2);
        let reference: Vec<u32> = sequential_reference(n, iters).iter().map(|x| x.to_bits()).collect();
        prop_assert!(inline_grid == reference, "{:?} n={} {:?}: inline differs from the reference", kind, n, counts);
        prop_assert!(pool_grid == reference, "{:?} n={} {:?}: pooled differs from the reference", kind, n, counts);
        prop_assert_eq!(inline.elapsed, pool.elapsed);
        prop_assert_eq!(inline.startup, pool.startup);
        prop_assert_eq!(&inline.per_cycle, &pool.per_cycle);
        prop_assert_eq!(&inline.rank_finish, &pool.rank_finish);
        prop_assert_eq!(&inline.compute_time, &pool.compute_time);
        prop_assert_eq!(&inline.wait_time, &pool.wait_time);
        prop_assert_eq!(inline.mmps, pool.mmps);
    }
}
