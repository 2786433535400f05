//! Property-based tests over the core data structures and invariants,
//! spanning crates through the `netpart` facade.

use proptest::prelude::*;

use netpart::apps::stencil::{sequential_reference, stencil_model, StencilApp, StencilVariant};
use netpart::calibrate::{CommCostModel, FittedCost, PaperCostModel, Testbed};
use netpart::core::SearchStrategy;
use netpart::model::PartitionVector;
use netpart::topology::{crossings, PlacementStrategy, Topology};

proptest! {
    /// Largest-remainder rounding always conserves the PDU count and
    /// leaves no rank a whole PDU above its ideal share. With at least as
    /// many PDUs as ranks every rank holds one; the ranks paying for
    /// those refills may fall more than one PDU below their ideal, so
    /// "within one PDU" is promised only where no refill can happen:
    /// every ideal at least one PDU, or fewer PDUs than ranks. (Two ranks
    /// at 3.53 and four at 0.24 over 8 PDUs become `[2, 2, 1, 1, 1, 1]`;
    /// the model crate's `empty_ranks_take_a_pdu_from_fuller_ones` pins it.)
    #[test]
    fn partition_vector_conserves_pdus(
        shares in prop::collection::vec(0.01f64..100.0, 1..40),
        num_pdus in 1u64..100_000,
    ) {
        let v = PartitionVector::from_real_shares(&shares, num_pdus);
        prop_assert_eq!(v.total(), num_pdus);
        let total: f64 = shares.iter().sum();
        let ideals: Vec<f64> = shares.iter().map(|&s| s / total * num_pdus as f64).collect();
        let no_refill = num_pdus < shares.len() as u64 || ideals.iter().all(|&x| x >= 1.0);
        for (i, &ideal) in ideals.iter().enumerate() {
            let count = v.count(i) as f64;
            prop_assert!(count <= ideal + 1.0, "rank {} got {} vs ideal {}", i, count, ideal);
            if no_refill {
                prop_assert!(count >= ideal - 1.0, "rank {} got {} vs ideal {}", i, count, ideal);
            } else {
                prop_assert!(count >= 1.0, "rank {} left empty", i);
            }
        }
    }

    /// Ranges tile the PDU space exactly: consecutive, disjoint, complete.
    #[test]
    fn partition_ranges_tile_the_domain(
        counts in prop::collection::vec(0u64..500, 1..30),
    ) {
        let v = PartitionVector::from_counts(counts.clone());
        let ranges = v.ranges();
        let mut expected_start = 0;
        for (i, r) in ranges.iter().enumerate() {
            prop_assert_eq!(r.start, expected_start);
            prop_assert_eq!(r.end - r.start, counts[i]);
            expected_start = r.end;
        }
        prop_assert_eq!(expected_start, v.total());
    }

    /// Every PDU has exactly one owner.
    #[test]
    fn owner_of_is_a_function(
        counts in prop::collection::vec(0u64..50, 1..20),
    ) {
        let v = PartitionVector::from_counts(counts);
        for pdu in 0..v.total() {
            let owner = v.owner_of(pdu).expect("every PDU is owned");
            let r = &v.ranges()[owner];
            prop_assert!(r.contains(&pdu));
        }
        prop_assert_eq!(v.owner_of(v.total()), None);
    }

    /// Binary search finds the exact minimum of any unimodal discrete
    /// function (the Fig. 3 assumption), at logarithmic cost.
    #[test]
    fn binary_search_exact_on_unimodal(
        valley in 0u32..200,
        hi in 1u32..200,
        scale in 0.01f64..100.0,
    ) {
        let hi = hi.max(1);
        let valley = valley.min(hi);
        let f = |p: u32| scale * (p as f64 - valley as f64).abs();
        let b = SearchStrategy::Binary.minimize(0, hi, f);
        let e = SearchStrategy::Exhaustive.minimize(0, hi, f);
        prop_assert_eq!(b.argmin, e.argmin);
        prop_assert_eq!(b.min, e.min);
        // ~2 log2 evaluations.
        let bound = 2 * (32 - u32::leading_zeros(hi.max(2))) + 2;
        prop_assert!(b.evaluations <= bound,
            "{} evaluations for range {} (bound {})", b.evaluations, hi, bound);
    }

    /// Golden-section never reports a value worse than exhaustive on
    /// unimodal inputs.
    #[test]
    fn golden_section_optimal_on_unimodal(
        valley in 0u32..100,
        hi in 1u32..100,
    ) {
        let valley = valley.min(hi);
        let f = |p: u32| (p as f64 - valley as f64).powi(2);
        let g = SearchStrategy::GoldenSection.minimize(0, hi, f);
        prop_assert_eq!(g.min, 0.0);
    }

    /// Topology neighbor relations are symmetric and irreflexive for every
    /// pattern and size.
    #[test]
    fn topology_neighbors_symmetric(p in 1u32..64) {
        for topo in [Topology::OneD, Topology::Ring, Topology::TwoD, Topology::Tree, Topology::Broadcast] {
            for r in 0..p {
                let n = topo.neighbors(r, p);
                prop_assert!(!n.contains(&r), "{topo} p={p}: self-loop at {r}");
                for peer in n {
                    prop_assert!(topo.neighbors(peer, p).contains(&r),
                        "{topo} p={p}: {r}->{peer} asymmetric");
                }
            }
        }
    }

    /// Contiguous placement of a 1-D chain crosses clusters exactly
    /// (#non-empty clusters − 1) times — the property the paper's
    /// placement strategy exists to guarantee.
    #[test]
    fn contiguous_placement_minimizes_crossings(
        per_cluster in prop::collection::vec(0u32..8, 1..6),
    ) {
        let assignment = PlacementStrategy::ClusterContiguous.assign(&per_cluster);
        let total: u32 = per_cluster.iter().sum();
        prop_assume!(total >= 2);
        let nonempty = per_cluster.iter().filter(|&&c| c > 0).count() as u32;
        prop_assert_eq!(
            crossings(Topology::OneD, &assignment),
            nonempty - 1
        );
        // Round-robin can only be worse or equal.
        let rr = PlacementStrategy::RoundRobin.assign(&per_cluster);
        prop_assert!(crossings(Topology::OneD, &rr) >= nonempty - 1);
    }

    /// Eq. 1 cost functions are monotone in bytes for non-negative
    /// bandwidth coefficients, and `max(0, ·)` keeps them sane otherwise.
    #[test]
    fn fitted_cost_nonnegative(
        c1 in -5.0f64..5.0,
        c2 in -1.0f64..1.0,
        c3 in -0.01f64..0.01,
        c4 in 0.0f64..0.01,
        bytes in 0.0f64..10_000.0,
        p in 1u32..32,
    ) {
        let f = FittedCost { c1, c2, c3, c4, r_squared: 1.0, abs_fix: false };
        prop_assert!(f.eval_ms(bytes, p) >= 0.0);
        let g = FittedCost { abs_fix: true, ..f };
        prop_assert!(g.eval_ms(bytes, p) >= 0.0);
    }

    /// Eq. 2 composition: the total cost of a multi-cluster configuration
    /// is at least the worst single cluster's cost evaluated at its own
    /// count (router penalties only add).
    #[test]
    fn cross_cluster_cost_dominates_intra(
        p1 in 2u32..7,
        p2 in 2u32..7,
        bytes in 1.0f64..10_000.0,
    ) {
        let m = PaperCostModel;
        let total = m.total_ms(&[p1, p2], Topology::OneD, bytes);
        let intra1 = m.intra_ms(0, Topology::OneD, bytes, p1);
        let intra2 = m.intra_ms(1, Topology::OneD, bytes, p2);
        prop_assert!(total >= intra1.max(intra2) - 1e-9,
            "total {} vs intra ({}, {})", total, intra1, intra2);
    }

    /// Equal decomposition differs from any rank's ideal by at most one.
    #[test]
    fn equal_split_is_balanced(num in 1u64..10_000, p in 1usize..64) {
        let v = PartitionVector::equal(num, p);
        prop_assert_eq!(v.total(), num);
        let lo = num / p as u64;
        for r in 0..p {
            prop_assert!(v.count(r) == lo || v.count(r) == lo + 1);
        }
    }
}

/// Builds the stencil app factory `Scenario::run_recoverable` needs.
fn stencil_factory(
    n: usize,
    iters: u64,
) -> impl FnMut(usize, netpart::AppStart<'_>) -> Result<StencilApp, netpart::model::NetpartError> {
    move |ranks, start| {
        Ok(match start {
            netpart::AppStart::Fresh => StencilApp::new(n, iters, StencilVariant::Sten1, ranks),
            netpart::AppStart::Resume(c) => {
                StencilApp::resume(c, n, iters, StencilVariant::Sten1, ranks)
            }
        })
    }
}

proptest! {
    /// The fault-injection seam is free when unused: a recoverable run
    /// with an **empty** fault schedule is byte-identical — elapsed-time
    /// bits, phase totals, and the canonical rendering of both — to the
    /// plain pipeline run with no fault plan installed, for any problem
    /// size, iteration count, and checkpoint cadence.
    #[test]
    fn empty_fault_schedule_is_byte_transparent(
        n in 16usize..44,
        iters in 2u64..7,
        every in 1u64..4,
    ) {
        use netpart::{CostSource, FaultSchedule, RecoveryPolicy, Scenario};
        let s = Scenario::new(Testbed::paper(), stencil_model(n as u64, StencilVariant::Sten1))
            .with_cost(CostSource::Paper);
        let plan = s.plan().expect("plan");
        let mut app = StencilApp::new(n, iters, StencilVariant::Sten1, plan.ranks());
        let baseline = plan.run(&mut app).expect("plain run");

        let policy = RecoveryPolicy::Replan { max_replans: 2, backoff_ms: 5.0 };
        let (run, rapp) = s
            .run_recoverable(&FaultSchedule::new(), policy, every, stencil_factory(n, iters))
            .expect("recoverable run");

        prop_assert_eq!(run.elapsed_ms.to_bits(), baseline.elapsed_ms.to_bits());
        prop_assert_eq!(run.phases, baseline.phases);
        // Canonical rendering (`{:?}` floats round-trip bits) must match
        // byte for byte — what any table built from these runs prints.
        let render = |e: f64, ph: &netpart::PhaseTotals, g: &[f32]| {
            format!("{:?} {:?} {:?}", e, ph, g)
        };
        prop_assert_eq!(
            render(baseline.elapsed_ms, &baseline.phases, &app.gather()),
            render(run.elapsed_ms, &run.phases, &rapp.gather())
        );
    }

    /// The drift monitor is purely observational: a fault-free run under
    /// `RecoveryPolicy::Adapt` — monitor armed on every cycle — is
    /// byte-identical to the plain pipeline run, for any problem size,
    /// iteration count, and checkpoint cadence. Gray-failure tolerance
    /// costs nothing until something actually drifts.
    #[test]
    fn adapt_without_faults_is_byte_transparent(
        n in 16usize..44,
        iters in 2u64..7,
        every in 1u64..4,
    ) {
        use netpart::{CostSource, FaultSchedule, RecoveryPolicy, Scenario};
        let s = Scenario::new(Testbed::paper(), stencil_model(n as u64, StencilVariant::Sten1))
            .with_cost(CostSource::Paper);
        let plan = s.plan().expect("plan");
        let mut app = StencilApp::new(n, iters, StencilVariant::Sten1, plan.ranks());
        let baseline = plan.run(&mut app).expect("plain run");

        let policy = RecoveryPolicy::Adapt { min_gain: 0.0 };
        let (run, rapp) = s
            .run_recoverable(&FaultSchedule::new(), policy, every, stencil_factory(n, iters))
            .expect("adaptive run");

        let rec = run.recovery.clone().expect("recovery stats");
        prop_assert_eq!(rec.drift_detections, 0);
        prop_assert_eq!(rec.repartitions, 0);
        prop_assert_eq!(run.elapsed_ms.to_bits(), baseline.elapsed_ms.to_bits());
        prop_assert_eq!(run.phases, baseline.phases);
        prop_assert_eq!(rapp.gather(), app.gather());
    }

    /// Any mid-run fail-stop crash that `RecoveryPolicy::Replan` absorbs
    /// still produces the bit-identical sequential answer, wherever the
    /// crash lands and whichever rank it kills.
    #[test]
    fn replanned_crash_preserves_bit_identity(
        n in 20usize..40,
        frac in 0.15f64..0.7,
        victim in 0usize..8,
    ) {
        use netpart::{CostSource, Fault, FaultSchedule, RecoveryPolicy, Scenario};
        let iters = 6u64;
        let s = Scenario::new(Testbed::paper(), stencil_model(n as u64, StencilVariant::Sten1))
            .with_cost(CostSource::Paper);
        let plan = s.plan().expect("plan");
        let mut app = StencilApp::new(n, iters, StencilVariant::Sten1, plan.ranks());
        let fault_free = plan.run(&mut app).expect("fault-free run");

        let faults = FaultSchedule::new().with(Fault::RankCrash {
            at_ms: fault_free.elapsed_ms * frac,
            rank: victim.min(plan.ranks() - 1),
        });
        let policy = RecoveryPolicy::Replan { max_replans: 3, backoff_ms: 5.0 };
        let (run, rapp) = s
            .run_recoverable(&faults, policy, 2, stencil_factory(n, iters))
            .expect("recovery");
        let rec = run.recovery.expect("recovery stats");
        prop_assert!(rec.replans >= 1, "crash at {}x never fired", frac);
        prop_assert_eq!(rapp.gather(), sequential_reference(n, iters));
    }
}
