//! Plan serving: the request/response vocabulary of `netpart::serve` and
//! the fingerprint its cache and single flight key on.

use std::collections::HashMap;
use std::fmt::{self, Write as _};

use netpart_calibrate::{FittedCost, LinearCost};
use netpart_topology::Topology;

use super::scenario::{CostSource, Plan, Scenario};

/// A planning request as submitted to a
/// [`PlanServer`](crate::serve::PlanServer): the scenario to plan.
#[derive(Debug, Clone)]
pub struct PlanRequest {
    /// The scenario to plan.
    pub scenario: Scenario,
}

impl PlanRequest {
    /// A request for `scenario`'s plan.
    pub fn new(scenario: Scenario) -> PlanRequest {
        PlanRequest { scenario }
    }
}

/// Where a served plan came from: `Fresh` from the pipeline, `Cache` a
/// byte-identical plan for the same fingerprint (a cache hit, or the
/// plan of the in-flight duplicate it coalesced onto).
pub use netpart_serve::PlanSource;

/// A served plan (`plan`) plus its [`PlanSource`] and its wall-clock
/// `queue_ms` and `total_ms`.
pub type PlanResponse = netpart_serve::Served<Plan>;

/// FNV-1a state that `Debug` output is written *into*: the rendering is
/// hashed as it is produced instead of being collected in a `String`.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// One FNV step over a whole word, its high half folded onto the low
    /// one first: `f64`s with short mantissas differ only in their top
    /// bits, and a multiplication never carries a difference downwards.
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w ^ (w >> 32)).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn fit(&mut self, f: &FittedCost) {
        for x in [f.c1, f.c2, f.c3, f.c4, f.r_squared] {
            self.word(x.to_bits());
        }
        self.word(u64::from(f.abs_fix));
    }

    fn linear(&mut self, c: &LinearCost) {
        self.word(c.a.to_bits());
        self.word(c.k.to_bits());
    }

    /// One cost table: its length, then every key and value in sorted key
    /// order. A `HashMap` iterates in an order that differs between equal
    /// maps, so hashing its `Debug` form would make equal models
    /// fingerprint apart.
    fn table<K: Copy, V, S>(
        &mut self,
        table: &HashMap<K, V, S>,
        key: impl Fn(K) -> (usize, usize),
        value: impl Fn(&mut Fnv, &V),
    ) {
        let mut entries: Vec<((usize, usize), &V)> =
            table.iter().map(|(&k, v)| (key(k), v)).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        self.word(entries.len() as u64);
        for ((a, b), v) in entries {
            self.word(a as u64);
            self.word(b as u64);
            value(self, v);
        }
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Fingerprint of everything [`Scenario::plan`] depends on: the full
/// testbed description, the application model (the topologies calibrated
/// are a function of it), the cost source, the partitioner options,
/// placement, and distribution.
///
/// FNV-1a over the `Debug` rendering — the same technique as
/// [`calibration_fingerprint`](netpart_calibrate::calibration_fingerprint)
/// — with two departures. A
/// [`CostSource::Fixed`] model is hashed table by table in sorted key
/// order, by the bits of its values, so the fingerprint is a function of
/// the scenario's *content*: two equal scenarios built independently
/// share it, and the plan cache and single-flight see them as one. And
/// every phase's complexity callback is sampled at several PDU counts:
/// callbacks `Debug`-print only as their value at `a = 1`, so two
/// different nonlinear annotations could otherwise collide on one
/// fingerprint and the plan cache would serve a *wrong* plan. Probing at
/// 1, 7, 1000 and 123457 pins the curve, not just one point.
pub fn scenario_fingerprint(s: &Scenario) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    // Writing into the hash state cannot fail.
    let _ = write!(h, "{:?}|{:?}|", s.testbed, s.app);
    match &s.cost {
        CostSource::Fixed(m) => {
            let by_topology = |(cluster, topo): (usize, Topology)| (cluster, topo as usize);
            h.bytes(b"Fixed");
            h.table(&m.intra, by_topology, Fnv::fit);
            h.table(&m.piecewise, by_topology, |h, pw| {
                h.fit(&pw.below);
                h.fit(&pw.above);
                h.word(u64::from(pw.knee_p));
            });
            h.table(&m.router, |pair| pair, Fnv::linear);
            h.table(&m.coerce, |pair| pair, Fnv::linear);
        }
        other => {
            let _ = write!(h, "{other:?}");
        }
    }
    let _ = write!(h, "|{:?}|{:?}|{:?}", s.options, s.placement, s.distribute);
    for phase in s.app.comp_phases() {
        for a in [1.0, 7.0, 1000.0, 123_457.0] {
            let _ = write!(h, "|comp {} @{a}: {:?}", phase.name, phase.ops(a));
        }
    }
    for phase in s.app.comm_phases() {
        for a in [1.0, 7.0, 1000.0, 123_457.0] {
            let _ = write!(h, "|comm {} @{a}: {:?}", phase.name, phase.bytes(a));
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use netpart_apps::stencil::{stencil_model, StencilVariant};
    use netpart_calibrate::{CalibratedCostModel, Testbed, Wiring};
    use netpart_core::{ClusterOrder, PartitionOptions};

    use super::super::testkit::{hop_cost_model, small_scenario};
    use super::*;

    /// A fixed-model scenario built from nothing, tables filled in the
    /// given direction.
    fn fabric_scenario(reversed: bool) -> Scenario {
        let testbed = Testbed::synthetic(12, 4, 1.15).with_wiring(Wiring::Tree { arity: 3 });
        let app = stencil_model(960, StencilVariant::Sten1);
        let filled = hop_cost_model(&testbed, &app);
        let mut cost = CalibratedCostModel::default();
        let mut routers: Vec<_> = filled.router.iter().collect();
        routers.sort_by_key(|(k, _)| **k);
        if reversed {
            routers.reverse();
        }
        for (&(a, b), &c) in routers {
            cost.set_router(a, b, c);
        }
        for (&(cluster, topo), &fit) in &filled.intra {
            cost.set_intra(cluster, topo, fit);
        }
        Scenario::new(testbed, app).with_cost(CostSource::Fixed(cost))
    }

    /// Regression: the fingerprint hashed the `Debug` text of the model's
    /// `HashMap`s, whose iteration order differs between equal maps, so
    /// only a `clone()` of an earlier request ever hit the plan cache.
    #[test]
    fn equal_scenarios_fingerprint_equal_however_they_were_built() {
        let a = fabric_scenario(false);
        let b = fabric_scenario(true);
        let CostSource::Fixed(ma) = &a.cost else {
            unreachable!()
        };
        let CostSource::Fixed(mb) = &b.cost else {
            unreachable!()
        };
        assert!(ma.router == mb.router && ma.intra == mb.intra);
        assert_eq!(scenario_fingerprint(&a), scenario_fingerprint(&b));
        assert_eq!(scenario_fingerprint(&a), scenario_fingerprint(&a.clone()));
    }

    #[test]
    fn any_changed_input_changes_the_fingerprint() {
        let base = fabric_scenario(false);
        let fp = scenario_fingerprint(&base);
        let with_model = |edit: &dyn Fn(&mut CalibratedCostModel)| {
            let mut s = base.clone();
            let CostSource::Fixed(m) = &mut s.cost else {
                unreachable!()
            };
            edit(m);
            scenario_fingerprint(&s)
        };
        // One fit constant, one hop's penalty, a moved entry, a new table.
        assert_ne!(
            fp,
            with_model(&|m| m.intra.values_mut().next().unwrap().c4 += 1e-9)
        );
        assert_ne!(
            fp,
            with_model(&|m| m.router.get_mut(&(2, 7)).unwrap().k *= 2.0)
        );
        assert_ne!(
            fp,
            with_model(&|m| {
                let c = m.router.remove(&(0, 1)).unwrap();
                m.coerce.insert((0, 1), c);
            })
        );
        assert_ne!(
            fp,
            with_model(&|m| m.set_coerce(0, 1, LinearCost::default()))
        );
        // Re-keyed without changing the sorted sequence of values.
        assert_ne!(
            fp,
            with_model(&|m| {
                let first = m.router.remove(&(0, 1)).unwrap();
                m.router.insert((0, 0), first);
            })
        );
        let mut s = base.clone();
        s.testbed.seed += 1;
        assert_ne!(fp, scenario_fingerprint(&s));
        let mut s = base.clone();
        s.options = PartitionOptions {
            order: ClusterOrder::SlowestFirst,
            ..PartitionOptions::default()
        };
        assert_ne!(fp, scenario_fingerprint(&s));
        let mut s = base.clone();
        s.distribute = true;
        assert_ne!(fp, scenario_fingerprint(&s));
    }

    /// Scenarios without a fixed model keep the fingerprint they had when
    /// the rendering was collected in a `String` and hashed afterwards.
    #[test]
    fn streaming_the_rendering_hashes_what_collecting_it_hashed() {
        let s = small_scenario();
        let mut repr = format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            s.testbed, s.app, s.cost, s.options, s.placement, s.distribute
        );
        for phase in s.app.comp_phases() {
            for a in [1.0, 7.0, 1000.0, 123_457.0] {
                repr.push_str(&format!("|comp {} @{a}: {:?}", phase.name, phase.ops(a)));
            }
        }
        for phase in s.app.comm_phases() {
            for a in [1.0, 7.0, 1000.0, 123_457.0] {
                repr.push_str(&format!("|comm {} @{a}: {:?}", phase.name, phase.bytes(a)));
            }
        }
        let mut collected = Fnv(0xcbf2_9ce4_8422_2325);
        collected.bytes(repr.as_bytes());
        assert_eq!(scenario_fingerprint(&s), collected.0);
    }
}
