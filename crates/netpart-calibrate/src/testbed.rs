//! Testbed descriptions: reusable recipes for building simulated networks
//! shaped like the paper's — clusters of homogeneous machines, one cluster
//! per ethernet segment — wired together by a selectable
//! [`Wiring`] (the paper's single router by default; router trees,
//! fat-trees, and dumbbells for the scale experiments).
//!
//! `Testbed` is a thin, paper-shaped constructor over the general
//! [`Fabric`] layer in `netpart-sim`: [`Testbed::fabric`] lowers the
//! cluster list + wiring to a `Fabric` description, and
//! [`Testbed::try_build`] validates and builds it.

use netpart_mmps::{Mmps, MmpsConfig};
use netpart_model::NetpartError;
use netpart_sim::{Fabric, NodeId, ProcType, RouterSpec, SegmentSpec, SimError, Wiring};
use netpart_topology::PlacementStrategy;

/// One homogeneous cluster: a machine class and how many of them exist.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// The machine class of every node in the cluster.
    pub proc_type: ProcType,
    /// Total workstations in the cluster.
    pub nodes: u32,
}

/// A whole testbed: clusters (one per leaf segment) wired together per
/// [`Wiring`] — the paper's Fig. 1 single router by default.
#[derive(Debug, Clone)]
pub struct Testbed {
    /// The clusters, in cluster-index order.
    pub clusters: Vec<ClusterSpec>,
    /// Segment recipe shared by all segments (the paper assumes equal
    /// communication bandwidth per segment).
    pub segment: SegmentSpec,
    /// Router recipe (port lists filled in by the fabric generator).
    pub router: RouterSpec,
    /// Message layer configuration.
    pub mmps: MmpsConfig,
    /// Simulation seed.
    pub seed: u64,
    /// How the cluster leaf segments are wired together:
    /// [`Wiring::Star`] (default) is the paper's Fig. 1 single router;
    /// [`Wiring::Pairwise`] the literal reading of assumption 3 (a
    /// dedicated router per segment pair); trees, fat-trees, dumbbells,
    /// and custom port lists give the hierarchical fabrics the scale
    /// experiments run on.
    pub wiring: Wiring,
}

impl Testbed {
    /// The paper's §6 testbed: 6 SPARCstation 2s and 6 Sun4 IPCs on two
    /// ethernet segments joined by a router.
    pub fn paper() -> Testbed {
        Testbed {
            clusters: vec![
                ClusterSpec {
                    proc_type: ProcType::sparcstation_2(),
                    nodes: 6,
                },
                ClusterSpec {
                    proc_type: ProcType::sun4_ipc(),
                    nodes: 6,
                },
            ],
            segment: SegmentSpec::ethernet_10mbps(),
            router: RouterSpec::paper_router(Vec::new()),
            mmps: MmpsConfig::default(),
            seed: 1994,
            wiring: Wiring::Star,
        }
    }

    /// A three-cluster metasystem (paper §7's future-work scenario):
    /// RS/6000s, HP 9000s and Sparc2s, with differing data formats so
    /// coercion costs apply.
    pub fn metasystem() -> Testbed {
        Testbed {
            clusters: vec![
                ClusterSpec {
                    proc_type: ProcType::rs6000(),
                    nodes: 4,
                },
                ClusterSpec {
                    proc_type: ProcType::hp9000(),
                    nodes: 4,
                },
                ClusterSpec {
                    proc_type: ProcType::sparcstation_2(),
                    nodes: 6,
                },
            ],
            segment: SegmentSpec::ethernet_10mbps(),
            router: RouterSpec::paper_router(Vec::new()),
            mmps: MmpsConfig::default(),
            seed: 1994,
            wiring: Wiring::Star,
        }
    }

    /// A synthetic testbed of `k` clusters with `nodes_per` machines
    /// each, speeds spread geometrically from the Sparc2 baseline (each
    /// cluster `spread`× slower than the previous). Used by the
    /// scalability experiment to exercise the partitioner on systems far
    /// larger than the paper's K=2, P=12.
    pub fn synthetic(k: usize, nodes_per: u32, spread: f64) -> Testbed {
        assert!(k >= 1);
        let clusters = (0..k)
            .map(|i| {
                let mut pt = ProcType::sparcstation_2();
                let factor = spread.powi(i as i32);
                pt.name = format!("C{i}");
                pt.sec_per_flop *= factor;
                pt.sec_per_intop *= factor;
                ClusterSpec {
                    proc_type: pt,
                    nodes: nodes_per,
                }
            })
            .collect();
        Testbed {
            clusters,
            segment: SegmentSpec::ethernet_10mbps(),
            router: RouterSpec::paper_router(Vec::new()),
            mmps: MmpsConfig::default(),
            seed: 1994,
            wiring: Wiring::Star,
        }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Available node counts per cluster.
    pub fn capacities(&self) -> Vec<u32> {
        self.clusters.iter().map(|c| c.nodes).collect()
    }

    /// Replace the wiring (builder style).
    pub fn with_wiring(mut self, wiring: Wiring) -> Testbed {
        self.wiring = wiring;
        self
    }

    /// Lower this testbed to its [`Fabric`] description: cluster `k`'s
    /// machines sit on leaf segment `k`, wired per [`Testbed::wiring`].
    /// The fabric is data — validate it, inspect hop distances, or build
    /// the runtime network from it.
    pub fn fabric(&self) -> Fabric {
        let members: Vec<(ProcType, u32)> = self
            .clusters
            .iter()
            .map(|c| (c.proc_type.clone(), c.nodes))
            .collect();
        self.wiring
            .generate(&members, &self.segment, &self.router, self.seed)
    }

    /// Router hops between every cluster pair (0 on the diagonal),
    /// computed from the fabric's routing graph. Unreachable pairs —
    /// possible only with [`Wiring::Custom`] — surface as
    /// [`NetpartError::InvalidFabric`], the same error `try_build` and
    /// `Scenario::plan()` report.
    pub fn cluster_hops(&self) -> Result<Vec<Vec<u32>>, NetpartError> {
        self.searched(|fabric, k| fabric.leaf_hop_matrix(k))
    }

    /// [`cluster_hops`](Self::cluster_hops)' verdict — `Ok`, or exactly
    /// the error it returns — for one breadth-first search instead of
    /// `K`. Router paths run both ways, so some pair is unreachable
    /// exactly when some cluster is unreachable from cluster 0, and the
    /// matrix meets row 0 first: its first error is `(0, b)` for the first
    /// such `b`. The search also catches a cluster with no nodes and no
    /// router port, which fabric validation does not look at.
    pub fn check_fabric(&self) -> Result<(), NetpartError> {
        self.searched(|fabric, k| vec![fabric.leaf_hops_from(0, k)])
            .map(|_| ())
    }

    /// Validate the fabric, run `search` over it for rows of hop
    /// distances between the `K` clusters, and report the first
    /// unreachable pair as [`NetpartError::InvalidFabric`].
    fn searched(
        &self,
        search: impl FnOnce(&Fabric, usize) -> Vec<Vec<Option<u32>>>,
    ) -> Result<Vec<Vec<u32>>, NetpartError> {
        let fabric = self.fabric();
        fabric.validate().map_err(map_sim_err)?;
        search(&fabric, self.clusters.len())
            .into_iter()
            .enumerate()
            .map(|(a, row)| {
                row.into_iter()
                    .enumerate()
                    .map(|(b, d)| {
                        d.ok_or_else(|| {
                            NetpartError::InvalidFabric(format!(
                                "no router path joins cluster {a} and cluster {b}"
                            ))
                        })
                    })
                    .collect()
            })
            .collect()
    }

    /// Build a network using `per_cluster[k]` nodes from cluster `k` and
    /// return the message layer plus the task placement (rank → node).
    ///
    /// Every cluster's full node population is instantiated (idle nodes
    /// still exist physically); only the selected ones receive tasks.
    /// Under the default [`Wiring::Star`] a single router joins all
    /// segments, so any pair of clusters is one hop apart, as the paper's
    /// network model assumes; hierarchical wirings put more routers — and
    /// more hops — between cluster pairs.
    ///
    /// # Panics
    /// If `per_cluster` is longer than the cluster list or requests more
    /// nodes than a cluster has. [`Testbed::try_build`] is the fallible
    /// variant the pipeline uses.
    pub fn build(&self, per_cluster: &[u32], placement: PlacementStrategy) -> (Mmps, Vec<NodeId>) {
        self.try_build(per_cluster, placement)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Testbed::build`]: returns
    /// [`NetpartError::ClusterOvercommitted`] when a cluster is asked for
    /// more nodes than it has, [`NetpartError::InvalidScenario`] when
    /// `per_cluster` names more clusters than exist,
    /// [`NetpartError::InvalidFabric`] when the wiring fails fabric
    /// validation (dangling/duplicate router ports, a partitioned
    /// fabric), and [`NetpartError::Network`] when the network
    /// description is otherwise malformed.
    pub fn try_build(
        &self,
        per_cluster: &[u32],
        placement: PlacementStrategy,
    ) -> Result<(Mmps, Vec<NodeId>), NetpartError> {
        let nodes = self.place(per_cluster, placement)?;
        Ok((self.simulator()?, nodes))
    }

    /// The placement half of [`Testbed::try_build`], which builds
    /// nothing: the rank → node mapping for `per_cluster` under
    /// `placement`, with `try_build`'s configuration errors. The network
    /// does not depend on `per_cluster` — every cluster's full population
    /// is instantiated — so one built (or reset) simulator serves every
    /// configuration of its testbed.
    pub(crate) fn place(
        &self,
        per_cluster: &[u32],
        placement: PlacementStrategy,
    ) -> Result<Vec<NodeId>, NetpartError> {
        if per_cluster.len() > self.clusters.len() {
            return Err(NetpartError::InvalidScenario(format!(
                "configuration names {} clusters but the testbed has {}",
                per_cluster.len(),
                self.clusters.len()
            )));
        }
        for (k, (&asked, spec)) in per_cluster.iter().zip(&self.clusters).enumerate() {
            if asked > spec.nodes {
                return Err(NetpartError::ClusterOvercommitted {
                    cluster: k,
                    have: spec.nodes,
                    asked,
                });
            }
        }
        // Generator invariant: nodes are cluster-contiguous in cluster
        // order, so cluster k's node ids are one dense run from `first[k]`.
        let first: Vec<u32> = self
            .clusters
            .iter()
            .scan(0, |next, spec| {
                let first = *next;
                *next += spec.nodes;
                Some(first)
            })
            .collect();

        // Rank → node mapping per the placement strategy. The per-cluster
        // totals were bounds-checked above, so every id is in its run.
        let assignment = placement.assign(per_cluster);
        let mut next_in_cluster = vec![0u32; self.clusters.len()];
        let mut nodes = Vec::with_capacity(assignment.len());
        for &cluster in &assignment {
            let k = cluster as usize;
            debug_assert!(next_in_cluster[k] < self.clusters[k].nodes);
            nodes.push(NodeId(first[k] + next_in_cluster[k]));
            next_in_cluster[k] += 1;
        }
        Ok(nodes)
    }

    /// The build half of [`Testbed::try_build`]: the whole testbed's
    /// network under its message layer, with `try_build`'s fabric and
    /// network errors.
    pub(crate) fn simulator(&self) -> Result<Mmps, NetpartError> {
        let net = self.fabric().build().map_err(map_sim_err)?;
        Ok(Mmps::new(net, self.mmps.clone()))
    }
}

/// Map a simulator build error to the workspace error type: fabric
/// validation failures keep their typed identity, everything else stays a
/// generic network error.
fn map_sim_err(e: SimError) -> NetpartError {
    match e {
        SimError::InvalidFabric(msg) => NetpartError::InvalidFabric(msg),
        other => NetpartError::Network(format!("testbed network is malformed: {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shape() {
        let t = Testbed::paper();
        assert_eq!(t.num_clusters(), 2);
        assert_eq!(t.capacities(), vec![6, 6]);
        let s = |i: usize| t.clusters[i].proc_type.sec_per_flop;
        assert!((s(1) / s(0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn build_places_contiguously() {
        let t = Testbed::paper();
        let (mmps, nodes) = t.build(&[3, 2], PlacementStrategy::ClusterContiguous);
        assert_eq!(nodes.len(), 5);
        // First three ranks on segment 0, last two on segment 1.
        let net = mmps.net_ref();
        for (rank, &n) in nodes.iter().enumerate() {
            let seg = net.node(n).segment;
            assert_eq!(seg.0, u16::from(rank >= 3), "rank {rank}");
        }
        // All 12 physical nodes exist even though only 5 are used.
        assert_eq!(net.num_nodes(), 12);
    }

    #[test]
    fn build_round_robin_alternates_segments() {
        let t = Testbed::paper();
        let (mmps, nodes) = t.build(&[2, 2], PlacementStrategy::RoundRobin);
        let net = mmps.net_ref();
        let segs: Vec<u16> = nodes.iter().map(|&n| net.node(n).segment.0).collect();
        assert_eq!(segs, vec![0, 1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "has only")]
    fn overcommitting_a_cluster_panics() {
        let t = Testbed::paper();
        let _ = t.build(&[7, 0], PlacementStrategy::ClusterContiguous);
    }

    #[test]
    fn pairwise_routers_route_every_pair() {
        let mut t = Testbed::metasystem();
        t.wiring = Wiring::Pairwise;
        let (mmps, _) = t.build(&[1, 1, 1], PlacementStrategy::ClusterContiguous);
        let net = mmps.net_ref();
        // One node per segment: every pair must be mutually reachable.
        let picks: Vec<_> = (0..3u16)
            .map(|s| net.nodes_on_segment(netpart_sim::SegmentId(s))[0])
            .collect();
        for i in 0..3 {
            for j in 0..3 {
                assert!(net.route_exists(picks[i], picks[j]), "{i}→{j}");
            }
        }
    }

    #[test]
    fn pairwise_routers_do_not_share_a_forwarding_engine() {
        // Under the shared router, simultaneous (0→1) and (2→1) traffic
        // serializes in one forwarding engine; pairwise routers forward
        // independently. Make forwarding the bottleneck (slow per-byte
        // engine) so the difference is unambiguous.
        use bytes::Bytes;
        use netpart_sim::SimEvent;
        let run = |pairwise: bool| -> u64 {
            let mut t = Testbed::metasystem();
            t.wiring = if pairwise {
                Wiring::Pairwise
            } else {
                Wiring::Star
            };
            t.router.per_byte_sec = 5.0e-6;
            let (mut mmps, _) = t.build(&[0, 0, 0], PlacementStrategy::ClusterContiguous);
            let net = mmps.net();
            let n0 = net.nodes_on_segment(netpart_sim::SegmentId(0))[0];
            let n1 = net.nodes_on_segment(netpart_sim::SegmentId(1))[0];
            let n2 = net.nodes_on_segment(netpart_sim::SegmentId(2))[0];
            for k in 0..10u64 {
                net.send_datagram(n0, n1, k, Bytes::from(vec![0u8; 1400]))
                    .unwrap();
                net.send_datagram(n2, n1, 100 + k, Bytes::from(vec![0u8; 1400]))
                    .unwrap();
            }
            let mut last = 0;
            while let Some(evt) = net.next_event() {
                if let SimEvent::DatagramDelivered { at, .. } = evt {
                    last = at.as_nanos();
                }
            }
            last
        };
        let shared = run(false);
        let pairwise = run(true);
        assert!(
            pairwise * 10 < shared * 7,
            "pairwise {pairwise} should clearly beat shared {shared}"
        );
    }

    #[test]
    fn hierarchical_wirings_build_and_route() {
        for wiring in [
            Wiring::Tree { arity: 2 },
            Wiring::FatTree { pod: 2, spines: 2 },
            Wiring::Dumbbell,
        ] {
            let t = Testbed::synthetic(4, 2, 1.2).with_wiring(wiring.clone());
            let (mmps, nodes) = t.build(&[1, 1, 1, 1], PlacementStrategy::ClusterContiguous);
            let net = mmps.net_ref();
            for i in 0..4 {
                for j in 0..4 {
                    assert!(net.route_exists(nodes[i], nodes[j]), "{wiring:?} {i}→{j}");
                }
            }
        }
    }

    #[test]
    fn cluster_hops_reflect_the_wiring() {
        let t = Testbed::synthetic(4, 2, 1.2);
        let hops = t.cluster_hops().unwrap();
        assert_eq!(hops[0][0], 0);
        assert_eq!(hops[0][3], 1, "star: every pair one hop");

        let t = t.with_wiring(Wiring::Tree { arity: 2 });
        let hops = t.cluster_hops().unwrap();
        assert_eq!(hops[0][1], 1);
        assert_eq!(hops[0][2], 3, "tree: cross-subtree pairs go up and down");

        let t = t.with_wiring(Wiring::Dumbbell);
        let hops = t.cluster_hops().unwrap();
        assert_eq!(hops[0][1], 1);
        assert_eq!(hops[1][2], 2, "dumbbell: cross-half pairs cross the trunk");
    }

    #[test]
    fn partitioned_custom_wiring_is_a_typed_error() {
        // Router joins clusters {0,1}; cluster 2 is unreachable.
        let t = Testbed::synthetic(3, 2, 1.2).with_wiring(Wiring::Custom(vec![vec![0, 1]]));
        let err = match t.try_build(&[1, 1, 1], PlacementStrategy::ClusterContiguous) {
            Err(e) => e,
            Ok(_) => panic!("partitioned fabric must not build"),
        };
        assert!(
            matches!(err, NetpartError::InvalidFabric(_)),
            "expected InvalidFabric, got {err:?}"
        );
        assert!(err.to_string().contains("partitioned"), "{err}");
        let err = t.cluster_hops().unwrap_err();
        assert!(matches!(err, NetpartError::InvalidFabric(_)));
    }

    #[test]
    fn metasystem_has_three_formats() {
        let t = Testbed::metasystem();
        let formats: std::collections::HashSet<u16> =
            t.clusters.iter().map(|c| c.proc_type.data_format).collect();
        assert_eq!(formats.len(), 3, "coercion must apply between all pairs");
    }
}
#[cfg(test)]
mod synthetic_tests {
    use super::*;

    #[test]
    fn synthetic_spreads_speeds_geometrically() {
        let t = Testbed::synthetic(4, 8, 1.5);
        assert_eq!(t.num_clusters(), 4);
        assert_eq!(t.capacities(), vec![8, 8, 8, 8]);
        let s = |i: usize| t.clusters[i].proc_type.sec_per_flop;
        for i in 1..4 {
            assert!((s(i) / s(i - 1) - 1.5).abs() < 1e-9);
        }
    }

    #[test]
    fn synthetic_builds_and_routes() {
        let t = Testbed::synthetic(5, 2, 2.0);
        let (mmps, nodes) = t.build(&[1, 1, 1, 1, 1], PlacementStrategy::ClusterContiguous);
        assert_eq!(nodes.len(), 5);
        let net = mmps.net_ref();
        for i in 0..5 {
            for j in 0..5 {
                assert!(net.route_exists(nodes[i], nodes[j]));
            }
        }
    }
}
