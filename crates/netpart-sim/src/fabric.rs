//! The fabric layer: a declarative description of a whole network — nodes,
//! shared-medium segments, and multi-port routers as a general graph —
//! with generators for the standard shapes and build-time validation.
//!
//! A [`Fabric`] is data, not behaviour: it can be inspected (hop
//! distances, port lists), validated ([`Fabric::validate`] returns typed
//! [`SimError::InvalidFabric`] errors instead of letting a malformed
//! description silently drop traffic at run time), and lowered to a
//! runtime [`Network`] with [`Fabric::build`].
//!
//! # Graph model
//!
//! The fabric is a bipartite graph: segments on one side, routers on the
//! other, an edge wherever a router has a port on a segment. A path
//! between two segments alternates segment → router → segment; the *hop
//! distance* between two segments is the number of routers crossed.
//! Nodes sit on exactly one segment each. The paper's Fig. 1 testbed is
//! the one-router [`star`](Fabric::star) instance of this model;
//! [`tree`](Fabric::tree), [`fat_tree`](Fabric::fat_tree) and
//! [`dumbbell`](Fabric::dumbbell) generate the multi-router hierarchies
//! the scale experiments run on.
//!
//! # Routing
//!
//! `compute_routes` lowers the graph to a dense next-hop table: for
//! every (current segment, destination segment) pair, the router to hand
//! the frame to and the segment it forwards onto. Routes are shortest
//! paths found by breadth-first search that visits routers in index order
//! and their ports in declared order, so route choice is deterministic
//! and — on single-hop fabrics — picks the same (lowest-index) router the
//! pre-fabric simulator did. Equal-cost multipath is *not* modelled: one
//! (cur, dst) pair always uses one next hop.

use std::collections::VecDeque;

use crate::error::SimError;
use crate::ids::{ProcTypeId, RouterId, SegmentId};
use crate::network::{Network, NetworkBuilder};
use crate::node::ProcType;
use crate::router::{Router, RouterSpec};
use crate::segment::SegmentSpec;
use crate::time::SimTime;

/// A member cluster handed to the fabric generators: a machine class and
/// how many stations of it sit on the cluster's leaf segment.
pub type FabricCluster = (ProcType, u32);

/// Which fabric generator wires the cluster leaf segments together.
/// Selects among the [`Fabric`] constructors; the paper's Fig. 1 is
/// [`Wiring::Star`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Wiring {
    /// One router joining every leaf segment (the paper's Fig. 1).
    #[default]
    Star,
    /// A dedicated two-port router per segment pair (the literal reading
    /// of the paper's assumption 3).
    Pairwise,
    /// A router tree of the given arity with trunk segments between
    /// levels ([`Fabric::tree`]).
    Tree {
        /// Segments joined per router (≥ 2), including the uplink trunk.
        arity: usize,
    },
    /// A two-tier leaf–spine fat-tree ([`Fabric::fat_tree`]).
    FatTree {
        /// Leaf segments per pod router.
        pod: usize,
        /// Number of spine trunk segments.
        spines: usize,
    },
    /// Two access routers sharing one bottleneck trunk
    /// ([`Fabric::dumbbell`], trunk spec = leaf spec).
    Dumbbell,
    /// Arbitrary routers over leaf-segment indices ([`Fabric::custom`]);
    /// the escape hatch for irregular — including deliberately invalid —
    /// shapes.
    Custom(Vec<Vec<usize>>),
}

impl Wiring {
    /// Run the selected generator.
    pub fn generate(
        &self,
        members: &[FabricCluster],
        segment: &SegmentSpec,
        router: &RouterSpec,
        seed: u64,
    ) -> Fabric {
        match self {
            Wiring::Star => Fabric::star(members, segment, router, seed),
            Wiring::Pairwise => Fabric::pairwise(members, segment, router, seed),
            Wiring::Tree { arity } => Fabric::tree(members, *arity, segment, router, seed),
            Wiring::FatTree { pod, spines } => {
                Fabric::fat_tree(members, *pod, *spines, segment, router, seed)
            }
            Wiring::Dumbbell => Fabric::dumbbell(members, segment, segment, router, seed),
            Wiring::Custom(ports) => Fabric::custom(members, segment, router, ports, seed),
        }
    }
}

/// A complete, declarative network description. Public fields: a fabric
/// is plain data, assembled either by the generator constructors or by
/// hand for irregular shapes.
///
/// Generator invariant (relied on by the layers above): segment `k` for
/// `k < K` is cluster `k`'s leaf segment, nodes are listed
/// cluster-contiguously in cluster order, and proc type `k` belongs to
/// cluster `k`. Trunk segments, if any, follow the leaf segments.
#[derive(Debug, Clone)]
pub struct Fabric {
    /// Machine classes, one per cluster for generated fabrics.
    pub proc_types: Vec<ProcType>,
    /// All segments: leaf segments first (one per cluster), then trunks.
    pub segments: Vec<SegmentSpec>,
    /// Routers; each port list names the segments the router joins.
    pub routers: Vec<RouterSpec>,
    /// Stations: (machine class, home segment), cluster-contiguous.
    pub nodes: Vec<(ProcTypeId, SegmentId)>,
    /// Simulation seed (drives the loss model and nothing else).
    pub seed: u64,
}

impl Fabric {
    // ---- generators ------------------------------------------------------

    /// Leaf segments and nodes shared by every generator; routers are
    /// added by the caller.
    fn leaves(members: &[FabricCluster], segment: &SegmentSpec, seed: u64) -> Fabric {
        let mut f = Fabric {
            proc_types: Vec::with_capacity(members.len()),
            segments: Vec::with_capacity(members.len()),
            routers: Vec::new(),
            nodes: Vec::new(),
            seed,
        };
        for (k, (pt, count)) in members.iter().enumerate() {
            f.proc_types.push(pt.clone());
            f.segments.push(segment.clone());
            for _ in 0..*count {
                f.nodes.push((ProcTypeId(k as u16), SegmentId(k as u16)));
            }
        }
        f
    }

    /// Append a trunk segment and return its id.
    fn add_trunk(&mut self, spec: &SegmentSpec) -> SegmentId {
        self.segments.push(spec.clone());
        SegmentId((self.segments.len() - 1) as u16)
    }

    /// Append a router from the template with the given port list.
    fn add_router(&mut self, template: &RouterSpec, ports: Vec<SegmentId>) {
        let mut r = template.clone();
        r.segments = ports;
        self.routers.push(r);
    }

    /// The paper's Fig. 1 shape: one leaf segment per cluster, one router
    /// joining every segment (no router at all for a single cluster).
    /// `router.segments` is ignored and replaced.
    pub fn star(
        members: &[FabricCluster],
        segment: &SegmentSpec,
        router: &RouterSpec,
        seed: u64,
    ) -> Fabric {
        let mut f = Fabric::leaves(members, segment, seed);
        if members.len() > 1 {
            let ports = (0..members.len() as u16).map(SegmentId).collect();
            f.add_router(router, ports);
        }
        f
    }

    /// The literal reading of the paper's assumption 3: a dedicated
    /// two-port router for every segment pair, in lexicographic pair
    /// order.
    pub fn pairwise(
        members: &[FabricCluster],
        segment: &SegmentSpec,
        router: &RouterSpec,
        seed: u64,
    ) -> Fabric {
        let mut f = Fabric::leaves(members, segment, seed);
        for i in 0..members.len() as u16 {
            for j in i + 1..members.len() as u16 {
                f.add_router(router, vec![SegmentId(i), SegmentId(j)]);
            }
        }
        f
    }

    /// A router tree of the given arity: leaf segments are grouped into
    /// chunks of `arity`, each chunk joined by a router that uplinks onto
    /// a trunk segment, and the trunks are grouped recursively until one
    /// router spans the top level. Cross-cluster hop distance grows
    /// logarithmically with the cluster count.
    pub fn tree(
        members: &[FabricCluster],
        arity: usize,
        segment: &SegmentSpec,
        router: &RouterSpec,
        seed: u64,
    ) -> Fabric {
        let arity = arity.max(2);
        let mut f = Fabric::leaves(members, segment, seed);
        let mut level: Vec<SegmentId> = (0..members.len() as u16).map(SegmentId).collect();
        while level.len() > 1 {
            if level.len() <= arity {
                f.add_router(router, level.clone());
                break;
            }
            let mut next = Vec::new();
            for chunk in level.chunks(arity) {
                let trunk = f.add_trunk(segment);
                let mut ports = chunk.to_vec();
                ports.push(trunk);
                f.add_router(router, ports);
                next.push(trunk);
            }
            level = next;
        }
        f
    }

    /// A two-tier leaf–spine fat-tree: leaf segments are grouped into
    /// pods of `pod` clusters; each pod's router joins the pod's leaves
    /// plus every spine trunk, so any two clusters are at most two router
    /// hops apart. `spines` trunk segments exist for port-count realism;
    /// the deterministic shortest-path routing always selects one of them
    /// per (source, destination) pair (equal-cost multipath is not
    /// modelled).
    pub fn fat_tree(
        members: &[FabricCluster],
        pod: usize,
        spines: usize,
        segment: &SegmentSpec,
        router: &RouterSpec,
        seed: u64,
    ) -> Fabric {
        let pod = pod.max(1);
        let spines = spines.max(1);
        let mut f = Fabric::leaves(members, segment, seed);
        if members.len() <= 1 {
            return f;
        }
        let spine_segs: Vec<SegmentId> = (0..spines).map(|_| f.add_trunk(segment)).collect();
        let leaf_ids: Vec<SegmentId> = (0..members.len() as u16).map(SegmentId).collect();
        for chunk in leaf_ids.chunks(pod) {
            let mut ports = chunk.to_vec();
            ports.extend_from_slice(&spine_segs);
            f.add_router(router, ports);
        }
        f
    }

    /// A dumbbell: the clusters are split into two halves, each half's
    /// leaves joined by an access router, and the two access routers
    /// share a single bottleneck trunk segment. All cross-half traffic
    /// serializes through the trunk.
    pub fn dumbbell(
        members: &[FabricCluster],
        segment: &SegmentSpec,
        trunk: &SegmentSpec,
        router: &RouterSpec,
        seed: u64,
    ) -> Fabric {
        let mut f = Fabric::leaves(members, segment, seed);
        let k = members.len();
        if k <= 1 {
            return f;
        }
        if k == 2 {
            // Two clusters: the "dumbbell" degenerates to one router.
            f.add_router(router, vec![SegmentId(0), SegmentId(1)]);
            return f;
        }
        let mid = k.div_ceil(2);
        let bottleneck = f.add_trunk(trunk);
        let mut left: Vec<SegmentId> = (0..mid as u16).map(SegmentId).collect();
        left.push(bottleneck);
        f.add_router(router, left);
        let mut right: Vec<SegmentId> = (mid as u16..k as u16).map(SegmentId).collect();
        right.push(bottleneck);
        f.add_router(router, right);
        f
    }

    /// An arbitrary wiring over the leaf segments: one router per entry
    /// of `routers`, whose ports are leaf-segment indices. No checking
    /// happens here — [`Fabric::validate`] is where dangling ports,
    /// duplicate ports, and partitioned shapes surface as typed errors,
    /// which is exactly what makes this constructor useful for testing
    /// the guard.
    pub fn custom(
        members: &[FabricCluster],
        segment: &SegmentSpec,
        router: &RouterSpec,
        routers: &[Vec<usize>],
        seed: u64,
    ) -> Fabric {
        let mut f = Fabric::leaves(members, segment, seed);
        for ports in routers {
            f.add_router(router, ports.iter().map(|&i| SegmentId(i as u16)).collect());
        }
        f
    }

    // ---- inspection ------------------------------------------------------

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.routers.len()
    }

    /// Router hops between two segments: 0 for a segment and itself,
    /// `None` when no router path joins them. Computed by the same
    /// breadth-first search that builds the routing table.
    pub fn hop_distance(&self, a: SegmentId, b: SegmentId) -> Option<u32> {
        if a == b {
            return Some(0);
        }
        let n = self.segments.len();
        if a.index() >= n || b.index() >= n {
            return None;
        }
        self.leaf_hops_from(a.index(), n)[b.index()]
    }

    /// Hop distances from segment `src` to the first `leaves` segments:
    /// one breadth-first search, `None` where no router path leads.
    pub fn leaf_hops_from(&self, src: usize, leaves: usize) -> Vec<Option<u32>> {
        let attached = attachment_lists(self.segments.len(), &self.routers);
        self.hops_row(src, leaves, &attached)
    }

    fn hops_row(&self, src: usize, leaves: usize, attached: &[Vec<usize>]) -> Vec<Option<u32>> {
        let n = self.segments.len();
        let mut dist = vec![None; n];
        if src < n {
            let mut first_hop = vec![None; n];
            bfs_from(
                src,
                &self.routers,
                attached,
                SimTime::ZERO,
                &mut first_hop,
                &mut dist,
            );
        }
        dist.truncate(leaves);
        dist
    }

    /// Hop distances between the first `leaves` segments — the cluster
    /// leaf segments of a generated fabric — as a dense matrix.
    /// `None` marks unreachable pairs (a partitioned fabric). One
    /// breadth-first search per row, so this is cheap enough to call at
    /// calibration time.
    pub fn leaf_hop_matrix(&self, leaves: usize) -> Vec<Vec<Option<u32>>> {
        let n = self.segments.len();
        let k = leaves.min(n);
        let attached = attachment_lists(n, &self.routers);
        (0..k).map(|src| self.hops_row(src, k, &attached)).collect()
    }

    // ---- validation and lowering ----------------------------------------

    /// Validate the description: every node and router port must name an
    /// existing entity, no router may list a port twice or join fewer
    /// than two segments, and every populated segment must be reachable
    /// from every other (the fabric must not be partitioned). Returns
    /// [`SimError::InvalidFabric`] naming the offender.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.segments.is_empty() || self.nodes.is_empty() {
            return Err(SimError::InvalidFabric(
                "fabric has no segments or no nodes".into(),
            ));
        }
        for (i, (pt, seg)) in self.nodes.iter().enumerate() {
            if pt.index() >= self.proc_types.len() {
                return Err(SimError::InvalidFabric(format!(
                    "node n{i} references unknown proc type {pt}"
                )));
            }
            if seg.index() >= self.segments.len() {
                return Err(SimError::InvalidFabric(format!(
                    "node n{i} sits on unknown segment {seg}"
                )));
            }
        }
        for (ri, r) in self.routers.iter().enumerate() {
            let mut seen = vec![false; self.segments.len()];
            for s in &r.segments {
                if s.index() >= self.segments.len() {
                    return Err(SimError::InvalidFabric(format!(
                        "router r{ri} has a port on unknown segment {s}"
                    )));
                }
                if seen[s.index()] {
                    return Err(SimError::InvalidFabric(format!(
                        "router r{ri} lists {s} twice"
                    )));
                }
                seen[s.index()] = true;
            }
            if r.segments.len() < 2 {
                return Err(SimError::InvalidFabric(format!(
                    "router r{ri} joins fewer than two segments"
                )));
            }
        }
        // Connectivity: every populated segment reachable from the first.
        let n = self.segments.len();
        let mut populated = vec![false; n];
        for (_, seg) in &self.nodes {
            populated[seg.index()] = true;
        }
        let Some(root) = populated.iter().position(|&p| p) else {
            return Ok(());
        };
        let dist = self.leaf_hops_from(root, n);
        for (si, (&pop, d)) in populated.iter().zip(&dist).enumerate() {
            if pop && d.is_none() && si != root {
                return Err(SimError::InvalidFabric(format!(
                    "fabric is partitioned: no router path joins seg{root} and seg{si}"
                )));
            }
        }
        Ok(())
    }

    /// Validate and lower to a runtime [`Network`] (which precomputes its
    /// routing table from the same graph).
    pub fn build(&self) -> Result<Network, SimError> {
        self.validate()?;
        let mut b = NetworkBuilder::new(self.seed);
        for pt in &self.proc_types {
            b.add_proc_type(pt.clone());
        }
        for seg in &self.segments {
            b.add_segment(seg.clone());
        }
        for r in &self.routers {
            b.add_router(r.clone());
        }
        for &(pt, seg) in &self.nodes {
            b.add_node(pt, seg);
        }
        b.build()
    }
}

/// What the route search reads of a router: its ports, and whether the
/// router or one of its ports is inside an outage window. A description
/// ([`RouterSpec`]) is always up; a runtime [`Router`] carries windows.
pub(crate) trait Hop {
    /// The segments the router joins, in declared order.
    fn ports(&self) -> &[SegmentId];
    /// Whether the whole router is down at `now`.
    fn is_down(&self, _now: SimTime) -> bool {
        false
    }
    /// Whether the port at index `port` is down at `now`.
    fn port_is_down(&self, _port: usize, _now: SimTime) -> bool {
        false
    }
}

impl Hop for RouterSpec {
    fn ports(&self) -> &[SegmentId] {
        &self.segments
    }
}

impl Hop for Router {
    fn ports(&self) -> &[SegmentId] {
        &self.spec.segments
    }
    fn is_down(&self, now: SimTime) -> bool {
        Router::is_down(self, now)
    }
    fn port_is_down(&self, port: usize, now: SimTime) -> bool {
        Router::port_is_down(self, port, now)
    }
}

/// For each segment, the routers attached to it, in router index order.
fn attachment_lists<R: Hop>(num_segments: usize, routers: &[R]) -> Vec<Vec<usize>> {
    let mut attached: Vec<Vec<usize>> = vec![Vec::new(); num_segments];
    for (ri, r) in routers.iter().enumerate() {
        for s in r.ports() {
            if s.index() < num_segments {
                attached[s.index()].push(ri);
            }
        }
    }
    attached
}

/// Breadth-first search over the segment–router graph from `src`,
/// filling `first_hop[d]` (the router to hand a frame to on `src`, and
/// the segment it forwards onto, for frames bound for `d`) and `dist[d]`
/// (routers crossed). Routers are explored in index order and their
/// ports in declared order, so the search is deterministic and matches
/// the pre-fabric lowest-index router choice on single-hop fabrics.
///
/// Over runtime routers this is the search of the *residual* fabric at
/// `now`: a router inside an outage window contributes no edges and a
/// port inside a link-down window severs its edge in both directions.
/// Visit order does not depend on liveness, so with nothing down the
/// residual search agrees route for route with the build-time one, and
/// two searches at the same liveness state are identical — both are pure
/// functions of (shape, liveness set).
///
/// Each router is expanded once, from the first segment that enters it
/// through a live port: that expansion gives every live port a distance,
/// so a later visit could assign nothing. A K-port router costs O(K) per
/// search instead of O(K²).
fn bfs_from<R: Hop>(
    src: usize,
    routers: &[R],
    attached: &[Vec<usize>],
    now: SimTime,
    first_hop: &mut [Option<(RouterId, SegmentId)>],
    dist: &mut [Option<u32>],
) {
    let n = first_hop.len();
    let mut queue = VecDeque::with_capacity(n);
    let mut expanded = vec![false; routers.len()];
    dist[src] = Some(0);
    queue.push_back(src);
    while let Some(cur) = queue.pop_front() {
        let d = dist[cur].unwrap_or(0);
        for &ri in &attached[cur] {
            let r = &routers[ri];
            if expanded[ri] || r.is_down(now) {
                continue;
            }
            let ports = r.ports();
            // The frame enters through the port on `cur`; a downed
            // ingress link severs every edge through this router from
            // this segment.
            let ingress_down = ports
                .iter()
                .position(|s| s.index() == cur)
                .is_some_and(|pi| r.port_is_down(pi, now));
            if ingress_down {
                continue;
            }
            expanded[ri] = true;
            for (pi, s) in ports.iter().enumerate() {
                let t = s.index();
                if t >= n || dist[t].is_some() || r.port_is_down(pi, now) {
                    continue;
                }
                dist[t] = Some(d + 1);
                first_hop[t] = if cur == src {
                    Some((RouterId(ri as u16), *s))
                } else {
                    first_hop[cur]
                };
                queue.push_back(t);
            }
        }
    }
}

/// Build the dense next-hop table for a router set over `num_segments`
/// segments: entry `src * num_segments + dst` holds the (router, egress
/// segment) a frame on `src` bound for `dst` takes next, or `None` when
/// no path exists (or `src == dst`). Used by
/// [`NetworkBuilder::build`](crate::network::NetworkBuilder) over the
/// router descriptions, so every network — fabric-generated or
/// hand-built — routes the same way, and by the network over its runtime
/// routers at every liveness transition (outage onset and window end,
/// never on the fault-free path) to route around what is down at `now`.
pub(crate) fn compute_routes<R: Hop>(
    num_segments: usize,
    routers: &[R],
    now: SimTime,
) -> Vec<Option<(RouterId, SegmentId)>> {
    let attached = attachment_lists(num_segments, routers);
    let mut routes = vec![None; num_segments * num_segments];
    let mut first_hop = vec![None; num_segments];
    let mut dist = vec![None; num_segments];
    for src in 0..num_segments {
        first_hop.iter_mut().for_each(|f| *f = None);
        dist.iter_mut().for_each(|d| *d = None);
        bfs_from(src, routers, &attached, now, &mut first_hop, &mut dist);
        routes[src * num_segments..(src + 1) * num_segments].clone_from_slice(&first_hop);
    }
    routes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RouterSpec;
    use proptest::prelude::*;

    fn members(k: usize) -> Vec<FabricCluster> {
        (0..k).map(|_| (ProcType::sparcstation_2(), 2)).collect()
    }

    fn eth() -> SegmentSpec {
        SegmentSpec::ethernet_10mbps()
    }

    fn rtr() -> RouterSpec {
        RouterSpec::paper_router(Vec::new())
    }

    #[test]
    fn star_matches_the_paper_shape() {
        let f = Fabric::star(&members(2), &eth(), &rtr(), 1994);
        assert_eq!(f.num_segments(), 2);
        assert_eq!(f.num_routers(), 1);
        assert_eq!(f.routers[0].segments, vec![SegmentId(0), SegmentId(1)]);
        assert_eq!(f.nodes.len(), 4);
        assert_eq!(f.hop_distance(SegmentId(0), SegmentId(1)), Some(1));
        f.validate().unwrap();
        assert_eq!(f.build().unwrap().num_nodes(), 4);
    }

    #[test]
    fn single_cluster_star_has_no_router() {
        let f = Fabric::star(&members(1), &eth(), &rtr(), 7);
        assert_eq!(f.num_routers(), 0);
        f.validate().unwrap();
    }

    #[test]
    fn pairwise_emits_a_router_per_pair() {
        let f = Fabric::pairwise(&members(4), &eth(), &rtr(), 7);
        assert_eq!(f.num_routers(), 6);
        assert_eq!(f.routers[0].segments, vec![SegmentId(0), SegmentId(1)]);
        assert_eq!(f.routers[5].segments, vec![SegmentId(2), SegmentId(3)]);
        f.validate().unwrap();
    }

    #[test]
    fn tree_distances_grow_logarithmically() {
        // 4 leaves, arity 2: two access routers with trunks, one top
        // router joining the trunks.
        let f = Fabric::tree(&members(4), 2, &eth(), &rtr(), 7);
        assert_eq!(f.num_segments(), 6, "4 leaves + 2 trunks");
        assert_eq!(f.num_routers(), 3);
        assert_eq!(f.hop_distance(SegmentId(0), SegmentId(1)), Some(1));
        assert_eq!(f.hop_distance(SegmentId(0), SegmentId(2)), Some(3));
        f.validate().unwrap();
    }

    #[test]
    fn tree_small_enough_collapses_to_star() {
        let f = Fabric::tree(&members(3), 4, &eth(), &rtr(), 7);
        assert_eq!(f.num_routers(), 1);
        assert_eq!(f.hop_distance(SegmentId(0), SegmentId(2)), Some(1));
    }

    #[test]
    fn fat_tree_is_two_hops_across_pods() {
        let f = Fabric::fat_tree(&members(4), 2, 2, &eth(), &rtr(), 7);
        assert_eq!(f.num_segments(), 6, "4 leaves + 2 spines");
        assert_eq!(f.num_routers(), 2, "one per pod");
        assert_eq!(f.hop_distance(SegmentId(0), SegmentId(1)), Some(1));
        assert_eq!(f.hop_distance(SegmentId(0), SegmentId(3)), Some(2));
        f.validate().unwrap();
    }

    #[test]
    fn dumbbell_funnels_halves_through_the_trunk() {
        let f = Fabric::dumbbell(&members(4), &eth(), &eth(), &rtr(), 7);
        assert_eq!(f.num_segments(), 5, "4 leaves + 1 bottleneck trunk");
        assert_eq!(f.num_routers(), 2);
        assert_eq!(f.hop_distance(SegmentId(0), SegmentId(1)), Some(1));
        assert_eq!(f.hop_distance(SegmentId(0), SegmentId(2)), Some(2));
        f.validate().unwrap();
    }

    #[test]
    fn validation_catches_duplicate_ports() {
        let f = Fabric::custom(&members(2), &eth(), &rtr(), &[vec![0, 0, 1]], 7);
        let e = f.validate().unwrap_err();
        assert!(matches!(e, SimError::InvalidFabric(_)));
        assert!(e.to_string().contains("twice"), "{e}");
    }

    #[test]
    fn validation_catches_dangling_ports() {
        let f = Fabric::custom(&members(2), &eth(), &rtr(), &[vec![0, 9]], 7);
        let e = f.validate().unwrap_err();
        assert!(e.to_string().contains("unknown segment"), "{e}");
    }

    #[test]
    fn validation_catches_single_port_routers() {
        let mut f = Fabric::star(&members(2), &eth(), &rtr(), 7);
        f.routers[0].segments.truncate(1);
        let e = f.validate().unwrap_err();
        assert!(e.to_string().contains("fewer than two"), "{e}");
    }

    #[test]
    fn validation_catches_partitioned_fabrics() {
        // Three populated leaves, one router joining only the first two:
        // seg2's traffic would silently die.
        let f = Fabric::custom(&members(3), &eth(), &rtr(), &[vec![0, 1]], 7);
        let e = f.validate().unwrap_err();
        assert!(e.to_string().contains("partitioned"), "{e}");
        assert!(f.build().is_err());
    }

    #[test]
    fn hop_distance_handles_unknown_and_self() {
        let f = Fabric::star(&members(2), &eth(), &rtr(), 7);
        assert_eq!(f.hop_distance(SegmentId(0), SegmentId(0)), Some(0));
        assert_eq!(f.hop_distance(SegmentId(0), SegmentId(9)), None);
    }

    #[test]
    fn live_recompute_with_everything_up_equals_static() {
        // The residual-fabric BFS must agree with the build-time BFS
        // entry for entry when nothing is down — same visit order, same
        // table — across every generator shape.
        for f in [
            Fabric::star(&members(3), &eth(), &rtr(), 7),
            Fabric::tree(&members(8), 2, &eth(), &rtr(), 7),
            Fabric::fat_tree(&members(8), 2, 3, &eth(), &rtr(), 7),
            Fabric::dumbbell(&members(6), &eth(), &eth(), &rtr(), 7),
            Fabric::pairwise(&members(4), &eth(), &rtr(), 7),
        ] {
            let statics = compute_routes(f.num_segments(), &f.routers, SimTime::ZERO);
            let runtime: Vec<Router> = f.routers.iter().cloned().map(Router::new).collect();
            let live = compute_routes(f.num_segments(), &runtime, SimTime(123_456));
            assert_eq!(statics, live);
        }
    }

    /// The walk before routers were expanded once: every segment
    /// re-walks all ports of every attached router. Kept as the
    /// reference the expand-once search must equal entry for entry.
    fn bfs_rewalking(
        src: usize,
        routers: &[Router],
        attached: &[Vec<usize>],
        now: Option<SimTime>,
        first_hop: &mut [Option<(RouterId, SegmentId)>],
        dist: &mut [Option<u32>],
    ) {
        let n = first_hop.len();
        let mut queue = VecDeque::with_capacity(n);
        dist[src] = Some(0);
        queue.push_back(src);
        while let Some(cur) = queue.pop_front() {
            let d = dist[cur].unwrap_or(0);
            for &ri in &attached[cur] {
                let r = &routers[ri];
                let ports = &r.spec.segments;
                // `now == None` is the static search: nothing is down.
                let down = |pi: usize| now.is_some_and(|t| r.port_is_down(pi, t));
                let ingress = ports.iter().position(|s| s.index() == cur);
                if now.is_some_and(|t| r.is_down(t)) || ingress.is_some_and(down) {
                    continue;
                }
                for (pi, s) in ports.iter().enumerate() {
                    let t = s.index();
                    if t >= n || dist[t].is_some() || down(pi) {
                        continue;
                    }
                    dist[t] = Some(d + 1);
                    first_hop[t] = if cur == src {
                        Some((RouterId(ri as u16), *s))
                    } else {
                        first_hop[cur]
                    };
                    queue.push_back(t);
                }
            }
        }
    }

    proptest! {
        /// Expanding each router once leaves `dist` and `first_hop` entry
        /// for entry equal to the re-walking search: on every generator,
        /// on random custom wirings (duplicate and dangling ports
        /// included), with everything up and under random router and
        /// link outages.
        #[test]
        fn expand_once_bfs_equals_the_rewalking_search(
            k in 1usize..14,
            shape in 0usize..6,
            arity in 2usize..5,
            spines in 1usize..4,
            wiring in prop::collection::vec(prop::collection::vec(0usize..16, 2..6), 0..8),
            faults in prop::collection::vec((0usize..64, 0usize..8, any::<bool>()), 0..6),
        ) {
            let m = members(k);
            let f = match shape {
                0 => Fabric::star(&m, &eth(), &rtr(), 7),
                1 => Fabric::pairwise(&m, &eth(), &rtr(), 7),
                2 => Fabric::tree(&m, arity, &eth(), &rtr(), 7),
                3 => Fabric::fat_tree(&m, arity, spines, &eth(), &rtr(), 7),
                4 => Fabric::dumbbell(&m, &eth(), &eth(), &rtr(), 7),
                _ => Fabric::custom(&m, &eth(), &rtr(), &wiring, 7),
            };
            let n = f.num_segments();
            let attached = attachment_lists(n, &f.routers);
            let mut runtime: Vec<Router> = f.routers.iter().cloned().map(Router::new).collect();
            let search = |src: usize, routers: &[Router], now: Option<SimTime>, reference: bool| {
                let (mut hop, mut dist) = (vec![None; n], vec![None; n]);
                match now {
                    _ if reference => {
                        bfs_rewalking(src, routers, &attached, now, &mut hop, &mut dist)
                    }
                    None => bfs_from(src, &f.routers, &attached, SimTime::ZERO, &mut hop, &mut dist),
                    Some(t) => bfs_from(src, routers, &attached, t, &mut hop, &mut dist),
                }
                (hop, dist)
            };
            for src in 0..n {
                prop_assert_eq!(
                    search(src, &runtime, None, false),
                    search(src, &runtime, None, true),
                    "static src={}", src
                );
            }
            if runtime.is_empty() {
                return;
            }
            for &(ri, port, whole) in &faults {
                let ri = ri % runtime.len();
                if whole {
                    runtime[ri].down_until = SimTime(1_000);
                } else {
                    let ports = runtime[ri].spec.segments.clone();
                    runtime[ri].merge_port_down(ports[port % ports.len()], SimTime(1_000));
                }
            }
            let now = Some(SimTime(500));
            for src in 0..n {
                prop_assert_eq!(
                    search(src, &runtime, now, false),
                    search(src, &runtime, now, true),
                    "live src={} faults={:?}", src, faults
                );
            }
        }
    }

    #[test]
    fn routes_agree_with_single_hop_router_choice() {
        // Two routers both joining (0,1): the table must pick r0, the
        // lowest index, exactly as the pre-fabric find_router did.
        let f = Fabric::custom(&members(2), &eth(), &rtr(), &[vec![0, 1], vec![0, 1]], 7);
        let routes = compute_routes(2, &f.routers, SimTime::ZERO);
        assert_eq!(routes[1], Some((RouterId(0), SegmentId(1))));
        assert_eq!(routes[2], Some((RouterId(0), SegmentId(0))));
    }
}
