//! Property-based tests of the simulator: determinism, conservation, and
//! timing monotonicity under arbitrary traffic patterns.

use bytes::Bytes;
use proptest::prelude::*;

use netpart_sim::{
    FaultPlan, Network, NetworkBuilder, NodeId, ProcType, RouterSpec, SegmentId, SegmentSpec,
    SimDur, SimEvent, SimTime,
};

fn build(p: usize, loss: f64, seed: u64) -> (Network, Vec<NodeId>) {
    let mut b = NetworkBuilder::new(seed);
    let pt = b.add_proc_type(ProcType::sparcstation_2());
    let seg = b.add_segment(SegmentSpec {
        loss_probability: loss,
        ..SegmentSpec::ethernet_10mbps()
    });
    let nodes: Vec<_> = (0..p).map(|_| b.add_node(pt, seg)).collect();
    (b.build().expect("network"), nodes)
}

/// Run a traffic pattern and collect the (kind, time) event trace.
fn trace(pattern: &[(usize, usize, u16)], p: usize, loss: f64, seed: u64) -> Vec<(u8, u64)> {
    let (mut net, nodes) = build(p, loss, seed);
    for &(src, dst, len) in pattern {
        let (s, d) = (src % p, dst % p);
        if s == d {
            continue;
        }
        net.send_datagram(
            nodes[s],
            nodes[d],
            0,
            Bytes::from(vec![0u8; len as usize % 1400]),
        )
        .expect("send");
    }
    let mut out = Vec::new();
    while let Some(evt) = net.next_event() {
        let kind = match evt {
            SimEvent::DatagramDelivered { .. } => 0u8,
            SimEvent::DatagramDropped { .. } => 1,
            SimEvent::ComputeDone { .. } => 2,
            SimEvent::TimerFired { .. } => 3,
        };
        out.push((kind, evt.at().as_nanos()));
    }
    out
}

/// Two segments of two nodes each, one lossy, joined by a router; a
/// corruption burst on the other segment and a crash-and-recover of node
/// 3, so frames take every delivery and drop path.
fn faulty_pair(seed: u64) -> Network {
    let mut b = NetworkBuilder::new(seed);
    let fast = b.add_proc_type(ProcType::sparcstation_2());
    let slow = b.add_proc_type(ProcType::sun4_ipc());
    let lossy = b.add_segment(SegmentSpec {
        loss_probability: 0.2,
        ..SegmentSpec::ethernet_10mbps()
    });
    let clean = b.add_segment(SegmentSpec::ethernet_10mbps());
    b.add_router(RouterSpec::paper_router(vec![lossy, clean]));
    for seg in [lossy, clean] {
        b.add_node(fast, seg);
        b.add_node(slow, seg);
    }
    let mut net = b.build().expect("network");
    let at_us = |us| SimTime::ZERO + SimDur::from_micros(us);
    let plan = FaultPlan::new()
        .corrupt_burst(SegmentId(1), at_us(2_000), at_us(40_000), 0.5)
        .crash(at_us(10_000), NodeId(3))
        .node_recover(at_us(20_000), NodeId(3));
    net.install_fault_plan(&plan).expect("valid plan");
    net
}

/// Run a send/advance script on [`faulty_pair`], sending each datagram
/// through `send_datagram` with a payload of its length (`by_payload`) or
/// through `send_datagram_sized` with the length alone; record every
/// send's outcome and every event, then drain.
fn entry_point_trace(
    script: &[(bool, usize, usize, u16)],
    seed: u64,
    by_payload: bool,
) -> Vec<String> {
    let mut net = faulty_pair(seed);
    let mut out = Vec::new();
    for &(send, a, b, n) in script {
        if send {
            let (src, dst) = (NodeId(a as u32 % 4), NodeId(b as u32 % 4));
            let sent = if by_payload {
                net.send_datagram(src, dst, u64::from(n), Bytes::from(vec![7u8; n as usize]))
            } else {
                net.send_datagram_sized(src, dst, u64::from(n), u32::from(n))
            };
            out.push(format!("send {sent:?}"));
        } else {
            for _ in 0..n % 16 {
                let Some(evt) = net.next_event() else { break };
                out.push(format!("{evt:?}"));
            }
        }
    }
    while let Some(evt) = net.next_event() {
        out.push(format!("{evt:?}"));
    }
    out.push(format!(
        "events {} delivered {} dropped {}",
        net.events_processed(),
        net.datagrams_delivered(),
        net.datagrams_dropped()
    ));
    out
}

proptest! {
    /// Identical seeds and traffic produce identical event traces — the
    /// determinism every regression test in this workspace leans on.
    #[test]
    fn same_seed_same_trace(
        pattern in prop::collection::vec((0usize..6, 0usize..6, 0u16..1400), 1..40),
        loss in 0.0f64..0.5,
        seed in 0u64..1000,
    ) {
        let a = trace(&pattern, 6, loss, seed);
        let b = trace(&pattern, 6, loss, seed);
        prop_assert_eq!(a, b);
    }

    /// `send_datagram` and `send_datagram_sized` differ only in where the
    /// length comes from: an `L`-byte payload and the size `L` give the
    /// same outcomes and the same event trace, lengths past the MTU
    /// included.
    #[test]
    fn payload_and_sized_sends_trace_alike(
        script in prop::collection::vec((any::<bool>(), 0usize..4, 0usize..4, 0u16..1600), 1..80),
        seed in 0u64..1000,
    ) {
        prop_assert_eq!(
            entry_point_trace(&script, seed, true),
            entry_point_trace(&script, seed, false)
        );
    }

    /// Every datagram is either delivered or dropped — never both, never
    /// neither — and time never goes backwards.
    #[test]
    fn datagrams_are_conserved(
        pattern in prop::collection::vec((0usize..5, 0usize..5, 1u16..1400), 1..60),
        loss in 0.0f64..0.6,
    ) {
        let distinct: usize = pattern
            .iter()
            .filter(|&&(s, d, _)| s % 5 != d % 5)
            .count();
        let events = trace(&pattern, 5, loss, 7);
        let delivered = events.iter().filter(|(k, _)| *k == 0).count();
        let dropped = events.iter().filter(|(k, _)| *k == 1).count();
        prop_assert_eq!(delivered + dropped, distinct);
        let mut last = 0u64;
        for &(_, t) in &events {
            prop_assert!(t >= last, "time went backwards");
            last = t;
        }
    }

    /// With zero loss everything is delivered.
    #[test]
    fn lossless_delivers_everything(
        pattern in prop::collection::vec((0usize..4, 0usize..4, 1u16..1400), 1..40),
    ) {
        let distinct: usize = pattern
            .iter()
            .filter(|&&(s, d, _)| s % 4 != d % 4)
            .count();
        let events = trace(&pattern, 4, 0.0, 3);
        prop_assert_eq!(events.len(), distinct);
        prop_assert!(events.iter().all(|(k, _)| *k == 0));
    }

    /// The fabric's hop matrix (the same breadth-first search that builds
    /// the routing table) agrees with an independent reference BFS over
    /// the segment–router bipartite graph, for arbitrary — including
    /// partitioned — custom wirings.
    #[test]
    fn fabric_hops_match_reference_bfs(
        leaves in 2usize..8,
        raw_routers in prop::collection::vec(prop::collection::vec(0usize..8, 2..5), 1..6),
    ) {
        use netpart_sim::{Fabric, ProcType, RouterSpec, SegmentId, SegmentSpec};

        // Clamp ports into range and dedupe; routers left with fewer than
        // two distinct ports are dropped (validate() would reject them,
        // and the hop semantics under test do not need them).
        let routers: Vec<Vec<usize>> = raw_routers
            .iter()
            .map(|ports| {
                let mut p: Vec<usize> = ports.iter().map(|&x| x % leaves).collect();
                p.sort_unstable();
                p.dedup();
                p
            })
            .filter(|p| p.len() >= 2)
            .collect();
        let members: Vec<(ProcType, u32)> = (0..leaves)
            .map(|_| (ProcType::sparcstation_2(), 1))
            .collect();
        let fabric = Fabric::custom(
            &members,
            &SegmentSpec::ethernet_10mbps(),
            &RouterSpec::paper_router(Vec::new()),
            &routers,
            11,
        );

        // Reference: BFS over the bipartite graph, counting routers
        // crossed, implemented with nothing from fabric.rs.
        let reference = |src: usize| -> Vec<Option<u32>> {
            let mut dist = vec![None; leaves];
            dist[src] = Some(0u32);
            let mut frontier = vec![src];
            while !frontier.is_empty() {
                let mut next = Vec::new();
                for &seg in &frontier {
                    let d = dist[seg].unwrap();
                    for ports in &routers {
                        if !ports.contains(&seg) {
                            continue;
                        }
                        for &other in ports {
                            if dist[other].is_none() {
                                dist[other] = Some(d + 1);
                                next.push(other);
                            }
                        }
                    }
                }
                frontier = next;
            }
            dist
        };

        let matrix = fabric.leaf_hop_matrix(leaves);
        for (a, row) in matrix.iter().enumerate() {
            let expect = reference(a);
            for b in 0..leaves {
                prop_assert_eq!(
                    row[b], expect[b],
                    "hop({}, {}) with routers {:?}", a, b, &routers
                );
                prop_assert_eq!(
                    fabric.hop_distance(SegmentId(a as u16), SegmentId(b as u16)),
                    expect[b]
                );
            }
        }

        // When the shape validates, the built network's routing table
        // must agree node-for-node: reachability and hop counts.
        if fabric.validate().is_ok() {
            let net = fabric.build().expect("validated fabric builds");
            for a in 0..leaves {
                let na = net.nodes_on_segment(SegmentId(a as u16))[0];
                for b in 0..leaves {
                    let nb = net.nodes_on_segment(SegmentId(b as u16))[0];
                    let expect = reference(a)[b];
                    prop_assert_eq!(net.route_exists(na, nb), expect.is_some());
                    prop_assert_eq!(net.hop_count(na, nb), expect);
                }
            }
        }
    }

    /// Compute duration scales exactly linearly with the op count.
    #[test]
    fn compute_is_linear_in_ops(ops in 1.0f64..1e9) {
        let (mut net, nodes) = build(1, 0.0, 1);
        net.start_compute(nodes[0], ops, netpart_sim::OpClass::Flop, 0);
        let t1 = match net.next_event().unwrap() {
            SimEvent::ComputeDone { at, .. } => at.as_nanos(),
            other => panic!("{other:?}"),
        };
        let (mut net2, nodes2) = build(1, 0.0, 1);
        net2.start_compute(nodes2[0], ops * 2.0, netpart_sim::OpClass::Flop, 0);
        let t2 = match net2.next_event().unwrap() {
            SimEvent::ComputeDone { at, .. } => at.as_nanos(),
            other => panic!("{other:?}"),
        };
        // Within rounding of the f64→ns conversion.
        prop_assert!((t2 as i128 - 2 * t1 as i128).abs() <= 2);
    }
}
