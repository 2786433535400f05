//! End-to-end transport tests: timing decomposition, channel serialization,
//! router behaviour, loss, compute, and timers.

use bytes::Bytes;
use netpart_sim::{
    DropReason, NetworkBuilder, OpClass, ProcType, RouterSpec, SegmentSpec, SimDur, SimEvent,
    FRAME_OVERHEAD_BYTES, MAX_DATAGRAM_PAYLOAD,
};

fn two_node_net() -> (
    netpart_sim::Network,
    netpart_sim::NodeId,
    netpart_sim::NodeId,
) {
    let mut b = NetworkBuilder::new(1);
    let pt = b.add_proc_type(ProcType::sparcstation_2());
    let seg = b.add_segment(SegmentSpec::ethernet_10mbps());
    let a = b.add_node(pt, seg);
    let c = b.add_node(pt, seg);
    (b.build().expect("network"), a, c)
}

/// Expected one-way latency of a single datagram on an idle segment:
/// sender host + inter-frame gap + wire + receiver host.
fn expected_latency_ns(payload: u32) -> u64 {
    let pt = ProcType::sparcstation_2();
    let spec = SegmentSpec::ethernet_10mbps();
    let send_host =
        pt.send_overhead.as_nanos() + (payload as f64 * pt.send_sec_per_byte * 1e9).round() as u64;
    let recv_host =
        pt.recv_overhead.as_nanos() + (payload as f64 * pt.recv_sec_per_byte * 1e9).round() as u64;
    let wire =
        ((payload + FRAME_OVERHEAD_BYTES) as f64 * 8.0 / spec.bandwidth_bps * 1e9).round() as u64;
    let ifg = spec.inter_frame_gap.as_nanos();
    send_host + ifg + wire + recv_host
}

#[test]
fn single_datagram_latency_decomposes() {
    let (mut net, a, c) = two_node_net();
    net.send_datagram(a, c, 1, Bytes::from(vec![0u8; 1000]))
        .unwrap();
    let evt = net.next_event().expect("delivery");
    match evt {
        SimEvent::DatagramDelivered { at, dgram } => {
            assert_eq!(dgram.src, a);
            assert_eq!(dgram.dst, c);
            assert_eq!(dgram.wire_len, 1000);
            let expected = expected_latency_ns(1000);
            let got = at.as_nanos();
            // Rounding of f64→ns conversions may shift a few ns.
            assert!(
                got.abs_diff(expected) <= 5,
                "latency {got} ns vs expected {expected} ns"
            );
        }
        other => panic!("unexpected {other:?}"),
    }
    assert!(net.next_event().is_none());
    assert!(net.is_idle());
}

#[test]
fn oversized_datagram_is_rejected() {
    let (mut net, a, c) = two_node_net();
    let err = net
        .send_datagram(a, c, 0, Bytes::from(vec![0u8; MAX_DATAGRAM_PAYLOAD + 1]))
        .unwrap_err();
    assert!(matches!(
        err,
        netpart_sim::SimError::DatagramTooLarge { .. }
    ));
    // Exactly MTU-sized is fine.
    net.send_datagram(a, c, 0, Bytes::from(vec![0u8; MAX_DATAGRAM_PAYLOAD]))
        .unwrap();
    assert!(matches!(
        net.next_event(),
        Some(SimEvent::DatagramDelivered { .. })
    ));
}

#[test]
fn channel_serializes_concurrent_senders() {
    // p senders all transmitting at t=0 must take ~p times as long as one,
    // which is the linear-in-p property the cost model is built on.
    let elapsed_for = |p: usize| -> f64 {
        let mut b = NetworkBuilder::new(1);
        let pt = b.add_proc_type(ProcType::sparcstation_2());
        let seg = b.add_segment(SegmentSpec::ethernet_10mbps());
        let nodes: Vec<_> = (0..p + 1).map(|_| b.add_node(pt, seg)).collect();
        let mut net = b.build().unwrap();
        for i in 0..p {
            // everyone sends to the last node
            net.send_datagram(nodes[i], nodes[p], i as u64, Bytes::from(vec![0u8; 1400]))
                .unwrap();
        }
        let mut last = 0.0;
        let mut count = 0;
        while let Some(evt) = net.next_event() {
            if let SimEvent::DatagramDelivered { at, .. } = evt {
                last = at.as_millis_f64();
                count += 1;
            }
        }
        assert_eq!(count, p);
        last
    };
    let t1 = elapsed_for(1);
    let t4 = elapsed_for(4);
    let t8 = elapsed_for(8);
    assert!(
        t4 > 3.0 * t1 * 0.7,
        "4 senders should take ~4x: {t4} vs {t1}"
    );
    assert!(
        t8 > t4 * 1.6,
        "8 senders should take ~2x 4 senders: {t8} vs {t4}"
    );
}

#[test]
fn cross_segment_goes_through_router() {
    let mut b = NetworkBuilder::new(1);
    let pt = b.add_proc_type(ProcType::sparcstation_2());
    let s1 = b.add_segment(SegmentSpec::ethernet_10mbps());
    let s2 = b.add_segment(SegmentSpec::ethernet_10mbps());
    let r = b.add_router(RouterSpec::paper_router(vec![s1, s2]));
    let a = b.add_node(pt, s1);
    let c = b.add_node(pt, s2);
    let mut net = b.build().unwrap();

    net.send_datagram(a, c, 0, Bytes::from(vec![0u8; 1000]))
        .unwrap();
    let evt = net.next_event().expect("delivery");
    let cross_at = match evt {
        SimEvent::DatagramDelivered { at, .. } => at.as_nanos(),
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(net.router_stats(r).frames_forwarded, 1);

    // Cross-segment must cost strictly more than intra-segment: router
    // forwarding + second wire transit.
    let intra = expected_latency_ns(1000);
    assert!(
        cross_at > intra,
        "cross {cross_at} should exceed intra {intra}"
    );
    // The excess should be at least the router's per-byte penalty
    // (0.6 µs/byte × 1000 = 600 µs).
    assert!(cross_at - intra >= 600_000);
}

#[test]
fn no_route_between_unjoined_segments() {
    let mut b = NetworkBuilder::new(1);
    let pt = b.add_proc_type(ProcType::sparcstation_2());
    let s1 = b.add_segment(SegmentSpec::ethernet_10mbps());
    let s2 = b.add_segment(SegmentSpec::ethernet_10mbps());
    let a = b.add_node(pt, s1);
    let c = b.add_node(pt, s2);
    let mut net = b.build().unwrap();
    assert!(!net.route_exists(a, c));
    let err = net
        .send_datagram(a, c, 0, Bytes::from_static(b"x"))
        .unwrap_err();
    assert!(matches!(err, netpart_sim::SimError::NoRoute { .. }));
}

#[test]
fn loss_drops_frames_deterministically() {
    let run = |seed: u64| -> (u64, u64) {
        let mut b = NetworkBuilder::new(seed);
        let pt = b.add_proc_type(ProcType::sparcstation_2());
        let seg = b.add_segment(SegmentSpec {
            loss_probability: 0.3,
            ..SegmentSpec::ethernet_10mbps()
        });
        let a = b.add_node(pt, seg);
        let c = b.add_node(pt, seg);
        let mut net = b.build().unwrap();
        for i in 0..200 {
            net.send_datagram(a, c, i, Bytes::from_static(b"payload"))
                .unwrap();
        }
        let (mut deliv, mut drop) = (0, 0);
        while let Some(evt) = net.next_event() {
            match evt {
                SimEvent::DatagramDelivered { .. } => deliv += 1,
                SimEvent::DatagramDropped { reason, .. } => {
                    assert_eq!(reason, DropReason::ChannelLoss);
                    drop += 1;
                }
                _ => {}
            }
        }
        (deliv, drop)
    };
    let (d1, l1) = run(99);
    let (d2, l2) = run(99);
    assert_eq!((d1, l1), (d2, l2), "same seed must reproduce exactly");
    assert_eq!(d1 + l1, 200);
    assert!(l1 > 20 && l1 < 120, "≈30% loss expected, got {l1}/200");
    let (d3, _) = run(100);
    // Different seed almost surely differs.
    assert_ne!(d1, 0);
    assert!(d3 > 0);
}

#[test]
fn compute_time_scales_with_ops_speed_and_load() {
    let mut b = NetworkBuilder::new(1);
    let s2 = b.add_proc_type(ProcType::sparcstation_2());
    let ipc = b.add_proc_type(ProcType::sun4_ipc());
    let seg = b.add_segment(SegmentSpec::ethernet_10mbps());
    let fast = b.add_node(s2, seg);
    let slow = b.add_node(ipc, seg);
    let mut net = b.build().unwrap();

    // 1e6 flops on a Sparc2 at 0.3 µs/flop = 300 ms.
    net.start_compute(fast, 1.0e6, OpClass::Flop, 1);
    net.start_compute(slow, 1.0e6, OpClass::Flop, 2);
    let mut times = std::collections::HashMap::new();
    while let Some(evt) = net.next_event() {
        if let SimEvent::ComputeDone { at, token, .. } = evt {
            times.insert(token, at.as_millis_f64());
        }
    }
    assert!((times[&1] - 300.0).abs() < 0.001);
    assert!((times[&2] - 600.0).abs() < 0.001);

    // Under 50% external load the same block takes twice as long.
    net.set_external_load(fast, 0.5);
    let before = net.now();
    net.start_compute(fast, 1.0e6, OpClass::Flop, 3);
    while let Some(evt) = net.next_event() {
        if let SimEvent::ComputeDone { at, token: 3, .. } = evt {
            let dur = at.since(before).as_millis_f64();
            assert!((dur - 600.0).abs() < 0.001);
        }
    }
}

#[test]
fn timers_fire_in_order_and_cancel() {
    let (mut net, _a, _c) = two_node_net();
    let t1 = net.set_timer(SimDur::from_millis(10), 7, 1);
    let _t2 = net.set_timer(SimDur::from_millis(5), 7, 2);
    let t3 = net.set_timer(SimDur::from_millis(20), 7, 3);
    net.cancel_timer(t1);
    let _ = t3;
    let mut fired = Vec::new();
    while let Some(evt) = net.next_event() {
        if let SimEvent::TimerFired { token, owner, .. } = evt {
            assert_eq!(owner, 7);
            fired.push(token);
        }
    }
    assert_eq!(fired, vec![2, 3], "cancelled timer must not fire");
}

#[test]
fn cancelling_a_fired_timer_leaves_no_tombstone() {
    // Regression: cancelling an already-fired timer used to insert an id
    // into the tombstone set that nothing ever removed, so a long run
    // cancelling fired timers leaked memory and skewed pending_work().
    let (mut net, _a, _c) = two_node_net();
    let t1 = net.set_timer(SimDur::from_millis(1), 7, 1);
    assert!(matches!(
        net.next_event(),
        Some(SimEvent::TimerFired { token: 1, .. })
    ));
    net.cancel_timer(t1); // fired already: must be a free no-op
    assert_eq!(net.pending_work(), 0, "no tombstone left behind");

    // A later timer with fresh state still works and is counted once.
    let _t2 = net.set_timer(SimDur::from_millis(1), 7, 2);
    assert_eq!(net.pending_work(), 1);
    net.cancel_timer(t1); // double-cancel of a dead id: still a no-op
    assert_eq!(net.pending_work(), 1);
    assert!(matches!(
        net.next_event(),
        Some(SimEvent::TimerFired { token: 2, .. })
    ));
    assert_eq!(net.pending_work(), 0);
}

#[test]
fn pending_work_excludes_cancelled_unpopped_timers() {
    // A cancelled-but-unpopped timer still occupies a queue slot, but it
    // is not pending *work*; pending_work() must not count it.
    let (mut net, _a, _c) = two_node_net();
    let t1 = net.set_timer(SimDur::from_millis(10), 7, 1);
    let _t2 = net.set_timer(SimDur::from_millis(20), 7, 2);
    assert_eq!(net.pending_work(), 2);
    net.cancel_timer(t1);
    assert_eq!(net.pending_work(), 1, "cancelled timer is not work");
    net.cancel_timer(t1); // idempotent
    assert_eq!(net.pending_work(), 1);
    assert!(!net.is_idle(), "the live timer still counts");
    assert!(matches!(
        net.next_event(),
        Some(SimEvent::TimerFired { token: 2, .. })
    ));
    assert_eq!(net.pending_work(), 0);
    assert!(net.is_idle());
    assert!(net.next_event().is_none());
}

#[test]
fn integer_ops_use_int_speed() {
    let (mut net, a, _c) = two_node_net();
    // Sparc2 int: 0.15 µs/op → 1e6 ops = 150 ms.
    net.start_compute(a, 1.0e6, OpClass::IntOp, 9);
    match net.next_event() {
        Some(SimEvent::ComputeDone { at, token: 9, .. }) => {
            assert!((at.as_millis_f64() - 150.0).abs() < 0.001);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn segment_stats_track_utilization() {
    let (mut net, a, c) = two_node_net();
    for i in 0..10 {
        net.send_datagram(a, c, i, Bytes::from(vec![0u8; 1400]))
            .unwrap();
    }
    while net.next_event().is_some() {}
    let stats = net.segment_stats(netpart_sim::SegmentId(0));
    assert_eq!(stats.frames_sent, 10);
    assert!(stats.utilization > 0.0 && stats.utilization <= 1.0);
    assert_eq!(stats.bytes_sent, 10 * (1400 + FRAME_OVERHEAD_BYTES as u64));
}

#[test]
fn background_traffic_slows_foreground_messages() {
    use netpart_sim::BackgroundFlow;
    let elapsed_with_flows = |n_flows: usize| -> u64 {
        let mut b = NetworkBuilder::new(5);
        let pt = b.add_proc_type(ProcType::sparcstation_2());
        let seg = b.add_segment(SegmentSpec::ethernet_10mbps());
        let nodes: Vec<_> = (0..4).map(|_| b.add_node(pt, seg)).collect();
        let mut net = b.build().unwrap();
        for k in 0..n_flows {
            net.add_background_flow(BackgroundFlow {
                src: nodes[2],
                dst: nodes[3],
                bytes: 1400,
                period: SimDur::from_micros(1500 + 100 * k as u64),
            });
        }
        // Time a foreground burst between the other two nodes.
        for i in 0..20u64 {
            net.send_datagram(nodes[0], nodes[1], 100 + i, Bytes::from(vec![0u8; 1400]))
                .unwrap();
        }
        let mut last = 0;
        let mut got = 0;
        while got < 20 {
            match net.next_event() {
                Some(SimEvent::DatagramDelivered { at, dgram }) if dgram.tag >= 100 => {
                    last = at.as_nanos();
                    got += 1;
                }
                Some(_) => {}
                None => panic!("queue drained with foreground pending"),
            }
        }
        last
    };
    let quiet = elapsed_with_flows(0);
    let busy = elapsed_with_flows(2);
    assert!(
        busy > quiet * 15 / 10,
        "cross traffic should slow the burst: {busy} vs {quiet}"
    );
}

#[test]
fn stopped_background_flow_goes_quiet() {
    use netpart_sim::BackgroundFlow;
    let mut b = NetworkBuilder::new(5);
    let pt = b.add_proc_type(ProcType::sparcstation_2());
    let seg = b.add_segment(SegmentSpec::ethernet_10mbps());
    let a = b.add_node(pt, seg);
    let c = b.add_node(pt, seg);
    let mut net = b.build().unwrap();
    let h = net.add_background_flow(BackgroundFlow {
        src: a,
        dst: c,
        bytes: 100,
        period: SimDur::from_millis(1),
    });
    // Let a few fire, then stop; the queue must drain.
    let mut seen = 0;
    while seen < 3 {
        if let Some(SimEvent::DatagramDelivered { .. }) = net.next_event() {
            seen += 1;
        }
    }
    net.stop_background_flow(h);
    let mut leftovers = 0;
    while net.next_event().is_some() {
        leftovers += 1;
        assert!(leftovers < 100, "flow did not stop");
    }
    assert!(net.is_idle());
}
