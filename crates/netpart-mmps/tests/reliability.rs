//! Reliability tests: fragmentation round-trips, loss recovery, coercion,
//! and give-up behaviour.

use bytes::Bytes;
use netpart_mmps::{
    rto_for, FragPlan, Mmps, MmpsEvent, HEADER_BYTES, MAX_RETRIES, RETX_FRAGMENT_SPACING,
};
use netpart_sim::{NetworkBuilder, NodeId, ProcType, SegmentSpec, SimDur, SimTime};

fn pair_net(loss: f64, seed: u64) -> (Mmps, NodeId, NodeId) {
    let mut b = NetworkBuilder::new(seed);
    let pt = b.add_proc_type(ProcType::sparcstation_2());
    let seg = b.add_segment(SegmentSpec {
        loss_probability: loss,
        ..SegmentSpec::ethernet_10mbps()
    });
    let a = b.add_node(pt, seg);
    let c = b.add_node(pt, seg);
    (Mmps::with_defaults(b.build().expect("network")), a, c)
}

fn drain_until_delivery(mmps: &mut Mmps) -> Option<(u64, Bytes, u32)> {
    while let Some(evt) = mmps.next_event() {
        if let MmpsEvent::MessageDelivered {
            tag, payload, len, ..
        } = evt
        {
            return Some((tag, payload, len));
        }
    }
    None
}

#[test]
fn large_message_round_trips_intact() {
    let (mut mmps, a, c) = pair_net(0.0, 1);
    let data: Vec<u8> = (0..20_000u32).map(|i| (i * 31 % 251) as u8).collect();
    mmps.send_message(a, c, 5, Bytes::from(data.clone()))
        .unwrap();
    let (tag, payload, len) = drain_until_delivery(&mut mmps).expect("delivered");
    assert_eq!(tag, 5);
    assert_eq!(len, 20_000);
    assert_eq!(&payload[..], &data[..]);
    // 20 kB / 1440 B per fragment = 14 fragments.
    assert!(mmps.net_ref().datagrams_delivered() >= 14);
}

#[test]
fn sender_learns_of_ack() {
    let (mut mmps, a, c) = pair_net(0.0, 1);
    let msg = mmps
        .send_message(a, c, 9, Bytes::from_static(b"hi"))
        .unwrap();
    let mut acked = false;
    let mut delivered = false;
    while let Some(evt) = mmps.next_event() {
        match evt {
            MmpsEvent::MessageAcked { msg: m, src, .. } => {
                assert_eq!(m, msg);
                assert_eq!(src, a);
                acked = true;
            }
            MmpsEvent::MessageDelivered { .. } => delivered = true,
            _ => {}
        }
    }
    assert!(acked && delivered);
    let st = mmps.stats();
    assert_eq!(st.messages_sent, 1);
    assert_eq!(st.messages_delivered, 1);
    assert_eq!(st.messages_acked, 1);
    assert_eq!(st.retransmissions, 0);
}

#[test]
fn loss_is_recovered_by_retransmission() {
    // 20% frame loss: most multi-fragment messages lose something, yet all
    // 30 messages must arrive intact.
    let (mut mmps, a, c) = pair_net(0.20, 17);
    let data: Vec<u8> = (0..6000u32).map(|i| (i % 256) as u8).collect();
    for k in 0..30u64 {
        mmps.send_message(a, c, k, Bytes::from(data.clone()))
            .unwrap();
    }
    let mut tags = Vec::new();
    while let Some(evt) = mmps.next_event() {
        if let MmpsEvent::MessageDelivered { tag, payload, .. } = evt {
            assert_eq!(&payload[..], &data[..], "payload corrupted for tag {tag}");
            tags.push(tag);
        }
    }
    tags.sort();
    assert_eq!(
        tags,
        (0..30).collect::<Vec<_>>(),
        "all messages must arrive"
    );
    let st = mmps.stats();
    assert!(st.retransmissions > 0, "20% loss must trigger retransmits");
    assert_eq!(st.messages_failed, 0);
}

#[test]
fn hopeless_link_eventually_fails() {
    let mut b = NetworkBuilder::new(23);
    let pt = b.add_proc_type(ProcType::sparcstation_2());
    let seg = b.add_segment(SegmentSpec {
        loss_probability: 0.999,
        ..SegmentSpec::ethernet_10mbps()
    });
    let a = b.add_node(pt, seg);
    let c = b.add_node(pt, seg);
    let mut mmps = Mmps::with_defaults(b.build().unwrap());
    mmps.send_message(a, c, 0, Bytes::from(vec![0u8; 4000]))
        .unwrap();
    let mut failed = false;
    while let Some(evt) = mmps.next_event() {
        if let MmpsEvent::MessageFailed { src, dst, .. } = evt {
            assert_eq!((src, dst), (a, c));
            failed = true;
        }
    }
    assert!(failed, "a 99.9% lossy link must exhaust retries");
    assert_eq!(mmps.stats().messages_failed, 1);
}

#[test]
fn coercion_delays_cross_format_delivery() {
    // Same payload to a same-format peer and a different-format peer; the
    // cross-format one must arrive later by at least the per-byte cost.
    let build = |with_coercion: bool| -> f64 {
        let mut b = NetworkBuilder::new(5);
        let sparc = b.add_proc_type(ProcType::sparcstation_2());
        let mut other = ProcType::sparcstation_2();
        if with_coercion {
            other.data_format = 9; // different wire format
        }
        let other = b.add_proc_type(other);
        let seg = b.add_segment(SegmentSpec::ethernet_10mbps());
        let a = b.add_node(sparc, seg);
        let c = b.add_node(other, seg);
        let mut mmps = Mmps::with_defaults(b.build().unwrap());
        mmps.send_message(a, c, 0, Bytes::from(vec![1u8; 8000]))
            .unwrap();
        let mut at_ms = 0.0;
        while let Some(evt) = mmps.next_event() {
            if let MmpsEvent::MessageDelivered { at, .. } = evt {
                at_ms = at.as_millis_f64();
            }
        }
        at_ms
    };
    let plain = build(false);
    let coerced = build(true);
    // 8000 bytes at 0.25 µs/byte = 2 ms plus the per-message constant.
    assert!(
        coerced - plain > 2.0,
        "coercion should add > 2 ms: {coerced} vs {plain}"
    );
}

#[test]
fn dummy_messages_time_like_real_ones() {
    let delivery_ms = |mmps: &mut Mmps| -> f64 {
        while let Some(evt) = mmps.next_event() {
            if let MmpsEvent::MessageDelivered { at, .. } = evt {
                return at.as_millis_f64();
            }
        }
        panic!("no delivery");
    };

    let (mut mmps, a, c) = pair_net(0.0, 1);
    mmps.send_message_dummy(a, c, 1, 10_000).unwrap();
    let t_dummy = delivery_ms(&mut mmps);

    let (mut mmps2, a2, c2) = pair_net(0.0, 1);
    mmps2
        .send_message(a2, c2, 1, Bytes::from(vec![0u8; 10_000]))
        .unwrap();
    let t_real = delivery_ms(&mut mmps2);
    assert!(
        (t_dummy - t_real).abs() < t_real * 0.01 + 0.01,
        "dummy {t_dummy} ms vs real {t_real} ms"
    );
}

#[test]
fn loopback_send_delivers_locally() {
    let (mut mmps, a, _c) = pair_net(0.0, 1);
    mmps.send_message(a, a, 77, Bytes::from_static(b"self"))
        .unwrap();
    let (tag, payload, _) = drain_until_delivery(&mut mmps).expect("delivered");
    assert_eq!(tag, 77);
    assert_eq!(&payload[..], b"self");
    // No frames should have touched the wire.
    assert_eq!(mmps.net_ref().datagrams_delivered(), 0);
}

#[test]
fn interleaved_messages_do_not_cross_payloads() {
    let (mut mmps, a, c) = pair_net(0.0, 1);
    // Two senders' worth of traffic interleaved from both directions.
    let d1: Vec<u8> = vec![0xAA; 7000];
    let d2: Vec<u8> = vec![0xBB; 7000];
    mmps.send_message(a, c, 1, Bytes::from(d1.clone())).unwrap();
    mmps.send_message(c, a, 2, Bytes::from(d2.clone())).unwrap();
    let mut seen = 0;
    while let Some(evt) = mmps.next_event() {
        if let MmpsEvent::MessageDelivered { tag, payload, .. } = evt {
            match tag {
                1 => assert_eq!(&payload[..], &d1[..]),
                2 => assert_eq!(&payload[..], &d2[..]),
                _ => panic!("unknown tag"),
            }
            seen += 1;
        }
    }
    assert_eq!(seen, 2);
}

#[test]
fn adaptive_rto_learns_the_round_trip() {
    // After a few exchanges the sender's smoothed RTT reflects the actual
    // delivery+ack latency, and recovery from a loss is much faster than
    // the static first timeout would allow.
    let (mut mmps, a, c) = pair_net(0.0, 3);
    for k in 0..5u64 {
        mmps.send_message(a, c, k, Bytes::from(vec![0u8; 2000]))
            .unwrap();
        while let Some(evt) = mmps.next_event() {
            if matches!(evt, MmpsEvent::MessageAcked { .. }) {
                break;
            }
        }
    }
    let srtt = mmps.smoothed_rtt(a, c).expect("samples exist");
    // A 2 kB message on an idle 10 Mbit/s segment: a few ms round trip.
    assert!(
        srtt.as_millis_f64() > 0.5 && srtt.as_millis_f64() < 20.0,
        "srtt {srtt}"
    );

    // Now lose everything once: with the learned RTO the retransmission
    // fires well before the static first timeout (100 ms + 60 µs/B ≈
    // 220 ms).
    mmps.net()
        .set_loss_probability(netpart_sim::SegmentId(0), 0.999);
    let sent_at = mmps.now();
    mmps.send_message(a, c, 99, Bytes::from(vec![0u8; 2000]))
        .unwrap();
    // Heal the link after 30 ms via a user timer (loss drops surface no
    // events, so healing must ride the event loop itself).
    mmps.set_timer(SimDur::from_millis(30), 7, 0);
    let mut delivered_at = None;
    while let Some(evt) = mmps.next_event() {
        match evt {
            MmpsEvent::TimerFired { owner: 7, .. } => {
                mmps.net()
                    .set_loss_probability(netpart_sim::SegmentId(0), 0.0);
            }
            MmpsEvent::MessageDelivered { at, tag: 99, .. } => {
                delivered_at = Some(at);
                break;
            }
            _ => {}
        }
    }
    let at = delivered_at.expect("recovered after healing");
    let recovery = at.since(sent_at).as_millis_f64();
    assert!(
        recovery < 150.0,
        "adaptive RTO should recover in tens of ms, took {recovery}"
    );
    assert!(mmps.stats().retransmissions > 0);
}

#[test]
fn router_overflow_is_recovered_by_retransmission() {
    // A router with a tiny buffer drops burst traffic; the reliability
    // layer must still complete every message.
    let mut b = NetworkBuilder::new(41);
    let pt = b.add_proc_type(ProcType::sparcstation_2());
    let s1 = b.add_segment(SegmentSpec::ethernet_10mbps());
    let s2 = b.add_segment(SegmentSpec::ethernet_10mbps());
    b.add_router(netpart_sim::RouterSpec {
        segments: vec![s1, s2],
        per_frame: SimDur::from_micros(120),
        per_byte_sec: 5.0e-6, // slower than the ingress wire: queue builds
        buffer_frames: 2,     // absurdly small: bursts overflow
    });
    let a = b.add_node(pt, s1);
    let c = b.add_node(pt, s2);
    let mut mmps = Mmps::with_defaults(b.build().unwrap());
    let data: Vec<u8> = (0..9000u32).map(|i| (i % 251) as u8).collect();
    for k in 0..6u64 {
        mmps.send_message(a, c, k, Bytes::from(data.clone()))
            .unwrap();
    }
    let mut delivered = std::collections::HashSet::new();
    while let Some(evt) = mmps.next_event() {
        if let MmpsEvent::MessageDelivered { tag, payload, .. } = evt {
            assert_eq!(&payload[..], &data[..]);
            delivered.insert(tag);
        }
    }
    assert_eq!(delivered.len(), 6, "all messages must survive the overflow");
    assert!(
        mmps.stats().datagrams_dropped > 0,
        "the tiny buffer must actually have dropped frames"
    );
}

// ---------------------------------------------------------------------------
// Fault-model boundary tests: the retransmission budget and fail-stop
// crashes interacting at the edges (exactly-exhausted budgets, crashes on
// either side of an in-flight fragment train).
// ---------------------------------------------------------------------------

#[test]
fn budget_exhaustion_reports_every_attempt_and_the_right_peer() {
    // A fully opaque link: the budget is spent to the last retry and the
    // failure must carry src/dst/tag and the exact attempt count
    // (original transmission + MAX_RETRIES retries).
    let mut b = NetworkBuilder::new(7);
    let pt = b.add_proc_type(ProcType::sparcstation_2());
    let seg = b.add_segment(SegmentSpec::ethernet_10mbps());
    let a = b.add_node(pt, seg);
    let c = b.add_node(pt, seg);
    let mut mmps = Mmps::with_defaults(b.build().unwrap());
    // A peer dead from the very start swallows every frame
    // deterministically, so the attempt count is exact. Multi-fragment:
    // the train is re-paced on every retry and the budget must still be
    // counted per message, not per fragment.
    mmps.net()
        .install_fault_plan(&netpart_sim::FaultPlan::new().crash(SimTime::ZERO, c))
        .unwrap();
    mmps.send_message(a, c, 0xBEEF, Bytes::from(vec![7u8; 4000]))
        .unwrap();
    let mut failure = None;
    while let Some(evt) = mmps.next_event() {
        if let MmpsEvent::MessageFailed {
            src,
            dst,
            tag,
            attempts,
            ..
        } = evt
        {
            failure = Some((src, dst, tag, attempts));
        }
    }
    assert_eq!(
        failure,
        Some((a, c, 0xBEEF, 1 + MAX_RETRIES)),
        "1 send + MAX_RETRIES retries"
    );
    assert_eq!(mmps.stats().messages_failed, 1);
}

#[test]
fn retry_budget_sets_time_to_detection() {
    // A peer dead from the start never acks, so the sender walks the whole
    // retransmission ladder and the failure lands at an instant the public
    // constants fix: the size-scaled first timeout, then for retry r the
    // backed-off timeout `rto × 2^min(r, 6)` plus the paced fragments'
    // spread `n_frags × spacing × 2^min(r - 1, 6)`, for r = 1..=MAX_RETRIES.
    let mut b = NetworkBuilder::new(11);
    let pt = b.add_proc_type(ProcType::sparcstation_2());
    let seg = b.add_segment(SegmentSpec::ethernet_10mbps());
    let a = b.add_node(pt, seg);
    let c = b.add_node(pt, seg);
    let mut mmps = Mmps::with_defaults(b.build().unwrap());
    mmps.net()
        .install_fault_plan(&netpart_sim::FaultPlan::new().crash(SimTime::ZERO, c))
        .unwrap();
    let len = 2000;
    let sent_at = mmps.now();
    mmps.send_message(a, c, 3, Bytes::from(vec![1u8; len as usize]))
        .unwrap();
    let mut failure = None;
    while let Some(evt) = mmps.next_event() {
        if let MmpsEvent::MessageFailed {
            at,
            src,
            dst,
            attempts,
            ..
        } = evt
        {
            assert_eq!((src, dst), (a, c));
            failure = Some((at, attempts));
        }
    }
    let (failed_at, attempts) = failure.expect("the retry budget must run out");
    assert_eq!(attempts, 1 + MAX_RETRIES);

    let rto = rto_for(len).as_nanos();
    let n_frags = u64::from(FragPlan::new(len, HEADER_BYTES).n_frags);
    let spacing = RETX_FRAGMENT_SPACING.as_nanos();
    let ladder: u64 = rto
        + (1..=MAX_RETRIES)
            .map(|r| (rto << r.min(6)) + n_frags * (spacing << (r - 1).min(6)))
            .sum::<u64>();
    assert_eq!(failed_at.since(sent_at), SimDur::from_nanos(ladder));
    // 2,000 bytes: a 220 ms first timeout, waited 383 times over, plus
    // 319 paced spreads of two fragments at 2 ms.
    assert_eq!(ladder, 383 * 220_000_000 + 319 * 2 * 2_000_000);
}

#[test]
fn sender_crash_mid_fragment_train_dies_silently() {
    // Fail-stop semantics: a crashed sender's pending retransmissions die
    // with its protocol stack. The event stream must drain with neither a
    // delivery nor a MessageFailed — silence, not a misattributed failure.
    let mut b = NetworkBuilder::new(13);
    let pt = b.add_proc_type(ProcType::sparcstation_2());
    let seg = b.add_segment(SegmentSpec {
        loss_probability: 0.9, // the train will need many retries
        ..SegmentSpec::ethernet_10mbps()
    });
    let a = b.add_node(pt, seg);
    let c = b.add_node(pt, seg);
    let mut mmps = Mmps::with_defaults(b.build().unwrap());
    mmps.net()
        .install_fault_plan(
            &netpart_sim::FaultPlan::new().crash(SimTime::ZERO + SimDur::from_millis(5), a),
        )
        .unwrap();
    mmps.send_message(a, c, 9, Bytes::from(vec![2u8; 20_000]))
        .unwrap();
    while let Some(evt) = mmps.next_event() {
        match evt {
            MmpsEvent::MessageDelivered { .. } => panic!("crashed sender cannot complete"),
            MmpsEvent::MessageFailed { .. } => {
                panic!("a dead sender has no stack left to report failure")
            }
            _ => {}
        }
    }
    assert_eq!(mmps.stats().messages_failed, 0);
    assert_eq!(mmps.stats().messages_delivered, 0);
}

#[test]
fn receiver_crash_fails_the_message_naming_the_receiver() {
    // The ack-side peer crashes while a long train is in flight: the live
    // sender must exhaust its budget and the typed failure must name the
    // *receiver* (the suspect), never the surviving sender.
    let mut b = NetworkBuilder::new(17);
    let pt = b.add_proc_type(ProcType::sparcstation_2());
    let seg = b.add_segment(SegmentSpec::ethernet_10mbps());
    let a = b.add_node(pt, seg);
    let c = b.add_node(pt, seg);
    let mut mmps = Mmps::with_defaults(b.build().unwrap());
    // Crash the receiver almost immediately: the 14-fragment train is
    // still being clocked out on the wire.
    mmps.net()
        .install_fault_plan(
            &netpart_sim::FaultPlan::new().crash(SimTime::ZERO + SimDur::from_micros(500), c),
        )
        .unwrap();
    mmps.send_message(a, c, 21, Bytes::from(vec![3u8; 20_000]))
        .unwrap();
    let mut failure = None;
    while let Some(evt) = mmps.next_event() {
        match evt {
            MmpsEvent::MessageDelivered { .. } => panic!("receiver is dead"),
            MmpsEvent::MessageFailed {
                src, dst, attempts, ..
            } => failure = Some((src, dst, attempts)),
            _ => {}
        }
    }
    let (src, dst, attempts) = failure.expect("sender must give up");
    assert_eq!(src, a);
    assert_eq!(dst, c, "failure names the dead receiver");
    assert_eq!(
        attempts,
        1 + MAX_RETRIES,
        "budget fully spent before declaring death"
    );
}

#[test]
fn corruption_burst_delivers_intact_or_fails_typed_never_mangled() {
    // A total-corruption window covers the initial fragment train (so its
    // tail — the last fragment included — arrives flagged and is discarded
    // by the frame checksum), then ends. The retransmission budget must
    // deliver the payload bit-identically; the corruption can only ever
    // cost time, never content.
    let data: Vec<u8> = (0..20_000u32)
        .map(|i| (i.wrapping_mul(37) % 253) as u8)
        .collect();
    let (mut mmps, a, c) = pair_net(0.0, 29);
    mmps.net()
        .install_fault_plan(&netpart_sim::FaultPlan::new().corrupt_burst(
            netpart_sim::SegmentId(0),
            SimTime::ZERO,
            SimTime::ZERO + SimDur::from_millis(12),
            1.0,
        ))
        .unwrap();
    mmps.send_message(a, c, 4, Bytes::from(data.clone()))
        .unwrap();
    let (tag, payload, _) = drain_until_delivery(&mut mmps).expect("delivered after burst ends");
    assert_eq!(tag, 4);
    assert_eq!(
        &payload[..],
        &data[..],
        "payload must survive corruption bit-identically"
    );
    let st = mmps.stats();
    assert!(st.corrupt_dropped >= 1, "the burst must have eaten frames");
    assert!(st.retransmissions >= 1, "recovery rides the retry budget");
    assert_eq!(st.messages_failed, 0);

    // An unbounded total-corruption burst: the sender must surface the
    // typed MessageFailed (peer presumed unreachable) — silence or a
    // mangled delivery are both bugs.
    let mut b = NetworkBuilder::new(31);
    let pt = b.add_proc_type(ProcType::sparcstation_2());
    let seg = b.add_segment(SegmentSpec::ethernet_10mbps());
    let a = b.add_node(pt, seg);
    let c = b.add_node(pt, seg);
    let mut mmps = Mmps::with_defaults(b.build().unwrap());
    mmps.net()
        .install_fault_plan(&netpart_sim::FaultPlan::new().corrupt_burst(
            netpart_sim::SegmentId(0),
            SimTime::ZERO,
            SimTime::ZERO + SimDur::from_secs_f64(3600.0),
            1.0,
        ))
        .unwrap();
    mmps.send_message(a, c, 8, Bytes::from(vec![9u8; 4000]))
        .unwrap();
    let mut failed = false;
    while let Some(evt) = mmps.next_event() {
        match evt {
            MmpsEvent::MessageDelivered { .. } => panic!("nothing intact can arrive"),
            MmpsEvent::MessageFailed { src, dst, .. } => {
                assert_eq!((src, dst), (a, c));
                failed = true;
            }
            _ => {}
        }
    }
    assert!(failed, "an always-corrupting link must exhaust retries");
}
