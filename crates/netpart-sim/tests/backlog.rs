//! A router backlog far longer than the event queue's wheel horizon
//! (~17 simulated seconds): one wave of one-byte datagrams from seven
//! stations to an eighth, four of them across a router whose buffer holds
//! the whole wave. Past ~250 000 frames the tail of such a wave is
//! scheduled beyond the horizon as a monotone stream of far-future items.
//!
//! The timing is informational, not asserted:
//! `cargo test --release -p netpart-sim --test backlog -- --ignored --nocapture`

use std::time::Instant;

use bytes::Bytes;
use netpart_sim::{NetworkBuilder, ProcType, RouterSpec, SegmentSpec, SimEvent};

/// Enqueue `frames` sends at time zero and drain them; returns (events
/// processed, datagrams delivered, simulated seconds, host ms).
fn drain_wave(frames: usize) -> (u64, u64, f64, f64) {
    let mut b = NetworkBuilder::new(1);
    let pt = b.add_proc_type(ProcType::sparcstation_2());
    let near = b.add_segment(SegmentSpec::ethernet_10mbps());
    let far = b.add_segment(SegmentSpec::ethernet_10mbps());
    let mut router = RouterSpec::paper_router(vec![near, far]);
    router.buffer_frames = frames;
    b.add_router(router);
    let mut senders: Vec<_> = (0..3).map(|_| b.add_node(pt, near)).collect();
    senders.extend((0..4).map(|_| b.add_node(pt, far)));
    let receiver = b.add_node(pt, near);
    let mut net = b.build().expect("backlog network");
    let payload = Bytes::from_static(b"x");
    let start = Instant::now();
    for i in 0..frames {
        net.send_datagram(senders[i % 7], receiver, i as u64, payload.clone())
            .expect("send");
    }
    let mut delivered = 0u64;
    while let Some(evt) = net.next_event() {
        if matches!(evt, SimEvent::DatagramDelivered { .. }) {
            delivered += 1;
        }
    }
    let ms = start.elapsed().as_secs_f64() * 1e3;
    (
        net.events_processed(),
        delivered,
        net.now().as_nanos() as f64 / 1e9,
        ms,
    )
}

#[test]
#[ignore = "informational host timing, run with --release --nocapture"]
fn one_wave_past_the_horizon_drains() {
    for frames in [400_000, 800_000] {
        let (events, delivered, sim_s, ms) = drain_wave(frames);
        assert_eq!(delivered, frames as u64, "every frame is delivered");
        println!(
            "wave of {frames:>7} frames: {events:>9} events, {sim_s:>9.0} simulated s, {ms:>8.1} host ms"
        );
    }
}
