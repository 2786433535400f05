//! The reset contract of the message layer: `Mmps::reset` returns the
//! service and its network to their just-built state, so a schedule run
//! after a reset that caught messages mid-retransmission produces the
//! events, counters and RTT state it produces on a fresh build.

use bytes::Bytes;
use proptest::prelude::*;

use netpart_mmps::Mmps;
use netpart_sim::{
    NetworkBuilder, NodeId, OpClass, ProcType, RouterSpec, SegmentId, SegmentSpec, SimDur,
};

const NODES: usize = 5;

/// A lossy segment of three Sparc2s and a clean segment of two RS/6000s
/// (another data format, so deliveries between them wait on coercion),
/// joined by one router.
fn build(seed: u64) -> Mmps {
    let mut b = NetworkBuilder::new(seed);
    let sparc = b.add_proc_type(ProcType::sparcstation_2());
    let rs = b.add_proc_type(ProcType::rs6000());
    let lossy = b.add_segment(SegmentSpec {
        loss_probability: 0.2,
        ..SegmentSpec::ethernet_10mbps()
    });
    let clean = b.add_segment(SegmentSpec::ethernet_10mbps());
    b.add_router(RouterSpec::paper_router(vec![lossy, clean]));
    for _ in 0..3 {
        b.add_node(sparc, lossy);
    }
    for _ in 0..2 {
        b.add_node(rs, clean);
    }
    Mmps::with_defaults(b.build().expect("network"))
}

fn node(i: usize) -> NodeId {
    NodeId((i % NODES) as u32)
}

/// One submission or a run of events; `(kind, a, b, c)` from the strategy.
type Op = (u8, usize, usize, u32);

/// Apply `ops`, record every outcome and event, then run until `stop`
/// says so (checked after each event) or the service quiesces.
fn run(mmps: &mut Mmps, ops: &[Op], mut stop: impl FnMut(&Mmps) -> bool) -> Vec<String> {
    let mut trace = Vec::new();
    for &(kind, a, b, c) in ops {
        match kind % 6 {
            0 => {
                let payload = Bytes::from(vec![c as u8; c as usize % 6000]);
                let sent = mmps.send_message(node(a), node(b), u64::from(c), payload);
                trace.push(format!("send {sent:?}"));
            }
            1 => {
                let sent = mmps.send_message_dummy(node(a), node(b), u64::from(c), c % 9000);
                trace.push(format!("dummy {sent:?}"));
            }
            2 => {
                mmps.set_timer(SimDur::from_micros(u64::from(c)), a as u64, b as u64);
            }
            3 => mmps.start_compute(node(a), f64::from(c) * 50.0, OpClass::IntOp, b as u64),
            4 if c % 97 == 0 => mmps.abort_peer(node(a)),
            _ => {
                for _ in 0..c % 30 {
                    let Some(evt) = mmps.next_event() else { break };
                    trace.push(format!("{evt:?}"));
                }
            }
        }
    }
    while !stop(mmps) {
        let Some(evt) = mmps.next_event() else { break };
        trace.push(format!("{evt:?}"));
    }
    trace
}

/// Everything the service and its network count, as one comparable value.
fn counters(mmps: &Mmps) -> Vec<String> {
    let net = mmps.net_ref();
    let mut out = vec![
        format!("{:?}", mmps.stats()),
        format!(
            "now {:?} events {} delivered {} dropped {}",
            net.now(),
            net.events_processed(),
            net.datagrams_delivered(),
            net.datagrams_dropped()
        ),
    ];
    for s in 0..2 {
        out.push(format!("{:?}", net.segment_stats(SegmentId(s))));
    }
    for a in 0..NODES {
        for b in 0..NODES {
            out.push(format!("{:?}", mmps.smoothed_rtt(node(a), node(b))));
        }
    }
    out
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..6, 0usize..NODES, 0usize..NODES, 0u32..30_000), 0..40)
}

/// Large messages across the lossy segment and the router, so schedule A
/// always has retransmissions to be caught in: about 90 frames cross the
/// lossy segment, and all of them arrive with probability 0.8^90 ≈ 2e-9.
fn bulk() -> Vec<Op> {
    [
        (0, 0, 1, 5_500),
        (0, 1, 3, 5_900),
        (1, 2, 4, 8_800),
        (0, 4, 0, 4_000),
    ]
    .repeat(4)
}

proptest! {
    /// Schedule A runs until some message has been retransmitted and then
    /// a few events more, so the reset lands with messages in flight,
    /// retransmission and delivery timers armed and RTT samples taken.
    /// Schedule B after the reset must
    /// be schedule B on a fresh build.
    #[test]
    fn mmps_reset_mid_retransmission_is_a_fresh_build(
        a in ops(),
        extra in 0u32..40,
        b in ops(),
        seed in 0u64..1_000,
    ) {
        let mut reused = build(seed);
        let a = [bulk(), a].concat();
        let mut after_retx = None;
        run(&mut reused, &a, |m| {
            if m.stats().retransmissions > 0 {
                let left = after_retx.get_or_insert(extra);
                *left = left.saturating_sub(1);
                return *left == 0;
            }
            false
        });
        prop_assert!(reused.stats().retransmissions > 0, "schedule A never retransmitted");
        reused.reset();
        let after_reset = run(&mut reused, &b, |_| false);
        let mut fresh = build(seed);
        let on_fresh = run(&mut fresh, &b, |_| false);
        prop_assert_eq!(after_reset, on_fresh);
        prop_assert_eq!(counters(&reused), counters(&fresh));
    }
}

/// A reset service reports what a just-built one reports.
#[test]
fn mmps_reset_zeroes_every_counter() {
    let mut mmps = build(3);
    let before = counters(&mmps);
    run(&mut mmps, &bulk(), |_| false);
    assert!(mmps.stats().messages_delivered > 0);
    mmps.reset();
    assert_eq!(counters(&mmps), before);
    assert!(mmps.next_event().is_none());
}
