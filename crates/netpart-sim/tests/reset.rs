//! The reset contract: `Network::reset` returns a network to exactly its
//! just-built state. A schedule run after a reset — whatever ran before
//! it, and wherever that run was cut off — produces the event sequence
//! and the counters it produces on a fresh build.

use bytes::Bytes;
use proptest::prelude::*;

use netpart_sim::{
    FaultPlan, Network, NetworkBuilder, NodeId, OpClass, ProcType, RouterId, RouterSpec, SegmentId,
    SegmentSpec, SimDur, SimTime, TimerId,
};

const NODES: usize = 6;
const SEGMENTS: u16 = 3;
const ROUTERS: u16 = 3;

/// Three segments joined pairwise by three routers, two nodes on each
/// segment, segment 0 lossy (so delivery draws from the loss RNG). A
/// router outage reroutes over the other two.
fn build(seed: u64) -> Network {
    let mut b = NetworkBuilder::new(seed);
    let fast = b.add_proc_type(ProcType::sparcstation_2());
    let slow = b.add_proc_type(ProcType::sun4_ipc());
    let lossy = b.add_segment(SegmentSpec {
        loss_probability: 0.15,
        ..SegmentSpec::ethernet_10mbps()
    });
    let s1 = b.add_segment(SegmentSpec::ethernet_10mbps());
    let s2 = b.add_segment(SegmentSpec::ethernet_10mbps());
    for ports in [vec![lossy, s1], vec![s1, s2], vec![lossy, s2]] {
        b.add_router(RouterSpec::paper_router(ports));
    }
    for seg in [lossy, s1, s2] {
        b.add_node(fast, seg);
        b.add_node(slow, seg);
    }
    b.build().expect("network")
}

/// One submission or a run of events; `(kind, a, b, c)` from the strategy.
type Op = (u8, usize, usize, u32);

fn node(i: usize) -> NodeId {
    NodeId((i % NODES) as u32)
}

fn at_us(us: u64) -> SimTime {
    SimTime::ZERO + SimDur::from_micros(us)
}

/// A plan with every fault kind the network applies: crash and recover,
/// slowdown, external load, loss and corruption bursts, a link down, a
/// router outage and a traffic burst. `t` holds onsets and window lengths
/// in microseconds.
fn fault_plan(t: &[u64]) -> FaultPlan {
    let window = |i: usize| (at_us(t[i]), at_us(t[i] + t[i + 1]));
    let (crash, recover) = window(0);
    let (loss_from, loss_until) = window(2);
    let (corrupt_from, corrupt_until) = window(4);
    let (link_from, link_until) = window(6);
    let (outage_from, outage_until) = window(8);
    let (flood_from, flood_until) = window(10);
    FaultPlan::new()
        .crash(crash, node(1))
        .node_recover(recover, node(1))
        .slow(at_us(t[12]), node(4), 3.0)
        .load(at_us(t[13]), node(5), 0.5)
        .loss_burst(SegmentId(1), loss_from, loss_until, 0.4)
        .corrupt_burst(SegmentId(2), corrupt_from, corrupt_until, 0.3)
        .link_down(RouterId(0), SegmentId(0), link_from, link_until)
        .router_outage(RouterId(2), outage_from, outage_until)
        .traffic_burst(
            SegmentId(0),
            flood_from,
            flood_until,
            700,
            SimDur::from_micros(900),
        )
}

/// Apply `ops` and `plan` to `net`, record every outcome and event, then
/// run until the clock reaches `stop` (`None`: to quiescence).
fn run(net: &mut Network, ops: &[Op], plan: &FaultPlan, stop: Option<SimTime>) -> Vec<String> {
    let mut trace = Vec::new();
    net.install_fault_plan(plan).expect("valid plan");
    let mut timers: Vec<TimerId> = Vec::new();
    for &(kind, a, b, c) in ops {
        match kind % 7 {
            0 => {
                let payload = Bytes::from(vec![a as u8; c as usize % 1400]);
                let sent = net.send_datagram(node(a), node(b), u64::from(c), payload);
                trace.push(format!("send {sent:?}"));
            }
            1 => timers.push(net.set_timer(SimDur::from_micros(u64::from(c)), a as u64, b as u64)),
            2 => {
                if !timers.is_empty() {
                    net.cancel_timer(timers[c as usize % timers.len()]);
                }
            }
            3 => net.start_compute(node(a), f64::from(c) * 100.0, OpClass::Flop, b as u64),
            4 => net.set_external_load(node(a), f64::from(c % 100) / 100.0),
            5 => {
                net.set_loss_probability(SegmentId(a as u16 % SEGMENTS), f64::from(c % 50) / 100.0)
            }
            _ => {
                for _ in 0..c % 40 {
                    let Some(evt) = net.next_event() else { break };
                    trace.push(format!("{evt:?}"));
                }
            }
        }
    }
    // A traffic burst runs until its window ends, so quiescence comes.
    let stop = stop.unwrap_or(SimTime(u64::MAX));
    while net.now() < stop {
        let Some(evt) = net.next_event() else { break };
        trace.push(format!("{evt:?}"));
    }
    trace
}

/// Everything a run counts, as one comparable value.
fn counters(net: &Network) -> Vec<String> {
    let mut out = vec![format!(
        "now {:?} events {} delivered {} dropped {} recomputes {} pending {} idle {} degraded {}",
        net.now(),
        net.events_processed(),
        net.datagrams_delivered(),
        net.datagrams_dropped(),
        net.route_recomputes(),
        net.pending_work(),
        net.is_idle(),
        net.fabric_degraded(),
    )];
    for s in 0..SEGMENTS {
        out.push(format!("{:?}", net.segment_stats(SegmentId(s))));
    }
    for r in 0..ROUTERS {
        out.push(format!("{:?}", net.router_stats(RouterId(r))));
    }
    for n in 0..NODES {
        out.push(format!("crashed {}", net.node_crashed(node(n))));
    }
    out
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..7, 0usize..NODES, 0usize..NODES, 0u32..20_000), 0..60)
}

/// Onsets and window lengths: windows long enough that a reset usually
/// lands inside several of them.
fn windows() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..80_000, 14..15)
}

proptest! {
    /// Schedule A (traffic, timers set and cancelled, compute, load and
    /// loss changes, every fault kind) runs to a random instant, so the
    /// reset lands with frames on the wire, in router buffers and in the
    /// slab, timers pending, outage windows open and a flood running.
    /// Schedule B after the reset must be schedule B on a fresh build.
    #[test]
    fn a_run_after_reset_is_a_run_on_a_fresh_build(
        a in ops(),
        a_faults in windows(),
        a_stop_us in 0u64..100_000,
        b in ops(),
        b_faults in windows(),
        seed in 0u64..1_000,
    ) {
        let mut reused = build(seed);
        run(&mut reused, &a, &fault_plan(&a_faults), Some(at_us(a_stop_us)));
        reused.reset();
        let b_plan = fault_plan(&b_faults);
        let after_reset = run(&mut reused, &b, &b_plan, None);
        let mut fresh = build(seed);
        let on_fresh = run(&mut fresh, &b, &b_plan, None);
        prop_assert_eq!(after_reset, on_fresh);
        prop_assert_eq!(counters(&reused), counters(&fresh));
    }

    /// Resetting twice, or resetting a network that never ran, changes
    /// nothing either.
    #[test]
    fn reset_is_idempotent(b in ops(), seed in 0u64..1_000) {
        let plan = FaultPlan::new();
        let mut reused = build(seed);
        reused.reset();
        reused.reset();
        let after_reset = run(&mut reused, &b, &plan, None);
        let on_fresh = run(&mut build(seed), &b, &plan, None);
        prop_assert_eq!(after_reset, on_fresh);
    }
}

/// A just-built network and a reset one report the same counters, and a
/// reset network is idle with its clock at zero.
#[test]
fn reset_returns_the_clock_and_counters_to_zero() {
    let mut net = build(7);
    let before = counters(&net);
    let ops: Vec<Op> = (0..30).map(|i| (0, i, i + 2, 900)).collect();
    run(&mut net, &ops, &fault_plan(&[500; 14]), None);
    assert!(net.now() > SimTime::ZERO);
    assert!(net.datagrams_delivered() > 0);
    net.reset();
    assert_eq!(counters(&net), before);
    assert!(net.is_idle());
}
