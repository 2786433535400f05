//! `flood` — the event core with hundreds of thousands of standing events.
//!
//! `netpart::sim::Network` driven directly: eight stations on two ethernet
//! segments joined by one router; seven of them send one-byte datagrams to
//! the eighth (three share its segment, four cross the router). A
//! repetition sends 400 000 datagrams in two waves: build a network,
//! enqueue 200 000 sends, drain it; then the same on a fresh network. No
//! timers, no MMPS, no application — the same `sim` layer as `paper12`
//! used the opposite way, and the one case where the time wheel beats a
//! binary heap. A queue change that helps sparse runs and costs deep ones
//! shows here.
//!
//! Why waves on fresh networks: the simulator's host cost per event
//! explodes once simulated time passes roughly 2×10⁵ s, and ethernet's
//! per-queued-frame contention delay makes a standing queue of n frames
//! take ~n² µs to drain: 250 000 frames at once still drain in 0.13 s,
//! 400 000 take 8 s (README, sizing findings). With the router's default
//! 256-frame buffer a fifth of the flood is dropped instead. A 200 000
//! frame wave ends at 10⁵ simulated seconds, half way to that knee, so
//! the workload measures the event core and not the knee's position.
//!
//! The traced run's probe drives `Mmps` directly (6000 windowed 8 KB
//! trains between two stations) for `mmps.ns_per_fragment`.

use std::time::{Duration, Instant};

use bytes::Bytes;
use netpart::mmps::{Mmps, MmpsEvent};
use netpart::sim::{
    Network, NetworkBuilder, NodeId, ProcType, RouterSpec, SegmentSpec, SimEvent,
    MAX_DATAGRAM_PAYLOAD,
};

use super::{report_net, NetFacts};
use crate::harness::{ClosedLoop, Layers, TracedReps};
use crate::trace::Tracer;

/// Datagrams per repetition.
pub const SENDS: usize = 400_000;
/// Datagrams enqueued before each drain.
pub const WAVE: usize = 200_000;
/// How often the drain loop samples `pending_work()` (in events).
const PENDING_SAMPLE_EVERY: u64 = 4096;
/// Messages, payload and window of the MMPS probe.
const MMPS_MSGS: u64 = 6_000;
const MMPS_BYTES: usize = 8_192;
const MMPS_WINDOW: u64 = 32;

/// The sender of each datagram: indices 0–2 share the receiver's segment,
/// 3–6 sit across the router, and the seven take turns. The order is
/// fixed, not drawn from the seed: which queues and tables of the
/// simulator grow, and how far, depends on how the senders interleave —
/// shuffling the order, or only rotating which sender goes first, moves
/// `op_ms` and `peak_rss_mb` by more than a tenth — so the interleaving is
/// part of the workload's definition. The seed is the simulator's seed.
pub fn sender_sequence() -> Vec<u8> {
    (0..SENDS).map(|i| (i % 7) as u8).collect()
}

/// State of the workload between repetitions.
pub struct Flood {
    seed: u64,
    senders: Vec<u8>,
    expected: Option<Facts>,
    last: Option<Facts>,
}

/// What a repetition produced, summed over its waves.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Facts {
    delivered: u64,
    other_events: u64,
    net: NetFacts,
    sim_elapsed_ns: u64,
    peak_pending: usize,
}

fn build(seed: u64) -> Result<(Network, Vec<NodeId>), String> {
    let mut b = NetworkBuilder::new(seed);
    let pt = b.add_proc_type(ProcType::sparcstation_2());
    let near = b.add_segment(SegmentSpec::ethernet_10mbps());
    let far = b.add_segment(SegmentSpec::ethernet_10mbps());
    let mut router = RouterSpec::paper_router(vec![near, far]);
    // Every cross-router frame may queue behind a whole wave; a router
    // that drops would turn the workload into a loss benchmark.
    router.buffer_frames = WAVE;
    b.add_router(router);
    // Stations 0–2 and the receiver (7) on the near segment, 3–6 far.
    let mut nodes: Vec<NodeId> = (0..3).map(|_| b.add_node(pt, near)).collect();
    nodes.extend((0..4).map(|_| b.add_node(pt, far)));
    nodes.push(b.add_node(pt, near));
    let net = b.build().map_err(|e| format!("flood network: {e}"))?;
    Ok((net, nodes))
}

impl ClosedLoop for Flood {
    type Output = Facts;

    fn setup(seed: u64, _nth: usize) -> Result<Flood, String> {
        Ok(Flood {
            seed,
            senders: sender_sequence(),
            expected: None,
            last: None,
        })
    }

    fn repetition(&mut self, t: &mut Tracer) -> Result<Facts, String> {
        let payload = Bytes::from_static(b"x");
        let mut facts = Facts::default();
        for (w, wave) in self.senders.chunks(WAVE).enumerate() {
            let (mut net, nodes) = t.span("sim.build", |_| build(self.seed))?;
            let receiver = nodes[7];
            t.span("sim.enqueue", |_| {
                for (i, &s) in wave.iter().enumerate() {
                    let tag = (w * WAVE + i) as u64;
                    net.send_datagram(nodes[s as usize], receiver, tag, payload.clone())
                        .map_err(|e| format!("send {tag}: {e}"))?;
                }
                Ok::<(), String>(())
            })?;
            facts.peak_pending = facts.peak_pending.max(net.pending_work());
            t.span("sim.drain", |_| {
                let mut n = 0u64;
                while let Some(evt) = net.next_event() {
                    if matches!(evt, SimEvent::DatagramDelivered { .. }) {
                        facts.delivered += 1;
                    } else {
                        facts.other_events += 1;
                    }
                    n += 1;
                    if n.is_multiple_of(PENDING_SAMPLE_EVERY) {
                        facts.peak_pending = facts.peak_pending.max(net.pending_work());
                    }
                }
            });
            facts.net.add(&NetFacts::read(&net, 1));
            facts.sim_elapsed_ns += net.now().as_nanos();
        }
        Ok(facts)
    }

    fn check(&mut self, facts: Facts) -> Vec<String> {
        let mut failures = Vec::new();
        if facts.delivered != SENDS as u64 {
            failures.push(format!(
                "delivered {} of {SENDS} datagrams ({} dropped, {} other events)",
                facts.delivered, facts.net.datagrams_dropped, facts.other_events
            ));
        }
        match &self.expected {
            None => self.expected = Some(facts),
            Some(first) if *first != facts => {
                failures.push("event counts differ from the first repetition".into());
            }
            Some(_) => {}
        }
        self.last = Some(facts);
        failures
    }

    fn probes(&mut self, t: &mut Tracer, budget: Duration, layers: &mut Layers) -> Vec<String> {
        let mut failures = Vec::new();
        let deadline = Instant::now() + budget;
        let mut ns_per_fragment = Vec::new();
        let fragments_per_msg = MMPS_BYTES.div_ceil(MAX_DATAGRAM_PAYLOAD) as u64;
        loop {
            match t.span("mmps.trains", |_| mmps_trains(self.seed)) {
                Ok(ns) => ns_per_fragment.push(ns as f64 / (MMPS_MSGS * fragments_per_msg) as f64),
                Err(e) => {
                    failures.push(e);
                    break;
                }
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        layers.set(
            "mmps.ns_per_fragment",
            crate::stats::median(&ns_per_fragment),
        );
        failures
    }

    fn layers(&self, reps: &TracedReps, layers: &mut Layers) {
        let Some(f) = &self.last else { return };
        report_net(&f.net, layers);
        let loop_ms = reps.total_ms("sim.enqueue") + reps.total_ms("sim.drain");
        layers.set(
            "sim.ns_per_event",
            loop_ms * 1e6 / f.net.events.max(1) as f64,
        );
        layers.set("sim.peak_pending", f.peak_pending as f64);
        layers.set("sim.build_us", reps.mean_us("sim.build"));
        let sim_ms = f.sim_elapsed_ns as f64 / 1e6;
        layers.set("sim.elapsed_ms", sim_ms);
        layers.set(
            "sim.host_s_per_sim_s",
            reps.wall_ms() / sim_ms.max(f64::MIN_POSITIVE),
        );
    }
}

/// The reliable transport alone: fragmented 8 KB messages between two
/// stations on one segment, a fixed window outstanding and refilled on
/// every delivery. Returns host ns.
fn mmps_trains(seed: u64) -> Result<u64, String> {
    let mut b = NetworkBuilder::new(seed);
    let pt = b.add_proc_type(ProcType::sparcstation_2());
    let seg = b.add_segment(SegmentSpec::ethernet_10mbps());
    let (src, dst) = (b.add_node(pt, seg), b.add_node(pt, seg));
    let mut mmps = Mmps::with_defaults(b.build().map_err(|e| format!("mmps network: {e}"))?);
    let payload = Bytes::from(vec![0u8; MMPS_BYTES]);
    let start = Instant::now();
    let mut sent = 0u64;
    while sent < MMPS_WINDOW {
        mmps.send_message(src, dst, sent, payload.clone())
            .map_err(|e| format!("mmps send: {e}"))?;
        sent += 1;
    }
    let mut done = 0u64;
    while let Some(evt) = mmps.next_event() {
        if matches!(evt, MmpsEvent::MessageDelivered { .. }) {
            done += 1;
            if sent < MMPS_MSGS {
                mmps.send_message(src, dst, sent, payload.clone())
                    .map_err(|e| format!("mmps send: {e}"))?;
                sent += 1;
            }
        }
    }
    let ns = start.elapsed().as_nanos() as u64;
    if done != MMPS_MSGS {
        return Err(format!("mmps delivered {done} of {MMPS_MSGS} messages"));
    }
    Ok(ns)
}
