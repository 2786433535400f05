//! Event-core throughput measurement: the `experiments -- simcore`
//! subcommand.
//!
//! Three workloads exercise the simulator at increasing stack depth, each
//! fully drained and timed with a wall clock while the network counts the
//! scheduler work items it processes
//! ([`Network::events_processed`](netpart_sim::Network::events_processed)):
//!
//! 1. **datagram drain** — raw frame pipeline, 8 stations flooding one
//!    segment; no reliability layer, no application.
//! 2. **MMPS trains** — fragmented 8 KB messages with acks and timers
//!    through the reliable transport.
//! 3. **STEN-1 cycle loop** — the paper's five-point stencil on the
//!    12-node two-segment testbed, the workload ROADMAP's scale push
//!    actually cares about.
//!
//! Workloads are deterministic (fixed seeds, fixed sizes), so the event
//! *count* of each is a constant of the codebase; only the wall time
//! varies by machine. [`SIMCORE_FLOORS`] are the CI regression floors —
//! deliberately far below the measured throughput so slower CI hardware
//! does not false-positive, while a real algorithmic regression (events/s
//! collapsing) still trips them. How the wheel compares with the
//! `BinaryHeap` it replaced is an in-run A/B recorded in DESIGN.md
//! ("Event core"), not a constant committed from another machine.

use std::time::Instant;

use bytes::Bytes;
use netpart_apps::stencil::{StencilApp, StencilVariant};
use netpart_calibrate::Testbed;
use netpart_mmps::{Mmps, MmpsEvent};
use netpart_model::PartitionVector;
use netpart_sim::{NetworkBuilder, ProcType, SegmentSpec, SimEvent};
use netpart_spmd::Executor;
use netpart_topology::PlacementStrategy;

/// Sends in the datagram-drain workload (~3 events each: frame-ready,
/// tx-end, deliver), sized so one run is well past a million events and
/// wall times are long enough (>100 ms) to measure above scheduler noise.
pub const DGRAM_SENDS: u64 = 400_000;
/// Messages in the MMPS fragment-train workload (8 KB → 6 fragments).
pub const MMPS_MSGS: u64 = 6_000;
/// Outstanding messages in the MMPS workload's send window.
pub const MMPS_WINDOW: u64 = 32;
/// Stencil size of the cycle-loop workload (the paper's N=600).
pub const STEN_N: usize = 600;
/// Stencil iterations of the cycle-loop workload.
pub const STEN_ITERS: u64 = 100;

/// CI floors, per workload: `experiments -- simcore` exits nonzero when a
/// workload measures below its floor. Floors sit at roughly a third of
/// the reference-machine figures, low enough that slower CI hardware does
/// not false-positive while an algorithmic regression (events/s
/// collapsing) still trips them. The STEN-1 floor is far lower than the
/// others because that workload's wall clock is dominated by the real
/// stencil arithmetic, not the scheduler (see `BENCH_simcore.json`).
pub const SIMCORE_FLOORS: [(&str, f64); 3] = [
    ("datagram_drain", 2.5e6),
    ("mmps_trains", 2.5e6),
    ("sten1_cycle", 5.0e4),
];

/// One timed workload: scheduler work items processed and the wall time
/// the drain took.
#[derive(Debug, Clone)]
pub struct SimcoreSample {
    /// Workload name (stable key, used by the floor table).
    pub name: &'static str,
    /// Scheduler work items processed (deterministic per codebase).
    pub events: u64,
    /// Wall-clock seconds for the drain (best of the repeats).
    pub wall_secs: f64,
}

impl SimcoreSample {
    /// Scheduler work items per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// This workload's CI floor, if one is set.
    pub fn floor(&self) -> Option<f64> {
        SIMCORE_FLOORS
            .iter()
            .find(|(n, _)| *n == self.name)
            .map(|&(_, eps)| eps)
    }

    /// Whether this run cleared its floor (vacuously true without one).
    pub fn floor_cleared(&self) -> bool {
        self.floor().is_none_or(|f| self.events_per_sec() >= f)
    }
}

/// Raw datagram pipeline: seven senders flood one receiver on a shared
/// segment; drain to quiescence.
pub fn run_datagram_drain(sends: u64) -> SimcoreSample {
    let mut nb = NetworkBuilder::new(1);
    let pt = nb.add_proc_type(ProcType::sparcstation_2());
    let seg = nb.add_segment(SegmentSpec::ethernet_10mbps());
    let nodes: Vec<_> = (0..8).map(|_| nb.add_node(pt, seg)).collect();
    let mut net = nb.build().expect("valid topology");
    let start = Instant::now();
    for i in 0..sends {
        let s = (i % 7) as usize;
        net.send_datagram(nodes[s], nodes[7], i, Bytes::from_static(b"x"))
            .expect("send accepted");
    }
    let mut delivered = 0u64;
    while let Some(evt) = net.next_event() {
        if matches!(evt, SimEvent::DatagramDelivered { .. }) {
            delivered += 1;
        }
    }
    let wall_secs = start.elapsed().as_secs_f64();
    assert_eq!(delivered, sends, "lossless segment must deliver all");
    SimcoreSample {
        name: "datagram_drain",
        events: net.events_processed(),
        wall_secs,
    }
}

/// Reliable transport: fragmented 8 KB messages between two stations,
/// acks and retransmission timers included; drain to quiescence.
pub fn run_mmps_trains(msgs: u64) -> SimcoreSample {
    let mut nb = NetworkBuilder::new(1);
    let pt = nb.add_proc_type(ProcType::sparcstation_2());
    let seg = nb.add_segment(SegmentSpec::ethernet_10mbps());
    let a = nb.add_node(pt, seg);
    let d = nb.add_node(pt, seg);
    let mut mmps = Mmps::with_defaults(nb.build().expect("valid topology"));
    let payload = Bytes::from(vec![0u8; 8192]);
    // Windowed sends: 600 trains in flight at once would trip the RETX
    // give-up on a 10 Mbit/s channel; keep a fixed window outstanding and
    // refill on every delivery, like a real sender would.
    let window = MMPS_WINDOW.min(msgs);
    let start = Instant::now();
    let mut sent = 0u64;
    while sent < window {
        mmps.send_message(a, d, sent, payload.clone())
            .expect("send accepted");
        sent += 1;
    }
    let mut done = 0u64;
    while let Some(evt) = mmps.next_event() {
        if matches!(evt, MmpsEvent::MessageDelivered { .. }) {
            done += 1;
            if sent < msgs {
                mmps.send_message(a, d, sent, payload.clone())
                    .expect("send accepted");
                sent += 1;
            }
        }
    }
    let wall_secs = start.elapsed().as_secs_f64();
    assert_eq!(done, msgs, "lossless segment must deliver all messages");
    SimcoreSample {
        name: "mmps_trains",
        events: mmps.net_ref().events_processed(),
        wall_secs,
    }
}

/// The paper's STEN-1 cycle loop on the 12-node two-segment testbed
/// (6 Sparc2 + 6 IPC, router between), N=600, balanced partition — the
/// full stack: stencil exchange, MMPS, frame pipeline, router.
pub fn run_sten1_cycle(n: usize, iters: u64) -> SimcoreSample {
    let tb = Testbed::paper();
    let (mmps, nodes) = tb.build(&[6, 6], PlacementStrategy::ClusterContiguous);
    let p = nodes.len();
    let mut app = StencilApp::new(n, iters, StencilVariant::Sten1, p);
    let mut exec = Executor::new(mmps, nodes);
    let vector = PartitionVector::equal(n as u64, p);
    let start = Instant::now();
    exec.run(&mut app, &vector, false).expect("stencil run");
    let wall_secs = start.elapsed().as_secs_f64();
    SimcoreSample {
        name: "sten1_cycle",
        events: exec.mmps().net_ref().events_processed(),
        wall_secs,
    }
}

/// Run all three workloads, `repeats` times each, keeping the fastest
/// wall time per workload (the usual best-of-N microbenchmark reduction:
/// the minimum is the least noise-contaminated estimate).
pub fn run_simcore(repeats: usize) -> Vec<SimcoreSample> {
    let reps = repeats.max(1);
    let runners: [fn() -> SimcoreSample; 3] = [
        || run_datagram_drain(DGRAM_SENDS),
        || run_mmps_trains(MMPS_MSGS),
        || run_sten1_cycle(STEN_N, STEN_ITERS),
    ];
    runners
        .iter()
        .map(|run| {
            let mut best = run();
            for _ in 1..reps {
                let s = run();
                assert_eq!(
                    s.events, best.events,
                    "workload event count must be deterministic"
                );
                if s.wall_secs < best.wall_secs {
                    best = s;
                }
            }
            best
        })
        .collect()
}

/// Render `BENCH_simcore.json`: per-workload events, wall time, events/s,
/// the CI floor and whether this run cleared it.
pub fn simcore_json(samples: &[SimcoreSample]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"benchmark\": \"simcore\",\n");
    s.push_str("  \"queue\": \"hierarchical time-wheel (3 tiers x 256 slots, 1.024us tick)\",\n");
    s.push_str("  \"methodology\": \"release build, best wall time of 3 full drains per workload; events = Network::events_processed (deterministic per workload)\",\n");
    s.push_str(&format!(
        "  \"floor_cleared\": {},\n",
        samples.iter().all(SimcoreSample::floor_cleared)
    ));
    s.push_str("  \"workloads\": [\n");
    for (i, sample) in samples.iter().enumerate() {
        let eps = sample.events_per_sec();
        s.push_str("    {\n");
        s.push_str(&format!("      \"name\": \"{}\",\n", sample.name));
        s.push_str(&format!("      \"events\": {},\n", sample.events));
        s.push_str(&format!("      \"wall_secs\": {:.6},\n", sample.wall_secs));
        s.push_str(&format!("      \"events_per_sec\": {eps:.4e},\n"));
        match sample.floor() {
            Some(f) => s.push_str(&format!("      \"floor_events_per_sec\": {f:.3e}\n")),
            None => s.push_str("      \"floor_events_per_sec\": null\n"),
        }
        s.push_str(if i + 1 == samples.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_report_events_and_json_renders() {
        // Tiny sizes: this is a smoke test of the harness, not a benchmark.
        let d = run_datagram_drain(50);
        assert!(d.events >= 150, "3+ events per send, got {}", d.events);
        assert!(d.events_per_sec() > 0.0);
        let m = run_mmps_trains(5);
        assert!(m.events > 5);
        let samples = vec![d, m];
        let json = simcore_json(&samples);
        assert!(json.contains("\"datagram_drain\""));
        assert!(json.contains("\"floor_events_per_sec\""));
        assert!(!json.contains("heap"), "no cross-machine baseline columns");
        assert!(json.contains("\"floor_cleared\""));
    }

    #[test]
    fn deterministic_event_counts() {
        let a = run_datagram_drain(200);
        let b = run_datagram_drain(200);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn floor_table_covers_all_workloads() {
        for name in ["datagram_drain", "mmps_trains", "sten1_cycle"] {
            assert!(
                SIMCORE_FLOORS.iter().any(|(n, _)| *n == name),
                "missing floor for {name}"
            );
        }
    }
}
