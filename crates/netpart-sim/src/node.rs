//! Processor nodes and processor types.
//!
//! A *processor type* captures everything the partitioning method needs to
//! know about a machine class: instruction speeds (the paper's `S_i`,
//! expressed as seconds per operation) and the host-side costs of pushing
//! packets through its protocol stack. The latter matter because, as the
//! paper observes, "the cost functions for different clusters may be
//! different due to processor speed differences" — a Sun4 IPC spends twice
//! as long as a SPARCstation 2 checksumming the same UDP packet.
//!
//! A *node* is one workstation: a processor type bound to a network
//! segment, plus its current externally-imposed load (the paper assumes
//! shared workstations whose availability a cluster manager monitors with a
//! load threshold).

use crate::ids::{ProcTypeId, SegmentId};
use crate::time::{SimDur, SimTime};

/// The class of operation a compute block consists of. The paper annotates
/// clusters with both integer and floating point instruction speeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Floating point operations (the stencil's adds/multiplies).
    Flop,
    /// Integer/memory operations.
    IntOp,
}

/// A machine class: SPARCstation 2, Sun4 IPC, ...
#[derive(Debug, Clone)]
pub struct ProcType {
    /// Human-readable name, e.g. `"Sparc2"`.
    pub name: String,
    /// Average seconds per floating point operation (`S_i` in the paper;
    /// 0.3 µs for the SPARCstation 2, 0.6 µs for the IPC).
    pub sec_per_flop: f64,
    /// Average seconds per integer operation.
    pub sec_per_intop: f64,
    /// Fixed host cost to hand one datagram to the network (system call,
    /// UDP/IP encapsulation).
    pub send_overhead: SimDur,
    /// Fixed host cost to accept one datagram from the network.
    pub recv_overhead: SimDur,
    /// Per-payload-byte host cost on the send path (copy + checksum),
    /// in seconds per byte.
    pub send_sec_per_byte: f64,
    /// Per-payload-byte host cost on the receive path, in seconds per byte.
    pub recv_sec_per_byte: f64,
    /// Data format identifier. Two nodes with different formats require
    /// per-byte coercion (byte swapping / FP format conversion) handled by
    /// the MMPS layer.
    pub data_format: u16,
}

impl ProcType {
    /// Seconds per operation of the given class.
    #[inline]
    pub fn sec_per_op(&self, class: OpClass) -> f64 {
        match class {
            OpClass::Flop => self.sec_per_flop,
            OpClass::IntOp => self.sec_per_intop,
        }
    }

    /// Preset matching the paper's SPARCstation 2 cluster: `S_i ≈ 0.3 µs`
    /// per flop, host networking costs chosen so the fitted 1-D cost
    /// function lands near the paper's measured
    /// `(-0.0055 + 0.00283·p)·b + 1.1·p` msec.
    pub fn sparcstation_2() -> ProcType {
        ProcType {
            name: "Sparc2".into(),
            sec_per_flop: 0.3e-6,
            sec_per_intop: 0.15e-6,
            send_overhead: SimDur::from_micros(300),
            recv_overhead: SimDur::from_micros(250),
            send_sec_per_byte: 0.55e-6,
            recv_sec_per_byte: 0.45e-6,
            data_format: 0,
        }
    }

    /// Preset matching the paper's Sun4 IPC cluster: `S_i ≈ 0.6 µs` per
    /// flop and a protocol stack roughly twice as slow as the Sparc2's
    /// (the paper's fitted latency term is 1.9·p vs 1.1·p).
    pub fn sun4_ipc() -> ProcType {
        ProcType {
            name: "IPC".into(),
            sec_per_flop: 0.6e-6,
            sec_per_intop: 0.3e-6,
            send_overhead: SimDur::from_micros(520),
            recv_overhead: SimDur::from_micros(430),
            send_sec_per_byte: 1.0e-6,
            recv_sec_per_byte: 0.85e-6,
            data_format: 0,
        }
    }

    /// An RS/6000-class machine for metasystem experiments (faster CPU,
    /// different data format so coercion applies).
    pub fn rs6000() -> ProcType {
        ProcType {
            name: "RS6000".into(),
            sec_per_flop: 0.12e-6,
            sec_per_intop: 0.08e-6,
            send_overhead: SimDur::from_micros(200),
            recv_overhead: SimDur::from_micros(170),
            send_sec_per_byte: 0.3e-6,
            recv_sec_per_byte: 0.25e-6,
            data_format: 1,
        }
    }

    /// An HP 9000-class machine for metasystem experiments.
    pub fn hp9000() -> ProcType {
        ProcType {
            name: "HP".into(),
            sec_per_flop: 0.2e-6,
            sec_per_intop: 0.12e-6,
            send_overhead: SimDur::from_micros(240),
            recv_overhead: SimDur::from_micros(200),
            send_sec_per_byte: 0.4e-6,
            recv_sec_per_byte: 0.32e-6,
            data_format: 2,
        }
    }
}

/// One workstation on the network.
#[derive(Debug, Clone)]
pub struct Node {
    /// The machine class.
    pub proc_type: ProcTypeId,
    /// The segment the node's interface is attached to.
    pub segment: SegmentId,
    /// Fraction of the CPU consumed by other users' work, in `[0, 1)`.
    /// Compute blocks stretch by `1 / (1 - external_load)`. The cluster
    /// manager's availability policy compares this against its threshold.
    pub external_load: f64,
    /// When the node's protocol stack frees up (host network processing is
    /// serialized per node, independent of compute — interrupt-level work).
    pub(crate) net_free_at: SimTime,
    /// Whether a scheduled fault has fail-stopped this node (permanent
    /// unless the plan schedules a later recover).
    pub(crate) crashed: bool,
    /// Compute-slowdown multiplier from an injected fault (1.0 = healthy).
    pub(crate) fault_slowdown: f64,
}

impl Node {
    pub(crate) fn new(proc_type: ProcTypeId, segment: SegmentId) -> Node {
        Node {
            proc_type,
            segment,
            external_load: 0.0,
            net_free_at: SimTime::ZERO,
            crashed: false,
            fault_slowdown: 1.0,
        }
    }

    /// Multiplier applied to compute durations from external load (and any
    /// injected slowdown fault).
    #[inline]
    pub fn slowdown(&self) -> f64 {
        let l = self.external_load.clamp(0.0, 0.99);
        self.fault_slowdown.max(1.0) / (1.0 - l)
    }

    /// The load fraction this node would honestly report to a cluster
    /// manager's availability probe: the fraction of its nominal speed
    /// currently unavailable, from external load *and* any gray-failure
    /// slowdown. Equal to `external_load` on a healthy node (so the value
    /// is indistinguishable from the raw field in the fault-free case),
    /// and `1 - 1/slowdown()` in general — e.g. a 4×-degraded idle node
    /// reports 0.75.
    #[inline]
    pub fn effective_load(&self) -> f64 {
        1.0 - 1.0 / self.slowdown()
    }

    /// Whether the node is currently fail-stopped by an injected crash
    /// fault (`false` until a later scheduled recover, if any). A dead
    /// node cannot run protocol code — availability rounds use this to
    /// decide who *can* act as a cluster manager, never to shortcut the
    /// detection of remote deaths (those still cost real probe traffic
    /// and timeouts).
    #[inline]
    pub fn is_alive(&self) -> bool {
        !self.crashed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparc2_is_twice_ipc_flop_rate() {
        let s2 = ProcType::sparcstation_2();
        let ipc = ProcType::sun4_ipc();
        let ratio = ipc.sec_per_flop / s2.sec_per_flop;
        assert!((ratio - 2.0).abs() < 1e-12, "paper: Sparc2 ≈ 2× IPC");
    }

    #[test]
    fn sec_per_op_selects_class() {
        let s2 = ProcType::sparcstation_2();
        assert_eq!(s2.sec_per_op(OpClass::Flop), s2.sec_per_flop);
        assert_eq!(s2.sec_per_op(OpClass::IntOp), s2.sec_per_intop);
    }

    #[test]
    fn slowdown_from_external_load() {
        let mut n = Node::new(ProcTypeId(0), SegmentId(0));
        assert_eq!(n.slowdown(), 1.0);
        n.external_load = 0.5;
        assert!((n.slowdown() - 2.0).abs() < 1e-12);
        n.external_load = 2.0; // clamped
        assert!(n.slowdown() <= 100.0);
    }

    #[test]
    fn effective_load_folds_in_fault_slowdown() {
        let mut n = Node::new(ProcTypeId(0), SegmentId(0));
        assert_eq!(n.effective_load(), 0.0);
        n.external_load = 0.3;
        assert!(
            (n.effective_load() - 0.3).abs() < 1e-12,
            "healthy node reports its raw external load"
        );
        n.fault_slowdown = 4.0;
        n.external_load = 0.0;
        assert!((n.effective_load() - 0.75).abs() < 1e-12);
        n.fault_slowdown = 1.0;
        assert_eq!(n.effective_load(), 0.0, "cleared slowdown reports clean");
    }
}
