//! Datagrams: the unreliable unit of transport the network moves around.
//!
//! A datagram models one UDP packet. The simulator never inspects the
//! payload; it only needs the wire length for timing. Reliability,
//! fragmentation of larger messages, and retransmission belong to the MMPS
//! layer built on top (`netpart-mmps`).

use bytes::Bytes;

use crate::ids::{DgramId, NodeId};

/// Maximum datagram payload the simulated network accepts, matching a
/// classic ethernet MTU of 1500 bytes minus 20 (IP) + 8 (UDP) header bytes.
pub const MAX_DATAGRAM_PAYLOAD: usize = 1472;

/// Per-frame wire overhead in bytes: ethernet header + CRC (18), preamble
/// (8), IP header (20), UDP header (8).
pub const FRAME_OVERHEAD_BYTES: u32 = 54;

/// One UDP-like packet in flight.
#[derive(Debug, Clone)]
pub struct Datagram {
    /// Unique id assigned at send time.
    pub id: DgramId,
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Caller-chosen tag carried with the packet (MMPS packs message ids and
    /// fragment numbers in here via its own header, so the simulator treats
    /// it as opaque).
    pub tag: u64,
    /// Payload bytes. May be empty when only timing matters (calibration
    /// runs send dummy payloads); `wire_len` then still charges the channel.
    pub payload: Bytes,
    /// Number of payload bytes charged to the channel. Usually
    /// `payload.len()`, but calibration programs may time a b-byte packet
    /// without materializing b bytes.
    pub wire_len: u32,
    /// Set when a corruption fault flipped bits in flight. The frame still
    /// occupies the channel and is delivered, but any receiver that
    /// checksums frames (the MMPS layer does) discards it on arrival —
    /// corruption affects timing and retransmission statistics, never the
    /// bytes a reliable layer hands upward.
    pub corrupted: bool,
}

impl Datagram {
    /// Total bytes this frame occupies on the wire, including link/IP/UDP
    /// overheads.
    #[inline]
    pub fn frame_bytes(&self) -> u32 {
        self.wire_len + FRAME_OVERHEAD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_bytes_includes_overhead() {
        let d = Datagram {
            id: DgramId(0),
            src: NodeId(0),
            dst: NodeId(1),
            tag: 0,
            payload: Bytes::from_static(b"hello"),
            wire_len: 5,
            corrupted: false,
        };
        assert_eq!(d.frame_bytes(), 5 + FRAME_OVERHEAD_BYTES);
    }

    #[test]
    fn mtu_constant_is_classic_ethernet() {
        assert_eq!(MAX_DATAGRAM_PAYLOAD, 1500 - 28);
    }
}
