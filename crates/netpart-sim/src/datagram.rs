//! Datagrams: the unreliable unit of transport the network moves around.
//!
//! A datagram models one UDP packet by its size alone: the simulator times
//! every frame by its wire length and carries no payload bytes. Data the
//! application moves travels in the layer above (MMPS hands the receiver
//! the sender's buffer once its last fragment lands). Reliability,
//! fragmentation of larger messages, and retransmission belong to that
//! layer too (`netpart-mmps`).

use crate::ids::NodeId;

/// Maximum datagram payload the simulated network accepts, matching a
/// classic ethernet MTU of 1500 bytes minus 20 (IP) + 8 (UDP) header bytes.
pub const MAX_DATAGRAM_PAYLOAD: usize = 1472;

/// Per-frame wire overhead in bytes: ethernet header + CRC (18), preamble
/// (8), IP header (20), UDP header (8).
pub const FRAME_OVERHEAD_BYTES: u32 = 54;

/// One UDP-like packet in flight: 24 bytes, and so is the slab slot
/// `Option<Datagram>` (the `bool` lends its niche).
#[derive(Debug, Clone)]
pub struct Datagram {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Caller-chosen tag carried with the packet (MMPS packs message ids and
    /// fragment numbers in here via its own header, so the simulator treats
    /// it as opaque).
    pub tag: u64,
    /// Payload bytes charged to the channel: the length of the payload
    /// given to [`send_datagram`](crate::network::Network::send_datagram),
    /// or the size given to
    /// [`send_datagram_sized`](crate::network::Network::send_datagram_sized).
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
            src: NodeId(0),
            dst: NodeId(1),
            tag: 0,
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
