//! # netpart-sim — heterogeneous workstation network simulator
//!
//! Discrete-event simulator for the network substrate of *Weissman &
//! Grimshaw, "Network Partitioning of Data Parallel Computations"
//! (HPDC 1994)*: shared-medium ethernet segments with private bandwidth,
//! store-and-forward routers joining them, and workstation nodes of
//! heterogeneous processor types.
//!
//! The paper evaluated on real Sun4 workstations; this crate replaces that
//! hardware with a simulation that preserves the properties the
//! partitioning method depends on:
//!
//! * **Per-segment serialization** — all frames on a segment share one
//!   channel, and each access pays a penalty per frame already queued on
//!   it, so a bulk-synchronous exchange among `p` processors costs
//!   O(p²) per cycle rather than the paper's linear law (see
//!   [`segment`] and ROADMAP item 1).
//! * **Router as an extra station** — cross-segment frames pay a per-byte
//!   forwarding penalty and contend on every segment they cross. Frames
//!   follow a precomputed shortest-path routing table hop by hop, so
//!   multi-router hierarchies (trees, fat-trees, dumbbells from the
//!   [`fabric`] generators) charge the penalty once per router crossed.
//! * **Speed-dependent protocol stacks** — host send/receive costs scale
//!   with the machine class, so clusters of different processor types have
//!   different fitted cost constants.
//! * **Unreliable datagrams** — optional random loss; reliability is the
//!   job of the MMPS layer (`netpart-mmps`).
//!
//! The simulator is a *pump*: submit sends / compute blocks / timers, then
//! call [`Network::next_event`] repeatedly.
//!
//! ```
//! use bytes::Bytes;
//! use netpart_sim::{NetworkBuilder, ProcType, SegmentSpec, SimEvent};
//!
//! let mut b = NetworkBuilder::new(7);
//! let pt = b.add_proc_type(ProcType::sparcstation_2());
//! let seg = b.add_segment(SegmentSpec::ethernet_10mbps());
//! let a = b.add_node(pt, seg);
//! let c = b.add_node(pt, seg);
//! let mut net = b.build().unwrap();
//!
//! net.send_datagram(a, c, 0xBEEF, Bytes::from_static(b"border row")).unwrap();
//! match net.next_event() {
//!     Some(SimEvent::DatagramDelivered { dgram, at }) => {
//!         assert_eq!(dgram.dst, c);
//!         assert_eq!(dgram.tag, 0xBEEF);
//!         // A frame is its size: the bytes are charged, not carried.
//!         assert_eq!(dgram.wire_len, 10);
//!         assert!(at.as_millis_f64() > 0.0);
//!     }
//!     other => panic!("expected delivery, got {other:?}"),
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod datagram;
pub mod error;
pub mod event;
pub mod fabric;
pub mod fasthash;
pub mod fault;
pub mod ids;
pub mod network;
pub mod node;
pub mod router;
pub mod segment;
mod slab;
pub mod time;

pub use datagram::{Datagram, FRAME_OVERHEAD_BYTES, MAX_DATAGRAM_PAYLOAD};
pub use error::SimError;
pub use event::{DropReason, SimEvent};
pub use fabric::{Fabric, FabricCluster, Wiring};
pub use fasthash::{FastHasher, FastMap};
pub use fault::{FaultBounds, FaultEvent, FaultKind, FaultPlan};
pub use ids::{NodeId, ProcTypeId, RouterId, SegmentId, TimerId};
pub use network::{BackgroundFlow, Network, NetworkBuilder};
pub use node::{Node, OpClass, ProcType};
pub use router::{RouterSpec, RouterStats};
pub use segment::{SegmentSpec, SegmentStats};
pub use time::{SimDur, SimTime};
