//! # netpart-mmps — reliable heterogeneous message passing
//!
//! Rust stand-in for the paper's MMPS library (Grimshaw, Mack & Strayer,
//! "MMPS: Portable Message Passing Support for Parallel Computing"): a
//! reliable message layer over unreliable UDP-like datagrams, with
//! fragmentation, acknowledgements, retransmission, and data-format
//! coercion between heterogeneous machines.
//!
//! ```
//! use bytes::Bytes;
//! use netpart_mmps::{Mmps, MmpsEvent};
//! use netpart_sim::{NetworkBuilder, ProcType, SegmentSpec};
//!
//! let mut b = NetworkBuilder::new(3);
//! let pt = b.add_proc_type(ProcType::sparcstation_2());
//! let seg = b.add_segment(SegmentSpec::ethernet_10mbps());
//! let a = b.add_node(pt, seg);
//! let c = b.add_node(pt, seg);
//! let mut mmps = Mmps::with_defaults(b.build().unwrap());
//!
//! // A 5 kB message: larger than one MTU, so it fragments — and still
//! // arrives intact.
//! let data = Bytes::from(vec![7u8; 5000]);
//! mmps.send_message(a, c, 42, data.clone()).unwrap();
//! loop {
//!     match mmps.next_event() {
//!         Some(MmpsEvent::MessageDelivered { payload, tag, .. }) => {
//!             assert_eq!(tag, 42);
//!             assert_eq!(payload, data);
//!             break;
//!         }
//!         Some(_) => continue,
//!         None => panic!("message lost"),
//!     }
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod message;
pub mod rtt;
pub mod service;

pub use config::{
    rto_for, ACK_BYTES, BASE_RTO, COERCE_PER_BYTE, COERCE_PER_MSG, HEADER_BYTES, MAX_RETRIES,
    MIN_RTO, RETX_FRAGMENT_SPACING, RTO_PER_BYTE,
};
pub use message::{
    epoch_of, strip_epoch, tag_of, untag, with_epoch, FragPlan, MsgId, CKPT_TAG, PING_TAG,
};
pub use rtt::RttEstimator;
pub use service::{Mmps, MmpsEvent, MmpsStats, OWNER_MMPS};
