//! Property-based tests of the message layer: arbitrary payloads survive
//! arbitrary loss, and fragmentation math never loses a byte.

use bytes::Bytes;
use proptest::prelude::*;

use netpart_mmps::{FragPlan, Mmps, MmpsEvent};
use netpart_sim::{NetworkBuilder, ProcType, SegmentSpec};

proptest! {
    /// Fragmentation plans cover every byte exactly once for any size.
    #[test]
    fn frag_plan_partitions_any_length(len in 0u32..200_000, header in 1u32..256) {
        let plan = FragPlan::new(len, header);
        let mut covered = 0u64;
        let mut prev_end = 0u32;
        for i in 0..plan.n_frags {
            let (s, e) = plan.range(i);
            prop_assert_eq!(s, prev_end);
            prop_assert!(e >= s);
            covered += (e - s) as u64;
            prev_end = e;
        }
        prop_assert_eq!(covered, len as u64);
        prop_assert!(plan.n_frags >= 1);
    }

    /// Any payload crosses any lossy link intact (content never corrupts;
    /// loss only delays).
    #[test]
    fn payloads_survive_loss(
        payload in prop::collection::vec(any::<u8>(), 0..6000),
        loss in 0.0f64..0.35,
        seed in 0u64..500,
    ) {
        let mut b = NetworkBuilder::new(seed);
        let pt = b.add_proc_type(ProcType::sparcstation_2());
        let seg = b.add_segment(SegmentSpec {
            loss_probability: loss,
            ..SegmentSpec::ethernet_10mbps()
        });
        let src = b.add_node(pt, seg);
        let dst = b.add_node(pt, seg);
        let mut mmps = Mmps::with_defaults(b.build().unwrap());
        mmps.send_message(src, dst, 1, Bytes::from(payload.clone())).unwrap();
        let mut got = None;
        while let Some(evt) = mmps.next_event() {
            if let MmpsEvent::MessageDelivered { payload: p, .. } = evt {
                got = Some(p);
                break;
            }
        }
        let got = got.expect("35% loss with 10 retries must deliver");
        prop_assert_eq!(&got[..], &payload[..]);
    }

    /// Message ids are unique and acks pair one-to-one with deliveries on
    /// a lossless link.
    #[test]
    fn acks_pair_with_deliveries(count in 1usize..30, size in 0usize..3000) {
        let mut b = NetworkBuilder::new(1);
        let pt = b.add_proc_type(ProcType::sparcstation_2());
        let seg = b.add_segment(SegmentSpec::ethernet_10mbps());
        let src = b.add_node(pt, seg);
        let dst = b.add_node(pt, seg);
        let mut mmps = Mmps::with_defaults(b.build().unwrap());
        let mut ids = std::collections::HashSet::new();
        for k in 0..count {
            let id = mmps
                .send_message(src, dst, k as u64, Bytes::from(vec![0u8; size]))
                .unwrap();
            prop_assert!(ids.insert(id), "duplicate message id");
        }
        let (mut acked, mut delivered) = (0, 0);
        while let Some(evt) = mmps.next_event() {
            match evt {
                MmpsEvent::MessageAcked { .. } => acked += 1,
                MmpsEvent::MessageDelivered { .. } => delivered += 1,
                _ => {}
            }
        }
        prop_assert_eq!(acked, count);
        prop_assert_eq!(delivered, count);
        prop_assert_eq!(mmps.stats().retransmissions, 0);
    }
}
