//! Cluster managers and the available-processor protocol.
//!
//! Paper §3/§5: each cluster has a *cluster manager* that "monitors the
//! load status of its processors and uses a simple threshold policy to
//! determine if a processor is available"; before partitioning, "a
//! cooperative algorithm is run by each cluster manager that determines
//! the available processors".
//!
//! The protocol implemented here runs over the simulated network so its
//! cost is measurable (the paper asserts it is "small relative to elapsed
//! time"): each manager sends a probe datagram to every member; members
//! answer with their current load; the manager counts members at or below
//! the threshold. Managers run concurrently, one per cluster.

use bytes::Bytes;

use netpart_mmps::{Mmps, MmpsEvent};
use netpart_sim::{NodeId, SimDur};

/// The paper's threshold policy: a node whose external load is at or
/// below this counts as available (and, per the paper's simplification,
/// as a full-speed processor). Judged on the load as a reply carries it,
/// one byte, for managers and members alike.
pub const LOAD_THRESHOLD: f64 = 0.10;

/// Maximum simulated time a manager waits for any probe's reply. Members
/// that have not answered when the deadline expires are reported as
/// [`suspected_dead`](AvailabilityReport::suspected_dead) rather than
/// stalling the round.
pub const PROBE_TIMEOUT: SimDur = SimDur::from_millis(500);

/// Result of one availability round.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityReport {
    /// Available processors per cluster (manager included).
    pub available: Vec<u32>,
    /// Which nodes were deemed available, per cluster.
    pub nodes: Vec<Vec<NodeId>>,
    /// Members whose probe round-trip failed outright or was still
    /// outstanding at the deadline — crashed, unreachable, or behind a
    /// down router. Never counted as available.
    pub suspected_dead: Vec<NodeId>,
    /// Simulated time the cooperative protocol took.
    pub protocol_time: SimDur,
    /// Probe/reply messages exchanged.
    pub messages: u64,
}

const PROBE_TAG: u64 = 1 << 40;
const REPLY_TAG: u64 = 1 << 41;
/// Timer owner word for the round deadline (below the MMPS-reserved
/// owner word, above anything applications use).
const OWNER_AVAIL: u64 = u64::MAX - 2;

/// A node's load as its reply carries it: one byte, `load × 255` rounded.
fn quantize(load: f64) -> u8 {
    (load * 255.0).round().clamp(0.0, 255.0) as u8
}

/// Whether a node reporting quantized load `q` is available: at or below
/// [`LOAD_THRESHOLD`] up to the byte's half-step of rounding.
fn admits(q: u8) -> bool {
    q as f64 / 255.0 <= LOAD_THRESHOLD + 0.5 / 255.0
}

/// Run one round of the cooperative availability protocol.
///
/// `clusters[k]` lists cluster `k`'s nodes; the first node of each cluster
/// acts as its manager (the shaded nodes of the paper's Fig. 1). Returns
/// per-cluster available counts, measured on the simulated clock.
pub fn determine_available(mmps: &mut Mmps, clusters: &[Vec<NodeId>]) -> AvailabilityReport {
    let start = mmps.now();
    let mut available: Vec<Vec<NodeId>> = vec![Vec::new(); clusters.len()];
    let mut pending: Vec<NodeId> = Vec::new();
    let mut suspected_dead: Vec<NodeId> = Vec::new();
    let mut messages = 0u64;

    // Managers probe their members (themselves included, locally).
    for (k, members) in clusters.iter().enumerate() {
        // A fail-stopped node cannot run the manager protocol at all, so
        // the first *live* member takes the role — in reality the
        // coordinator's handshake with a dead manager would time out and
        // it would walk down the member list the same way. The corpses
        // skipped over are reported suspected dead immediately: their
        // death is already paid for by the failed handshake this models,
        // not shortcut from fault-injection internals.
        let mut manager = None;
        for &m in members {
            if mmps.net_ref().node(m).is_alive() {
                manager = Some(m);
                break;
            }
            suspected_dead.push(m);
        }
        let Some(manager) = manager else {
            continue;
        };
        // Managers and members report their *effective* load: external
        // load plus any gray-failure slowdown folded into one "fraction of
        // nominal speed unavailable" number. This is the node honestly
        // reporting its own observed state (the paper's load daemon), not
        // the manager peeking at fault-injection internals — and it is
        // what lets a degraded node be excluded while degraded and
        // re-admitted automatically once its slowdown ends. The manager
        // judges its own load as it would judge a member's reply, so a
        // node's verdict does not depend on its role.
        let mgr_load = mmps.net_ref().node(manager).effective_load();
        if admits(quantize(mgr_load)) {
            available[k].push(manager);
        }
        for &member in members {
            if member == manager || suspected_dead.contains(&member) {
                continue;
            }
            // A fabric partition makes the probe fail fast at send time:
            // the member is unreachable, which to the manager is
            // indistinguishable from dead — suspect it now and let a later
            // round re-admit it once the fabric heals.
            match mmps.send_message(manager, member, PROBE_TAG | k as u64, Bytes::new()) {
                Ok(_) => {
                    pending.push(member);
                    messages += 1;
                }
                Err(_) => suspected_dead.push(member),
            }
        }
    }

    // One deadline bounds the whole round (every probe is in flight from
    // the start, so it bounds each probe's wait too). Cancelled once the
    // last reply arrives, so a fault-free round never observes it.
    let deadline =
        (!pending.is_empty()).then(|| mmps.net().set_timer(PROBE_TIMEOUT, OWNER_AVAIL, 0));

    // Pump: members answer probes with their load; managers tally replies.
    // A probe or reply that the message layer gives up on marks the member
    // suspected dead, as does any member still pending at the deadline.
    while !pending.is_empty() {
        let Some(evt) = mmps.next_event() else {
            break; // quiescent with replies missing: suspect the rest
        };
        match evt {
            MmpsEvent::MessageDelivered { src, dst, tag, .. } => {
                if tag & PROBE_TAG != 0 {
                    let k = tag & 0xFFFF_FFFF;
                    let quantized = quantize(mmps.net_ref().node(dst).effective_load());
                    // A reply that cannot leave (fabric partitioned since
                    // the probe arrived) is simply lost: the manager's
                    // deadline suspects the member, same as a dropped
                    // reply in flight.
                    if mmps
                        .send_message(dst, src, REPLY_TAG | (u64::from(quantized) << 16) | k, {
                            Bytes::from(vec![quantized])
                        })
                        .is_ok()
                    {
                        messages += 1;
                    }
                } else if tag & REPLY_TAG != 0 {
                    let k = (tag & 0xFFFF) as usize;
                    let quantized = ((tag >> 16) & 0xFF) as u8;
                    if admits(quantized) {
                        available[k].push(src);
                    }
                    pending.retain(|&n| n != src);
                }
            }
            MmpsEvent::MessageFailed { src, dst, tag, .. } => {
                // Probe never reached the member, or its reply never made
                // it back: either way the manager cannot confirm it.
                let member = if tag & PROBE_TAG != 0 {
                    dst
                } else if tag & REPLY_TAG != 0 {
                    src
                } else {
                    continue;
                };
                if pending.contains(&member) {
                    pending.retain(|&n| n != member);
                    suspected_dead.push(member);
                }
            }
            MmpsEvent::TimerFired { owner, .. } if owner == OWNER_AVAIL => {
                suspected_dead.append(&mut pending);
            }
            _ => {}
        }
    }
    suspected_dead.append(&mut pending); // quiescent-drain leftovers
    if let Some(id) = deadline {
        mmps.net().cancel_timer(id);
    }

    AvailabilityReport {
        available: available.iter().map(|v| v.len() as u32).collect(),
        nodes: available,
        suspected_dead,
        protocol_time: mmps.now().since(start),
        messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_calibrate::Testbed;
    use netpart_topology::PlacementStrategy;

    fn full_testbed() -> (Mmps, Vec<Vec<NodeId>>) {
        let tb = Testbed::paper();
        let (mmps, _) = tb.build(&[0, 0], PlacementStrategy::ClusterContiguous);
        // Collect physical cluster membership from the network itself.
        let clusters = (0..2u16)
            .map(|s| mmps.net_ref().nodes_on_segment(netpart_sim::SegmentId(s)))
            .collect();
        (mmps, clusters)
    }

    #[test]
    fn all_idle_nodes_are_available() {
        let (mut mmps, clusters) = full_testbed();
        let r = determine_available(&mut mmps, &clusters);
        assert_eq!(r.available, vec![6, 6]);
        assert!(r.protocol_time.as_millis_f64() > 0.0);
        // 5 probes + 5 replies per cluster.
        assert_eq!(r.messages, 20);
    }

    #[test]
    fn a_load_gets_one_verdict_whatever_the_role() {
        // 0.101 is above the threshold but rounds to the byte 26, which
        // admits it; the manager and a member carrying it agree.
        let (mut mmps, clusters) = full_testbed();
        let (manager, member) = (clusters[0][0], clusters[0][1]);
        mmps.net().set_external_load(manager, 0.101);
        mmps.net().set_external_load(member, 0.101);
        let r = determine_available(&mut mmps, &clusters);
        assert_eq!(
            r.nodes[0].contains(&manager),
            r.nodes[0].contains(&member),
            "manager and member verdicts differ: {:?}",
            r.nodes[0]
        );
    }

    #[test]
    fn loaded_nodes_are_excluded() {
        let (mut mmps, clusters) = full_testbed();
        // Load two Sparc2 members and one IPC member above threshold.
        let busy = [clusters[0][2], clusters[0][4], clusters[1][1]];
        for &n in &busy {
            mmps.net().set_external_load(n, 0.6);
        }
        // Load one node below threshold: still available.
        mmps.net().set_external_load(clusters[1][2], 0.05);
        let r = determine_available(&mut mmps, &clusters);
        assert_eq!(r.available, vec![4, 5]);
        for &n in &busy {
            assert!(!r.nodes[0].contains(&n) && !r.nodes[1].contains(&n));
        }
    }

    #[test]
    fn busy_manager_counts_itself_out() {
        let (mut mmps, clusters) = full_testbed();
        mmps.net().set_external_load(clusters[0][0], 0.9);
        let r = determine_available(&mut mmps, &clusters);
        assert_eq!(r.available, vec![5, 6]);
    }

    #[test]
    fn protocol_overhead_is_small() {
        // §6: the availability overhead must be small relative to stencil
        // elapsed times (hundreds to thousands of ms).
        let (mut mmps, clusters) = full_testbed();
        let r = determine_available(&mut mmps, &clusters);
        assert!(
            r.protocol_time.as_millis_f64() < 50.0,
            "protocol took {} ms",
            r.protocol_time.as_millis_f64()
        );
    }

    #[test]
    fn degraded_member_is_excluded_then_readmitted_after_recovery() {
        let (mut mmps, clusters) = full_testbed();
        let slow = clusters[0][2];
        mmps.net()
            .install_fault_plan(
                &netpart_sim::FaultPlan::new()
                    .slow(netpart_sim::SimTime::ZERO, slow, 4.0)
                    .end_slowdown(
                        netpart_sim::SimTime::ZERO + SimDur::from_millis_f64(100.0),
                        slow,
                    ),
            )
            .unwrap();
        let r1 = determine_available(&mut mmps, &clusters);
        assert_eq!(r1.available, vec![5, 6], "4x-degraded node reports 0.75");
        assert!(!r1.nodes[0].contains(&slow));
        assert!(
            r1.suspected_dead.is_empty(),
            "degraded is not dead: {:?}",
            r1.suspected_dead
        );
        // Advance the simulated clock past the end of the slowdown, then
        // re-probe: the recovered capacity must be re-admitted.
        mmps.net().set_timer(SimDur::from_millis_f64(200.0), 99, 0);
        while let Some(evt) = mmps.next_event() {
            if matches!(evt, MmpsEvent::TimerFired { owner: 99, .. }) {
                break;
            }
        }
        let r2 = determine_available(&mut mmps, &clusters);
        assert_eq!(r2.available, vec![6, 6], "recovered node rejoins the pool");
        assert!(r2.nodes[0].contains(&slow));
    }

    #[test]
    fn crashed_member_is_suspected_within_the_probe_timeout() {
        let (mut mmps, clusters) = full_testbed();
        let dead = clusters[0][3];
        mmps.net()
            .install_fault_plan(
                &netpart_sim::FaultPlan::new().crash(netpart_sim::SimTime::ZERO, dead),
            )
            .unwrap();
        let r = determine_available(&mut mmps, &clusters);
        assert_eq!(r.suspected_dead, vec![dead], "only the crashed member");
        assert_eq!(r.available, vec![5, 6]);
        assert!(!r.nodes[0].contains(&dead));
        // The round ends at the deadline (or the message layer's earlier
        // give-up), never by unbounded waiting.
        assert!(
            r.protocol_time <= PROBE_TIMEOUT + SimDur::from_millis(1),
            "round ran past the deadline: {} ms",
            r.protocol_time.as_millis_f64()
        );
    }

    #[test]
    fn lossy_network_delays_but_does_not_falsify_the_round() {
        // Heavy (but sub-give-up) loss on cluster 0's segment for the
        // whole round: MMPS retransmission must still confirm every live
        // member — slower, but with nobody falsely suspected.
        let (mut mmps, clusters) = full_testbed();
        mmps.net()
            .install_fault_plan(&netpart_sim::FaultPlan::new().loss_burst(
                netpart_sim::SegmentId(0),
                netpart_sim::SimTime::ZERO,
                netpart_sim::SimTime::ZERO + SimDur::from_millis_f64(10_000.0),
                0.6,
            ))
            .unwrap();
        let clean = {
            let (mut m2, c2) = full_testbed();
            determine_available(&mut m2, &c2)
        };
        let r = determine_available(&mut mmps, &clusters);
        assert_eq!(r.available, vec![6, 6], "loss must not hide live members");
        assert!(
            r.suspected_dead.is_empty(),
            "suspected {:?}",
            r.suspected_dead
        );
        assert!(
            r.protocol_time > clean.protocol_time,
            "retransmission under 60% loss must cost time ({} vs {} ms)",
            r.protocol_time.as_millis_f64(),
            clean.protocol_time.as_millis_f64()
        );
    }
}
