//! The timer table: `set_timer` takes a row, firing or cancelling frees it
//! and moves its generation on, and a `TimerId` is the handle of one row
//! at one generation. A freed row is reused by the next timer, so these
//! tests pin that a stale handle, or the queued item of a cancelled
//! timer, never reaches the row's new tenant.

use proptest::prelude::*;

use netpart_sim::{
    Network, NetworkBuilder, ProcType, SegmentSpec, SimDur, SimEvent, SimTime, TimerId,
};

fn net() -> Network {
    let mut b = NetworkBuilder::new(1);
    let pt = b.add_proc_type(ProcType::sparcstation_2());
    let seg = b.add_segment(SegmentSpec::ethernet_10mbps());
    b.add_node(pt, seg);
    b.build().expect("network")
}

/// The next fired timer as `(at, id, owner, token)`, or `None` when the
/// network is quiescent.
fn next_fire(net: &mut Network) -> Option<(SimTime, TimerId, u64, u64)> {
    match net.next_event()? {
        SimEvent::TimerFired {
            at,
            id,
            owner,
            token,
        } => Some((at, id, owner, token)),
        other => panic!("only timers were set, got {other:?}"),
    }
}

#[test]
fn a_cancel_after_the_timer_fired_spares_the_rows_next_tenant() {
    let mut net = net();
    let first = net.set_timer(SimDur::from_micros(5), 1, 10);
    assert_eq!(next_fire(&mut net).map(|f| f.1), Some(first));
    // The freed row goes to the next timer.
    let second = net.set_timer(SimDur::from_micros(5), 2, 20);
    net.cancel_timer(first);
    assert_eq!(net.pending_work(), 1);
    let (_, id, owner, token) = next_fire(&mut net).expect("the second timer fires");
    assert_eq!((id, owner, token), (second, 2, 20));
    assert_eq!(net.pending_work(), 0);
}

#[test]
fn a_double_cancel_counts_once() {
    let mut net = net();
    let doomed = net.set_timer(SimDur::from_micros(5), 1, 10);
    let kept = net.set_timer(SimDur::from_micros(9), 2, 20);
    net.cancel_timer(doomed);
    net.cancel_timer(doomed);
    assert_eq!(net.pending_work(), 1);
    assert_eq!(next_fire(&mut net).map(|f| f.1), Some(kept));
    assert_eq!(net.pending_work(), 0);
    assert!(net.is_idle());
}

#[test]
fn a_stale_handle_cannot_cancel_the_rows_new_timer() {
    let mut net = net();
    let stale = net.set_timer(SimDur::from_micros(50), 1, 10);
    net.cancel_timer(stale);
    // The cancelled timer's row is reused while its queued item (at
    // 50 µs) is still pending; the new timer fires later than that.
    let tenant = net.set_timer(SimDur::from_micros(80), 2, 20);
    assert_ne!(tenant, stale, "a reused row hands out a new id");
    net.cancel_timer(stale);
    assert_eq!(net.pending_work(), 1);
    let (at, id, owner, token) = next_fire(&mut net).expect("the tenant fires");
    assert_eq!((at, id, owner, token), (SimTime(80_000), tenant, 2, 20));
    assert!(next_fire(&mut net).is_none());
}

#[test]
fn an_id_the_table_never_handed_out_cancels_nothing() {
    let mut net = net();
    let first = net.set_timer(SimDur::from_micros(5), 1, 10);
    assert_eq!(next_fire(&mut net).map(|f| f.1), Some(first));
    // Row 0 is free at generation 1, which no timer has had yet.
    net.cancel_timer(TimerId(1 << 32));
    assert_eq!(net.pending_work(), 0);
    let a = net.set_timer(SimDur::from_micros(5), 2, 20);
    let b = net.set_timer(SimDur::from_micros(9), 3, 30);
    assert_eq!(net.pending_work(), 2);
    assert_eq!(next_fire(&mut net).map(|f| (f.1, f.3)), Some((a, 20)));
    assert_eq!(next_fire(&mut net).map(|f| (f.1, f.3)), Some((b, 30)));
}

#[test]
fn a_reset_network_hands_out_the_ids_of_a_fresh_build() {
    let ids = |net: &mut Network| -> Vec<TimerId> {
        (0..4)
            .map(|k| net.set_timer(SimDur::from_micros(k), 0, k))
            .collect()
    };
    let mut used = net();
    let old = ids(&mut used);
    used.cancel_timer(old[1]);
    used.cancel_timer(old[2]);
    while next_fire(&mut used).is_some() {}
    used.reset();
    assert_eq!(ids(&mut used), ids(&mut net()));
}

proptest! {
    /// Random set/cancel/advance scripts against a model that keeps the
    /// pending timers as a list: after every step the fired
    /// `(at, id, owner, token)` sequence and `pending_work()` agree. A
    /// step `(op, a, word)` sets a timer up to 70 µs ahead with owner and
    /// token drawn from `word`, cancels one of the ids handed out so far
    /// (live, fired or cancelled), or advances by up to four events.
    #[test]
    fn the_timer_table_matches_a_model_of_pending_timers(
        script in prop::collection::vec((0u8..3, 0u64..64, any::<u64>()), 1..200),
    ) {
        let mut net = net();
        let mut handed_out: Vec<TimerId> = Vec::new();
        // (at, set order, id, owner, token) of every pending timer.
        let mut pending: Vec<(SimTime, usize, TimerId, u64, u64)> = Vec::new();
        for (i, &(op, a, word)) in script.iter().enumerate() {
            match op {
                0 => {
                    // Few distinct delays, so instants tie often.
                    let delay = SimDur::from_micros(a % 8 * 10);
                    let id = net.set_timer(delay, word >> 32, word);
                    prop_assert!(
                        pending.iter().all(|p| p.2 != id),
                        "a live timer's id was handed out again"
                    );
                    handed_out.push(id);
                    pending.push((net.now() + delay, i, id, word >> 32, word));
                }
                1 => {
                    if let Some(&id) = handed_out.get(a as usize % handed_out.len().max(1)) {
                        net.cancel_timer(id);
                        pending.retain(|p| p.2 != id);
                    }
                }
                _ => {
                    for _ in 0..a % 5 {
                        let want = pending
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, p)| (p.0, p.1))
                            .map(|(k, _)| k)
                            .map(|k| pending.remove(k))
                            .map(|(at, _, id, owner, token)| (at, id, owner, token));
                        prop_assert_eq!(next_fire(&mut net), want);
                    }
                }
            }
            prop_assert_eq!(net.pending_work(), pending.len());
        }
    }
}
