//! Generated inputs are a pure function of the seed.

use netpart_benchmark::rng::Rng;
use netpart_benchmark::workloads::recover;
use netpart_benchmark::workloads::serve_open::{
    arrival_schedule, request_mix, Class, REPEAT_SHARE, SIZES,
};

#[test]
fn same_seed_same_request_order_and_schedule() {
    assert_eq!(request_mix(7, 1, 4000), request_mix(7, 1, 4000));
    assert_eq!(
        arrival_schedule(7, 2, 2500, 4000),
        arrival_schedule(7, 2, 2500, 4000)
    );
    assert_eq!(recover::crash_rank(7, 12), recover::crash_rank(7, 12));
}

#[test]
fn different_seed_different_inputs() {
    assert_ne!(request_mix(7, 1, 4000), request_mix(8, 1, 4000));
    assert_ne!(
        arrival_schedule(7, 2, 2500, 4000),
        arrival_schedule(8, 2, 2500, 4000)
    );
    // Twelve ranks, so single seeds may collide; a run of seeds must not
    // all crash the same rank.
    let ranks: Vec<usize> = (0..32).map(|s| recover::crash_rank(s, 12)).collect();
    assert!(ranks.iter().any(|&r| r != ranks[0]));
    assert!(ranks.iter().all(|&r| r < 12));
}

#[test]
fn streams_of_one_seed_are_independent() {
    assert_ne!(request_mix(7, 1, 1000), request_mix(7, 2, 1000));
    let mut a = Rng::new(7, 1);
    let mut b = Rng::new(7, 2);
    assert_ne!(a.next_u64(), b.next_u64());
}

#[test]
fn request_mix_has_the_stated_shape() {
    let mix = request_mix(1994, 1, 20_000);
    let share = |c: Class| mix.iter().filter(|r| r.class == c).count() as f64 / mix.len() as f64;
    assert!((share(Class::Paper12) - 0.80).abs() < 0.03);
    assert!((share(Class::Tree256) - 0.15).abs() < 0.02);
    assert!((share(Class::Fat1024) - 0.05).abs() < 0.015);
    assert!(mix.iter().all(|r| u64::from(r.size) < SIZES));
    // A repeat copies an earlier request whole; everything else carries a
    // fresh salt, so distinct specs = non-repeats.
    let distinct: std::collections::HashSet<_> = mix.iter().collect();
    let repeats = 1.0 - distinct.len() as f64 / mix.len() as f64;
    assert!(
        (repeats - REPEAT_SHARE).abs() < 0.02,
        "repeat share {repeats}"
    );
}

#[test]
fn arrivals_are_ordered_and_at_the_stated_rate() {
    let at = arrival_schedule(3, 9, 2500, 50_000);
    assert!(at.windows(2).all(|w| w[0] <= w[1]));
    let seconds = *at.last().expect("non-empty") as f64 / 1e9;
    let rate = at.len() as f64 / seconds;
    assert!((rate / 2500.0 - 1.0).abs() < 0.03, "rate {rate}");
}
