//! The percentile rule and the quartile spread.

use netpart_benchmark::stats::{hi_percentile, iqr_share, median, quantile};

#[test]
fn hi_percentile_keeps_ten_samples_beyond() {
    for n in [11usize, 15, 20, 100, 1000, 17_500] {
        let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let h = hi_percentile(&values).expect("more than ten samples");
        let beyond = values.iter().filter(|v| **v > h.value).count();
        assert_eq!(beyond, 10, "n={n}");
        assert_eq!(h.beyond, 10);
        // One more sample of percentile would leave only nine beyond.
        assert!((h.pct - 100.0 * (n - 10) as f64 / n as f64).abs() < 1e-9);
    }
    // 1000 samples support p99.0 exactly; 17 500 support p99.94.
    let h = hi_percentile(&(0..1000).map(f64::from).collect::<Vec<_>>()).expect("enough");
    assert_eq!(h.pct, 99.0);
}

#[test]
fn hi_percentile_needs_more_than_ten_samples() {
    assert!(hi_percentile(&[]).is_none());
    assert!(hi_percentile(&[1.0; 10]).is_none());
    assert!(hi_percentile(&[1.0; 11]).is_some());
}

#[test]
fn hi_percentile_ignores_input_order() {
    let mut values: Vec<f64> = (0..50).map(|i| ((i * 37) % 50) as f64).collect();
    let a = hi_percentile(&values).expect("enough");
    values.reverse();
    assert_eq!(hi_percentile(&values), Some(a));
    assert_eq!(a.value, 39.0);
}

#[test]
fn median_and_quantile() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(quantile(&v, 0.99), 99.0);
    assert_eq!(quantile(&v, 0.5), 50.0);
    assert_eq!(quantile(&v, 1.0), 100.0);
}

#[test]
fn iqr_share_matches_python_statistics_quantiles() {
    // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    let s = iqr_share(&v).expect("ten values");
    assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    // statistics.quantiles([10, 12, 11, 30], n=4) == [10.25, 11.5, 25.5]
    let s = iqr_share(&[10.0, 12.0, 11.0, 30.0]).expect("four values");
    assert!((s - (25.5 - 10.25) / 11.5).abs() < 1e-12);
    assert!(iqr_share(&[1.0]).is_none());
}
