//! Order statistics the report is built from.

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by nearest rank; 0 for an
/// empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A tail figure the sample can support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HiPercentile {
    /// The percentile reported, in percent.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly beyond it (always ≥ 10).
    pub beyond: usize,
}

/// The highest percentile of `values` that still has at least ten samples
/// beyond it — with fewer than eleven samples there is none.
pub fn hi_percentile(values: &[f64]) -> Option<HiPercentile> {
    const BEYOND: usize = 10;
    if values.len() <= BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = v.len() - BEYOND - 1;
    Some(HiPercentile {
        pct: 100.0 * (idx + 1) as f64 / v.len() as f64,
        value: v[idx],
        beyond: BEYOND,
    })
}

/// Distance between the first and third quartile as a share of the
/// median, computed the way Python's `statistics.quantiles(v, n=4)` does
/// (exclusive method). `None` with fewer than two values or a zero median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| -> f64 {
        // statistics.quantiles, method="exclusive": position i*(n+1)/4.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let med = median(&v);
    if med == 0.0 {
        return None;
    }
    Some((cut(3) - cut(1)) / med.abs())
}
