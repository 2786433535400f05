//! Minimum search over discrete processor counts.
//!
//! The paper (§5): "An iterative algorithm to locate `p_ideal` based on
//! binary search has been developed. The algorithm assumes a single global
//! minima." The canonical `T_c(p)` curve (Fig. 3) is U-shaped: region A
//! (too few processors, granularity too large) falls, region B (too many,
//! granularity too small) rises.
//!
//! [`SearchStrategy::Binary`] is that algorithm: compare `f(mid)` with
//! `f(mid+1)` to decide which side of the minimum `mid` is on. It spends
//! `O(log₂ P)` evaluations and is exact for unimodal curves. The
//! alternatives exist for the ablation of search strategies and for the
//! multi-minima case the paper leaves to future work:
//! [`SearchStrategy::Exhaustive`] scans every count, and
//! [`SearchStrategy::GoldenSection`] probes interior points with a
//! golden-ratio bracket.

use std::collections::HashMap;

/// Outcome of a search over `p ∈ [lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchResult {
    /// The minimizing processor count.
    pub argmin: u32,
    /// The minimum objective value.
    pub min: f64,
    /// Distinct objective evaluations spent.
    pub evaluations: u32,
}

/// How to locate `p_ideal` within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SearchStrategy {
    /// The paper's binary search (assumes a single minimum); `O(log₂ P)`
    /// evaluations. Ties resolve toward smaller `p`.
    #[default]
    Binary,
    /// Evaluate every count; exact even with multiple minima; `O(P)`.
    Exhaustive,
    /// Golden-section search on the discrete range; `O(log P)` with a
    /// larger constant, robust to shallow plateaus.
    GoldenSection,
}

impl SearchStrategy {
    /// Minimize `f` over the inclusive integer range `[lo, hi]`.
    /// Evaluations are memoized, so repeated probes of one point count
    /// once (matching how an implementation would cache Eq. 3/6 results).
    ///
    /// # Panics
    /// If `lo > hi`.
    pub fn minimize(self, lo: u32, hi: u32, mut f: impl FnMut(u32) -> f64) -> SearchResult {
        assert!(lo <= hi, "empty search range [{lo}, {hi}]");
        let mut cache: HashMap<u32, f64> = HashMap::new();
        let mut evals = 0u32;
        let mut eval = |p: u32, cache: &mut HashMap<u32, f64>, evals: &mut u32| -> f64 {
            *cache.entry(p).or_insert_with(|| {
                *evals += 1;
                f(p)
            })
        };
        match self {
            SearchStrategy::Binary => {
                let (mut a, mut b) = (lo, hi);
                while a < b {
                    let mid = a + (b - a) / 2;
                    let fm = eval(mid, &mut cache, &mut evals);
                    let fm1 = eval(mid + 1, &mut cache, &mut evals);
                    if fm <= fm1 {
                        b = mid;
                    } else {
                        a = mid + 1;
                    }
                }
                SearchResult {
                    argmin: a,
                    min: eval(a, &mut cache, &mut evals),
                    evaluations: evals,
                }
            }
            SearchStrategy::Exhaustive => {
                let mut best = (lo, eval(lo, &mut cache, &mut evals));
                for p in lo + 1..=hi {
                    let v = eval(p, &mut cache, &mut evals);
                    if v < best.1 {
                        best = (p, v);
                    }
                }
                SearchResult {
                    argmin: best.0,
                    min: best.1,
                    evaluations: evals,
                }
            }
            SearchStrategy::GoldenSection => {
                const INV_PHI: f64 = 0.618_033_988_749_894_9;
                let (mut a, mut b) = (lo as f64, hi as f64);
                while b - a > 2.0 {
                    let x1 = (b - INV_PHI * (b - a)).round() as u32;
                    let x2 = (a + INV_PHI * (b - a)).round() as u32;
                    let (x1, x2) = (x1.clamp(lo, hi), x2.clamp(lo, hi));
                    if x1 >= x2 {
                        break;
                    }
                    let f1 = eval(x1, &mut cache, &mut evals);
                    let f2 = eval(x2, &mut cache, &mut evals);
                    if f1 <= f2 {
                        b = x2 as f64;
                    } else {
                        a = x1 as f64;
                    }
                }
                let mut best: Option<(u32, f64)> = None;
                for p in (a.floor() as u32).max(lo)..=(b.ceil() as u32).min(hi) {
                    let v = eval(p, &mut cache, &mut evals);
                    if best.is_none_or(|(_, b)| v < b) {
                        best = Some((p, v));
                    }
                }
                let (argmin, min) = best.expect("non-empty range");
                SearchResult {
                    argmin,
                    min,
                    evaluations: evals,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u_shape(p: u32) -> f64 {
        // Minimum at p = 7.
        let x = p as f64 - 7.0;
        x * x + 3.0
    }

    #[test]
    fn all_strategies_find_unimodal_minimum() {
        for s in [
            SearchStrategy::Binary,
            SearchStrategy::Exhaustive,
            SearchStrategy::GoldenSection,
        ] {
            let r = s.minimize(1, 20, u_shape);
            assert_eq!(r.argmin, 7, "{s:?}");
            assert_eq!(r.min, 3.0, "{s:?}");
        }
    }

    #[test]
    fn binary_is_logarithmic() {
        let r = SearchStrategy::Binary.minimize(1, 1024, u_shape);
        assert_eq!(r.argmin, 7);
        // 2 evaluations per halving step, memoized neighbors shared.
        assert!(
            r.evaluations <= 2 * 11,
            "binary used {} evaluations for P=1024",
            r.evaluations
        );
        let ex = SearchStrategy::Exhaustive.minimize(1, 1024, u_shape);
        assert_eq!(ex.evaluations, 1024);
    }

    #[test]
    fn binary_ties_resolve_to_smaller_p() {
        // Flat plateau 3..=8 at the minimum value.
        let f = |p: u32| -> f64 {
            if (3..=8).contains(&p) {
                1.0
            } else {
                2.0 + (p as f64 - 5.5).abs()
            }
        };
        let r = SearchStrategy::Binary.minimize(1, 12, f);
        assert!((3..=8).contains(&r.argmin));
        assert_eq!(r.min, 1.0);
        let e = SearchStrategy::Exhaustive.minimize(1, 12, f);
        assert_eq!(e.argmin, 3, "exhaustive reports the smallest minimizer");
    }

    #[test]
    fn monotone_edges() {
        // Strictly decreasing → max; strictly increasing → min.
        let dec = SearchStrategy::Binary.minimize(1, 16, |p| -(p as f64));
        assert_eq!(dec.argmin, 16);
        let inc = SearchStrategy::Binary.minimize(1, 16, |p| p as f64);
        assert_eq!(inc.argmin, 1);
    }

    #[test]
    fn single_point_range() {
        for s in [
            SearchStrategy::Binary,
            SearchStrategy::Exhaustive,
            SearchStrategy::GoldenSection,
        ] {
            let r = s.minimize(4, 4, |_| 9.0);
            assert_eq!(r.argmin, 4);
            assert_eq!(r.min, 9.0);
            assert_eq!(r.evaluations, 1, "{s:?}");
        }
    }

    #[test]
    #[should_panic(expected = "empty search range")]
    fn inverted_range_panics() {
        let _ = SearchStrategy::Binary.minimize(5, 4, |_| 0.0);
    }

    #[test]
    fn golden_section_handles_plateaus() {
        let f = |p: u32| -> f64 { ((p as f64 - 10.0) / 3.0).abs().floor() };
        let r = SearchStrategy::GoldenSection.minimize(1, 30, f);
        assert_eq!(f(r.argmin), 0.0);
    }
}
