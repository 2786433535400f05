//! The partition vector: PDUs per processor.
//!
//! Paper §4: "Partitioning determines the number of PDUs to be assigned to
//! each task (i.e., processor). This information is contained in a
//! structure known as the *partition vector* A: `A_i` = number of PDUs
//! assigned to processor `p_i`, `Σ A_i = num_PDUs`." The implementation is
//! responsible for interpreting the vector (e.g. turning counts into row
//! ranges of a grid, as in Fig. 2).

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// PDU counts per task rank, in rank (placement) order. Immutable once
/// built and shared by its clones: a plan, the partition inside it and
/// every served copy of both hold one allocation, not `P` words each.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct PartitionVector {
    counts: Arc<[u64]>,
}

impl PartitionVector {
    /// Build from explicit counts.
    pub fn from_counts(counts: Vec<u64>) -> PartitionVector {
        PartitionVector {
            counts: counts.into(),
        }
    }

    /// Build from real-valued shares using largest-remainder rounding, so
    /// that the counts sum exactly to `num_pdus` while staying within one
    /// PDU of the ideal shares. Shares must be non-negative and sum to
    /// (approximately) `num_pdus`; they are renormalized defensively.
    ///
    /// This is how the closed-form Eq. 3 result (real-valued) becomes an
    /// integral assignment: the paper's Table 1 rounds per entry, which can
    /// break `Σ A_i = num_PDUs` (see EXPERIMENTS.md); largest-remainder
    /// preserves the invariant.
    pub fn from_real_shares(shares: &[f64], num_pdus: u64) -> PartitionVector {
        if shares.is_empty() {
            return PartitionVector::default();
        }
        let total: f64 = shares
            .iter()
            .copied()
            .filter(|s| s.is_finite() && *s > 0.0)
            .sum();
        if total <= 0.0 {
            // Degenerate: give everything to rank 0.
            let mut counts = vec![0u64; shares.len()];
            counts[0] = num_pdus;
            return PartitionVector::from_counts(counts);
        }
        let scaled: Vec<f64> = shares
            .iter()
            .map(|&s| {
                if s.is_finite() && s > 0.0 {
                    s / total * num_pdus as f64
                } else {
                    0.0
                }
            })
            .collect();
        let mut counts: Vec<u64> = scaled.iter().map(|&x| x.floor() as u64).collect();
        let assigned: u64 = counts.iter().sum();
        let mut leftover = num_pdus - assigned.min(num_pdus);
        // Hand remaining PDUs to the largest fractional remainders.
        let mut order: Vec<usize> = (0..shares.len()).collect();
        order.sort_by(|&i, &j| {
            let fi = scaled[i] - scaled[i].floor();
            let fj = scaled[j] - scaled[j].floor();
            fj.partial_cmp(&fi).unwrap_or(std::cmp::Ordering::Equal)
        });
        for &i in order.iter().cycle() {
            if leftover == 0 {
                break;
            }
            counts[i] += 1;
            leftover -= 1;
        }
        PartitionVector::from_counts(counts)
    }

    /// Equal decomposition (the paper's N=1200 baseline): `num_pdus`
    /// spread as evenly as possible over `p` ranks.
    pub fn equal(num_pdus: u64, p: usize) -> PartitionVector {
        assert!(p > 0, "cannot partition over zero processors");
        let base = num_pdus / p as u64;
        let extra = (num_pdus % p as u64) as usize;
        let counts = (0..p).map(|i| base + u64::from(i < extra)).collect();
        PartitionVector::from_counts(counts)
    }

    /// PDUs for rank `i`.
    #[inline]
    pub fn count(&self, rank: usize) -> u64 {
        self.counts[rank]
    }

    /// All counts in rank order.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.counts.len()
    }

    /// Total PDUs.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// For block decompositions: the contiguous PDU index range of each
    /// rank, in rank order (Fig. 2's row ranges).
    pub fn ranges(&self) -> Vec<Range<u64>> {
        let mut start = 0u64;
        self.counts
            .iter()
            .map(|&c| {
                let r = start..start + c;
                start += c;
                r
            })
            .collect()
    }

    /// The rank owning PDU `index`, for block decompositions.
    pub fn owner_of(&self, index: u64) -> Option<usize> {
        let mut start = 0u64;
        for (rank, &c) in self.counts.iter().enumerate() {
            if index < start + c {
                return Some(rank);
            }
            start += c;
        }
        None
    }

    /// Ranks with a nonzero assignment.
    pub fn active_ranks(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }
}

impl fmt::Debug for PartitionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{:?}", self.counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_example_partition() {
        // Fig. 2: a 20-row grid over 4 processors, 1-D decomposition.
        // With equal processors each gets 5 rows.
        let v = PartitionVector::equal(20, 4);
        assert_eq!(v.counts(), &[5, 5, 5, 5]);
        assert_eq!(v.total(), 20);
        let ranges = v.ranges();
        assert_eq!(ranges[0], 0..5);
        assert_eq!(ranges[3], 15..20);
    }

    #[test]
    fn equal_distributes_remainder_to_front() {
        let v = PartitionVector::equal(10, 3);
        assert_eq!(v.counts(), &[4, 3, 3]);
        assert_eq!(v.total(), 10);
    }

    #[test]
    fn paper_shares_round_to_exact_sum() {
        // Paper §6, N=300, (P1, P2) = (6, 2): Sparc2 share 2N/(2·6+2) =
        // 42.857, IPC share 21.43. Largest remainder: six 43s would be
        // 258 + two 21s = 300 exactly.
        let shares: Vec<f64> = std::iter::repeat_n(600.0 / 14.0, 6)
            .chain(std::iter::repeat_n(300.0 / 14.0, 2))
            .collect();
        let v = PartitionVector::from_real_shares(&shares, 300);
        assert_eq!(v.total(), 300);
        for i in 0..6 {
            assert!((v.count(i) as f64 - 42.857).abs() < 1.0);
        }
        for i in 6..8 {
            assert!((v.count(i) as f64 - 21.43).abs() < 1.0);
        }
    }

    #[test]
    fn shares_within_one_pdu_of_ideal() {
        let shares = [3.3, 1.1, 7.7, 0.9];
        let v = PartitionVector::from_real_shares(&shares, 130);
        assert_eq!(v.total(), 130);
        let total: f64 = shares.iter().sum();
        for (i, &s) in shares.iter().enumerate() {
            let ideal = s / total * 130.0;
            assert!(
                (v.count(i) as f64 - ideal).abs() <= 1.0,
                "rank {i}: {} vs ideal {ideal}",
                v.count(i)
            );
        }
    }

    #[test]
    fn degenerate_shares_fall_back() {
        let v = PartitionVector::from_real_shares(&[0.0, 0.0], 7);
        assert_eq!(v.total(), 7);
        let v = PartitionVector::from_real_shares(&[f64::NAN, 1.0], 5);
        assert_eq!(v.total(), 5);
        assert_eq!(v.count(0), 0);
        let v = PartitionVector::from_real_shares(&[], 7);
        assert_eq!(v.num_ranks(), 0);
    }

    #[test]
    fn owner_lookup() {
        let v = PartitionVector::from_counts(vec![5, 0, 3]);
        assert_eq!(v.owner_of(0), Some(0));
        assert_eq!(v.owner_of(4), Some(0));
        assert_eq!(v.owner_of(5), Some(2));
        assert_eq!(v.owner_of(7), Some(2));
        assert_eq!(v.owner_of(8), None);
        assert_eq!(v.active_ranks(), 2);
    }
}
