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
    /// that the counts sum exactly to `num_pdus`. Shares must be
    /// non-negative and sum to (approximately) `num_pdus`; they are
    /// renormalized defensively.
    ///
    /// This is how the closed-form Eq. 3 result (real-valued) becomes an
    /// integral assignment: the paper's Table 1 rounds per entry, which can
    /// break `Σ A_i = num_PDUs` (see EXPERIMENTS.md); largest-remainder
    /// preserves the invariant.
    ///
    /// No rank ends a whole PDU above its ideal share. When rounding
    /// leaves no rank with a usable (finite, positive) share empty, or
    /// there are fewer PDUs than ranks, every rank is also within one PDU
    /// of its ideal. Otherwise the empty ranks are refilled (see
    /// [`from_share_runs`](Self::from_share_runs)): every usable rank then
    /// holds at least one PDU, and the ranks that paid for the refill may
    /// end more than one PDU below their ideal — two ranks at 3.53 PDUs
    /// each and four at 0.24 become `[2, 2, 1, 1, 1, 1]`.
    pub fn from_real_shares(shares: &[f64], num_pdus: u64) -> PartitionVector {
        let runs: Vec<(f64, usize)> = shares.iter().map(|&s| (s, 1)).collect();
        PartitionVector::from_share_runs(&runs, num_pdus)
    }

    /// [`from_real_shares`](Self::from_real_shares) over runs of equal
    /// shares: `(share, len)` stands for `len` consecutive ranks holding
    /// `share` each, so a cluster-contiguous layout of `K` clusters is `K`
    /// runs however many ranks it has. The counts are those of the
    /// expanded per-rank list, bit for bit: the normalising total is
    /// still added rank by rank, leftover PDUs go to runs by largest
    /// fractional remainder (a stable sort, so tied runs keep rank order)
    /// and to a run's ranks in rank order, and a leftover of a whole
    /// round or more hands every rank the whole rounds first. Sorting
    /// costs O(runs · log runs); the rest is O(ranks).
    ///
    /// When `num_pdus` is at least the rank count, every rank with a
    /// usable share ends with at least one PDU: each rank rounding left
    /// empty gets one, and each PDU it takes comes from the rank furthest
    /// above its ideal share among those holding two or more (the last
    /// such rank on ties). A run's ranks share its PDUs evenly, the
    /// leading ones holding the odd ones, so its fullest ranks give a
    /// layer at a time: a refill costs one scan of the runs per layer.
    /// Where rounding leaves no rank empty the counts are the plain
    /// largest-remainder ones.
    pub fn from_share_runs(runs: &[(f64, usize)], num_pdus: u64) -> PartitionVector {
        let ranks: usize = runs.iter().map(|&(_, len)| len).sum();
        if ranks == 0 {
            return PartitionVector::default();
        }
        let usable = |s: f64| s.is_finite() && s > 0.0;
        let total: f64 = runs
            .iter()
            .filter(|&&(s, _)| usable(s))
            .flat_map(|&(s, len)| std::iter::repeat_n(s, len))
            .sum();
        if total <= 0.0 {
            // Degenerate: give everything to rank 0.
            let mut counts = vec![0u64; ranks];
            counts[0] = num_pdus;
            return PartitionVector::from_counts(counts);
        }
        let scaled: Vec<f64> = runs
            .iter()
            .map(|&(s, _)| {
                if usable(s) {
                    s / total * num_pdus as f64
                } else {
                    0.0
                }
            })
            .collect();
        // PDUs per run, shared evenly by its ranks, leading ranks first.
        let mut held: Vec<u64> = runs
            .iter()
            .zip(&scaled)
            .map(|(&(_, len), &x)| x.floor() as u64 * len as u64)
            .collect();
        let leftover = num_pdus - held.iter().sum::<u64>().min(num_pdus);
        // Hand remaining PDUs to the largest fractional remainders: whole
        // rounds to every rank, then one each down the sorted runs.
        let (rounds, mut rest) = (leftover / ranks as u64, leftover % ranks as u64);
        // An empty run holds no rank, and its share took no part in the
        // total: it may scale past it, to a remainder that is NaN.
        let mut order: Vec<usize> = (0..runs.len()).filter(|&i| runs[i].1 > 0).collect();
        order.sort_by(|&i, &j| {
            let fi = scaled[i] - scaled[i].floor();
            let fj = scaled[j] - scaled[j].floor();
            fj.partial_cmp(&fi).unwrap_or(std::cmp::Ordering::Equal)
        });
        for i in order {
            let len = runs[i].1 as u64;
            let take = rest.min(len);
            held[i] += rounds * len + take;
            rest -= take;
        }
        // A rank that rounded to nothing cannot own a block: while there
        // are PDUs enough to go round, a usable run with fewer PDUs than
        // ranks is topped up to one each.
        let mut owed = 0;
        for (&(s, len), h) in runs.iter().zip(&mut held) {
            if usable(s) && *h < len as u64 && num_pdus >= ranks as u64 {
                owed += len as u64 - *h;
                *h = len as u64;
            }
        }
        // The donor is the run whose fullest rank sits furthest above its
        // ideal share. Those fullest ranks stay furthest above it until
        // each has given one, so the run gives that layer whole. Some
        // rank holds two or more while a PDU is owed.
        let surplus = |i: usize, h: u64| h.div_ceil(runs[i].1 as u64) as f64 - scaled[i];
        while owed > 0 {
            let donor = (0..runs.len())
                .filter(|&i| held[i] > runs[i].1 as u64)
                .max_by(|&i, &j| surplus(i, held[i]).total_cmp(&surplus(j, held[j])));
            let Some(i) = donor else { break };
            let give = ((held[i] - 1) % runs[i].1 as u64 + 1).min(owed);
            held[i] -= give;
            owed -= give;
        }
        let counts = runs.iter().zip(&held).flat_map(|(&(_, len), &h)| {
            let len = len as u64;
            (0..len).map(move |r| h / len + u64::from(r < h % len))
        });
        PartitionVector::from_counts(counts.collect())
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
}

impl fmt::Debug for PartitionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{:?}", self.counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Largest-remainder rounding as it ran before the run form: one share
    /// per rank, every rank sorted, then each empty rank with a usable
    /// share given a PDU, taken one at a time from the rank furthest
    /// above its ideal. The reference the run form must equal count for
    /// count.
    fn from_real_shares_per_rank(shares: &[f64], num_pdus: u64) -> PartitionVector {
        if shares.is_empty() {
            return PartitionVector::default();
        }
        let total: f64 = shares
            .iter()
            .copied()
            .filter(|s| s.is_finite() && *s > 0.0)
            .sum();
        if total <= 0.0 {
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
        let mut owed = 0;
        for (c, &s) in counts.iter_mut().zip(shares) {
            if *c == 0 && s.is_finite() && s > 0.0 && num_pdus >= shares.len() as u64 {
                *c = 1;
                owed += 1;
            }
        }
        // Each PDU owed comes from the rank furthest above its ideal
        // share among those holding two or more, the last on ties.
        for _ in 0..owed {
            let surplus = |i: usize| counts[i] as f64 - scaled[i];
            let donor = (0..counts.len())
                .filter(|&i| counts[i] > 1)
                .max_by(|&i, &j| surplus(i).total_cmp(&surplus(j)));
            counts[donor.unwrap()] -= 1;
        }
        PartitionVector::from_counts(counts)
    }

    fn expand(runs: &[(f64, usize)]) -> Vec<f64> {
        runs.iter()
            .flat_map(|&(s, len)| std::iter::repeat_n(s, len))
            .collect()
    }

    /// Added as `len · share`, the total of `[(0.3, 2), (0.7, 2)]` is 2.0;
    /// added rank by rank it is 1.9999999999999998, and over 230 PDUs the
    /// two round to different vectors. The run form must add rank by rank.
    #[test]
    fn runs_round_as_their_ranks_do() {
        let runs = [(0.3, 2), (0.7, 2)];
        let v = PartitionVector::from_share_runs(&runs, 230);
        assert_eq!(v.counts(), &[34, 34, 81, 81]);
        assert_eq!(v, from_real_shares_per_rank(&expand(&runs), 230));
        // A total that overflows scales every rank to 0: the leftover is
        // two whole rounds over three ranks, then one more for rank 0.
        let runs = [(0.5, 0), (f64::MAX, 2), (1.0, 1)];
        let v = PartitionVector::from_share_runs(&runs, 7);
        assert_eq!(v.counts(), &[3, 2, 2]);
        assert_eq!(v, from_real_shares_per_rank(&expand(&runs), 7));
    }

    proptest::proptest! {
        /// The run form equals the per-rank reference on random runs:
        /// zero-length runs; zero, negative, NaN and infinite shares; a
        /// total that overflows (every rank scaled to 0, so the leftover
        /// is whole rounds); fractional parts tied across runs; and
        /// `num_pdus` from 0 up.
        #[test]
        fn share_runs_equal_the_per_rank_reference(
            runs in proptest::prop::collection::vec((0usize..12, 0usize..5, 0.0f64..10.0), 0..12),
            pdus in (0usize..4, 0u64..100_000),
        ) {
            let runs: Vec<(f64, usize)> = runs
                .iter()
                .map(|&(pick, len, x)| {
                    let share = [0.0, f64::NAN, f64::INFINITY, -1.0, f64::MAX, 0.3, 0.7, 1.0 / 3.0]
                        .get(pick)
                        .copied()
                        .unwrap_or(x);
                    (share, len)
                })
                .collect();
            let num_pdus = match pdus.0 {
                0 => 0,
                1 => 230,
                2 => pdus.1 % 10,
                _ => pdus.1,
            };
            let expect = from_real_shares_per_rank(&expand(&runs), num_pdus);
            proptest::prop_assert_eq!(PartitionVector::from_share_runs(&runs, num_pdus), expect);
        }

        /// Whenever there are at least as many PDUs as ranks and every
        /// share is usable, no rank is left empty — shares spanning five
        /// orders of magnitude, so the small ones round below one PDU.
        #[test]
        fn share_runs_leave_no_rank_empty(
            runs in proptest::prop::collection::vec((-5.0f64..0.0, 1usize..40), 1..24),
            extra in 0u64..2_000,
        ) {
            let runs: Vec<(f64, usize)> = runs.iter().map(|&(e, len)| (10f64.powf(e), len)).collect();
            let ranks: usize = runs.iter().map(|&(_, len)| len).sum();
            let num_pdus = ranks as u64 + extra;
            let v = PartitionVector::from_share_runs(&runs, num_pdus);
            proptest::prop_assert_eq!(v.total(), num_pdus);
            proptest::prop_assert!(v.counts().iter().all(|&c| c > 0), "{:?}", v);
        }
    }

    /// Largest remainder leaves `[4, 4, 0, 0, 0, 0]`: two fast ranks at
    /// 3.53 PDUs, four slow ones at 0.24. The empty ranks get a PDU each,
    /// taken from the fast ranks two layers deep — 1.53 PDUs below their
    /// ideal, which no vector giving the slow ranks a PDU each avoids.
    #[test]
    fn empty_ranks_take_a_pdu_from_fuller_ones() {
        let v = PartitionVector::from_share_runs(&[(3.0, 2), (0.2, 4)], 8);
        assert_eq!(v.counts(), &[2, 2, 1, 1, 1, 1]);
        assert_eq!(
            v,
            from_real_shares_per_rank(&[3.0, 3.0, 0.2, 0.2, 0.2, 0.2], 8)
        );
        // Part of a layer: three of the four full ranks give one, the
        // last ones first, so the run stays front-loaded.
        let v = PartitionVector::from_share_runs(&[(1.0, 4), (0.1, 3)], 12);
        assert_eq!(v.counts(), &[3, 2, 2, 2, 1, 1, 1]);
        // Ideals 3.3, 2.4, 0.3 round to `[3, 3, 0]`. Rank 1 was rounded
        // up, so it gives the PDU rather than rank 0, which was rounded
        // down: every rank stays within one PDU of its ideal.
        let v = PartitionVector::from_real_shares(&[33.0, 24.0, 3.0], 6);
        assert_eq!(v.counts(), &[3, 2, 1]);
        // Fewer PDUs than ranks: some rank must stay empty.
        let v = PartitionVector::from_share_runs(&[(3.0, 2), (0.2, 4)], 5);
        assert_eq!(v.counts(), &[3, 2, 0, 0, 0, 0]);
        // A rank without a usable share is not given one.
        let v = PartitionVector::from_real_shares(&[f64::NAN, 1.0], 5);
        assert_eq!(v.counts(), &[0, 5]);
    }

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
    }
}
