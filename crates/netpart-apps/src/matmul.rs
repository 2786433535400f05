//! Dense matrix multiplication over a ring — a fourth application class
//! with *rotating* communication.
//!
//! `C = A·B` with `A` and `B` both row-block distributed by the partition
//! vector (PDU = matrix row). The algorithm is the classic ring rotation:
//! each of the `p` cycles, every rank multiplies its `A` rows against the
//! `B` block it currently holds (accumulating into the matching columns
//! of... rather, the matching *rows* of the inner dimension), then passes
//! the block to its ring successor. After `p` cycles every rank has seen
//! every `B` row and holds its finished `C` rows.
//!
//! Communication volume per cycle is a whole block (`rows × N × 8`
//! bytes) — orders of magnitude heavier than the stencil's border rows,
//! exercising the fragmentation and bandwidth paths of the substrate.
//! Like the 2-D stencil, the per-cycle annotations depend on `p` (block
//! heights), so [`matmul_model`] is per-configuration.

use bytes::Bytes;

use netpart_model::{AppModel, CommPhase, CompPhase, OpKind, PartitionVector};
use netpart_spmd::{SpmdApp, Step};
use netpart_topology::Topology;

use crate::wire;

/// §4-style annotations for the ring matmul at a given processor count.
pub fn matmul_model(n: u64, p: u32) -> AppModel {
    let block_rows = (n as f64 / p.max(1) as f64).ceil();
    AppModel::new("ring matrix multiply", "matrix row", n)
        // Per cycle, one A-row does 2·N flops against each of the visiting
        // block's rows: 2·N·(N/p) per PDU per cycle.
        .with_comp(CompPhase::linear(
            "block multiply",
            2.0 * n as f64 * block_rows,
            OpKind::Flop,
        ))
        .with_comm(CommPhase::constant(
            "block rotation",
            Topology::Ring,
            8.0 * n as f64 * block_rows,
        ))
}

/// Deterministic dense test matrices with entries in `[-1, 1]`.
pub fn make_matrices(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut state = seed.wrapping_mul(0xA076_1D64_78BD_642F).wrapping_add(3);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    };
    let a: Vec<f64> = (0..n * n).map(|_| next()).collect();
    let b: Vec<f64> = (0..n * n).map(|_| next()).collect();
    (a, b)
}

/// Sequential reference product.
pub fn reference_product(n: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut c = vec![0.0f64; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            for j in 0..n {
                c[i * n + j] += aik * b[k * n + j];
            }
        }
    }
    c
}

#[cfg_attr(test, derive(Clone))]
struct RankState {
    /// Owned A-row range (and C-row range).
    start: usize,
    end: usize,
    /// Owned A rows, row-major, width n.
    a: Vec<f64>,
    /// Accumulating C rows.
    c: Vec<f64>,
    /// The B block currently held: (first global B row, rows, data).
    block_start: usize,
    block: Vec<f64>,
}

/// The distributed ring multiplier.
pub struct MatmulApp {
    n: usize,
    p: usize,
    a_full: Vec<f64>,
    b_full: Vec<f64>,
    ranks: Vec<RankState>,
}

impl MatmulApp {
    /// Multiply the `n×n` pair over `p` ranks.
    pub fn new(n: usize, a: Vec<f64>, b: Vec<f64>, p: usize) -> MatmulApp {
        assert_eq!(a.len(), n * n);
        assert_eq!(b.len(), n * n);
        MatmulApp {
            n,
            p,
            a_full: a,
            b_full: b,
            ranks: Vec::with_capacity(p),
        }
    }

    fn ring_next(&self, rank: usize) -> usize {
        (rank + 1) % self.p
    }

    fn ring_prev(&self, rank: usize) -> usize {
        (rank + self.p - 1) % self.p
    }

    /// Gather the product.
    pub fn gather(&self) -> Vec<f64> {
        let n = self.n;
        let mut c = vec![0.0f64; n * n];
        for s in &self.ranks {
            c[s.start * n..s.end * n].copy_from_slice(&s.c);
        }
        c
    }
}

impl SpmdApp for MatmulApp {
    fn setup(&mut self, rank: usize, vector: &PartitionVector) {
        if rank == 0 {
            self.ranks.clear();
            assert_eq!(vector.total(), self.n as u64);
        }
        // Set up in rank order: each block starts where the last ended.
        let gs = self.ranks.last().map_or(0, |s| s.end);
        let ge = gs + vector.count(rank) as usize;
        assert!(ge > gs, "matmul ranks must own at least one row");
        let n = self.n;
        self.ranks.push(RankState {
            start: gs,
            end: ge,
            a: self.a_full[gs * n..ge * n].to_vec(),
            c: vec![0.0; (ge - gs) * n],
            block_start: gs,
            block: self.b_full[gs * n..ge * n].to_vec(),
        });
    }

    fn num_cycles(&self) -> u64 {
        self.p as u64
    }

    fn script(&self, rank: usize, cycle: u64) -> Vec<Step> {
        if self.p == 1 {
            return vec![Step::Compute { part: 0 }];
        }
        let next = self.ring_next(rank);
        let prev = self.ring_prev(rank);
        if cycle as usize == self.p - 1 {
            // Final cycle: multiply the last block, no rotation needed.
            return vec![Step::Compute { part: 0 }];
        }
        // Multiply the held block, then rotate it onward and receive the
        // predecessor's. (Send before compute would also work; compute-
        // first keeps the block borrow simple and overlaps the *next*
        // rank's compute with our transfer.)
        vec![
            Step::Compute { part: 0 },
            Step::Send { to: vec![next] },
            Step::Recv { from: vec![prev] },
        ]
    }

    fn produce(&mut self, rank: usize, _cycle: u64, to: usize) -> Bytes {
        debug_assert_eq!(to, self.ring_next(rank));
        let s = &self.ranks[rank];
        let mut buf = Vec::with_capacity(8 + 8 * s.block.len());
        wire::put_u64s(&mut buf, &[s.block_start as u64]);
        wire::put_f64s(&mut buf, &s.block);
        Bytes::from(buf)
    }

    fn consume(&mut self, rank: usize, _cycle: u64, from: usize, payload: &[u8]) {
        debug_assert_eq!(from, self.ring_prev(rank));
        let s = &mut self.ranks[rank];
        s.block_start = wire::get_index(payload, 0);
        s.block.resize((payload.len() - 8) / 8, 0.0);
        wire::get_f64s(&payload[8..], &mut s.block);
    }

    fn compute(&mut self, rank: usize, _cycle: u64, _part: u32) -> (f64, OpKind) {
        let n = self.n;
        let s = &mut self.ranks[rank];
        let my_rows = s.end - s.start;
        let block_rows = s.block.len() / n;
        // Row i of C accumulates a[i][k] · B[k] for each visiting B row k,
        // in k order then column order, multiply then add, never fused.
        for (c_row, a_row) in s.c.chunks_exact_mut(n).zip(s.a.chunks_exact(n)) {
            let a_cols = &a_row[s.block_start..s.block_start + block_rows];
            for (&aik, b_row) in a_cols.iter().zip(s.block.chunks_exact(n)) {
                if aik == 0.0 {
                    continue;
                }
                for (c, &b) in c_row.iter_mut().zip(b_row) {
                    *c += aik * b;
                }
            }
        }
        (
            2.0 * my_rows as f64 * block_rows as f64 * n as f64,
            OpKind::Flop,
        )
    }

    fn distribution_bytes(&self, rank: usize) -> u64 {
        let s = &self.ranks[rank];
        // A rows + initial B block.
        (2 * (s.end - s.start) * self.n * 8) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The index-per-element loop `compute` replaced, kept verbatim as
    /// the oracle the slice kernel must match bit for bit.
    fn compute_scalar(s: &mut RankState, n: usize) {
        let my_rows = s.end - s.start;
        let block_rows = s.block.len() / n;
        for i in 0..my_rows {
            for (bk, brow) in (0..block_rows).map(|r| (s.block_start + r, r)) {
                let aik = s.a[i * n + bk];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..n {
                    s.c[i * n + j] += aik * s.block[brow * n + j];
                }
            }
        }
    }

    proptest! {
        #[test]
        fn slice_multiply_matches_scalar_oracle(
            n in 1usize..16,
            geometry in (0usize..1000, 0usize..1000, 0usize..1000),
            values in prop::collection::vec(-2.0f64..2.0, 800..801),
        ) {
            let (a, b, c) = geometry;
            let my_rows = 1 + a % n;
            let block_start = b % n;
            let block_rows = 1 + c % (n - block_start);
            let mut app = MatmulApp::new(n, vec![0.0; n * n], vec![0.0; n * n], 1);
            let mut a_rows = values[..my_rows * n].to_vec();
            a_rows[0] = 0.0; // the zero-skip branch
            app.ranks.push(RankState {
                start: 0,
                end: my_rows,
                a: a_rows,
                c: values[my_rows * n..2 * my_rows * n].to_vec(),
                block_start,
                block: values[2 * my_rows * n..][..block_rows * n].to_vec(),
            });
            let mut want = app.ranks[0].clone();
            compute_scalar(&mut want, n);
            app.compute(0, 0, 0);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            prop_assert_eq!(bits(&app.ranks[0].c), bits(&want.c));
        }
    }

    #[test]
    fn reference_is_correct_on_identity() {
        let n = 4;
        let mut ident = vec![0.0; n * n];
        for i in 0..n {
            ident[i * n + i] = 1.0;
        }
        let (a, _) = make_matrices(n, 5);
        assert_eq!(reference_product(n, &a, &ident), a);
    }

    #[test]
    fn single_rank_multiplies() {
        let n = 8;
        let (a, b) = make_matrices(n, 2);
        let mut app = MatmulApp::new(n, a.clone(), b.clone(), 1);
        app.setup(0, &PartitionVector::equal(n as u64, 1));
        app.compute(0, 0, 0);
        let c = app.gather();
        let want = reference_product(n, &a, &b);
        for (g, w) in c.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn model_scales_with_block_size() {
        let m = matmul_model(120, 4);
        assert_eq!(m.dominant_comm().topology, Topology::Ring);
        // block of 30 rows × 120 cols × 8 B = 28.8 kB per rotation.
        assert_eq!(m.dominant_comm().bytes(1.0), 28_800.0);
        assert_eq!(m.dominant_comp().ops(1.0), 2.0 * 120.0 * 30.0);
    }

    #[test]
    fn matrices_are_deterministic() {
        assert_eq!(make_matrices(6, 9), make_matrices(6, 9));
        assert_ne!(make_matrices(6, 9).0, make_matrices(6, 10).0);
    }
}
