//! The paper's canonical application: a dense N×N iterative five-point
//! stencil with a block-row decomposition (Fig. 2).
//!
//! Two implementations, exactly as evaluated in §6:
//!
//! * **STEN-1** — communication is not overlapped with computation: each
//!   cycle sends the border rows, blocks for the neighbors' borders, then
//!   updates the whole block.
//! * **STEN-2** — border transmission is overlapped with the grid update:
//!   send borders, update the interior (which needs no halo data), then
//!   receive borders and update the two border rows.
//!
//! The §4 annotations (PDU = one row, 4-byte grid points):
//!
//! ```text
//! topology                 = 1-D
//! communication complexity = 4N bytes
//! num_PDUs                 = N
//! computational complexity = 5N flops per PDU
//! ```
//!
//! The distributed computation does real `f32` arithmetic and must agree
//! **bit for bit** with [`sequential_reference`], whatever the partition
//! vector — the integration tests rely on that.

use bytes::Bytes;

use netpart_model::{AppModel, CommPhase, CompPhase, OpKind, PartitionVector};
use netpart_spmd::{Checkpoint, SpmdApp, Step};
use netpart_topology::Topology;

use crate::wire;

/// Which §6 implementation variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StencilVariant {
    /// No communication/computation overlap.
    Sten1,
    /// Border transmission overlapped with the interior update.
    Sten2,
}

/// Compute part ids used in the scripts.
const PART_ALL: u32 = 0;
const PART_INTERIOR: u32 = 1;
const PART_BORDER: u32 = 2;

/// The §4 annotations as an [`AppModel`] for the partitioner.
pub fn stencil_model(n: u64, variant: StencilVariant) -> AppModel {
    let comm = CommPhase::constant("border exchange", Topology::OneD, 4.0 * n as f64);
    let comm = match variant {
        StencilVariant::Sten1 => comm,
        StencilVariant::Sten2 => comm.overlapping("grid update"),
    };
    AppModel::new("five-point stencil", "grid row", n)
        .with_comp(CompPhase::linear(
            "grid update",
            5.0 * n as f64,
            OpKind::Flop,
        ))
        .with_comm(comm)
}

/// Deterministic initial grid: a hot left wall, cold interior, and a
/// sinusoidal-ish top edge, all derived from integer arithmetic so every
/// construction is identical.
pub fn initial_grid(n: usize) -> Vec<f32> {
    let mut g = vec![0.0f32; n * n];
    for i in 0..n {
        g[i * n] = 100.0; // left wall
        g[i * n + n - 1] = 25.0; // right wall
        g[i] = (i % 7) as f32 * 3.0 + 10.0; // top edge
        g[(n - 1) * n + i] = 50.0; // bottom edge
    }
    g
}

/// Run `iters` Jacobi iterations sequentially: every interior point
/// becomes the average of its four neighbors from the previous iteration.
pub fn sequential_reference(n: usize, iters: u64) -> Vec<f32> {
    let mut cur = initial_grid(n);
    let mut next = cur.clone();
    for _ in 0..iters {
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                next[i * n + j] = (cur[(i - 1) * n + j]
                    + cur[(i + 1) * n + j]
                    + cur[i * n + j - 1]
                    + cur[i * n + j + 1])
                    / 4.0;
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// The five-point kernel over one run of points: `out[j]` becomes the
/// average of `above[j]`, `below[j]`, `cur[j]` (left) and `cur[j + 2]`
/// (right), summed in [`sequential_reference`]'s order — no reassociation,
/// no fused multiply-add; bit-identity is the contract. Every point is
/// independent and the runs are re-sliced to one length, so the loop
/// vectorizes without bounds checks.
fn five_point_row(out: &mut [f32], above: &[f32], below: &[f32], cur: &[f32]) {
    let m = out.len();
    let (above, below, left, right) = (&above[..m], &below[..m], &cur[..m], &cur[2..m + 2]);
    for j in 0..m {
        out[j] = (above[j] + below[j] + left[j] + right[j]) / 4.0;
    }
}

/// One rank's rectangle of the grid — global rows `r0..r1` × columns
/// `c0..c1`, row-major and double-buffered — with the halo runs its four
/// neighbours fill. The 1-D decomposition is the full-width case, whose
/// edge columns are the fixed global boundary and never read a halo.
#[cfg_attr(test, derive(Clone))]
pub(crate) struct Block {
    pub(crate) r0: usize,
    pub(crate) r1: usize,
    pub(crate) c0: usize,
    pub(crate) c1: usize,
    pub(crate) cur: Vec<f32>,
    pub(crate) next: Vec<f32>,
    pub(crate) halo_n: Vec<f32>,
    pub(crate) halo_s: Vec<f32>,
    pub(crate) halo_w: Vec<f32>,
    pub(crate) halo_e: Vec<f32>,
}

impl Block {
    /// Cut rows `r0..r1` × columns `c0..c1` out of the N×N `grid`.
    pub(crate) fn cut(
        grid: &[f32],
        n: usize,
        (r0, r1): (usize, usize),
        (c0, c1): (usize, usize),
    ) -> Block {
        let (h, w) = (r1 - r0, c1 - c0);
        assert!(
            h > 0 && w > 0,
            "stencil ranks must own at least one row and one column"
        );
        let mut cur = Vec::with_capacity(h * w);
        for r in r0..r1 {
            cur.extend_from_slice(&grid[r * n + c0..r * n + c1]);
        }
        Block {
            r0,
            r1,
            c0,
            c1,
            cur,
            next: vec![0.0; h * w],
            halo_n: vec![0.0; w],
            halo_s: vec![0.0; w],
            halo_w: vec![0.0; h],
            halo_e: vec![0.0; h],
        }
    }

    pub(crate) fn width(&self) -> usize {
        self.c1 - self.c0
    }

    /// Make the freshly written `next` the current iteration.
    pub(crate) fn swap(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.next);
    }

    /// Copy the current values back into their place in the N×N `grid`.
    pub(crate) fn paste(&self, grid: &mut [f32], n: usize) {
        for (row, gr) in self.cur.chunks_exact(self.width()).zip(self.r0..) {
            grid[gr * n + self.c0..gr * n + self.c1].copy_from_slice(row);
        }
    }

    /// Update global rows `[lo, hi)` from `cur` + halos into `next`,
    /// returning how many were not fixed global boundary rows.
    pub(crate) fn update_rows(&mut self, n: usize, lo: usize, hi: usize) -> usize {
        let (w, h) = (self.width(), self.r1 - self.r0);
        let mut rows_updated = 0;
        for li in lo - self.r0..hi - self.r0 {
            let gr = self.r0 + li;
            let here = &self.cur[li * w..(li + 1) * w];
            let out = &mut self.next[li * w..(li + 1) * w];
            if gr == 0 || gr == n - 1 {
                out.copy_from_slice(here);
                continue;
            }
            rows_updated += 1;
            // Row above / below, from owned data or the halos.
            let north = if li > 0 {
                &self.cur[(li - 1) * w..li * w]
            } else {
                &self.halo_n[..]
            };
            let south = if li + 1 < h {
                &self.cur[(li + 1) * w..(li + 2) * w]
            } else {
                &self.halo_s[..]
            };
            // The two edge columns are fixed global boundary columns or
            // take their outer neighbour from a halo; the points between
            // them are one branch-free run.
            for lj in [0, w - 1] {
                let gc = self.c0 + lj;
                out[lj] = if gc == 0 || gc == n - 1 {
                    here[lj]
                } else {
                    let west = if lj > 0 {
                        here[lj - 1]
                    } else {
                        self.halo_w[li]
                    };
                    let east = if lj + 1 < w {
                        here[lj + 1]
                    } else {
                        self.halo_e[li]
                    };
                    (north[lj] + south[lj] + west + east) / 4.0
                };
            }
            if w > 2 {
                five_point_row(&mut out[1..w - 1], &north[1..w - 1], &south[1..w - 1], here);
            }
        }
        rows_updated
    }
}

/// The distributed stencil application.
pub struct StencilApp {
    n: usize,
    iters: u64,
    variant: StencilVariant,
    ranks: Vec<Block>,
    p: usize,
    initial: Vec<f32>,
}

impl StencilApp {
    /// An N×N stencil for `iters` iterations over `p` ranks, starting
    /// from [`initial_grid`].
    pub fn new(n: usize, iters: u64, variant: StencilVariant, p: usize) -> StencilApp {
        StencilApp::from_grid(initial_grid(n), n, iters, variant, p)
    }

    /// Like [`StencilApp::new`] but resuming from an existing grid state —
    /// used by the dynamic-rebalancing baseline, which re-partitions the
    /// live grid between chunks of iterations.
    pub fn from_grid(
        grid: Vec<f32>,
        n: usize,
        iters: u64,
        variant: StencilVariant,
        p: usize,
    ) -> StencilApp {
        assert!(n >= 2, "grid too small");
        assert_eq!(grid.len(), n * n);
        StencilApp {
            n,
            iters,
            variant,
            ranks: Vec::with_capacity(p),
            p,
            initial: grid,
        }
    }

    fn neighbors(&self, rank: usize) -> Vec<usize> {
        Topology::OneD
            .neighbors(rank as u32, self.p as u32)
            .into_iter()
            .map(|r| r as usize)
            .collect()
    }

    /// Rebuild from a [`Checkpoint`] recorded at the completion of global
    /// cycle `ckpt.cycle`: reassemble the grid from the per-rank blobs and
    /// run the remaining `total_iters - (ckpt.cycle + 1)` iterations over
    /// `p` ranks. `p` need not match the rank count that recorded the
    /// checkpoint — recovery re-partitions over the survivors.
    pub fn resume(
        ckpt: &Checkpoint,
        n: usize,
        total_iters: u64,
        variant: StencilVariant,
        p: usize,
    ) -> StencilApp {
        let mut grid = vec![0.0f32; n * n];
        for blob in &ckpt.ranks {
            assert!(blob.len() >= 16, "checkpoint blob truncated");
            let (start, end) = (wire::get_index(blob, 0), wire::get_index(blob, 8));
            wire::get_f32s(&blob[16..], &mut grid[start * n..end * n]);
        }
        let done = ckpt.cycle + 1;
        assert!(done <= total_iters, "checkpoint beyond the iteration count");
        StencilApp::from_grid(grid, n, total_iters - done, variant, p)
    }

    /// Reassemble the full grid from all ranks (host-side, after a run).
    pub fn gather(&self) -> Vec<f32> {
        let mut g = vec![0.0f32; self.n * self.n];
        for s in &self.ranks {
            s.paste(&mut g, self.n);
        }
        g
    }
}

impl SpmdApp for StencilApp {
    fn setup(&mut self, rank: usize, vector: &PartitionVector) {
        if rank == 0 {
            self.ranks.clear();
            assert_eq!(vector.num_ranks(), self.p, "vector/rank mismatch");
            assert_eq!(vector.total(), self.n as u64, "PDUs must equal rows");
        }
        // Ranks are set up in rank order, so each block starts where the
        // previous one ended — O(1), where `vector.ranges()` is O(p).
        let gs = self.ranks.last().map_or(0, |s| s.r1);
        let ge = gs + vector.count(rank) as usize;
        self.ranks
            .push(Block::cut(&self.initial, self.n, (gs, ge), (0, self.n)));
    }

    fn num_cycles(&self) -> u64 {
        self.iters
    }

    fn script(&self, rank: usize, _cycle: u64) -> Vec<Step> {
        let nb = self.neighbors(rank);
        if nb.is_empty() {
            return vec![Step::Compute { part: PART_ALL }];
        }
        match self.variant {
            StencilVariant::Sten1 => vec![
                Step::Send { to: nb.clone() },
                Step::Recv { from: nb },
                Step::Compute { part: PART_ALL },
            ],
            StencilVariant::Sten2 => vec![
                Step::Send { to: nb.clone() },
                Step::Compute {
                    part: PART_INTERIOR,
                },
                Step::Recv { from: nb },
                Step::Compute { part: PART_BORDER },
            ],
        }
    }

    fn produce(&mut self, rank: usize, _cycle: u64, to: usize) -> Bytes {
        // Communication complexity 4N: one row of 4-byte points.
        let n = self.n;
        let s = &self.ranks[rank];
        let row = if to < rank {
            &s.cur[0..n] // my top row goes up
        } else {
            &s.cur[s.cur.len() - n..] // my bottom row goes down
        };
        let mut buf = Vec::with_capacity(4 * n);
        wire::put_f32s(&mut buf, row);
        Bytes::from(buf)
    }

    fn consume(&mut self, rank: usize, _cycle: u64, from: usize, payload: &[u8]) {
        // A border row is exactly 4N bytes; the codec refuses anything else.
        let s = &mut self.ranks[rank];
        let target = if from < rank {
            &mut s.halo_n
        } else {
            &mut s.halo_s
        };
        wire::get_f32s(payload, target);
    }

    fn compute(&mut self, rank: usize, _cycle: u64, part: u32) -> (f64, OpKind) {
        let n = self.n;
        let s = &mut self.ranks[rank];
        let (start, end) = (s.r0, s.r1);
        let rows_updated = match part {
            PART_ALL => s.update_rows(n, start, end),
            // Rows not touching a halo (none in a block of one or two
            // rows): safe before borders arrive.
            PART_INTERIOR => s.update_rows(n, start + 1, (end - 1).max(start + 1)),
            PART_BORDER if end - start == 1 => s.update_rows(n, start, end),
            PART_BORDER => s.update_rows(n, start, start + 1) + s.update_rows(n, end - 1, end),
            other => panic!("unknown stencil part {other}"),
        };
        if part != PART_INTERIOR {
            s.swap();
        }
        // The §4 annotation: 5N flops per PDU (row).
        (5.0 * n as f64 * rows_updated as f64, OpKind::Flop)
    }

    fn distribution_bytes(&self, rank: usize) -> u64 {
        // The master ships each rank its block of 4-byte points.
        let s = &self.ranks[rank];
        (s.cur.len() * 4) as u64
    }

    fn checkpoint(&self, rank: usize, _cycle: u64) -> Option<Bytes> {
        // `cur` holds the rank's rows as of the just-completed iteration
        // (both variants swap buffers before the cycle ends). Blob layout:
        // start u64 LE, end u64 LE, then (end-start)*N points, f32 LE.
        let s = &self.ranks[rank];
        let mut buf = Vec::with_capacity(16 + s.cur.len() * 4);
        wire::put_u64s(&mut buf, &[s.r0 as u64, s.r1 as u64]);
        wire::put_f32s(&mut buf, &s.cur);
        Some(Bytes::from(buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sequential_reference_converges_smoothly() {
        let g = sequential_reference(16, 50);
        // Interior values sit between the boundary extremes.
        for i in 1..15 {
            for j in 1..15 {
                let v = g[i * 16 + j];
                assert!((0.0..=100.0).contains(&v), "({i},{j}) = {v}");
            }
        }
        // Iterating longer changes the field (not yet converged at 50).
        let g2 = sequential_reference(16, 51);
        assert_ne!(g, g2);
    }

    #[test]
    fn model_carries_section4_annotations() {
        let m = stencil_model(600, StencilVariant::Sten1);
        assert_eq!(m.num_pdus(), 600);
        assert_eq!(m.dominant_comm().topology, Topology::OneD);
        assert_eq!(m.dominant_comm().bytes(1.0), 2400.0);
        assert_eq!(m.dominant_comp().ops(1.0), 3000.0);
        assert!(!m.dominant_phases_overlap());
        assert!(stencil_model(600, StencilVariant::Sten2).dominant_phases_overlap());
    }

    #[test]
    fn initial_grid_is_deterministic() {
        assert_eq!(initial_grid(32), initial_grid(32));
    }

    #[test]
    fn update_rows_matches_reference_for_single_rank() {
        let n = 12;
        let mut app = StencilApp::new(n, 0, StencilVariant::Sten1, 1);
        app.setup(0, &PartitionVector::equal(n as u64, 1));
        for _ in 0..5 {
            app.compute(0, 0, PART_ALL);
        }
        assert_eq!(app.gather(), sequential_reference(n, 5));
    }

    /// The scalar, branch-per-point loops [`Block::update_rows`] replaced
    /// (the 2-D one; the 1-D one was its full-width case), kept verbatim
    /// as the oracle the slice kernel must match bit for bit.
    fn update_rows_scalar(b: &mut Block, n: usize, lo: usize, hi: usize) -> u64 {
        let (w, h) = (b.width(), b.r1 - b.r0);
        let mut points = 0u64;
        for li in lo - b.r0..hi - b.r0 {
            let gr = b.r0 + li;
            for lj in 0..w {
                let gc = b.c0 + lj;
                if gr == 0 || gr == n - 1 || gc == 0 || gc == n - 1 {
                    b.next[li * w + lj] = b.cur[li * w + lj];
                    continue;
                }
                points += 1;
                let north = if li > 0 {
                    b.cur[(li - 1) * w + lj]
                } else {
                    b.halo_n[lj]
                };
                let south = if li + 1 < h {
                    b.cur[(li + 1) * w + lj]
                } else {
                    b.halo_s[lj]
                };
                let west = if lj > 0 {
                    b.cur[li * w + lj - 1]
                } else {
                    b.halo_w[li]
                };
                let east = if lj + 1 < w {
                    b.cur[li * w + lj + 1]
                } else {
                    b.halo_e[li]
                };
                b.next[li * w + lj] = (north + south + west + east) / 4.0;
            }
        }
        points
    }

    proptest! {
        /// Any rectangle of any grid down to N = 2 — full-width 1-D ranks,
        /// 2-D blocks one point wide or high, one-row blocks fed by both
        /// halos, blocks holding global boundary rows and columns — and
        /// any `[lo, hi)` row window inside it: same bits in `next`,
        /// nothing else touched, same count of updated points.
        #[test]
        fn slice_kernel_matches_scalar_oracle(
            n in 2usize..40,
            geometry in prop::collection::vec(0usize..1000, 6..7),
            full_width in any::<bool>(),
            values in prop::collection::vec(-1.0e6f32..1.0e6, 420..421),
        ) {
            let r0 = geometry[0] % n;
            let r1 = r0 + 1 + geometry[1] % (n - r0).min(4);
            let lo = r0 + geometry[2] % (r1 - r0);
            let hi = lo + geometry[3] % (r1 - lo + 1);
            let c0 = if full_width { 0 } else { geometry[4] % n };
            let c1 = if full_width { n } else { c0 + 1 + geometry[5] % (n - c0) };
            let mut vals = values.into_iter();
            let mut b = Block::cut(&vec![0.0; n * n], n, (r0, r1), (c0, c1));
            for run in [&mut b.cur, &mut b.next, &mut b.halo_n, &mut b.halo_s, &mut b.halo_w, &mut b.halo_e] {
                run.fill_with(|| vals.next().expect("enough values"));
            }
            let mut want = b.clone();
            let want_points = update_rows_scalar(&mut want, n, lo, hi);
            let rows_updated = b.update_rows(n, lo, hi);
            let cols_updated = c1.min(n - 1).saturating_sub(c0.max(1));
            prop_assert_eq!((rows_updated * cols_updated) as u64, want_points);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            prop_assert_eq!(bits(&b.next), bits(&want.next));
            prop_assert_eq!(bits(&b.cur), bits(&want.cur));
        }
    }
}
