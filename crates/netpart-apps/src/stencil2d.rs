//! Five-point stencil with a **2-D block decomposition**.
//!
//! The paper's topology set includes 2-D meshes (§3/§4) but its stencil
//! evaluation uses only the 1-D block-row decomposition. This module
//! supplies the 2-D counterpart so the classic decomposition trade-off is
//! measurable on the same substrate: a 1-D task ships `2·4N` border bytes
//! per cycle regardless of `p`, while a 2-D task ships
//! `2·4·(N/rows) + 2·4·(N/cols)` — less data for `p ≥ 4`, paid for with
//! four smaller messages (more per-message latency) instead of two.
//!
//! One modelling finding falls out: the §4 annotation callbacks receive
//! only the task's PDU count `a_i`, but a 2-D block's message sizes are
//! functions of the *mesh factorization of p* — information the paper's
//! annotation interface cannot express. [`stencil2d_model`] therefore
//! takes `p` explicitly and is per-configuration, which is exactly how the
//! ablation uses it (and a documented limitation of the paper's model).
//!
//! The decomposition requires a homogeneous processor set (equal blocks);
//! the heterogeneous case would need non-uniform mesh cuts that the
//! partition vector cannot describe. The 1-D/2-D ablation uses this to
//! show where each decomposition wins.

use std::any::Any;

use bytes::Bytes;

use netpart_model::{AppModel, CommPhase, CompPhase, OpKind, PartitionVector};
use netpart_spmd::{Job, SpmdApp, Step};
use netpart_topology::Topology;

use crate::stencil::{compute_inline, fill_halo, Block, Blocks, PART_ALL};
use crate::wire;

/// §4-style annotations for the 2-D decomposition at a *given* processor
/// count (the mesh factorization fixes the message sizes).
pub fn stencil2d_model(n: u64, p: u32) -> AppModel {
    let (rows, cols) = Topology::mesh_dims(p);
    let block_h = (n as f64 / rows.max(1) as f64).ceil();
    let block_w = (n as f64 / cols.max(1) as f64).ceil();
    // Bytes per message: the larger of the two border kinds (the cost
    // functions take one b; synchronous cycles are set by the worst).
    let bytes = 4.0 * block_h.max(block_w);
    AppModel::new("five-point stencil (2-D blocks)", "grid row", n)
        .with_comp(CompPhase::linear(
            "grid update",
            5.0 * n as f64,
            OpKind::Flop,
        ))
        .with_comm(CommPhase::constant(
            "border exchange",
            Topology::TwoD,
            bytes,
        ))
}

/// Span `i` of `n` split into `parts` contiguous spans, remainder to the
/// front.
fn span(n: usize, parts: usize, i: usize) -> (usize, usize) {
    let (base, extra) = (n / parts, n % parts);
    let start = i * base + i.min(extra);
    (start, start + base + usize::from(i < extra))
}

/// The 2-D block-decomposed stencil application.
pub struct Stencil2DApp {
    n: usize,
    iters: u64,
    p: usize,
    mesh: (u32, u32),
    blocks: Blocks,
}

impl Stencil2DApp {
    /// An N×N stencil over `p` tasks arranged in the near-square mesh
    /// `Topology::mesh_dims(p)`, starting from
    /// [`initial_grid`](crate::stencil::initial_grid): each task's block is
    /// built from the start rows at setup, never cut from a whole grid.
    pub fn new(n: usize, iters: u64, p: usize) -> Stencil2DApp {
        assert!(n >= 2);
        assert!(p >= 1);
        Stencil2DApp {
            n,
            iters,
            p,
            mesh: Topology::mesh_dims(p as u32),
            blocks: Blocks::with_capacity(p),
        }
    }

    fn mesh_pos(&self, rank: usize) -> (usize, usize) {
        let cols = self.mesh.1 as usize;
        (rank / cols, rank % cols)
    }

    fn neighbors(&self, rank: usize) -> Vec<usize> {
        Topology::TwoD
            .neighbors(rank as u32, self.p as u32)
            .into_iter()
            .map(|r| r as usize)
            .collect()
    }

    /// Reassemble the full grid.
    pub fn gather(&self) -> Vec<f32> {
        let mut g = vec![0.0f32; self.n * self.n];
        for b in self.blocks.iter() {
            b.paste(&mut g, self.n);
        }
        g
    }
}

impl SpmdApp for Stencil2DApp {
    fn setup(&mut self, rank: usize, vector: &PartitionVector) {
        if rank == 0 {
            self.blocks.clear();
            // 2-D blocks need equal assignments: verify the vector is the
            // equal split (heterogeneous 2-D cuts are out of model scope).
            let counts = vector.counts();
            let max = counts.iter().max().copied().unwrap_or(0);
            let min = counts.iter().min().copied().unwrap_or(0);
            assert!(
                max - min <= 1,
                "2-D decomposition requires an (almost) equal partition vector, got {counts:?}"
            );
        }
        let (rows, cols) = (self.mesh.0 as usize, self.mesh.1 as usize);
        let (mr, mc) = self.mesh_pos(rank);
        let (rspan, cspan) = (span(self.n, rows, mr), span(self.n, cols, mc));
        self.blocks.push(Block::start(self.n, rspan, cspan));
    }

    fn num_cycles(&self) -> u64 {
        self.iters
    }

    fn script(&self, rank: usize, _cycle: u64) -> Vec<Step> {
        let nb = self.neighbors(rank);
        if nb.is_empty() {
            return vec![Step::Compute { part: 0 }];
        }
        vec![
            Step::Send { to: nb.clone() },
            Step::Recv { from: nb },
            Step::Compute { part: 0 },
        ]
    }

    fn produce(&mut self, rank: usize, _cycle: u64, to: usize) -> Bytes {
        let (mr, mc) = self.mesh_pos(rank);
        let (tr, tc) = self.mesh_pos(to);
        let b = self.blocks.get(rank);
        let (w, h) = (b.width(), b.r1 - b.r0);
        // Sized exactly: the `Bytes` keeps the allocation as it is.
        let mut buf = Vec::with_capacity(4 * if tr != mr { w } else { h });
        if tr != mr {
            let first = if tr < mr { 0 } else { (h - 1) * w };
            wire::put_f32s(&mut buf, &b.cur[first..first + w]); // my north or south row
        } else {
            let c = if tc < mc { 0 } else { w - 1 };
            wire::put_f32s(&mut buf, b.cur[c..].iter().step_by(w)); // my west or east column
        }
        Bytes::from(buf)
    }

    fn consume(&mut self, rank: usize, _cycle: u64, from: usize, payload: &[u8]) {
        let (mr, mc) = self.mesh_pos(rank);
        let (fr, fc) = self.mesh_pos(from);
        let b = self.blocks.get_mut(rank);
        let (w, h) = (b.width(), b.r1 - b.r0);
        let (halo, len) = if fr < mr {
            (&mut b.halo_n, w)
        } else if fr > mr {
            (&mut b.halo_s, w)
        } else if fc < mc {
            (&mut b.halo_w, h)
        } else {
            (&mut b.halo_e, h)
        };
        fill_halo(halo, len, payload);
    }

    fn compute(&mut self, rank: usize, cycle: u64, part: u32) -> (f64, OpKind) {
        compute_inline(self, rank, cycle, part)
    }

    fn compute_detached(
        &mut self,
        rank: usize,
        _cycle: u64,
        _part: u32,
    ) -> (f64, OpKind, Option<Job>) {
        // 5 flops per updated point: the block's columns minus any fixed
        // global boundary column it holds, read before the block leaves.
        let (n, b) = (self.n, self.blocks.get(rank));
        let cols_updated = b.c1.min(n - 1).saturating_sub(b.c0.max(1));
        let (rows, job) = self.blocks.detach(rank, n, PART_ALL);
        (5.0 * (rows * cols_updated) as f64, OpKind::Flop, job)
    }

    fn reattach(&mut self, rank: usize, state: Box<dyn Any + Send>) {
        self.blocks.reattach(rank, state);
    }

    fn distribution_bytes(&self, rank: usize) -> u64 {
        let b = self.blocks.get(rank);
        (b.cur.len() * 4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::sequential_reference;

    #[test]
    fn spans_tile_exactly() {
        let spans = |n, parts| (0..parts).map(|i| span(n, parts, i)).collect::<Vec<_>>();
        assert_eq!(spans(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(
            spans(6, 6),
            vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
        );
        assert_eq!(spans(5, 1), vec![(0, 5)]);
    }

    #[test]
    fn single_rank_matches_reference() {
        let n = 10;
        let mut app = Stencil2DApp::new(n, 0, 1);
        app.setup(0, &PartitionVector::equal(n as u64, 1));
        for _ in 0..4 {
            app.compute(0, 0, 0);
        }
        assert_eq!(app.gather(), sequential_reference(n, 4));
    }

    /// After setup, and after an iteration, the mesh holds one copy of
    /// the grid — its blocks — and nothing more: no start grid, and no
    /// halo past the pass that ends its iteration.
    #[test]
    fn setup_leaves_one_copy_of_the_grid() {
        let (n, p) = (30, 6);
        let mut app = Stencil2DApp::new(n, 2, p);
        for rank in 0..p {
            app.setup(rank, &PartitionVector::equal(n as u64, p));
        }
        let held = |app: &Stencil2DApp| app.blocks.iter().map(Block::floats).sum::<usize>();
        assert_eq!(held(&app), n * n, "after setup");
        assert_eq!(app.gather(), crate::stencil::initial_grid(n));
        // One cycle's sends and receives, then every block's pass.
        for rank in 0..p {
            for to in app.neighbors(rank) {
                let border = app.produce(rank, 0, to);
                app.consume(to, 0, rank, &border);
            }
        }
        for rank in 0..p {
            app.compute(rank, 0, PART_ALL);
        }
        assert_eq!(held(&app), n * n, "after an iteration");
        assert_eq!(app.gather(), sequential_reference(n, 1));
    }

    #[test]
    fn model_reflects_mesh_factorization() {
        // p=6 → 2×3 mesh of a 600 grid → blocks 300×200; worst border is
        // the 300-row column → 1200 bytes.
        let m = stencil2d_model(600, 6);
        assert_eq!(m.dominant_comm().topology, Topology::TwoD);
        assert_eq!(m.dominant_comm().bytes(1.0), 1200.0);
    }

    #[test]
    #[should_panic(expected = "equal partition vector")]
    fn unequal_vector_is_rejected() {
        let mut app = Stencil2DApp::new(12, 1, 2);
        app.setup(0, &PartitionVector::from_counts(vec![10, 2]));
    }
}
