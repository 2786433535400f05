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
//!
//! Each rank holds its own rows and nothing more: no N×N start grid (setup
//! builds every block from the start rows [`initial_grid`] is made of) and
//! no second buffer. An iteration updates the rows in place through a
//! two-row ring the host thread owns, writing a row back only after the
//! row below has read its old values, so every point is still
//! `(above + below + left + right) / 4` over the previous iteration's
//! operands, in the same order as the double-buffered
//! [`sequential_reference`]. STEN-2's interior pass keeps old copies of
//! its first and last rows for the border pass that follows.
//!
//! Everything else a rank holds is scratch that lives for one iteration:
//! a halo is allocated by the `consume` that decodes its message into it,
//! and kept rows by the interior pass that copies them; the pass that
//! finishes the iteration (STEN-1's and the 2-D whole-block pass,
//! STEN-2's border pass) releases both. Between iterations, and after the
//! run, a rank holds its rows and nothing more. A pass that needs a halo
//! whose message has not arrived panics and names the side.
//!
//! A block of at least `DETACH_MIN_POINTS` points leaves the app for its
//! whole-block and interior passes: [`SpmdApp::compute_detached`] charges
//! the rows the pass will update, counted without doing it, and returns a
//! job that owns the block and runs the pass on a pool worker; the block
//! is back, through [`SpmdApp::reattach`], before the rank's next step.

use std::any::Any;
use std::cell::RefCell;
use std::ops::Range;

use bytes::Bytes;

use netpart_model::{AppModel, CommPhase, CompPhase, OpKind, PartitionVector};
use netpart_spmd::{Checkpoint, Job, SpmdApp, Step};
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
pub(crate) const PART_ALL: u32 = 0;
const PART_INTERIOR: u32 = 1;
const PART_BORDER: u32 = 2;

/// Blocks of fewer points update inline: handing a smaller pass to a pool
/// worker costs more than running it.
const DETACH_MIN_POINTS: usize = 32 * 1024;

thread_local! {
    /// This thread's two-row ring, which every pass it runs borrows: no
    /// app holds one and no job allocates one.
    static RING: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

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

/// Append columns `cols` of row `r` of [`initial_grid`]`(n)` to `out`.
/// This is the one definition of the start state: `initial_grid` is its
/// N rows, and setup builds each rank's block from it directly.
pub(crate) fn start_row(n: usize, r: usize, cols: Range<usize>, out: &mut Vec<f32>) {
    if r == 0 {
        out.extend(cols.map(|c| (c % 7) as f32 * 3.0 + 10.0));
        return;
    }
    let at = out.len();
    let bottom = r == n - 1;
    out.resize(at + cols.len(), if bottom { 50.0 } else { 0.0 });
    if cols.start == 0 {
        out[at] = 100.0; // left wall
    }
    if cols.end == n && !bottom {
        let last = out.len() - 1;
        out[last] = 25.0; // right wall
    }
}

/// The deterministic N×N start grid (N ≥ 2), row-major: a hot left wall,
/// a cold interior with a warm right wall, a top edge whose values cycle
/// with the column, and a bottom edge at 50, all derived from integer
/// arithmetic so every construction is identical. Setup builds each
/// rank's block from the same start rows, so [`StencilApp::new`] and
/// [`Stencil2DApp`](crate::stencil2d::Stencil2DApp) start from exactly
/// this grid without ever materialising it.
pub fn initial_grid(n: usize) -> Vec<f32> {
    assert!(n >= 2, "grid too small");
    let mut g = Vec::with_capacity(n * n);
    for r in 0..n {
        start_row(n, r, 0..n, &mut g);
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
/// `c0..c1`, row-major, updated in place — with the halo runs its four
/// neighbours fill. The 1-D decomposition is the full-width case, whose
/// edge columns are the fixed global boundary and never read a halo.
///
/// A pass writes each new row into a two-row ring and copies it back over
/// the old one only after the row below has read it, so every point is
/// computed from the previous iteration's values exactly as a second full
/// buffer would give them. A thread runs one pass at a time, so its passes
/// share one ring, handed to each pass. STEN-2 splits an iteration in two
/// passes, and the second needs rows the first one has overwritten:
/// [`Block::update_interior`] keeps old copies of them in the block.
///
/// The halos and kept rows are empty except within one iteration: a halo
/// from the [`fill_halo`] that decodes its message to the pass that ends
/// the iteration, kept rows from the interior pass to the border pass.
/// The pass that ends an iteration releases them all, whether it read
/// them or not.
#[cfg_attr(test, derive(Clone))]
pub(crate) struct Block {
    pub(crate) r0: usize,
    pub(crate) r1: usize,
    pub(crate) c0: usize,
    pub(crate) c1: usize,
    pub(crate) cur: Vec<f32>,
    pub(crate) halo_n: Vec<f32>,
    pub(crate) halo_s: Vec<f32>,
    pub(crate) halo_w: Vec<f32>,
    pub(crate) halo_e: Vec<f32>,
    /// The old first and last rows, from STEN-2's interior pass to its
    /// border pass.
    kept: Vec<f32>,
}

impl Block {
    /// Rows `r0..r1` × columns `c0..c1` of the start grid, built from
    /// [`start_row`] without materialising the rest of it.
    pub(crate) fn start(n: usize, rows: (usize, usize), (c0, c1): (usize, usize)) -> Block {
        Block::filled(rows, (c0, c1), |r, cur| start_row(n, r, c0..c1, cur))
    }

    /// Cut rows `r0..r1` × columns `c0..c1` out of the N×N `grid`.
    pub(crate) fn cut(
        grid: &[f32],
        n: usize,
        rows: (usize, usize),
        (c0, c1): (usize, usize),
    ) -> Block {
        Block::filled(rows, (c0, c1), |r, cur| {
            cur.extend_from_slice(&grid[r * n + c0..r * n + c1]);
        })
    }

    /// A block whose rows `push_row(r, cur)` appends one by one.
    fn filled(
        (r0, r1): (usize, usize),
        (c0, c1): (usize, usize),
        mut push_row: impl FnMut(usize, &mut Vec<f32>),
    ) -> Block {
        let (h, w) = (r1 - r0, c1 - c0);
        assert!(
            h > 0 && w > 0,
            "stencil ranks must own at least one row and one column"
        );
        let mut cur = Vec::with_capacity(h * w);
        for r in r0..r1 {
            push_row(r, &mut cur);
        }
        Block {
            r0,
            r1,
            c0,
            c1,
            cur,
            halo_n: Vec::new(),
            halo_s: Vec::new(),
            halo_w: Vec::new(),
            halo_e: Vec::new(),
            kept: Vec::new(),
        }
    }

    pub(crate) fn width(&self) -> usize {
        self.c1 - self.c0
    }

    fn height(&self) -> usize {
        self.r1 - self.r0
    }

    /// Copy the current values back into their place in the N×N `grid`.
    pub(crate) fn paste(&self, grid: &mut [f32], n: usize) {
        for (row, gr) in self.cur.chunks_exact(self.width()).zip(self.r0..) {
            grid[gr * n + self.c0..gr * n + self.c1].copy_from_slice(row);
        }
    }

    /// Compute part `part` through this thread's ring, returning how many
    /// rows were not fixed global boundary rows.
    fn update(&mut self, n: usize, part: u32) -> usize {
        RING.with_borrow_mut(|ring| {
            let need = 2 * self.width();
            if ring.len() < need {
                ring.resize(need, 0.0);
            }
            match part {
                PART_ALL => self.update_all(n, ring),
                PART_INTERIOR => self.update_interior(n, ring),
                PART_BORDER => self.update_border(n, ring),
                other => panic!("unknown stencil part {other}"),
            }
        })
    }

    /// The rows [`Block::update`] of `part` will count, without running
    /// it: rows in its window that are not global rows 0 or N − 1.
    fn rows_to_update(&self, n: usize, part: u32) -> usize {
        let h = self.height();
        let inner = |a: usize, b: usize| {
            (self.r0 + a..self.r0 + b)
                .filter(|&gr| gr != 0 && gr != n - 1)
                .count()
        };
        match part {
            PART_INTERIOR if h < 3 => 0,
            PART_INTERIOR => inner(1, h - 1),
            PART_BORDER if h >= 3 => inner(0, 1) + inner(h - 1, h),
            PART_ALL | PART_BORDER => inner(0, h),
            other => panic!("unknown stencil part {other}"),
        }
    }

    /// One whole iteration in one pass — STEN-1's and the 2-D
    /// decomposition's update — returning how many rows were not fixed
    /// global boundary rows. `ring` holds at least two rows.
    pub(crate) fn update_all(&mut self, n: usize, ring: &mut [f32]) -> usize {
        let rows = self.pass(n, ring, 0, self.height(), false);
        self.release();
        rows
    }

    /// STEN-2's first pass: the rows that touch no halo (none in a block
    /// of one or two rows), safe before the borders arrive. Keeps the old
    /// values of its first and last rows for [`Block::update_border`].
    pub(crate) fn update_interior(&mut self, n: usize, ring: &mut [f32]) -> usize {
        let (w, h) = (self.width(), self.height());
        if h < 3 {
            return 0;
        }
        self.kept = [&self.cur[w..2 * w], &self.cur[(h - 2) * w..(h - 1) * w]].concat();
        self.pass(n, ring, 1, h - 1, false)
    }

    /// STEN-2's second pass, once the halos have arrived: the first and
    /// last rows, reading their inner neighbours from the copies
    /// [`Block::update_interior`] kept. A block of one or two rows had no
    /// interior, so this is its whole iteration.
    pub(crate) fn update_border(&mut self, n: usize, ring: &mut [f32]) -> usize {
        let h = self.height();
        if h < 3 {
            return self.update_all(n, ring);
        }
        assert!(
            !self.kept.is_empty(),
            "block at row {}, column {}: a border pass with no interior pass before it",
            self.r0,
            self.c0
        );
        let rows = self.pass(n, ring, 0, 1, true) + self.pass(n, ring, h - 1, h, true);
        self.release();
        rows
    }

    /// Drop the halos and kept rows: the iteration that needed them is
    /// done.
    fn release(&mut self) {
        for scratch in [
            &mut self.halo_n,
            &mut self.halo_s,
            &mut self.halo_w,
            &mut self.halo_e,
            &mut self.kept,
        ] {
            *scratch = Vec::new();
        }
    }

    /// Update local rows `a..b` in place, returning how many were not
    /// fixed global boundary rows. The old rows just outside the window
    /// come from the halos past the block's edges, and from `cur` inside
    /// it — or, with `kept`, from the interior pass's copies: the row
    /// above the window is the interior's last row, the row below its
    /// first.
    fn pass(&mut self, n: usize, ring: &mut [f32], a: usize, b: usize, kept: bool) -> usize {
        let (w, h) = (self.width(), self.height());
        // `out` takes the row being computed, `pending` the one above it,
        // computed but not yet written back; they trade places per row.
        let (mut out, mut pending) = ring[..2 * w].split_at_mut(w);
        let Block {
            r0,
            c0,
            cur,
            halo_n,
            halo_s,
            halo_w,
            halo_e,
            kept: kept_rows,
            ..
        } = self;
        let mut rows_updated = 0;
        for li in a..b {
            let gr = *r0 + li;
            let here = &cur[li * w..(li + 1) * w];
            if gr == 0 || gr == n - 1 {
                out.copy_from_slice(here);
            } else {
                rows_updated += 1;
                // Row above / below: a halo, a kept copy, or old data
                // still in `cur` (the ring holds back the row above).
                let north = if li == 0 {
                    arrived(halo_n, "north", (*r0, *c0))
                } else if li == a && kept {
                    &kept_rows[w..]
                } else {
                    &cur[(li - 1) * w..li * w]
                };
                let south = if li + 1 == h {
                    arrived(halo_s, "south", (*r0, *c0))
                } else if li + 1 == b && kept {
                    &kept_rows[..w]
                } else {
                    &cur[(li + 1) * w..(li + 2) * w]
                };
                // The two edge columns are fixed global boundary columns
                // or take their outer neighbour from a halo; the points
                // between them are one branch-free run.
                for lj in [0, w - 1] {
                    let gc = *c0 + lj;
                    out[lj] = if gc == 0 || gc == n - 1 {
                        here[lj]
                    } else {
                        let west = if lj > 0 {
                            here[lj - 1]
                        } else {
                            arrived(halo_w, "west", (*r0, *c0))[li]
                        };
                        let east = if lj + 1 < w {
                            here[lj + 1]
                        } else {
                            arrived(halo_e, "east", (*r0, *c0))[li]
                        };
                        (north[lj] + south[lj] + west + east) / 4.0
                    };
                }
                if w > 2 {
                    five_point_row(&mut out[1..w - 1], &north[1..w - 1], &south[1..w - 1], here);
                }
            }
            // Row `li` has read the old row above it: that row's new
            // values can go home.
            if li > a {
                cur[(li - 1) * w..li * w].copy_from_slice(pending);
            }
            std::mem::swap(&mut out, &mut pending);
        }
        if b > a {
            cur[(b - 1) * w..b * w].copy_from_slice(pending);
        }
        rows_updated
    }
}

/// The halo on `side` of the block whose first point is at row `r0`,
/// column `c0`, which a pass is about to read; panics if its message has
/// not arrived.
fn arrived<'h>(halo: &'h [f32], side: &str, (r0, c0): (usize, usize)) -> &'h [f32] {
    assert!(
        !halo.is_empty(),
        "block at row {r0}, column {c0}: the {side} halo has not arrived"
    );
    halo
}

/// Decode a neighbour's border run of `len` points into `halo`, allocated
/// now; the pass that ends the iteration releases it.
pub(crate) fn fill_halo(halo: &mut Vec<f32>, len: usize, payload: &[u8]) {
    *halo = vec![0.0; len];
    wire::get_f32s(payload, halo);
}

/// Every rank's [`Block`], each home in its slot except while a detached
/// pass has it on a pool worker. Reaching for an absent block panics with
/// the rank's name: the engine never touches a rank between its compute
/// start and its completion, so that panic is an engine bug.
pub(crate) struct Blocks(Vec<Option<Block>>);

impl Blocks {
    pub(crate) fn with_capacity(p: usize) -> Blocks {
        Blocks(Vec::with_capacity(p))
    }

    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }

    pub(crate) fn push(&mut self, block: Block) {
        self.0.push(Some(block));
    }

    pub(crate) fn get(&self, rank: usize) -> &Block {
        self.0[rank].as_ref().unwrap_or_else(|| away(rank))
    }

    pub(crate) fn get_mut(&mut self, rank: usize) -> &mut Block {
        self.0[rank].as_mut().unwrap_or_else(|| away(rank))
    }

    /// Every block, in rank order; all must be home.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Block> {
        (0..self.0.len()).map(|rank| self.get(rank))
    }

    /// Compute part `part` of `rank`'s block, returning the rows it
    /// counts. A block of at least [`DETACH_MIN_POINTS`] points leaves in
    /// the returned job, for any part but STEN-2's border pass; the rest
    /// update inline.
    pub(crate) fn detach(&mut self, rank: usize, n: usize, part: u32) -> (usize, Option<Job>) {
        if part == PART_BORDER || self.get(rank).cur.len() < DETACH_MIN_POINTS {
            return (self.get_mut(rank).update(n, part), None);
        }
        let mut block = self.0[rank].take().unwrap_or_else(|| away(rank));
        let rows = block.rows_to_update(n, part);
        let job: Job = Box::new(move || {
            let updated = block.update(n, part);
            debug_assert_eq!(updated, rows, "a detached pass charged other rows");
            Box::new(block)
        });
        (rows, Some(job))
    }

    /// Put back the block `rank`'s job returned.
    pub(crate) fn reattach(&mut self, rank: usize, state: Box<dyn Any + Send>) {
        let block = state
            .downcast::<Block>()
            .expect("a stencil job returns its block");
        let slot = &mut self.0[rank];
        assert!(slot.is_none(), "rank {rank}'s block came back twice");
        *slot = Some(*block);
    }
}

fn away(rank: usize) -> ! {
    panic!("rank {rank}'s block is away on a detached compute")
}

/// [`SpmdApp::compute`] for an app whose arithmetic is its
/// [`SpmdApp::compute_detached`]: any job runs here, inline.
pub(crate) fn compute_inline(
    app: &mut impl SpmdApp,
    rank: usize,
    cycle: u64,
    part: u32,
) -> (f64, OpKind) {
    let (ops, kind, job) = app.compute_detached(rank, cycle, part);
    if let Some(job) = job {
        app.reattach(rank, job());
    }
    (ops, kind)
}

/// The distributed stencil application.
pub struct StencilApp {
    n: usize,
    iters: u64,
    variant: StencilVariant,
    blocks: Blocks,
    p: usize,
    /// The grid [`StencilApp::from_grid`] was handed, held until setup has
    /// cut the last rank's block out of it and emptied then (not set to
    /// `None`, so a second setup fails rather than restart from the start
    /// grid); `None` builds every block from the start rows.
    grid: Option<Vec<f32>>,
}

impl StencilApp {
    /// An N×N stencil for `iters` iterations over `p` ranks, starting
    /// from [`initial_grid`]. Each rank's block is built from the start
    /// rows at setup; the whole grid is never materialised.
    pub fn new(n: usize, iters: u64, variant: StencilVariant, p: usize) -> StencilApp {
        assert!(n >= 2, "grid too small");
        StencilApp {
            n,
            iters,
            variant,
            blocks: Blocks::with_capacity(p),
            p,
            grid: None,
        }
    }

    /// Like [`StencilApp::new`] but resuming from an existing grid state —
    /// used by the dynamic-rebalancing baseline, which re-partitions the
    /// live grid between chunks of iterations. The app keeps `grid` until
    /// setup has cut every rank's block out of it, then releases it, so
    /// such an app is set up (run) once.
    pub fn from_grid(
        grid: Vec<f32>,
        n: usize,
        iters: u64,
        variant: StencilVariant,
        p: usize,
    ) -> StencilApp {
        assert_eq!(grid.len(), n * n);
        StencilApp {
            grid: Some(grid),
            ..StencilApp::new(n, iters, variant, p)
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
        for s in self.blocks.iter() {
            s.paste(&mut g, self.n);
        }
        g
    }
}

impl SpmdApp for StencilApp {
    fn setup(&mut self, rank: usize, vector: &PartitionVector) {
        if rank == 0 {
            self.blocks.clear();
            assert_eq!(vector.num_ranks(), self.p, "vector/rank mismatch");
            assert_eq!(vector.total(), self.n as u64, "PDUs must equal rows");
        }
        // Ranks are set up in rank order, so each block starts where the
        // previous one ended — O(1), where `vector.ranges()` is O(p).
        let gs = rank
            .checked_sub(1)
            .map_or(0, |prev| self.blocks.get(prev).r1);
        let ge = gs + vector.count(rank) as usize;
        let block = match &self.grid {
            None => Block::start(self.n, (gs, ge), (0, self.n)),
            Some(grid) => Block::cut(grid, self.n, (gs, ge), (0, self.n)),
        };
        self.blocks.push(block);
        if rank + 1 == self.p {
            if let Some(grid) = &mut self.grid {
                *grid = Vec::new();
            }
        }
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
        let s = self.blocks.get(rank);
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
        let s = self.blocks.get_mut(rank);
        let halo = if from < rank {
            &mut s.halo_n
        } else {
            &mut s.halo_s
        };
        fill_halo(halo, self.n, payload);
    }

    fn compute(&mut self, rank: usize, cycle: u64, part: u32) -> (f64, OpKind) {
        compute_inline(self, rank, cycle, part)
    }

    fn compute_detached(
        &mut self,
        rank: usize,
        _cycle: u64,
        part: u32,
    ) -> (f64, OpKind, Option<Job>) {
        let (rows, job) = self.blocks.detach(rank, self.n, part);
        // The §4 annotation: 5N flops per PDU (row).
        (5.0 * self.n as f64 * rows as f64, OpKind::Flop, job)
    }

    fn reattach(&mut self, rank: usize, state: Box<dyn Any + Send>) {
        self.blocks.reattach(rank, state);
    }

    fn distribution_bytes(&self, rank: usize) -> u64 {
        // The master ships each rank its block of 4-byte points.
        let s = self.blocks.get(rank);
        (s.cur.len() * 4) as u64
    }

    fn checkpoint(&self, rank: usize, _cycle: u64) -> Option<Bytes> {
        // `cur` holds the rank's rows as of the just-completed iteration
        // (every pass writes in place, and the cycle's last one has run).
        // Blob layout:
        // start u64 LE, end u64 LE, then (end-start)*N points, f32 LE.
        let s = self.blocks.get(rank);
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

    /// The start grid written wall by wall, the later wall winning at
    /// each corner: the oracle the start rows must match.
    fn initial_grid_walls(n: usize) -> Vec<f32> {
        let mut g = vec![0.0f32; n * n];
        for i in 0..n {
            g[i * n] = 100.0; // left wall
            g[i * n + n - 1] = 25.0; // right wall
            g[i] = (i % 7) as f32 * 3.0 + 10.0; // top edge
            g[(n - 1) * n + i] = 50.0; // bottom edge
        }
        g
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn start_rows_equal_initial_grid() {
        for n in 2..=64 {
            let want = initial_grid_walls(n);
            assert_eq!(bits(&initial_grid(n)), bits(&want), "n = {n}");
            // Blocks built from the start rows: the whole grid, an inner
            // rectangle, a one-point corner, a full-width bottom band.
            for (rows, cols) in [
                ((0, n), (0, n)),
                ((n / 3, n - n / 4), (n / 5, n / 2 + 1)),
                ((n - 1, n), (n - 1, n)),
                ((n / 2, n), (0, n)),
            ] {
                let got = Block::start(n, rows, cols);
                let cut = Block::cut(&want, n, rows, cols);
                assert_eq!(
                    bits(&got.cur),
                    bits(&cut.cur),
                    "n = {n}, {rows:?} × {cols:?}"
                );
            }
        }
    }

    impl Block {
        /// Floats the block holds: its rows, halos and kept rows.
        pub(crate) fn floats(&self) -> usize {
            [
                &self.cur,
                &self.halo_n,
                &self.halo_s,
                &self.halo_w,
                &self.halo_e,
                &self.kept,
            ]
            .iter()
            .map(|v| v.capacity())
            .sum()
        }
    }

    /// Deliver every rank's borders to its neighbours, as one cycle's
    /// sends and receives would.
    fn exchange(app: &mut StencilApp) {
        for rank in 0..app.p {
            for to in app.neighbors(rank) {
                let row = app.produce(rank, 0, to);
                app.consume(to, 0, rank, &row);
            }
        }
    }

    /// After setup, and after an iteration of every part, an app holds one
    /// copy of the grid — its ranks' rows — and nothing more: no start
    /// grid, no second buffer, no grid handed to `from_grid` or `resume`
    /// kept past the last rank's setup, and no halo or kept row past the
    /// pass that ends its iteration.
    #[test]
    fn setup_leaves_one_copy_of_the_grid() {
        let (n, p) = (64, 5);
        let vector = PartitionVector::from_counts(vec![20, 1, 2, 30, 11]);
        let mut recorder = StencilApp::new(n, 2, StencilVariant::Sten2, p);
        for rank in 0..p {
            recorder.setup(rank, &vector);
        }
        let ckpt = Checkpoint {
            cycle: 0,
            ranks: (0..p)
                .map(|rank| recorder.checkpoint(rank, 0).expect("a blob"))
                .collect(),
        };
        for (name, mut app) in [
            ("new", StencilApp::new(n, 2, StencilVariant::Sten2, p)),
            (
                "from_grid",
                StencilApp::from_grid(initial_grid(n), n, 2, StencilVariant::Sten1, p),
            ),
            (
                "resume",
                StencilApp::resume(&ckpt, n, 2, StencilVariant::Sten1, p),
            ),
        ] {
            for rank in 0..p {
                app.setup(rank, &vector);
            }
            assert_eq!(app.gather(), initial_grid(n), "{name}");
            let held = |app: &StencilApp| {
                app.blocks.iter().map(Block::floats).sum::<usize>()
                    + app.grid.as_ref().map_or(0, Vec::capacity)
            };
            assert_eq!(held(&app), n * n, "{name}: after setup");
            // STEN-1's iteration, then STEN-2's.
            exchange(&mut app);
            for rank in 0..p {
                app.compute(rank, 0, PART_ALL);
            }
            assert_eq!(held(&app), n * n, "{name}: after the whole-block pass");
            exchange(&mut app);
            for part in [PART_INTERIOR, PART_BORDER] {
                for rank in 0..p {
                    app.compute(rank, 1, part);
                }
            }
            assert_eq!(held(&app), n * n, "{name}: after the border pass");
            assert_eq!(
                bits(&app.gather()),
                bits(&sequential_reference(n, 2)),
                "{name}"
            );
        }
    }

    /// A pass that reaches a halo whose message has not arrived panics and
    /// names the side; so does a border pass with no kept rows.
    #[test]
    fn a_pass_without_its_halo_names_the_side() {
        let n = 12;
        // A 4 × 4 block inside the grid: every side reads its halo.
        let mut whole = Block::start(n, (4, 8), (4, 8));
        for halo in [
            &mut whole.halo_n,
            &mut whole.halo_s,
            &mut whole.halo_w,
            &mut whole.halo_e,
        ] {
            *halo = vec![1.0; 4];
        }
        let refusal = |mut block: Block, border: bool| {
            let caught = std::panic::catch_unwind(move || {
                let mut ring = vec![0.0; 2 * n];
                if border {
                    block.update_border(n, &mut ring)
                } else {
                    block.update_all(n, &mut ring)
                }
            });
            let payload = caught.expect_err("the pass must refuse");
            payload
                .downcast_ref::<String>()
                .cloned()
                .expect("a formatted message")
        };
        for side in ["north", "south", "west", "east"] {
            let mut block = whole.clone();
            match side {
                "north" => block.halo_n.clear(),
                "south" => block.halo_s.clear(),
                "west" => block.halo_w.clear(),
                _ => block.halo_e.clear(),
            }
            let message = refusal(block, false);
            assert!(
                message.contains(&format!("the {side} halo has not arrived")),
                "{side}: {message}"
            );
            assert!(message.contains("row 4, column 4"), "{side}: {message}");
        }
        let message = refusal(whole, true);
        assert!(message.contains("no interior pass"), "{message}");
    }

    /// The scalar, branch-per-point, double-buffered loop the in-place
    /// passes replaced (the 2-D one; the 1-D one was its full-width case),
    /// kept verbatim as the oracle they must match bit for bit: each row
    /// window reads `b.cur` and the halos and writes `next`.
    fn update_rows_scalar(b: &Block, next: &mut [f32], n: usize, lo: usize, hi: usize) -> u64 {
        let (w, h) = (b.width(), b.r1 - b.r0);
        let mut points = 0u64;
        for li in lo - b.r0..hi - b.r0 {
            let gr = b.r0 + li;
            for lj in 0..w {
                let gc = b.c0 + lj;
                if gr == 0 || gr == n - 1 || gc == 0 || gc == n - 1 {
                    next[li * w + lj] = b.cur[li * w + lj];
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
                next[li * w + lj] = (north + south + west + east) / 4.0;
            }
        }
        points
    }

    proptest! {
        /// Any rectangle of any grid down to N = 2 — full-width 1-D ranks,
        /// 2-D blocks fed by all four halos, blocks one or two rows high
        /// or one point wide, blocks holding global boundary rows and
        /// columns — run each way an iteration is run: one pass (STEN-1,
        /// 2-D), STEN-2's interior pass then its border pass (the row
        /// windows the double-buffered STEN-2 used), and one pass over any
        /// `[lo, hi)` row window. The in-place passes leave the bits the
        /// oracle leaves after its swap, and count the same points — the
        /// rows a detached pass charges before it runs; stale ring and
        /// kept rows change nothing.
        #[test]
        fn slice_kernel_matches_scalar_oracle(
            n in 2usize..40,
            geometry in prop::collection::vec(0usize..1000, 6..7),
            full_width in any::<bool>(),
            schedule in 0usize..3,
            values in prop::collection::vec(-1.0e6f32..1.0e6, 560..561),
        ) {
            let r0 = geometry[0] % n;
            let r1 = r0 + 1 + geometry[1] % (n - r0).min(6);
            let lo = r0 + geometry[2] % (r1 - r0);
            let hi = lo + geometry[3] % (r1 - lo + 1);
            let c0 = if full_width { 0 } else { geometry[4] % n };
            // A quarter of the 2-D blocks are one or two points wide.
            let widest = if geometry[5] % 4 == 0 { 2 } else { n };
            let c1 = if full_width { n } else { c0 + 1 + geometry[5] / 4 % widest.min(n - c0) };
            let mut vals = values.into_iter();
            let mut b = Block::cut(&vec![0.0; n * n], n, (r0, r1), (c0, c1));
            let mut ring = vec![0.0; 2 * n];
            // The scratch `fill_halo` and the interior pass would allocate.
            let (w, h) = (c1 - c0, r1 - r0);
            for (halo, len) in [
                (&mut b.halo_n, w), (&mut b.halo_s, w), (&mut b.halo_w, h), (&mut b.halo_e, h),
                (&mut b.kept, 2 * w),
            ] {
                *halo = vec![0.0; len];
            }
            for run in [
                &mut b.cur, &mut b.halo_n, &mut b.halo_s, &mut b.halo_w, &mut b.halo_e,
                &mut b.kept, &mut ring,
            ] {
                run.fill_with(|| vals.next().expect("enough values"));
            }
            let want = b.clone();
            let (rows_updated, windows) = match schedule {
                0 => {
                    let rows = b.update_all(n, &mut ring);
                    prop_assert_eq!(rows, want.rows_to_update(n, PART_ALL));
                    (rows, vec![(r0, r1)])
                }
                1 => {
                    let interior = (r0 + 1, (r1 - 1).max(r0 + 1));
                    let border = if r1 - r0 == 1 {
                        vec![interior, (r0, r1)]
                    } else {
                        vec![interior, (r0, r0 + 1), (r1 - 1, r1)]
                    };
                    let interior_rows = b.update_interior(n, &mut ring);
                    let border_rows = b.update_border(n, &mut ring);
                    prop_assert_eq!(interior_rows, want.rows_to_update(n, PART_INTERIOR));
                    prop_assert_eq!(border_rows, want.rows_to_update(n, PART_BORDER));
                    (interior_rows + border_rows, border)
                }
                _ => (b.pass(n, &mut ring, lo - r0, hi - r0, false), vec![(lo, hi)]),
            };
            if schedule < 2 {
                // The pass that ends the iteration released its scratch.
                prop_assert_eq!(b.floats(), b.cur.capacity());
            }
            let mut next = want.cur.clone();
            let want_points: u64 = windows
                .iter()
                .map(|&(lo, hi)| update_rows_scalar(&want, &mut next, n, lo, hi))
                .sum();
            let cols_updated = c1.min(n - 1).saturating_sub(c0.max(1));
            prop_assert_eq!((rows_updated * cols_updated) as u64, want_points);
            prop_assert_eq!(bits(&b.cur), bits(&next));
        }
    }
}
