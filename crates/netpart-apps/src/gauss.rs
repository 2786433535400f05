//! Distributed Gaussian elimination with partial pivoting.
//!
//! §6 of the paper: "We have also had success applying the method to
//! Gaussian elimination with partial pivoting, an application that has
//! *non-uniform* computational and communication complexity." This module
//! is that application: a row-block decomposition (PDU = matrix row)
//! where each elimination step
//!
//! 1. selects the pivot by a **tree reduction** over per-rank candidates
//!    (max `|A[i][k]|` among unprocessed rows), decision broadcast back down
//!    the tree, and
//! 2. the pivot row's owner **broadcasts** the row (columns `k..N` plus
//!    the right-hand side), after which every rank eliminates its own
//!    unprocessed rows.
//!
//! Rows are never physically moved: pivoting is implicit through a pivot
//! sequence, exactly like LAPACK's virtual row exchange. One elimination
//! step occupies two runtime cycles (selection, then broadcast+eliminate)
//! because the broadcast's source — the pivot owner — is only known once
//! selection completes; the runtime regenerates scripts lazily per cycle,
//! which makes this dynamic pattern expressible.
//!
//! Work per step shrinks as elimination proceeds (≈ `2·(N−k)` flops per
//! remaining row) — the non-uniformity the paper highlights. The model
//! annotation uses the per-cycle *average*, which is what a static
//! estimate can know.

use bytes::Bytes;

use netpart_model::{AppModel, CommPhase, CompPhase, OpKind, PartitionVector};
use netpart_spmd::{Checkpoint, SpmdApp, Step};
use netpart_topology::Topology;

use crate::wire;

const PART_FIND: u32 = 0;
const PART_ELIMINATE: u32 = 1;

/// Annotations for the partitioner: PDU = row; dominant communication is
/// the pivot-row broadcast (average `4(N+2)` bytes ≈ half a row of f64s);
/// dominant computation is the elimination update (average `N` flops per
/// remaining row per cycle).
pub fn gauss_model(n: u64) -> AppModel {
    AppModel::new("gaussian elimination", "matrix row", n)
        .with_comp(CompPhase::linear("eliminate", n as f64, OpKind::Flop))
        .with_comm(CommPhase::constant(
            "pivot broadcast",
            Topology::Broadcast,
            4.0 * (n as f64 + 2.0),
        ))
        .with_comm(CommPhase::constant("pivot select", Topology::Tree, 16.0))
}

/// Deterministic, well-conditioned test system: a diagonally dominant
/// matrix with pseudo-random off-diagonal entries and a known solution
/// `x[i] = 1 + i mod 5`, from which `b = A·x` is derived.
pub fn make_system(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let mut a = vec![0.0f64; n * n];
    for i in 0..n {
        let mut row_sum = 0.0;
        for j in 0..n {
            if i != j {
                let v = next();
                a[i * n + j] = v;
                row_sum += v.abs();
            }
        }
        a[i * n + i] = row_sum + 1.0; // strict diagonal dominance
    }
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    let b: Vec<f64> = (0..n)
        .map(|i| (0..n).map(|j| a[i * n + j] * x[j]).sum())
        .collect();
    (a, b, x)
}

/// Sequential reference solver (same pivoting rule), for verification.
pub fn sequential_solve(n: usize, a_in: &[f64], b_in: &[f64]) -> Vec<f64> {
    let mut a = a_in.to_vec();
    let mut b = b_in.to_vec();
    let mut used = vec![false; n];
    let mut pivots = Vec::with_capacity(n);
    for k in 0..n {
        let pivot = (0..n)
            .filter(|&i| !used[i])
            .max_by(|&i, &j| a[i * n + k].abs().total_cmp(&a[j * n + k].abs()))
            .expect("rows remain");
        used[pivot] = true;
        pivots.push(pivot);
        for i in 0..n {
            if used[i] {
                continue;
            }
            let f = a[i * n + k] / a[pivot * n + k];
            for j in k..n {
                a[i * n + j] -= f * a[pivot * n + j];
            }
            b[i] -= f * b[pivot];
        }
    }
    back_substitute(n, &a, &b, &pivots)
}

/// Back substitution given the elimination result and pivot order.
pub fn back_substitute(n: usize, a: &[f64], b: &[f64], pivots: &[usize]) -> Vec<f64> {
    let mut x = vec![0.0f64; n];
    for k in (0..n).rev() {
        let r = pivots[k];
        let mut acc = b[r];
        for j in k + 1..n {
            acc -= a[r * n + j] * x[j];
        }
        x[k] = acc / a[r * n + k];
    }
    x
}

#[cfg_attr(test, derive(Clone))]
struct RankState {
    /// Global indices of owned rows (contiguous block).
    start: usize,
    end: usize,
    /// Owned rows of `A`, row-major, full width.
    a: Vec<f64>,
    /// Owned entries of `b`.
    b: Vec<f64>,
    /// Local pivot candidate for the current step: `(|value|, row)`.
    candidate: (f64, usize),
}

/// The distributed solver.
pub struct GaussApp {
    n: usize,
    p: usize,
    ranks: Vec<RankState>,
    /// Which global rows have served as pivots.
    used: Vec<bool>,
    /// Pivot row chosen at each elimination step (shared decision state —
    /// every rank learns it through the decision broadcast before any
    /// script can depend on it).
    pivots: Vec<usize>,
    /// The current pivot row's data, per rank: columns `k..N` then b.
    pivot_row: Vec<Vec<f64>>,
    /// The system [`GaussApp::new`] was handed, held until setup has cut
    /// the last rank's rows out of it and emptied then (not dropped, so a
    /// second setup fails rather than restart from it).
    a_full: Vec<f64>,
    b_full: Vec<f64>,
    /// Rank 0's gathered view of the eliminated system: empty until the
    /// final gather cycle's first message; rank 0's own block is copied
    /// at solve time.
    gathered_a: Vec<f64>,
    gathered_b: Vec<f64>,
    /// Global cycle that engine-local cycle 0 corresponds to. Zero for a
    /// fresh solve; a resumed app starts at the cycle after its
    /// checkpoint, and every cycle-dependent decision (selection parity,
    /// step index, gather detection) uses the global number.
    base_cycle: u64,
}

impl GaussApp {
    /// Solve the `n×n` system `(a, b)` over `p` ranks.
    pub fn new(n: usize, a: Vec<f64>, b: Vec<f64>, p: usize) -> GaussApp {
        assert_eq!(a.len(), n * n);
        assert_eq!(b.len(), n);
        GaussApp {
            n,
            p,
            ranks: Vec::with_capacity(p),
            used: vec![false; n],
            pivots: Vec::with_capacity(n),
            pivot_row: vec![Vec::new(); p],
            gathered_a: Vec::new(),
            gathered_b: Vec::new(),
            a_full: a,
            b_full: b,
            base_cycle: 0,
        }
    }

    /// Rebuild from a [`Checkpoint`] recorded at the completion of global
    /// cycle `ckpt.cycle`: reassemble the partially eliminated system and
    /// the pivot/used prefix from the per-rank blobs, then continue over
    /// `p` ranks (which need not match the recording run's rank count)
    /// from cycle `ckpt.cycle + 1`.
    pub fn resume(ckpt: &Checkpoint, n: usize, p: usize) -> GaussApp {
        let mut a_full = vec![0.0f64; n * n];
        let mut b_full = vec![0.0f64; n];
        let mut pivots: Vec<usize> = Vec::new();
        for blob in &ckpt.ranks {
            assert!(blob.len() >= 24, "checkpoint blob truncated");
            let (start, end) = (wire::get_index(blob, 0), wire::get_index(blob, 8));
            let np = wire::get_index(blob, 16);
            let blob_pivots: Vec<usize> =
                (0..np).map(|i| wire::get_index(blob, 24 + 8 * i)).collect();
            if pivots.is_empty() {
                pivots = blob_pivots;
            } else {
                debug_assert_eq!(pivots, blob_pivots, "inconsistent pivot prefixes");
            }
            let (a_at, b_at) = (24 + 8 * np, 24 + 8 * np + 8 * (end - start) * n);
            wire::get_f64s(&blob[a_at..b_at], &mut a_full[start * n..end * n]);
            wire::get_f64s(&blob[b_at..], &mut b_full[start..end]);
        }
        let mut app = GaussApp::new(n, a_full, b_full, p);
        // Steps fully eliminated as of cycle C: (C+1)/2 — those pivots'
        // rows are spent. Later pivot decisions (selection done, row not
        // yet eliminated) stay recorded so the elimination cycle's script
        // can name the owner.
        let done = ckpt.cycle.div_ceil(2) as usize;
        for &row in &pivots[..done] {
            app.used[row] = true;
        }
        app.pivots = pivots;
        app.base_cycle = ckpt.cycle + 1;
        assert!(
            app.base_cycle <= 2 * n as u64,
            "checkpoint beyond the elimination cycles"
        );
        app
    }

    fn tree_children(&self, rank: usize) -> Vec<usize> {
        [2 * rank + 1, 2 * rank + 2]
            .into_iter()
            .filter(|&c| c < self.p)
            .collect()
    }

    fn tree_parent(&self, rank: usize) -> Option<usize> {
        (rank > 0).then(|| (rank - 1) / 2)
    }

    /// Owner rank of global row `row`.
    fn owner_of(&self, row: usize) -> usize {
        self.ranks
            .iter()
            .position(|s| (s.start..s.end).contains(&row))
            .expect("row is owned")
    }

    /// Back-substitute on rank 0's gathered copy of the eliminated
    /// system. The gather itself ran as the final distributed cycle (its
    /// network cost is part of the measured run); only rank 0's own block
    /// is filled in locally here.
    pub fn solve(&self) -> Vec<f64> {
        let n = self.n;
        let mut a = self.gathered_a.clone();
        let mut b = self.gathered_b.clone();
        // A one-rank run gathers nothing.
        a.resize(n * n, 0.0);
        b.resize(n, 0.0);
        let s0 = &self.ranks[0];
        a[s0.start * n..s0.end * n].copy_from_slice(&s0.a);
        b[s0.start..s0.end].copy_from_slice(&s0.b);
        back_substitute(n, &a, &b, &self.pivots)
    }

    /// The pivot sequence chosen by the distributed run.
    pub fn pivots(&self) -> &[usize] {
        &self.pivots
    }
}

impl SpmdApp for GaussApp {
    fn setup(&mut self, rank: usize, vector: &PartitionVector) {
        if rank == 0 {
            self.ranks.clear();
            if self.base_cycle == 0 {
                // A resumed app keeps its pivot prefix and used-row set —
                // they *are* the restored elimination progress.
                self.pivots.clear();
                self.used = vec![false; self.n];
            }
            assert_eq!(vector.total(), self.n as u64);
        }
        // Set up in rank order: each block starts where the last ended.
        let gs = self.ranks.last().map_or(0, |s| s.end);
        let ge = gs + vector.count(rank) as usize;
        let n = self.n;
        self.ranks.push(RankState {
            start: gs,
            end: ge,
            a: self.a_full[gs * n..ge * n].to_vec(),
            b: self.b_full[gs..ge].to_vec(),
            candidate: (0.0, usize::MAX),
        });
        if rank + 1 == self.p {
            self.a_full = Vec::new();
            self.b_full = Vec::new();
        }
    }

    fn num_cycles(&self) -> u64 {
        // 2 cycles per elimination step plus one final gather cycle that
        // ships every rank's eliminated rows to rank 0 for back
        // substitution; a resumed app runs only the remaining cycles.
        2 * self.n as u64 + 1 - self.base_cycle
    }

    fn script(&self, rank: usize, cycle: u64) -> Vec<Step> {
        let cycle = self.base_cycle + cycle;
        if cycle == 2 * self.n as u64 {
            // Gather: everyone ships their eliminated block to rank 0.
            if self.p == 1 {
                return Vec::new();
            }
            return if rank == 0 {
                vec![Step::Recv {
                    from: (1..self.p).collect(),
                }]
            } else {
                vec![Step::Send { to: vec![0] }]
            };
        }
        let selection = cycle.is_multiple_of(2);
        if self.p == 1 {
            return if selection {
                vec![Step::Compute { part: PART_FIND }]
            } else {
                vec![Step::Compute {
                    part: PART_ELIMINATE,
                }]
            };
        }
        if selection {
            // Reduce candidates up the tree, broadcast the decision down.
            let children = self.tree_children(rank);
            let parent = self.tree_parent(rank);
            let mut s = vec![Step::Compute { part: PART_FIND }];
            if !children.is_empty() {
                s.push(Step::Recv {
                    from: children.clone(),
                });
            }
            if let Some(par) = parent {
                s.push(Step::Send { to: vec![par] });
                s.push(Step::Recv { from: vec![par] });
            }
            if !children.is_empty() {
                s.push(Step::Send { to: children });
            }
            s
        } else {
            // The decision from cycle `2k` is recorded; the owner
            // broadcasts the pivot row, everyone eliminates.
            let k = (cycle / 2) as usize;
            let owner = self.owner_of(self.pivots[k]);
            if rank == owner {
                let others: Vec<usize> = (0..self.p).filter(|&r| r != rank).collect();
                vec![
                    Step::Send { to: others },
                    Step::Compute {
                        part: PART_ELIMINATE,
                    },
                ]
            } else {
                vec![
                    Step::Recv { from: vec![owner] },
                    Step::Compute {
                        part: PART_ELIMINATE,
                    },
                ]
            }
        }
    }

    fn produce(&mut self, rank: usize, cycle: u64, to: usize) -> Bytes {
        let cycle = self.base_cycle + cycle;
        if cycle == 2 * self.n as u64 {
            debug_assert_eq!(to, 0);
            // Eliminated rows + rhs entries, full width.
            let s = &self.ranks[rank];
            let mut buf = Vec::with_capacity(8 * (s.a.len() + s.b.len()));
            wire::put_f64s(&mut buf, &s.a);
            wire::put_f64s(&mut buf, &s.b);
            return Bytes::from(buf);
        }
        let selection = cycle.is_multiple_of(2);
        if selection {
            if Some(to) == self.tree_parent(rank) {
                // Candidate going up: (|value| bits, row).
                let (v, row) = self.ranks[rank].candidate;
                let mut buf = Vec::with_capacity(16);
                wire::put_f64s(&mut buf, &[v]);
                wire::put_u64s(&mut buf, &[row as u64]);
                Bytes::from(buf)
            } else {
                // Decision going down: the winning row.
                let k = (cycle / 2) as usize;
                let mut buf = Vec::with_capacity(8);
                wire::put_u64s(&mut buf, &[self.pivots[k] as u64]);
                Bytes::from(buf)
            }
        } else {
            // Pivot row broadcast: columns k..N then the rhs entry.
            let k = (cycle / 2) as usize;
            let n = self.n;
            let row = self.pivots[k];
            let s = &self.ranks[rank];
            let li = row - s.start;
            let mut buf = Vec::with_capacity(8 * (n - k + 1));
            wire::put_f64s(&mut buf, &s.a[li * n + k..(li + 1) * n]);
            wire::put_f64s(&mut buf, &[s.b[li]]);
            Bytes::from(buf)
        }
    }

    fn consume(&mut self, rank: usize, cycle: u64, from: usize, payload: &[u8]) {
        let cycle = self.base_cycle + cycle;
        if cycle == 2 * self.n as u64 {
            debug_assert_eq!(rank, 0);
            let n = self.n;
            let (gs, ge) = {
                let s = &self.ranks[from];
                (s.start, s.end)
            };
            let (a_bytes, b_bytes) = payload.split_at(8 * (ge - gs) * n);
            self.gathered_a.resize(n * n, 0.0);
            self.gathered_b.resize(n, 0.0);
            wire::get_f64s(a_bytes, &mut self.gathered_a[gs * n..ge * n]);
            wire::get_f64s(b_bytes, &mut self.gathered_b[gs..ge]);
            return;
        }
        let selection = cycle.is_multiple_of(2);
        let k = (cycle / 2) as usize;
        if selection {
            if self.tree_children(rank).contains(&from) {
                // Child candidate: fold into ours.
                let mut v = [0.0];
                wire::get_f64s(&payload[..8], &mut v);
                let (v, row) = (v[0], wire::get_index(payload, 8));
                let cur = &self.ranks[rank].candidate;
                if row != usize::MAX && (cur.1 == usize::MAX || v > cur.0) {
                    self.ranks[rank].candidate = (v, row);
                }
                // The root records the global winner once all children
                // folded in; it finalizes in `produce`/`script` via the
                // shared decision below (handled by the parent branch for
                // non-roots). Root finalizes when its Recv completes:
                if rank == 0 {
                    // May be called once per child; the last call before
                    // the Send(children) step wins. Record eagerly.
                    self.record_decision(k, self.ranks[0].candidate.1);
                }
            } else {
                // Decision from the parent.
                self.record_decision(k, wire::get_index(payload, 0));
            }
        } else {
            // Pivot row data.
            let _ = from;
            let vals = &mut self.pivot_row[rank];
            vals.resize(payload.len() / 8, 0.0);
            wire::get_f64s(payload, vals);
        }
    }

    fn compute(&mut self, rank: usize, cycle: u64, part: u32) -> (f64, OpKind) {
        let cycle = self.base_cycle + cycle;
        debug_assert!(cycle < 2 * self.n as u64, "gather cycle has no compute");
        let k = (cycle / 2) as usize;
        let n = self.n;
        match part {
            PART_FIND => {
                // Local pivot candidate over unprocessed owned rows.
                let s = &self.ranks[rank];
                let mut best = (0.0f64, usize::MAX);
                let mut scanned = 0u64;
                for gi in s.start..s.end {
                    if self.used[gi] {
                        continue;
                    }
                    scanned += 1;
                    let v = s.a[(gi - s.start) * n + k].abs();
                    if best.1 == usize::MAX || v > best.0 {
                        best = (v, gi);
                    }
                }
                self.ranks[rank].candidate = best;
                if self.p == 1 {
                    self.record_decision(k, best.1);
                }
                (scanned as f64 * 2.0, OpKind::Flop)
            }
            PART_ELIMINATE => {
                let pivot_global = self.pivots[k];
                let owner = self.owner_of(pivot_global);
                // Owner eliminates against its local copy; others use the
                // broadcast buffer.
                let pivot_data: Vec<f64> = if rank == owner {
                    let s = &self.ranks[rank];
                    let li = pivot_global - s.start;
                    let mut v: Vec<f64> = s.a[li * n + k..li * n + n].to_vec();
                    v.push(s.b[li]);
                    v
                } else {
                    std::mem::take(&mut self.pivot_row[rank])
                };
                debug_assert_eq!(pivot_data.len(), n - k + 1);
                let (pivot_a, pivot_b) = pivot_data.split_at(n - k);
                let s = &mut self.ranks[rank];
                let mut flops = 0u64;
                for gi in s.start..s.end {
                    if self.used[gi] || gi == pivot_global {
                        continue;
                    }
                    // One `row[j] -= f * pivot[j]` run over slices, in
                    // column order, multiply then subtract, never fused.
                    let li = gi - s.start;
                    let row = &mut s.a[li * n + k..(li + 1) * n];
                    let f = row[0] / pivot_a[0];
                    for (x, p) in row.iter_mut().zip(pivot_a) {
                        *x -= f * p;
                    }
                    s.b[li] -= f * pivot_b[0];
                    flops += 2 * (n - k + 1) as u64 + 1;
                }
                // Everyone marks the pivot used once this step completes
                // on their side; idempotent across ranks.
                self.used[pivot_global] = true;
                (flops as f64, OpKind::Flop)
            }
            other => panic!("unknown gauss part {other}"),
        }
    }

    fn distribution_bytes(&self, rank: usize) -> u64 {
        let s = &self.ranks[rank];
        ((s.end - s.start) * (self.n + 1) * 8) as u64
    }

    fn checkpoint(&self, rank: usize, cycle: u64) -> Option<Bytes> {
        let cycle = self.base_cycle + cycle;
        if cycle >= 2 * self.n as u64 {
            return None; // gather cycle: the run is effectively over
        }
        // Shared decision state must be captured *as of this cycle*, not
        // as of whatever step the furthest-drifted rank has reached: the
        // pivot list is append/overwrite-by-index, so its cycle-C view is
        // simply the prefix of `cycle/2 + 1` entries (the used-row set is
        // rebuilt from that prefix at resume). Blob layout, all LE:
        // start u64, end u64, pivot count u64, pivots u64 each, owned A
        // rows f64 each (full width), owned b entries f64 each.
        let keep = (cycle / 2 + 1) as usize;
        debug_assert!(self.pivots.len() >= keep, "decision missing at checkpoint");
        let s = &self.ranks[rank];
        let mut buf = Vec::with_capacity(24 + 8 * (keep + s.a.len() + s.b.len()));
        wire::put_u64s(&mut buf, &[s.start as u64, s.end as u64, keep as u64]);
        for &p in &self.pivots[..keep] {
            wire::put_u64s(&mut buf, &[p as u64]);
        }
        wire::put_f64s(&mut buf, &s.a);
        wire::put_f64s(&mut buf, &s.b);
        Some(Bytes::from(buf))
    }
}

impl GaussApp {
    fn record_decision(&mut self, k: usize, row: usize) {
        if self.pivots.len() == k {
            self.pivots.push(row);
        } else if self.pivots.len() > k {
            self.pivots[k] = row;
        } else {
            panic!("decision for step {k} out of order");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The index-per-element `PART_ELIMINATE` loop, kept verbatim as the
    /// oracle its slice-shaped replacement must match bit for bit.
    #[allow(clippy::needless_range_loop)]
    fn eliminate_scalar(
        s: &mut RankState,
        used: &[bool],
        n: usize,
        k: usize,
        pivot_global: usize,
        pivot_data: &[f64],
    ) -> u64 {
        let mut flops = 0u64;
        for gi in s.start..s.end {
            if used[gi] || gi == pivot_global {
                continue;
            }
            let li = gi - s.start;
            let f = s.a[li * n + k] / pivot_data[0];
            for j in k..n {
                s.a[li * n + j] -= f * pivot_data[j - k];
            }
            s.b[li] -= f * pivot_data[n - k];
            flops += 2 * (n - k + 1) as u64 + 1;
        }
        flops
    }

    proptest! {
        /// Two ranks split the rows at a random cut; the pivot row lives
        /// on one of them, so both the owner's local-copy path and the
        /// other's broadcast-buffer path run against the oracle.
        #[test]
        fn slice_eliminate_matches_scalar_oracle(
            n in 2usize..20,
            geometry in (0usize..1000, 0usize..1000, 0usize..1000),
            used in prop::collection::vec(any::<bool>(), 20..21),
            values in prop::collection::vec(-10.0f64..10.0, 420..421),
        ) {
            let (cut, k, pivot_global) = (1 + geometry.0 % (n - 1), geometry.1 % n, geometry.2 % n);
            let (a, b) = values.split_at(n * n);
            let mut app = GaussApp::new(n, a.to_vec(), b[..n].to_vec(), 2);
            app.setup(0, &PartitionVector::from_counts(vec![cut as u64, (n - cut) as u64]));
            app.setup(1, &PartitionVector::from_counts(vec![cut as u64, (n - cut) as u64]));
            app.used = used[..n].to_vec();
            app.used[pivot_global] = false;
            app.pivots = vec![pivot_global; k + 1];
            let pivot_data: Vec<f64> = a[pivot_global * n + k..(pivot_global + 1) * n]
                .iter()
                .chain(&b[pivot_global..pivot_global + 1])
                .copied()
                .collect();
            for rank in 0..2 {
                let mut want = app.ranks[rank].clone();
                let want_flops =
                    eliminate_scalar(&mut want, &app.used, n, k, pivot_global, &pivot_data);
                app.pivot_row[rank] = pivot_data.clone();
                app.used[pivot_global] = false;
                let (got_flops, _) = app.compute(rank, 2 * k as u64 + 1, PART_ELIMINATE);
                prop_assert_eq!(got_flops, want_flops as f64);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
                prop_assert_eq!(bits(&app.ranks[rank].a), bits(&want.a));
                prop_assert_eq!(bits(&app.ranks[rank].b), bits(&want.b));
            }
        }
    }

    /// After setup the app holds the system once — its ranks' rows —
    /// with no copy of what `new` was handed and no gather buffer; a
    /// second setup fails rather than restart from the handed system.
    #[test]
    fn setup_leaves_one_copy_of_the_matrix() {
        let (n, p) = (12, 3);
        let vector = PartitionVector::from_counts(vec![5, 1, 6]);
        let (a, b, _) = make_system(n, 9);
        let mut app = GaussApp::new(n, a.clone(), b.clone(), p);
        for rank in 0..p {
            app.setup(rank, &vector);
        }
        let rows: usize = app.ranks.iter().map(|s| s.a.capacity()).sum();
        let rhs: usize = app.ranks.iter().map(|s| s.b.capacity()).sum();
        assert_eq!((rows, rhs), (n * n, n));
        let rest = [&app.a_full, &app.b_full, &app.gathered_a, &app.gathered_b];
        assert!(rest.iter().all(|v| v.capacity() == 0));
        let stacked: Vec<f64> = app.ranks.iter().flat_map(|s| s.a.clone()).collect();
        assert_eq!(stacked, a);
        let again = std::panic::catch_unwind(move || app.setup(0, &vector));
        assert!(again.is_err(), "a second setup must fail");
    }

    #[test]
    fn sequential_solver_recovers_known_solution() {
        let (a, b, x) = make_system(24, 7);
        let got = sequential_solve(24, &a, &b);
        for (g, e) in got.iter().zip(&x) {
            assert!((g - e).abs() < 1e-9, "{g} vs {e}");
        }
    }

    #[test]
    fn system_is_diagonally_dominant() {
        let (a, _, _) = make_system(16, 3);
        for i in 0..16 {
            let off: f64 = (0..16)
                .filter(|&j| j != i)
                .map(|j| a[i * 16 + j].abs())
                .sum();
            assert!(a[i * 16 + i].abs() > off);
        }
    }

    #[test]
    fn model_uses_broadcast_and_tree() {
        let m = gauss_model(256);
        assert_eq!(m.dominant_comm().topology, Topology::Broadcast);
        assert_eq!(m.num_pdus(), 256);
        assert!(m.dominant_comm().bytes(1.0) > 1000.0);
    }

    #[test]
    fn make_system_is_deterministic() {
        let (a1, b1, _) = make_system(10, 42);
        let (a2, b2, _) = make_system(10, 42);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        let (a3, _, _) = make_system(10, 43);
        assert_ne!(a1, a3);
    }
}
