//! A 1-D particle simulation with an *irregular* data domain.
//!
//! The paper stresses that the PDU "is more general [than the virtual
//! processor] since the PDU may arise from unstructured data domains" and
//! names "a collection of particles in a particle simulation" as an
//! example. This application exercises that: the unit interval is split
//! into cells (PDU = cell), each holding a varying number of particles;
//! ranks own contiguous cell blocks, advance their particles, and ship
//! emigrants to ring neighbors each cycle. Message sizes vary cycle to
//! cycle — the irregular case static annotations can only describe on
//! average.

use bytes::Bytes;

use netpart_model::{AppModel, CommPhase, CompPhase, OpKind, PartitionVector};
use netpart_spmd::{SpmdApp, Step};
use netpart_topology::Topology;

use crate::wire;

/// Flops charged per particle per cycle (force + integration).
const OPS_PER_PARTICLE: f64 = 10.0;

/// One particle: position in `[0, 1)` and signed velocity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    /// Position in the unit interval.
    pub x: f64,
    /// Velocity (units per cycle).
    pub v: f64,
}

/// Annotations: PDU = cell; compute scales with mean occupancy; the ring
/// exchange ships the expected emigrant volume.
pub fn particle_model(cells: u64, mean_occupancy: f64, emigration_rate: f64) -> AppModel {
    AppModel::new("particle simulation", "cell", cells)
        .with_comp(CompPhase::linear(
            "advance",
            OPS_PER_PARTICLE * mean_occupancy,
            OpKind::Flop,
        ))
        .with_comm(CommPhase::with_bytes("migrate", Topology::Ring, move |a| {
            // Emigrants leave through the two block faces; volume scales
            // with boundary-cell occupancy, independent of block depth,
            // but at least one particle record per face is provisioned.
            let _ = a;
            (mean_occupancy * emigration_rate * 16.0).max(16.0)
        }))
}

/// Deterministic initial particle soup: `mean_occupancy` particles per
/// cell on average, clustered toward the domain's center so occupancy is
/// genuinely non-uniform.
pub fn seed_particles(cells: usize, mean_occupancy: f64, seed: u64) -> Vec<Vec<Particle>> {
    let mut state = seed.wrapping_mul(0xD129_0D3A_96C2_5D4B).wrapping_add(7);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let total = (cells as f64 * mean_occupancy) as usize;
    let mut soup = vec![Vec::new(); cells];
    for _ in 0..total {
        // Triangular density peaking mid-domain.
        let x = (next() + next()) / 2.0;
        let v = (next() - 0.5) / cells as f64; // < one cell per cycle
        let cell = ((x * cells as f64) as usize).min(cells - 1);
        soup[cell].push(Particle { x, v });
    }
    soup
}

struct RankState {
    /// Owned cell range.
    start: usize,
    end: usize,
    /// Particles per owned cell (local index).
    cells: Vec<Vec<Particle>>,
    /// Emigrants awaiting shipment, keyed by destination rank.
    outbox_left: Vec<Particle>,
    outbox_right: Vec<Particle>,
}

/// The distributed particle simulation.
pub struct ParticleApp {
    num_cells: usize,
    cycles: u64,
    p: usize,
    ranks: Vec<RankState>,
    initial: Vec<Vec<Particle>>,
}

impl ParticleApp {
    /// Simulate `cycles` steps of the given initial soup over `p` ranks.
    pub fn new(initial: Vec<Vec<Particle>>, cycles: u64, p: usize) -> ParticleApp {
        ParticleApp {
            num_cells: initial.len(),
            cycles,
            p,
            ranks: Vec::with_capacity(p),
            initial,
        }
    }

    fn ring_neighbors(&self, rank: usize) -> Vec<usize> {
        Topology::Ring
            .neighbors(rank as u32, self.p as u32)
            .into_iter()
            .map(|r| r as usize)
            .collect()
    }

    /// Total particles currently held across all ranks.
    pub fn total_particles(&self) -> usize {
        self.ranks
            .iter()
            .map(|s| s.cells.iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Verify every particle sits in a cell its owner actually owns.
    pub fn ownership_consistent(&self) -> bool {
        self.ranks.iter().all(|s| {
            s.cells.iter().enumerate().all(|(li, ps)| {
                let cell = s.start + li;
                ps.iter().all(|p| {
                    let c = ((p.x * self.num_cells as f64) as usize).min(self.num_cells - 1);
                    c == cell
                })
            })
        })
    }

    fn encode(ps: &[Particle]) -> Bytes {
        let mut buf = Vec::with_capacity(16 * ps.len());
        for p in ps {
            wire::put_f64s(&mut buf, &[p.x, p.v]);
        }
        Bytes::from(buf)
    }

    fn decode(payload: &[u8]) -> Vec<Particle> {
        payload
            .chunks_exact(16)
            .map(|c| {
                let mut xv = [0.0; 2];
                wire::get_f64s(c, &mut xv);
                Particle { x: xv[0], v: xv[1] }
            })
            .collect()
    }

    fn place(&mut self, rank: usize, p: Particle) {
        let cell = ((p.x * self.num_cells as f64) as usize).min(self.num_cells - 1);
        let s = &mut self.ranks[rank];
        assert!(
            (s.start..s.end).contains(&cell),
            "particle at {} (cell {cell}) landed outside rank {rank}'s range {}..{}",
            p.x,
            s.start,
            s.end
        );
        s.cells[cell - s.start].push(p);
    }
}

impl SpmdApp for ParticleApp {
    fn setup(&mut self, rank: usize, vector: &PartitionVector) {
        if rank == 0 {
            self.ranks.clear();
            assert_eq!(vector.total(), self.num_cells as u64);
        }
        // Set up in rank order: each block starts where the last ended.
        let gs = self.ranks.last().map_or(0, |s| s.end);
        let ge = gs + vector.count(rank) as usize;
        assert!(
            ge > gs,
            "every rank must own at least one cell (emigrants travel one block)"
        );
        self.ranks.push(RankState {
            start: gs,
            end: ge,
            cells: self.initial[gs..ge].to_vec(),
            outbox_left: Vec::new(),
            outbox_right: Vec::new(),
        });
    }

    fn num_cycles(&self) -> u64 {
        self.cycles
    }

    fn script(&self, rank: usize, _cycle: u64) -> Vec<Step> {
        let nb = self.ring_neighbors(rank);
        if nb.is_empty() {
            return vec![Step::Compute { part: 0 }];
        }
        // Advance (fills outboxes), ship emigrants, absorb immigrants.
        vec![
            Step::Compute { part: 0 },
            Step::Send { to: nb.clone() },
            Step::Recv { from: nb },
        ]
    }

    fn produce(&mut self, rank: usize, _cycle: u64, to: usize) -> Bytes {
        // Ring direction: `to` is the left neighbor iff it precedes us
        // cyclically. With p=2 one peer receives both outboxes.
        let left = (rank + self.p - 1) % self.p;
        let right = (rank + 1) % self.p;
        let s = &mut self.ranks[rank];
        if self.p == 2 {
            let mut both = std::mem::take(&mut s.outbox_left);
            both.append(&mut s.outbox_right);
            return Self::encode(&both);
        }
        if to == left {
            Self::encode(&std::mem::take(&mut s.outbox_left))
        } else {
            debug_assert_eq!(to, right);
            Self::encode(&std::mem::take(&mut s.outbox_right))
        }
    }

    fn consume(&mut self, rank: usize, _cycle: u64, _from: usize, payload: &[u8]) {
        for p in Self::decode(payload) {
            self.place(rank, p);
        }
    }

    fn compute(&mut self, rank: usize, _cycle: u64, _part: u32) -> (f64, OpKind) {
        // Velocities are bounded below one cell width (see
        // [`seed_particles`]), so after one step a particle is either
        // still in this rank's block or exactly one cell beyond its edge
        // (with ring wrap-around at the domain ends).
        let c = self.num_cells;
        let s = &mut self.ranks[rank];
        let (start, end) = (s.start, s.end);
        let left_cell = (start + c - 1) % c;
        let right_cell = end % c;
        let all: Vec<Particle> = s.cells.iter_mut().flat_map(|v| v.drain(..)).collect();
        let count = all.len();
        for mut p in all {
            p.x = (p.x + p.v).rem_euclid(1.0);
            let ncell = ((p.x * c as f64) as usize).min(c - 1);
            if (start..end).contains(&ncell) {
                s.cells[ncell - start].push(p);
            } else if ncell == left_cell {
                s.outbox_left.push(p);
            } else if ncell == right_cell {
                s.outbox_right.push(p);
            } else {
                panic!(
                    "particle at {} (cell {ncell}) moved more than one cell past {start}..{end}",
                    p.x
                );
            }
        }
        (count as f64 * OPS_PER_PARTICLE, OpKind::Flop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic_and_centered() {
        let a = seed_particles(40, 8.0, 5);
        let b = seed_particles(40, 8.0, 5);
        assert_eq!(
            a.iter().map(Vec::len).collect::<Vec<_>>(),
            b.iter().map(Vec::len).collect::<Vec<_>>()
        );
        let total: usize = a.iter().map(Vec::len).sum();
        assert_eq!(total, 320);
        // Center quartile denser than the edges (triangular density).
        let edge: usize = a[..10].iter().map(Vec::len).sum();
        let center: usize = a[15..25].iter().map(Vec::len).sum();
        assert!(center > edge, "center {center} vs edge {edge}");
    }

    #[test]
    fn model_is_ring_and_irregular() {
        let m = particle_model(64, 8.0, 0.1);
        assert_eq!(m.dominant_comm().topology, Topology::Ring);
        assert_eq!(m.num_pdus(), 64);
        assert!(m.dominant_comp().ops(10.0) > 0.0);
    }

    #[test]
    fn encode_decode_round_trip() {
        let ps = vec![
            Particle { x: 0.25, v: 0.001 },
            Particle { x: 0.9, v: -0.02 },
        ];
        let decoded = ParticleApp::decode(&ParticleApp::encode(&ps));
        assert_eq!(decoded, ps);
    }
}
