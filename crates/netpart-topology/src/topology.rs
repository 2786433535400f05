//! The topology catalogue and neighbor relations.

use std::fmt;

/// A task's position in the topology, `0..p`.
pub type Rank = u32;

/// The synchronous communication topologies supported by the partitioning
/// method. The paper's restricted set: 1-D, 2-D, tree, ring, broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// A linear chain: rank `i` exchanges with `i-1` and `i+1`. The
    /// stencil's block-row decomposition uses this.
    OneD,
    /// A ring: like [`Topology::OneD`] but wrapping around.
    Ring,
    /// A 2-D mesh, factored as near-square as possible; rank `i` exchanges
    /// with its north/south/east/west neighbors.
    TwoD,
    /// A binary tree rooted at rank 0: each rank exchanges with its parent
    /// and children (reductions, pivot selection in Gaussian elimination).
    Tree,
    /// Rank 0 sends to every other rank each cycle (pivot-row broadcast in
    /// Gaussian elimination). Inherently bandwidth-limited: all traffic
    /// shares the sender's segments, so extra clusters add no bandwidth.
    Broadcast,
}

/// All topologies, for sweeps.
pub const ALL_TOPOLOGIES: [Topology; 5] = [
    Topology::OneD,
    Topology::Ring,
    Topology::TwoD,
    Topology::Tree,
    Topology::Broadcast,
];

impl Topology {
    /// Factor `p` into (rows, cols) for the 2-D mesh: the most-square
    /// factorization with `rows <= cols`.
    pub fn mesh_dims(p: u32) -> (u32, u32) {
        if p == 0 {
            return (0, 0);
        }
        let mut rows = (p as f64).sqrt() as u32;
        while rows > 1 && !p.is_multiple_of(rows) {
            rows -= 1;
        }
        (rows.max(1), p / rows.max(1))
    }

    /// The set of ranks that `rank` sends to (and receives from) during one
    /// communication cycle of this topology with `p` participants.
    ///
    /// The relation is symmetric for all patterns except it *is* symmetric
    /// here for broadcast too: the paper's cycle has the root sending and
    /// (conceptually) leaves acknowledging; we model each neighbor pair as
    /// one exchange.
    pub fn neighbors(self, rank: Rank, p: u32) -> Vec<Rank> {
        if p <= 1 || rank >= p {
            return Vec::new();
        }
        match self {
            Topology::OneD => {
                let mut v = Vec::with_capacity(2);
                if rank > 0 {
                    v.push(rank - 1);
                }
                if rank + 1 < p {
                    v.push(rank + 1);
                }
                v
            }
            Topology::Ring => {
                if p == 2 {
                    return vec![1 - rank];
                }
                vec![(rank + p - 1) % p, (rank + 1) % p]
            }
            Topology::TwoD => {
                let (rows, cols) = Topology::mesh_dims(p);
                let (r, c) = (rank / cols, rank % cols);
                let mut v = Vec::with_capacity(4);
                if r > 0 {
                    v.push(rank - cols);
                }
                if r + 1 < rows {
                    v.push(rank + cols);
                }
                if c > 0 {
                    v.push(rank - 1);
                }
                if c + 1 < cols {
                    v.push(rank + 1);
                }
                v
            }
            Topology::Tree => {
                let mut v = Vec::with_capacity(3);
                if rank > 0 {
                    v.push((rank - 1) / 2);
                }
                let left = 2 * rank + 1;
                let right = 2 * rank + 2;
                if left < p {
                    v.push(left);
                }
                if right < p {
                    v.push(right);
                }
                v
            }
            Topology::Broadcast => {
                if rank == 0 {
                    (1..p).collect()
                } else {
                    vec![0]
                }
            }
        }
    }

    /// Bandwidth-limited topologies cannot exploit the private bandwidth of
    /// additional segments: in a broadcast every byte traverses the root's
    /// segment (and every router on the way), so "the available bandwidth
    /// is linear in the *total* number of processors" (paper §3). For such
    /// topologies Eq. 2's max-over-clusters is replaced by a total-p cost.
    pub fn is_bandwidth_limited(self) -> bool {
        matches!(self, Topology::Broadcast | Topology::Tree)
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Topology::OneD => "1-D",
            Topology::Ring => "ring",
            Topology::TwoD => "2-D",
            Topology::Tree => "tree",
            Topology::Broadcast => "broadcast",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_d_chain_neighbors() {
        assert_eq!(Topology::OneD.neighbors(0, 4), vec![1]);
        assert_eq!(Topology::OneD.neighbors(1, 4), vec![0, 2]);
        assert_eq!(Topology::OneD.neighbors(3, 4), vec![2]);
        assert!(Topology::OneD.neighbors(0, 1).is_empty());
    }

    #[test]
    fn ring_wraps() {
        assert_eq!(Topology::Ring.neighbors(0, 4), vec![3, 1]);
        assert_eq!(Topology::Ring.neighbors(3, 4), vec![2, 0]);
        // p=2: single neighbor, not duplicated.
        assert_eq!(Topology::Ring.neighbors(0, 2), vec![1]);
    }

    #[test]
    fn mesh_dims_are_near_square() {
        assert_eq!(Topology::mesh_dims(12), (3, 4));
        assert_eq!(Topology::mesh_dims(16), (4, 4));
        assert_eq!(Topology::mesh_dims(7), (1, 7)); // prime
        assert_eq!(Topology::mesh_dims(1), (1, 1));
        assert_eq!(Topology::mesh_dims(0), (0, 0));
    }

    #[test]
    fn two_d_interior_has_four_neighbors() {
        // 3x4 mesh, rank 5 = (1,1): neighbors 1, 9, 4, 6.
        let mut n = Topology::TwoD.neighbors(5, 12);
        n.sort();
        assert_eq!(n, vec![1, 4, 6, 9]);
    }

    #[test]
    fn tree_parent_child() {
        assert_eq!(Topology::Tree.neighbors(0, 7), vec![1, 2]);
        assert_eq!(Topology::Tree.neighbors(1, 7), vec![0, 3, 4]);
        assert_eq!(Topology::Tree.neighbors(6, 7), vec![2]);
    }

    #[test]
    fn broadcast_star() {
        assert_eq!(Topology::Broadcast.neighbors(0, 5), vec![1, 2, 3, 4]);
        assert_eq!(Topology::Broadcast.neighbors(3, 5), vec![0]);
        assert!(Topology::Broadcast.is_bandwidth_limited());
        assert!(!Topology::OneD.is_bandwidth_limited());
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        for topo in ALL_TOPOLOGIES {
            for p in 2..=16u32 {
                for r in 0..p {
                    for n in topo.neighbors(r, p) {
                        assert!(
                            topo.neighbors(n, p).contains(&r),
                            "{topo} p={p}: {r}→{n} not symmetric"
                        );
                    }
                }
            }
        }
    }
}
