//! Per-cycle communication schedules.
//!
//! A [`CycleSchedule`] is the fully-expanded send/receive pattern for one
//! communication cycle: for each rank, the peers it sends to and the peers
//! it expects messages from. The paper's cycles are symmetric (asynchronous
//! sends to all neighbors, then blocking receives from all neighbors), so
//! both lists are the neighbor set; the type exists so the SPMD runtime and
//! the calibration driver share one precomputed structure instead of
//! re-deriving neighbors every cycle.

use crate::topology::{Rank, Topology};

/// The expanded communication pattern of one cycle for `p` tasks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleSchedule {
    topology: Topology,
    /// `sends[rank]` = peers this rank sends one message to per cycle.
    sends: Vec<Vec<Rank>>,
}

impl CycleSchedule {
    /// Expand `topology` for `p` tasks.
    pub fn new(topology: Topology, p: u32) -> CycleSchedule {
        let sends = (0..p).map(|r| topology.neighbors(r, p)).collect();
        CycleSchedule { topology, sends }
    }

    /// The topology this schedule was built from.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Peers `rank` sends to each cycle.
    pub fn sends_of(&self, rank: Rank) -> &[Rank] {
        &self.sends[rank as usize]
    }

    /// Iterate `(sender, receiver)` over all directed messages of a cycle.
    pub fn messages(&self) -> impl Iterator<Item = (Rank, Rank)> + '_ {
        self.sends
            .iter()
            .enumerate()
            .flat_map(|(r, peers)| peers.iter().map(move |&n| (r as Rank, n)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_matches_topology_neighbors() {
        let s = CycleSchedule::new(Topology::OneD, 4);
        assert_eq!(s.sends_of(0), &[1]);
        assert_eq!(s.sends_of(1), &[0, 2]);
        assert_eq!(s.topology(), Topology::OneD);
    }

    #[test]
    fn messages_iterator_is_complete() {
        let s = CycleSchedule::new(Topology::Ring, 3);
        let mut msgs: Vec<_> = s.messages().collect();
        msgs.sort();
        assert_eq!(msgs, vec![(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]);
    }

    #[test]
    fn degenerate_single_task() {
        let s = CycleSchedule::new(Topology::OneD, 1);
        assert!(s.sends_of(0).is_empty());
    }
}
