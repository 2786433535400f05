//! The workspace-wide error type.
//!
//! Every fallible path in the partition-and-run pipeline — calibration,
//! estimation, partitioning, SPMD execution — reports through this one
//! enum, so library consumers thread a single `Result<_, NetpartError>`
//! from `Scenario` to `Run` instead of catching panics. It is the one
//! name: no crate re-exports it under an alias of its own.
//!
//! True invariants (indexing bugs, impossible states) remain
//! `debug_assert!`s; this type is for conditions a *caller* can cause:
//! empty clusters, zero-size problems, unfit cost models, lossy networks.

/// Any error the netpart workspace can produce on a fallible path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetpartError {
    // ---- SPMD execution -------------------------------------------------
    /// A message exhausted retransmissions; the computation cannot finish.
    MessageLost {
        /// Sending rank.
        from: usize,
        /// Receiving rank.
        to: usize,
    },
    /// A message to a peer exhausted its retransmission budget (or
    /// per-message deadline): the peer is unreachable — crashed, cut off
    /// by a dead router, or drowned in loss. This is the low-level typed
    /// form of failure detection; when the engine is checkpointing it is
    /// upgraded to [`RankFailed`](NetpartError::RankFailed).
    PeerUnreachable {
        /// The rank that could not be reached.
        rank: usize,
        /// Total transmission attempts made (original send + retries).
        attempts: u32,
    },
    /// A send failed fast because the network fabric is partitioned:
    /// every router path between the sender's segment and the peer's is
    /// currently severed by router or link outages. The peer itself may
    /// be alive — recovery should treat this as an *island* event
    /// (replan over the reachable component, re-admit the cut-off ranks
    /// once the fabric heals) rather than a permanent death.
    FabricPartitioned {
        /// The rank on the far side of the partition.
        rank: usize,
    },
    /// A rank stopped responding mid-computation. Carries everything a
    /// recovery layer needs to decide what to do next.
    RankFailed {
        /// The rank whose node is unreachable.
        rank: usize,
        /// The cycle that rank had reached when it went silent.
        cycle: u64,
        /// The last globally consistent checkpoint cycle, if any rank
        /// state was being checkpointed (`None` = restart from scratch).
        checkpoint: Option<u64>,
        /// Transmission attempts made before declaring it dead.
        attempts: u32,
    },
    /// A drift monitor confirmed sustained performance degradation on a
    /// rank: observed phase times exceed the plan's prediction past the
    /// hysteresis window. Not a failure — the computation *could* limp on —
    /// but the engine surfaces it so an adaptive recovery policy can weigh
    /// repartitioning against staying put.
    DriftDegraded {
        /// The degraded rank.
        rank: usize,
        /// The global cycle at which drift was confirmed.
        cycle: u64,
        /// The last globally consistent checkpoint cycle, if any.
        checkpoint: Option<u64>,
        /// Observed/predicted time ratio at confirmation, in permille
        /// (1000 = exactly as predicted, 4000 = 4× slower).
        severity_permille: u32,
    },
    /// The simulation went quiescent with ranks still blocked — a script
    /// bug (e.g. a `Recv` with no matching `Send`).
    Deadlock {
        /// Ranks still blocked, with a description of what they wait on.
        blocked: Vec<(usize, String)>,
    },
    /// The partition vector's rank count does not match the node list.
    RankMismatch {
        /// Ranks in the vector.
        vector: usize,
        /// Nodes provided.
        nodes: usize,
    },
    /// An underlying network error (e.g. no route between task nodes).
    Network(String),

    // ---- Partitioning ---------------------------------------------------
    /// No cluster has an available processor.
    NoProcessorsAvailable,
    /// A given cluster order was not a permutation of cluster indices.
    InvalidOrder,

    // ---- Calibration / cost model --------------------------------------
    /// A calibration sweep or fit could not produce a usable cost model
    /// (ill-posed least-squares system, non-finite constants, a topology
    /// that was never benchmarked).
    Calibration(String),
    /// The cost model has no Eq. 1 fit for a (cluster, topology) pair the
    /// application communicates over.
    MissingFit {
        /// The cluster the model cannot price.
        cluster: usize,
        /// The topology it has no fit for.
        topology: netpart_topology::Topology,
    },

    // ---- Scenario / pipeline -------------------------------------------
    /// The testbed has no clusters or no nodes to run on.
    EmptyTestbed,
    /// The application model decomposes into zero PDUs.
    ZeroPdus,
    /// A processor configuration asks a cluster for more nodes than exist.
    ClusterOvercommitted {
        /// The overcommitted cluster index.
        cluster: usize,
        /// Nodes the cluster has.
        have: u32,
        /// Nodes the configuration requested.
        asked: u32,
    },
    /// A plan's integer partition vector leaves a configured rank with no
    /// PDUs (the real-valued shares rounded one down to zero), so the
    /// block-decomposed applications cannot run it. Surfaced when the
    /// plan is *run*; planning alone still succeeds.
    EmptyRank {
        /// The first rank assigned zero PDUs.
        rank: usize,
    },
    /// A scenario or plan was internally inconsistent (e.g. a pinned
    /// configuration of the wrong length).
    InvalidScenario(String),
    /// The testbed's fabric description failed build-time validation:
    /// a dangling or duplicate router port, a router joining fewer than
    /// two segments, or a partitioned fabric whose populated segments
    /// cannot all reach each other. Surfaced at `Scenario::plan()` time,
    /// before any traffic is silently dropped.
    InvalidFabric(String),

    // ---- Fault injection / recovery -------------------------------------
    /// A fault schedule named a node, router, or segment the network does
    /// not have, or a window with `until < from`. Surfaced at
    /// schedule-build/install time, before any event runs, instead of
    /// silently ignoring the event.
    InvalidFaultPlan(String),
    /// Recovery made no checkpoint progress across repeated failures for
    /// longer than the per-attempt watchdog budget: the recovery path
    /// itself is livelocked (e.g. every replan's redistribution keeps
    /// dying), so the run surfaces a typed error instead of spinning.
    RecoveryStalled {
        /// Failures absorbed during the stalled streak (nested recovery
        /// attempts with no frontier progress).
        attempts: u32,
        /// Simulated milliseconds spent in the streak, rounded.
        stalled_ms: u64,
        /// The watchdog budget that was exceeded, simulated ms, rounded.
        budget_ms: u64,
    },

    // ---- Plan serving ----------------------------------------------------
    /// The plan server's admission queue is full: the request was shed
    /// immediately rather than queued into unbounded latency. Retry later
    /// (ideally with jittered backoff) or raise `queue_depth`.
    ServerOverloaded {
        /// Requests already queued when this one arrived.
        depth: usize,
        /// The configured admission-queue capacity.
        capacity: usize,
    },
    /// The plan server was stopped while this request was still queued.
    ServerStopped,
}

impl std::fmt::Display for NetpartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetpartError::MessageLost { from, to } => {
                write!(
                    f,
                    "message from rank {from} to rank {to} was lost permanently"
                )
            }
            NetpartError::PeerUnreachable { rank, attempts } => {
                write!(f, "rank {rank} is unreachable after {attempts} attempts")
            }
            NetpartError::FabricPartitioned { rank } => {
                write!(
                    f,
                    "fabric is partitioned: rank {rank} is unreachable \
                     (every live router path is down)"
                )
            }
            NetpartError::RankFailed {
                rank,
                cycle,
                checkpoint,
                attempts,
            } => {
                write!(
                    f,
                    "rank {rank} failed at cycle {cycle} ({attempts} attempts; \
                     last consistent checkpoint: "
                )?;
                match checkpoint {
                    Some(c) => write!(f, "cycle {c})"),
                    None => write!(f, "none)"),
                }
            }
            NetpartError::DriftDegraded {
                rank,
                cycle,
                checkpoint,
                severity_permille,
            } => {
                write!(
                    f,
                    "rank {rank} degraded at cycle {cycle} ({}.{:03}x predicted; \
                     last consistent checkpoint: ",
                    severity_permille / 1000,
                    severity_permille % 1000,
                )?;
                match checkpoint {
                    Some(c) => write!(f, "cycle {c})"),
                    None => write!(f, "none)"),
                }
            }
            NetpartError::Deadlock { blocked } => {
                write!(f, "deadlock; blocked ranks: {blocked:?}")
            }
            NetpartError::RankMismatch { vector, nodes } => {
                write!(
                    f,
                    "partition vector has {vector} ranks but {nodes} nodes given"
                )
            }
            NetpartError::Network(e) => write!(f, "network error: {e}"),
            NetpartError::NoProcessorsAvailable => {
                write!(f, "no processors available in any cluster")
            }
            NetpartError::InvalidOrder => write!(f, "cluster order is not a permutation"),
            NetpartError::Calibration(e) => write!(f, "calibration error: {e}"),
            NetpartError::MissingFit { cluster, topology } => write!(
                f,
                "calibration error: cost model has no fit for cluster {cluster} topology {topology}"
            ),
            NetpartError::EmptyTestbed => write!(f, "testbed has no clusters"),
            NetpartError::ZeroPdus => {
                write!(f, "application model decomposes into zero PDUs")
            }
            NetpartError::ClusterOvercommitted {
                cluster,
                have,
                asked,
            } => {
                write!(
                    f,
                    "cluster {cluster} has only {have} nodes, asked for {asked}"
                )
            }
            NetpartError::EmptyRank { rank } => {
                write!(f, "partition vector assigns rank {rank} zero PDUs")
            }
            NetpartError::InvalidScenario(e) => write!(f, "invalid scenario: {e}"),
            NetpartError::InvalidFabric(e) => write!(f, "invalid fabric: {e}"),
            NetpartError::InvalidFaultPlan(e) => write!(f, "invalid fault plan: {e}"),
            NetpartError::RecoveryStalled {
                attempts,
                stalled_ms,
                budget_ms,
            } => {
                write!(
                    f,
                    "recovery stalled: {attempts} nested failures with no checkpoint \
                     progress over {stalled_ms} ms (watchdog budget {budget_ms} ms)"
                )
            }
            NetpartError::ServerOverloaded { depth, capacity } => {
                write!(
                    f,
                    "plan server overloaded: {depth} requests queued against a \
                     capacity of {capacity}; request shed"
                )
            }
            NetpartError::ServerStopped => {
                write!(f, "plan server stopped before the request was served")
            }
        }
    }
}

impl std::error::Error for NetpartError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<(NetpartError, &str)> = vec![
            (
                NetpartError::MessageLost { from: 1, to: 2 },
                "rank 1 to rank 2",
            ),
            (
                NetpartError::PeerUnreachable {
                    rank: 3,
                    attempts: 11,
                },
                "rank 3 is unreachable after 11 attempts",
            ),
            (
                NetpartError::FabricPartitioned { rank: 6 },
                "fabric is partitioned: rank 6 is unreachable",
            ),
            (
                NetpartError::RankFailed {
                    rank: 2,
                    cycle: 17,
                    checkpoint: Some(15),
                    attempts: 11,
                },
                "rank 2 failed at cycle 17",
            ),
            (
                NetpartError::RankFailed {
                    rank: 1,
                    cycle: 0,
                    checkpoint: None,
                    attempts: 4,
                },
                "last consistent checkpoint: none",
            ),
            (
                NetpartError::DriftDegraded {
                    rank: 5,
                    cycle: 9,
                    checkpoint: Some(7),
                    severity_permille: 4250,
                },
                "rank 5 degraded at cycle 9 (4.250x predicted",
            ),
            (
                NetpartError::DriftDegraded {
                    rank: 0,
                    cycle: 2,
                    checkpoint: None,
                    severity_permille: 1500,
                },
                "last consistent checkpoint: none",
            ),
            (
                NetpartError::Deadlock {
                    blocked: vec![(0, "cycle 3".into())],
                },
                "deadlock",
            ),
            (
                NetpartError::RankMismatch {
                    vector: 4,
                    nodes: 3,
                },
                "4 ranks but 3 nodes",
            ),
            (NetpartError::Network("no route".into()), "no route"),
            (NetpartError::NoProcessorsAvailable, "no processors"),
            (NetpartError::InvalidOrder, "not a permutation"),
            (NetpartError::Calibration("singular".into()), "singular"),
            (
                NetpartError::MissingFit {
                    cluster: 3,
                    topology: netpart_topology::Topology::Ring,
                },
                "calibration error: cost model has no fit for cluster 3 topology ring",
            ),
            (NetpartError::EmptyTestbed, "no clusters"),
            (NetpartError::ZeroPdus, "zero PDUs"),
            (
                NetpartError::ClusterOvercommitted {
                    cluster: 0,
                    have: 6,
                    asked: 7,
                },
                "has only 6 nodes",
            ),
            (NetpartError::EmptyRank { rank: 7 }, "rank 7 zero PDUs"),
            (NetpartError::InvalidScenario("bad".into()), "bad"),
            (
                NetpartError::InvalidFabric("fabric is partitioned: no router path".into()),
                "invalid fabric: fabric is partitioned",
            ),
            (
                NetpartError::InvalidFaultPlan("unknown node 99".into()),
                "invalid fault plan: unknown node 99",
            ),
            (
                NetpartError::RecoveryStalled {
                    attempts: 3,
                    stalled_ms: 120,
                    budget_ms: 100,
                },
                "recovery stalled: 3 nested failures",
            ),
            (
                NetpartError::ServerOverloaded {
                    depth: 64,
                    capacity: 64,
                },
                "64 requests queued against a capacity of 64",
            ),
            (
                NetpartError::ServerStopped,
                "stopped before the request was served",
            ),
        ];
        for (e, needle) in cases {
            let s = e.to_string();
            assert!(s.contains(needle), "{s:?} should contain {needle:?}");
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(NetpartError::ZeroPdus);
        assert!(!e.to_string().is_empty());
    }

    /// The server fans one result out to every coalesced duplicate
    /// request across worker threads, so the error type must be shareable
    /// and cloneable. Compile-time assertion — fails to build if a new
    /// variant ever smuggles in an `Rc`, a raw pointer, or a `!Sync`
    /// payload.
    #[test]
    fn error_is_send_sync_clone() {
        fn assert_shareable<T: Send + Sync + Clone + 'static>() {}
        assert_shareable::<NetpartError>();
    }
}
