//! Identifier newtypes for the entities of the simulated network.
//!
//! The entity identifiers are small dense indices handed out by the
//! [`NetworkBuilder`](crate::network::NetworkBuilder) in creation order, so
//! they can be used to index the corresponding entity tables directly.
//! [`TimerId`] is an opaque handle (see its docs).

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal, $repr:ty) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub $repr);

        impl $name {
            /// The dense index of this entity.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// A processor node on the network.
    NodeId,
    "n",
    u32
);
id_type!(
    /// A physical network segment (a shared-medium ethernet channel).
    SegmentId,
    "seg",
    u16
);
id_type!(
    /// A processor type (e.g. SPARCstation 2, Sun4 IPC).
    ProcTypeId,
    "pt",
    u16
);
id_type!(
    /// A router joining two or more segments.
    RouterId,
    "r",
    u16
);
id_type!(
    /// A timer set with
    /// [`Network::set_timer`](crate::network::Network::set_timer): an
    /// opaque handle, `generation << 32 | row`, naming a row of the
    /// network's timer table and the row's generation when the timer was
    /// set. It is not a sequence number: a fired or cancelled timer's row
    /// is reused by a later timer under a new generation, so ids are not
    /// ordered by set time, and a stale id cancels nothing. Compare ids
    /// for equality only; [`index`](TimerId::index) returns the raw
    /// handle.
    TimerId,
    "tm",
    u64
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_formatting_uses_prefixes() {
        assert_eq!(format!("{:?}", NodeId(3)), "n3");
        assert_eq!(format!("{}", SegmentId(1)), "seg1");
        assert_eq!(format!("{:?}", TimerId(42)), "tm42");
    }

    #[test]
    fn index_round_trips() {
        assert_eq!(NodeId(7).index(), 7);
        assert_eq!(RouterId(0).index(), 0);
    }
}
