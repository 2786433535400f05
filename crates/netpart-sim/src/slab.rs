//! A free-list slab interning in-flight [`Datagram`]s.
//!
//! Work items in the event queue carry a 4-byte [`DgramHandle`] instead of
//! the 24-byte `Datagram` (addresses, tag, wire length, corruption flag;
//! a slot `Option<Datagram>` is 24 bytes too). The packet is inserted once on
//! send, looked up by the frame pipeline, and taken back out exactly once
//! on delivery or drop; the vacated slot is recycled, so a steady-state
//! cycle loop reuses the same few slots forever and the queue shuffles
//! nothing but small plain-old-data entries.

use crate::datagram::Datagram;

/// Index of an interned datagram in its [`DgramSlab`]. Valid from
/// insert until the matching [`DgramSlab::take`]; the network frees every
/// handle on its delivery or drop path, so handles never dangle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DgramHandle(pub(crate) u32);

/// Slab of in-flight datagrams with a LIFO free list.
#[derive(Debug, Default)]
pub(crate) struct DgramSlab {
    slots: Vec<Option<Datagram>>,
    free: Vec<u32>,
}

impl DgramSlab {
    pub(crate) fn new() -> Self {
        DgramSlab::default()
    }

    /// Intern a datagram, reusing a vacated slot when one exists.
    pub(crate) fn insert(&mut self, d: Datagram) -> DgramHandle {
        if let Some(i) = self.free.pop() {
            debug_assert!(self.slots[i as usize].is_none());
            self.slots[i as usize] = Some(d);
            DgramHandle(i)
        } else {
            let i = self.slots.len() as u32;
            self.slots.push(Some(d));
            DgramHandle(i)
        }
    }

    /// Borrow an interned datagram.
    ///
    /// # Panics
    /// If the handle was already taken — that would mean a double-free in
    /// the frame pipeline, which is a bug worth crashing on.
    pub(crate) fn get(&self, h: DgramHandle) -> &Datagram {
        self.slots[h.0 as usize]
            .as_ref()
            .expect("stale datagram handle")
    }

    /// Mutably borrow an interned datagram (corruption flagging).
    pub(crate) fn get_mut(&mut self, h: DgramHandle) -> &mut Datagram {
        self.slots[h.0 as usize]
            .as_mut()
            .expect("stale datagram handle")
    }

    /// Remove and return the datagram, recycling its slot.
    pub(crate) fn take(&mut self, h: DgramHandle) -> Datagram {
        let d = self.slots[h.0 as usize]
            .take()
            .expect("stale datagram handle");
        self.free.push(h.0);
        d
    }

    /// Drop every interned datagram, keeping both buffers.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }

    /// Number of live (in-flight) datagrams.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    fn dg(tag: u64) -> Datagram {
        Datagram {
            src: NodeId(0),
            dst: NodeId(1),
            tag,
            wire_len: 100,
            corrupted: false,
        }
    }

    #[test]
    fn slots_are_recycled() {
        let mut s = DgramSlab::new();
        let a = s.insert(dg(1));
        let b = s.insert(dg(2));
        assert_eq!(s.live(), 2);
        assert_eq!(s.get(a).tag, 1);
        let out = s.take(a);
        assert_eq!(out.tag, 1);
        assert_eq!(s.live(), 1);
        // The vacated slot is reused; no growth.
        let c = s.insert(dg(3));
        assert_eq!(c, a);
        assert_eq!(s.get(c).tag, 3);
        assert_eq!(s.get(b).tag, 2);
        assert_eq!(s.live(), 2);
        s.get_mut(b).corrupted = true;
        assert!(s.take(b).corrupted);
    }

    #[test]
    #[should_panic(expected = "stale datagram handle")]
    fn double_take_panics() {
        let mut s = DgramSlab::new();
        let a = s.insert(dg(1));
        let _ = s.take(a);
        let _ = s.take(a);
    }
}
