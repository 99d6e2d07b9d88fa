//! A free-list slab owning every in-flight [`Packet`].
//!
//! Events and queue entries carry a 4-byte [`PacketId`] rather than the
//! 40-byte packet; the packet is materialised exactly once (when an agent
//! hands it to [`crate::Ctx::send`]) and moved out exactly once (delivery
//! to the destination agent, or a drop). A slot is exactly one packet, so
//! the slab costs 40 bytes per packet in flight. Slots are recycled through
//! a LIFO free list, which keeps the slab dense, cache-warm, and — because
//! ids are handed out by a deterministic rule — bit-for-bit reproducible
//! across runs.

use crate::packet::Packet;

/// Index of a live packet in a [`PacketSlab`].
///
/// Ids are only meaningful to the slab that issued them and only until the
/// packet is removed; the slab panics on stale or foreign ids rather than
/// returning garbage.
pub type PacketId = u32;

/// A slot holds a packet or, once freed, the free list's next link — the
/// list costs no memory of its own.
#[derive(Debug)]
enum Slot {
    Live(Packet),
    /// Freed; names the slot freed before it ([`NO_SLOT`] ends the list).
    Free(PacketId),
}

/// End of the free list.
const NO_SLOT: PacketId = PacketId::MAX;

/// Slab of in-flight packets with LIFO slot reuse.
#[derive(Debug)]
pub struct PacketSlab {
    slots: Vec<Slot>,
    /// Most recently freed slot: head of the LIFO list threaded through
    /// the `Free` slots.
    free_head: PacketId,
    live: usize,
    peak: usize,
    inserted: u64,
}

impl Default for PacketSlab {
    fn default() -> Self {
        PacketSlab {
            slots: Vec::new(),
            free_head: NO_SLOT,
            live: 0,
            peak: 0,
            inserted: 0,
        }
    }
}

impl PacketSlab {
    /// An empty slab.
    pub fn new() -> Self {
        PacketSlab::default()
    }

    /// Insert `pkt`, returning its id. Reuses the most recently freed slot
    /// if one exists (LIFO keeps hot slots hot).
    #[inline]
    pub fn insert(&mut self, pkt: Packet) -> PacketId {
        self.inserted += 1;
        self.live += 1;
        if self.live > self.peak {
            self.peak = self.live;
        }
        let id = self.free_head;
        if id == NO_SLOT {
            let id = self.slots.len() as PacketId;
            self.slots.push(Slot::Live(pkt));
            return id;
        }
        match std::mem::replace(&mut self.slots[id as usize], Slot::Live(pkt)) {
            Slot::Free(next) => self.free_head = next,
            Slot::Live(_) => unreachable!("free list names a live slot"),
        }
        id
    }

    /// Move the packet out of the slab, freeing its slot.
    ///
    /// Panics if `id` is stale (already removed) or was never issued.
    #[inline]
    pub fn remove(&mut self, id: PacketId) -> Packet {
        let slot = &mut self.slots[id as usize];
        let Slot::Live(_) = slot else {
            panic!("stale packet id: slot already freed");
        };
        let Slot::Live(pkt) = std::mem::replace(slot, Slot::Free(self.free_head)) else {
            unreachable!("checked live above");
        };
        self.free_head = id;
        self.live -= 1;
        pkt
    }

    /// Borrow the packet behind `id`. Panics on stale ids.
    #[inline]
    pub fn get(&self, id: PacketId) -> &Packet {
        match &self.slots[id as usize] {
            Slot::Live(pkt) => pkt,
            Slot::Free(_) => panic!("stale packet id: slot already freed"),
        }
    }

    /// Mutably borrow the packet behind `id`. Panics on stale ids.
    #[inline]
    pub fn get_mut(&mut self, id: PacketId) -> &mut Packet {
        match &mut self.slots[id as usize] {
            Slot::Live(pkt) => pkt,
            Slot::Free(_) => panic!("stale packet id: slot already freed"),
        }
    }

    /// Number of live (in-flight) packets.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no packet is in flight.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// High-water mark of simultaneously live packets (diagnostics: the
    /// slab's memory footprint is `peak * size_of::<Packet>()`).
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Total packets ever inserted (the "injected" side of the conservation
    /// audit: every packet the slab issued must end up delivered, dropped
    /// with a reason, or still live here).
    pub fn total_inserted(&self) -> u64 {
        self.inserted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowKey, Proto, MSS};
    use crate::time::SimTime;

    fn pkt(seq: u64) -> Packet {
        let key = FlowKey {
            src: 1,
            dst: 2,
            sport: 3,
            dport: 4,
            proto: Proto::Tcp,
        };
        Packet::data(0, key, 0, seq, MSS, SimTime::ZERO)
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab = PacketSlab::new();
        let a = slab.insert(pkt(1));
        let b = slab.insert(pkt(2));
        assert_ne!(a, b);
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a).seq, 1);
        slab.get_mut(b).seq = 99;
        assert_eq!(slab.remove(b).seq, 99);
        assert_eq!(slab.remove(a).seq, 1);
        assert!(slab.is_empty());
        assert_eq!(slab.peak(), 2);
        assert_eq!(slab.total_inserted(), 2, "inserted never decrements");
    }

    #[test]
    fn slots_are_recycled_lifo() {
        let mut slab = PacketSlab::new();
        let a = slab.insert(pkt(1));
        let b = slab.insert(pkt(2));
        slab.remove(a);
        slab.remove(b);
        // LIFO: b's slot comes back first, then a's; no new slots grown.
        assert_eq!(slab.insert(pkt(3)), b);
        assert_eq!(slab.insert(pkt(4)), a);
        assert_eq!(slab.len(), 2);
    }

    #[test]
    fn free_link_fits_in_the_packet_it_replaces() {
        // The footprint stays `peak * size_of::<Packet>()`: the `Free`
        // link and the variant tag live in bytes a live packet leaves
        // unused (the tag in `Proto`'s niche).
        assert_eq!(std::mem::size_of::<Slot>(), std::mem::size_of::<Packet>());
    }

    #[test]
    #[should_panic(expected = "stale packet id")]
    fn stale_id_panics() {
        let mut slab = PacketSlab::new();
        let a = slab.insert(pkt(1));
        slab.remove(a);
        slab.get(a);
    }
}
