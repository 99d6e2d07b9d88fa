//! Output queues with drop-tail and DCTCP-style ECN marking.
//!
//! Every transmitting port owns one [`EcnQueue`]. Enqueue performs the
//! switch's AQM decision: if the instantaneous occupancy (in bytes) exceeds
//! the marking threshold `K`, an ECN-capable packet gets its CE bit set —
//! this is the single-threshold marking DCTCP relies on (paper §4.2:
//! "a congested switch marks every packet exceeding a desired queue size
//! threshold", K = 90 KB for 10 Gbps links). A packet is dropped at the
//! tail only when the byte capacity is exhausted; the simulator builds
//! every packet ECN-capable, so crossing K marks and never drops.
//!
//! The queue stores small entries, not packets — packets live in the
//! simulator's [`crate::slab::PacketSlab`]. An entry carries what the port
//! needs when it starts transmitting (wire size, PFC ingress attribution,
//! protocol), so dequeue and tx-start never touch the slab. The marking
//! decision is returned in [`EnqueueResult::Queued`]; the caller (which
//! owns the slab) applies the CE bit. One entry is 8 bytes: a saturated
//! deep-buffered port holds ~1400 of them, and how many ports saturate is
//! what differs between two seeds of one workload.

use std::collections::VecDeque;

use crate::packet::{PortId, Proto, INGRESS_NONE};
use crate::slab::PacketId;

/// Outcome of an enqueue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueResult {
    /// Packet accepted. `marked` reports the AQM decision: the caller must
    /// set the packet's CE bit when true.
    Queued {
        /// The packet crossed the marking threshold and was ECN-capable.
        marked: bool,
    },
    /// Packet dropped: the queue was at capacity.
    Dropped,
}

/// One queued packet: its slab id plus everything tx-start reads, cached
/// here so dequeue, byte accounting and PFC release never touch the slab.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    pub(crate) id: PacketId,
    /// Wire size in bytes.
    size: u16,
    /// Bits 0–14: the ingress port ([`NO_INGRESS`] when not attributed to
    /// one); bit 15: the packet is UDP.
    tag: u16,
}

const UDP_BIT: u16 = 1 << 15;
/// [`INGRESS_NONE`] as the tag's 15 port bits hold it.
const NO_INGRESS: u16 = INGRESS_NONE & !UDP_BIT;

impl Entry {
    /// `ingress` is the port the buffering switch received the packet on
    /// (PFC accounting), or [`INGRESS_NONE`].
    #[inline]
    pub(crate) fn new(id: PacketId, size: u32, ingress: PortId, proto: Proto) -> Entry {
        assert!(
            size <= u16::MAX as u32,
            "wire size {size} B overflows a queue entry"
        );
        debug_assert!(ingress == INGRESS_NONE || ingress < NO_INGRESS);
        let udp = match proto {
            Proto::Tcp => 0,
            Proto::Udp => UDP_BIT,
        };
        Entry {
            id,
            size: size as u16,
            tag: (ingress & NO_INGRESS) | udp,
        }
    }

    /// Wire size in bytes.
    #[inline]
    pub(crate) fn size(self) -> u32 {
        self.size as u32
    }

    #[inline]
    pub(crate) fn ingress(self) -> PortId {
        match self.tag & NO_INGRESS {
            NO_INGRESS => INGRESS_NONE,
            port => port,
        }
    }

    #[inline]
    pub(crate) fn proto(self) -> Proto {
        if self.tag & UDP_BIT == 0 {
            Proto::Tcp
        } else {
            Proto::Udp
        }
    }
}

/// A byte-bounded FIFO of packet ids with single-threshold ECN marking.
#[derive(Debug)]
pub struct EcnQueue {
    fifo: VecDeque<Entry>,
    bytes: u64,
    /// Maximum occupancy in bytes; arrivals beyond this are dropped.
    capacity: u64,
    /// ECN marking threshold `K` in bytes; `u64::MAX` disables marking.
    mark_threshold: u64,
    /// Lifetime statistics.
    stats: QueueStats,
}

/// Counters maintained by each queue over its lifetime.
#[derive(Debug, Default, Clone, Copy)]
pub struct QueueStats {
    /// Packets accepted.
    pub enqueued: u64,
    /// Packets dropped at the tail.
    pub dropped: u64,
    /// Packets CE-marked on enqueue.
    pub marked: u64,
    /// Highest byte occupancy ever observed.
    pub max_bytes: u64,
}

impl EcnQueue {
    /// Create a queue with the given byte capacity and marking threshold.
    pub fn new(capacity: u64, mark_threshold: u64) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        EcnQueue {
            fifo: VecDeque::new(),
            bytes: 0,
            capacity,
            mark_threshold,
            stats: QueueStats::default(),
        }
    }

    /// Create a queue that never marks (plain drop-tail).
    pub fn drop_tail(capacity: u64) -> Self {
        Self::new(capacity, u64::MAX)
    }

    /// Attempt to enqueue the packet behind `id` (of wire size `size`),
    /// applying drop-tail and ECN marking. `ecn_capable` is the packet's
    /// ECT codepoint; non-capable packets are never marked.
    ///
    /// The marking decision uses the occupancy *before* the packet is added
    /// (instantaneous queue length seen by the arriving packet), matching
    /// DCTCP's specification.
    #[inline]
    pub fn enqueue(&mut self, id: PacketId, size: u32, ecn_capable: bool) -> EnqueueResult {
        self.enqueue_entry(Entry::new(id, size, INGRESS_NONE, Proto::Tcp), ecn_capable)
    }

    /// [`EcnQueue::enqueue`] for the simulator, which also records the
    /// packet's ingress port and protocol for tx-start.
    #[inline]
    pub(crate) fn enqueue_entry(&mut self, entry: Entry, ecn_capable: bool) -> EnqueueResult {
        let size = entry.size();
        if self.bytes + size as u64 > self.capacity {
            self.stats.dropped += 1;
            return EnqueueResult::Dropped;
        }
        let marked = self.bytes >= self.mark_threshold && ecn_capable;
        if marked {
            self.stats.marked += 1;
        }
        self.bytes += size as u64;
        self.stats.enqueued += 1;
        if self.bytes > self.stats.max_bytes {
            self.stats.max_bytes = self.bytes;
        }
        self.fifo.push_back(entry);
        EnqueueResult::Queued { marked }
    }

    /// Remove and return the head-of-line packet id, if any.
    #[inline]
    pub fn dequeue(&mut self) -> Option<PacketId> {
        self.dequeue_entry().map(|e| e.id)
    }

    /// Remove and return the head-of-line entry, if any.
    #[inline]
    pub(crate) fn dequeue_entry(&mut self) -> Option<Entry> {
        let e = self.fifo.pop_front()?;
        self.bytes -= e.size() as u64;
        Some(e)
    }

    /// Current occupancy in bytes.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Current occupancy in packets.
    #[inline]
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// True if no packet is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Byte capacity.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Marking threshold `K` in bytes.
    #[inline]
    pub fn mark_threshold(&self) -> u64 {
        self.mark_threshold
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Drop every queued packet (used when a link fails), returning the
    /// discarded ids so the caller can free their slab slots.
    pub fn clear(&mut self) -> Vec<PacketId> {
        let ids: Vec<PacketId> = self.fifo.drain(..).map(|e| e.id).collect();
        self.stats.dropped += ids.len() as u64;
        self.bytes = 0;
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::MTU;

    const QUEUED: EnqueueResult = EnqueueResult::Queued { marked: false };
    const MARKED: EnqueueResult = EnqueueResult::Queued { marked: true };

    #[test]
    fn entry_packs_into_eight_bytes_and_reads_back() {
        assert_eq!(std::mem::size_of::<Entry>(), 8);
        for proto in [Proto::Tcp, Proto::Udp] {
            for ingress in [0, 1, 47, NO_INGRESS - 1, INGRESS_NONE] {
                for size in [0, 40, MTU, u16::MAX as u32] {
                    let e = Entry::new(9, size, ingress, proto);
                    assert_eq!(
                        (e.id, e.size(), e.ingress(), e.proto()),
                        (9, size, ingress, proto)
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflows a queue entry")]
    fn oversized_wire_size_is_refused() {
        EcnQueue::drop_tail(1_000_000).enqueue(0, 1 << 16, true);
    }

    #[test]
    fn fifo_order_and_byte_accounting() {
        let mut q = EcnQueue::drop_tail(1_000_000);
        q.enqueue(1, 140, true);
        q.enqueue(2, 240, true);
        assert_eq!(q.len(), 2);
        assert_eq!(q.bytes(), 140 + 240);
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.bytes(), 240);
        assert_eq!(q.dequeue(), Some(2));
        assert!(q.dequeue().is_none());
        assert_eq!(q.bytes(), 0);
    }

    #[test]
    fn drops_when_full() {
        let mut q = EcnQueue::drop_tail(3000);
        assert_eq!(q.enqueue(0, MTU, true), QUEUED);
        assert_eq!(q.enqueue(1, MTU, true), QUEUED);
        // Third full-size packet exceeds 3000 bytes.
        assert_eq!(q.enqueue(2, MTU, true), EnqueueResult::Dropped);
        assert_eq!(q.stats().dropped, 1);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn marks_above_threshold_only() {
        // Threshold = one full packet: the second packet sees occupancy 1500
        // >= 1500 and is marked; the first sees 0 and is not.
        let mut q = EcnQueue::new(1_000_000, 1500);
        assert_eq!(q.enqueue(0, MTU, true), QUEUED);
        assert_eq!(q.enqueue(1, MTU, true), MARKED);
        assert_eq!(q.stats().marked, 1);
    }

    #[test]
    fn non_ect_packets_are_not_marked() {
        let mut q = EcnQueue::new(1_000_000, 0); // mark everything eligible
        assert_eq!(q.enqueue(0, 140, false), QUEUED);
        assert_eq!(q.stats().marked, 0);
    }

    #[test]
    fn max_bytes_high_watermark() {
        let mut q = EcnQueue::drop_tail(1_000_000);
        q.enqueue(0, MTU, true);
        q.enqueue(1, MTU, true);
        q.dequeue();
        q.enqueue(2, 140, true);
        assert_eq!(q.stats().max_bytes, 2 * MTU as u64);
    }

    #[test]
    fn clear_empties_counts_drops_and_returns_ids() {
        let mut q = EcnQueue::drop_tail(1_000_000);
        q.enqueue(7, 140, true);
        q.enqueue(9, 140, true);
        assert_eq!(q.clear(), vec![7, 9]);
        assert!(q.is_empty());
        assert_eq!(q.bytes(), 0);
        assert_eq!(q.stats().dropped, 2);
    }
}
