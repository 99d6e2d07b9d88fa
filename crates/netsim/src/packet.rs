//! Packet representation.
//!
//! The simulator models packets at header granularity: a [`Packet`] carries
//! the fields that affect forwarding and transport behaviour (addresses, ports,
//! sequence numbers, flags, the FlowBender V-field) plus its wire size, but
//! no payload bytes — the payload's content never matters, only its length.

use crate::time::SimTime;

/// Identifier of a node (host or switch) in the simulated network.
pub type NodeId = u32;

/// Identifier of a host. Hosts and switches share the `NodeId` space; a
/// `HostId` is a `NodeId` that is known to refer to a host.
pub type HostId = u32;

/// A port index local to one node.
pub type PortId = u16;

/// Globally unique flow identifier assigned by the experiment/workload layer.
pub type FlowId = u32;

/// Maximum transmission unit used throughout the suite (standard Ethernet).
pub const MTU: u32 = 1500;
/// Bytes of TCP/IP header accounted on every packet.
pub const HEADER_BYTES: u32 = 40;
/// Maximum segment size: MTU minus headers.
pub const MSS: u32 = MTU - HEADER_BYTES;
/// Wire size of a bare ACK (no payload).
pub const ACK_BYTES: u32 = HEADER_BYTES;

/// Transport protocol of a flow. Part of the ECMP hash input, mirroring the
/// IP protocol field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Proto {
    /// Reliable, congestion-controlled transport (TCP New Reno / DCTCP).
    Tcp,
    /// Unreliable constant-bit-rate transport.
    Udp,
}

/// The fields that identify a connection for ECMP hashing purposes — the
/// classic 5-tuple. All packets of one flow (in one direction) carry the
/// same `FlowKey`; ACKs carry the reversed key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Source transport port.
    pub sport: u16,
    /// Destination transport port.
    pub dport: u16,
    /// Transport protocol.
    pub proto: Proto,
}

impl FlowKey {
    /// The key of packets flowing in the opposite direction (ACKs).
    pub fn reversed(&self) -> FlowKey {
        FlowKey {
            src: self.dst,
            dst: self.src,
            sport: self.dport,
            dport: self.sport,
            proto: self.proto,
        }
    }
}

/// Packet flag bits.
///
/// `CE` models the IP-level ECN Congestion Experienced codepoint set by
/// switches; `ECE` models the TCP-level echo carried back on ACKs. With the
/// DCTCP-style accurate per-packet echo used here, an ACK's `ECE` reflects
/// the `CE` bit of the data packet that triggered it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags(pub u8);

impl Flags {
    /// Acknowledgment: `ack` field is meaningful.
    pub const ACK: u8 = 1 << 0;
    /// ECN Congestion Experienced (set by switches on marked packets).
    pub const CE: u8 = 1 << 1;
    /// ECN Echo (set by receivers on ACKs of marked data).
    pub const ECE: u8 = 1 << 2;
    /// Final segment of the flow.
    pub const FIN: u8 = 1 << 3;
    /// Duplicate-SACK: this ACK acknowledges a segment the receiver already
    /// held — the sender's retransmission was spurious (reordering, not
    /// loss). Senders use it to undo recovery and raise their reordering
    /// threshold, as Linux's DSACK handling does.
    pub const DSACK: u8 = 1 << 5;

    /// True if the given flag bit(s) are all set.
    #[inline]
    pub fn has(self, bit: u8) -> bool {
        self.0 & bit == bit
    }

    /// Set the given flag bit(s).
    #[inline]
    pub fn set(&mut self, bit: u8) {
        self.0 |= bit;
    }

    /// Clear the given flag bit(s).
    #[inline]
    pub fn clear(&mut self, bit: u8) {
        self.0 &= !bit;
    }
}

/// A simulated packet.
///
/// Cheap to copy (`Clone`), small, and payload-free. The `size` field is the
/// full wire size (headers + payload) used for serialization-time and queue
/// accounting.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Flow this packet belongs to (bookkeeping, not used for forwarding).
    pub flow: FlowId,
    /// ECMP 5-tuple.
    pub key: FlowKey,
    /// FlowBender's flexible hash field (the paper's "V", e.g. TTL or VLAN
    /// id). Switches configured for FlowBender include it in the ECMP hash;
    /// changing it re-routes the flow.
    pub vfield: u8,
    /// Byte offset of the first payload byte (TCP sequence number).
    pub seq: u64,
    /// Payload length in bytes (0 for pure ACKs).
    pub payload: u32,
    /// Cumulative acknowledgment number (valid when `Flags::ACK` set).
    pub ack: u64,
    /// Full wire size in bytes.
    pub size: u32,
    /// Flag bits.
    pub flags: Flags,
    /// Timestamp echoed by the receiver (TCP timestamp option), used by the
    /// sender for RTT estimation. On data packets this is the send time; on
    /// ACKs it is the echoed value.
    pub tstamp: SimTime,
    /// On ACKs, the highest segment start the receiver has seen. The
    /// sender sizes its reordering extent from it (`peer_high`, DESIGN
    /// §7), so it is protocol state, not statistics; 0 on data packets.
    pub rcv_high: u64,
}

/// Sentinel ingress port of a queued packet that is not attributed to any
/// ingress for PFC accounting (e.g. host-originated).
pub const INGRESS_NONE: u16 = u16::MAX;

impl Packet {
    /// Build a data segment.
    pub fn data(
        flow: FlowId,
        key: FlowKey,
        vfield: u8,
        seq: u64,
        payload: u32,
        now: SimTime,
    ) -> Packet {
        Packet {
            flow,
            key,
            vfield,
            seq,
            payload,
            ack: 0,
            size: payload + HEADER_BYTES,
            flags: Flags::default(),
            tstamp: now,
            rcv_high: 0,
        }
    }

    /// Build a pure ACK for `key`'s reverse direction.
    pub fn ack_packet(
        flow: FlowId,
        data_key: FlowKey,
        vfield: u8,
        ack: u64,
        echo: SimTime,
    ) -> Packet {
        let mut flags = Flags::default();
        flags.set(Flags::ACK);
        Packet {
            flow,
            key: data_key.reversed(),
            vfield,
            seq: 0,
            payload: 0,
            ack,
            size: ACK_BYTES,
            flags,
            tstamp: echo,
            rcv_high: 0,
        }
    }

    /// Destination host of this packet.
    #[inline]
    pub fn dst(&self) -> HostId {
        self.key.dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> FlowKey {
        FlowKey {
            src: 1,
            dst: 2,
            sport: 1000,
            dport: 80,
            proto: Proto::Tcp,
        }
    }

    #[test]
    fn mss_and_mtu_are_consistent() {
        assert_eq!(MSS + HEADER_BYTES, MTU);
        assert_eq!(MSS, 1460);
    }

    #[test]
    fn reversed_key_swaps_endpoints() {
        let k = key();
        let r = k.reversed();
        assert_eq!(r.src, 2);
        assert_eq!(r.dst, 1);
        assert_eq!(r.sport, 80);
        assert_eq!(r.dport, 1000);
        assert_eq!(r.reversed(), k);
    }

    #[test]
    fn flags_set_clear_has() {
        let mut f = Flags::default();
        assert!(!f.has(Flags::ACK));
        f.set(Flags::ACK);
        f.set(Flags::CE);
        assert!(f.has(Flags::ACK));
        assert!(f.has(Flags::CE));
        assert!(f.has(Flags::ACK | Flags::CE));
        f.clear(Flags::CE);
        assert!(!f.has(Flags::CE));
        assert!(f.has(Flags::ACK));
    }

    #[test]
    fn data_packet_sizes() {
        let p = Packet::data(7, key(), 3, 0, MSS, SimTime::ZERO);
        assert_eq!(p.size, MTU);
        assert!(!p.flags.has(Flags::ACK));
        let a = Packet::ack_packet(7, key(), 0, 1460, SimTime::from_us(5));
        assert_eq!(a.size, ACK_BYTES);
        assert!(a.flags.has(Flags::ACK));
        assert_eq!(a.key, key().reversed());
        assert_eq!(a.tstamp, SimTime::from_us(5));
    }

    /// The packet is the unit every queue, slab slot and event moves;
    /// its size is the per-packet memory cost of the whole simulator.
    #[test]
    fn packet_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Packet>(), 64);
    }
}
