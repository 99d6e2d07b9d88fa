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
    /// Packet is ECN-capable transport (ECT); non-ECT packets are dropped
    /// instead of marked when the queue exceeds the marking threshold.
    pub const ECT: u8 = 1 << 4;
    /// Duplicate-SACK: this ACK acknowledges a segment the receiver already
    /// held — the sender's retransmission was spurious (reordering, not
    /// loss). Senders use it to undo recovery and raise their reordering
    /// threshold, as Linux's DSACK handling does.
    pub const DSACK: u8 = 1 << 5;
    /// Congestion notification: a switch-generated back-to-sender packet
    /// (P4-style early feedback) announcing that a queue this flow
    /// traverses crossed its notification threshold. Carries the blamed
    /// hop in [`Packet::int`]; pre-empts the end-to-end ECN echo.
    pub const CN: u8 = 1 << 6;

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

/// One hop's worth of INT (in-band network telemetry) metadata: what a
/// switch knew about the packet's egress queue at enqueue time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntHop {
    /// The switch that stamped this record.
    pub node: NodeId,
    /// The egress port the packet was queued on.
    pub port: PortId,
    /// Queue occupancy in bytes *after* this packet was enqueued.
    pub qbytes: u64,
    /// Whether the queue ECN-marked the packet at this hop.
    pub marked: bool,
}

/// The per-packet INT stack: one [`IntHop`] per switch traversed, in path
/// order. Allocated lazily (packets of a telemetry-disabled fabric never
/// carry one) and boxed so the disabled case costs one `Option` niche.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntStack {
    /// Hop records, first hop first.
    pub hops: Vec<IntHop>,
}

impl IntStack {
    /// The hop with the deepest queue — the congestion suspect a
    /// feedback-driven controller should bend away from. `None` for an
    /// empty stack.
    pub fn blamed_hop(&self) -> Option<IntHop> {
        self.hops.iter().copied().max_by_key(|h| h.qbytes)
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
    /// Number of duplicate-ACK-relevant SACK-less ordering information: the
    /// highest sequence number the receiver has seen (used only for
    /// statistics, not by the protocol).
    pub rcv_high: u64,
    /// The INT stack: per-hop telemetry stamped by switches with INT
    /// enabled, `None` everywhere else (the default for every
    /// constructor). On a CN packet this carries exactly the blamed hop.
    pub int: Option<Box<IntStack>>,
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
        let mut flags = Flags::default();
        flags.set(Flags::ECT);
        Packet {
            flow,
            key,
            vfield,
            seq,
            payload,
            ack: 0,
            size: payload + HEADER_BYTES,
            flags,
            tstamp: now,
            rcv_high: 0,
            int: None,
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
        flags.set(Flags::ECT);
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
            int: None,
        }
    }

    /// Build a switch-generated congestion notification headed back to
    /// `data_key`'s source. Wire-wise a bare header ([`ACK_BYTES`]); the
    /// blamed hop rides in the INT stack.
    pub fn cn(flow: FlowId, data_key: FlowKey, vfield: u8, blame: IntHop, now: SimTime) -> Packet {
        let mut flags = Flags::default();
        flags.set(Flags::CN);
        flags.set(Flags::ECT);
        Packet {
            flow,
            key: data_key.reversed(),
            vfield,
            seq: 0,
            payload: 0,
            ack: 0,
            size: ACK_BYTES,
            flags,
            tstamp: now,
            rcv_high: 0,
            int: Some(Box::new(IntStack { hops: vec![blame] })),
        }
    }

    /// Destination host of this packet.
    #[inline]
    pub fn dst(&self) -> HostId {
        self.key.dst
    }

    /// True if this packet may be ECN-marked rather than dropped.
    #[inline]
    pub fn ecn_capable(&self) -> bool {
        self.flags.has(Flags::ECT)
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
        assert!(p.ecn_capable());
        assert!(!p.flags.has(Flags::ACK));
        let a = Packet::ack_packet(7, key(), 0, 1460, SimTime::from_us(5));
        assert_eq!(a.size, ACK_BYTES);
        assert!(a.flags.has(Flags::ACK));
        assert_eq!(a.key, key().reversed());
        assert_eq!(a.tstamp, SimTime::from_us(5));
        assert!(a.int.is_none(), "no INT stack unless a switch stamps one");
    }

    #[test]
    fn int_stack_blames_the_deepest_queue() {
        let mut s = IntStack::default();
        assert_eq!(s.blamed_hop(), None);
        s.hops.push(IntHop {
            node: 8,
            port: 1,
            qbytes: 3000,
            marked: false,
        });
        s.hops.push(IntHop {
            node: 12,
            port: 0,
            qbytes: 90_000,
            marked: true,
        });
        s.hops.push(IntHop {
            node: 9,
            port: 2,
            qbytes: 100,
            marked: false,
        });
        let blame = s.blamed_hop().unwrap();
        assert_eq!((blame.node, blame.port), (12, 0));
    }

    #[test]
    fn cn_packet_reverses_key_and_carries_blame() {
        let blame = IntHop {
            node: 12,
            port: 3,
            qbytes: 64_000,
            marked: true,
        };
        let p = Packet::cn(7, key(), 2, blame, SimTime::from_us(9));
        assert!(p.flags.has(Flags::CN));
        assert!(!p.flags.has(Flags::ACK));
        assert_eq!(p.key, key().reversed());
        assert_eq!(p.dst(), 1, "headed back to the data source");
        assert_eq!(p.size, ACK_BYTES);
        assert_eq!(p.payload, 0);
        assert_eq!(p.int.as_ref().unwrap().hops, vec![blame]);
    }
}
