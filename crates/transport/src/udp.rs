//! Constant-bit-rate UDP source (the §4.3.1 hotspot generator).
//!
//! A [`UdpSender`] emits MTU-sized datagrams at a fixed rate. It has no
//! congestion control, and by default never changes its V-field — which is
//! exactly why the paper uses it to pin an immovable 6 Gbps hotspot onto
//! one path and watch whether TCP traffic routes around it.
//!
//! The paper's §3.4.3 ("FlowBender beyond TCP") suggests the complement:
//! reorder-tolerant UDP applications can *spray* by re-drawing V at any
//! desired pace. [`UdpSender::with_spray`] enables that: the V-field is
//! re-drawn every `every` datagrams, spreading the stream over all paths
//! at burst granularity.

use netsim::{Ctx, FlowId, FlowKey, Packet, SimTime, MSS};

/// Rate-limited unreliable sender.
#[derive(Debug)]
pub struct UdpSender {
    flow: FlowId,
    key: FlowKey,
    /// Current V-field (fixed unless spraying is enabled).
    vfield: u8,
    /// Re-draw V every this many datagrams (0 = never).
    spray_every: u64,
    /// Number of distinct V values to draw from when spraying.
    v_range: u8,
    /// Gap between consecutive datagrams for the configured rate.
    gap: SimTime,
    /// Bytes remaining to send (`u64::MAX` = unbounded).
    remaining: u64,
    /// Sequence number of the next datagram: wraps like 32-bit TCP
    /// sequence space (no receiver reads it), so a source may run past
    /// 4 GiB.
    seq: u32,
    sent_pkts: u64,
}

impl UdpSender {
    /// Create a CBR source of `rate_bps`, sending MTU-sized datagrams.
    pub fn new(flow: FlowId, key: FlowKey, rate_bps: u64, total_bytes: u64) -> Self {
        assert!(rate_bps > 0);
        // One MTU (payload + header) per tick; the wire size determines
        // the spacing for the requested rate.
        let wire = (MSS + netsim::HEADER_BYTES) as u64;
        UdpSender {
            flow,
            key,
            vfield: 0,
            spray_every: 0,
            v_range: 8,
            gap: SimTime::serialization(wire, rate_bps),
            remaining: total_bytes,
            seq: 0,
            sent_pkts: 0,
        }
    }

    /// Enable §3.4.3 burst-level spraying: re-draw the V-field every
    /// `every` datagrams (1 = per-packet spraying).
    pub fn with_spray(mut self, every: u64) -> Self {
        self.spray_every = every;
        self
    }

    /// Datagrams sent so far.
    pub fn sent_pkts(&self) -> u64 {
        self.sent_pkts
    }

    /// Send the next datagram; returns when the following one is due, or
    /// `None` when the byte budget is exhausted.
    pub fn tick(&mut self, ctx: &mut Ctx<'_>) -> Option<SimTime> {
        if self.remaining == 0 {
            return None;
        }
        if self.spray_every > 0 && self.sent_pkts.is_multiple_of(self.spray_every) {
            self.vfield = ctx.rng().gen_range(self.v_range as u32) as u8;
        }
        let payload = (self.remaining.min(MSS as u64)) as u32;
        let pkt = Packet::data(
            self.flow,
            self.key,
            self.vfield,
            self.seq as u64,
            payload,
            ctx.now(),
        );
        ctx.send(pkt);
        self.seq = self.seq.wrapping_add(payload);
        self.sent_pkts += 1;
        self.remaining = self.remaining.saturating_sub(payload as u64);
        (self.remaining > 0).then(|| ctx.now() + self.gap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::testutil::CtxHarness;

    #[test]
    fn gap_matches_rate() {
        let key = FlowKey {
            src: 0,
            dst: 1,
            sport: 1,
            dport: 2,
            proto: netsim::Proto::Udp,
        };
        // 6 Gbps, 1500B frames: 2 us per frame.
        let u = UdpSender::new(0, key, 6_000_000_000, u64::MAX);
        assert_eq!(u.gap, SimTime::from_ns(2000));
    }

    /// The sequence wraps like 32-bit TCP's, so a source runs past 4 GiB.
    #[test]
    fn sequence_wraps_past_four_gib() {
        let spec = netsim::FlowSpec::udp(0, 0, 1, 10_000_000_000, SimTime::ZERO);
        let mut h = CtxHarness::new(1);
        let mut u = UdpSender::new(0, spec.key(), spec.udp_rate_bps, spec.bytes);
        u.seq = u32::MAX - 100;
        for _ in 0..3 {
            u.tick(&mut h.ctx());
        }
        let (pkts, _) = h.drain();
        let seqs: Vec<u32> = pkts.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, [u32::MAX - 100, MSS - 101, 2 * MSS - 101]);
    }
}
