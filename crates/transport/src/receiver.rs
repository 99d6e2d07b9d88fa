//! TCP receiver: reassembly, cumulative ACKs, and reordering accounting.
//!
//! The receiver is deliberately simple — FlowBender's whole point is that
//! the receiver needs *no* changes. It tracks received byte ranges, emits
//! cumulative ACKs with a DCTCP-accurate ECN echo, and counts out-of-order
//! arrivals for the §4.2.3 statistic.
//!
//! Every data segment is acknowledged at once, by an ACK whose `ECE`
//! mirrors that segment's CE bit — the exact-echo configuration most DCTCP
//! simulations use.
//!
//! A [`Receiver`] is only needed while a flow is in progress. Once every
//! byte has arrived the completing segment has been acknowledged and the
//! reassembly map is empty: all a complete receiver still reads is the
//! flow's size and the highest segment start it has seen.
//! `Receiver::retire` hands those over as a 16-byte `Dormant` record, and
//! `Dormant::on_data` is the one code path that answers a late duplicate,
//! whether the receiver is still around or long dropped. The host agent
//! keeps a `Dormant` per flow it terminates and a `Receiver` only from the
//! first segment to completion (see [`crate::agent`]).

use std::collections::BTreeMap;

use netsim::{Counter, Ctx, Flags, FlowId, Packet};

/// Acknowledge data segment `pkt` of `flow` at once: cumulative `ack_num`,
/// the segment's CE bit as `ECE`, and DSACK when `dsack`.
/// `rcv_high` is the highest segment start seen, so it fits the packet's
/// 32-bit field as every segment start does.
fn send_ack(
    flow: FlowId,
    pkt: &Packet,
    rcv_high: u64,
    dsack: bool,
    ack_num: u64,
    ctx: &mut Ctx<'_>,
) {
    // The ACK mirrors the data packet's V-field; ACK paths are
    // load-balanced independently and carry negligible load.
    let mut ack = Packet::ack_packet(flow, pkt.key, pkt.vfield, ack_num, pkt.tstamp);
    if pkt.flags.has(Flags::CE) {
        ack.flags.set(Flags::ECE);
    }
    if dsack {
        ack.flags.set(Flags::DSACK);
    }
    ack.rcv_high = rcv_high as u32;
    ctx.send(ack);
}

/// The receive side of a flow while no [`Receiver`] is live for it: before
/// its first segment, and after it has retired. Sixteen bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Dormant {
    /// Total application bytes the flow carries: the ACK of every late
    /// duplicate.
    size: u64,
    /// Highest segment start seen: what each ACK reports as `rcv_high` and
    /// what the §4.2.3 statistic compares a late segment against.
    /// [`Dormant::UNSTARTED`] before the first segment.
    max_seen: u64,
}

impl Dormant {
    /// `max_seen` of a flow no segment has reached yet (a segment start is
    /// below the flow's size, so never this).
    const UNSTARTED: u64 = u64::MAX;

    /// A flow of `size` bytes that has not started.
    pub(crate) fn new(size: u64) -> Self {
        Dormant {
            size,
            max_seen: Self::UNSTARTED,
        }
    }

    /// Total application bytes of the flow.
    pub(crate) fn size(&self) -> u64 {
        self.size
    }

    /// True once the flow has completed and its receiver retired.
    pub(crate) fn is_retired(&self) -> bool {
        self.max_seen != Self::UNSTARTED
    }

    /// A data segment for a flow whose every byte has already arrived: count
    /// it (a reordered arrival if it starts below `max_seen`, all of its
    /// payload duplicate bytes) and answer at once with `ack = size`, DSACK,
    /// and the segment's CE bit echoed. A complete
    /// [`Receiver`] runs exactly this.
    pub(crate) fn on_data(&mut self, flow: FlowId, pkt: &Packet, ctx: &mut Ctx<'_>) {
        let seq = pkt.seq as u64;
        debug_assert!(self.is_retired(), "flow {flow} has not completed");
        debug_assert!(
            seq + pkt.payload as u64 <= self.size,
            "data past the end of flow {flow}"
        );
        ctx.recorder().bump(Counter::DataPktsRcvd);
        if seq < self.max_seen {
            ctx.recorder().bump(Counter::OooPktsRcvd);
        }
        self.max_seen = self.max_seen.max(seq);
        if pkt.payload > 0 {
            ctx.recorder().add(Counter::DupBytes, pkt.payload as u64);
        }
        send_ack(flow, pkt, self.max_seen, true, self.size, ctx);
    }
}

/// Per-flow receive state.
#[derive(Debug)]
pub struct Receiver {
    flow: FlowId,
    /// Total application bytes this flow will carry.
    size: u64,
    /// Next expected in-order byte (the cumulative ACK value).
    expected: u64,
    /// Highest sequence number seen so far (for out-of-order accounting).
    max_seen: u64,
    /// Out-of-order byte ranges beyond `expected`: start -> end.
    ooo: BTreeMap<u64, u64>,
    /// Set once all `size` bytes have arrived.
    complete: bool,
    /// Bytes currently buffered out of order (sum over `ooo` ranges).
    ooo_bytes: u64,
}

impl Receiver {
    /// Create receive state for a flow of `size` bytes.
    pub fn new(flow: FlowId, size: u64) -> Self {
        Receiver {
            flow,
            size,
            expected: 0,
            max_seen: 0,
            ooo: BTreeMap::new(),
            complete: false,
            ooo_bytes: 0,
        }
    }

    /// True once every byte has arrived.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Next expected byte (current cumulative ACK).
    pub fn expected(&self) -> u64 {
        self.expected
    }

    /// Once every byte has arrived, the record that answers the flow's late
    /// duplicates exactly as this receiver would, so it can be dropped;
    /// `None` before.
    pub(crate) fn retire(&self) -> Option<Dormant> {
        debug_assert!(!self.complete || self.ooo.is_empty());
        self.complete.then_some(Dormant {
            size: self.size,
            max_seen: self.max_seen,
        })
    }

    /// Handle an arriving data segment: update reassembly state, record
    /// completion if this was the last missing byte, and acknowledge it.
    pub fn on_data(&mut self, pkt: &Packet, ctx: &mut Ctx<'_>) {
        debug_assert!(!pkt.flags.has(Flags::ACK), "receiver got an ACK");
        if let Some(mut rest) = self.retire() {
            rest.on_data(self.flow, pkt, ctx);
            self.max_seen = rest.max_seen;
            return;
        }
        ctx.recorder().bump(Counter::DataPktsRcvd);

        // §4.2.3 metric: a packet is out-of-order if a later sequence was
        // already seen when it arrives.
        let seq = pkt.seq as u64;
        if seq < self.max_seen {
            ctx.recorder().bump(Counter::OooPktsRcvd);
        }
        self.max_seen = self.max_seen.max(seq);

        // DSACK: the segment is entirely data we already hold — the
        // sender's retransmission was spurious. Tell it so (Linux's DSACK).
        let end = seq + pkt.payload as u64;
        let duplicate = end <= self.expected || self.holds(seq, end);
        let dup_bytes = self.insert_range(seq, end);

        // Reordering cost telemetry: wasted wire bytes and the reassembly
        // buffer's high-water mark (how much memory spraying costs the NIC).
        if dup_bytes > 0 {
            ctx.recorder().add(Counter::DupBytes, dup_bytes);
        }
        ctx.recorder()
            .record_max(Counter::OooBytesMax, self.ooo_bytes);

        if self.expected >= self.size {
            self.complete = true;
            let now = ctx.now();
            ctx.recorder().flow_completed(self.flow, now);
        }
        send_ack(self.flow, pkt, self.max_seen, duplicate, self.expected, ctx);
    }

    /// True if `[lo, hi)` is already fully covered by buffered OOO data.
    fn holds(&self, lo: u64, hi: u64) -> bool {
        self.ooo
            .range(..=lo)
            .next_back()
            .is_some_and(|(&s, &e)| s <= lo && e >= hi)
    }

    /// Merge `[lo, hi)` into the reassembly state and advance `expected`.
    /// Returns the duplicate bytes: all of them when the whole range was
    /// already acknowledged, else none.
    fn insert_range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= self.expected {
            return hi - lo;
        }
        let lo = lo.max(self.expected);
        if lo > self.expected {
            // Out-of-order: stash, coalescing overlaps.
            let mut new_lo = lo;
            let mut new_hi = hi;
            // Absorb any stored range that overlaps or touches [lo, hi).
            let overlapping: Vec<u64> = self
                .ooo
                .range(..=new_hi)
                .filter(|&(_, &e)| e >= new_lo)
                .map(|(&s, _)| s)
                .collect();
            for s in overlapping {
                let e = self.ooo.remove(&s).expect("key just seen");
                self.ooo_bytes -= e - s;
                new_lo = new_lo.min(s);
                new_hi = new_hi.max(e);
            }
            self.ooo.insert(new_lo, new_hi);
            self.ooo_bytes += new_hi - new_lo;
            return 0;
        }
        // In-order: advance, then drain any now-contiguous stashed ranges.
        self.expected = hi;
        while let Some((&s, &e)) = self.ooo.first_key_value() {
            if s > self.expected {
                break;
            }
            self.ooo.remove(&s);
            self.ooo_bytes -= e - s;
            if e > self.expected {
                self.expected = e;
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::testutil::CtxHarness;
    use netsim::{register_flows, FlowSpec, SimTime, MSS};

    /// Drive insert_range directly (the ctx-dependent path is covered by
    /// the integration tests).
    fn rx(size: u64) -> Receiver {
        Receiver::new(0, size)
    }

    #[test]
    fn in_order_advances() {
        let mut r = rx(3000);
        r.insert_range(0, 1000);
        assert_eq!(r.expected(), 1000);
        r.insert_range(1000, 2000);
        assert_eq!(r.expected(), 2000);
        r.insert_range(2000, 3000);
        assert_eq!(r.expected(), 3000);
    }

    #[test]
    fn gap_holds_ack_then_drains() {
        let mut r = rx(3000);
        r.insert_range(1000, 2000); // gap at 0..1000
        assert_eq!(r.expected(), 0);
        r.insert_range(2000, 3000);
        assert_eq!(r.expected(), 0);
        r.insert_range(0, 1000); // fills the hole; everything drains
        assert_eq!(r.expected(), 3000);
        assert!(r.ooo.is_empty());
    }

    #[test]
    fn duplicate_data_is_counted_not_harmful() {
        let mut r = rx(2000);
        assert_eq!(r.insert_range(0, 1000), 0);
        assert_eq!(r.insert_range(0, 1000), 1000);
        assert_eq!(r.expected(), 1000);
    }

    #[test]
    fn overlapping_ooo_ranges_coalesce() {
        let mut r = rx(10_000);
        r.insert_range(2000, 4000);
        r.insert_range(3000, 5000);
        r.insert_range(7000, 8000);
        assert_eq!(r.ooo.len(), 2);
        assert_eq!(r.ooo.get(&2000), Some(&5000));
        r.insert_range(0, 2000);
        assert_eq!(r.expected(), 5000);
        assert_eq!(r.ooo.len(), 1);
        r.insert_range(5000, 7000);
        assert_eq!(r.expected(), 8000);
        assert!(r.ooo.is_empty());
    }

    #[test]
    fn adjacent_ranges_merge() {
        let mut r = rx(10_000);
        r.insert_range(2000, 3000);
        r.insert_range(3000, 4000);
        assert_eq!(r.ooo.len(), 1);
        assert_eq!(r.ooo.get(&2000), Some(&4000));
    }

    #[test]
    fn ooo_occupancy_tracks_stash_coalesce_and_drain() {
        let mut r = rx(10_000);
        r.insert_range(2000, 4000);
        assert_eq!(r.ooo_bytes, 2000);
        r.insert_range(3000, 5000); // coalesces with 2000..4000
        assert_eq!(r.ooo_bytes, 3000);
        r.insert_range(7000, 8000);
        assert_eq!(r.ooo_bytes, 4000);
        r.insert_range(0, 2000); // fills the hole; 2000..5000 drains
        assert_eq!(r.expected(), 5000);
        assert_eq!(r.ooo_bytes, 1000);
        r.insert_range(5000, 7000);
        assert_eq!(r.expected(), 8000);
        assert_eq!(r.ooo_bytes, 0);
        // Fully-stale retransmit: counted as dup, no occupancy change.
        assert_eq!(r.insert_range(0, 1000), 1000);
        assert_eq!(r.ooo_bytes, 0);
    }

    #[test]
    fn partial_overlap_with_expected_trims() {
        let mut r = rx(10_000);
        r.insert_range(0, 1500);
        // Retransmit covering old + new data.
        r.insert_range(1000, 2500);
        assert_eq!(r.expected(), 2500);
    }

    /// The flow's last segment ends exactly at the top of the 32-bit
    /// sequence space: it arrives early, then the hole before it, then a
    /// duplicate of it — each ACK's number, `rcv_high` and DSACK bit are
    /// those of any other flow's tail.
    #[test]
    fn segments_ending_at_the_top_of_sequence_space_are_acked_right() {
        const END: u64 = u32::MAX as u64;
        let (a, b) = (END - 2 * MSS as u64, END - MSS as u64);
        let spec = FlowSpec::tcp(0, 1, 0, END, SimTime::ZERO);
        let mut h = CtxHarness::new(1);
        register_flows(h.recorder_mut(), std::slice::from_ref(&spec));
        // Every byte before `a` has arrived in order.
        let mut r = Receiver {
            expected: a,
            max_seen: a - MSS as u64,
            ..rx(END)
        };
        for seq in [b, a, b] {
            let seg = Packet::data(0, spec.key(), 0, seq, MSS, SimTime::ZERO);
            r.on_data(&seg, &mut h.ctx());
        }
        assert!(r.is_complete());
        let (acks, _) = h.drain();
        let seen: Vec<_> = acks
            .iter()
            .map(|p| (p.ack, p.rcv_high, p.flags.has(Flags::DSACK)))
            .collect();
        let (a, b) = (a as u32, b as u32);
        assert_eq!(
            seen,
            [(a, b, false), (u32::MAX, b, false), (u32::MAX, b, true)]
        );
    }

    #[test]
    fn a_dormant_record_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Dormant>(), 16);
        assert!(!Dormant::new(1).is_retired());
    }
}
