//! Direct unit tests of the receiver — live, and once complete, when it
//! answers as its retired record would — through a
//! [`netsim::testutil::CtxHarness`].

use netsim::testutil::CtxHarness;
use netsim::{Counter, Flags, FlowKey, FlowRecord, Packet, Proto, SimTime, MSS};
use transport::Receiver;

fn key() -> FlowKey {
    FlowKey {
        src: 1,
        dst: 0,
        sport: 7,
        dport: 8,
        proto: Proto::Tcp,
    }
}

fn data(seq: u64, ce: bool) -> Packet {
    let mut p = Packet::data(0, key(), 0, seq, MSS, SimTime::ZERO);
    if ce {
        p.flags.set(Flags::CE);
    }
    p
}

fn register(h: &mut CtxHarness, size: u64) {
    h.recorder_mut().flow_started(FlowRecord {
        flow: 0,
        src: 1,
        dst: 0,
        bytes: size,
        start: SimTime::ZERO,
        end: SimTime::MAX,
        job: None,
        proto: Proto::Tcp,
    });
}

#[test]
fn per_packet_mode_acks_every_segment_with_exact_echo() {
    let mut h = CtxHarness::new(1);
    register(&mut h, 10 * MSS as u64);
    let mut rx = Receiver::new(0, 10 * MSS as u64);
    for (i, ce) in [false, true, false, true].iter().enumerate() {
        rx.on_data(&data(i as u64 * MSS as u64, *ce), &mut h.ctx());
    }
    let (pkts, timers) = h.drain();
    assert!(timers.is_empty(), "acknowledging arms no timer");
    assert_eq!(pkts.len(), 4);
    let eces: Vec<bool> = pkts.iter().map(|p| p.flags.has(Flags::ECE)).collect();
    assert_eq!(
        eces,
        vec![false, true, false, true],
        "echo must be exact per packet"
    );
    assert_eq!(pkts[3].ack, 4 * MSS);
}

/// Completion is recorded once, by the live receiver at the completing
/// segment; a duplicate that reaches it once complete records nothing.
#[test]
fn completion_is_recorded_once_regardless_of_mode() {
    let mut h = CtxHarness::new(1);
    register(&mut h, 2 * MSS as u64);
    let mut rx = Receiver::new(0, 2 * MSS as u64);
    h.now = SimTime::from_us(50);
    rx.on_data(&data(0, false), &mut h.ctx());
    rx.on_data(&data(MSS as u64, false), &mut h.ctx());
    assert!(rx.is_complete());
    h.now = SimTime::from_us(80);
    rx.on_data(&data(0, false), &mut h.ctx());
    assert_eq!(h.recorder().completed_count(), 1);
    assert_eq!(h.recorder().flows()[0].end, SimTime::from_us(50));
}

#[test]
fn reordering_telemetry_tracks_dup_bytes_and_buffer_high_water() {
    let mut h = CtxHarness::new(1);
    register(&mut h, 100 * MSS as u64);
    let mut rx = Receiver::new(0, 100 * MSS as u64);
    {
        let mut ctx = h.ctx();
        // Two out-of-order segments stash in the reassembly buffer.
        rx.on_data(&data(2 * MSS as u64, false), &mut ctx);
        rx.on_data(&data(3 * MSS as u64, false), &mut ctx);
    }
    assert_eq!(h.recorder().get(Counter::OooBytesMax), 2 * MSS as u64);
    assert_eq!(h.recorder().get(Counter::DupBytes), 0);
    {
        let mut ctx = h.ctx();
        // Fill the hole: the buffer drains, but the high-water mark sticks.
        rx.on_data(&data(0, false), &mut ctx);
        rx.on_data(&data(MSS as u64, false), &mut ctx);
    }
    assert_eq!(
        h.recorder().get(Counter::OooBytesMax),
        2 * MSS as u64,
        "high-water mark must not decay when the buffer drains"
    );
    {
        let mut ctx = h.ctx();
        // A stale retransmit: pure duplicate wire bytes.
        rx.on_data(&data(0, false), &mut ctx);
    }
    assert_eq!(h.recorder().get(Counter::DupBytes), MSS as u64);
}

/// A duplicate is DSACKed by a live receiver (more of the flow is still to
/// come) and by a complete one alike.
#[test]
fn dsack_is_flagged_in_both_modes() {
    for segments in [100, 1] {
        let mut h = CtxHarness::new(1);
        register(&mut h, segments * MSS as u64);
        let mut rx = Receiver::new(0, segments * MSS as u64);
        rx.on_data(&data(0, false), &mut h.ctx());
        assert_eq!(rx.is_complete(), segments == 1);
        rx.on_data(&data(0, false), &mut h.ctx()); // exact duplicate
        let (pkts, _) = h.drain();
        let dsacks: Vec<bool> = pkts.iter().map(|p| p.flags.has(Flags::DSACK)).collect();
        assert_eq!(dsacks, [false, true], "{segments} segments");
    }
}
