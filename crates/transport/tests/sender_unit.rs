//! Direct unit tests of the TCP sender state machine, driven through a
//! [`netsim::testutil::CtxHarness`] — no network, just the protocol logic:
//! window growth, fast retransmit entry, DCTCP's alpha arithmetic and its
//! once-per-window cut, DSACK undo, go-back-N timeouts, and FlowBender
//! V-field stamping.

use netsim::testutil::CtxHarness;
use netsim::{Counter, Flags, FlowKey, Packet, Proto, SimTime, MSS};
use transport::{TcpConfig, TcpSender, TimerOutcome};

fn key() -> FlowKey {
    FlowKey {
        src: 0,
        dst: 1,
        sport: 1000,
        dport: 80,
        proto: Proto::Tcp,
    }
}

fn mk_sender(h: &mut CtxHarness, size: u64, cfg: TcpConfig) -> (TcpSender, Option<SimTime>) {
    let mut ctx = h.ctx();
    let mut s = TcpSender::new(0, key(), size, cfg, None, 0, &mut ctx);
    let deadline = s.start(&mut ctx);
    (s, deadline)
}

/// Build an ACK for the flow with the given cumulative number.
fn ack(num: u64, ece: bool, rcv_high: u64, now: SimTime) -> Packet {
    let mut a = Packet::ack_packet(0, key(), 0, num, now);
    if ece {
        a.flags.set(Flags::ECE);
    }
    a.rcv_high = rcv_high as u32;
    a
}

fn dsack(num: u64, rcv_high: u64, now: SimTime) -> Packet {
    let mut a = ack(num, false, rcv_high, now);
    a.flags.set(Flags::DSACK);
    a
}

#[test]
fn initial_window_is_ten_segments() {
    let mut h = CtxHarness::new(1);
    let (_s, _) = mk_sender(&mut h, 10_000_000, TcpConfig::default());
    let (pkts, _) = h.drain();
    assert_eq!(pkts.len(), 10);
    for (i, p) in pkts.iter().enumerate() {
        assert_eq!(p.seq, i as u32 * MSS);
        assert_eq!(p.payload as u32, MSS);
        assert!(!p.flags.has(Flags::ACK));
    }
}

/// TCP's sequence space is 32 bits: a longer flow is refused when its
/// sender is made, naming the flow.
#[test]
#[should_panic(expected = "flow 0: 4294967296 B does not fit TCP's 32-bit sequence space")]
fn a_flow_past_32_bit_sequence_space_is_refused() {
    let mut h = CtxHarness::new(1);
    mk_sender(&mut h, u32::MAX as u64 + 1, TcpConfig::default());
}

#[test]
fn slow_start_doubles_per_round() {
    let mut h = CtxHarness::new(1);
    let (mut s, _) = mk_sender(&mut h, 100_000_000, TcpConfig::default());
    let (first, _) = h.drain();
    assert_eq!(first.len(), 10);
    // ACK the whole initial window, one ACK per segment: each ACK grows
    // cwnd by one MSS and releases two new segments.
    h.now = SimTime::from_us(100);
    for i in 1..=10u64 {
        let mut ctx = h.ctx();
        s.on_ack(&ack(i * MSS as u64, false, 0, SimTime::ZERO), &mut ctx);
    }
    let (second, _) = h.drain();
    assert_eq!(second.len(), 20, "slow start should double the window");
    assert!((s.cwnd() - 20.0 * MSS as f64).abs() < 1.0);
}

#[test]
fn dctcp_reduction_uses_alpha_once_per_window() {
    let mut h = CtxHarness::new(1);
    let (mut s, _) = mk_sender(&mut h, 100_000_000, TcpConfig::default());
    h.drain();
    let w0 = s.cwnd();
    // alpha starts at 1.0: the first ECE halves cwnd exactly once even if
    // several marked ACKs arrive in the same window.
    h.now = SimTime::from_us(100);
    for i in 1..=3u64 {
        let mut ctx = h.ctx();
        s.on_ack(&ack(i * MSS as u64, true, 0, SimTime::ZERO), &mut ctx);
    }
    assert!(
        (s.cwnd() - w0 / 2.0).abs() < 2.0 * MSS as f64,
        "cwnd {} vs {}",
        s.cwnd(),
        w0
    );
    assert_eq!(
        s.alpha(),
        1.0,
        "alpha updates at the window boundary, not before"
    );
    // Complete the window: alpha EWMA moves toward the marked fraction.
    for i in 4..=10u64 {
        let mut ctx = h.ctx();
        s.on_ack(&ack(i * MSS as u64, false, 0, SimTime::ZERO), &mut ctx);
    }
    let expect = (1.0 - 1.0 / 16.0) * 1.0 + (1.0 / 16.0) * 0.3;
    assert!(
        (s.alpha() - expect).abs() < 1e-9,
        "alpha {} vs {}",
        s.alpha(),
        expect
    );
}

#[test]
fn three_dupacks_trigger_fast_retransmit() {
    let mut h = CtxHarness::new(1);
    let (mut s, _) = mk_sender(&mut h, 100_000_000, TcpConfig::default());
    h.drain();
    h.now = SimTime::from_us(100);
    // Segment 0 lost: dupacks at cumack 0 with growing rcv_high.
    for d in 1..=3u64 {
        let mut ctx = h.ctx();
        s.on_ack(&ack(0, false, d * MSS as u64, SimTime::ZERO), &mut ctx);
    }
    let (pkts, _) = h.drain();
    // Exactly one retransmission of the first segment.
    assert_eq!(pkts.len(), 1);
    assert_eq!(pkts[0].seq, 0);
    assert_eq!(h.recorder().get(Counter::Retransmits), 1);
}

#[test]
fn dsack_undoes_spurious_recovery_and_raises_threshold() {
    let mut h = CtxHarness::new(1);
    let (mut s, _) = mk_sender(&mut h, 100_000_000, TcpConfig::default());
    h.drain();
    h.now = SimTime::from_us(100);
    let w0 = s.cwnd();
    for d in 1..=3u64 {
        let mut ctx = h.ctx();
        s.on_ack(&ack(0, false, d * MSS as u64, SimTime::ZERO), &mut ctx);
    }
    assert!(s.cwnd() < w0, "recovery must have cut cwnd");
    // The "lost" segment was merely reordered: receiver reports the
    // retransmission as a duplicate, cumack jumps past the hole.
    {
        let mut ctx = h.ctx();
        s.on_ack(
            &dsack(4 * MSS as u64, 4 * MSS as u64, SimTime::ZERO),
            &mut ctx,
        );
    }
    assert!(
        s.reorder_threshold() > 3,
        "threshold must rise after DSACK: {}",
        s.reorder_threshold()
    );
    assert!(
        s.cwnd() >= w0 * 0.9,
        "undo must restore cwnd: {} vs {}",
        s.cwnd(),
        w0
    );
}

#[test]
fn dsack_bumps_spurious_retransmit_and_undo_counters() {
    let mut h = CtxHarness::new(1);
    let (mut s, _) = mk_sender(&mut h, 100_000_000, TcpConfig::default());
    h.drain();
    h.now = SimTime::from_us(100);
    // Enter fast retransmit on a reordered (not lost) segment.
    for d in 1..=3u64 {
        let mut ctx = h.ctx();
        s.on_ack(&ack(0, false, d * MSS as u64, SimTime::ZERO), &mut ctx);
    }
    assert_eq!(h.recorder().get(Counter::Retransmits), 1);
    assert_eq!(h.recorder().get(Counter::SpuriousRetransmits), 0);
    assert_eq!(h.recorder().get(Counter::DsackUndos), 0);
    // The receiver reports the retransmission as a duplicate: one spurious
    // retransmit, one undo.
    {
        let mut ctx = h.ctx();
        s.on_ack(
            &dsack(4 * MSS as u64, 4 * MSS as u64, SimTime::ZERO),
            &mut ctx,
        );
    }
    assert_eq!(h.recorder().get(Counter::DsacksRcvd), 1);
    assert_eq!(h.recorder().get(Counter::SpuriousRetransmits), 1);
    assert_eq!(h.recorder().get(Counter::DsackUndos), 1);
    // A further DSACK outside recovery is still a spurious retransmit but
    // has nothing to undo.
    {
        let mut ctx = h.ctx();
        s.on_ack(
            &dsack(5 * MSS as u64, 5 * MSS as u64, SimTime::ZERO),
            &mut ctx,
        );
    }
    assert_eq!(h.recorder().get(Counter::SpuriousRetransmits), 2);
    assert_eq!(h.recorder().get(Counter::DsackUndos), 1);
}

#[test]
fn reorder_threshold_adaptation_caps_at_300() {
    // Pathological spray: every ACK is a DSACK and the receiver's reported
    // extent is enormous. The Linux-style adaptation must converge to the
    // sysctl cap and stay there, never overshooting.
    let mut h = CtxHarness::new(7);
    let (mut s, _) = mk_sender(&mut h, 1_000_000_000, TcpConfig::default());
    h.drain();
    h.now = SimTime::from_us(100);
    let mut ack_num = 0u64;
    for round in 1..=20u64 {
        {
            let mut ctx = h.ctx();
            ack_num += MSS as u64;
            let high = round * 1000 * MSS as u64;
            s.on_ack(&dsack(ack_num, high, SimTime::ZERO), &mut ctx);
        }
        h.drain();
        assert!(
            s.reorder_threshold() <= 300,
            "threshold overshot the cap at round {round}: {}",
            s.reorder_threshold()
        );
    }
    assert_eq!(s.reorder_threshold(), 300, "cap must be reached and held");
}

#[test]
fn rto_goes_back_n_and_halves_to_one_segment() {
    let mut h = CtxHarness::new(1);
    let (mut s, deadline) = mk_sender(&mut h, 100_000_000, TcpConfig::default());
    // The sender hands the deadline to its agent (which owns timers).
    assert_eq!(
        deadline,
        Some(SimTime::from_ms(10)),
        "RTO_min deadline at start"
    );
    h.drain();
    // Fire the timer after the 10ms deadline: genuine RTO.
    h.now = SimTime::from_ms(11);
    let outcome = {
        let mut ctx = h.ctx();
        s.on_timer(&mut ctx)
    };
    assert!(matches!(outcome, TimerOutcome::Rearm(_)));
    assert_eq!(h.recorder().get(Counter::Timeouts), 1);
    assert!(
        (s.cwnd() - MSS as f64).abs() < 1.0,
        "cwnd collapses to 1 MSS"
    );
    let (pkts, _) = h.drain();
    assert_eq!(pkts.len(), 1, "go-back-N: retransmit from snd_una only");
    assert_eq!(pkts[0].seq, 0);
}

#[test]
fn early_timer_rearms_quietly() {
    let mut h = CtxHarness::new(1);
    let (mut s, _) = mk_sender(&mut h, 1_000_000, TcpConfig::default());
    h.drain();
    // An ACK pushes the deadline forward... (echo = now, so the RTT
    // sample is ~0 and the RTO stays at the 10ms floor)
    h.now = SimTime::from_ms(5);
    {
        let now = h.now;
        let mut ctx = h.ctx();
        s.on_ack(&ack(MSS as u64, false, 0, now), &mut ctx);
    }
    // ...so the original timer event (armed for t=10ms, firing "now" at
    // 10ms while the true deadline is 15ms) must rearm, not RTO.
    h.now = SimTime::from_ms(10);
    let outcome = {
        let mut ctx = h.ctx();
        s.on_timer(&mut ctx)
    };
    match outcome {
        TimerOutcome::Rearm(deadline) => assert_eq!(deadline, SimTime::from_ms(15)),
        other => panic!("expected rearm, got {other:?}"),
    }
    assert_eq!(h.recorder().get(Counter::Timeouts), 0);
}

#[test]
fn flowbender_vfield_changes_after_marked_window() {
    let mut h = CtxHarness::new(1);
    let cfg = TcpConfig::flowbender(flowbender::Config::default());
    let (mut s, _) = mk_sender(&mut h, 100_000_000, cfg);
    let (pkts, _) = h.drain();
    let v0 = pkts[0].vfield;
    assert!(pkts.iter().all(|p| p.vfield == v0), "one V per path epoch");
    // Fully-marked initial window: F = 100% > T, reroute at the boundary.
    h.now = SimTime::from_us(100);
    for i in 1..=10u64 {
        let mut ctx = h.ctx();
        s.on_ack(&ack(i * MSS as u64, true, 0, SimTime::ZERO), &mut ctx);
    }
    let (pkts, _) = h.drain();
    assert!(!pkts.is_empty());
    let v1 = pkts.last().unwrap().vfield;
    assert_ne!(v1, v0, "flow must have bent to a new V");
    assert_eq!(h.recorder().get(Counter::Reroutes), 1);
    assert_eq!(h.recorder().get(Counter::TimeoutReroutes), 0);
}

#[test]
fn completed_sender_ignores_stray_acks() {
    let mut h = CtxHarness::new(1);
    let (mut s, _) = mk_sender(&mut h, 2_000, TcpConfig::default());
    h.drain();
    {
        let mut ctx = h.ctx();
        s.on_ack(&ack(2_000, false, 0, SimTime::ZERO), &mut ctx);
    }
    assert!(s.is_complete());
    let before = h.recorder().get(Counter::Retransmits);
    {
        let mut ctx = h.ctx();
        s.on_ack(&ack(2_000, false, 0, SimTime::ZERO), &mut ctx);
        let outcome = s.on_timer(&mut ctx);
        assert_eq!(outcome, TimerOutcome::Quiet);
    }
    assert_eq!(h.recorder().get(Counter::Retransmits), before);
    let (pkts, _) = h.drain();
    assert!(pkts.is_empty());
}

#[test]
fn fin_flag_set_on_last_segment_only() {
    let mut h = CtxHarness::new(1);
    let (_s, _) = mk_sender(&mut h, (3 * MSS) as u64, TcpConfig::default());
    let (pkts, _) = h.drain();
    assert_eq!(pkts.len(), 3);
    assert!(!pkts[0].flags.has(Flags::FIN));
    assert!(!pkts[1].flags.has(Flags::FIN));
    assert!(pkts[2].flags.has(Flags::FIN));
}

#[test]
fn cached_reorder_metric_raises_initial_threshold() {
    let mut h = CtxHarness::new(1);
    let mut ctx = h.ctx();
    let s = TcpSender::new(
        0,
        key(),
        1_000_000,
        TcpConfig::default(),
        Some(40),
        0,
        &mut ctx,
    );
    assert_eq!(
        s.reorder_threshold(),
        40,
        "per-destination cache must seed the threshold"
    );
    let s2 = TcpSender::new(1, key(), 1_000_000, TcpConfig::default(), None, 0, &mut ctx);
    assert_eq!(s2.reorder_threshold(), 3);
}
