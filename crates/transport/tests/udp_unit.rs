//! Direct unit tests of the CBR UDP sender through a `CtxHarness`.

use netsim::testutil::CtxHarness;
use netsim::{FlowKey, Proto, SimTime, MSS};
use transport::UdpSender;

fn key() -> FlowKey {
    FlowKey {
        src: 0,
        dst: 1,
        sport: 9,
        dport: 10,
        proto: Proto::Udp,
    }
}

#[test]
fn ticks_space_datagrams_at_the_configured_rate() {
    let mut h = CtxHarness::new(1);
    // 1 Gbps, 1500B wire frames -> 12 us per frame.
    let mut u = UdpSender::new(0, key(), 1_000_000_000, u64::MAX);
    let mut now = SimTime::ZERO;
    for i in 0..5u64 {
        h.now = now;
        let next = {
            let mut ctx = h.ctx();
            u.tick(&mut ctx)
        };
        let next = next.expect("unbounded sender always continues");
        assert_eq!(next, now + SimTime::from_us(12), "tick {i}");
        now = next;
    }
    let (pkts, _) = h.drain();
    assert_eq!(pkts.len(), 5);
    assert_eq!(u.sent_pkts(), 5);
    for (i, p) in pkts.iter().enumerate() {
        assert_eq!(p.seq, i as u32 * MSS);
        assert_eq!(p.payload as u32, MSS);
        assert_eq!(p.key.proto, Proto::Udp);
    }
}

#[test]
fn bounded_sender_stops_after_budget() {
    let mut h = CtxHarness::new(1);
    // 2.5 segments of budget: expect MSS, MSS, then a 730-byte runt.
    let total = 2 * MSS as u64 + 730;
    let mut u = UdpSender::new(0, key(), 10_000_000_000, total);
    let mut ticks = 0;
    loop {
        let next = {
            let mut ctx = h.ctx();
            u.tick(&mut ctx)
        };
        ticks += 1;
        if next.is_none() {
            break;
        }
        assert!(ticks < 10, "runaway");
    }
    let (pkts, _) = h.drain();
    assert_eq!(pkts.len(), 3);
    assert_eq!(pkts[2].payload, 730);
    let sent: u64 = pkts.iter().map(|p| p.payload as u64).sum();
    assert_eq!(sent, total);
}

#[test]
fn pinned_sender_never_changes_v() {
    let mut h = CtxHarness::new(1);
    let mut u = UdpSender::new(0, key(), 10_000_000_000, u64::MAX);
    for _ in 0..50 {
        let mut ctx = h.ctx();
        u.tick(&mut ctx);
    }
    let (pkts, _) = h.drain();
    assert!(pkts.iter().all(|p| p.vfield == pkts[0].vfield));
}

#[test]
fn spraying_sender_redraws_v_on_schedule() {
    let mut h = CtxHarness::new(1);
    let mut u = UdpSender::new(0, key(), 10_000_000_000, u64::MAX).with_spray(8);
    for _ in 0..64 {
        let mut ctx = h.ctx();
        u.tick(&mut ctx);
    }
    let (pkts, _) = h.drain();
    // Within each burst of 8 the V is constant...
    for burst in pkts.chunks(8) {
        assert!(burst.iter().all(|p| p.vfield == burst[0].vfield));
    }
    // ...and across the 8 bursts at least two distinct V values appear.
    let vs: std::collections::HashSet<u8> = pkts.chunks(8).map(|b| b[0].vfield).collect();
    assert!(vs.len() >= 2, "spray never moved: {vs:?}");
}
