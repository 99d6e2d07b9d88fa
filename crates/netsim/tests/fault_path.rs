//! The single fault path: one `Fault` event per plan step, applied through
//! the immediate setters — both directions of the link where the action is
//! both-direction, the named egress only where it is directional, every
//! port of the switch for `SwitchDown/Up` — and never into the past. Link
//! rates are set before the run and fixed once it has started.

use std::cell::RefCell;
use std::rc::Rc;

use netsim::event::EventKind;
use netsim::testutil::{Blaster, RxLog};
use netsim::{
    DetRng, DropReason, FaultAction, FaultPlan, HashConfig, LinkSpec, NodeId, PortId, RoutingTable,
    SimTime, Simulator, SwitchConfig,
};

const PACKETS: u32 = 100;
const GAP: SimTime = SimTime::from_us(10);
/// A quarter and a half of the way through every host's burst.
const QUARTER: SimTime = SimTime::from_us(250);
const HALF: SimTime = SimTime::from_us(500);

/// `n` hosts (ids `0..n`, no stack delays) on one switch (id `n`, port `i`
/// towards host `i`); host `i` sends [`PACKETS`] packets, one per [`GAP`],
/// to host `i + 1` and logs what it receives.
fn ring_on_a_star(n: u32) -> (Simulator, NodeId, Vec<Rc<RefCell<RxLog>>>) {
    let mut sim = Simulator::new(7);
    let hosts: Vec<NodeId> = (0..n)
        .map(|_| sim.add_host(SimTime::ZERO, SimTime::ZERO))
        .collect();
    let sw = sim.add_switch(SwitchConfig::commodity(HashConfig::FiveTuple));
    let mut rt = RoutingTable::new(n as usize);
    for &h in &hosts {
        let (_, sw_port) = sim.connect(h, sw, LinkSpec::host_10g());
        rt.set(h, vec![sw_port]);
    }
    sim.set_routes(sw, rt);
    let logs: Vec<_> = hosts.iter().map(|_| RxLog::shared()).collect();
    for &h in &hosts {
        let mut b = Blaster::new((h + 1) % n, PACKETS, logs[h as usize].clone());
        b.gap = GAP;
        b.flow = h;
        sim.set_agent(h, Box::new(b));
    }
    (sim, sw, logs)
}

/// Per-egress drop counts for `reason`, sorted by `(node, port)`.
fn drops_by_port(sim: &Simulator, reason: DropReason) -> Vec<((NodeId, PortId), u64)> {
    let rows = sim.recorder().drops().per_port();
    rows.into_iter()
        .map(|(at, by_reason)| (at, by_reason[reason as usize]))
        .filter(|&(_, n)| n > 0)
        .collect()
}

/// Two hosts, both sending; `action` fires a quarter of the way in.
fn two_way_run(action: FaultAction) -> (Simulator, [usize; 2]) {
    let (mut sim, _sw, logs) = ring_on_a_star(2);
    sim.install_faults(FaultPlan::new().at(QUARTER, action));
    sim.run_to_quiescence();
    sim.assert_conservation();
    let got = [0, 1].map(|h: usize| logs[h].borrow().arrivals.len());
    (sim, got)
}

#[test]
fn one_event_per_plan_step_whatever_it_touches() {
    let fault = EventKind::NAMES.iter().position(|&n| n == "fault").unwrap();
    for seed in 0..8 {
        let (mut sim, sw, _logs) = ring_on_a_star(3);
        let links = [(0, 0), (sw, 1), (sw, 2)];
        let mut rng = DetRng::new(seed, 0xFA17);
        let mut plan = FaultPlan::randomized(&mut rng, &links, SimTime::from_us(800), 0.2);
        plan.switch_outage(sw, SimTime::from_us(300), SimTime::from_us(500));
        sim.install_faults(&plan);
        sim.run_to_quiescence();
        sim.assert_conservation();
        // A flap step touches two egresses and the outage six; each is
        // still one event.
        assert_eq!(sim.event_mix()[fault], plan.len() as u64, "seed {seed}");
    }
}

#[test]
fn link_down_black_holes_both_directions() {
    let (node, port) = (2, 1); // the switch's port towards h1
    let (sim, got) = two_way_run(FaultAction::LinkState {
        node,
        port,
        up: false,
    });
    // h0 -> h1 dies at the switch egress, h1 -> h0 at h1's NIC: one step,
    // both ends of the link.
    let down = drops_by_port(&sim, DropReason::LinkDown);
    let ends = [sim.peer_of(node, port), (node, port)];
    assert_eq!(down.iter().map(|r| r.0).collect::<Vec<_>>(), ends);
    for (h, (_, lost)) in [1, 0].into_iter().zip(down) {
        assert!((25..PACKETS as usize).contains(&got[h]), "{got:?}");
        assert_eq!(got[h] as u64 + lost, PACKETS as u64);
    }
}

#[test]
fn link_rate_changes_both_directions() {
    let (node, port, rate_bps) = (2, 1, 1_000_000_000);
    let (mut sim, _sw, logs) = ring_on_a_star(2);
    let (peer, peer_port) = sim.peer_of(node, port);
    sim.set_link_rate(node, port, rate_bps);
    let rates = [sim.link_rate(node, port), sim.link_rate(peer, peer_port)];
    assert_eq!(rates, [rate_bps; 2], "one call, both ports");
    assert_eq!(sim.link_rate(0, 0), 10_000_000_000, "other link untouched");
    sim.run_to_quiescence();
    // Each host's first packet crosses one 10G and one 1G serialization:
    // h0 -> h1 leaves the switch on the slow egress, h1 -> h0 leaves h1 on
    // the slow NIC.
    let (fast, slow) = (
        SimTime::serialization(1500, 10_000_000_000),
        SimTime::serialization(1500, rate_bps),
    );
    let hops = SimTime::from_ns(100 + 1_000 + 100); // wire, switch, wire
    for log in &logs {
        assert_eq!(log.borrow().arrivals[0].0, fast + slow + hops);
    }
}

#[test]
#[should_panic(expected = "link rates are fixed once the run has started")]
fn a_rate_change_once_the_run_has_started_is_rejected() {
    let (mut sim, sw, _logs) = ring_on_a_star(2);
    sim.run_until(QUARTER);
    sim.set_link_rate(sw, 1, 1_000_000_000);
}

#[test]
fn gray_loss_and_corruption_hit_the_named_egress_only() {
    let (node, port) = (2, 1);
    let certain = [
        (
            FaultAction::GrayLoss {
                node,
                port,
                loss: 1.0,
            },
            DropReason::GrayLoss,
        ),
        (
            FaultAction::Corruption {
                node,
                port,
                ber: 1.0,
            },
            DropReason::Corruption,
        ),
    ];
    for (action, reason) in certain {
        let (sim, got) = two_way_run(action);
        // h0 -> h1 crosses the faulted egress; h1 -> h0 leaves through the
        // same link's other direction and loses nothing.
        let lost = drops_by_port(&sim, reason);
        assert_eq!(lost.len(), 1, "{reason:?}: {lost:?}");
        assert_eq!(lost[0].0, (node, port));
        assert_eq!(got[1] as u64 + lost[0].1, PACKETS as u64);
        assert!(lost[0].1 > PACKETS as u64 / 2);
        assert_eq!(got[0], PACKETS as usize, "{reason:?}: reverse direction");
        assert_eq!(sim.conservation().dropped_total(), lost[0].1);
    }
}

#[test]
fn switch_down_darkens_every_port_and_switch_up_restores_them() {
    let (mut sim, sw, logs) = ring_on_a_star(3);
    let (down_at, up_at) = (SimTime::from_us(300), SimTime::from_us(600));
    sim.install_faults(FaultPlan::new().switch_outage(sw, down_at, up_at));
    sim.run_to_quiescence();
    sim.assert_conservation();
    // Every host keeps sending into the outage: each NIC (the far end of
    // one switch port) black-holes, as does every switch egress that still
    // had a packet coming.
    let down = drops_by_port(&sim, DropReason::LinkDown);
    for at in [(0, 0), (1, 0), (2, 0)] {
        let lost = down.iter().find(|r| r.0 == at).map_or(0, |r| r.1);
        assert!((25..=31).contains(&lost), "{at:?}: {down:?}");
    }
    // One switch hop plus two serializations after the crash, nothing more
    // gets through until the revival — and then every host hears again.
    let settle = SimTime::from_us(4);
    for (h, log) in logs.iter().enumerate() {
        let times: Vec<SimTime> = log.borrow().arrivals.iter().map(|a| a.0).collect();
        assert!(times.iter().any(|&t| t < down_at), "host {h}");
        assert!(
            !times.iter().any(|&t| t > down_at + settle && t < up_at),
            "host {h} heard something during the outage"
        );
        assert!(times.iter().any(|&t| t > up_at), "host {h} after revival");
        let lost = sim.conservation().dropped_total() as usize;
        assert!(times.len() >= PACKETS as usize - lost, "host {h}");
    }
}

#[test]
#[should_panic(
    expected = "fault plan step 1 (LinkState { node: 2, port: 1, up: false }) is due at \
                400.000us, before the current time 1.000ms"
)]
fn a_step_in_the_past_is_rejected_at_install() {
    let (mut sim, sw, _logs) = ring_on_a_star(2);
    sim.run_until(SimTime::from_ms(1));
    let mut plan = FaultPlan::new();
    plan.gray_loss(sw, 0, 0.5, SimTime::from_ms(2));
    plan.kill(sw, 1, SimTime::from_us(400));
    sim.install_faults(&plan);
}

#[test]
fn a_step_due_right_now_is_accepted_midrun() {
    let (mut sim, sw, logs) = ring_on_a_star(2);
    let now = HALF;
    sim.run_until(now);
    sim.install_faults(FaultPlan::new().kill(sw, 1, now));
    sim.run_to_quiescence();
    assert!(sim.now() >= now, "the clock never runs backwards");
    let lost = drops_by_port(&sim, DropReason::LinkDown);
    assert_eq!(lost.len(), 2, "both directions from `now` on: {lost:?}");
    let delivered: usize = logs.iter().map(|l| l.borrow().arrivals.len()).sum();
    let dropped = sim.conservation().dropped_total() as usize;
    assert_eq!(delivered + dropped, 2 * PACKETS as usize);
}
