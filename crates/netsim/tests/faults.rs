//! The fault-injection layer end to end: gray loss, corruption, flap
//! plans, and the packet-conservation audit.

use netsim::testutil::{Blaster, CountingSink, RxLog};
use netsim::{
    Counter, DetRng, DropReason, FaultPlan, HashConfig, LinkSpec, RoutingTable, SimTime, Simulator,
    SwitchConfig,
};

/// h0 -- sw -- h1 with zero host stack delays (so wire timing is exact).
fn line_topology(seed: u64) -> (Simulator, u32, u32, u32) {
    let mut sim = Simulator::new(seed);
    let h0 = sim.add_host(SimTime::ZERO, SimTime::ZERO);
    let h1 = sim.add_host(SimTime::ZERO, SimTime::ZERO);
    let sw = sim.add_switch(SwitchConfig::commodity(HashConfig::FiveTuple));
    sim.connect(h0, sw, LinkSpec::host_10g());
    sim.connect(h1, sw, LinkSpec::host_10g());
    let mut rt = RoutingTable::new(2);
    rt.set(0, vec![0]);
    rt.set(1, vec![1]);
    sim.set_routes(sw, rt);
    (sim, h0, h1, sw)
}

fn run_gray(seed: u64, loss: f64, count: u32) -> (Simulator, usize) {
    let (mut sim, h0, h1, sw) = line_topology(seed);
    let log = RxLog::shared();
    sim.set_agent(h0, Box::new(Blaster::new(h1, count, RxLog::shared())));
    sim.set_agent(h1, Box::new(CountingSink { log: log.clone() }));
    let mut plan = FaultPlan::new();
    plan.gray_loss(sw, 1, loss, SimTime::ZERO);
    sim.install_faults(&plan);
    sim.run_to_quiescence();
    let arrivals = log.borrow().arrivals.len();
    (sim, arrivals)
}

#[test]
fn gray_loss_drops_expected_fraction_and_conserves() {
    let (sim, arrivals) = run_gray(11, 0.10, 1000);
    let audit = sim.recorder().drops();
    let gray = audit.by_reason(DropReason::GrayLoss);
    assert!(
        (40..=200).contains(&gray),
        "10% of 1000 should lose roughly 100 packets, lost {gray}"
    );
    assert_eq!(arrivals as u64 + gray, 1000, "every packet accounted");
    // The audit localizes the loss to the faulted egress.
    let rows = audit.per_port();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].0, (2, 1), "all drops at the sw->h1 egress");
    // Gray loss is not congestion loss and not an administrative outage.
    assert_eq!(sim.recorder().get(Counter::QueueDrops), 0);
    assert_eq!(sim.recorder().get(Counter::LinkDrops), 0);
    sim.assert_conservation();
    let c = sim.conservation();
    assert_eq!(c.injected, 1000);
    assert_eq!(c.delivered, arrivals as u64);
    assert_eq!(c.in_flight, 0);
}

#[test]
fn gray_loss_is_deterministic() {
    let a = run_gray(42, 0.05, 500);
    let b = run_gray(42, 0.05, 500);
    assert_eq!(a.1, b.1, "same seed, same survivors");
    assert_eq!(
        a.0.conservation(),
        b.0.conservation(),
        "same seed, same ledger"
    );
    assert_eq!(a.0.events_processed(), b.0.events_processed());
    let c = run_gray(43, 0.05, 500);
    assert_eq!(c.0.conservation().injected, 500);
}

#[test]
fn corruption_counts_separately_from_gray_loss() {
    let (mut sim, h0, h1, sw) = line_topology(5);
    let log = RxLog::shared();
    sim.set_agent(h0, Box::new(Blaster::new(h1, 1000, RxLog::shared())));
    sim.set_agent(h1, Box::new(CountingSink { log: log.clone() }));
    // BER tuned so a 1500B (12000-bit) packet dies with p ~ 0.1.
    let mut plan = FaultPlan::new();
    plan.corruption(sw, 1, 8.8e-6, SimTime::ZERO);
    sim.install_faults(&plan);
    sim.run_to_quiescence();
    let audit = sim.recorder().drops();
    let corrupted = audit.by_reason(DropReason::Corruption);
    assert!(
        (40..=200).contains(&corrupted),
        "~10% per-packet corruption expected, saw {corrupted}"
    );
    assert_eq!(audit.by_reason(DropReason::GrayLoss), 0);
    assert_eq!(
        log.borrow().arrivals.len() as u64 + corrupted,
        1000,
        "every packet accounted"
    );
    sim.assert_conservation();
}

#[test]
fn flap_plan_black_holes_then_recovers() {
    // The FaultPlan generalization of the scripted link_flap dynamics test.
    let (mut sim, h0, h1, sw) = line_topology(3);
    let log = RxLog::shared();
    let mut b = Blaster::new(h1, 200, RxLog::shared());
    b.gap = SimTime::from_us(20); // 200 packets over 4ms
    sim.set_agent(h0, Box::new(b));
    sim.set_agent(h1, Box::new(CountingSink { log: log.clone() }));
    let mut plan = FaultPlan::new();
    plan.flap(sw, 1, SimTime::from_ms(1), SimTime::from_ms(2));
    sim.install_faults(&plan);
    sim.run_to_quiescence();
    let arrivals = log.borrow().arrivals.clone();
    let down = sim.recorder().drops().by_reason(DropReason::LinkDown);
    assert!(down > 10, "outage should drop packets: {down}");
    assert_eq!(arrivals.len() as u64 + down, 200);
    assert!(arrivals.iter().any(|&(t, _, _)| t > SimTime::from_ms(2)));
    sim.assert_conservation();
}

#[test]
fn randomized_plans_conserve_across_seeds() {
    // Conservation under arbitrary flap + gray-loss schedules on both
    // links, across seeds: the audit must balance no matter what the plan
    // does to the topology.
    for seed in 0..8 {
        let (mut sim, h0, h1, sw) = line_topology(seed);
        let log = RxLog::shared();
        let mut b = Blaster::new(h1, 300, RxLog::shared());
        b.gap = SimTime::from_us(10);
        sim.set_agent(h0, Box::new(b));
        sim.set_agent(h1, Box::new(CountingSink { log: log.clone() }));
        let mut rng = DetRng::new(seed, 0xFA17);
        let links = [(h0, 0u16), (sw, 1u16)];
        let plan = FaultPlan::randomized(&mut rng, &links, SimTime::from_ms(3), 0.2);
        sim.install_faults(&plan);
        sim.run_to_quiescence();
        sim.assert_conservation();
        let c = sim.conservation();
        assert_eq!(c.injected, 300, "seed {seed}");
        assert_eq!(c.in_flight, 0, "seed {seed}: quiesced runs park nothing");
        assert_eq!(c.delivered + c.dropped_total(), 300, "seed {seed}: {c:?}");
        assert_eq!(log.borrow().arrivals.len() as u64, c.delivered);
    }
}
