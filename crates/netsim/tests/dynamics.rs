//! Simulator dynamics under adverse events: link flapping, PFC
//! back-pressure reaching hosts, and queue occupancy around failures.

use netsim::testutil::{Blaster, CountingSink, RxLog};
use netsim::{
    Counter, FaultPlan, HashConfig, LinkSpec, RoutingTable, SeriesKey, SimTime, Simulator,
    SwitchConfig, TelemetryConfig,
};

fn line_topology(pfc: bool) -> (Simulator, u32, u32, u32) {
    // h0 -- sw -- h1
    let mut sim = Simulator::new(3);
    let h0 = sim.add_host(SimTime::ZERO, SimTime::ZERO);
    let h1 = sim.add_host(SimTime::ZERO, SimTime::ZERO);
    let sw = if pfc {
        sim.add_switch(SwitchConfig::detail())
    } else {
        sim.add_switch(SwitchConfig::commodity(HashConfig::FiveTuple))
    };
    sim.connect(h0, sw, LinkSpec::host_10g());
    // Slow egress toward h1 so the switch must buffer.
    let mut slow = LinkSpec::host_10g();
    slow.rate_bps = 1_000_000_000;
    sim.connect(h1, sw, slow);
    let mut rt = RoutingTable::new(2);
    rt.set(0, vec![0]);
    rt.set(1, vec![1]);
    sim.set_routes(sw, rt);
    (sim, h0, h1, sw)
}

#[test]
fn link_flap_black_holes_then_recovers() {
    let (mut sim, h0, h1, sw) = line_topology(false);
    let log = RxLog::shared();
    let mut b = Blaster::new(h1, 200, RxLog::shared());
    b.gap = SimTime::from_us(20); // 200 packets over 4ms
    sim.set_agent(h0, Box::new(b));
    sim.set_agent(h1, Box::new(CountingSink { log: log.clone() }));
    // Down from 1ms to 2ms.
    sim.install_faults(FaultPlan::new().flap(sw, 1, SimTime::from_ms(1), SimTime::from_ms(2)));
    sim.run_to_quiescence();
    let arrivals = log.borrow().arrivals.clone();
    // Some packets lost during the outage, but traffic resumed after.
    let drops = sim.recorder().get(Counter::LinkDrops);
    assert!(drops > 10, "outage should drop packets: {drops}");
    assert!(
        arrivals.len() > 100,
        "traffic must resume: {}",
        arrivals.len()
    );
    assert_eq!(arrivals.len() + drops as usize, 200);
    // Deliveries exist on both sides of the outage window.
    assert!(arrivals.iter().any(|&(t, _, _)| t < SimTime::from_ms(1)));
    assert!(arrivals.iter().any(|&(t, _, _)| t > SimTime::from_ms(2)));
}

#[test]
fn pfc_backpressure_reaches_the_host_and_is_lossless() {
    // A 10G sender into a 1G egress behind a PFC switch: without PFC the
    // lossless claim fails at small buffers; with PFC the host NIC gets
    // paused and nothing is dropped.
    let (mut sim, h0, h1, sw) = line_topology(true);
    let log = RxLog::shared();
    sim.set_agent(h0, Box::new(Blaster::new(h1, 2_000, RxLog::shared())));
    sim.set_agent(h1, Box::new(CountingSink { log: log.clone() }));
    sim.run_to_quiescence();
    assert_eq!(
        log.borrow().arrivals.len(),
        2_000,
        "PFC fabric must deliver everything"
    );
    assert_eq!(sim.recorder().get(Counter::QueueDrops), 0);
    assert!(
        sim.recorder().get(Counter::PfcPauses) > 0,
        "pause frames must have fired"
    );
    assert_eq!(
        sim.recorder().get(Counter::PfcPauses),
        sim.recorder().get(Counter::PfcResumes),
        "every pause is eventually resumed"
    );
    // The switch's buffered backlog stayed near the PFC thresholds, far
    // below what 2000 x 1500B (3MB) would otherwise pile up.
    let stats = sim.port_stats(sw, 1);
    assert!(
        stats.queue.max_bytes < 100_000,
        "PFC should bound switch occupancy, saw {}",
        stats.queue.max_bytes
    );
}

#[test]
fn watcher_sees_the_queue_grow_and_drain_around_an_outage() {
    let (mut sim, h0, h1, sw) = line_topology(false);
    let mut b = Blaster::new(h1, 300, RxLog::shared());
    b.gap = SimTime::from_us(15);
    sim.set_agent(h0, Box::new(b));
    // Outage 1..2ms: the egress queue to h1 piles up during it.
    sim.install_faults(FaultPlan::new().flap(sw, 1, SimTime::from_ms(1), SimTime::from_ms(2)));
    sim.set_telemetry(TelemetryConfig::every(SimTime::from_us(50)));
    sim.run_to_quiescence();
    let key = SeriesKey::QueueDepth { node: sw, port: 1 };
    let series = sim.recorder().telemetry().series();
    let samples = series.iter().find(|s| s.key() == key).unwrap().points();
    let max_during = samples
        .iter()
        .filter(|&&(t, _)| t > SimTime::from_ms(1) && t < SimTime::from_ms(2))
        .map(|&(_, b)| b as u64)
        .max()
        .unwrap();
    // Note: during the outage the switch *drains* its queue into the void
    // (black-holing), so occupancy during the outage stays bounded; after
    // recovery the queue drains normally to zero.
    assert_eq!(sim.conservation().in_flight, 0, "nothing left queued");
    assert!(max_during < 2_000_000, "occupancy bounded: {max_during}");
}
