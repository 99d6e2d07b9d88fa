//! Delayed-ACK (DCTCP receiver state machine) behaviour.

use netsim::{
    Counter, FlowSpec, HashConfig, LinkSpec, RoutingTable, SimTime, Simulator, SwitchConfig,
};
use transport::{install_agents, DelAckConfig, TcpConfig};

/// `n` sender hosts with one flow each into a single receiver.
fn run_star(n: u32, bytes: u64, cfg: TcpConfig, seed: u64) -> netsim::Recorder {
    let mut sim = Simulator::new(seed);
    let senders: Vec<_> = (0..n).map(|_| sim.add_host_default()).collect();
    let rx = sim.add_host_default();
    let sw = sim.add_switch(SwitchConfig::commodity(HashConfig::FiveTupleAndVField));
    for &s in &senders {
        sim.connect(s, sw, LinkSpec::host_10g());
    }
    sim.connect(rx, sw, LinkSpec::host_10g());
    let mut rt = RoutingTable::new(n as usize + 1);
    for i in 0..n {
        rt.set(i, vec![i as u16]);
    }
    rt.set(n, vec![n as u16]);
    sim.set_routes(sw, rt);
    let specs: Vec<FlowSpec> = (0..n)
        .map(|i| FlowSpec::tcp(i, i, n, bytes, SimTime::ZERO))
        .collect();
    install_agents(&mut sim, &specs, &cfg);
    sim.run_until(SimTime::from_secs(10));
    sim.into_recorder()
}

fn delack_cfg() -> TcpConfig {
    TcpConfig {
        delack: Some(DelAckConfig::default()),
        ..TcpConfig::default()
    }
}

#[test]
fn delayed_acks_roughly_halve_ack_volume() {
    let pp = run_star(1, 2_000_000, TcpConfig::default(), 3);
    let da = run_star(1, 2_000_000, delack_cfg(), 3);
    assert_eq!(pp.completed_count(), 1);
    assert_eq!(da.completed_count(), 1);
    let (a_pp, a_da) = (pp.get(Counter::AcksRcvd), da.get(Counter::AcksRcvd));
    assert!(
        a_da * 2 <= a_pp + a_pp / 4,
        "delack should ~halve ACKs: {a_da} vs {a_pp}"
    );
}

#[test]
fn delack_timer_prevents_tail_stall() {
    // A 3-segment flow: the last segment would sit un-ACKed without the
    // delayed-ACK timer; the flow must still finish in well under an RTO.
    let da = run_star(1, 4_000, delack_cfg(), 5);
    assert_eq!(da.completed_count(), 1);
    let fct = da.flows()[0].fct().unwrap();
    assert!(fct < SimTime::from_ms(2), "fct = {fct} (RTO stall?)");
    assert_eq!(da.get(Counter::Timeouts), 0);
}

#[test]
fn delack_does_not_change_completion_or_health_under_congestion() {
    // 8-way incast: marking is active; both ack modes must finish cleanly
    // with comparable completion times (CE-flip forces immediate echoes,
    // so DCTCP's control loop keeps working).
    let pp = run_star(8, 500_000, TcpConfig::default(), 7);
    let da = run_star(8, 500_000, delack_cfg(), 7);
    assert_eq!(pp.completed_count(), 8);
    assert_eq!(da.completed_count(), 8);
    assert!(
        da.get(Counter::MarkedAcksRcvd) > 0,
        "ECN echoes must survive delack"
    );
    let last = |r: &netsim::Recorder| {
        r.flows()
            .iter()
            .filter_map(|f| f.fct())
            .map(|t| t.as_secs_f64())
            .fold(0.0, f64::max)
    };
    let (l_pp, l_da) = (last(&pp), last(&da));
    assert!(
        l_da < l_pp * 1.3,
        "delack congestion handling degraded: {l_da} vs {l_pp}"
    );
}

#[test]
fn delack_with_flowbender_still_bends() {
    // FlowBender's F is a fraction of (now fewer) ACKs; the signal must
    // survive. Two colliding flows through one 10G path set -> reroutes.
    let mut sim = Simulator::new(11);
    let tb = topology::build_testbed(
        &mut sim,
        topology::TestbedParams {
            servers_per_tor: vec![4; 2],
        },
        SwitchConfig::commodity(HashConfig::FiveTupleAndVField),
    );
    let specs: Vec<FlowSpec> = (0..4)
        .map(|i| FlowSpec::tcp(i, i, 4 + i, 10_000_000, SimTime::ZERO))
        .collect();
    let cfg = TcpConfig {
        delack: Some(DelAckConfig::default()),
        ..TcpConfig::flowbender(flowbender::Config::default())
    };
    install_agents(&mut sim, &specs, &cfg);
    sim.run_until(SimTime::from_secs(10));
    let _ = tb;
    assert_eq!(sim.recorder().completed_count(), 4);
    assert!(
        sim.recorder().get(Counter::Reroutes) > 0,
        "FlowBender must still sense congestion through delayed ACKs"
    );
}
