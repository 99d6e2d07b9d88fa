//! The paper's §4.3 testbed topology, simulated.
//!
//! The real testbed was 15 ToR switches with 12–16 servers each, connected
//! by 10 Gbps links to 4 aggregation switches (one uplink from every ToR to
//! every agg) — so any two servers on different ToRs have exactly 4 equal-
//! cost paths. We rebuild the same leaf-spine shape in the simulator; per
//! the paper itself, testbed numbers are only *qualitatively* comparable to
//! simulation (§4.3), which is exactly the comparison EXPERIMENTS.md makes.
//! Only the ToR sizes vary: the spine is always [`TestbedParams::AGGS`]
//! switches, every link is the paper's ([`LinkSpec::host_10g`],
//! [`LinkSpec::fabric_10g`]), and PFC switches get lossless queues.

use netsim::{
    LinkSpec, NodeId, PortId, QueueSpec, RoutingTable, Simulator, SwitchConfig, LINK_BPS,
};

/// Dimensions of the leaf-spine testbed.
#[derive(Debug, Clone)]
pub struct TestbedParams {
    /// Servers attached to each ToR (the paper had 12–16; one entry per
    /// ToR).
    pub servers_per_tor: Vec<usize>,
}

impl TestbedParams {
    /// Number of aggregation (spine) switches, as in the paper's testbed.
    pub const AGGS: usize = 4;

    /// The paper's testbed: 15 ToRs with 12–16 servers (alternating 12, 14,
    /// 16 for an average of 14).
    pub fn paper() -> Self {
        TestbedParams {
            servers_per_tor: (0..15).map(|i| 12 + (i % 3) * 2).collect(),
        }
    }

    /// A scaled-down testbed for fast tests: 3 ToRs × 4 servers.
    pub fn tiny() -> Self {
        TestbedParams {
            servers_per_tor: vec![4; 3],
        }
    }

    /// Total number of servers.
    pub fn n_hosts(&self) -> usize {
        self.servers_per_tor.iter().sum()
    }

    /// Number of ToRs.
    pub fn n_tors(&self) -> usize {
        self.servers_per_tor.len()
    }

    /// Uplink capacity of one ToR in bits per second (the denominator of
    /// the §4.3 "bisectional" load figures).
    pub fn tor_uplink_bps(&self) -> u64 {
        Self::AGGS as u64 * LINK_BPS
    }
}

/// A built testbed: node ids and port maps.
#[derive(Debug)]
pub struct Testbed {
    /// Parameters it was built with.
    pub params: TestbedParams,
    /// Host ids, dense `0..n_hosts`, grouped by ToR.
    pub hosts: Vec<NodeId>,
    /// ToR switch ids.
    pub tors: Vec<NodeId>,
    /// Agg switch ids.
    pub aggs: Vec<NodeId>,
    /// For each ToR: the port towards each local host.
    pub tor_host_ports: Vec<Vec<PortId>>,
    /// For each ToR: the uplink port towards each agg. `tor_uplinks[t][a]`
    /// identifies the ToR-side end of path `a` out of ToR `t` — the
    /// measurement point of the §4.3.1 hotspot experiment.
    pub tor_uplinks: Vec<Vec<PortId>>,
    /// For each agg: the port towards each ToR.
    pub agg_tor_ports: Vec<Vec<PortId>>,
    /// First dense host index of each ToR (prefix sums).
    tor_base: Vec<usize>,
}

impl Testbed {
    /// ToR index of dense host index `h`.
    pub fn tor_of(&self, h: usize) -> usize {
        match self.tor_base.binary_search(&h) {
            Ok(t) => t,
            Err(t) => t - 1,
        }
    }

    /// Dense host indices attached to ToR `t`.
    pub fn hosts_of_tor(&self, t: usize) -> std::ops::Range<usize> {
        let lo = self.tor_base[t];
        let hi = lo + self.params.servers_per_tor[t];
        lo..hi
    }
}

/// Build the testbed inside `sim`. Hosts are created first so host NodeIds
/// are dense from 0.
pub fn build_testbed(
    sim: &mut Simulator,
    params: TestbedParams,
    switch_cfg: SwitchConfig,
) -> Testbed {
    let n_hosts = params.n_hosts();
    let fabric_queue = if switch_cfg.pfc.is_some() {
        QueueSpec::lossless()
    } else {
        QueueSpec::switch_10g()
    };
    let host_link = LinkSpec {
        b_queue: fabric_queue,
        ..LinkSpec::host_10g()
    };
    let fabric_link = LinkSpec::fabric_10g().with_queues(fabric_queue);

    let hosts: Vec<NodeId> = (0..n_hosts).map(|_| sim.add_host_default()).collect();
    let tors: Vec<NodeId> = (0..params.n_tors())
        .map(|_| sim.add_switch(switch_cfg))
        .collect();
    let aggs: Vec<NodeId> = (0..TestbedParams::AGGS)
        .map(|_| sim.add_switch(switch_cfg))
        .collect();

    let mut tor_base = Vec::with_capacity(params.n_tors());
    let mut acc = 0;
    for &n in &params.servers_per_tor {
        tor_base.push(acc);
        acc += n;
    }

    let mut tor_host_ports = vec![Vec::new(); tors.len()];
    for t in 0..params.n_tors() {
        #[allow(clippy::needless_range_loop)]
        for h in tor_base[t]..tor_base[t] + params.servers_per_tor[t] {
            let (_, tp) = sim.connect(hosts[h], tors[t], host_link);
            tor_host_ports[t].push(tp);
        }
    }

    let mut tor_uplinks = vec![Vec::new(); tors.len()];
    let mut agg_tor_ports = vec![Vec::new(); aggs.len()];
    for t in 0..params.n_tors() {
        for a in 0..TestbedParams::AGGS {
            let (tp, ap) = sim.connect(tors[t], aggs[a], fabric_link);
            tor_uplinks[t].push(tp);
            agg_tor_ports[a].push(ap);
        }
    }

    let tb = Testbed {
        params,
        hosts,
        tors,
        aggs,
        tor_host_ports,
        tor_uplinks,
        agg_tor_ports,
        tor_base,
    };
    install_routes(sim, &tb);
    tb
}

fn install_routes(sim: &mut Simulator, tb: &Testbed) {
    let n_hosts = tb.params.n_hosts();

    for (t, &tor) in tb.tors.iter().enumerate() {
        let mut rt = RoutingTable::new(n_hosts);
        let local = tb.hosts_of_tor(t);
        for dst in 0..n_hosts {
            if local.contains(&dst) {
                rt.set(dst as u32, vec![tb.tor_host_ports[t][dst - local.start]]);
            } else {
                rt.set(dst as u32, tb.tor_uplinks[t].clone());
            }
        }
        sim.set_routes(tor, rt);
    }

    for (a, &agg) in tb.aggs.iter().enumerate() {
        let mut rt = RoutingTable::new(n_hosts);
        for dst in 0..n_hosts {
            let t = tb.tor_of(dst);
            rt.set(dst as u32, vec![tb.agg_tor_ports[a][t]]);
        }
        sim.set_routes(agg, rt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::testutil::{Blaster, CountingSink, RxLog};
    use netsim::HashConfig;

    #[test]
    fn paper_dimensions() {
        let p = TestbedParams::paper();
        assert_eq!(p.n_tors(), 15);
        assert_eq!(TestbedParams::AGGS, 4);
        // 12..=16 servers per ToR, total 15 * 14 = 210.
        assert!(p.servers_per_tor.iter().all(|&n| (12..=16).contains(&n)));
        assert_eq!(p.n_hosts(), 210);
        assert_eq!(p.tor_uplink_bps(), 40_000_000_000);
    }

    #[test]
    fn structure_and_indexing() {
        let mut sim = Simulator::new(3);
        let tb = build_testbed(
            &mut sim,
            TestbedParams::paper(),
            SwitchConfig::commodity(HashConfig::FiveTupleAndVField),
        );
        // Each ToR: local hosts + 4 uplinks.
        for (t, &tor) in tb.tors.iter().enumerate() {
            assert_eq!(sim.port_count(tor), tb.params.servers_per_tor[t] + 4);
        }
        // Each agg: one port per ToR.
        for &a in &tb.aggs {
            assert_eq!(sim.port_count(a), 15);
        }
        // tor_of on boundaries.
        assert_eq!(tb.tor_of(0), 0);
        assert_eq!(tb.tor_of(11), 0);
        assert_eq!(tb.tor_of(12), 1);
        let last = tb.params.n_hosts() - 1;
        assert_eq!(tb.tor_of(last), 14);
        assert_eq!(tb.hosts_of_tor(0), 0..12);
    }

    #[test]
    fn cross_tor_traffic_delivers_and_spreads() {
        let mut sim = Simulator::new(9);
        let tb = build_testbed(
            &mut sim,
            TestbedParams::tiny(),
            SwitchConfig::commodity(HashConfig::FiveTupleAndVField),
        );
        let log = RxLog::shared();
        // All ToR-0 hosts blast a ToR-2 host with distinct sports.
        let dst = tb.hosts_of_tor(2).start as u32 + 1;
        for (i, h) in tb.hosts_of_tor(0).enumerate() {
            let mut b = Blaster::new(dst, 8, log.clone());
            b.sport = 40 + i as u16;
            sim.set_agent(tb.hosts[h], Box::new(b));
        }
        sim.set_agent(
            tb.hosts[dst as usize],
            Box::new(CountingSink { log: log.clone() }),
        );
        sim.run_to_quiescence();
        assert_eq!(log.borrow().arrivals.len(), 4 * 8);
        // Traffic should use more than one of the 4 uplinks of ToR 0.
        let used = (0..4)
            .filter(|&a| sim.port_stats(tb.tors[0], tb.tor_uplinks[0][a]).tx_pkts > 0)
            .count();
        assert!(used >= 2, "expected spread over >=2 uplinks, got {used}");
    }

    #[test]
    fn same_tor_traffic_stays_local() {
        let mut sim = Simulator::new(9);
        let tb = build_testbed(
            &mut sim,
            TestbedParams::tiny(),
            SwitchConfig::commodity(HashConfig::FiveTupleAndVField),
        );
        let log = RxLog::shared();
        // Host 0 -> host 1 (same ToR).
        sim.set_agent(tb.hosts[0], Box::new(Blaster::new(1, 5, log.clone())));
        sim.set_agent(tb.hosts[1], Box::new(CountingSink { log: log.clone() }));
        sim.run_to_quiescence();
        assert_eq!(log.borrow().arrivals.len(), 5);
        // No uplink carried anything.
        for a in 0..4 {
            assert_eq!(sim.port_stats(tb.tors[0], tb.tor_uplinks[0][a]).tx_pkts, 0);
        }
    }
}
