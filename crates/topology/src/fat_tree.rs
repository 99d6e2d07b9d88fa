//! The paper's fat-tree fabric (§4.2, Figure 2).
//!
//! The evaluated network has 128 servers in 4 pods. Each pod holds 4
//! top-of-rack (ToR) switches with 8 servers each and 4 aggregation
//! switches; 8 core switches interconnect the pods. Every link is 10 Gbps.
//! Each ToR has **two** links to each of its pod's 4 aggs (8 uplinks — the
//! ToR tier is 1:1), and each agg uplinks to 2 of the 8 cores (the agg
//! tier is 4:1), giving the paper's overall 4:1 server-to-core
//! oversubscription, 8 distinct paths between any pair of pods, and —
//! per Table 1's own arithmetic — enough ToR uplink capacity that 8
//! simultaneous cross-pod flows can each own a full 10 Gbps route.
//!
//! [`FatTreeParams`] generalizes all of these counts so the §4.3.3
//! path-diversity experiment can scale the fabric up. Links are always the
//! paper's ([`LinkSpec::host_10g`], [`LinkSpec::fabric_10g`]); only the
//! fabric egress queue is a parameter, for the buffer-size sweep.

use netsim::{
    LinkSpec, NodeId, PortId, PortSetId, QueueSpec, RoutingTable, Simulator, SwitchConfig, LINK_BPS,
};

/// Dimensions and fabric queue of a fat-tree fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FatTreeParams {
    /// Number of pods.
    pub pods: usize,
    /// ToR switches per pod.
    pub tors_per_pod: usize,
    /// Aggregation switches per pod.
    pub aggs_per_pod: usize,
    /// Servers per ToR.
    pub hosts_per_tor: usize,
    /// Core uplinks per aggregation switch; the core layer has
    /// `aggs_per_pod * core_links_per_agg` switches.
    pub core_links_per_agg: usize,
    /// Parallel links between each (ToR, agg) pair. The paper's fabric
    /// needs 2 so that a ToR's 8 hosts see 8 uplinks (Table 1's "one flow
    /// per route" at full line rate).
    pub links_per_tor_agg: usize,
    /// Egress queue of every fabric port (ignored — replaced by a large
    /// lossless queue — when the switch config enables PFC).
    pub fabric_queue: QueueSpec,
}

impl FatTreeParams {
    /// The paper's §4.2 configuration: 128 servers, 4 pods, 4+4 switches
    /// per pod, 8 cores, 10 Gbps everywhere.
    pub fn paper() -> Self {
        FatTreeParams {
            pods: 4,
            tors_per_pod: 4,
            aggs_per_pod: 4,
            hosts_per_tor: 8,
            core_links_per_agg: 2,
            links_per_tor_agg: 2,
            fabric_queue: QueueSpec::switch_10g(),
        }
    }

    /// A scaled-down fabric for fast tests: 2 pods, 2+2 switches per pod,
    /// 4 cores, 16 hosts.
    pub fn tiny() -> Self {
        FatTreeParams {
            pods: 2,
            tors_per_pod: 2,
            aggs_per_pod: 2,
            hosts_per_tor: 4,
            core_links_per_agg: 2,
            links_per_tor_agg: 2,
            fabric_queue: QueueSpec::switch_10g(),
        }
    }

    /// The §4.3.3 "doubled port density" variant of the paper fabric:
    /// every switch tier doubles its port count and each ToR doubles its
    /// servers, quadrupling inter-pod path diversity (8 → 32) while
    /// preserving both per-tier 2:1 oversubscription ratios.
    pub fn paper_wide() -> Self {
        FatTreeParams {
            pods: 4,
            tors_per_pod: 8,
            aggs_per_pod: 8,
            hosts_per_tor: 16,
            core_links_per_agg: 4,
            links_per_tor_agg: 2,
            fabric_queue: QueueSpec::switch_10g(),
        }
    }

    /// A canonical k-ary fat-tree (Al-Fares et al.): `k` pods of `k/2`
    /// ToRs and `k/2` aggs, `k/2` hosts per ToR, `(k/2)^2` cores, one
    /// link per (ToR, agg) pair — `k^3/4` hosts total with full bisection
    /// bandwidth (k=8 → 128 hosts, k=16 → 1024, k=32 → 8192). This is the
    /// `--topo k=<K>` fabric of the scale experiments.
    ///
    /// Returns an actionable error for a `k` that does not describe a
    /// fat-tree (odd, too small) or is beyond what a simulation can hold.
    pub fn k_ary(k: usize) -> Result<Self, String> {
        if k < 4 || !k.is_multiple_of(2) || k > 64 {
            return Err(format!(
                "--topo k={k}: a k-ary fat-tree needs an even k between 4 and 64 \
                 (hosts = k^3/4: k=8 -> 128, k=16 -> 1024, k=32 -> 8192)"
            ));
        }
        Ok(FatTreeParams {
            pods: k,
            tors_per_pod: k / 2,
            aggs_per_pod: k / 2,
            hosts_per_tor: k / 2,
            core_links_per_agg: k / 2,
            links_per_tor_agg: 1,
            fabric_queue: QueueSpec::switch_10g(),
        })
    }

    /// Total number of servers.
    pub fn n_hosts(&self) -> usize {
        self.pods * self.tors_per_pod * self.hosts_per_tor
    }

    /// Number of core switches.
    pub fn n_cores(&self) -> usize {
        self.aggs_per_pod * self.core_links_per_agg
    }

    /// Number of equal-cost paths between hosts in different pods.
    pub fn inter_pod_paths(&self) -> usize {
        self.aggs_per_pod * self.core_links_per_agg
    }

    /// Core-facing capacity of one pod in bits per second (the basis for
    /// the paper's "load relative to bisection bandwidth").
    pub fn pod_uplink_bps(&self) -> u64 {
        (self.aggs_per_pod * self.core_links_per_agg) as u64 * LINK_BPS
    }
}

/// A built fat-tree: node ids and port maps for instrumentation.
#[derive(Debug)]
pub struct FatTree {
    /// The parameters it was built with.
    pub params: FatTreeParams,
    /// Host ids, dense `0..n_hosts`, grouped by ToR then pod:
    /// host `h` sits in pod `h / (tors_per_pod*hosts_per_tor)`.
    pub hosts: Vec<NodeId>,
    /// ToR ids, index = `pod * tors_per_pod + t`.
    pub tors: Vec<NodeId>,
    /// Agg ids, index = `pod * aggs_per_pod + a`.
    pub aggs: Vec<NodeId>,
    /// Core ids, index = `a * core_links_per_agg + k` for the k-th core
    /// attached to agg position `a`.
    pub cores: Vec<NodeId>,
    /// For each ToR (same indexing): the port towards each local host.
    pub tor_host_ports: Vec<Vec<PortId>>,
    /// For each ToR: every uplink port (`links_per_tor_agg` consecutive
    /// entries per agg, agg-major order).
    pub tor_uplinks: Vec<Vec<PortId>>,
    /// For each agg: the parallel ports towards each ToR position of its
    /// pod (`agg_tor_ports[agg][tor_pos]` lists `links_per_tor_agg` ports).
    pub agg_tor_ports: Vec<Vec<Vec<PortId>>>,
    /// For each agg: the uplink ports towards its cores.
    pub agg_core_ports: Vec<Vec<PortId>>,
    /// For each core: the port towards the connected agg of each pod.
    pub core_agg_ports: Vec<Vec<PortId>>,
}

impl FatTree {
    /// Pod index of host `h` (dense host index, not NodeId arithmetic —
    /// though they coincide because hosts are created first).
    pub fn pod_of(&self, h: usize) -> usize {
        h / (self.params.tors_per_pod * self.params.hosts_per_tor)
    }

    /// Global ToR index (into `self.tors`) of host `h`.
    pub fn tor_of(&self, h: usize) -> usize {
        h / self.params.hosts_per_tor
    }

    /// Dense host indices attached to global ToR index `t`.
    pub fn hosts_of_tor(&self, t: usize) -> std::ops::Range<usize> {
        let lo = t * self.params.hosts_per_tor;
        lo..lo + self.params.hosts_per_tor
    }

    /// The `(node, port)` of the `k`-th core uplink of agg `a` (global agg
    /// index), for failure injection.
    pub fn agg_core_link(&self, a: usize, k: usize) -> (NodeId, PortId) {
        (self.aggs[a], self.agg_core_ports[a][k])
    }
}

/// Build the fat-tree inside `sim`, with every switch configured per
/// `switch_cfg`. Hosts are created first so host NodeIds are dense from 0.
pub fn build_fat_tree(
    sim: &mut Simulator,
    params: FatTreeParams,
    switch_cfg: SwitchConfig,
) -> FatTree {
    let n_hosts = params.n_hosts();
    let fabric_queue = if switch_cfg.pfc.is_some() {
        QueueSpec::lossless()
    } else {
        params.fabric_queue
    };
    let host_link = LinkSpec {
        b_queue: fabric_queue,
        ..LinkSpec::host_10g()
    };
    let fabric_link = LinkSpec::fabric_10g().with_queues(fabric_queue);

    // Hosts first: ids 0..n_hosts.
    let hosts: Vec<NodeId> = (0..n_hosts).map(|_| sim.add_host_default()).collect();
    let tors: Vec<NodeId> = (0..params.pods * params.tors_per_pod)
        .map(|_| sim.add_switch(switch_cfg))
        .collect();
    let aggs: Vec<NodeId> = (0..params.pods * params.aggs_per_pod)
        .map(|_| sim.add_switch(switch_cfg))
        .collect();
    let cores: Vec<NodeId> = (0..params.n_cores())
        .map(|_| sim.add_switch(switch_cfg))
        .collect();

    // Host <-> ToR links.
    let mut tor_host_ports = vec![Vec::new(); tors.len()];
    for (h, &host) in hosts.iter().enumerate() {
        let t = h / params.hosts_per_tor;
        let (_, tor_port) = sim.connect(host, tors[t], host_link);
        tor_host_ports[t].push(tor_port);
    }

    // ToR <-> Agg links (full mesh within a pod, with parallel links).
    let mut tor_uplinks = vec![Vec::new(); tors.len()];
    let mut agg_tor_ports: Vec<Vec<Vec<PortId>>> =
        vec![vec![Vec::new(); params.tors_per_pod]; aggs.len()];
    for pod in 0..params.pods {
        #[allow(clippy::needless_range_loop)]
        for t in 0..params.tors_per_pod {
            let ti = pod * params.tors_per_pod + t;
            for a in 0..params.aggs_per_pod {
                let ai = pod * params.aggs_per_pod + a;
                for _ in 0..params.links_per_tor_agg {
                    let (tp, ap) = sim.connect(tors[ti], aggs[ai], fabric_link);
                    tor_uplinks[ti].push(tp);
                    agg_tor_ports[ai][t].push(ap);
                }
            }
        }
    }

    // Agg <-> Core links: agg at position `a` in each pod connects to cores
    // a*core_links_per_agg .. (a+1)*core_links_per_agg.
    let mut agg_core_ports = vec![Vec::new(); aggs.len()];
    let mut core_agg_ports = vec![Vec::new(); cores.len()];
    for pod in 0..params.pods {
        for a in 0..params.aggs_per_pod {
            let ai = pod * params.aggs_per_pod + a;
            for k in 0..params.core_links_per_agg {
                let ci = a * params.core_links_per_agg + k;
                let (ap, cp) = sim.connect(aggs[ai], cores[ci], fabric_link);
                agg_core_ports[ai].push(ap);
                // core_agg_ports[ci] indexed by pod; pods iterate outermost
                // so pushes line up.
                core_agg_ports[ci].push(cp);
            }
        }
    }

    let ft = FatTree {
        params,
        hosts,
        tors,
        aggs,
        cores,
        tor_host_ports,
        tor_uplinks,
        agg_tor_ports,
        agg_core_ports,
        core_agg_ports,
    };
    install_routes(sim, &ft);
    ft
}

/// §4.3.1 asymmetry helper: degrade the `k`-th core uplink of the agg at
/// position `agg_pos` in `pod` to `new_rate`, and (optionally) install
/// capacity-proportional WCMP weights on the affected pod's *upward*
/// tables — every ToR of the pod weights its uplinks by each agg's
/// remaining core capacity, and the degraded agg weights its core uplinks
/// by rate. Downward (reverse) tables keep equal weights: they carry only
/// ACK traffic in these experiments, and leaving them untouched also
/// mirrors the paper's point that WCMP tables are coarse in practice.
/// Call it before the run: link rates are fixed once the run has started.
pub fn degrade_agg_core_link(
    sim: &mut Simulator,
    ft: &FatTree,
    pod: usize,
    agg_pos: usize,
    k: usize,
    new_rate: u64,
    install_wcmp: bool,
) {
    let p = &ft.params;
    let ai = pod * p.aggs_per_pod + agg_pos;
    let (node, port) = ft.agg_core_link(ai, k);
    sim.set_link_rate(node, port, new_rate);

    if !install_wcmp {
        return;
    }
    // Integer weights in 100 Mbps units.
    let unit = 100_000_000;
    let rate_of = |a: usize, kk: usize| {
        if a == ai && kk == k {
            new_rate
        } else {
            LINK_BPS
        }
    };
    // Agg `ai`: weight its core uplinks by their rates (inter-pod only).
    let n_hosts = p.n_hosts();
    let core_weights: Vec<u32> = (0..p.core_links_per_agg)
        .map(|kk| (rate_of(ai, kk) / unit) as u32)
        .collect();
    {
        let mut rt = RoutingTable::new(n_hosts);
        let up = rt.add_weighted_set(ft.agg_core_ports[ai].clone(), core_weights);
        let down: Vec<PortSetId> = ft.agg_tor_ports[ai]
            .iter()
            .map(|ports| rt.add_set(ports.clone()))
            .collect();
        for dst in 0..n_hosts {
            let set = if ft.pod_of(dst) == pod {
                down[ft.tor_of(dst) % p.tors_per_pod]
            } else {
                up
            };
            rt.assign(dst as u32, set);
        }
        sim.set_routes(ft.aggs[ai], rt);
    }
    // Every ToR of the pod: weight each uplink by its agg's total core
    // capacity (parallel links to the same agg share that weight equally,
    // which the identical per-link value already expresses).
    let agg_capacity: Vec<u32> = (0..p.aggs_per_pod)
        .map(|a| {
            let aj = pod * p.aggs_per_pod + a;
            (0..p.core_links_per_agg)
                .map(|kk| (rate_of(aj, kk) / unit) as u32)
                .sum()
        })
        .collect();
    for t in 0..p.tors_per_pod {
        let ti = pod * p.tors_per_pod + t;
        let mut rt = RoutingTable::new(n_hosts);
        let local = ft.hosts_of_tor(ti);
        // Uplink weights, agg-major order matching `tor_uplinks`.
        let up_weights: Vec<u32> = (0..p.aggs_per_pod)
            .flat_map(|a| vec![agg_capacity[a]; p.links_per_tor_agg])
            .collect();
        // Intra-pod: all aggs reach the ToR at full rate.
        let up_equal = rt.add_set(ft.tor_uplinks[ti].clone());
        let up_weighted = rt.add_weighted_set(ft.tor_uplinks[ti].clone(), up_weights);
        for dst in 0..n_hosts {
            if local.contains(&dst) {
                rt.set(dst as u32, vec![ft.tor_host_ports[ti][dst - local.start]]);
            } else if ft.pod_of(dst) == pod {
                rt.assign(dst as u32, up_equal);
            } else {
                rt.assign(dst as u32, up_weighted);
            }
        }
        sim.set_routes(ft.tors[ti], rt);
    }
}

/// Compute and install the multipath routing tables of every switch.
fn install_routes(sim: &mut Simulator, ft: &FatTree) {
    let p = &ft.params;
    let n_hosts = p.n_hosts();

    // Each switch registers its few distinct port sets once and points
    // every destination at one of them by id.

    // ToRs: local host -> host port; everything else -> all agg uplinks.
    for (ti, &tor) in ft.tors.iter().enumerate() {
        let mut rt = RoutingTable::new(n_hosts);
        let local = ft.hosts_of_tor(ti);
        let up = rt.add_set(ft.tor_uplinks[ti].clone());
        for dst in 0..n_hosts {
            if local.contains(&dst) {
                rt.set(dst as u32, vec![ft.tor_host_ports[ti][dst - local.start]]);
            } else {
                rt.assign(dst as u32, up);
            }
        }
        sim.set_routes(tor, rt);
    }

    // Aggs: dst in my pod -> the ports to its ToR; else -> my core uplinks.
    for (ai, &agg) in ft.aggs.iter().enumerate() {
        let pod = ai / p.aggs_per_pod;
        let mut rt = RoutingTable::new(n_hosts);
        let up = rt.add_set(ft.agg_core_ports[ai].clone());
        let down: Vec<PortSetId> = ft.agg_tor_ports[ai]
            .iter()
            .map(|ports| rt.add_set(ports.clone()))
            .collect();
        for dst in 0..n_hosts {
            let set = if ft.pod_of(dst) == pod {
                down[ft.tor_of(dst) % p.tors_per_pod]
            } else {
                up
            };
            rt.assign(dst as u32, set);
        }
        sim.set_routes(agg, rt);
    }

    // Cores: dst -> the port to the dst pod's connected agg (deterministic).
    for (ci, &core) in ft.cores.iter().enumerate() {
        let mut rt = RoutingTable::new(n_hosts);
        let down: Vec<PortSetId> = ft.core_agg_ports[ci]
            .iter()
            .map(|&port| rt.add_set(vec![port]))
            .collect();
        for dst in 0..n_hosts {
            rt.assign(dst as u32, down[ft.pod_of(dst)]);
        }
        sim.set_routes(core, rt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::testutil::{Blaster, CountingSink, RxLog};
    use netsim::{FlowSpec, HashConfig, SimTime};

    fn build(params: FatTreeParams) -> (Simulator, FatTree) {
        let mut sim = Simulator::new(11);
        let ft = build_fat_tree(
            &mut sim,
            params,
            SwitchConfig::commodity(HashConfig::FiveTupleAndVField),
        );
        (sim, ft)
    }

    #[test]
    fn paper_dimensions() {
        let p = FatTreeParams::paper();
        assert_eq!(p.n_hosts(), 128);
        assert_eq!(p.n_cores(), 8);
        assert_eq!(p.inter_pod_paths(), 8);
        assert_eq!(p.pod_uplink_bps(), 80_000_000_000);
        let (sim, ft) = build(p);
        assert_eq!(ft.hosts.len(), 128);
        assert_eq!(ft.tors.len(), 16);
        assert_eq!(ft.aggs.len(), 16);
        assert_eq!(ft.cores.len(), 8);
        // ToR port counts: 8 hosts + 4 aggs x 2 links.
        for &t in &ft.tors {
            assert_eq!(sim.port_count(t), 16);
        }
        // Agg: 4 ToRs x 2 links + 2 cores.
        for &a in &ft.aggs {
            assert_eq!(sim.port_count(a), 10);
        }
        // Core: 1 agg per pod.
        for &c in &ft.cores {
            assert_eq!(sim.port_count(c), 4);
        }
        // Hosts have exactly one NIC.
        for &h in &ft.hosts {
            assert_eq!(sim.port_count(h), 1);
        }
    }

    /// Hosts are numbered first, so the largest fabric's last host is
    /// `n_hosts - 1` = 65 535: every host of every buildable fat-tree has a
    /// 16-bit flow-key address.
    #[test]
    fn the_largest_fabrics_hosts_fit_a_flow_key() {
        let (_sim, ft) = build(FatTreeParams::paper());
        assert!(ft.hosts.iter().enumerate().all(|(i, &h)| h as usize == i));
        let last = FatTreeParams::k_ary(64).unwrap().n_hosts() as u32 - 1;
        let key = FlowSpec::tcp(0, 0, last, 1, SimTime::ZERO).key();
        assert_eq!(key.dst, u16::MAX);
        assert!(FatTreeParams::k_ary(66).is_err());
    }

    #[test]
    fn indexing_helpers() {
        let (_sim, ft) = build(FatTreeParams::paper());
        assert_eq!(ft.pod_of(0), 0);
        assert_eq!(ft.pod_of(31), 0);
        assert_eq!(ft.pod_of(32), 1);
        assert_eq!(ft.pod_of(127), 3);
        assert_eq!(ft.tor_of(0), 0);
        assert_eq!(ft.tor_of(7), 0);
        assert_eq!(ft.tor_of(8), 1);
        assert_eq!(ft.hosts_of_tor(1), 8..16);
        assert_eq!(ft.tor_of(127), 15);
    }

    /// Route a packet from every host to a sample of destinations and check
    /// delivery — exercises ToR/agg/core tables along all tiers.
    #[test]
    fn all_pairs_sample_is_routable() {
        let params = FatTreeParams::tiny();
        let mut sim = Simulator::new(5);
        let ft = build_fat_tree(
            &mut sim,
            params,
            SwitchConfig::commodity(HashConfig::FiveTupleAndVField),
        );
        let n = params.n_hosts();
        let log = RxLog::shared();
        // Every host sends one packet to (h + k) % n for several strides:
        // same-ToR, same-pod, and cross-pod destinations.
        let mut expected = 0;
        for (i, &h) in ft.hosts.iter().enumerate() {
            let mut b = Blaster::new(((i + 1) % n) as u32, 1, log.clone());
            b.sport = i as u16;
            let _ = h;
            sim.set_agent(ft.hosts[i], Box::new(b));
            expected += 1;
        }
        sim.run_to_quiescence();
        // Every sender's packet must arrive somewhere (receivers log).
        // Each host is also a receiver via its Blaster's log.
        assert_eq!(log.borrow().arrivals.len(), expected);
    }

    #[test]
    fn cross_pod_paths_use_multiple_routes() {
        // With the V-field in the hash, varying V and sport from one host
        // to one cross-pod destination must spread over several core links.
        let params = FatTreeParams::paper();
        let mut sim = Simulator::new(5);
        let ft = build_fat_tree(
            &mut sim,
            params,
            SwitchConfig::commodity(HashConfig::FiveTupleAndVField),
        );
        let log = RxLog::shared();
        // 8 flows (one per ToR-0 host, distinct sports) to a pod-3 host.
        for (i, h) in ft.hosts_of_tor(0).enumerate() {
            let mut b = Blaster::new(100, 4, log.clone());
            b.sport = 1000 + i as u16;
            sim.set_agent(ft.hosts[h], Box::new(b));
        }
        sim.set_agent(ft.hosts[100], Box::new(CountingSink { log: log.clone() }));
        sim.run_to_quiescence();
        assert_eq!(log.borrow().arrivals.len(), 32);
        // Count how many distinct core switches carried traffic.
        let mut used = 0;
        for &c in &ft.cores {
            let bytes: u64 = (0..sim.port_count(c))
                .map(|p| sim.port_stats(c, p as u16).tx_bytes_tcp)
                .sum();
            if bytes > 0 {
                used += 1;
            }
        }
        assert!(
            used >= 2,
            "8 flows should spread over >=2 cores, used {used}"
        );
    }

    #[test]
    fn wide_variant_quadruples_path_diversity_at_same_oversubscription() {
        let base = FatTreeParams::paper();
        let p = FatTreeParams::paper_wide();
        assert_eq!(p.inter_pod_paths(), 4 * base.inter_pod_paths());
        assert_eq!(p.n_hosts(), 512);
        // Per-tier oversubscription preserved: ToR down/up and agg in/up.
        assert_eq!(
            p.hosts_per_tor / p.aggs_per_pod,
            base.hosts_per_tor / base.aggs_per_pod
        );
        assert_eq!(
            p.tors_per_pod / p.core_links_per_agg,
            base.tors_per_pod / base.core_links_per_agg
        );
        // Overall servers-to-core stays 4:1.
        let total_host_bw = p.n_hosts() as u64 * LINK_BPS;
        let total_core_bw = p.pods as u64 * p.pod_uplink_bps();
        assert_eq!(total_host_bw / total_core_bw, 4);
    }
}
