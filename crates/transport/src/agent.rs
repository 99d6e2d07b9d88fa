//! The per-host protocol stack: a [`netsim::Agent`] that owns every
//! TCP/UDP endpoint living on one host.
//!
//! The experiment layer hands each host the [`netsim::FlowSpec`]s it
//! originates and the ones it terminates ([`install_agents`] does this for
//! a whole simulator at once). The agent then:
//!
//! * arms a schedule timer and instantiates each [`TcpSender`] /
//!   [`UdpSender`] at its flow's arrival time,
//! * demultiplexes arriving packets to the right endpoint by flow id,
//! * services retransmit-timer events (deadline-based, so stale timer
//!   events are cheap no-ops).
//!
//! Its state is sized by the flows in flight, not the flows offered. A
//! sender exists from its flow's arrival to its last ACK. On the receive
//! side each incoming TCP flow goes through three stages:
//!
//! * **not started** — a 16-byte `Dormant` record (the flow's size) in
//!   an exact-capacity table sorted by flow id;
//! * **live** — from the first data segment until it completes, a
//!   [`Receiver`] held inline in the demux map, so a data segment costs one
//!   lookup;
//! * **retired** — the receiver is dropped and its `Dormant` record keeps
//!   the size and the highest segment start seen, which is all a late
//!   duplicate's answer needs (`Dormant::on_data`).
//!
//! UDP sinks keep no per-flow state at all: a datagram is counted and
//! dropped.

use netsim::{
    register_flows, Agent, Ctx, DetHashMap, Flags, FlowId, FlowSpec, HostId, Packet, Proto,
    Simulator,
};

use crate::config::TcpConfig;
use crate::receiver::{Dormant, Receiver};
use crate::sender::{TcpSender, TimerOutcome};
use crate::udp::UdpSender;

/// Timer token for the flow-schedule tick.
const SCHED_TOKEN: u64 = u64::MAX;
const KIND_RTO: u64 = 1;
const KIND_UDP: u64 = 2;

fn token(flow: FlowId, kind: u64) -> u64 {
    ((flow as u64) << 8) | kind
}

fn untoken(tok: u64) -> (FlowId, u64) {
    ((tok >> 8) as FlowId, tok & 0xFF)
}

/// The protocol stack of one host.
pub struct HostAgent {
    cfg: TcpConfig,
    /// Flows originating here, sorted by start time.
    outgoing: Vec<FlowSpec>,
    next_out: usize,
    senders: DetHashMap<FlowId, TcpSender>,
    udp_senders: DetHashMap<FlowId, UdpSender>,
    /// Live receivers: incoming TCP flows between their first data segment
    /// and completion.
    receivers: DetHashMap<FlowId, Receiver>,
    /// Every incoming TCP flow, ascending; `dormant[i]` is the record of
    /// `incoming[i]` while it has no live receiver.
    incoming: Box<[FlowId]>,
    dormant: Box<[Dormant]>,
    /// Per-destination reordering estimate, persisted across connections
    /// like Linux's `tcp_metrics` cache.
    reorder_cache: DetHashMap<HostId, u32>,
}

impl HostAgent {
    /// Build the stack for one host from the flows it originates
    /// (`outgoing`) and terminates (`incoming`).
    pub fn new<'a>(
        cfg: TcpConfig,
        mut outgoing: Vec<FlowSpec>,
        incoming: impl IntoIterator<Item = &'a FlowSpec>,
    ) -> Self {
        cfg.validate();
        outgoing.sort_by_key(|f| (f.start, f.id));
        let mut tcp_in: Vec<(FlowId, Dormant)> = incoming
            .into_iter()
            .filter(|f| f.proto == Proto::Tcp)
            .map(|f| (f.id, Dormant::new(f.bytes)))
            .collect();
        tcp_in.sort_unstable_by_key(|&(id, _)| id);
        debug_assert!(
            tcp_in.windows(2).all(|w| w[0].0 < w[1].0),
            "duplicate flow id"
        );
        let (incoming, dormant): (Vec<FlowId>, Vec<Dormant>) = tcp_in.into_iter().unzip();
        HostAgent {
            cfg,
            outgoing,
            next_out: 0,
            senders: DetHashMap::default(),
            udp_senders: DetHashMap::default(),
            receivers: DetHashMap::default(),
            incoming: incoming.into_boxed_slice(),
            dormant: dormant.into_boxed_slice(),
            reorder_cache: DetHashMap::default(),
        }
    }

    /// The dormant record of incoming TCP flow `flow`; panics if this host
    /// does not terminate it.
    fn dormant_mut(&mut self, flow: FlowId, host: HostId) -> &mut Dormant {
        match self.incoming.binary_search(&flow) {
            Ok(i) => &mut self.dormant[i],
            Err(_) => panic!("host {host}: data for unknown flow {flow}"),
        }
    }

    fn arm_schedule(&self, ctx: &mut Ctx<'_>) {
        if let Some(next) = self.outgoing.get(self.next_out) {
            ctx.set_timer(next.start, SCHED_TOKEN);
        }
    }

    fn start_due_flows(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(spec) = self.outgoing.get(self.next_out) {
            if spec.start > ctx.now() {
                break;
            }
            self.next_out += 1;
            match spec.proto {
                Proto::Tcp => {
                    let cached = self.reorder_cache.get(&spec.dst).copied();
                    let mut sender = TcpSender::new(
                        spec.id,
                        spec.key(),
                        spec.bytes,
                        self.cfg,
                        cached,
                        spec.vhint,
                        ctx,
                    );
                    if let Some(deadline) = sender.start(ctx) {
                        ctx.set_timer(deadline, token(spec.id, KIND_RTO));
                    }
                    self.senders.insert(spec.id, sender);
                }
                Proto::Udp => {
                    let mut udp =
                        UdpSender::new(spec.id, spec.key(), spec.udp_rate_bps, spec.bytes)
                            .with_spray(spec.udp_spray_every);
                    if let Some(next) = udp.tick(ctx) {
                        ctx.set_timer(next, token(spec.id, KIND_UDP));
                        self.udp_senders.insert(spec.id, udp);
                    }
                }
            }
        }
        self.arm_schedule(ctx);
    }

    fn on_ack(&mut self, pkt: &Packet, ctx: &mut Ctx<'_>) {
        let Some(sender) = self.senders.get_mut(&pkt.flow) else {
            return; // late ACK for a completed flow
        };
        if let Some(deadline) = sender.on_ack(pkt, ctx) {
            ctx.set_timer(deadline, token(pkt.flow, KIND_RTO));
        }
        if sender.is_complete() {
            let dst = sender.dst();
            let learned = sender.reorder_threshold();
            let cached = self.reorder_cache.entry(dst).or_insert(0);
            *cached = (*cached).max(learned);
            self.senders.remove(&pkt.flow);
        }
    }

    fn on_data(&mut self, pkt: &Packet, ctx: &mut Ctx<'_>) {
        let flow = pkt.flow;
        if pkt.key.proto == Proto::Udp {
            ctx.recorder().bump(netsim::Counter::DataPktsRcvd);
            return;
        }
        if let Some(rx) = self.receivers.get_mut(&flow) {
            rx.on_data(pkt, ctx);
            if let Some(done) = rx.retire() {
                self.receivers.remove(&flow);
                // An aggregator between incast bursts gives its table back
                // rather than keep one sized by its busiest moment. (Sender
                // tables stay: freeing a one-flow table per flow costs wall
                // time for no memory worth having.)
                if self.receivers.is_empty() {
                    self.receivers.shrink_to_fit();
                }
                *self.dormant_mut(flow, ctx.host()) = done;
            }
            return;
        }
        let rest = self.dormant_mut(flow, ctx.host());
        if rest.is_retired() {
            rest.on_data(flow, pkt, ctx);
            return;
        }
        // The flow's first segment.
        let mut rx = Receiver::new(flow, rest.size());
        rx.on_data(pkt, ctx);
        match rx.retire() {
            Some(done) => *rest = done,
            None => {
                self.receivers.insert(flow, rx);
            }
        }
    }
}

impl Agent for HostAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.arm_schedule(ctx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if pkt.flags.has(Flags::ACK) {
            self.on_ack(&pkt, ctx);
        } else {
            self.on_data(&pkt, ctx);
        }
    }

    fn on_timer(&mut self, tok: u64, ctx: &mut Ctx<'_>) {
        if tok == SCHED_TOKEN {
            self.start_due_flows(ctx);
            return;
        }
        let (flow, kind) = untoken(tok);
        match kind {
            KIND_RTO => {
                if let Some(sender) = self.senders.get_mut(&flow) {
                    if let TimerOutcome::Rearm(deadline) = sender.on_timer(ctx) {
                        ctx.set_timer(deadline, token(flow, KIND_RTO));
                    }
                }
            }
            KIND_UDP => {
                if let Some(udp) = self.udp_senders.get_mut(&flow) {
                    match udp.tick(ctx) {
                        Some(next) => ctx.set_timer(next, token(flow, KIND_UDP)),
                        None => {
                            self.udp_senders.remove(&flow);
                        }
                    }
                }
            }
            other => panic!("unknown timer kind {other}"),
        }
    }
}

/// Register `specs` with the recorder and install a [`HostAgent`] on every
/// host of `sim`, each primed with its outgoing and incoming flows.
///
/// Specs must have dense ids `0..n` (workload generators guarantee this).
/// Each spec is copied once, into its source's schedule; the receive side
/// reads specs in place.
pub fn install_agents(sim: &mut Simulator, specs: &[FlowSpec], cfg: &TcpConfig) {
    register_flows(sim.recorder_mut(), specs);
    // Per-node lists, indexed by node id and sized exactly.
    let nodes = sim.node_count();
    let (mut n_out, mut n_in) = (vec![0; nodes], vec![0; nodes]);
    for s in specs {
        n_out[s.src as usize] += 1;
        n_in[s.dst as usize] += 1;
    }
    let mut outgoing: Vec<Vec<FlowSpec>> = n_out.into_iter().map(Vec::with_capacity).collect();
    let mut incoming: Vec<Vec<&FlowSpec>> = n_in.into_iter().map(Vec::with_capacity).collect();
    for s in specs {
        outgoing[s.src as usize].push(s.clone());
        incoming[s.dst as usize].push(s);
    }
    for h in sim.hosts().to_vec() {
        let out = std::mem::take(&mut outgoing[h as usize]);
        let agent = HostAgent::new(*cfg, out, incoming[h as usize].iter().copied());
        sim.set_agent(h, Box::new(agent));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Counter, HashConfig, LinkSpec, RoutingTable, SimTime, SwitchConfig};

    /// Two hosts through one switch; `specs` run under `cfg`.
    fn run_dumbbell(specs: Vec<FlowSpec>, cfg: TcpConfig, seed: u64) -> netsim::Recorder {
        let mut sim = Simulator::new(seed);
        let h0 = sim.add_host_default();
        let h1 = sim.add_host_default();
        let sw = sim.add_switch(SwitchConfig::commodity(HashConfig::FiveTupleAndVField));
        sim.connect(h0, sw, LinkSpec::host_10g());
        sim.connect(h1, sw, LinkSpec::host_10g());
        let mut rt = RoutingTable::new(2);
        rt.set(0, vec![0]);
        rt.set(1, vec![1]);
        sim.set_routes(sw, rt);
        install_agents(&mut sim, &specs, &cfg);
        sim.run_until(SimTime::from_secs(10));
        sim.into_recorder()
    }

    #[test]
    fn single_flow_completes_with_sane_fct() {
        let specs = vec![FlowSpec::tcp(0, 0, 1, 1_000_000, SimTime::ZERO)];
        let rec = run_dumbbell(specs, TcpConfig::default(), 1);
        assert_eq!(rec.completed_count(), 1);
        let fct = rec.flows()[0].fct().unwrap();
        // 1 MB over 10G is ~0.8ms of serialization; with ~86us RTT slow
        // start and stack delays the FCT must land well under 5ms and
        // above the raw serialization time.
        assert!(fct > SimTime::from_us(800), "fct = {fct}");
        assert!(fct < SimTime::from_ms(5), "fct = {fct}");
        assert_eq!(rec.get(Counter::Timeouts), 0);
        assert_eq!(rec.get(Counter::QueueDrops), 0);
    }

    #[test]
    fn tiny_flow_finishes_in_initial_window() {
        // 4 KB fits in IW=10; no retransmits, roughly one RTT + tx time.
        let specs = vec![FlowSpec::tcp(0, 0, 1, 4_096, SimTime::ZERO)];
        let rec = run_dumbbell(specs, TcpConfig::default(), 1);
        assert_eq!(rec.completed_count(), 1);
        let fct = rec.flows()[0].fct().unwrap();
        assert!(fct < SimTime::from_us(120), "fct = {fct}");
        assert_eq!(rec.get(Counter::Retransmits), 0);
    }

    /// `n` sender hosts, each with one flow to a single receiver host —
    /// the receiver's ToR downlink is the congestion point.
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
        for (i, _) in senders.iter().enumerate() {
            rt.set(i as u32, vec![i as u16]);
        }
        rt.set(n, vec![n as u16]);
        sim.set_routes(sw, rt);
        let specs: Vec<FlowSpec> = (0..n)
            .map(|i| FlowSpec::tcp(i, i, n, bytes, SimTime::from_us(i as u64)))
            .collect();
        install_agents(&mut sim, &specs, &cfg);
        sim.run_until(SimTime::from_secs(10));
        sim.into_recorder()
    }

    #[test]
    fn many_parallel_flows_all_complete() {
        // 8 senders of 200KB converge on one receiver: congestion, ECN
        // marking — and everyone must finish.
        let rec = run_star(8, 200_000, TcpConfig::default(), 2);
        assert_eq!(rec.completed_count(), 8);
        // DCTCP at the shared downlink: ECN marks must have appeared.
        assert!(rec.get(Counter::MarkedAcksRcvd) > 0);
    }

    #[test]
    fn dctcp_keeps_drops_rare_under_incast() {
        // The whole point of DCTCP: marking at K keeps queues short, so an
        // 8-way incast into a 512KB-buffer port should see essentially no
        // drops and no timeouts.
        let rec = run_star(8, 500_000, TcpConfig::default(), 7);
        assert_eq!(rec.completed_count(), 8);
        assert_eq!(
            rec.get(Counter::Timeouts),
            0,
            "DCTCP should avoid timeouts here"
        );
        assert!(rec.get(Counter::MarkedAcksRcvd) > 100);
    }

    #[test]
    fn severe_incast_recovers_via_retransmission() {
        // 200 senders overwhelm the 2MB downlink buffer at once (200 x
        // IW10 ~ 2.9MB of synchronized first windows): drops are
        // unavoidable; correctness demands every flow still completes.
        let rec = run_star(200, 100_000, TcpConfig::default(), 8);
        assert_eq!(rec.completed_count(), 200);
        assert!(rec.get(Counter::QueueDrops) > 0, "expected buffer overflow");
        assert!(rec.get(Counter::Retransmits) > 0);
    }

    #[test]
    fn staggered_flows_respect_start_times() {
        let specs = vec![
            FlowSpec::tcp(0, 0, 1, 50_000, SimTime::from_ms(1)),
            FlowSpec::tcp(1, 0, 1, 50_000, SimTime::from_ms(5)),
        ];
        let rec = run_dumbbell(specs, TcpConfig::default(), 3);
        assert_eq!(rec.completed_count(), 2);
        let f0 = &rec.flows()[0];
        let f1 = &rec.flows()[1];
        assert!(f0.end > f0.start && f1.end > f1.start);
        assert!(f1.start == SimTime::from_ms(5));
        assert!(f0.end < f1.end);
    }

    #[test]
    fn reverse_direction_flows_coexist() {
        let specs = vec![
            FlowSpec::tcp(0, 0, 1, 200_000, SimTime::ZERO),
            FlowSpec::tcp(1, 1, 0, 200_000, SimTime::ZERO),
        ];
        let rec = run_dumbbell(specs, TcpConfig::default(), 4);
        assert_eq!(rec.completed_count(), 2);
    }

    #[test]
    fn udp_cbr_delivers_at_rate() {
        // 1 Gbps for the run; 10ms run => ~1.25MB => ~833 packets+.
        let specs = vec![FlowSpec::udp(0, 0, 1, 1_000_000_000, SimTime::ZERO)];
        let mut sim = Simulator::new(5);
        let h0 = sim.add_host_default();
        let h1 = sim.add_host_default();
        let sw = sim.add_switch(SwitchConfig::commodity(HashConfig::FiveTupleAndVField));
        sim.connect(h0, sw, LinkSpec::host_10g());
        sim.connect(h1, sw, LinkSpec::host_10g());
        let mut rt = RoutingTable::new(2);
        rt.set(0, vec![0]);
        rt.set(1, vec![1]);
        sim.set_routes(sw, rt);
        install_agents(&mut sim, &specs, &TcpConfig::default());
        sim.run_until(SimTime::from_ms(10));
        // Host egress carried ~10ms * 1Gbps = 1.25 MB of UDP.
        let stats = sim.port_stats(h0, 0);
        let expect = 1_250_000u64;
        assert!(
            (stats.tx_bytes_udp as i64 - expect as i64).unsigned_abs() < 20_000,
            "udp bytes = {}",
            stats.tx_bytes_udp
        );
        assert_eq!(stats.tx_bytes_tcp, 0);
    }

    #[test]
    fn flowbender_stack_runs_clean_path_without_reroutes() {
        // One flow, one path, no congestion: FlowBender must not reroute.
        let specs = vec![FlowSpec::tcp(0, 0, 1, 500_000, SimTime::ZERO)];
        let cfg = TcpConfig::flowbender(flowbender::Config::default());
        let rec = run_dumbbell(specs, cfg, 6);
        assert_eq!(rec.completed_count(), 1);
        assert_eq!(rec.get(Counter::Reroutes), 0);
        assert_eq!(rec.get(Counter::TimeoutReroutes), 0);
    }

    /// Data segment `seq` of `spec`, as a host's agent receives it.
    fn segment(spec: &FlowSpec, seq: u64) -> Packet {
        Packet::data(spec.id, spec.key(), 0, seq, netsim::MSS, SimTime::ZERO)
    }

    #[test]
    fn a_receiver_lives_from_first_segment_to_completion() {
        let mut h = netsim::testutil::CtxHarness::new(1);
        let spec = FlowSpec::tcp(0, 1, 0, 2 * netsim::MSS as u64, SimTime::ZERO);
        register_flows(h.recorder_mut(), std::slice::from_ref(&spec));
        let mut agent = HostAgent::new(TcpConfig::default(), Vec::new(), [&spec]);
        assert!(agent.receivers.is_empty() && !agent.dormant[0].is_retired());
        agent.on_packet(segment(&spec, netsim::MSS as u64), &mut h.ctx());
        assert_eq!(agent.receivers.len(), 1);
        agent.on_packet(segment(&spec, 0), &mut h.ctx());
        assert!(agent.dormant[0].is_retired());
        assert_eq!(agent.receivers.capacity(), 0, "an idle host keeps no table");
        // A late duplicate is answered from the dormant record alone.
        agent.on_packet(segment(&spec, 0), &mut h.ctx());
        assert!(agent.receivers.is_empty());
        let (acks, timers) = h.drain();
        let seen: Vec<_> = acks
            .iter()
            .map(|a| (a.ack, a.flags.has(Flags::DSACK)))
            .collect();
        let size = spec.bytes;
        assert_eq!(seen, [(0, false), (size, false), (size, true)]);
        assert!(timers.is_empty());
        assert_eq!(h.recorder().completed_count(), 1);
        assert_eq!(h.recorder().get(Counter::DupBytes), netsim::MSS as u64);
    }

    #[test]
    #[should_panic(expected = "data for unknown flow 1")]
    fn data_for_a_flow_the_host_never_registered_panics() {
        let mut h = netsim::testutil::CtxHarness::new(1);
        let spec = FlowSpec::tcp(0, 1, 0, 10_000, SimTime::ZERO);
        let mut agent = HostAgent::new(TcpConfig::default(), Vec::new(), [&spec]);
        let stranger = FlowSpec::tcp(1, 1, 0, 10_000, SimTime::ZERO);
        agent.on_packet(segment(&stranger, 0), &mut h.ctx());
    }

    #[test]
    fn determinism_across_identical_runs() {
        let mk = || {
            let specs: Vec<FlowSpec> = (0..10)
                .map(|i| FlowSpec::tcp(i, 0, 1, 200_000, SimTime::from_us(10 * i as u64)))
                .collect();
            let rec = run_dumbbell(specs, TcpConfig::default(), 42);
            let fcts: Vec<_> = rec.flows().iter().map(|f| f.end).collect();
            (
                fcts,
                rec.get(Counter::Retransmits),
                rec.get(Counter::MarkedAcksRcvd),
            )
        };
        assert_eq!(mk(), mk());
    }
}
