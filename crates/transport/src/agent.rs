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

use netsim::{
    register_flows, Agent, Ctx, DetHashMap, Flags, FlowId, FlowSpec, HostId, Packet, Proto,
    Simulator,
};

use crate::config::TcpConfig;
use crate::receiver::Receiver;
use crate::sender::{TcpSender, TimerOutcome};
use crate::udp::UdpSender;

/// Timer token for the flow-schedule tick.
const SCHED_TOKEN: u64 = u64::MAX;
const KIND_RTO: u64 = 1;
const KIND_UDP: u64 = 2;
const KIND_DELACK: u64 = 3;

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
    receivers: DetHashMap<FlowId, Receiver>,
    /// Bytes received per incoming UDP flow (UDP has no reassembly).
    udp_rx_bytes: DetHashMap<FlowId, u64>,
    /// Per-destination reordering estimate, persisted across connections
    /// like Linux's `tcp_metrics` cache.
    reorder_cache: DetHashMap<HostId, u32>,
}

impl HostAgent {
    /// Build the stack for one host from the flows it originates
    /// (`outgoing`) and terminates (`incoming`).
    pub fn new(cfg: TcpConfig, mut outgoing: Vec<FlowSpec>, incoming: &[FlowSpec]) -> Self {
        cfg.validate();
        outgoing.sort_by_key(|f| (f.start, f.id));
        let mut receivers = DetHashMap::default();
        let mut udp_rx_bytes = DetHashMap::default();
        for f in incoming {
            match f.proto {
                Proto::Tcp => {
                    let mut rx = Receiver::new(f.id, f.bytes);
                    if let Some(d) = cfg.delack {
                        rx = rx.with_delack(d);
                    }
                    receivers.insert(f.id, rx);
                }
                Proto::Udp => {
                    udp_rx_bytes.insert(f.id, 0);
                }
            }
        }
        HostAgent {
            cfg,
            outgoing,
            next_out: 0,
            senders: DetHashMap::default(),
            udp_senders: DetHashMap::default(),
            receivers,
            udp_rx_bytes,
            reorder_cache: DetHashMap::default(),
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
            let spec = spec.clone();
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

    /// A switch-generated congestion notification landed: route it to the
    /// flow's sender so it can react mid-RTT. CNs for completed flows are
    /// silently dropped — they are advisory, never reliable.
    fn on_cn(&mut self, pkt: &Packet, ctx: &mut Ctx<'_>) {
        let Some(sender) = self.senders.get_mut(&pkt.flow) else {
            return;
        };
        let Some(hop) = pkt.int.as_ref().and_then(|s| s.blamed_hop()) else {
            return; // malformed CN: no blamed hop
        };
        let fb = flowbender::Feedback::Cn {
            node: hop.node,
            port: hop.port,
            qbytes: hop.qbytes,
        };
        sender.on_feedback(fb, ctx);
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
        match pkt.key.proto {
            Proto::Tcp => {
                let rx = self.receivers.get_mut(&pkt.flow).unwrap_or_else(|| {
                    panic!("host {}: data for unknown flow {}", ctx.host(), pkt.flow)
                });
                if let Some(deadline) = rx.on_data(pkt, ctx) {
                    ctx.set_timer(deadline, token(pkt.flow, KIND_DELACK));
                }
            }
            Proto::Udp => {
                ctx.recorder().bump(netsim::Counter::DataPktsRcvd);
                let bytes = self.udp_rx_bytes.get_mut(&pkt.flow).unwrap_or_else(|| {
                    panic!("host {}: UDP for unknown flow {}", ctx.host(), pkt.flow)
                });
                *bytes += pkt.payload as u64;
            }
        }
    }
}

impl Agent for HostAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.arm_schedule(ctx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if pkt.flags.has(Flags::CN) {
            // Must be demuxed before the ACK/data split: a CN is neither
            // (it targets the *sender* of the congested flow).
            self.on_cn(&pkt, ctx);
        } else if pkt.flags.has(Flags::ACK) {
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
            KIND_DELACK => {
                if let Some(rx) = self.receivers.get_mut(&flow) {
                    rx.on_delack_timer(ctx);
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
pub fn install_agents(sim: &mut Simulator, specs: &[FlowSpec], cfg: &TcpConfig) {
    register_flows(sim.recorder_mut(), specs);
    let hosts: Vec<HostId> = sim.hosts().to_vec();
    let mut outgoing: DetHashMap<HostId, Vec<FlowSpec>> = DetHashMap::default();
    let mut incoming: DetHashMap<HostId, Vec<FlowSpec>> = DetHashMap::default();
    for s in specs {
        outgoing.entry(s.src).or_default().push(s.clone());
        incoming.entry(s.dst).or_default().push(s.clone());
    }
    for h in hosts {
        let agent = HostAgent::new(
            *cfg,
            outgoing.remove(&h).unwrap_or_default(),
            incoming.get(&h).map_or(&[][..], |v| &v[..]),
        );
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

    /// [`run_star`] with switch feedback (INT stamping and/or CN) enabled.
    fn run_star_fb(
        n: u32,
        bytes: u64,
        cfg: TcpConfig,
        fb: netsim::FeedbackConfig,
        seed: u64,
    ) -> netsim::Recorder {
        let mut sim = Simulator::new(seed);
        let senders: Vec<_> = (0..n).map(|_| sim.add_host_default()).collect();
        let rx = sim.add_host_default();
        let sw = sim
            .add_switch(SwitchConfig::commodity(HashConfig::FiveTupleAndVField).with_feedback(fb));
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
    fn fastcc_reacts_to_cns_and_measures_the_lead_over_the_echo() {
        // CN threshold at the ECN mark point: every marked enqueue also
        // fires (rate-limited) switch feedback, so the CN and the echo
        // race for the same window — the CN must win by its shorter path.
        // The stock stack cuts cwnd on whichever lands first.
        let rec = run_star_fb(
            8,
            500_000,
            TcpConfig::default(),
            netsim::FeedbackConfig::cn(90_000),
            11,
        );
        assert_eq!(rec.completed_count(), 8);
        assert!(rec.get(Counter::CnDelivered) > 0, "no CNs reached senders");
        let samples = rec.get(Counter::FeedbackLeadSamples);
        assert!(samples > 0, "no CN ever pre-empted an ECN echo");
        let mean_lead_ps = rec.get(Counter::FeedbackLeadPs) / samples;
        // The CN takes cn_delay (20us default); the echo takes the rest of
        // the data packet's journey plus the ACK's return (~40us+ here).
        assert!(
            mean_lead_ps > SimTime::from_us(5).as_ps(),
            "mean lead = {mean_lead_ps} ps"
        );
    }

    #[test]
    fn int_echo_drives_bender_int_controller() {
        // INT-only fabric: every forwarded packet is stamped, the receiver
        // echoes the stack, and the Bender-INT controller bends away from
        // the blamed hop once congestion is confirmed on consecutive ACKs.
        let cfg = TcpConfig::with_path(crate::config::PathSpec::BenderInt {
            v_range: 8,
            confirm: 2,
            hold: SimTime::from_us(100),
        });
        let rec = run_star_fb(8, 500_000, cfg, netsim::FeedbackConfig::int_only(), 12);
        assert_eq!(rec.completed_count(), 8);
        assert!(rec.get(Counter::IntStamps) > 0, "fabric stamped nothing");
        // The shared downlink marks under an 8-way incast; confirmed blame
        // must have produced at least one bend.
        assert!(rec.get(Counter::MarkedAcksRcvd) > 0);
        assert!(rec.get(Counter::Reroutes) > 0, "Bender-INT never bent");
        assert_eq!(rec.get(Counter::CnSent), 0, "INT-only fabric sent CNs");
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
