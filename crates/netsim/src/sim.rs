//! The simulator: world state, builder API, and the event loop.
//!
//! A [`Simulator`] owns every node (hosts and switches), every link (stored
//! as paired ports), the event queue, and the measurement [`Recorder`]. The
//! `topology` crate builds the network through the `add_host` / `add_switch`
//! / `connect` / `set_routes` methods; the `transport` crate attaches
//! [`Agent`]s to hosts; then [`Simulator::run_until`] drives everything.
//!
//! ## Packet life cycle
//!
//! 1. An agent calls [`crate::agent::Ctx::send`]; after the host TX stack
//!    delay the packet is enqueued at the host NIC ([`EventKind::HostTx`]).
//! 2. When a port is idle (not serializing, not PFC-paused) it dequeues the
//!    head packet and, in the same step, books its arrival at the peer
//!    ([`EventKind::Arrive`]) one serialization time plus the link's
//!    propagation delay plus the peer's ingress processing delay later.
//! 3. At a switch, `Arrive` runs the forwarding scheme (ECMP hash / RPS /
//!    adaptive / flowlet / flowcut), enqueues at the chosen egress, then
//!    does the switch-only work — PFC accounting — and kicks the egress.
//!    At a host, `Arrive` is delivered to the agent.
//!
//! There is one of each step. Host NIC and switch egress enqueue through the
//! same `Port::enqueue` (drop-tail, ECN mark, `Enqueue` / `EcnMark` trace);
//! every undelivered packet leaves the slab through `drop_packet` (queue
//! full, link down, gray loss, corruption); every transmission starts in
//! `try_start_tx`. Within a hop the order of scheduler calls (PFC pause,
//! then the tx-start `seq`) and of trace events (`Hop`, `Enqueue`,
//! `EcnMark`) is part of the determinism contract: reordering either
//! changes same-instant ties or timeline files.
//!
//! One event per hop, then — not a `TxDone` at the last bit *and* an
//! `Arrive` a propagation delay later. At datacenter loads most
//! transmissions have nothing queued behind them, so nobody needs to be
//! told that the last bit left.
//!
//! ## The virtual `TxDone`
//!
//! Every transmission still *has* a [`EventKind::TxDone`]: the port records
//! its key, `(tx_end, cause = tx_start, seq)`, with the one `seq` the
//! transmission draws at tx-start. Whether the port is still serializing is
//! answered lazily, by comparing that key with the key of the event being
//! handled: the port is busy for exactly the events that would have popped
//! before its `TxDone`, and free for those after. The `TxDone` becomes a
//! real event — scheduled under that same key, so it pops exactly where it
//! always would have — only when something must happen at the last bit:
//!
//! * a packet is waiting behind the transmission (scheduled at tx-start if
//!   the queue is already non-empty, otherwise by the first
//!   `try_start_tx` that finds the port busy with a packet queued), and
//!   the `TxDone` starts it;
//! * the port is **faultable**: a link-change API has named its link —
//!   [`Simulator::install_faults`] for every link of every step, at install
//!   time, or one of the three immediate setters a firing step calls and
//!   anyone may call between two `run_until`s: [`Simulator::set_link_state`],
//!   [`Simulator::set_gray_loss`] and [`Simulator::set_corruption`] (both
//!   directions of the link, never cleared). Such a port must read `up` /
//!   `loss_rate` / `ber` when the last bit leaves, so its `TxDone` is
//!   always scheduled and it — not tx-start — books the `Arrive` or drops
//!   the packet. Same handler, one branch.
//!
//! Link rates are fixed once the run starts ([`Simulator::set_link_rate`]
//! is a build-time call), so a transmission's `tx_end` never moves and a
//! scheduled `TxDone` is never superseded.
//!
//! **Why the order is the classic one.** The engine that fired two events
//! per hop ordered them by `(time, seq)`, `seq` being the global insertion
//! order. Booking the `Arrive` early changes which instant draws its `seq`,
//! and one flipped same-instant tie is enough to diverge a whole TCP run.
//! So the key is `(time, cause, seq)` ([`crate::event::Tie`]): `cause` is
//! the instant the classic engine would have drawn the `seq` — "now" for
//! everything scheduled the ordinary way (where it adds nothing: a later
//! instant draws a larger `seq`), `tx_end` for a booked `Arrive`, `tx_start`
//! for the `TxDone`. Among events caused at the same instant the shared
//! `seq` keeps the classic order too: two `TxDone`s at one instant popped in
//! tx-start order and drew their `Arrive` seqs in that order. The fused and
//! the faultable path build the same `Arrive` key from the same port fields
//! (`launch`), so they cannot diverge (the differential property test
//! `fused_and_tx_end_sampling_paths_are_indistinguishable` runs both).
//!
//! One residual: an *ordinary* event whose own delay equals a link's
//! `arrive_delay` to the picosecond — a 1375-byte packet's 1.1 µs
//! serialization next to the 1.1 µs switch hop — ties with a booked
//! `Arrive` on `(time, cause)` and falls through to `seq`, which the booked
//! event drew a serialization earlier than the classic engine would have.
//! The order is still a pure function of `(config, seed)`; it can differ
//! from the two-event engine's at that one tie. (Likewise past
//! [`crate::event::Tie::MAX_DELTA_PS`], where causes saturate.)
//!
//! **A link-change call that finds a packet in flight** on a port not yet
//! faultable leaves that packet alone — it was launched healthy and keeps
//! the arrival it was booked with; the port samples at the last bit from
//! its next tx-start.

use std::fmt;

use crate::agent::{Agent, Ctx, NullAgent};
use crate::event::{EventKind, FaultSet, Scheduler, Tie};
use crate::faults::{FaultAction, FaultPlan};
use crate::hashing::{EcmpHasher, HashConfig};
use crate::packet::{Flags, NodeId, Packet, PortId, Proto, INGRESS_NONE};
use crate::queue::{EcnQueue, EnqueueResult, Entry, QueueStats};
use crate::record::{Counter, DropReason, Recorder, RunResults, SloConfig};
use crate::rng::DetRng;
use crate::slab::{PacketId, PacketSlab};
use crate::switch::{
    select_port, FlowcutConfig, FlowcutDecision, ForwardingScheme, PfcAction, PfcConfig, PfcState,
    PinTable, RoutingTable,
};
use crate::telemetry::{SeriesKey, TelemetryConfig};
use crate::time::SimTime;
use crate::trace::{TraceConfig, TraceEvent};

/// Rate of every link of the paper's fabrics (§4.2), bits per second.
pub const LINK_BPS: u64 = 10_000_000_000;

/// Propagation delay of every link of the paper's fabrics.
pub const LINK_DELAY: SimTime = SimTime::from_ns(100);

/// Ingress processing delay of every switch (hosts set their own).
const SWITCH_PROC_DELAY: SimTime = SimTime::from_us(1);

/// Egress queue parameters for one side of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueSpec {
    /// Byte capacity (drop-tail beyond this).
    pub capacity: u64,
    /// ECN marking threshold `K` in bytes (`u64::MAX` = never mark).
    pub mark_threshold: u64,
}

impl QueueSpec {
    /// Paper §4.2 switch-port defaults for 10 Gbps: K = 90 KB marking.
    /// Capacity models the testbed's 2 MB shared buffer (§4.3) as a
    /// per-port bound: DCTCP keeps steady-state occupancy near K, and the
    /// headroom absorbs transient bursts the way a shared buffer would.
    pub fn switch_10g() -> Self {
        QueueSpec {
            capacity: 2 * 1024 * 1024,
            mark_threshold: 90_000,
        }
    }

    /// Host NIC queue: large and unmarked (host buffers are big; congestion
    /// signalling happens in the fabric).
    pub fn host_nic() -> Self {
        QueueSpec {
            capacity: 16 * 1024 * 1024,
            mark_threshold: u64::MAX,
        }
    }

    /// Effectively-lossless queue for PFC operation (PFC backpressure keeps
    /// occupancy bounded well below this).
    pub fn lossless() -> Self {
        QueueSpec {
            capacity: 64 * 1024 * 1024,
            mark_threshold: 90_000,
        }
    }
}

/// Parameters of a full-duplex link between two nodes.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// Rate of each direction, bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay (wire only; node processing delays are
    /// node properties).
    pub delay: SimTime,
    /// Egress queue at the first endpoint.
    pub a_queue: QueueSpec,
    /// Egress queue at the second endpoint.
    pub b_queue: QueueSpec,
}

impl LinkSpec {
    /// A symmetric 10 Gbps fabric link with switch queues on both ends.
    pub fn fabric_10g() -> Self {
        LinkSpec {
            rate_bps: LINK_BPS,
            delay: LINK_DELAY,
            a_queue: QueueSpec::switch_10g(),
            b_queue: QueueSpec::switch_10g(),
        }
    }

    /// A 10 Gbps host-to-ToR link: host NIC queue on the host side, switch
    /// queue on the ToR side.
    pub fn host_10g() -> Self {
        LinkSpec {
            rate_bps: LINK_BPS,
            delay: LINK_DELAY,
            a_queue: QueueSpec::host_nic(),
            b_queue: QueueSpec::switch_10g(),
        }
    }

    /// Replace both queue specs (e.g. for lossless PFC fabrics).
    pub fn with_queues(mut self, q: QueueSpec) -> Self {
        self.a_queue = q;
        self.b_queue = q;
        self
    }
}

/// One directed attachment point: this node's egress queue plus the wire
/// towards the peer.
#[derive(Debug)]
struct Port {
    queue: EcnQueue,
    peer: NodeId,
    peer_port: PortId,
    rate_bps: u64,
    delay: SimTime,
    /// `delay` plus the peer's ingress processing delay (fixed once both
    /// nodes exist): what a departing packet needs to arrive, without
    /// reading the peer node on every hop.
    arrive_delay: SimTime,
    up: bool,
    /// The downstream ingress has PFC-paused us.
    paused: bool,
    /// Some fault or link-state API has named this port (or its peer): from
    /// its next tx-start on it samples `up` / `loss_rate` / `ber` at the
    /// last bit instead of booking the arrival at the first. Never cleared.
    faultable: bool,
    /// Gray-failure loss probability per departing packet (0 = healthy).
    loss_rate: f64,
    /// Bit error rate: a departing packet of `b` bits is corrupted (and
    /// dropped) with probability `1 - (1 - ber)^b` (0 = healthy).
    ber: f64,
    /// Lazily-split per-port fault RNG stream: gray-loss and corruption
    /// draws for packets departing this egress come from here, so the
    /// sequence of draws a port sees depends only on its own departure
    /// order, never on the global interleaving of faulted ports. `None`
    /// until the first
    /// draw; fault-free ports never split a stream at all.
    fault_rng: Option<DetRng>,
    /// `(tx_end, tx_tie)` is the key of the latest transmission's `TxDone`,
    /// scheduled or not: the port is busy for exactly the events that sort
    /// before it (see [`Simulator::try_start_tx`]). `tx_end` is when the
    /// serialization completes.
    tx_end: SimTime,
    /// Tie-break half of the `TxDone` key: caused at tx-start, with the one
    /// `seq` the transmission drew — which its `Arrive` shares.
    tx_tie: Tie,
    /// The latest transmission's `TxDone` is in the scheduler (and has not
    /// fired). A `TxDone` is scheduled only while this is false, so a port
    /// has at most one in the scheduler.
    wake_pending: bool,
    /// The latest transmission was started on a `faultable` port: its
    /// `TxDone` decides the packet's fate and schedules its `Arrive`.
    tx_sampled: bool,
    /// The packet of the latest transmission (read only while `tx_sampled`;
    /// a fused packet may already have been delivered or dropped).
    tx_pkt: PacketId,
    /// Transmitted wire bytes by protocol ([Tcp, Udp]).
    tx_bytes: [u64; 2],
    /// Transmitted packets.
    tx_pkts: u64,
}

impl Port {
    /// Is the latest transmission still on the port, as seen by the event
    /// with key `now`? True for exactly the events that sort before its
    /// `TxDone`.
    #[inline]
    fn serializing(&self, now: (SimTime, Tie)) -> bool {
        (self.tx_end, self.tx_tie) > now
    }

    /// The one enqueue step, shared by host NICs and switch egresses: queue
    /// `pkt` (slab id `id`, which came in through `in_port` — `INGRESS_NONE`
    /// at its own host) at this egress, whose address is `at`; set CE if the
    /// queue marked it; trace the outcome. `true` when queued; on `false`
    /// the queue was full and the caller drops the packet.
    #[inline]
    fn enqueue(
        &mut self,
        id: PacketId,
        pkt: &mut Packet,
        in_port: PortId,
        at: (NodeId, PortId),
        now: SimTime,
        recorder: &mut Recorder,
    ) -> bool {
        let entry = Entry::new(id, pkt.size, in_port, pkt.key.proto);
        // Every packet is ECN-capable transport: the queue marks, never
        // drops, above K.
        let EnqueueResult::Queued { marked } = self.queue.enqueue_entry(entry, true) else {
            return false;
        };
        if marked {
            pkt.flags.set(Flags::CE);
        }
        let (node, port) = at;
        let qbytes = self.queue.bytes();
        recorder.trace_event(now, pkt.flow, TraceEvent::Enqueue { node, port, qbytes });
        if marked {
            recorder.trace_event(now, pkt.flow, TraceEvent::EcnMark { node, port });
        }
        true
    }

    /// Put the latest transmission's `TxDone` in the scheduler, under the
    /// key recorded for it. `(node, port)` is this port's own address.
    fn schedule_tx_done(&mut self, sched: &mut Scheduler, node: NodeId, port: PortId) {
        self.wake_pending = true;
        sched.schedule_keyed(self.tx_end, self.tx_tie, EventKind::TxDone { node, port });
    }
}

/// Observable per-port statistics.
#[derive(Debug, Clone, Copy)]
pub struct PortStats {
    /// Wire bytes transmitted carrying TCP.
    pub tx_bytes_tcp: u64,
    /// Wire bytes transmitted carrying UDP.
    pub tx_bytes_udp: u64,
    /// Packets transmitted.
    pub tx_pkts: u64,
    /// Egress queue statistics.
    pub queue: QueueStats,
}

#[derive(Debug)]
struct HostMeta {
    tx_stack_delay: SimTime,
}

struct SwitchMeta {
    scheme: ForwardingScheme,
    hasher: EcmpHasher,
    routes: RoutingTable,
    pfc: Option<PfcState>,
    pins: PinTable,
    rng: DetRng,
}

// Hosts waste `SwitchMeta`-sized slots, but boxing the variant would put a
// pointer chase on every packet forward; a few hundred bytes per host is
// the cheaper side of that trade even on 8192-host fabrics.
#[allow(clippy::large_enum_variant)]
enum NodeKind {
    Host(HostMeta),
    Switch(SwitchMeta),
}

struct Node {
    kind: NodeKind,
    ports: Vec<Port>,
    /// Ingress processing delay added to every packet arriving at this node
    /// (1 µs at switches, 20 µs at hosts per the paper).
    proc_delay: SimTime,
}

/// Configuration of a switch to be added to the simulator.
#[derive(Debug, Clone, Copy)]
pub struct SwitchConfig {
    /// Load-balancing scheme among equal-cost ports.
    pub scheme: ForwardingScheme,
    /// Which fields the ECMP hash covers (only meaningful for `EcmpHash`).
    pub hash: HashConfig,
    /// PFC configuration, if this switch generates pause frames.
    pub pfc: Option<PfcConfig>,
}

impl SwitchConfig {
    /// ECMP switch hashing the 5-tuple plus the FlowBender V-field, no PFC
    /// — the commodity switch of the paper.
    pub fn commodity(hash: HashConfig) -> Self {
        SwitchConfig {
            scheme: ForwardingScheme::EcmpHash,
            hash,
            pfc: None,
        }
    }

    /// RPS switch: per-packet random spraying.
    pub fn rps() -> Self {
        SwitchConfig {
            scheme: ForwardingScheme::Rps,
            hash: HashConfig::FiveTuple,
            pfc: None,
        }
    }

    /// DeTail-style switch: per-packet adaptive routing plus PFC at the
    /// paper's thresholds.
    pub fn detail() -> Self {
        SwitchConfig {
            scheme: ForwardingScheme::Adaptive,
            hash: HashConfig::FiveTuple,
            pfc: Some(PfcConfig::detail_defaults()),
        }
    }

    /// Flowlet-switching (LetFlow-style) switch with the given inactivity
    /// gap. 100 µs suits 10 Gbps fabrics with ~90 µs RTTs: larger than the
    /// path-delay spread (no reordering within a flowlet change), small
    /// enough that bursts split often.
    pub fn flowlet(gap: SimTime) -> Self {
        SwitchConfig {
            scheme: ForwardingScheme::Flowlet { gap },
            hash: HashConfig::FiveTuple,
            pfc: None,
        }
    }

    /// Flowcut-switching switch (Bonato et al.): flows pin to one egress
    /// until an idle gap proves their in-flight packets drained, and only
    /// such boundaries may re-route — adaptively, to the least-queued
    /// port. Validates `cfg` eagerly so a zero gap fails at build time.
    pub fn flowcut_sw(cfg: FlowcutConfig) -> Self {
        cfg.validate();
        SwitchConfig {
            scheme: ForwardingScheme::Flowcut { cfg },
            hash: HashConfig::FiveTuple,
            pfc: None,
        }
    }
}

/// The packet-conservation ledger: every packet the slab ever issued must
/// be delivered to an agent, dropped with a [`DropReason`], or still in
/// flight. Produced by [`Simulator::conservation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conservation {
    /// Packets ever inserted into the slab ([`Ctx::send`] injections).
    pub injected: u64,
    /// Packets handed to destination agents.
    pub delivered: u64,
    /// Packets dropped, by [`DropReason`] index.
    pub dropped: [u64; DropReason::COUNT],
    /// Packets still parked in the slab.
    pub in_flight: u64,
}

impl Conservation {
    /// Total dropped packets across all reasons.
    pub fn dropped_total(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Does `injected == delivered + dropped + in-flight` hold?
    pub fn holds(&self) -> bool {
        self.injected == self.delivered + self.dropped_total() + self.in_flight
    }
}

impl fmt::Display for Conservation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected {} != delivered {} + dropped {} (",
            self.injected,
            self.delivered,
            self.dropped_total()
        )?;
        for (i, reason) in DropReason::all().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", reason.name(), self.dropped[i])?;
        }
        write!(f, ") + in-flight {}", self.in_flight)
    }
}

/// The discrete-event network simulator.
pub struct Simulator {
    now: SimTime,
    /// With `now`, the key of the event being handled ([`Tie::MAX`] between
    /// events): what a port compares its `TxDone` key against to know
    /// whether it is still serializing.
    now_tie: Tie,
    sched: Scheduler,
    /// Every in-flight packet, referenced by [`PacketId`] from events and
    /// queues. Packets enter in [`Ctx::send`] and leave on delivery or drop.
    packets: PacketSlab,
    nodes: Vec<Node>,
    agents: Vec<Option<Box<dyn Agent>>>,
    host_rngs: Vec<DetRng>,
    recorder: Recorder,
    master_rng: DetRng,
    /// Root of the fault RNG tree. Never advanced: each faulted port
    /// lazily splits its own child stream off this root ([`Port::fault_rng`])
    /// on its first gray-loss/corruption draw, keyed by `(node, port)` —
    /// so draw sequences are a pure function of each port's own departure
    /// order, and fault-free runs never touch any fault stream at all.
    faults_rng: DetRng,
    /// Packets handed to destination agents (the conservation audit's
    /// "delivered" term).
    delivered: u64,
    started: bool,
    events_processed: u64,
    /// Events processed, by [`EventKind::index`].
    event_mix: [u64; EventKind::COUNT],
    host_ids: Vec<NodeId>,
}

impl Simulator {
    /// Create an empty world seeded with `seed`. The same seed and build
    /// sequence reproduce a run bit-for-bit.
    pub fn new(seed: u64) -> Self {
        Simulator {
            now: SimTime::ZERO,
            now_tie: Tie::MAX,
            sched: Scheduler::new(),
            packets: PacketSlab::new(),
            nodes: Vec::new(),
            agents: Vec::new(),
            host_rngs: Vec::new(),
            recorder: Recorder::new(),
            master_rng: DetRng::new(seed, 0xF10B),
            faults_rng: DetRng::new(seed, 0xF10B).split(0xFA17_5EED),
            delivered: 0,
            started: false,
            events_processed: 0,
            event_mix: [0; EventKind::COUNT],
            host_ids: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Builder API
    // ------------------------------------------------------------------

    /// Add a host with the given TX stack delay and RX processing delay.
    /// Returns its node id. Attach a transport with [`Simulator::set_agent`].
    pub fn add_host(&mut self, tx_stack_delay: SimTime, rx_proc_delay: SimTime) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(Node {
            kind: NodeKind::Host(HostMeta { tx_stack_delay }),
            ports: Vec::new(),
            proc_delay: rx_proc_delay,
        });
        self.agents.push(Some(Box::new(NullAgent)));
        self.host_rngs
            .push(self.master_rng.split(0x7057_0000 | id as u64));
        self.host_ids.push(id);
        id
    }

    /// Add a host with the paper's delays (20 µs TX stack, 20 µs RX stack).
    pub fn add_host_default(&mut self) -> NodeId {
        self.add_host(SimTime::from_us(20), SimTime::from_us(20))
    }

    /// Add a switch. Returns its node id. Routing tables are installed
    /// later with [`Simulator::set_routes`].
    pub fn add_switch(&mut self, cfg: SwitchConfig) -> NodeId {
        let id = self.nodes.len() as NodeId;
        let salt = self.master_rng.split(0x5A17_0000 | id as u64).next_u64();
        self.nodes.push(Node {
            kind: NodeKind::Switch(SwitchMeta {
                scheme: cfg.scheme,
                hasher: EcmpHasher::new(cfg.hash, salt),
                routes: RoutingTable::default(),
                pfc: cfg.pfc.map(|p| PfcState::new(p, 0)),
                pins: PinTable::new(),
                rng: self.master_rng.split(0x5311_0000 | id as u64),
            }),
            ports: Vec::new(),
            proc_delay: SWITCH_PROC_DELAY,
        });
        self.agents.push(None);
        self.host_rngs.push(self.master_rng.split(0));
        id
    }

    /// Connect `a` and `b` with a full-duplex link. Returns the port ids
    /// allocated on each side.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (PortId, PortId) {
        assert_ne!(a, b, "self-links are not allowed");
        let pa = self.nodes[a as usize].ports.len() as PortId;
        let pb = self.nodes[b as usize].ports.len() as PortId;
        for (node, queue, peer, peer_port) in [(a, spec.a_queue, b, pb), (b, spec.b_queue, a, pa)] {
            let arrive_delay = spec.delay + self.nodes[peer as usize].proc_delay;
            self.nodes[node as usize].ports.push(Port {
                queue: EcnQueue::new(queue.capacity, queue.mark_threshold),
                peer,
                peer_port,
                rate_bps: spec.rate_bps,
                delay: spec.delay,
                arrive_delay,
                up: true,
                paused: false,
                faultable: false,
                loss_rate: 0.0,
                ber: 0.0,
                fault_rng: None,
                tx_end: SimTime::ZERO,
                tx_tie: Tie::MIN,
                wake_pending: false,
                tx_sampled: false,
                tx_pkt: 0,
                tx_bytes: [0; 2],
                tx_pkts: 0,
            });
        }
        for id in [a, b] {
            if let NodeKind::Switch(meta) = &mut self.nodes[id as usize].kind {
                if let Some(pfc) = &mut meta.pfc {
                    pfc.add_port();
                }
            }
        }
        (pa, pb)
    }

    /// Install the multipath routing table of a switch.
    pub fn set_routes(&mut self, switch: NodeId, routes: RoutingTable) {
        match &mut self.nodes[switch as usize].kind {
            NodeKind::Switch(meta) => meta.routes = routes,
            NodeKind::Host(_) => panic!("node {switch} is a host, not a switch"),
        }
    }

    /// Attach the protocol stack of a host.
    pub fn set_agent(&mut self, host: NodeId, agent: Box<dyn Agent>) {
        assert!(
            matches!(self.nodes[host as usize].kind, NodeKind::Host(_)),
            "node {host} is not a host"
        );
        self.agents[host as usize] = Some(agent);
    }

    /// Set the administrative state of the link attached at `(node, port)`
    /// — both directions — effective immediately. Going down black-holes
    /// whatever is queued towards the dead link (and every later packet, at
    /// its last bit); going up restarts both queues.
    pub fn set_link_state(&mut self, node: NodeId, port: PortId, up: bool) {
        self.mark_faultable(node, port);
        let (peer, peer_port) = self.peer_of(node, port);
        for (n, p) in [(node, port), (peer, peer_port)] {
            self.nodes[n as usize].ports[p as usize].up = up;
            self.try_start_tx(n, p);
        }
    }

    /// Set the rate of the link attached at `(node, port)` — both
    /// directions — before the run starts. Models heterogeneous or degraded
    /// links (partial upgrades, the §4.3.1 WCMP discussion).
    ///
    /// # Panics
    /// Once the run has started: link rates are fixed for the whole run. A
    /// link fails through [`FaultPlan::kill`] or [`FaultPlan::flap`].
    pub fn set_link_rate(&mut self, node: NodeId, port: PortId, rate_bps: u64) {
        assert!(rate_bps > 0, "link rate must be positive");
        assert!(
            !self.started,
            "set_link_rate({node}, {port}): link rates are fixed once the run has started; \
             fail a link with FaultPlan::kill or FaultPlan::flap"
        );
        let (peer, peer_port) = self.peer_of(node, port);
        self.nodes[node as usize].ports[port as usize].rate_bps = rate_bps;
        self.nodes[peer as usize].ports[peer_port as usize].rate_bps = rate_bps;
    }

    /// Mark both directions of the link at `(node, port)` as sampling their
    /// fault state at the last bit of every transmission started from now
    /// on. Every API that can change what such a sample reads calls this.
    fn mark_faultable(&mut self, node: NodeId, port: PortId) {
        let (peer, peer_port) = self.peer_of(node, port);
        self.nodes[node as usize].ports[port as usize].faultable = true;
        self.nodes[peer as usize].ports[peer_port as usize].faultable = true;
    }

    /// Set the gray-failure loss probability on the directed egress
    /// `(node, port)`, effective immediately. `0.0` restores a healthy link.
    pub fn set_gray_loss(&mut self, node: NodeId, port: PortId, loss: f64) {
        assert!((0.0..=1.0).contains(&loss), "loss {loss} outside [0, 1]");
        self.mark_faultable(node, port);
        self.nodes[node as usize].ports[port as usize].loss_rate = loss;
    }

    /// Set the bit error rate on the directed egress `(node, port)`,
    /// effective immediately. `0.0` restores a healthy link.
    pub fn set_corruption(&mut self, node: NodeId, port: PortId, ber: f64) {
        assert!((0.0..=1.0).contains(&ber), "ber {ber} outside [0, 1]");
        self.mark_faultable(node, port);
        self.nodes[node as usize].ports[port as usize].ber = ber;
    }

    /// Install a [`FaultPlan`]: validate every step (node, port, time),
    /// mark the links it names faultable — now, so they sample at the last
    /// bit from their next tx-start, not only once the step fires — and
    /// schedule one [`EventKind::Fault`] per step. May be called repeatedly
    /// (plans accumulate) and mid-run, for steps at or after [`Self::now`].
    ///
    /// A step that fires calls the immediate setter of its kind
    /// ([`Self::set_link_state`], [`Self::set_gray_loss`],
    /// [`Self::set_corruption`]); `SwitchDown/Up` is `set_link_state` on
    /// every port the switch has when it fires.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        for (i, &(at, action)) in plan.steps().iter().enumerate() {
            let node = action.node();
            assert!(
                (node as usize) < self.nodes.len(),
                "fault plan references nonexistent node {node}"
            );
            assert!(
                at >= self.now,
                "fault plan step {i} ({action:?}) is due at {at}, before the current time {}",
                self.now
            );
            let n_ports = self.nodes[node as usize].ports.len() as PortId;
            let (port, set, bits) = match action {
                FaultAction::LinkState { port, up, .. } => (port, FaultSet::LinkState, up as u64),
                FaultAction::GrayLoss { port, loss, .. } => {
                    (port, FaultSet::GrayLoss, loss.to_bits())
                }
                FaultAction::Corruption { port, ber, .. } => {
                    (port, FaultSet::Corruption, ber.to_bits())
                }
                FaultAction::SwitchDown { .. } => (0, FaultSet::SwitchState, 0),
                FaultAction::SwitchUp { .. } => (0, FaultSet::SwitchState, 1),
            };
            let named = if set == FaultSet::SwitchState {
                0..n_ports
            } else {
                assert!(
                    port < n_ports,
                    "fault plan references nonexistent port ({node}, {port})"
                );
                port..port + 1
            };
            for port in named {
                self.mark_faultable(node, port);
            }
            let step = EventKind::Fault {
                node,
                port,
                set,
                bits,
            };
            self.sched.schedule(at, step);
        }
    }

    /// The current rate of the directed link out of `(node, port)`.
    pub fn link_rate(&self, node: NodeId, port: PortId) -> u64 {
        self.nodes[node as usize].ports[port as usize].rate_bps
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The measurement recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Mutable access to the recorder (for registering flows up front).
    pub fn recorder_mut(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    /// Consume the simulator, returning the recorder.
    pub fn into_recorder(self) -> Recorder {
        self.recorder
    }

    /// Consume the simulator, returning the read-side view of the run
    /// (flow records, counters, telemetry series).
    pub fn into_results(self) -> RunResults {
        let mut results = self.recorder.finish();
        results.event_mix = self.event_mix;
        results
    }

    /// Configure telemetry collection. Call before the run starts; with
    /// the default (disabled) config every probe hook is a single branch.
    pub fn set_telemetry(&mut self, cfg: TelemetryConfig) {
        self.recorder.set_telemetry(cfg);
    }

    /// Configure the per-flow flight recorder. Call before the run
    /// starts; with the default (disabled) config every trace hook is a
    /// single branch.
    pub fn set_trace(&mut self, cfg: TraceConfig) {
        self.recorder.set_trace(cfg);
    }

    /// Arm the reconvergence / goodput SLO probe: per-flow reconvergence
    /// latency against `cfg.fail_at` and a delivered-goodput histogram.
    /// Call before the run starts; disarmed (the default), every delivery
    /// hook is a single branch.
    pub fn set_slo(&mut self, cfg: SloConfig) {
        self.recorder.set_slo(cfg);
    }

    /// Ids of all hosts, in creation order.
    pub fn hosts(&self) -> &[NodeId] {
        &self.host_ids
    }

    /// Number of nodes (hosts + switches).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of ports on `node`.
    pub fn port_count(&self, node: NodeId) -> usize {
        self.nodes[node as usize].ports.len()
    }

    /// Statistics of one port.
    pub fn port_stats(&self, node: NodeId, port: PortId) -> PortStats {
        let p = &self.nodes[node as usize].ports[port as usize];
        PortStats {
            tx_bytes_tcp: p.tx_bytes[0],
            tx_bytes_udp: p.tx_bytes[1],
            tx_pkts: p.tx_pkts,
            queue: p.queue.stats(),
        }
    }

    /// The peer `(node, port)` on the other end of `(node, port)`'s link.
    pub fn peer_of(&self, node: NodeId, port: PortId) -> (NodeId, PortId) {
        let p = &self.nodes[node as usize].ports[port as usize];
        (p.peer, p.peer_port)
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Events processed so far by kind, indexed by [`EventKind::index`]
    /// (names in [`EventKind::NAMES`]); sums to
    /// [`Simulator::events_processed`]. `tx_done` per transmitted packet is
    /// the share of transmissions that had something queued behind them.
    pub fn event_mix(&self) -> [u64; EventKind::COUNT] {
        self.event_mix
    }

    /// Packets delivered to destination agents so far.
    pub fn packets_delivered(&self) -> u64 {
        self.delivered
    }

    /// Snapshot the packet-conservation ledger. The invariant
    /// `injected == delivered + dropped(reason) + in-flight` holds at every
    /// event boundary (each slab removal is accounted at the site it
    /// happens); [`Conservation::holds`] checks it.
    pub fn conservation(&self) -> Conservation {
        Conservation {
            injected: self.packets.total_inserted(),
            delivered: self.delivered,
            dropped: self.recorder.drops().totals(),
            in_flight: self.packets.len() as u64,
        }
    }

    /// Panic (in every build profile) if the conservation invariant is
    /// violated. The event loop also checks it at the end of every run in
    /// debug builds; release-mode harnesses call this explicitly.
    pub fn assert_conservation(&self) {
        let c = self.conservation();
        assert!(c.holds(), "packet conservation violated: {c}");
    }

    /// High-water mark of simultaneously in-flight packets.
    pub fn packets_peak(&self) -> usize {
        self.packets.peak()
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Run until the event queue is exhausted or `deadline` is reached,
    /// whichever comes first; the clock is then parked at `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_core(deadline);
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Run until no events remain (all flows quiesce). The clock stops at
    /// the time of the last event.
    pub fn run_to_quiescence(&mut self) {
        self.run_core(SimTime::MAX);
    }

    fn run_core(&mut self, deadline: SimTime) {
        self.start_agents();
        while let Some(ev) = self.sched.pop_before(deadline) {
            (self.now, self.now_tie) = ev.key();
            self.events_processed += 1;
            self.event_mix[ev.kind.index()] += 1;
            self.dispatch(ev.kind);
        }
        // Between events: everything up to `deadline` has fired, whatever
        // is scheduled next is caused no earlier.
        self.now_tie = Tie::MAX;
        if deadline != SimTime::MAX {
            self.sched.advance_to(deadline);
        }
        debug_assert!(
            self.conservation().holds(),
            "packet conservation violated: {}",
            self.conservation()
        );
    }

    fn start_agents(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for &h in &self.host_ids.clone() {
            self.with_agent(h, |agent, ctx| agent.on_start(ctx));
        }
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Arrive { node, port, pkt } => self.handle_arrive(node, port, pkt),
            EventKind::TxDone { node, port } => self.handle_tx_done(node, port),
            EventKind::HostTx { host, pkt } => self.handle_host_tx(host, pkt),
            EventKind::Timer { host, token } => {
                self.with_agent(host, |agent, ctx| agent.on_timer(token, ctx));
            }
            EventKind::Pfc { node, port, pause } => self.handle_pfc(node, port, pause),
            EventKind::Fault {
                node,
                port,
                set,
                bits,
            } => self.apply_fault(node, port, set, bits),
        }
    }

    /// A plan step fires: call the immediate setter of its kind. Cold — a
    /// run sees a handful of these — so the setters stay out of the
    /// dispatch loop's code (inlined there they cost `udp-forward` 2–4 %).
    #[cold]
    fn apply_fault(&mut self, node: NodeId, port: PortId, set: FaultSet, bits: u64) {
        match set {
            FaultSet::LinkState => self.set_link_state(node, port, bits != 0),
            FaultSet::GrayLoss => self.set_gray_loss(node, port, f64::from_bits(bits)),
            FaultSet::Corruption => self.set_corruption(node, port, f64::from_bits(bits)),
            FaultSet::SwitchState => {
                for port in 0..self.nodes[node as usize].ports.len() as PortId {
                    self.set_link_state(node, port, bits != 0);
                }
            }
        }
    }

    /// Temporarily take the agent out of its slot so the callback can borrow
    /// the rest of the world through `Ctx` without aliasing.
    fn with_agent(&mut self, host: NodeId, f: impl FnOnce(&mut dyn Agent, &mut Ctx<'_>)) {
        let mut agent = self.agents[host as usize]
            .take()
            .unwrap_or_else(|| panic!("node {host} has no agent (switch or reentrant call)"));
        let tx_stack_delay = match &self.nodes[host as usize].kind {
            NodeKind::Host(m) => m.tx_stack_delay,
            NodeKind::Switch(_) => panic!("agent callback on a switch"),
        };
        let mut ctx = Ctx::new(
            self.now,
            host,
            tx_stack_delay,
            &mut self.sched,
            &mut self.packets,
            &mut self.host_rngs[host as usize],
            &mut self.recorder,
        );
        f(agent.as_mut(), &mut ctx);
        self.agents[host as usize] = Some(agent);
    }

    fn handle_arrive(&mut self, node: NodeId, port: PortId, id: PacketId) {
        match &self.nodes[node as usize].kind {
            NodeKind::Host(_) => {
                // The packet leaves the slab here: the agent owns it now.
                let pkt = self.packets.remove(id);
                self.delivered += 1;
                self.recorder.slo_delivery(self.now, pkt.flow, pkt.payload);
                self.with_agent(node, |agent, ctx| agent.on_packet(pkt, ctx));
            }
            NodeKind::Switch(_) => self.forward(node, port, id),
        }
    }

    /// Switch forwarding, in the order the trace and the scheduler see it:
    /// egress selection (`FlowcutReroute`, `Hop`), the shared enqueue step
    /// (`Enqueue`, `EcnMark`), PFC accounting (the pause frame), then the
    /// TX kick. The slab, the node table, the recorder and the
    /// scheduler are disjoint fields, so the packet and the switch stay
    /// borrowed while the hop is traced and its events are scheduled.
    fn forward(&mut self, sw: NodeId, in_port: PortId, id: PacketId) {
        let now = self.now;
        let pkt = self.packets.get_mut(id);
        let (flow, size) = (pkt.flow, pkt.size as u64);
        let node = &mut self.nodes[sw as usize];
        let NodeKind::Switch(meta) = &mut node.kind else {
            unreachable!("only switches forward")
        };
        let ports = &mut node.ports;
        let eligible = meta.routes.eligible(pkt.dst());
        let queued = |p: PortId| ports[p as usize].queue.bytes();
        let up = |p: PortId| ports[p as usize].up;
        let egress = match meta.scheme {
            ForwardingScheme::Flowlet { gap } => {
                let hash = meta.hasher.hash(pkt);
                meta.pins.flowlet(now, gap, hash, eligible, &mut meta.rng)
            }
            ForwardingScheme::Flowcut { cfg } => {
                let hash = meta.hasher.hash(pkt);
                let (port, decision) =
                    meta.pins
                        .flowcut(now, cfg, hash, eligible, &mut meta.rng, queued, up);
                match decision {
                    FlowcutDecision::Pinned => self.recorder.bump(Counter::FlowcutPinned),
                    FlowcutDecision::Rerouted => {
                        self.recorder.bump(Counter::FlowcutReroutes);
                        let ev = TraceEvent::FlowcutReroute { node: sw, port };
                        self.recorder.trace_event(now, flow, ev);
                    }
                    _ => {}
                }
                port
            }
            scheme => {
                let weights = meta.routes.weights(pkt.dst());
                select_port(
                    scheme,
                    &meta.hasher,
                    &mut meta.rng,
                    pkt,
                    eligible,
                    weights,
                    queued,
                    up,
                )
            }
        };
        let ev = TraceEvent::Hop {
            node: sw,
            in_port,
            out_port: egress,
        };
        self.recorder.trace_event(now, flow, ev);
        let out = &mut ports[egress as usize];
        if !out.enqueue(id, pkt, in_port, (sw, egress), now, &mut self.recorder) {
            return self.drop_packet(id, DropReason::QueueFull, sw, egress);
        }
        let qbytes = out.queue.bytes();
        // PFC: account the buffered packet against its ingress.
        if let Some(pfc) = &mut meta.pfc {
            if pfc.on_buffered(in_port, size) == PfcAction::SendPause {
                let ingress = &ports[in_port as usize];
                let pause = EventKind::Pfc {
                    node: ingress.peer,
                    port: ingress.peer_port,
                    pause: true,
                };
                self.recorder.bump(Counter::PfcPauses);
                self.sched.schedule(now + ingress.delay, pause);
            }
        }
        let key = SeriesKey::QueueDepth {
            node: sw,
            port: egress,
        };
        self.recorder.probe(now, key, qbytes as f64);
        self.try_start_tx(sw, egress);
    }

    fn handle_host_tx(&mut self, host: NodeId, id: PacketId) {
        debug_assert!(
            !self.nodes[host as usize].ports.is_empty(),
            "host {host} has no NIC link"
        );
        let pkt = self.packets.get_mut(id);
        let nic = &mut self.nodes[host as usize].ports[0];
        let at = (host, 0);
        if nic.enqueue(id, pkt, INGRESS_NONE, at, self.now, &mut self.recorder) {
            self.try_start_tx(host, 0)
        } else {
            self.drop_packet(id, DropReason::QueueFull, host, 0)
        }
    }

    /// Packet `id` dies at the egress `(node, port)` for `reason`: the one
    /// place a packet leaves the slab undelivered, so the flight recorder,
    /// the per-port audit and the conservation ledger cannot disagree.
    fn drop_packet(&mut self, id: PacketId, reason: DropReason, node: NodeId, port: PortId) {
        let flow = self.packets.remove(id).flow;
        let ev = TraceEvent::Drop { reason, node, port };
        self.recorder.trace_event(self.now, flow, ev);
        self.recorder.drop_packet(reason, node, port);
    }

    /// If `(node, port)` is idle and unpaused, start serializing the next
    /// queued packet. Packets destined for a dead link are black-holed.
    ///
    /// Idle is decided lazily: the port is serializing for exactly the
    /// events that sort before its latest `TxDone` key, whether or not that
    /// `TxDone` was ever scheduled. A call that finds the port serializing
    /// with packets waiting makes sure the `TxDone` is in the scheduler — it
    /// is what will start the next one.
    fn try_start_tx(&mut self, node: NodeId, port: PortId) {
        loop {
            let (entry, link_up) = {
                let p = &mut self.nodes[node as usize].ports[port as usize];
                if p.paused {
                    return;
                }
                if p.serializing((self.now, self.now_tie)) {
                    if !p.wake_pending && !p.queue.is_empty() {
                        p.schedule_tx_done(&mut self.sched, node, port);
                    }
                    return;
                }
                let Some(entry) = p.queue.dequeue_entry() else {
                    return;
                };
                (entry, p.up)
            };
            let id = entry.id;
            let size = entry.size() as u64;
            // PFC release: the packet left this switch's buffer.
            self.pfc_release(node, entry.ingress(), size);
            if !link_up {
                self.drop_packet(id, DropReason::LinkDown, node, port);
                continue;
            }
            // The queue entry carried everything tx-start needs; only the
            // flight recorder wants the packet itself.
            if self.recorder.trace_active() {
                let flow = self.packets.get(id).flow;
                self.recorder
                    .trace_event(self.now, flow, TraceEvent::Dequeue { node, port });
            }
            let now = self.now;
            // One seq per transmission, drawn where the classic engine drew
            // its TxDone's; the TxDone key and the Arrive key both use it.
            let seq = self.sched.draw_seq();
            let p = &mut self.nodes[node as usize].ports[port as usize];
            p.tx_bytes[proto_index(entry.proto())] += size;
            p.tx_pkts += 1;
            p.tx_end = now + SimTime::serialization(size, p.rate_bps);
            p.tx_tie = Tie::new(p.tx_end, now, seq);
            p.tx_pkt = id;
            p.tx_sampled = p.faultable;
            // The TxDone is a real event only if someone needs it: the
            // fault sample at the last bit, or a packet already waiting.
            debug_assert!(!p.wake_pending, "the previous TxDone is still pending");
            if p.tx_sampled || !p.queue.is_empty() {
                p.schedule_tx_done(&mut self.sched, node, port);
            }
            if !p.tx_sampled {
                self.launch(node, port);
            }
            return;
        }
    }

    /// Put the packet of `(node, port)`'s latest transmission on the wire:
    /// it arrives at the peer one `arrive_delay` after its last bit. The
    /// `Arrive` is keyed as caused at `tx_end` with the transmission's `seq`
    /// — read off the port, so it is the identical event whether this runs
    /// at tx-start (healthy port) or from the `TxDone` at `tx_end` (sampling
    /// port).
    fn launch(&mut self, node: NodeId, port: PortId) {
        let p = &self.nodes[node as usize].ports[port as usize];
        let (peer, peer_port, id, tx_end) = (p.peer, p.peer_port, p.tx_pkt, p.tx_end);
        let at = tx_end + p.arrive_delay;
        self.sched.schedule_keyed(
            at,
            Tie::new(at, tx_end, p.tx_tie.seq()),
            EventKind::Arrive {
                node: peer,
                port: peer_port,
                pkt: id,
            },
        );
    }

    /// Decrement PFC ingress accounting for a departing packet; send RESUME
    /// upstream if occupancy dropped below the resume threshold.
    fn pfc_release(&mut self, node: NodeId, ingress_tag: u16, size: u64) {
        if ingress_tag == INGRESS_NONE {
            return;
        }
        let resume = {
            let n = &mut self.nodes[node as usize];
            let NodeKind::Switch(meta) = &mut n.kind else {
                return;
            };
            let Some(pfc) = &mut meta.pfc else { return };
            if pfc.on_released(ingress_tag, size) == PfcAction::SendResume {
                let ip = &n.ports[ingress_tag as usize];
                Some((ip.peer, ip.peer_port, ip.delay))
            } else {
                None
            }
        };
        if let Some((peer, peer_port, delay)) = resume {
            self.recorder.bump(Counter::PfcResumes);
            self.sched.schedule(
                self.now + delay,
                EventKind::Pfc {
                    node: peer,
                    port: peer_port,
                    pause: false,
                },
            );
        }
    }

    /// The last bit of the latest transmission left `(node, port)`. On a
    /// sampling port this decides the packet's fate; on every port it
    /// starts the next queued packet.
    fn handle_tx_done(&mut self, node: NodeId, port: PortId) {
        let p = &mut self.nodes[node as usize].ports[port as usize];
        p.wake_pending = false;
        if p.tx_sampled {
            self.sample_and_launch(node, port);
        }
        self.try_start_tx(node, port);
    }

    /// At the last bit on a sampling port: drop the packet if the link's
    /// state says so, put it on the wire otherwise.
    fn sample_and_launch(&mut self, node: NodeId, port: PortId) {
        let p = &self.nodes[node as usize].ports[port as usize];
        let (id, link_up, loss_rate, ber) = (p.tx_pkt, p.up, p.loss_rate, p.ber);
        // Fault checks, in severity order. Each consults the departing
        // port's private fault stream only when its fault is actually
        // configured, so healthy runs make no draws at all.
        let dropped = if !link_up {
            Some(DropReason::LinkDown)
        } else if loss_rate > 0.0 && self.fault_rng_draw(node, port) < loss_rate {
            Some(DropReason::GrayLoss)
        } else if ber > 0.0 && {
            let bits = self.packets.get(id).size as i32 * 8;
            let survive = (1.0 - ber).powi(bits);
            self.fault_rng_draw(node, port) >= survive
        } {
            Some(DropReason::Corruption)
        } else {
            None
        };
        match dropped {
            Some(reason) => self.drop_packet(id, reason, node, port),
            None => self.launch(node, port),
        }
    }

    /// Draw from `(node, port)`'s private fault stream, splitting it off
    /// the never-advanced root on first use. The split label is the
    /// directed port identity, so an egress draws the same stream no matter
    /// which other ports are faulted.
    fn fault_rng_draw(&mut self, node: NodeId, port: PortId) -> f64 {
        let root = &self.faults_rng;
        let p = &mut self.nodes[node as usize].ports[port as usize];
        p.fault_rng
            .get_or_insert_with(|| root.split(((node as u64) << 16) | port as u64))
            .gen_f64()
    }

    fn handle_pfc(&mut self, node: NodeId, port: PortId, pause: bool) {
        self.nodes[node as usize].ports[port as usize].paused = pause;
        if !pause {
            self.try_start_tx(node, port);
        }
    }
}

#[inline]
fn proto_index(p: Proto) -> usize {
    match p {
        Proto::Tcp => 0,
        Proto::Udp => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowKey, HostId, Packet, MSS};

    /// An agent that sends `count` MSS-sized packets to `dst` at start and
    /// counts everything it receives.
    struct Blaster {
        dst: HostId,
        count: u32,
        received: std::rc::Rc<std::cell::Cell<u32>>,
        echo: bool,
    }

    impl Agent for Blaster {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let src = ctx.host();
            for i in 0..self.count {
                let key = FlowKey {
                    src,
                    dst: self.dst,
                    sport: 1,
                    dport: 2,
                    proto: Proto::Tcp,
                };
                let pkt = Packet::data(0, key, 0, i as u64 * MSS as u64, MSS, ctx.now());
                ctx.send(pkt);
            }
        }
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            self.received.set(self.received.get() + 1);
            if self.echo {
                let ack = Packet::ack_packet(
                    pkt.flow,
                    pkt.key,
                    0,
                    pkt.seq + pkt.payload as u64,
                    pkt.tstamp,
                );
                ctx.send(ack);
            }
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
    }

    fn two_hosts_one_switch() -> (Simulator, NodeId, NodeId, NodeId) {
        let mut sim = Simulator::new(7);
        let h0 = sim.add_host_default();
        let h1 = sim.add_host_default();
        let sw = sim.add_switch(SwitchConfig::commodity(HashConfig::FiveTupleAndVField));
        sim.connect(h0, sw, LinkSpec::host_10g());
        sim.connect(h1, sw, LinkSpec::host_10g());
        let mut rt = RoutingTable::new(2);
        rt.set(h0, vec![0]);
        rt.set(h1, vec![1]);
        sim.set_routes(sw, rt);
        (sim, h0, h1, sw)
    }

    #[test]
    fn packets_traverse_a_switch() {
        let (mut sim, h0, h1, _sw) = two_hosts_one_switch();
        let received = std::rc::Rc::new(std::cell::Cell::new(0));
        sim.set_agent(
            h0,
            Box::new(Blaster {
                dst: h1,
                count: 10,
                received: received.clone(),
                echo: false,
            }),
        );
        let sink = std::rc::Rc::new(std::cell::Cell::new(0));
        sim.set_agent(
            h1,
            Box::new(Blaster {
                dst: h1,
                count: 0,
                received: sink.clone(),
                echo: false,
            }),
        );
        sim.run_to_quiescence();
        assert_eq!(sink.get(), 10);
        assert_eq!(received.get(), 0);
    }

    #[test]
    fn latency_matches_paper_delay_model() {
        // One-way latency for one MSS packet host->switch->host:
        //   20us TX stack + 1.2us ser + 100ns wire + 1us switch proc
        // + 1.2us ser + 100ns wire + 20us RX stack = 43.6us
        let (mut sim, h0, h1, _sw) = two_hosts_one_switch();
        let sink = std::rc::Rc::new(std::cell::Cell::new(0));
        sim.set_agent(
            h0,
            Box::new(Blaster {
                dst: h1,
                count: 1,
                received: std::rc::Rc::new(std::cell::Cell::new(0)),
                echo: false,
            }),
        );
        sim.set_agent(
            h1,
            Box::new(Blaster {
                dst: h1,
                count: 0,
                received: sink.clone(),
                echo: false,
            }),
        );
        sim.run_to_quiescence();
        assert_eq!(sink.get(), 1);
        let expect = SimTime::from_us(20)
            + SimTime::serialization(1500, 10_000_000_000)
            + SimTime::from_ns(100)
            + SimTime::from_us(1)
            + SimTime::serialization(1500, 10_000_000_000)
            + SimTime::from_ns(100)
            + SimTime::from_us(20);
        assert_eq!(sim.now(), expect);
    }

    #[test]
    fn rtt_matches_paper_model_with_echo() {
        // Round trip with an ACK (40B) on the way back adds the reverse
        // direction: 20 + ack_ser + .1 + 1 + ack_ser + .1 + 20.
        let (mut sim, h0, h1, _sw) = two_hosts_one_switch();
        let got_ack = std::rc::Rc::new(std::cell::Cell::new(0));
        sim.set_agent(
            h0,
            Box::new(Blaster {
                dst: h1,
                count: 1,
                received: got_ack.clone(),
                echo: false,
            }),
        );
        sim.set_agent(
            h1,
            Box::new(Blaster {
                dst: h1,
                count: 0,
                received: std::rc::Rc::new(std::cell::Cell::new(0)),
                echo: true,
            }),
        );
        sim.run_to_quiescence();
        assert_eq!(got_ack.get(), 1);
        let data_ser = SimTime::serialization(1500, 10_000_000_000);
        let ack_ser = SimTime::serialization(40, 10_000_000_000);
        let hop = SimTime::from_ns(100);
        let one_way_data = SimTime::from_us(20)
            + data_ser
            + hop
            + SimTime::from_us(1)
            + data_ser
            + hop
            + SimTime::from_us(20);
        let one_way_ack = SimTime::from_us(20)
            + ack_ser
            + hop
            + SimTime::from_us(1)
            + ack_ser
            + hop
            + SimTime::from_us(20);
        assert_eq!(sim.now(), one_way_data + one_way_ack);
        // The paper's "~90us baremetal RTT" arithmetic (4 host delays +
        // per-switch delays) should be in the right ballpark here: 1 switch
        // each way -> 82us + serialization.
        assert!(sim.now() > SimTime::from_us(82) && sim.now() < SimTime::from_us(90));
    }

    #[test]
    fn dead_link_black_holes_traffic() {
        let (mut sim, h0, h1, sw) = two_hosts_one_switch();
        let sink = std::rc::Rc::new(std::cell::Cell::new(0));
        sim.set_agent(
            h0,
            Box::new(Blaster {
                dst: h1,
                count: 5,
                received: std::rc::Rc::new(std::cell::Cell::new(0)),
                echo: false,
            }),
        );
        sim.set_agent(
            h1,
            Box::new(Blaster {
                dst: h1,
                count: 0,
                received: sink.clone(),
                echo: false,
            }),
        );
        // Kill the switch->h1 link before anything is sent.
        sim.set_link_state(sw, 1, false);
        sim.run_to_quiescence();
        assert_eq!(sink.get(), 0);
        assert_eq!(sim.recorder().get(Counter::LinkDrops), 5);
    }

    #[test]
    fn deterministic_event_counts() {
        let run = || {
            let (mut sim, h0, h1, _sw) = two_hosts_one_switch();
            let sink = std::rc::Rc::new(std::cell::Cell::new(0));
            sim.set_agent(
                h0,
                Box::new(Blaster {
                    dst: h1,
                    count: 50,
                    received: std::rc::Rc::new(std::cell::Cell::new(0)),
                    echo: false,
                }),
            );
            sim.set_agent(
                h1,
                Box::new(Blaster {
                    dst: h1,
                    count: 0,
                    received: sink.clone(),
                    echo: true,
                }),
            );
            sim.run_to_quiescence();
            (sim.events_processed(), sim.now())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn port_stats_account_tx_bytes() {
        let (mut sim, h0, h1, sw) = two_hosts_one_switch();
        sim.set_agent(
            h0,
            Box::new(Blaster {
                dst: h1,
                count: 4,
                received: std::rc::Rc::new(std::cell::Cell::new(0)),
                echo: false,
            }),
        );
        sim.run_to_quiescence();
        let host_port = sim.port_stats(h0, 0);
        assert_eq!(host_port.tx_pkts, 4);
        assert_eq!(host_port.tx_bytes_tcp, 4 * 1500);
        assert_eq!(host_port.tx_bytes_udp, 0);
        let sw_port = sim.port_stats(sw, 1);
        assert_eq!(sw_port.tx_pkts, 4);
    }

    #[test]
    fn run_until_respects_deadline() {
        let (mut sim, h0, h1, _sw) = two_hosts_one_switch();
        sim.set_agent(
            h0,
            Box::new(Blaster {
                dst: h1,
                count: 1,
                received: std::rc::Rc::new(std::cell::Cell::new(0)),
                echo: false,
            }),
        );
        sim.run_until(SimTime::from_us(5));
        // Only the HostTx (at 20us) is pending; nothing has fired except
        // agent starts. Clock parked exactly at the deadline.
        assert_eq!(sim.now(), SimTime::from_us(5));
        sim.run_until(SimTime::from_ms(1));
        assert_eq!(sim.now(), SimTime::from_ms(1));
    }

    #[test]
    fn queue_depth_series_follows_switch_egresses_only() {
        let (mut sim, h0, h1, sw) = two_hosts_one_switch();
        sim.set_agent(
            h0,
            Box::new(Blaster {
                dst: h1,
                count: 200,
                received: std::rc::Rc::new(std::cell::Cell::new(0)),
                echo: false,
            }),
        );
        sim.set_telemetry(TelemetryConfig::every(SimTime::from_us(10)));
        sim.run_to_quiescence();
        // One series: the switch egress the burst crosses. Host NICs queue
        // (all 200 packets sit in h0's at 20 us) but are not probed.
        let series = sim.recorder().telemetry().series();
        assert_eq!(series.len(), 1);
        let key = SeriesKey::QueueDepth { node: sw, port: 1 };
        assert_eq!(series[0].key(), key);
        // 200 x 1.2 us of enqueues, at most one point per 10 us.
        let points = series[0].points();
        assert_eq!(points.len(), 23);
        assert!(points
            .windows(2)
            .all(|w| w[1].0 >= w[0].0 + SimTime::from_us(10)));
        // 200 back-to-back packets from a single 10G sender drain at line
        // rate (store-and-forward, equal rates): the post-enqueue depth is
        // the arriving packet alone, and the series must say so rather than
        // inventing occupancy.
        assert!(points.iter().all(|&(_, b)| b == 1500.0), "{points:?}");
    }

    #[test]
    fn set_link_rate_changes_serialization() {
        let (mut sim, h0, h1, _sw) = two_hosts_one_switch();
        sim.set_link_rate(h0, 0, 1_000_000_000); // 1G host uplink
        let sink = std::rc::Rc::new(std::cell::Cell::new(0));
        sim.set_agent(
            h0,
            Box::new(Blaster {
                dst: h1,
                count: 100,
                received: std::rc::Rc::new(std::cell::Cell::new(0)),
                echo: false,
            }),
        );
        sim.set_agent(
            h1,
            Box::new(Blaster {
                dst: h1,
                count: 0,
                received: sink.clone(),
                echo: false,
            }),
        );
        sim.run_to_quiescence();
        assert_eq!(sink.get(), 100);
        // 100 x 1500B at 1G = 1.2ms of serialization at the slow link alone.
        assert!(sim.now() > SimTime::from_ms(1), "now = {}", sim.now());
        assert_eq!(sim.link_rate(h0, 0), 1_000_000_000);
    }

    #[test]
    #[should_panic]
    fn set_agent_on_switch_panics() {
        let mut sim = Simulator::new(1);
        let sw = sim.add_switch(SwitchConfig::rps());
        sim.set_agent(sw, Box::new(NullAgent));
    }

    /// Sends one data packet per `(at, dst, payload)` entry, at exactly
    /// `at` on a host without stack delay.
    struct Timed {
        sends: Vec<(SimTime, HostId, u32)>,
    }

    impl Agent for Timed {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (i, &(at, _, _)) in self.sends.iter().enumerate() {
                ctx.set_timer(at, i as u64);
            }
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
            let (_, dst, payload) = self.sends[token as usize];
            let key = FlowKey {
                src: ctx.host(),
                dst,
                sport: 1,
                dport: 2,
                proto: Proto::Tcp,
            };
            ctx.send(Packet::data(ctx.host(), key, 0, token, payload, ctx.now()));
        }
    }

    /// `h0` and `h1` (no stack delays) each send one packet through one
    /// switch to `h2`, timed so that `h1`'s reaches the shared egress in the
    /// very picosecond `h0`'s finishes serializing there. Returns the
    /// simulator and the two delivery times at `h2`.
    fn tie_at_tx_end(first_payload: u32) -> (Simulator, Vec<(SimTime, u32, u64)>) {
        let mut sim = Simulator::new(1);
        let hosts: Vec<NodeId> = (0..3)
            .map(|_| sim.add_host(SimTime::ZERO, SimTime::ZERO))
            .collect();
        let sw = sim.add_switch(SwitchConfig::commodity(HashConfig::FiveTuple));
        let mut rt = RoutingTable::new(3);
        for &h in &hosts {
            let (_, sw_port) = sim.connect(h, sw, LinkSpec::host_10g());
            rt.set(h, vec![sw_port]);
        }
        sim.set_routes(sw, rt);
        let ser = |payload| SimTime::serialization((payload + 40) as u64, 10_000_000_000);
        // h0's packet is at the egress at t0 + ser + 1.1 us and leaves it one
        // ser later; h1's (MSS) must arrive then.
        let t0 = SimTime::from_us(5);
        let t1 = t0 + ser(first_payload) + ser(first_payload) - ser(MSS);
        sim.set_agent(
            hosts[0],
            Box::new(Timed {
                sends: vec![(t0, hosts[2], first_payload)],
            }),
        );
        sim.set_agent(
            hosts[1],
            Box::new(Timed {
                sends: vec![(t1, hosts[2], MSS)],
            }),
        );
        let log = crate::testutil::RxLog::shared();
        sim.set_agent(
            hosts[2],
            Box::new(crate::testutil::CountingSink { log: log.clone() }),
        );
        sim.run_to_quiescence();
        sim.assert_conservation();
        let hop = SimTime::from_ns(1_100);
        let at_egress = t0 + ser(first_payload) + hop;
        let arrivals = log.borrow().arrivals.clone();
        // FIFO, back to back, exactly as an engine with a real TxDone.
        let first_out = at_egress + ser(first_payload);
        assert_eq!(
            arrivals,
            vec![
                (first_out + SimTime::from_ns(100), hosts[0], 0),
                (first_out + ser(MSS) + SimTime::from_ns(100), hosts[1], 0),
            ]
        );
        let egress = sim.port_stats(sw, 2);
        assert_eq!((egress.tx_pkts, egress.queue.enqueued), (2, 2));
        assert_eq!(egress.queue.max_bytes, 1500, "never two packets queued");
        (sim, arrivals)
    }

    const TX_DONE: usize = 1;

    /// The port's virtual TxDone is keyed (tx_end, cause tx_start): a 1.2 us
    /// serialization started before the 1.1 us-hop arrival was caused, so it
    /// sorts first and the arriving packet finds the port free — no TxDone
    /// event anywhere in the run.
    #[test]
    fn arrival_at_tx_end_after_the_virtual_tx_done_starts_at_once() {
        let (sim, _) = tie_at_tx_end(MSS);
        assert_eq!(EventKind::NAMES[TX_DONE], "tx_done");
        assert_eq!(sim.event_mix()[TX_DONE], 0);
        // 2 timers, 2 HostTx, 2 arrivals at the switch, 2 at the sink.
        assert_eq!(sim.events_processed(), 8);
    }

    /// A 0.8 us serialization started *after* the arrival was caused: the
    /// classic TxDone would have popped second, so the packet must find the
    /// port busy, queue, and be started by a wake-up at the same instant.
    #[test]
    fn arrival_at_tx_end_before_the_virtual_tx_done_queues_behind_it() {
        let (sim, _) = tie_at_tx_end(960);
        assert_eq!(sim.event_mix()[TX_DONE], 1, "the one wake-up");
        assert_eq!(sim.events_processed(), 9);
    }

    /// A PFC pause lands on a host NIC 0.3 us into a fused serialization
    /// that began at 25 us (20 us TX stack), a second packet is handed to the
    /// NIC at 0.6 us, the resume comes at `resume_ns`. The in-flight packet is unaffected; the second starts
    /// at the later of resume and the first one's last bit.
    fn pause_during_fused_tx(resume_ns: u64) -> (Vec<SimTime>, u64) {
        let (mut sim, h0, h1, _sw) = two_hosts_one_switch();
        let t0 = SimTime::from_us(25);
        sim.set_agent(
            h0,
            Box::new(Timed {
                sends: vec![
                    (t0 - SimTime::from_us(20), h1, MSS),
                    (t0 - SimTime::from_us(20) + SimTime::from_ns(600), h1, MSS),
                ],
            }),
        );
        let log = crate::testutil::RxLog::shared();
        sim.set_agent(
            h1,
            Box::new(crate::testutil::CountingSink { log: log.clone() }),
        );
        for (ns, pause) in [(300, true), (resume_ns, false)] {
            sim.sched.schedule(
                t0 + SimTime::from_ns(ns),
                EventKind::Pfc {
                    node: h0,
                    port: 0,
                    pause,
                },
            );
        }
        sim.run_to_quiescence();
        sim.assert_conservation();
        let times = log.borrow().arrivals.iter().map(|a| a.0).collect();
        (times, sim.event_mix()[TX_DONE])
    }

    #[test]
    fn pfc_pause_during_a_fused_serialization() {
        // NIC 1.2 + hop 1.1 + egress 1.2 + wire 0.1 + RX stack 20 us.
        let path = SimTime::from_ns(3_600) + SimTime::from_us(20);
        let t0 = SimTime::from_us(25);
        // Resumed while still serializing: the resume finds a packet waiting
        // behind a busy port and books the wake-up; back-to-back departure.
        let (times, wakeups) = pause_during_fused_tx(900);
        assert_eq!(times, vec![t0 + path, t0 + path + SimTime::from_ns(1_200)]);
        assert_eq!(wakeups, 1);
        // Resumed after the last bit: the resume itself starts the packet.
        let (times, wakeups) = pause_during_fused_tx(2_000);
        assert_eq!(times, vec![t0 + path, t0 + path + SimTime::from_ns(2_000)]);
        assert_eq!(wakeups, 0);
    }

    /// The rule for a fault API call that finds a fused packet in flight:
    /// that packet was launched healthy and keeps the arrival it was booked
    /// with; the port samples at the last bit from its next tx-start.
    #[test]
    fn midrun_fault_api_spares_the_fused_packet_in_flight() {
        let run = |fault: &dyn Fn(&mut Simulator, NodeId)| {
            let mut sim = Simulator::new(1);
            let h0 = sim.add_host(SimTime::ZERO, SimTime::ZERO);
            let h1 = sim.add_host(SimTime::ZERO, SimTime::ZERO);
            let sw = sim.add_switch(SwitchConfig::commodity(HashConfig::FiveTuple));
            sim.connect(h0, sw, LinkSpec::host_10g());
            sim.connect(h1, sw, LinkSpec::host_10g());
            let mut rt = RoutingTable::new(2);
            rt.set(h0, vec![0]);
            rt.set(h1, vec![1]);
            sim.set_routes(sw, rt);
            sim.set_agent(
                h0,
                Box::new(Timed {
                    sends: vec![(SimTime::ZERO, h1, MSS), (SimTime::from_us(10), h1, MSS)],
                }),
            );
            let log = crate::testutil::RxLog::shared();
            sim.set_agent(
                h1,
                Box::new(crate::testutil::CountingSink { log: log.clone() }),
            );
            // Half-way through the first packet's serialization on the NIC.
            sim.run_until(SimTime::from_ns(600));
            fault(&mut sim, h0);
            sim.run_to_quiescence();
            sim.assert_conservation();
            let times: Vec<SimTime> = log.borrow().arrivals.iter().map(|a| a.0).collect();
            (times, sim.recorder().drops().totals())
        };
        let healthy = SimTime::from_ns(1_200 + 1_100 + 1_200 + 100);
        let one = |reason: DropReason| {
            let mut by_reason = [0; DropReason::COUNT];
            by_reason[reason as usize] = 1;
            by_reason
        };
        // Link down: the first packet arrives, the second dies at tx-start.
        let (times, lost) = run(&|sim, h0| sim.set_link_state(h0, 0, false));
        assert_eq!((times, lost), (vec![healthy], one(DropReason::LinkDown)));
        // Certain loss: the first packet survives, the second is sampled.
        let (times, lost) = run(&|sim, h0| sim.set_gray_loss(h0, 0, 1.0));
        assert_eq!((times, lost), (vec![healthy], one(DropReason::GrayLoss)));
    }
}
