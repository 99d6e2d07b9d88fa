//! # netsim — a deterministic packet-level datacenter network simulator
//!
//! This crate is the substrate of the FlowBender (CoNEXT'14) reproduction:
//! an ns-3-class discrete-event simulator purpose-built for datacenter
//! load-balancing experiments. It models:
//!
//! * full-duplex point-to-point links with exact (picosecond-resolution)
//!   serialization and propagation times,
//! * drop-tail egress queues with DCTCP-style single-threshold ECN marking,
//! * switches running any of the paper's fabric-side schemes — static ECMP
//!   hashing (with or without the FlowBender V-field), per-packet random
//!   spraying (RPS), and DeTail-style per-packet adaptive routing with PFC
//!   (combined input/output queueing, pause/resume thresholds),
//! * hosts with the paper's 20 µs stack delays, running pluggable protocol
//!   [`Agent`]s (TCP/DCTCP/UDP live in the `transport` crate),
//! * administrative link failures (black-holing until "routing reconverges",
//!   which in these experiments never happens — that is the point),
//! * deterministic fault injection via [`FaultPlan`] — gray (probabilistic)
//!   loss, link flaps, whole-switch outages and bit-error corruption — with
//!   per-port drop-reason accounting and an end-of-run conservation audit
//!   ([`Simulator::conservation`]),
//! * a run-wide [`Recorder`] of flow completions, event counters, and
//!   (opt-in, via [`TelemetryConfig`]) named time-series probes — switch
//!   queue depths and V-field reroute traces,
//! * an opt-in per-flow flight recorder ([`TraceConfig`]) that captures
//!   ring-buffered event timelines — hops, enqueues, ECN marks, drops,
//!   sender state transitions — for post-mortem diagnosis of tail flows.
//!
//! Everything is deterministic: given the same build sequence and master
//! seed, a run reproduces bit-for-bit, including every "random" choice
//! (hash salts, RPS picks, tie-breaks) via the internal PCG streams.
//!
//! ## Quick tour
//!
//! ```
//! use netsim::{Simulator, SwitchConfig, LinkSpec, RoutingTable, HashConfig, SimTime};
//!
//! let mut sim = Simulator::new(42);
//! let h0 = sim.add_host_default();
//! let h1 = sim.add_host_default();
//! let sw = sim.add_switch(SwitchConfig::commodity(HashConfig::FiveTupleAndVField));
//! sim.connect(h0, sw, LinkSpec::host_10g());
//! sim.connect(h1, sw, LinkSpec::host_10g());
//! let mut routes = RoutingTable::new(2);
//! routes.set(h0, vec![0]);
//! routes.set(h1, vec![1]);
//! sim.set_routes(sw, routes);
//! // ... attach agents with sim.set_agent(host, Box::new(...)) ...
//! sim.run_until(SimTime::from_ms(10));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod agent;
pub mod event;
pub mod faults;
pub mod flow;
pub mod hashing;
pub mod packet;
pub mod queue;
pub mod record;
pub mod rng;
pub mod sim;
pub mod slab;
pub mod switch;
pub mod telemetry;
pub mod testutil;
pub mod time;
pub mod trace;

pub use agent::{Agent, Ctx, NullAgent};
pub use faults::{FaultAction, FaultPlan};
pub use flow::{register_flows, FlowSpec};
pub use hashing::{DetHashMap, EcmpHasher, FxBuildHasher, FxHasher, HashConfig};
pub use packet::{
    Flags, FlowId, FlowKey, HostId, NodeId, Packet, PortId, Proto, ACK_BYTES, HEADER_BYTES, MSS,
    MTU,
};
pub use queue::{EcnQueue, EnqueueResult, QueueStats};
pub use record::{
    Counter, DropAudit, DropReason, Emit, FlowRecord, Recorder, RunResults, SloConfig, SloResults,
};
pub use rng::DetRng;
pub use sim::{
    Conservation, LinkSpec, PortStats, QueueSpec, Simulator, SwitchConfig, LINK_BPS, LINK_DELAY,
};
pub use slab::{PacketId, PacketSlab};
pub use switch::{
    FlowcutConfig, FlowcutDecision, ForwardingScheme, PfcConfig, PinTable, PortSetId, RoutingTable,
};
pub use telemetry::{Series, SeriesKey, Telemetry, TelemetryConfig};
pub use time::SimTime;
pub use trace::{FlowTimeline, Trace, TraceConfig, TraceEvent};
