//! # transport — packet-level TCP/DCTCP/UDP endpoints for `netsim`
//!
//! The end-host half of the FlowBender reproduction. Implements the
//! paper's §4.2 stack from scratch:
//!
//! * **TCP New Reno** — slow start, congestion avoidance, duplicate-ACK
//!   fast retransmit and fast recovery, go-back-N retransmission timeouts
//!   with exponential backoff and a 10 ms RTO floor;
//! * **DCTCP** on top (all evaluated schemes run over DCTCP): per-window
//!   `alpha` estimation with gain 1/16 from per-packet ECN echoes, and the
//!   `cwnd *= 1 - alpha/2` multiplicative decrease — also triggered by a
//!   switch CN when the fabric sends them;
//! * **FlowBender** (from the `flowbender` crate) attached per flow when
//!   configured: DCTCP's window rounds double as FlowBender's RTT epochs;
//! * **UDP** constant-bit-rate sources for the hotspot experiment.
//!
//! [`install_agents`] wires a full simulator: give it the run's
//! [`netsim::FlowSpec`]s and a [`TcpConfig`], and every host gets a
//! [`HostAgent`] owning its senders and receivers — each endpoint only
//! while its flow is in flight, a 16-byte record otherwise.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod agent;
pub mod config;
pub mod receiver;
pub mod rtt;
pub mod sender;
pub mod udp;

pub use agent::{install_agents, HostAgent};
pub use config::{PathControl, PathSpec, TcpConfig};
pub use receiver::Receiver;
pub use rtt::{RttEstimator, RTO_MAX};
pub use sender::{TcpSender, TimerOutcome};
pub use udp::UdpSender;
