//! # flowbender — flow-level adaptive routing for datacenter networks
//!
//! A clean-room Rust implementation of the end-host algorithm from
//! *FlowBender: Flow-level Adaptive Routing for Improved Latency and
//! Throughput in Datacenter Networks* (Kabbani, Vamanan, Duchene, Hasan —
//! CoNEXT 2014).
//!
//! ## The idea
//!
//! ECMP pins each flow to one path by hashing its headers; colliding long
//! flows then share a congested path indefinitely while other paths idle.
//! FlowBender keeps ECMP's zero-reordering property but makes the mapping
//! *adaptive*: the switches' hash is configured to also cover a flexible
//! header field (TTL or VLAN id — the "V-field"), and the **sender** changes
//! that field when, and only when, the flow is congested or stalled:
//!
//! * every RTT, the sender computes `F`, the fraction of its ACKs carrying
//!   the ECN echo (DCTCP-style marking makes `F` a direct measure of path
//!   congestion);
//! * if `F > T` for `N` consecutive RTTs, the sender picks a new `V`
//!   — the flow re-hashes onto a different path at every hop;
//! * if a retransmission timeout fires, the sender reroutes immediately,
//!   which recovers from link failures within roughly one RTO, orders of
//!   magnitude faster than routing reconvergence.
//!
//! The entire mechanism is ~50 lines of sender-side logic and a few lines
//! of switch configuration — no new hardware, no receiver changes, no
//! packet scatter.
//!
//! ## This crate
//!
//! [`FlowBender`] is the per-flow state machine, deliberately decoupled
//! from any particular transport or simulator: you feed it ACK/mark counts,
//! epoch boundaries, and timeouts; it hands back [`Decision`]s and the
//! current [`FlowBender::vfield`]. [`FlowcutGap`] is the other host-side
//! controller the evaluation compares, shaped the same way. The companion
//! `transport` crate wires them into a packet-level DCTCP implementation,
//! and the `netsim`/`topology` crates provide fabrics whose ECMP hash
//! covers the V-field.
//!
//! ```
//! use flowbender::{Config, Decision, FlowBender, SplitMix64};
//! let mut rng = SplitMix64::new(42);
//! let mut fb = FlowBender::new(Config::default(), &mut rng);
//!
//! // Each RTT, report ACKs as they arrive...
//! for _ in 0..9 { fb.on_ack(false); }
//! fb.on_ack(true); // one ECN echo: F = 10% > T = 5%
//!
//! // ...then close the epoch:
//! match fb.on_rtt_end(&mut rng) {
//!     Decision::Reroute { from, to } => {
//!         assert_ne!(from, to);
//!         assert_eq!(to, fb.vfield()); // stamp into outgoing packets
//!     }
//!     Decision::Stay => unreachable!("10% marked exceeds the 5% default T"),
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bender;
mod config;
mod controller;
mod rng;

pub use bender::{Decision, FlowBender};
pub use config::Config;
pub use controller::FlowcutGap;
pub use rng::{Rng, SplitMix64};
