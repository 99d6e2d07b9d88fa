//! Per-flow flight recorder: opt-in, ring-buffered event timelines.
//!
//! The paper's evaluation turns on *why* a tail flow was slow — which
//! queue built up, which hop marked it, when the sender bent to a new
//! path. Aggregate counters and telemetry series answer "how much"; the
//! flight recorder answers "what happened to flow 17, in order".
//!
//! Design mirrors [`crate::telemetry`]:
//!
//! * A [`TraceConfig`] is the list of traced flows, nothing else: tracing
//!   is on exactly when the list is non-empty. The default list is empty;
//!   every hook in the hot path is then a single branch
//!   ([`Recorder::trace_wants`](crate::Recorder::trace_wants) tests one
//!   length), so an untraced run pays one branch per hook, already
//!   inside flowbench's `netsim.switch.hop_ns`.
//! * Each traced flow owns a ring of [`RING_CAPACITY`]
//!   `(SimTime, TraceEvent)` pairs. When the ring is full the *oldest*
//!   events are overwritten and counted in
//!   [`FlowTimeline::truncated`] — the tail of a timeline (the part that
//!   explains a slow completion) is always retained.
//! * Events are recorded in simulation-event order, which is
//!   deterministic, so two runs with the same seed and the same trace
//!   selection produce byte-identical timelines.
//!
//! Network-side events (hops, queue occupancy, ECN marks, drops) are
//! hooked from the simulator core; sender-side events (cwnd changes,
//! fast-retransmit entry/exit, RTO fires, path-controller decisions)
//! from the transport crate. All of them funnel through
//! [`crate::Recorder::trace_event`].

use crate::packet::{FlowId, NodeId, PortId};
use crate::record::DropReason;
use crate::time::SimTime;

/// Per-flow ring capacity (events retained per traced flow).
///
/// Large enough to hold every event of a multi-megabyte flow at paper
/// scale; small enough that tracing a handful of flows costs a few
/// hundred KiB.
pub const RING_CAPACITY: usize = 65_536;

/// Selects which flows the flight recorder follows; tracing is on exactly
/// when the selection is non-empty.
///
/// Construct with [`TraceConfig::off`] (the default) or
/// [`TraceConfig::flows`]; install via `Simulator::set_trace` before the
/// run starts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Traced flow ids, sorted and deduplicated.
    flows: Vec<FlowId>,
}

impl TraceConfig {
    /// Tracing disabled (the default).
    pub fn off() -> Self {
        TraceConfig::default()
    }

    /// Trace exactly the given flows (order and duplicates are
    /// normalized away). An empty selection is [`TraceConfig::off`].
    pub fn flows(mut ids: Vec<FlowId>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        TraceConfig { flows: ids }
    }

    /// Is `flow` selected?
    #[inline]
    pub fn wants(&self, flow: FlowId) -> bool {
        self.flows.binary_search(&flow).is_ok()
    }
}

/// One timestamped flight-recorder event.
///
/// Network events carry the node/port where they happened; sender events
/// carry the sender state that changed. Field types are the simulator's
/// own id types so the recorder stays allocation-free per event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A switch accepted the packet on `in_port` and routed it to
    /// `out_port` (the hashing decision, V-field included).
    Hop {
        /// Switch the packet traversed.
        node: NodeId,
        /// Ingress port.
        in_port: PortId,
        /// Chosen egress port.
        out_port: PortId,
    },
    /// The packet was appended to an egress queue.
    Enqueue {
        /// Node owning the queue.
        node: NodeId,
        /// Egress port.
        port: PortId,
        /// Queue occupancy in bytes *after* the enqueue.
        qbytes: u64,
    },
    /// The enqueue found the queue over the ECN threshold and set CE.
    EcnMark {
        /// Node owning the queue.
        node: NodeId,
        /// Egress port.
        port: PortId,
    },
    /// The packet left its queue and started serializing onto the link.
    Dequeue {
        /// Node owning the queue.
        node: NodeId,
        /// Egress port.
        port: PortId,
    },
    /// The packet left the simulation undelivered.
    Drop {
        /// Why it was dropped.
        reason: DropReason,
        /// Node where it died.
        node: NodeId,
        /// Port where it died.
        port: PortId,
    },
    /// The sender's congestion window changed.
    CwndChange {
        /// New congestion window in bytes.
        cwnd_bytes: u64,
    },
    /// The sender entered fast-retransmit/recovery (dup-ACK threshold).
    FastRetransmitEnter,
    /// The sender left recovery (full ACK of the recovery point).
    FastRetransmitExit,
    /// A retransmission timeout fired (a genuine one, not a stale timer).
    RtoFire {
        /// Exponential-backoff exponent *after* this timeout.
        backoff_exp: u32,
    },
    /// The flow's path controller decided to bend to a new path.
    Decision {
        /// V-field value before the decision.
        from_v: u8,
        /// V-field value after the decision.
        to_v: u8,
    },
    /// First data delivery at or after a configured failure instant: the
    /// flow's path works again (the reconvergence SLO probe's per-flow
    /// sample, see [`crate::record::SloConfig`]).
    Reconverge,
    /// A switch re-routed this flow's flowcut at a detected boundary
    /// (idle gap exceeded and the load trigger fired): subsequent packets
    /// pin to the new egress.
    FlowcutReroute {
        /// The re-routing switch.
        node: NodeId,
        /// The newly pinned egress port.
        port: PortId,
    },
}

impl TraceEvent {
    /// Stable machine-readable kind name (used as the JSON `kind` key).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Hop { .. } => "hop",
            TraceEvent::Enqueue { .. } => "enqueue",
            TraceEvent::EcnMark { .. } => "ecn_mark",
            TraceEvent::Dequeue { .. } => "dequeue",
            TraceEvent::Drop { .. } => "drop",
            TraceEvent::CwndChange { .. } => "cwnd",
            TraceEvent::FastRetransmitEnter => "fast_retransmit_enter",
            TraceEvent::FastRetransmitExit => "fast_retransmit_exit",
            TraceEvent::RtoFire { .. } => "rto_fire",
            TraceEvent::Decision { .. } => "decision",
            TraceEvent::Reconverge => "reconverge",
            TraceEvent::FlowcutReroute { .. } => "flowcut_reroute",
        }
    }
}

/// Ring of at most [`RING_CAPACITY`] timestamped events; oldest
/// overwritten first.
#[derive(Debug, Default)]
struct Ring {
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    /// Events overwritten because the ring was full.
    truncated: u64,
    events: Vec<(SimTime, TraceEvent)>,
}

impl Ring {
    fn push(&mut self, at: SimTime, ev: TraceEvent) {
        if self.events.len() < RING_CAPACITY {
            self.events.push((at, ev));
        } else {
            self.events[self.head] = (at, ev);
            self.head = (self.head + 1) % RING_CAPACITY;
            self.truncated += 1;
        }
    }

    /// Drain into chronological order.
    fn into_chronological(mut self) -> (Vec<(SimTime, TraceEvent)>, u64) {
        self.events.rotate_left(self.head);
        (self.events, self.truncated)
    }
}

/// The finished timeline of one traced flow, in chronological order.
#[derive(Debug, Clone)]
pub struct FlowTimeline {
    /// The traced flow.
    pub flow: FlowId,
    /// Events lost to ring overflow (always the *oldest* ones).
    pub truncated: u64,
    /// Timestamped events, oldest first.
    pub events: Vec<(SimTime, TraceEvent)>,
}

impl FlowTimeline {
    /// Number of retained events whose kind name is `kind`.
    pub fn count_kind(&self, kind: &str) -> usize {
        self.events.iter().filter(|(_, e)| e.kind() == kind).count()
    }
}

/// The flight-recorder store: one ring per selected flow.
///
/// Owned by [`crate::Recorder`]; the simulator core and transports reach
/// it through `Recorder::trace_wants` / `Recorder::trace_event`.
#[derive(Debug, Default)]
pub struct Trace {
    /// One `(flow, ring)` pair per selected flow, sorted by flow id
    /// (selections are small; lookup is a binary search). Empty when
    /// tracing is off.
    buffers: Vec<(FlowId, Ring)>,
}

impl Trace {
    /// An empty, disabled flight recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a configuration, allocating one ring per selected flow.
    /// Call before the run starts.
    pub fn set_config(&mut self, cfg: TraceConfig) {
        self.buffers = cfg
            .flows
            .into_iter()
            .map(|f| (f, Ring::default()))
            .collect();
    }

    /// Is any flow being traced? A single load; hot paths branch on this.
    #[inline]
    pub fn active(&self) -> bool {
        !self.buffers.is_empty()
    }

    /// Is `flow` being traced? One branch when tracing is disabled.
    #[inline]
    pub fn wants(&self, flow: FlowId) -> bool {
        self.active() && self.buffers.binary_search_by_key(&flow, |b| b.0).is_ok()
    }

    /// Record `ev` for `flow` at `at`. A no-op (one branch) when the flow
    /// is not selected.
    #[inline]
    pub fn record(&mut self, at: SimTime, flow: FlowId, ev: TraceEvent) {
        if !self.active() {
            return;
        }
        self.record_slow(at, flow, ev);
    }

    #[cold]
    fn record_slow(&mut self, at: SimTime, flow: FlowId, ev: TraceEvent) {
        if let Ok(i) = self.buffers.binary_search_by_key(&flow, |b| b.0) {
            self.buffers[i].1.push(at, ev);
        }
    }

    /// Consume the store, returning one timeline per selected flow,
    /// sorted by flow id. Flows that never produced an event still get a
    /// (possibly empty) timeline, so the selection is visible downstream.
    pub fn into_timelines(self) -> Vec<FlowTimeline> {
        self.buffers
            .into_iter()
            .map(|(flow, ring)| {
                let (events, truncated) = ring.into_chronological();
                FlowTimeline {
                    flow,
                    truncated,
                    events,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(n: NodeId) -> TraceEvent {
        TraceEvent::Hop {
            node: n,
            in_port: 0,
            out_port: 1,
        }
    }

    #[test]
    fn disabled_by_default_and_wants_nothing() {
        let t = Trace::new();
        assert!(!t.active());
        assert!(!t.wants(0));
        assert!(t.into_timelines().is_empty());
    }

    #[test]
    fn config_normalizes_selection() {
        let cfg = TraceConfig::flows(vec![7, 3, 7, 1]);
        assert_eq!(cfg.flows, [1, 3, 7]);
        assert!(cfg.wants(3));
        assert!(!cfg.wants(2));
        assert_eq!(TraceConfig::flows(vec![]), TraceConfig::off());
    }

    #[test]
    fn records_only_selected_flows_in_order() {
        let mut t = Trace::new();
        t.set_config(TraceConfig::flows(vec![2, 5]));
        t.record(SimTime::from_us(1), 2, hop(10));
        t.record(SimTime::from_us(2), 3, hop(11)); // not selected
        t.record(SimTime::from_us(3), 5, hop(12));
        t.record(
            SimTime::from_us(4),
            2,
            TraceEvent::RtoFire { backoff_exp: 1 },
        );
        let tl = t.into_timelines();
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0].flow, 2);
        assert_eq!(tl[0].events.len(), 2);
        assert_eq!(tl[0].events[0], (SimTime::from_us(1), hop(10)));
        assert_eq!(tl[0].count_kind("rto_fire"), 1);
        assert_eq!(tl[1].flow, 5);
        assert_eq!(tl[1].events.len(), 1);
        assert_eq!(tl[0].truncated + tl[1].truncated, 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_truncation() {
        let mut t = Trace::new();
        t.set_config(TraceConfig::flows(vec![0]));
        let pushed = RING_CAPACITY + 2;
        for i in 0..pushed {
            t.record(SimTime::from_us(i as u64), 0, hop(i as NodeId));
        }
        let tl = t.into_timelines().remove(0);
        assert_eq!(tl.truncated, 2);
        assert_eq!(tl.events.len(), RING_CAPACITY);
        // Oldest two (hops via nodes 0, 1) were overwritten; the rest are
        // chronological.
        let nodes: Vec<NodeId> = tl
            .events
            .iter()
            .map(|(_, e)| match e {
                TraceEvent::Hop { node, .. } => *node,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(nodes, (2..pushed as NodeId).collect::<Vec<_>>());
        assert!(tl.events.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn kind_names_are_stable_and_unique() {
        let evs = [
            hop(0),
            TraceEvent::Enqueue {
                node: 0,
                port: 0,
                qbytes: 0,
            },
            TraceEvent::EcnMark { node: 0, port: 0 },
            TraceEvent::Dequeue { node: 0, port: 0 },
            TraceEvent::Drop {
                reason: DropReason::QueueFull,
                node: 0,
                port: 0,
            },
            TraceEvent::CwndChange { cwnd_bytes: 1 },
            TraceEvent::FastRetransmitEnter,
            TraceEvent::FastRetransmitExit,
            TraceEvent::RtoFire { backoff_exp: 0 },
            TraceEvent::Decision { from_v: 0, to_v: 1 },
            TraceEvent::Reconverge,
            TraceEvent::FlowcutReroute { node: 0, port: 0 },
        ];
        let kinds: std::collections::HashSet<_> = evs.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), evs.len());
        assert!(kinds.contains("decision"));
    }
}
