//! Run-wide measurement collection.
//!
//! A single [`Recorder`] lives inside the simulator. Transports and the
//! simulator core report into it: flow completions (the raw material for
//! every latency figure in the paper), global event counters (out-of-order
//! arrivals, retransmissions, timeouts, reroutes, drops, PFC pauses, ...),
//! and — when enabled via [`TelemetryConfig`] — named time-series probes.
//!
//! The API is split along the write/read boundary: the simulator core and
//! the transports (through [`crate::agent::Ctx`]) write into the
//! [`Recorder`]; [`RunResults`] is the immutable *read-side* view handed to
//! the `stats` and `experiments` crates once a run finishes
//! ([`Recorder::finish`]).

use crate::event::EventKind;
use crate::hashing::DetHashMap;
use crate::packet::{FlowId, HostId, NodeId, PortId, Proto};
use crate::telemetry::{Series, SeriesKey, Telemetry, TelemetryConfig};
use crate::time::SimTime;
use crate::trace::{FlowTimeline, Trace, TraceConfig, TraceEvent};

/// One completed (or still-running, see [`Recorder::flow_started`]) flow.
#[derive(Debug, Clone)]
pub struct FlowRecord {
    /// Globally unique flow id.
    pub flow: FlowId,
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Application bytes transferred.
    pub bytes: u64,
    /// Time the flow arrived at the sender (application hand-off).
    pub start: SimTime,
    /// Time the receiver held the complete data, [`SimTime::MAX`] while
    /// still in progress.
    pub end: SimTime,
    /// Partition-aggregate job this flow belongs to, if any.
    pub job: Option<u32>,
    /// Transport protocol.
    pub proto: Proto,
}

impl FlowRecord {
    /// Flow completion time; `None` if the flow never finished.
    pub fn fct(&self) -> Option<SimTime> {
        (self.end != SimTime::MAX).then(|| self.end - self.start)
    }
}

/// Whether a counter appears in a run's JSON summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emit {
    /// Always, zero or not (the counters every run can move).
    Always,
    /// Only while nonzero: counters that one opt-in layer alone can move
    /// (switch feedback, the reordering suite, flowcuts), so summaries of
    /// runs that never exercise it keep the byte layout pinned before the
    /// layer existed.
    NonZero,
}

/// The one table every per-counter fact comes from: variant, JSON name,
/// [`Emit`] rule. Generates [`Counter`], its `COUNT`,
/// `all()` (table order = JSON order = `repr` order) and the accessors.
macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident = $name:literal, $emit:ident;)*) => {
        /// Global event counters. Extend the `counters!` table freely; the
        /// array in [`Recorder`] sizes itself from [`Counter::COUNT`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[$doc])* $variant,)*
        }

        impl Counter {
            /// Number of counter variants.
            pub const COUNT: usize = [$(Counter::$variant),*].len();

            /// All variants, for iteration in reports.
            pub fn all() -> [Counter; Counter::COUNT] {
                [$(Counter::$variant),*]
            }

            /// Human-readable name for report rendering.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)*
                }
            }

            /// Whether summaries omit this counter while it is zero.
            pub fn emit(self) -> Emit {
                match self {
                    $(Counter::$variant => Emit::$emit,)*
                }
            }
        }
    };
}

counters! {
    /// Data packets delivered to receivers.
    DataPktsRcvd = "data_pkts_rcvd", Always;
    /// Data packets that arrived out of order (seq below the highest seq
    /// already seen for the flow).
    OooPktsRcvd = "ooo_pkts_rcvd", Always;
    /// ACK packets delivered to senders.
    AcksRcvd = "acks_rcvd", Always;
    /// ACKs carrying the ECN echo.
    MarkedAcksRcvd = "marked_acks_rcvd", Always;
    /// Segments retransmitted (fast retransmit or RTO).
    Retransmits = "retransmits", Always;
    /// Retransmission timeouts fired.
    Timeouts = "timeouts", Always;
    /// FlowBender reroutes triggered by congestion (F > T for N RTTs).
    Reroutes = "reroutes", Always;
    /// FlowBender reroutes triggered by an RTO.
    TimeoutReroutes = "timeout_reroutes", Always;
    /// Packets dropped at a full queue.
    QueueDrops = "queue_drops", Always;
    /// Packets black-holed on a failed link.
    LinkDrops = "link_drops", Always;
    /// PFC pause frames sent.
    PfcPauses = "pfc_pauses", Always;
    /// PFC resume frames sent.
    PfcResumes = "pfc_resumes", Always;
    /// Duplicate ACKs observed by senders.
    DupAcks = "dup_acks", Always;
    /// Fast retransmits entered.
    FastRetransmits = "fast_retransmits", Always;
    /// DSACKs received by senders (spurious retransmissions detected).
    DsacksRcvd = "dsacks_rcvd", Always;
    /// Switch-generated congestion notifications emitted.
    CnSent = "cn_sent", NonZero;
    /// Congestion notifications delivered back to their senders.
    CnDelivered = "cn_delivered", NonZero;
    /// Congestion notifications suppressed by the per-(port, flow) rate
    /// limiter.
    CnSuppressed = "cn_suppressed", NonZero;
    /// INT per-hop telemetry records stamped into forwarded packets.
    IntStamps = "int_stamps", NonZero;
    /// Summed lead time (picoseconds) by which a CN beat the end-to-end
    /// ECN echo for the same congestion window. Divide by
    /// [`Counter::FeedbackLeadSamples`] for the mean.
    FeedbackLeadPs = "feedback_lead_ps", NonZero;
    /// Number of CN-vs-ECN-echo lead samples in
    /// [`Counter::FeedbackLeadPs`].
    FeedbackLeadSamples = "feedback_lead_samples", NonZero;
    /// Retransmissions proven spurious by a DSACK: the "lost" segment's
    /// original copy arrived after all (the reordering tax of spraying).
    SpuriousRetransmits = "spurious_retransmits", NonZero;
    /// Congestion-state undos driven by DSACKs: the sender restored the
    /// cwnd/ssthresh it cut on entering a recovery that turned out to be
    /// spurious.
    DsackUndos = "dsack_undos", NonZero;
    /// Payload bytes delivered more than once to receivers (segments the
    /// reassembly buffer already held in full).
    DupBytes = "dup_bytes", NonZero;
    /// High-water mark, in bytes, of any single receiver's out-of-order
    /// reassembly buffer (written with [`Recorder::record_max`]).
    OooBytesMax = "ooo_bytes_max", NonZero;
    /// Flowcut boundaries at which a switch actually re-routed a pinned
    /// flow to a different egress (switch-side flowcut switching).
    FlowcutReroutes = "flowcut_reroutes", NonZero;
    /// Packets forwarded on an already-pinned flowcut egress (the sticky
    /// fast path of switch-side flowcut switching).
    FlowcutPinned = "flowcut_pinned", NonZero;
}

/// Why a packet left the simulation without being delivered.
///
/// Every drop in the simulator is reported through
/// [`Recorder::drop_packet`] with one of these reasons; the per-port tallies
/// feed the end-of-run conservation audit
/// (`injected == delivered + dropped(reason) + in-flight`). The first two
/// reasons mirror the legacy [`Counter::QueueDrops`] / [`Counter::LinkDrops`]
/// counters (which keep incrementing for backwards compatibility); the last
/// two are produced only by the fault-injection layer (`netsim::faults`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum DropReason {
    /// Drop-tail: the egress queue was at capacity.
    QueueFull,
    /// Black-holed on an administratively-down link.
    LinkDown,
    /// Lost to a gray failure (per-port probabilistic loss).
    GrayLoss,
    /// Corrupted on the wire (bit-error-rate loss) and discarded.
    Corruption,
}

impl DropReason {
    /// Number of drop reasons.
    pub const COUNT: usize = 4;

    /// Stable machine-readable name (used as a JSON key).
    pub fn name(self) -> &'static str {
        match self {
            DropReason::QueueFull => "queue_full",
            DropReason::LinkDown => "link_down",
            DropReason::GrayLoss => "gray_loss",
            DropReason::Corruption => "corruption",
        }
    }

    /// All variants, in `repr` order.
    pub fn all() -> [DropReason; DropReason::COUNT] {
        [
            DropReason::QueueFull,
            DropReason::LinkDown,
            DropReason::GrayLoss,
            DropReason::Corruption,
        ]
    }
}

/// Configuration of the reconvergence / goodput SLO probe
/// ([`crate::Simulator::set_slo`]).
///
/// When set, the recorder watches every data delivery: per-flow
/// reconvergence latency (first delivery at or after `fail_at`, for flows
/// that started no later than `fail_at`) and a goodput histogram binned by
/// `bin`, both reported through [`SloResults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloConfig {
    /// The failure instant reconvergence latencies are measured against.
    pub fail_at: SimTime,
    /// Goodput histogram bin width (must be positive).
    pub bin: SimTime,
}

/// The write-side state behind [`SloConfig`].
#[derive(Debug)]
struct SloProbe {
    cfg: SloConfig,
    /// First at-or-post-failure delivery instant per affected flow.
    first_after: DetHashMap<FlowId, SimTime>,
    /// Delivered payload bytes per `cfg.bin`-wide time bin, from t = 0.
    goodput_bins: Vec<u64>,
}

/// Reconvergence and goodput measurements of one run, produced when the
/// SLO probe was configured ([`crate::Simulator::set_slo`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloResults {
    /// The configured failure instant.
    pub fail_at: SimTime,
    /// The configured goodput bin width.
    pub bin: SimTime,
    /// `(flow, first delivery at or after fail_at)` for every flow that
    /// started no later than `fail_at` and delivered again, sorted by
    /// flow id. Reconvergence latency is the difference to `fail_at`.
    pub first_after: Vec<(FlowId, SimTime)>,
    /// Delivered payload bytes per `bin`-wide time bin, from t = 0.
    pub goodput_bins: Vec<u64>,
}

impl SloResults {
    /// Per-flow reconvergence latencies (first post-failure delivery minus
    /// the failure instant), in flow-id order.
    pub fn reconvergence_latencies(&self) -> Vec<SimTime> {
        self.first_after
            .iter()
            .map(|&(_, at)| at - self.fail_at)
            .collect()
    }

    /// Number of flows with a recorded post-failure delivery.
    pub fn samples(&self) -> usize {
        self.first_after.len()
    }
}

/// Per-port, per-reason drop tallies for one run.
///
/// Rows are kept in first-drop order internally (deterministic, since the
/// event order is); [`DropAudit::per_port`] returns them sorted by
/// `(node, port)` for stable rendering.
#[derive(Debug, Default)]
pub struct DropAudit {
    index: DetHashMap<(NodeId, PortId), usize>,
    rows: Vec<((NodeId, PortId), [u64; DropReason::COUNT])>,
    totals: [u64; DropReason::COUNT],
}

impl DropAudit {
    /// Record one dropped packet at `(node, port)`.
    pub fn record(&mut self, reason: DropReason, node: NodeId, port: PortId) {
        self.totals[reason as usize] += 1;
        let rows = &mut self.rows;
        let idx = *self.index.entry((node, port)).or_insert_with(|| {
            rows.push(((node, port), [0; DropReason::COUNT]));
            rows.len() - 1
        });
        self.rows[idx].1[reason as usize] += 1;
    }

    /// Total packets dropped, all reasons.
    pub fn total(&self) -> u64 {
        self.totals.iter().sum()
    }

    /// Total packets dropped for `reason`.
    pub fn by_reason(&self, reason: DropReason) -> u64 {
        self.totals[reason as usize]
    }

    /// Per-reason totals, indexed by `DropReason as usize`.
    pub fn totals(&self) -> [u64; DropReason::COUNT] {
        self.totals
    }

    /// True if no packet was dropped.
    pub fn is_empty(&self) -> bool {
        self.totals.iter().all(|&n| n == 0)
    }

    /// Per-port tallies, sorted by `(node, port)`.
    pub fn per_port(&self) -> Vec<((NodeId, PortId), [u64; DropReason::COUNT])> {
        let mut rows = self.rows.clone();
        rows.sort_unstable_by_key(|&(k, _)| k);
        rows
    }
}

/// Collects flow records, counters, and telemetry for one simulation run.
#[derive(Debug)]
pub struct Recorder {
    flows: Vec<FlowRecord>,
    counters: [u64; Counter::COUNT],
    drops: DropAudit,
    telemetry: Telemetry,
    trace: Trace,
    slo: Option<SloProbe>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            flows: Vec::new(),
            counters: [0; Counter::COUNT],
            drops: DropAudit::default(),
            telemetry: Telemetry::new(),
            trace: Trace::new(),
            slo: None,
        }
    }
}

impl Recorder {
    /// Create an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a flow at its start. Returns nothing; completion is matched
    /// by flow id via [`Recorder::flow_completed`]. Flow ids must be dense
    /// and unique (the workload layer assigns them 0..n).
    pub fn flow_started(&mut self, rec: FlowRecord) {
        debug_assert_eq!(
            rec.flow as usize,
            self.flows.len(),
            "flow ids must be dense"
        );
        self.flows.push(rec);
    }

    /// Make room for exactly `n` more flow records.
    pub(crate) fn reserve_flows(&mut self, n: usize) {
        self.flows.reserve_exact(n);
    }

    /// Mark a flow complete at `end` (receiver has all bytes).
    pub fn flow_completed(&mut self, flow: FlowId, end: SimTime) {
        let rec = &mut self.flows[flow as usize];
        debug_assert_eq!(rec.end, SimTime::MAX, "flow {flow} completed twice");
        rec.end = end;
    }

    /// Increment `c` by `n`.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counters[c as usize] += n;
    }

    /// Increment `c` by one.
    #[inline]
    pub fn bump(&mut self, c: Counter) {
        self.counters[c as usize] += 1;
    }

    /// Raise `c` to `v` if `v` exceeds its current value (high-water-mark
    /// counters, e.g. [`Counter::OooBytesMax`]).
    #[inline]
    pub fn record_max(&mut self, c: Counter, v: u64) {
        let slot = &mut self.counters[c as usize];
        if v > *slot {
            *slot = v;
        }
    }

    /// Read counter `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Record one dropped packet at `(node, port)` for `reason`, updating
    /// both the per-port audit and the legacy aggregate counters.
    pub fn drop_packet(&mut self, reason: DropReason, node: NodeId, port: PortId) {
        self.drops.record(reason, node, port);
        match reason {
            DropReason::QueueFull => self.bump(Counter::QueueDrops),
            DropReason::LinkDown => self.bump(Counter::LinkDrops),
            DropReason::GrayLoss | DropReason::Corruption => {}
        }
    }

    /// Per-port, per-reason drop tallies so far.
    pub fn drops(&self) -> &DropAudit {
        &self.drops
    }

    /// All flow records (completed and not).
    pub fn flows(&self) -> &[FlowRecord] {
        &self.flows
    }

    /// Number of flows that completed.
    pub fn completed_count(&self) -> usize {
        self.flows.iter().filter(|f| f.end != SimTime::MAX).count()
    }

    /// Configure telemetry collection. Call before the run starts.
    pub fn set_telemetry(&mut self, cfg: TelemetryConfig) {
        self.telemetry.set_config(cfg);
    }

    /// The telemetry store (read access to collected series mid-run).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Record `value` for the time series `key` at `now`. A single branch
    /// when telemetry is off.
    #[inline]
    pub fn probe(&mut self, now: SimTime, key: SeriesKey, value: f64) {
        self.telemetry.record(now, key, value);
    }

    /// Configure the per-flow flight recorder. Call before the run
    /// starts; with the default (disabled) config every trace hook is a
    /// single branch.
    pub fn set_trace(&mut self, cfg: TraceConfig) {
        self.trace.set_config(cfg);
    }

    /// Arm the reconvergence / goodput SLO probe. Call before the run
    /// starts; without it every delivery hook is a single branch.
    pub fn set_slo(&mut self, cfg: SloConfig) {
        assert!(cfg.bin.as_ps() > 0, "SLO goodput bin must be positive");
        self.slo = Some(SloProbe {
            cfg,
            first_after: DetHashMap::default(),
            goodput_bins: Vec::new(),
        });
    }

    /// Report one packet delivered to its destination host. A single
    /// branch when the SLO probe is disarmed. ACKs (`payload == 0`) carry
    /// no goodput and never count as reconvergence evidence — the paper's
    /// recovery story is about *data* flowing again on the new path.
    #[inline]
    pub fn slo_delivery(&mut self, now: SimTime, flow: FlowId, payload: u32) {
        let Some(slo) = &mut self.slo else { return };
        if payload == 0 {
            return;
        }
        let bin = (now.as_ps() / slo.cfg.bin.as_ps()) as usize;
        if bin >= slo.goodput_bins.len() {
            slo.goodput_bins.resize(bin + 1, 0);
        }
        slo.goodput_bins[bin] += payload as u64;
        if now >= slo.cfg.fail_at
            && self
                .flows
                .get(flow as usize)
                .is_some_and(|f| f.start <= slo.cfg.fail_at)
            && !slo.first_after.contains_key(&flow)
        {
            slo.first_after.insert(flow, now);
            if self.trace.wants(flow) {
                self.trace.record(now, flow, TraceEvent::Reconverge);
            }
        }
    }

    /// Is any flow being traced? One load; hot paths branch on this
    /// before computing anything trace-only (e.g. queue depth).
    #[inline]
    pub fn trace_active(&self) -> bool {
        self.trace.active()
    }

    /// Is `flow` being traced? One branch when tracing is disabled.
    #[inline]
    pub fn trace_wants(&self, flow: FlowId) -> bool {
        self.trace.wants(flow)
    }

    /// Record flight-recorder event `ev` for `flow` at `now`. A no-op
    /// (one branch) when the flow is not selected.
    #[inline]
    pub fn trace_event(&mut self, now: SimTime, flow: FlowId, ev: TraceEvent) {
        self.trace.record(now, flow, ev);
    }

    /// Finish the run: consume the recorder and hand the read-side view to
    /// the analysis layers.
    pub fn finish(self) -> RunResults {
        RunResults {
            flows: self.flows,
            counters: self.counters,
            drops: self.drops,
            series: self.telemetry.into_series(),
            timelines: self.trace.into_timelines(),
            slo: self.slo.map(|p| {
                let mut first_after: Vec<(FlowId, SimTime)> = p.first_after.into_iter().collect();
                first_after.sort_unstable_by_key(|&(f, _)| f);
                SloResults {
                    fail_at: p.cfg.fail_at,
                    bin: p.cfg.bin,
                    first_after,
                    goodput_bins: p.goodput_bins,
                }
            }),
            event_mix: [0; EventKind::COUNT],
        }
    }
}

/// The immutable read-side view of one finished run: every flow record,
/// every counter, and every collected time series.
///
/// Produced by [`Recorder::finish`]; consumed by the `stats` and
/// `experiments` crates.
#[derive(Debug, Default)]
pub struct RunResults {
    /// All flow records (completed and not).
    pub flows: Vec<FlowRecord>,
    counters: [u64; Counter::COUNT],
    drops: DropAudit,
    series: Vec<Series>,
    timelines: Vec<FlowTimeline>,
    slo: Option<SloResults>,
    /// Engine events processed, by [`EventKind::index`]
    /// ([`crate::Simulator::into_results`] fills it in).
    pub(crate) event_mix: [u64; EventKind::COUNT],
}

impl RunResults {
    /// All flow records (completed and not), as a slice.
    pub fn flows(&self) -> &[FlowRecord] {
        &self.flows
    }

    /// Read counter `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Number of flows that completed.
    pub fn completed_count(&self) -> usize {
        self.flows.iter().filter(|f| f.end != SimTime::MAX).count()
    }

    /// Per-port, per-reason drop tallies for the run.
    pub fn drops(&self) -> &DropAudit {
        &self.drops
    }

    /// What the engine did to produce the run: events processed per kind,
    /// indexed by [`EventKind::index`] (names in [`EventKind::NAMES`]).
    pub fn event_mix(&self) -> [u64; EventKind::COUNT] {
        self.event_mix
    }

    /// All collected time series, in order of first recording.
    pub fn series(&self) -> &[Series] {
        &self.series
    }

    /// Look up a series by its stable dotted name.
    pub fn series_named(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name() == name)
    }

    /// Flight-recorder timelines, one per traced flow, sorted by flow
    /// id. Empty unless tracing was enabled for the run.
    pub fn timelines(&self) -> &[FlowTimeline] {
        &self.timelines
    }

    /// Reconvergence / goodput measurements; `None` unless the SLO probe
    /// was armed ([`crate::Simulator::set_slo`]).
    pub fn slo(&self) -> Option<&SloResults> {
        self.slo.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(flow: FlowId) -> FlowRecord {
        FlowRecord {
            flow,
            src: 0,
            dst: 1,
            bytes: 1000,
            start: SimTime::from_us(10),
            end: SimTime::MAX,
            job: None,
            proto: Proto::Tcp,
        }
    }

    #[test]
    fn flow_lifecycle() {
        let mut r = Recorder::new();
        r.flow_started(rec(0));
        r.flow_started(rec(1));
        assert_eq!(r.completed_count(), 0);
        assert_eq!(r.flows()[0].fct(), None);
        r.flow_completed(0, SimTime::from_us(110));
        assert_eq!(r.completed_count(), 1);
        assert_eq!(r.flows()[0].fct(), Some(SimTime::from_us(100)));
        assert_eq!(r.flows()[1].fct(), None);
    }

    #[test]
    fn counters_accumulate() {
        let mut r = Recorder::new();
        r.bump(Counter::OooPktsRcvd);
        r.add(Counter::OooPktsRcvd, 4);
        r.bump(Counter::Timeouts);
        assert_eq!(r.get(Counter::OooPktsRcvd), 5);
        assert_eq!(r.get(Counter::Timeouts), 1);
        assert_eq!(r.get(Counter::Reroutes), 0);
    }

    #[test]
    fn finish_hands_everything_to_the_read_side() {
        let mut r = Recorder::new();
        r.set_telemetry(TelemetryConfig::every(SimTime::from_us(1)));
        r.flow_started(rec(0));
        r.flow_completed(0, SimTime::from_us(20));
        r.bump(Counter::Reroutes);
        r.probe(SimTime::from_us(5), SeriesKey::Vfield { flow: 0 }, 3.0);
        let out = r.finish();
        assert_eq!(out.flows().len(), 1);
        assert_eq!(out.completed_count(), 1);
        assert_eq!(out.get(Counter::Reroutes), 1);
        assert_eq!(out.series().len(), 1);
        let s = out.series_named("vfield.f0").unwrap();
        assert_eq!(s.points(), &[(SimTime::from_us(5), 3.0)]);
        assert!(out.series_named("vfield.f1").is_none());
    }

    #[test]
    fn drop_audit_tallies_per_port_and_reason() {
        let mut r = Recorder::new();
        r.drop_packet(DropReason::QueueFull, 5, 1);
        r.drop_packet(DropReason::QueueFull, 5, 1);
        r.drop_packet(DropReason::GrayLoss, 5, 1);
        r.drop_packet(DropReason::LinkDown, 2, 0);
        r.drop_packet(DropReason::Corruption, 9, 3);
        let audit = r.drops();
        assert_eq!(audit.total(), 5);
        assert_eq!(audit.by_reason(DropReason::QueueFull), 2);
        assert_eq!(audit.by_reason(DropReason::GrayLoss), 1);
        assert_eq!(audit.totals().iter().sum::<u64>(), audit.total());
        // Legacy counters track only their historical reasons.
        assert_eq!(r.get(Counter::QueueDrops), 2);
        assert_eq!(r.get(Counter::LinkDrops), 1);
        // Per-port rows come back sorted by (node, port).
        let rows = audit.per_port();
        assert_eq!(
            rows.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            vec![(2, 0), (5, 1), (9, 3)]
        );
        let port5: u64 = rows[1].1.iter().sum();
        assert_eq!(port5, 3);
    }

    #[test]
    fn finish_carries_trace_timelines() {
        let mut r = Recorder::new();
        r.flow_started(rec(0));
        r.flow_started(rec(1));
        assert!(!r.trace_active());
        r.set_trace(TraceConfig::flows(vec![1]));
        assert!(r.trace_active());
        assert!(r.trace_wants(1) && !r.trace_wants(0));
        r.trace_event(
            SimTime::from_us(2),
            1,
            TraceEvent::CwndChange { cwnd_bytes: 1460 },
        );
        r.trace_event(SimTime::from_us(3), 0, TraceEvent::FastRetransmitEnter); // unselected
        let out = r.finish();
        assert_eq!(out.timelines().len(), 1);
        assert_eq!(out.timelines()[0].flow, 1);
        assert_eq!(out.timelines()[0].count_kind("cwnd"), 1);
    }

    #[test]
    fn slo_probe_records_reconvergence_and_goodput() {
        let mut r = Recorder::new();
        r.flow_started(rec(0)); // starts at 10us
        r.flow_started(rec(1));
        r.set_slo(SloConfig {
            fail_at: SimTime::from_us(100),
            bin: SimTime::from_us(50),
        });
        r.slo_delivery(SimTime::from_us(20), 0, 1000); // pre-failure: goodput only
        r.slo_delivery(SimTime::from_us(120), 0, 1000); // first post-failure
        r.slo_delivery(SimTime::from_us(130), 0, 1000); // later: goodput only
        r.slo_delivery(SimTime::from_us(140), 1, 0); // ACK: ignored entirely
        let out = r.finish();
        let slo = out.slo().unwrap();
        assert_eq!(slo.first_after, vec![(0, SimTime::from_us(120))]);
        assert_eq!(slo.reconvergence_latencies(), vec![SimTime::from_us(20)]);
        assert_eq!(slo.samples(), 1);
        assert_eq!(slo.goodput_bins, vec![1000, 0, 2000]);
    }

    #[test]
    fn slo_probe_ignores_flows_started_after_the_failure() {
        let mut r = Recorder::new();
        let mut late = rec(0);
        late.start = SimTime::from_us(200);
        r.flow_started(late);
        r.set_slo(SloConfig {
            fail_at: SimTime::from_us(100),
            bin: SimTime::from_us(50),
        });
        r.slo_delivery(SimTime::from_us(250), 0, 500);
        let out = r.finish();
        let slo = out.slo().unwrap();
        assert_eq!(slo.samples(), 0, "post-failure flows never reconverge");
        assert_eq!(slo.goodput_bins.last(), Some(&500), "goodput still counts");
    }

    #[test]
    fn drop_reason_names_unique_and_complete() {
        let all = DropReason::all();
        assert_eq!(all.len(), DropReason::COUNT);
        let names: std::collections::HashSet<_> = all.iter().map(|r| r.name()).collect();
        assert_eq!(names.len(), DropReason::COUNT);
        for (i, r) in all.iter().enumerate() {
            assert_eq!(*r as usize, i, "repr order must match all() order");
        }
    }

    #[test]
    fn counter_all_matches_count_and_names_unique() {
        let all = Counter::all();
        assert_eq!(all.len(), Counter::COUNT);
        let names: std::collections::HashSet<_> = all.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), Counter::COUNT);
    }

    #[test]
    fn record_max_keeps_the_high_water_mark() {
        let mut r = Recorder::new();
        r.record_max(Counter::OooBytesMax, 1460);
        r.record_max(Counter::OooBytesMax, 400);
        r.record_max(Counter::OooBytesMax, 2920);
        r.record_max(Counter::OooBytesMax, 2000);
        assert_eq!(r.get(Counter::OooBytesMax), 2920);
    }
}
