//! TCP sender: New Reno congestion control, DCTCP, and FlowBender.
//!
//! One [`TcpSender`] per flow. The layering mirrors the paper's stack:
//!
//! * **New Reno** provides reliability and loss response: slow start from
//!   [`INIT_CWND`], congestion avoidance up to [`MAX_CWND`], fast
//!   retransmit / fast recovery on three duplicate ACKs, go-back-N on
//!   retransmission timeout with exponential backoff ([`RTO_MIN`] = 10 ms,
//!   §4.2).
//! * **DCTCP** (always on) rides on the ECN echo: the sender estimates
//!   `alpha`, the smoothed fraction of marked bytes per window
//!   ([`DCTCP_G`] = 1/16), and scales cwnd by `1 - alpha/2` at most once
//!   per window, on the first ECN echo.
//! * a **path controller** ([`PathControl`], built from
//!   [`TcpConfig::path`]) observes the same ACK stream: each
//!   congestion-window "round" doubles as its RTT epoch (both end when
//!   the cumulative ACK passes the epoch's starting `snd_nxt`), and every
//!   decision to change `V` immediately affects all future packets of the
//!   flow — including retransmissions, which is exactly what routes
//!   around failures. FlowBender is one such controller; the oblivious
//!   baselines run a static V, which never draws from the RNG and never
//!   reroutes.

use flowbender::Decision;
use netsim::{Counter, Ctx, Flags, FlowId, FlowKey, Packet, SeriesKey, SimTime, TraceEvent, MSS};

use crate::config::{PathControl, TcpConfig, DCTCP_G, INIT_CWND, MAX_CWND, RTO_MIN};
use crate::rtt::RttEstimator;

/// Outcome of handling a timer for this sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerOutcome {
    /// The timer was stale or rearmed internally; nothing to do.
    Quiet,
    /// The sender still needs its retransmit timer armed at this time.
    Rearm(SimTime),
}

/// Per-flow TCP sender state machine.
#[derive(Debug)]
pub struct TcpSender {
    flow: FlowId,
    key: FlowKey,
    size: u64,
    /// Fast retransmit on duplicate ACKs (off in the DeTail stack).
    fast_retransmit: bool,

    // --- New Reno ---
    snd_una: u64,
    snd_nxt: u64,
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    /// In fast recovery until `snd_una` passes this point.
    recover: Option<u64>,
    rtt: RttEstimator,

    // --- Reordering resilience (Linux-style DSACK adaptation) ---
    /// Current duplicate-ACK threshold; starts at the configured value and
    /// grows when DSACKs prove that "losses" were reordering.
    reorder_threshold: u32,
    /// Value `reorder_threshold` started at (config floor possibly raised
    /// by the per-destination cache); RTO resets to this, not to the bare
    /// config value.
    initial_reorder: u32,
    /// cwnd/ssthresh at recovery entry, for DSACK-driven undo.
    undo: Option<(f64, f64)>,
    /// Highest `rcv_high` the receiver has reported (its max seq seen).
    peer_high: u64,

    // --- Retransmit timer (deadline-based; events may fire early and get
    // re-armed, so stale events are cheap) ---
    rto_deadline: Option<SimTime>,
    timer_pending: bool,

    // --- DCTCP ---
    alpha: f64,
    win_bytes_acked: u64,
    win_bytes_marked: u64,
    /// The RTT epoch/window ends when `snd_una` reaches this.
    window_end: u64,
    /// cwnd already reduced in this window.
    cwr: bool,

    // --- Path control ---
    ctrl: PathControl,
    /// ACKs at or below this sequence acknowledge data sent before the
    /// last reroute; they measure the *old* path and are hidden from the
    /// controller (otherwise every reroute would be judged by the path it
    /// just left and cascade into a second reroute).
    skip_until: u64,
}

impl TcpSender {
    /// Create a sender for `size` bytes on `key`. The path controller is
    /// built from [`TcpConfig::path`]; controllers that randomize their
    /// initial `V` (FlowBender, flowcut) draw it from `ctx`'s RNG here.
    ///
    /// `cached_reorder` carries the host's per-destination reordering
    /// estimate (Linux `tcp_metrics` semantics): a fresh connection to a
    /// destination that recently exhibited reordering starts with the
    /// raised duplicate-ACK threshold instead of re-learning it through a
    /// spurious fast retransmit. `vhint` is the flow's initial-V hint from
    /// its [`netsim::FlowSpec`] (0 for ordinary flows; replication
    /// schemes pin their duplicates to other values).
    pub fn new(
        flow: FlowId,
        key: FlowKey,
        size: u64,
        cfg: TcpConfig,
        cached_reorder: Option<u32>,
        vhint: u8,
        ctx: &mut Ctx<'_>,
    ) -> Self {
        assert!(
            size <= u32::MAX as u64,
            "flow {flow}: {size} B does not fit TCP's 32-bit sequence space"
        );
        cfg.validate();
        let ctrl = cfg.path.build(vhint, ctx.rng());
        let rtt = RttEstimator::new(RTO_MIN, RTO_MIN);
        let reorder_threshold = match cfg.dupack_threshold {
            Some(base) => base.max(cached_reorder.unwrap_or(0)),
            None => 0,
        };
        TcpSender {
            flow,
            key,
            size,
            fast_retransmit: cfg.dupack_threshold.is_some(),
            snd_una: 0,
            snd_nxt: 0,
            cwnd: INIT_CWND,
            ssthresh: f64::INFINITY,
            dup_acks: 0,
            recover: None,
            rtt,
            reorder_threshold,
            initial_reorder: reorder_threshold,
            undo: None,
            peer_high: 0,
            rto_deadline: None,
            timer_pending: false,
            // DCTCP initializes alpha conservatively to 1 so a young
            // flow's first congestion signal halves cwnd; the estimate
            // then converges to the true marking fraction within ~16
            // windows (g = 1/16).
            alpha: 1.0,
            win_bytes_acked: 0,
            win_bytes_marked: 0,
            window_end: 0,
            cwr: false,
            ctrl,
            skip_until: 0,
        }
    }

    /// The flow is done: every byte has been cumulatively acknowledged.
    pub fn is_complete(&self) -> bool {
        self.snd_una >= self.size
    }

    /// Current congestion window in bytes (for tests/diagnostics).
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Current DCTCP `alpha` (for tests/diagnostics).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The current reordering (duplicate-ACK) threshold, for persisting
    /// into the host's per-destination metrics cache.
    pub fn reorder_threshold(&self) -> u32 {
        self.reorder_threshold
    }

    /// Destination host of this flow.
    pub fn dst(&self) -> netsim::HostId {
        self.key.dst as netsim::HostId
    }

    /// The V-field for outgoing packets.
    fn vfield(&self) -> u8 {
        self.ctrl.vfield()
    }

    /// Act on a path-controller decision. `Stay` — every ordinary ACK — is
    /// a no-op; a reroute gets `counter`, the skip fence excluding old-path
    /// ACKs, the V-field telemetry probe and a flight-recorder entry
    /// (old V → new V).
    #[inline]
    fn note_reroute(&mut self, d: Decision, counter: Counter, ctx: &mut Ctx<'_>) {
        let Decision::Reroute { from, to } = d else {
            return;
        };
        ctx.recorder().bump(counter);
        self.skip_until = self.snd_nxt;
        let (now, v) = (ctx.now(), self.ctrl.vfield());
        ctx.recorder()
            .probe(now, SeriesKey::Vfield { flow: self.flow }, v as f64);
        self.trace(
            TraceEvent::Decision {
                from_v: from,
                to_v: to,
            },
            ctx,
        );
    }

    /// Flight-recorder hook: one branch when this flow is untraced.
    #[inline]
    fn trace(&self, ev: TraceEvent, ctx: &mut Ctx<'_>) {
        if ctx.recorder().trace_wants(self.flow) {
            let now = ctx.now();
            ctx.recorder().trace_event(now, self.flow, ev);
        }
    }

    /// Flight-recorder shorthand for a congestion-window transition.
    #[inline]
    fn trace_cwnd(&self, ctx: &mut Ctx<'_>) {
        self.trace(
            TraceEvent::CwndChange {
                cwnd_bytes: self.cwnd as u64,
            },
            ctx,
        );
    }

    /// Start the flow: open the window and arm the timer. Returns the
    /// deadline the caller must arm a timer for, if any.
    pub fn start(&mut self, ctx: &mut Ctx<'_>) -> Option<SimTime> {
        if !matches!(self.ctrl, PathControl::Static(_)) {
            // Anchor the reroute trace: where did this flow start hashing?
            let (now, v) = (ctx.now(), self.ctrl.vfield());
            ctx.recorder()
                .probe(now, SeriesKey::Vfield { flow: self.flow }, v as f64);
        }
        self.transmit_window(ctx);
        // The first DCTCP/FlowBender epoch spans the initial window.
        self.window_end = self.snd_nxt.saturating_sub(1);
        self.arm_timer(ctx.now())
    }

    /// Send as much new data as the window allows (cwnd is additionally
    /// clamped by the receiver window [`MAX_CWND`]).
    fn transmit_window(&mut self, ctx: &mut Ctx<'_>) {
        self.cwnd = self.cwnd.min(MAX_CWND as f64);
        while self.snd_nxt < self.size && (self.snd_nxt - self.snd_una) < self.cwnd as u64 {
            let payload = (self.size - self.snd_nxt).min(MSS as u64) as u32;
            self.send_segment(self.snd_nxt, payload, ctx);
            self.snd_nxt += payload as u64;
        }
    }

    fn send_segment(&mut self, seq: u64, payload: u32, ctx: &mut Ctx<'_>) {
        let mut pkt = Packet::data(self.flow, self.key, self.vfield(), seq, payload, ctx.now());
        if seq + payload as u64 >= self.size {
            pkt.flags.set(Flags::FIN);
        }
        ctx.send(pkt);
    }

    fn retransmit_una(&mut self, ctx: &mut Ctx<'_>) {
        let payload = (self.size - self.snd_una).min(MSS as u64) as u32;
        ctx.recorder().bump(Counter::Retransmits);
        self.send_segment(self.snd_una, payload, ctx);
        if self.snd_nxt < self.snd_una + payload as u64 {
            self.snd_nxt = self.snd_una + payload as u64;
        }
    }

    /// Arm (or extend) the retransmit timer. Returns the deadline the agent
    /// must schedule, or `None` if a timer event is already pending.
    fn arm_timer(&mut self, now: SimTime) -> Option<SimTime> {
        if self.is_complete() {
            self.rto_deadline = None;
            return None;
        }
        let deadline = now + self.rtt.rto();
        self.rto_deadline = Some(deadline);
        if self.timer_pending {
            // An event is already in flight; it will re-arm on arrival.
            None
        } else {
            self.timer_pending = true;
            Some(deadline)
        }
    }

    /// Handle an incoming cumulative ACK. Returns a timer deadline to arm,
    /// if the retransmit timer needs (re)scheduling.
    pub fn on_ack(&mut self, pkt: &Packet, ctx: &mut Ctx<'_>) -> Option<SimTime> {
        debug_assert!(pkt.flags.has(Flags::ACK));
        if self.is_complete() {
            return None;
        }
        let ack = pkt.ack as u64;
        let ece = pkt.flags.has(Flags::ECE);
        ctx.recorder().bump(Counter::AcksRcvd);
        if ece {
            ctx.recorder().bump(Counter::MarkedAcksRcvd);
        }
        if ack > self.skip_until {
            // Mid-window reroute (gap-based controllers).
            let d = self.ctrl.on_ack(ece, ctx.now().as_ps(), ctx.rng());
            self.note_reroute(d, Counter::Reroutes, ctx);
        }
        self.peer_high = self.peer_high.max(pkt.rcv_high as u64);

        // Timestamp echo gives a valid sample even across retransmits.
        self.rtt.sample(ctx.now().saturating_sub(pkt.tstamp));

        // DSACK: a retransmission of ours was spurious — the "loss" was
        // reordering. Adapt like Linux: raise the reordering threshold to
        // cover the observed extent, and undo the recovery's cwnd damage.
        if pkt.flags.has(Flags::DSACK) {
            ctx.recorder().bump(Counter::DsacksRcvd);
            // Each DSACK names one retransmission of ours whose original
            // copy arrived after all.
            ctx.recorder().bump(Counter::SpuriousRetransmits);
            self.on_reordering_detected(ctx);
        }

        // DCTCP reduction: at most once per window (`cwr`), on the first
        // ECN echo (duplicate or not — reordering must not mask
        // congestion): `cwnd *= 1 − alpha/2`, floored at one MSS, with
        // ssthresh kept at the reduced level so growth continues
        // additively rather than re-entering slow start.
        if ece && !self.cwr {
            self.cwnd *= 1.0 - self.alpha / 2.0;
            self.cwnd = self.cwnd.max(MSS as f64);
            self.ssthresh = self.ssthresh.min(self.cwnd);
            self.trace_cwnd(ctx);
            self.cwr = true;
        }

        if ack > self.snd_una {
            self.on_new_ack(ack, ece, ctx);
        } else {
            self.on_dup_ack(ctx);
        }

        if self.is_complete() {
            self.rto_deadline = None;
            None
        } else {
            self.arm_timer(ctx.now())
        }
    }

    fn on_new_ack(&mut self, ack: u64, ece: bool, ctx: &mut Ctx<'_>) {
        let newly_acked = ack - self.snd_una;
        self.snd_una = ack;
        // After a go-back-N timeout rewinds snd_nxt, a cumulative ACK can
        // jump past it (the receiver already held later ranges); resume
        // sending from the ACK point.
        if self.snd_nxt < self.snd_una {
            self.snd_nxt = self.snd_una;
        }

        // --- DCTCP per-window accounting (the reduction itself happens in
        // `on_ack`, so echoes on duplicate ACKs also count) ---
        self.win_bytes_acked += newly_acked;
        if ece {
            self.win_bytes_marked += newly_acked;
        }

        // --- window/epoch boundary: alpha update + FlowBender RTT end ---
        if self.snd_una > self.window_end {
            let f = if self.win_bytes_acked > 0 {
                self.win_bytes_marked as f64 / self.win_bytes_acked as f64
            } else {
                0.0
            };
            self.alpha = (1.0 - DCTCP_G) * self.alpha + DCTCP_G * f;
            self.win_bytes_acked = 0;
            self.win_bytes_marked = 0;
            self.cwr = false;
            self.window_end = self.snd_nxt;
            let d = self.ctrl.on_rtt_end(ctx.rng());
            self.note_reroute(d, Counter::Reroutes, ctx);
        }

        // --- New Reno recovery bookkeeping ---
        match self.recover {
            Some(recover) if ack >= recover => {
                // Full ACK: leave fast recovery.
                self.recover = None;
                self.undo = None;
                self.dup_acks = 0;
                self.cwnd = self.ssthresh.max(MSS as f64);
                self.trace(TraceEvent::FastRetransmitExit, ctx);
                self.trace_cwnd(ctx);
            }
            Some(_) => {
                // Partial ACK: the next hole is lost too. Retransmit it and
                // deflate.
                self.retransmit_una(ctx);
                self.cwnd = (self.cwnd - newly_acked as f64 + MSS as f64).max(MSS as f64);
            }
            None => {
                self.dup_acks = 0;
                // Normal growth.
                if self.cwnd < self.ssthresh {
                    self.cwnd += newly_acked.min(MSS as u64) as f64;
                } else {
                    self.cwnd += (MSS as f64) * (MSS as f64) / self.cwnd;
                }
            }
        }

        self.transmit_window(ctx);
    }

    /// Reordering proven (DSACK): grow the dupack threshold to the extent
    /// the receiver has demonstrably seen past the hole, and undo the
    /// spurious recovery if one is in progress (Linux `tcp_undo_cwnd`).
    fn on_reordering_detected(&mut self, ctx: &mut Ctx<'_>) {
        if !self.fast_retransmit {
            return;
        }
        let extent = ((self.peer_high.saturating_sub(self.snd_una)) / MSS as u64) as u32 + 1;
        // Linux's default sysctl cap.
        const REORDER_CAP: u32 = 300;
        // Repeated DSACKs mean the estimate is still too low; grow
        // multiplicatively so persistent reordering (packet spraying)
        // converges in a few events.
        self.reorder_threshold = self
            .reorder_threshold
            .max(extent)
            .max(self.reorder_threshold * 2)
            .min(REORDER_CAP);
        if self.recover.is_some() {
            if let Some((cwnd, ssthresh)) = self.undo.take() {
                self.cwnd = cwnd;
                self.ssthresh = ssthresh;
                ctx.recorder().bump(Counter::DsackUndos);
                self.trace_cwnd(ctx);
            }
            self.recover = None;
            self.dup_acks = 0;
        }
    }

    fn on_dup_ack(&mut self, ctx: &mut Ctx<'_>) {
        ctx.recorder().bump(Counter::DupAcks);
        if self.recover.is_some() {
            // Inflate during recovery; each dup ACK signals a departure.
            self.cwnd += MSS as f64;
            self.transmit_window(ctx);
            return;
        }
        if !self.fast_retransmit {
            return; // DeTail stack
        }
        self.dup_acks += 1;
        if self.dup_acks >= self.reorder_threshold {
            // Enter fast retransmit / fast recovery.
            ctx.recorder().bump(Counter::FastRetransmits);
            self.recover = Some(self.snd_nxt);
            self.undo = Some((self.cwnd, self.ssthresh));
            self.ssthresh = (self.cwnd / 2.0).max(2.0 * MSS as f64);
            self.cwnd = self.ssthresh + 3.0 * MSS as f64;
            self.dup_acks = 0;
            self.trace(TraceEvent::FastRetransmitEnter, ctx);
            self.trace_cwnd(ctx);
            self.retransmit_una(ctx);
        }
    }

    /// The retransmit timer event fired. Returns what the agent should do
    /// with the timer.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>) -> TimerOutcome {
        self.timer_pending = false;
        if self.is_complete() {
            return TimerOutcome::Quiet;
        }
        let Some(deadline) = self.rto_deadline else {
            return TimerOutcome::Quiet;
        };
        if ctx.now() < deadline {
            // ACKs pushed the deadline forward since this event was
            // scheduled; re-arm for the true deadline.
            self.timer_pending = true;
            return TimerOutcome::Rearm(deadline);
        }

        // --- Genuine retransmission timeout ---
        ctx.recorder().bump(Counter::Timeouts);
        self.ssthresh = (self.cwnd / 2.0).max(2.0 * MSS as f64);
        self.cwnd = MSS as f64;
        self.recover = None;
        self.undo = None;
        self.dup_acks = 0;
        // Linux resets its reordering estimate on RTO (to the cached
        // per-destination floor).
        self.reorder_threshold = self.initial_reorder;
        self.rtt.backoff();
        self.trace(
            TraceEvent::RtoFire {
                backoff_exp: self.rtt.backoff_exp(),
            },
            ctx,
        );
        self.trace_cwnd(ctx);

        // FlowBender §3.3.2: an RTO is the failure signal — reroute now.
        let d = self.ctrl.on_timeout(ctx.rng());
        self.note_reroute(d, Counter::TimeoutReroutes, ctx);

        // Go-back-N: resume sending from the hole.
        self.snd_nxt = self.snd_una;
        // Reset the DCTCP/FlowBender epoch to the fresh window.
        self.win_bytes_acked = 0;
        self.win_bytes_marked = 0;
        self.cwr = false;
        self.window_end = self.snd_una;
        self.retransmit_una(ctx);

        match self.arm_timer(ctx.now()) {
            Some(deadline) => TimerOutcome::Rearm(deadline),
            None => TimerOutcome::Quiet,
        }
    }
}

#[cfg(test)]
mod tests {
    //! The sender's protocol behaviour is primarily exercised end-to-end in
    //! the agent/integration tests; these unit tests cover the pure pieces
    //! reachable without a simulator context.

    use super::*;

    #[test]
    fn timer_outcome_equality() {
        assert_eq!(TimerOutcome::Quiet, TimerOutcome::Quiet);
        assert_ne!(
            TimerOutcome::Quiet,
            TimerOutcome::Rearm(SimTime::from_ms(1))
        );
    }

    #[test]
    fn config_defaults_produce_ten_segment_window() {
        assert_eq!(INIT_CWND as u64, 14_600);
    }
}
