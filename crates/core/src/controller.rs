//! The other host-side path controllers.
//!
//! The paper's framing (§3.3) is that FlowBender is *one* member of a
//! family of end-host policies that steer a flow by rewriting a flexible
//! header field ("the V-field") that commodity ECMP switches fold into
//! their hash. Each policy is a plain state machine: the transport reports
//! the events it reacts to, and it answers with a [`Decision`] and the
//! V-field value to stamp into every outgoing packet. Besides
//! [`FlowBender`](crate::FlowBender), two live here:
//!
//! * [`FlowcutGap`] — host-side flowlet/"flowcut" switching (Bonato et
//!   al. style): when the ACK stream goes idle for longer than a
//!   configured gap, the pipe has drained and the flow can re-hash onto
//!   a new path without risking reordering;
//! * [`BenderInt`] — FlowBender with per-hop blame from switch-assisted
//!   [`Feedback`].
//!
//! The set is closed: the `transport` crate holds one flow's controller
//! as an enum over these (plus a fixed V for the oblivious schemes) and
//! dispatches each event with one `match`.

use crate::bender::Decision;
use crate::rng::Rng;

/// A switch-assisted congestion signal delivered to the sender, carrying
/// the *blamed hop* — the precise `(node, port)` whose queue is the
/// problem — instead of FlowBender's anonymous end-to-end ECN fraction.
///
/// Field types are plain integers so this crate stays free of any
/// simulator's id/time types (the transport layer converts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feedback {
    /// INT telemetry echoed end-to-end: the receiver reflected the data
    /// packet's per-hop stack on the ACK, and the transport extracted the
    /// deepest-queue hop.
    IntEcho {
        /// The blamed switch.
        node: u32,
        /// The blamed egress port on that switch.
        port: u16,
        /// That queue's occupancy in bytes when the packet enqueued.
        qbytes: u64,
        /// Whether that hop also ECN-marked the packet.
        marked: bool,
    },
    /// A switch-generated early congestion notification: the blamed hop
    /// sent this straight back to the sender, ahead of any ACK.
    Cn {
        /// The blamed switch.
        node: u32,
        /// The blamed egress port on that switch.
        port: u16,
        /// That queue's occupancy in bytes when the CN fired.
        qbytes: u64,
    },
}

impl Feedback {
    /// The blamed `(node, port)` hop, whatever the signal's transport.
    pub fn blamed(&self) -> (u32, u16) {
        match *self {
            Feedback::IntEcho { node, port, .. } | Feedback::Cn { node, port, .. } => (node, port),
        }
    }

    /// Does this signal indicate congestion right now? CNs always do;
    /// an INT echo only when the blamed hop also marked the packet.
    pub fn congested(&self) -> bool {
        match *self {
            Feedback::IntEcho { marked, .. } => marked,
            Feedback::Cn { .. } => true,
        }
    }
}

/// Host-side flowlet/"flowcut" switching: re-draw V whenever the ACK
/// stream has been idle for longer than `gap_ps`.
///
/// The safety argument is the flowlet one, applied at the sender: if no
/// ACK arrived for longer than the path's drain time, no packet of this
/// flow is still queued along the old path, so switching paths cannot
/// reorder. Unlike switch-side flowlet tables (LetFlow), this needs no
/// fabric support beyond the same V-field hash FlowBender uses.
#[derive(Debug, Clone)]
pub struct FlowcutGap {
    gap_ps: u64,
    v_range: u8,
    v: u8,
    /// Time of the last observed ACK (or the last reroute), ps.
    last_seen_ps: Option<u64>,
}

impl FlowcutGap {
    /// A gap controller with `v_range` path options and a uniformly
    /// random initial V, like [`FlowBender::new`](crate::FlowBender::new).
    pub fn new<R: Rng + ?Sized>(gap_ps: u64, v_range: u8, rng: &mut R) -> Self {
        assert!(gap_ps > 0, "flowcut gap must be positive");
        assert!(v_range >= 1, "v_range must be at least 1");
        let v = rng.gen_range(v_range as u32) as u8;
        FlowcutGap {
            gap_ps,
            v_range,
            v,
            last_seen_ps: None,
        }
    }

    /// The V-field value for this flow's outgoing packets.
    pub fn vfield(&self) -> u8 {
        self.v
    }

    /// One ACK arrived at `now_ps`: re-draw V if the stream was idle for
    /// longer than the gap since the previous one.
    pub fn on_ack<R: Rng + ?Sized>(&mut self, now_ps: u64, rng: &mut R) -> Decision {
        let idle = self
            .last_seen_ps
            .map(|last| now_ps.saturating_sub(last) > self.gap_ps);
        self.last_seen_ps = Some(now_ps);
        match idle {
            Some(true) => self.redraw(rng),
            _ => Decision::Stay,
        }
    }

    /// A retransmission timeout fired. An RTO is a longer silence than
    /// any gap threshold: the pipe is certainly drained (and possibly
    /// broken) — switch immediately, measuring the next gap from the
    /// reroute itself.
    pub fn on_timeout<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Decision {
        self.last_seen_ps = None;
        self.redraw(rng)
    }

    fn redraw<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Decision {
        let from = self.v;
        let range = self.v_range as u32;
        if range > 1 {
            let step = 1 + rng.gen_range(range - 1);
            self.v = ((self.v as u32 + step) % range) as u8;
        }
        Decision::Reroute { from, to: self.v }
    }
}

/// FlowBender with per-hop blame: bend away from the *specific* hop the
/// switch-assisted feedback names, instead of reacting to an anonymous
/// end-to-end ECN fraction.
///
/// The reaction loop: every congested [`Feedback`] signal (a CN, or an
/// INT echo whose blamed hop marked the packet) naming the *same*
/// `(node, port)` grows a streak; `confirm` consecutive signals trigger a
/// bend. The new V is a **deterministic** function of the current V and
/// the blamed hop — a hash of `(node, port)` picks the step — so the flow
/// re-hashes *around that port* consistently, and the controller takes no
/// RNG at all. After a bend the controller holds its path for `hold_ps`
/// (one RTT-ish) so in-flight feedback from the *old* path cannot trigger
/// a second bend before the first takes effect.
#[derive(Debug, Clone)]
pub struct BenderInt {
    v_range: u8,
    v: u8,
    confirm: u32,
    hold_ps: u64,
    /// Current blame streak: the hop and how many consecutive congested
    /// signals have named it.
    streak: Option<((u32, u16), u32)>,
    /// End of the post-bend hold-down, ps.
    hold_until_ps: u64,
}

impl BenderInt {
    /// A controller over `v_range` path options starting at `initial_v`,
    /// bending after `confirm` consecutive same-hop congestion signals
    /// and holding the new path for `hold_ps` afterwards.
    pub fn new(v_range: u8, initial_v: u8, confirm: u32, hold_ps: u64) -> Self {
        assert!(v_range >= 1, "v_range must be at least 1");
        assert!(initial_v < v_range, "initial V outside the range");
        assert!(confirm >= 1, "confirm must be at least 1");
        BenderInt {
            v_range,
            v: initial_v,
            confirm,
            hold_ps,
            streak: None,
            hold_until_ps: 0,
        }
    }

    /// The V-field value for this flow's outgoing packets.
    pub fn vfield(&self) -> u8 {
        self.v
    }

    /// A switch-assisted feedback signal (INT echo or CN) arrived at
    /// `now_ps`, mid-RTT.
    pub fn on_feedback(&mut self, fb: Feedback, now_ps: u64) -> Decision {
        if !fb.congested() {
            // A clean echo breaks the streak: blame must be consecutive,
            // mirroring FlowBender's N-consecutive-RTTs guard.
            self.streak = None;
            return Decision::Stay;
        }
        if now_ps < self.hold_until_ps {
            // Hold-down: this signal raced our last bend along the old
            // path; judging the new path by it would be unfair.
            return Decision::Stay;
        }
        let hop = fb.blamed();
        let n = match self.streak {
            Some((h, n)) if h == hop => n + 1,
            _ => 1,
        };
        if n >= self.confirm {
            self.bend(hop, now_ps)
        } else {
            self.streak = Some((hop, n));
            Decision::Stay
        }
    }

    /// A retransmission timeout fired. An RTO is the strongest congestion
    /// signal there is; bend immediately like FlowBender does. With no hop
    /// to blame, step one slot.
    pub fn on_timeout(&mut self) -> Decision {
        let from = self.v;
        if self.v_range > 1 {
            self.v = ((self.v as u32 + 1) % self.v_range as u32) as u8;
        }
        self.streak = None;
        Decision::Reroute { from, to: self.v }
    }

    /// Deterministic step away from `hop`: a SplitMix64-style finalizer
    /// of the hop identity picks how far around the V ring to jump, so
    /// the same blamed port always produces the same re-hash.
    fn hop_step(&self, hop: (u32, u16)) -> u32 {
        let range = self.v_range as u32;
        if range <= 1 {
            return 0;
        }
        let x = ((hop.0 as u64) << 16) | hop.1 as u64;
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        1 + (z as u32 % (range - 1))
    }

    fn bend(&mut self, hop: (u32, u16), now_ps: u64) -> Decision {
        let from = self.v;
        self.v = ((self.v as u32 + self.hop_step(hop)) % self.v_range as u32) as u8;
        self.streak = None;
        self.hold_until_ps = now_ps.saturating_add(self.hold_ps);
        Decision::Reroute { from, to: self.v }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn flowcut_switches_only_after_an_idle_gap() {
        let mut rng = SplitMix64::new(2);
        let gap = 1_000_000; // 1 µs in ps
        let mut fc = FlowcutGap::new(gap, 8, &mut rng);
        // A steady ACK clock: never switches.
        for t in (0..20u64).map(|i| i * 100_000) {
            assert_eq!(fc.on_ack(t, &mut rng), Decision::Stay);
        }
        // A 2 µs silence: the next ACK triggers a switch...
        let v = fc.vfield();
        let d = fc.on_ack(20 * 100_000 + 2_000_000, &mut rng);
        assert_eq!(
            d,
            Decision::Reroute {
                from: v,
                to: fc.vfield()
            }
        );
        // ...and the one after that (no new gap) does not.
        let d = fc.on_ack(20 * 100_000 + 2_100_000, &mut rng);
        assert_eq!(d, Decision::Stay);
    }

    #[test]
    fn flowcut_new_v_differs_when_range_allows() {
        let mut rng = SplitMix64::new(3);
        let mut fc = FlowcutGap::new(1, 2, &mut rng);
        for _ in 0..20 {
            let before = fc.vfield();
            match fc.on_timeout(&mut rng) {
                Decision::Reroute { from, to } => {
                    assert_eq!(from, before);
                    assert_ne!(from, to);
                    assert!(to < 2);
                }
                Decision::Stay => panic!("timeout must switch"),
            }
        }
    }

    #[test]
    fn flowcut_timeout_resets_the_gap_clock() {
        let mut rng = SplitMix64::new(4);
        let mut fc = FlowcutGap::new(1_000, 8, &mut rng);
        assert_eq!(fc.on_ack(0, &mut rng), Decision::Stay);
        assert!(fc.on_timeout(&mut rng).rerouted());
        // First ACK after the timeout re-anchors instead of re-triggering,
        // however late it is.
        assert_eq!(fc.on_ack(1_000_000_000, &mut rng), Decision::Stay);
    }

    #[test]
    fn flowcut_v_range_one_is_a_harmless_no_op() {
        let mut rng = SplitMix64::new(5);
        let mut fc = FlowcutGap::new(1, 1, &mut rng);
        let d = fc.on_timeout(&mut rng);
        assert_eq!(d, Decision::Reroute { from: 0, to: 0 });
    }

    fn cn(node: u32, port: u16) -> Feedback {
        Feedback::Cn {
            node,
            port,
            qbytes: 100_000,
        }
    }

    #[test]
    fn feedback_blame_and_congestion_semantics() {
        assert_eq!(cn(5, 2).blamed(), (5, 2));
        assert!(cn(5, 2).congested());
        let echo = Feedback::IntEcho {
            node: 3,
            port: 1,
            qbytes: 50_000,
            marked: false,
        };
        assert_eq!(echo.blamed(), (3, 1));
        assert!(!echo.congested(), "unmarked echo is a clean signal");
    }

    #[test]
    fn bender_int_bends_after_confirmed_blame_without_any_rng_draw() {
        // No method takes an RNG: the bend is a function of the blamed hop.
        let mut b = BenderInt::new(8, 3, 3, 100_000_000);
        assert_eq!(b.vfield(), 3);
        // Two blames: not confirmed yet.
        assert_eq!(b.on_feedback(cn(5, 2), 10), Decision::Stay);
        assert_eq!(b.on_feedback(cn(5, 2), 20), Decision::Stay);
        // Third consecutive same-hop blame: bend, away from V=3.
        let d = b.on_feedback(cn(5, 2), 30);
        let Decision::Reroute { from, to } = d else {
            panic!("confirmed blame must bend")
        };
        assert_eq!(from, 3);
        assert_ne!(from, to);
        assert_eq!(b.vfield(), to);
        // Hold-down: feedback racing the bend cannot re-bend.
        for t in [40, 50, 60, 70] {
            assert_eq!(b.on_feedback(cn(5, 2), t), Decision::Stay);
        }
    }

    #[test]
    fn bender_int_streak_requires_consecutive_same_hop_blame() {
        let mut b = BenderInt::new(8, 0, 3, 0);
        assert_eq!(b.on_feedback(cn(5, 2), 1), Decision::Stay);
        assert_eq!(b.on_feedback(cn(5, 2), 2), Decision::Stay);
        // A different hop restarts the streak...
        assert_eq!(b.on_feedback(cn(9, 0), 3), Decision::Stay);
        assert_eq!(b.on_feedback(cn(9, 0), 4), Decision::Stay);
        // ...and a clean INT echo clears it entirely.
        let clean = Feedback::IntEcho {
            node: 9,
            port: 0,
            qbytes: 10,
            marked: false,
        };
        assert_eq!(b.on_feedback(clean, 5), Decision::Stay);
        assert_eq!(b.on_feedback(cn(9, 0), 6), Decision::Stay);
        assert_eq!(b.on_feedback(cn(9, 0), 7), Decision::Stay);
        assert!(b.on_feedback(cn(9, 0), 8).rerouted());
    }

    #[test]
    fn bender_int_jump_is_deterministic_per_blamed_hop() {
        let run = |hop: Feedback| {
            let mut b = BenderInt::new(16, 5, 1, 0);
            match b.on_feedback(hop, 1) {
                Decision::Reroute { to, .. } => to,
                Decision::Stay => panic!("confirm=1 must bend"),
            }
        };
        // Same blamed hop -> same re-hash, twice.
        assert_eq!(run(cn(5, 2)), run(cn(5, 2)));
        // The step is hop-dependent (these two differ for this finalizer).
        assert_ne!(run(cn(5, 2)), run(cn(6, 3)));
        // And an RTO bends immediately, one slot on.
        let mut b = BenderInt::new(8, 7, 3, 0);
        assert_eq!(b.on_timeout(), Decision::Reroute { from: 7, to: 0 });
    }
}
