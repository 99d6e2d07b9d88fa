//! The other host-side path controller.
//!
//! The paper's framing (§3.3) is that FlowBender is *one* member of a
//! family of end-host policies that steer a flow by rewriting a flexible
//! header field ("the V-field") that commodity ECMP switches fold into
//! their hash. Each policy is a plain state machine: the transport reports
//! the events it reacts to, and it answers with a [`Decision`] and the
//! V-field value to stamp into every outgoing packet. Besides
//! [`FlowBender`](crate::FlowBender), one lives here: [`FlowcutGap`],
//! host-side flowlet/"flowcut" switching (Bonato et al. style). When the
//! ACK stream goes idle for longer than a configured gap, the pipe has
//! drained and the flow can re-hash onto a new path without risking
//! reordering.
//!
//! The set is closed: the `transport` crate holds one flow's controller
//! as an enum over the two (plus a fixed V for the oblivious schemes) and
//! dispatches each event with one `match`.

use crate::bender::Decision;
use crate::rng::Rng;

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
}
