//! The FlowBender state machine — the paper's §3.3/§3.4 algorithm.
//!
//! One [`FlowBender`] instance rides along each flow's sender. The transport
//! feeds it two things:
//!
//! 1. every ACK, via [`FlowBender::on_ack`], with whether it carried the ECN
//!    echo, and
//! 2. RTT-epoch boundaries, via [`FlowBender::on_rtt_end`] (transports that
//!    run DCTCP already track per-RTT windows for the alpha estimate, and
//!    reuse those), plus retransmission timeouts via
//!    [`FlowBender::on_timeout`].
//!
//! In return the transport reads [`FlowBender::vfield`] and stamps it into
//! every outgoing packet's flexible header field. When the per-RTT marked
//! fraction `F` exceeds `T` for `N` consecutive RTTs — or an RTO fires —
//! the instance picks a new `V`, which re-hashes the flow onto a different
//! ECMP path at every switch that includes the field in its hash.
//!
//! This file is, deliberately, about as long as the "50 lines of kernel
//! code" the paper advertises (plus configuration and the optional
//! refinements of §3.4/§5).

use crate::config::Config;
use crate::rng::Rng;

/// What the state machine decided at an epoch boundary or timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Keep the current path.
    Stay,
    /// The flow was rerouted: packets must now carry `to` in the flexible
    /// field.
    Reroute {
        /// Previous V value.
        from: u8,
        /// New V value (differs from `from` whenever `v_range > 1`).
        to: u8,
    },
}

impl Decision {
    /// True if this decision changed the path.
    pub fn rerouted(&self) -> bool {
        matches!(self, Decision::Reroute { .. })
    }
}

/// Per-flow FlowBender state. See the module docs for the protocol.
#[derive(Debug, Clone)]
pub struct FlowBender {
    cfg: Config,
    /// Current value of the flexible header field.
    v: u8,
    /// ACKs seen in the current RTT epoch.
    total_acks: u64,
    /// ECN-echo ACKs seen in the current RTT epoch.
    marked_acks: u64,
    /// Consecutive congested RTT epochs so far.
    num_congested_rtts: u32,
    /// Effective N for the current countdown (re-drawn when randomizing).
    n_target: u32,
    /// Smoothed F (only read when `cfg.ewma_gamma` is set).
    f_smooth: f64,
    /// Epochs remaining in the post-reroute cooldown.
    cooldown_left: u32,
}

impl FlowBender {
    /// Create an instance with a uniformly random initial `V`, so that
    /// concurrent flows between the same host pair start spread out.
    pub fn new<R: Rng + ?Sized>(cfg: Config, rng: &mut R) -> Self {
        cfg.validate();
        let v = rng.gen_range(cfg.v_range as u32) as u8;
        Self::with_initial_v(cfg, v)
    }

    /// Create an instance with a caller-chosen initial `V` (must be within
    /// `cfg.v_range`).
    pub fn with_initial_v(cfg: Config, v: u8) -> Self {
        cfg.validate();
        assert!(
            v < cfg.v_range,
            "initial V {v} out of range {}",
            cfg.v_range
        );
        FlowBender {
            cfg,
            v,
            total_acks: 0,
            marked_acks: 0,
            num_congested_rtts: 0,
            n_target: cfg.n,
            f_smooth: 0.0,
            cooldown_left: 0,
        }
    }

    /// The value the transport must stamp into the flexible header field of
    /// every outgoing packet of this flow.
    #[inline]
    pub fn vfield(&self) -> u8 {
        self.v
    }

    /// Count one received ACK (and whether it carried the ECN echo) into
    /// the current RTT epoch.
    #[inline]
    pub fn on_ack(&mut self, ecn_echo: bool) {
        self.total_acks += 1;
        if ecn_echo {
            self.marked_acks += 1;
        }
    }

    /// Close the current RTT epoch: evaluate `F` against `T`, update the
    /// consecutive-congestion counter, and possibly reroute.
    ///
    /// This is the paper's §3.4.1 pseudocode, with the optional EWMA,
    /// randomized-N, and cooldown refinements folded in.
    pub fn on_rtt_end<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Decision {
        if self.total_acks == 0 {
            // No feedback this epoch: no information, no decision.
            return Decision::Stay;
        }
        let f_raw = self.marked_acks as f64 / self.total_acks as f64;
        self.total_acks = 0;
        self.marked_acks = 0;

        let f = match self.cfg.ewma_gamma {
            Some(g) => {
                self.f_smooth = g * f_raw + (1.0 - g) * self.f_smooth;
                self.f_smooth
            }
            None => f_raw,
        };

        if self.cooldown_left > 0 {
            // §5.1: right after a reroute, congestion feedback still
            // reflects the old path; hold off.
            self.cooldown_left -= 1;
            self.num_congested_rtts = 0;
            return Decision::Stay;
        }

        if f > self.cfg.t {
            self.num_congested_rtts += 1;
            if self.num_congested_rtts >= self.n_target {
                self.num_congested_rtts = 0;
                return self.reroute(rng);
            }
        } else {
            self.num_congested_rtts = 0;
        }
        Decision::Stay
    }

    /// A retransmission timeout fired for this flow. Per §3.3.2 this is the
    /// strongest signal — the path may be broken outright — so FlowBender
    /// reroutes immediately (unless disabled), which is what bounds failure
    /// recovery to roughly one RTO.
    pub fn on_timeout<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Decision {
        // The epoch's counts refer to the stalled path; start clean.
        self.total_acks = 0;
        self.marked_acks = 0;
        self.num_congested_rtts = 0;
        if !self.cfg.reroute_on_timeout {
            return Decision::Stay;
        }
        self.reroute(rng)
    }

    fn reroute<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Decision {
        let from = self.v;
        let to = self.pick_new_v(rng);
        self.v = to;
        self.cooldown_left = self.cfg.cooldown_rtts;
        if self.cfg.randomize_n {
            // Draw the next countdown target from {N-1, N, N+1}, floor 1.
            let lo = self.cfg.n.saturating_sub(1).max(1);
            let hi = self.cfg.n + 1;
            self.n_target = rng.gen_range_incl(lo, hi);
        }
        Decision::Reroute { from, to }
    }

    /// Uniform pick over the other `v_range - 1` values (or the sole value
    /// when `v_range == 1`, in which case "rerouting" is a no-op — useful
    /// as a degenerate control in experiments).
    fn pick_new_v<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u8 {
        let range = self.cfg.v_range as u32;
        if range == 1 {
            return self.v;
        }
        let step = 1 + rng.gen_range(range - 1);
        ((self.v as u32 + step) % range) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counting "RNG" that returns a fixed sequence, for deterministic
    /// unit tests of the decision logic.
    struct FixedRng(Vec<u64>, usize);
    impl FixedRng {
        fn new(vals: Vec<u64>) -> Self {
            FixedRng(vals, 0)
        }
    }
    impl Rng for FixedRng {
        fn next_u32(&mut self) -> u32 {
            let v = self.0[self.1 % self.0.len()];
            self.1 += 1;
            v as u32
        }
    }

    fn det_rng() -> impl Rng {
        FixedRng::new(vec![0, 1, 2, 3, 4, 5, 6, 7])
    }

    fn run_epoch(fb: &mut FlowBender, marked: u64, clean: u64, rng: &mut impl Rng) -> Decision {
        for _ in 0..marked {
            fb.on_ack(true);
        }
        for _ in 0..clean {
            fb.on_ack(false);
        }
        fb.on_rtt_end(rng)
    }

    #[test]
    fn stays_below_threshold() {
        let mut rng = det_rng();
        let mut fb = FlowBender::with_initial_v(Config::default(), 0);
        // 4% marked < 5% threshold.
        for _ in 0..50 {
            assert_eq!(run_epoch(&mut fb, 4, 96, &mut rng), Decision::Stay);
        }
        assert_eq!(fb.vfield(), 0);
    }

    #[test]
    fn reroutes_above_threshold_with_n1() {
        let mut rng = det_rng();
        let mut fb = FlowBender::with_initial_v(Config::default(), 0);
        let d = run_epoch(&mut fb, 10, 90, &mut rng); // 10% > 5%
        assert!(d.rerouted());
        assert_ne!(fb.vfield(), 0);
    }

    #[test]
    fn threshold_is_strict_inequality() {
        // The paper's pseudocode says `if F > T`; F == T must not trigger.
        let mut rng = det_rng();
        let mut fb = FlowBender::with_initial_v(Config::default().with_t(0.10), 0);
        assert_eq!(run_epoch(&mut fb, 10, 90, &mut rng), Decision::Stay);
        assert!(run_epoch(&mut fb, 11, 89, &mut rng).rerouted());
    }

    #[test]
    fn n2_requires_consecutive_congestion() {
        let mut rng = det_rng();
        let mut fb = FlowBender::with_initial_v(Config::default().with_n(2), 0);
        assert_eq!(run_epoch(&mut fb, 50, 50, &mut rng), Decision::Stay);
        // A clean RTT resets the count.
        assert_eq!(run_epoch(&mut fb, 0, 100, &mut rng), Decision::Stay);
        assert_eq!(run_epoch(&mut fb, 50, 50, &mut rng), Decision::Stay);
        assert!(run_epoch(&mut fb, 50, 50, &mut rng).rerouted());
    }

    #[test]
    fn empty_epoch_is_no_information() {
        let mut rng = det_rng();
        let mut fb = FlowBender::with_initial_v(Config::default().with_n(2), 0);
        assert_eq!(run_epoch(&mut fb, 50, 50, &mut rng), Decision::Stay);
        // Epoch with zero ACKs: neither congested nor clean.
        assert_eq!(fb.on_rtt_end(&mut rng), Decision::Stay);
        // The consecutive count survives the empty epoch.
        assert!(run_epoch(&mut fb, 50, 50, &mut rng).rerouted());
    }

    #[test]
    fn timeout_reroutes_and_counts_separately() {
        let mut rng = det_rng();
        let mut fb = FlowBender::with_initial_v(Config::default(), 0);
        for _ in 0..10 {
            fb.on_ack(true);
        }
        let d = fb.on_timeout(&mut rng);
        assert!(d.rerouted());
        // The partial, fully marked epoch was discarded: closing it now
        // is an empty epoch, not a second (congestion) reroute.
        assert_eq!(fb.on_rtt_end(&mut rng), Decision::Stay);
    }

    #[test]
    fn timeout_reroute_can_be_disabled() {
        let mut rng = det_rng();
        let cfg = Config {
            reroute_on_timeout: false,
            ..Config::default()
        };
        let mut fb = FlowBender::with_initial_v(cfg, 0);
        assert_eq!(fb.on_timeout(&mut rng), Decision::Stay);
        assert_eq!(fb.vfield(), 0);
    }

    #[test]
    fn new_v_always_differs_when_range_allows() {
        let mut rng = det_rng();
        let mut fb = FlowBender::with_initial_v(Config::default().with_v_range(2), 0);
        for i in 0..20 {
            let before = fb.vfield();
            let d = run_epoch(&mut fb, 100, 0, &mut rng);
            match d {
                Decision::Reroute { from, to } => {
                    assert_eq!(from, before);
                    assert_ne!(from, to, "iteration {i}");
                    assert!(to < 2);
                }
                Decision::Stay => panic!("fully marked epoch must reroute"),
            }
        }
    }

    #[test]
    fn v_range_one_is_a_harmless_no_op() {
        let mut rng = det_rng();
        let mut fb = FlowBender::with_initial_v(Config::default().with_v_range(1), 0);
        let d = run_epoch(&mut fb, 100, 0, &mut rng);
        assert_eq!(d, Decision::Reroute { from: 0, to: 0 });
        assert_eq!(fb.vfield(), 0);
    }

    #[test]
    fn cooldown_suppresses_back_to_back_reroutes() {
        let mut rng = det_rng();
        let mut fb = FlowBender::with_initial_v(Config::default().with_cooldown(2), 0);
        assert!(run_epoch(&mut fb, 100, 0, &mut rng).rerouted());
        // Two fully-congested epochs are ignored during cooldown...
        assert_eq!(run_epoch(&mut fb, 100, 0, &mut rng), Decision::Stay);
        assert_eq!(run_epoch(&mut fb, 100, 0, &mut rng), Decision::Stay);
        // ...then rerouting resumes.
        assert!(run_epoch(&mut fb, 100, 0, &mut rng).rerouted());
    }

    #[test]
    fn ewma_smooths_bursty_marking() {
        let mut rng = det_rng();
        // gamma = 0.5: one fully-marked epoch after a clean history gives
        // f_smooth = 0.5 > T, but a *single spike* after many clean epochs
        // with a small gamma does not.
        let cfg = Config::default().with_ewma(0.05);
        let mut fb = FlowBender::with_initial_v(cfg, 0);
        for _ in 0..20 {
            assert_eq!(run_epoch(&mut fb, 0, 100, &mut rng), Decision::Stay);
        }
        // Spike epoch: raw F = 1.0 but smoothed = 0.05*1.0 = 0.05, not > T.
        assert_eq!(run_epoch(&mut fb, 100, 0, &mut rng), Decision::Stay);
        // Sustained marking eventually crosses the threshold.
        let mut rerouted = false;
        for _ in 0..20 {
            if run_epoch(&mut fb, 100, 0, &mut rng).rerouted() {
                rerouted = true;
                break;
            }
        }
        assert!(
            rerouted,
            "sustained congestion must still trigger under EWMA"
        );
    }

    #[test]
    fn randomized_n_stays_within_one_of_n() {
        let mut rng = det_rng();
        let cfg = Config::default().with_n(3).with_randomized_n();
        let mut fb = FlowBender::with_initial_v(cfg, 0);
        // Force many reroutes; after each, count how many congested epochs
        // the next reroute takes: must be within {2, 3, 4}.
        for _ in 0..30 {
            let mut epochs = 0;
            loop {
                epochs += 1;
                if run_epoch(&mut fb, 100, 0, &mut rng).rerouted() {
                    break;
                }
                assert!(epochs < 10, "runaway: no reroute after {epochs} epochs");
            }
            assert!((2..=4).contains(&epochs), "took {epochs} epochs");
        }
    }

    #[test]
    #[should_panic]
    fn initial_v_out_of_range_panics() {
        FlowBender::with_initial_v(Config::default().with_v_range(4), 4);
    }

    #[test]
    fn random_initial_v_within_range() {
        let mut rng = det_rng();
        for _ in 0..50 {
            let fb = FlowBender::new(Config::default(), &mut rng);
            assert!(fb.vfield() < 8);
        }
    }
}
