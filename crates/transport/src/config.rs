//! Transport configuration.
//!
//! The paper runs every scheme over one host stack (§4.2): TCP New Reno
//! under DCTCP (g = 1/16), RTO_min = 10 ms, an initial window of ten
//! segments, and a receiver that acknowledges every segment at once. Those
//! fixed values are the constants below, as are Bender-INT's parameters,
//! which only one scheme uses. A [`TcpConfig`] holds only what a scheme
//! varies: the duplicate-ACK threshold (DeTail turns fast retransmit off)
//! and the [`PathSpec`] naming which path controller each flow runs
//! (FlowBender for the paper's scheme, a fixed V for the oblivious
//! baselines).
//!
//! The set of controllers is closed here: [`PathSpec::build`] turns the
//! shared spec into one flow's [`PathControl`], an enum over the
//! `flowbender` crate's state machines that the sender holds inline and
//! drives with one `match` per event.

use flowbender::{BenderInt, Decision, Feedback, FlowBender, FlowcutGap, Rng};
use netsim::{SimTime, MSS};

/// Initial congestion window in bytes: ten segments (IW = 10).
pub const INIT_CWND: f64 = (10 * MSS) as f64;
/// Lower bound on the retransmission timeout (paper: 10 ms); also the RTO
/// before any RTT sample exists, as on the paper's testbed.
pub const RTO_MIN: SimTime = SimTime::from_ms(10);
/// Upper bound on the congestion window in bytes, modelling the receiver's
/// advertised window (Linux auto-tunes to a few MB). Keeps in-flight data
/// bounded even when no congestion signal arrives (e.g. a PFC-paused
/// lossless fabric never marks).
pub const MAX_CWND: u64 = 1_000_000;
/// `g`, the gain of DCTCP's exponentially weighted `alpha` estimate
/// (Alizadeh et al., SIGCOMM'10; paper: 1/16).
pub const DCTCP_G: f64 = 1.0 / 16.0;
/// Bender-INT's number of V options: FlowBender's default range.
pub const BENDER_INT_V_RANGE: u8 = 8;
/// Consecutive same-hop blames Bender-INT requires before bending.
pub const BENDER_INT_CONFIRM: u32 = 3;
/// Bender-INT's hold-off after a bend before it judges the new path.
pub const BENDER_INT_HOLD: SimTime = SimTime::from_us(100);

/// The host-side path-control policy: which [`PathControl`] each flow of
/// a [`TcpConfig`] runs, with its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PathSpec {
    /// The no-op controller: every flow keeps its V-hint forever (ECMP,
    /// RPS, DeTail — and the pinned halves of replication schemes).
    #[default]
    Static,
    /// FlowBender with the given configuration, initial V drawn from the
    /// host RNG.
    FlowBender(flowbender::Config),
    /// Host-side flowcut switching: re-draw V after `gap` of ACK silence,
    /// over `v_range` path options.
    Flowcut {
        /// ACK silence that proves the pipe drained.
        gap: SimTime,
        /// Number of V options.
        v_range: u8,
    },
    /// Bender-INT: bend away from the blamed hop after
    /// [`BENDER_INT_CONFIRM`] consecutive same-hop blames, then hold the
    /// new path for [`BENDER_INT_HOLD`]. The flow starts at
    /// `vhint % BENDER_INT_V_RANGE`.
    BenderInt,
}

impl PathSpec {
    /// Build the controller for one flow from its V-hint (0 for ordinary
    /// flows; replication schemes pin duplicates elsewhere) and the host's
    /// deterministic RNG, which FlowBender and Flowcut draw their initial V
    /// from.
    pub fn build<R: Rng + ?Sized>(&self, vhint: u8, rng: &mut R) -> PathControl {
        match *self {
            PathSpec::Static => PathControl::Static(vhint),
            PathSpec::FlowBender(cfg) => PathControl::FlowBender(FlowBender::new(cfg, rng)),
            PathSpec::Flowcut { gap, v_range } => {
                PathControl::Flowcut(FlowcutGap::new(gap.as_ps(), v_range, rng))
            }
            PathSpec::BenderInt => PathControl::BenderInt(BenderInt::new(
                BENDER_INT_V_RANGE,
                vhint % BENDER_INT_V_RANGE,
                BENDER_INT_CONFIRM,
                BENDER_INT_HOLD.as_ps(),
            )),
        }
    }

    /// Whether this is the no-op (static) controller.
    pub fn is_none(&self) -> bool {
        matches!(self, PathSpec::Static)
    }
}

/// One flow's path controller: the state [`PathSpec::build`] makes.
///
/// Each event the sender reports goes to the one controller that reacts to
/// it; every other arm answers [`Decision::Stay`] and draws no RNG, so a
/// scheme's draw sequence is exactly its own controller's. All times are
/// picoseconds since simulation start.
#[derive(Debug, Clone)]
pub enum PathControl {
    /// A fixed V for the flow's whole life: the oblivious schemes (ECMP,
    /// RPS, DeTail) and the pinned duplicates of replication schemes.
    Static(u8),
    /// The paper's algorithm.
    FlowBender(FlowBender),
    /// Host-side flowcut switching.
    Flowcut(FlowcutGap),
    /// FlowBender with per-hop blame.
    BenderInt(BenderInt),
}

impl PathControl {
    /// The value to stamp into the flexible header field of every outgoing
    /// packet of this flow.
    #[inline]
    pub fn vfield(&self) -> u8 {
        match self {
            PathControl::Static(v) => *v,
            PathControl::FlowBender(fb) => fb.vfield(),
            PathControl::Flowcut(fc) => fc.vfield(),
            PathControl::BenderInt(b) => b.vfield(),
        }
    }

    /// One ACK arrived (`ecn_echo` = it carried the ECN echo) at `now_ps`.
    /// FlowBender counts it into the epoch; Flowcut may reroute on a gap.
    #[inline]
    pub fn on_ack<R: Rng + ?Sized>(
        &mut self,
        ecn_echo: bool,
        now_ps: u64,
        rng: &mut R,
    ) -> Decision {
        match self {
            PathControl::FlowBender(fb) => {
                fb.on_ack(ecn_echo);
                Decision::Stay
            }
            PathControl::Flowcut(fc) => fc.on_ack(now_ps, rng),
            PathControl::Static(_) | PathControl::BenderInt(_) => Decision::Stay,
        }
    }

    /// A switch-assisted feedback signal arrived at `now_ps`, mid-RTT;
    /// only Bender-INT reacts.
    pub fn on_feedback(&mut self, fb: Feedback, now_ps: u64) -> Decision {
        match self {
            PathControl::BenderInt(b) => b.on_feedback(fb, now_ps),
            _ => Decision::Stay,
        }
    }

    /// The RTT epoch (the congestion-window round) closed; only
    /// FlowBender reacts.
    pub fn on_rtt_end<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Decision {
        match self {
            PathControl::FlowBender(fb) => fb.on_rtt_end(rng),
            _ => Decision::Stay,
        }
    }

    /// A retransmission timeout fired; every controller but the static
    /// one may reroute.
    pub fn on_timeout<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Decision {
        match self {
            PathControl::Static(_) => Decision::Stay,
            PathControl::FlowBender(fb) => fb.on_timeout(rng),
            PathControl::Flowcut(fc) => fc.on_timeout(rng),
            PathControl::BenderInt(b) => b.on_timeout(),
        }
    }
}

/// What a scheme varies in the TCP New Reno + DCTCP + path-control stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpConfig {
    /// Duplicate-ACK threshold for fast retransmit (`None` disables fast
    /// retransmit entirely — the DeTail configuration). Linux default 3;
    /// the §4.3 testbed re-ran with 30 as a reordering sanity check.
    pub dupack_threshold: Option<u32>,
    /// The host-side path-control policy each flow runs
    /// ([`PathSpec::Static`] for the oblivious ECMP/RPS/DeTail baselines).
    pub path: PathSpec,
}

impl Default for TcpConfig {
    /// The paper's base stack: dupack threshold 3, no path control.
    fn default() -> Self {
        TcpConfig::with_path(PathSpec::Static)
    }
}

impl TcpConfig {
    /// The FlowBender stack: DCTCP plus FlowBender with the given config.
    pub fn flowbender(fb: flowbender::Config) -> Self {
        TcpConfig::with_path(PathSpec::FlowBender(fb))
    }

    /// The DeTail host stack: DCTCP with fast retransmit disabled (the
    /// paper disables it because per-packet adaptive routing reorders
    /// heavily and PFC makes the fabric lossless).
    pub fn detail() -> Self {
        TcpConfig {
            dupack_threshold: None,
            ..TcpConfig::default()
        }
    }

    /// The paper's base stack running the given path controller.
    pub fn with_path(path: PathSpec) -> Self {
        TcpConfig {
            dupack_threshold: Some(3),
            path,
        }
    }

    /// Validate invariants, naming the offending field.
    ///
    /// # Panics
    /// On out-of-range values.
    pub fn validate(&self) {
        if let Some(th) = self.dupack_threshold {
            assert!(th >= 1, "dupack threshold must be >= 1");
        }
        match self.path {
            PathSpec::FlowBender(cfg) => cfg.validate(),
            PathSpec::Flowcut {
                gap: SimTime::ZERO, ..
            } => panic!("Flowcut gap must be positive"),
            PathSpec::Flowcut { v_range: 0, .. } => panic!("Flowcut v_range must be >= 1"),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowbender::SplitMix64;

    #[test]
    fn defaults_match_paper() {
        assert_eq!(MSS, 1460);
        assert_eq!(INIT_CWND, 14_600.0);
        assert_eq!(RTO_MIN, SimTime::from_ms(10));
        assert_eq!(DCTCP_G, 0.0625);
        assert_eq!(BENDER_INT_V_RANGE, flowbender::Config::default().v_range);
        let c = TcpConfig::default();
        assert_eq!(c.dupack_threshold, Some(3));
        assert!(c.path.is_none());
        c.validate();
    }

    #[test]
    fn detail_disables_fast_retransmit() {
        let c = TcpConfig::detail();
        assert_eq!(c.dupack_threshold, None);
        assert!(c.path.is_none());
        c.validate();
    }

    #[test]
    fn flowbender_stack_carries_config() {
        let c = TcpConfig::flowbender(flowbender::Config::default().with_t(0.01));
        assert!(!c.path.is_none());
        assert_eq!(
            c.path,
            PathSpec::FlowBender(flowbender::Config::default().with_t(0.01))
        );
        assert_ne!(c.path, PathSpec::FlowBender(flowbender::Config::default()));
        c.validate();
    }

    #[test]
    fn path_spec_builds_the_advertised_controller() {
        let mut rng = SplitMix64::new(1);
        let c = PathSpec::Static.build(5, &mut rng);
        assert!(matches!(c, PathControl::Static(5)));
        let c = PathSpec::FlowBender(flowbender::Config::default()).build(0, &mut rng);
        assert!(matches!(c, PathControl::FlowBender(_)));
        let flowcut = PathSpec::Flowcut {
            gap: SimTime::from_us(100),
            v_range: 8,
        };
        assert!(matches!(
            flowcut.build(0, &mut rng),
            PathControl::Flowcut(_)
        ));
        let c = PathSpec::BenderInt.build(13, &mut rng);
        assert!(matches!(c, PathControl::BenderInt(_)));
        assert_eq!(c.vfield(), 13 % 8, "Bender-INT starts at vhint % v_range");
    }

    /// The oblivious schemes' byte-identity rests on this: a static path
    /// keeps its V through every event and never advances the RNG.
    #[test]
    fn static_path_never_moves_and_never_draws() {
        let before = SplitMix64::new(7).next_u32();
        let mut rng = SplitMix64::new(7);
        let mut p = PathSpec::Static.build(3, &mut rng);
        let fb = Feedback::Cn {
            node: 1,
            port: 2,
            qbytes: 100_000,
        };
        assert_eq!(p.on_ack(true, 100, &mut rng), Decision::Stay);
        assert_eq!(p.on_feedback(fb, 100), Decision::Stay);
        assert_eq!(p.on_rtt_end(&mut rng), Decision::Stay);
        assert_eq!(p.on_timeout(&mut rng), Decision::Stay);
        assert_eq!(p.vfield(), 3);
        assert_eq!(rng.next_u32(), before);
    }

    /// The FlowBender arm feeds ACKs into the epoch and hands the epoch's
    /// verdict back unchanged.
    #[test]
    fn flowbender_arm_counts_acks_and_reroutes_at_epoch_end() {
        let mut rng = SplitMix64::new(1);
        let mut p = PathSpec::FlowBender(flowbender::Config::default()).build(0, &mut rng);
        let v = p.vfield();
        for _ in 0..9 {
            assert_eq!(p.on_ack(true, 0, &mut rng), Decision::Stay);
        }
        p.on_ack(false, 0, &mut rng);
        let d = p.on_rtt_end(&mut rng);
        assert_eq!(
            d,
            Decision::Reroute {
                from: v,
                to: p.vfield()
            },
            "90% marked"
        );
        assert!(p.on_timeout(&mut rng).rerouted());
    }

    #[test]
    fn path_spec_equality_is_by_parameters() {
        let flowcut = |gap_us| PathSpec::Flowcut {
            gap: SimTime::from_us(gap_us),
            v_range: 8,
        };
        assert_eq!(PathSpec::Static, PathSpec::default());
        assert_eq!(flowcut(100), flowcut(100));
        assert_ne!(flowcut(100), flowcut(500));
        assert_ne!(PathSpec::Static, flowcut(100));
        assert_ne!(PathSpec::BenderInt, PathSpec::Static);
    }

    #[test]
    #[should_panic(expected = "T must be a fraction")]
    fn invalid_flowbender_config_rejected_at_construction() {
        TcpConfig::flowbender(flowbender::Config::default().with_t(1.5)).validate();
    }

    #[test]
    #[should_panic(expected = "Flowcut gap must be positive")]
    fn flowcut_zero_gap_rejected() {
        TcpConfig::with_path(PathSpec::Flowcut {
            gap: SimTime::ZERO,
            v_range: 8,
        })
        .validate();
    }

    #[test]
    #[should_panic(expected = "Flowcut v_range must be >= 1")]
    fn flowcut_zero_v_range_rejected() {
        TcpConfig::with_path(PathSpec::Flowcut {
            gap: SimTime::from_us(100),
            v_range: 0,
        })
        .validate();
    }
}
