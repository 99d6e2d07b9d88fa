//! Transport configuration.
//!
//! The paper runs every scheme over one host stack (§4.2): TCP New Reno
//! under DCTCP (g = 1/16), RTO_min = 10 ms, an initial window of ten
//! segments. Those fixed values are the constants below. A [`TcpConfig`]
//! holds only what a scheme varies: the duplicate-ACK threshold (DeTail
//! turns fast retransmit off), delayed ACKs, and the [`PathSpec`] naming
//! which [`flowbender::PathController`] each flow runs (FlowBender for the
//! paper's scheme, a static no-op for the oblivious baselines).

use flowbender::{BenderInt, FlowBender, FlowcutGap, PathController, Rng, StaticPath};
use netsim::{SimTime, MSS};

use crate::receiver::DelAckConfig;

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

/// The host-side path-control policy: which [`PathController`] each flow
/// of a [`TcpConfig`] runs, with its parameters.
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
    /// Bender-INT: bend away from the blamed hop after `confirm`
    /// consecutive same-hop blames, then hold the new path for `hold`.
    BenderInt {
        /// Number of V options; the flow starts at `vhint % v_range`.
        v_range: u8,
        /// Consecutive same-hop blames required before bending.
        confirm: u32,
        /// Post-bend hold-off.
        hold: SimTime,
    },
}

impl PathSpec {
    /// Build the controller for one flow from its V-hint (0 for ordinary
    /// flows; replication schemes pin duplicates elsewhere) and the host's
    /// deterministic RNG, which FlowBender and Flowcut draw their initial V
    /// from.
    pub fn build(&self, vhint: u8, rng: &mut dyn Rng) -> Box<dyn PathController> {
        match *self {
            PathSpec::Static => Box::new(StaticPath::new(vhint)),
            PathSpec::FlowBender(cfg) => Box::new(FlowBender::new(cfg, rng)),
            PathSpec::Flowcut { gap, v_range } => {
                Box::new(FlowcutGap::new(gap.as_ps(), v_range, rng))
            }
            PathSpec::BenderInt {
                v_range,
                confirm,
                hold,
            } => {
                let v = vhint % v_range;
                Box::new(BenderInt::new(v_range, v, confirm, hold.as_ps()))
            }
        }
    }

    /// Whether this is the no-op (static) controller.
    pub fn is_none(&self) -> bool {
        matches!(self, PathSpec::Static)
    }
}

/// What a scheme varies in the TCP New Reno + DCTCP + path-control stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpConfig {
    /// Duplicate-ACK threshold for fast retransmit (`None` disables fast
    /// retransmit entirely — the DeTail configuration). Linux default 3;
    /// the §4.3 testbed re-ran with 30 as a reordering sanity check.
    pub dupack_threshold: Option<u32>,
    /// Delayed acknowledgments (the DCTCP paper's receiver state machine);
    /// `None` = per-packet ACKs, the exact-echo default used throughout
    /// the experiments.
    pub delack: Option<DelAckConfig>,
    /// The host-side path-control policy each flow runs
    /// ([`PathSpec::Static`] for the oblivious ECMP/RPS/DeTail baselines).
    pub path: PathSpec,
}

impl Default for TcpConfig {
    /// The paper's base stack: dupack threshold 3, per-packet ACKs, no
    /// path control.
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
            delack: None,
            path,
        }
    }

    /// Validate invariants, naming the offending field (the receiver checks
    /// [`TcpConfig::delack`] when it adopts it).
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
            PathSpec::BenderInt { v_range: 0, .. } => panic!("BenderInt v_range must be >= 1"),
            PathSpec::BenderInt { confirm: 0, .. } => panic!("BenderInt confirm must be >= 1"),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        assert_eq!(MSS, 1460);
        assert_eq!(INIT_CWND, 14_600.0);
        assert_eq!(RTO_MIN, SimTime::from_ms(10));
        assert_eq!(DCTCP_G, 0.0625);
        let c = TcpConfig::default();
        assert_eq!(c.dupack_threshold, Some(3));
        assert_eq!(c.delack, None);
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
        let mut rng = flowbender::SplitMix64::new(1);
        let c = PathSpec::Static.build(5, &mut rng);
        assert_eq!(c.vfield(), 5);
        assert!(!c.active());
        let c = PathSpec::FlowBender(flowbender::Config::default()).build(0, &mut rng);
        assert!(c.active());
        assert!(c.as_flowbender().is_some());
        let flowcut = PathSpec::Flowcut {
            gap: SimTime::from_us(100),
            v_range: 8,
        };
        let c = flowcut.build(0, &mut rng);
        assert!(c.active());
        assert!(c.as_flowbender().is_none());
        let bender_int = PathSpec::BenderInt {
            v_range: 8,
            confirm: 3,
            hold: SimTime::from_us(100),
        };
        let c = bender_int.build(13, &mut rng);
        assert!(c.active());
        assert_eq!(c.vfield(), 13 % 8, "Bender-INT starts at vhint % v_range");
    }

    #[test]
    fn path_spec_equality_is_by_parameters() {
        let bender_int = |hold_us| PathSpec::BenderInt {
            v_range: 8,
            confirm: 3,
            hold: SimTime::from_us(hold_us),
        };
        let flowcut = |gap_us| PathSpec::Flowcut {
            gap: SimTime::from_us(gap_us),
            v_range: 8,
        };
        assert_eq!(PathSpec::Static, PathSpec::default());
        assert_eq!(flowcut(100), flowcut(100));
        assert_ne!(flowcut(100), flowcut(500));
        assert_eq!(bender_int(100), bender_int(100));
        assert_ne!(bender_int(100), bender_int(200), "hold is a parameter");
        assert_ne!(PathSpec::Static, flowcut(100));
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

    #[test]
    #[should_panic(expected = "BenderInt v_range must be >= 1")]
    fn bender_int_zero_v_range_rejected() {
        TcpConfig::with_path(PathSpec::BenderInt {
            v_range: 0,
            confirm: 3,
            hold: SimTime::from_us(100),
        })
        .validate();
    }

    #[test]
    #[should_panic(expected = "BenderInt confirm must be >= 1")]
    fn bender_int_zero_confirm_rejected() {
        TcpConfig::with_path(PathSpec::BenderInt {
            v_range: 8,
            confirm: 0,
            hold: SimTime::from_us(100),
        })
        .validate();
    }
}
