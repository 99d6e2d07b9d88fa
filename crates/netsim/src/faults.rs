//! Deterministic fault injection: gray failures, link flaps, switch
//! outages, and corruption loss.
//!
//! Real datacenter incidents are rarely a clean binary link death
//! ([`FaultPlan::kill`]). The cases FlowBender's robustness story (§1,
//! §3.3.2, §4.6 of the paper) actually has to survive are *gray*: a link
//! that silently drops 1% of packets, a port that flaps, a switch that
//! crashes and comes back. (A link's rate is not a fault: it is fixed when
//! the fabric is built, by [`crate::Simulator::set_link_rate`].) This
//! module provides a
//! [`FaultPlan`] — a declarative, seeded schedule of [`FaultAction`]s — that
//! [`crate::Simulator::install_faults`] turns into ordinary events, one
//! [`crate::event::EventKind::Fault`] per step, so fault timing participates
//! in the same deterministic `(time, cause, seq)` order as everything else.
//! A step that fires calls the simulator's immediate setters
//! ([`crate::Simulator::set_link_state`], `set_gray_loss`,
//! `set_corruption`): scheduling a fault and applying one by hand between
//! two `run_until`s are the same code.
//!
//! ## Determinism guarantees
//!
//! * Fault actions fire as scheduled events: same plan + same seed ⇒
//!   bit-identical runs.
//! * Probabilistic losses (gray loss, corruption) draw from a dedicated RNG
//!   stream that is split off the master seed at construction and consulted
//!   **only** when a port has a nonzero loss rate or BER — installing the
//!   fault layer does not perturb any existing random stream, so runs
//!   without faults stay byte-identical to builds that predate this module.
//! * Every faulted packet is accounted: gray losses and corruption drops
//!   are recorded per-port under their own [`crate::record::DropReason`],
//!   and the end-of-run conservation audit
//!   ([`crate::Simulator::conservation`]) proves
//!   `injected == delivered + dropped(reason) + in-flight`.

use crate::packet::{NodeId, PortId};
use crate::rng::DetRng;
use crate::time::SimTime;

/// One scheduled fault transition, naming a link by one of its ends
/// `(node, port)`. Link-state changes affect both directions of that link;
/// loss rates are directional (the `(node, port)` egress only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Administratively set the link attached to `(node, port)` up or down
    /// (both directions, like [`crate::Simulator::set_link_state`]).
    LinkState {
        /// Node owning the port.
        node: NodeId,
        /// Port index on that node.
        port: PortId,
        /// New administrative state.
        up: bool,
    },
    /// Set the probability that a packet leaving `(node, port)` is silently
    /// lost (a gray failure). `0.0` disables.
    GrayLoss {
        /// Node owning the port.
        node: NodeId,
        /// Port index on that node.
        port: PortId,
        /// Per-packet loss probability in `[0, 1]`.
        loss: f64,
    },
    /// Set the bit error rate on `(node, port)`: each transmitted packet is
    /// dropped with probability `1 - (1 - ber)^bits`. `0.0` disables.
    Corruption {
        /// Node owning the port.
        node: NodeId,
        /// Port index on that node.
        port: PortId,
        /// Per-bit error probability in `[0, 1]`.
        ber: f64,
    },
    /// Whole-switch failure: every port of `node` goes down at once, in
    /// both directions — the incident-scale analogue of a power loss or a
    /// control-plane crash taking a ToR/agg/core out of the fabric.
    SwitchDown {
        /// The switch that dies.
        node: NodeId,
    },
    /// Whole-switch recovery: every port of `node` comes back up (both
    /// directions), undoing a [`FaultAction::SwitchDown`].
    SwitchUp {
        /// The switch that recovers.
        node: NodeId,
    },
}

impl FaultAction {
    /// The node the action names.
    pub fn node(&self) -> NodeId {
        match *self {
            FaultAction::LinkState { node, .. }
            | FaultAction::GrayLoss { node, .. }
            | FaultAction::Corruption { node, .. }
            | FaultAction::SwitchDown { node }
            | FaultAction::SwitchUp { node } => node,
        }
    }
}

/// A declarative schedule of fault transitions for one run.
///
/// Build one with the combinators below (or push raw steps with
/// [`FaultPlan::at`]), then hand it to
/// [`crate::Simulator::install_faults`] — which validates every referenced
/// port and schedules one [`crate::event::EventKind::Fault`] per step.
///
/// ```
/// use netsim::{FaultPlan, SimTime};
/// let mut plan = FaultPlan::new();
/// plan.gray_loss(4, 1, 0.02, SimTime::ZERO); // 2% loss from t=0
/// plan.flap(4, 0, SimTime::from_ms(5), SimTime::from_ms(8));
/// plan.kill(4, 2, SimTime::from_ms(10));
/// assert_eq!(plan.len(), 4); // a flap is two steps
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    steps: Vec<(SimTime, FaultAction)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedule `action` at absolute time `at`. Steps may be pushed in any
    /// order; the event queue orders them (ties break in push order).
    ///
    /// # Panics
    ///
    /// On invalid parameters — see [`FaultPlan::try_at`] for the
    /// non-panicking form and the exact rules.
    pub fn at(&mut self, at: SimTime, action: FaultAction) -> &mut Self {
        self.try_at(at, action).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Schedule `action` at absolute time `at`, rejecting invalid
    /// parameters with an actionable error instead of panicking.
    ///
    /// Out-of-range values are **rejected, never clamped**: a gray-loss
    /// probability or BER must lie in `[0, 1]` (NaN and negative values
    /// fail the range check). Catching these at construction keeps garbage
    /// out of the per-port RNG draw path, where a NaN would silently poison
    /// every subsequent loss decision.
    pub fn try_at(&mut self, at: SimTime, action: FaultAction) -> Result<&mut Self, String> {
        if let FaultAction::GrayLoss { loss: p, .. } | FaultAction::Corruption { ber: p, .. } =
            action
        {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!(
                    "probability {p} outside [0, 1]: fault probabilities are rejected, \
                     not clamped (NaN and negative values included)"
                ));
            }
        }
        self.steps.push((at, action));
        Ok(self)
    }

    /// Gray failure: from `at` on, drop packets leaving `(node, port)` with
    /// probability `loss`.
    pub fn gray_loss(&mut self, node: NodeId, port: PortId, loss: f64, at: SimTime) -> &mut Self {
        self.at(at, FaultAction::GrayLoss { node, port, loss })
    }

    /// Corruption: from `at` on, packets leaving `(node, port)` are dropped
    /// with probability `1 - (1 - ber)^bits`.
    pub fn corruption(&mut self, node: NodeId, port: PortId, ber: f64, at: SimTime) -> &mut Self {
        self.at(at, FaultAction::Corruption { node, port, ber })
    }

    /// Link flap: take the link attached to `(node, port)` down at
    /// `down_at` and bring it back up at `up_at`.
    pub fn flap(
        &mut self,
        node: NodeId,
        port: PortId,
        down_at: SimTime,
        up_at: SimTime,
    ) -> &mut Self {
        assert!(down_at < up_at, "flap must go down before it comes up");
        self.at(
            down_at,
            FaultAction::LinkState {
                node,
                port,
                up: false,
            },
        );
        self.at(
            up_at,
            FaultAction::LinkState {
                node,
                port,
                up: true,
            },
        )
    }

    /// Permanent link death at `at` (a flap that never recovers).
    pub fn kill(&mut self, node: NodeId, port: PortId, at: SimTime) -> &mut Self {
        self.at(
            at,
            FaultAction::LinkState {
                node,
                port,
                up: false,
            },
        )
    }

    /// Whole-switch crash at `at`: every port of `node` dies at once (both
    /// directions of every attached link).
    pub fn crash(&mut self, node: NodeId, at: SimTime) -> &mut Self {
        self.at(at, FaultAction::SwitchDown { node })
    }

    /// Whole-switch recovery at `at`: every port of `node` comes back up.
    pub fn revive(&mut self, node: NodeId, at: SimTime) -> &mut Self {
        self.at(at, FaultAction::SwitchUp { node })
    }

    /// A scripted switch outage: crash `node` at `down_at`, revive it at
    /// `up_at`.
    pub fn switch_outage(&mut self, node: NodeId, down_at: SimTime, up_at: SimTime) -> &mut Self {
        assert!(down_at < up_at, "outage must go down before it comes up");
        self.crash(node, down_at).revive(node, up_at)
    }

    /// The scheduled steps, in push order.
    pub fn steps(&self) -> &[(SimTime, FaultAction)] {
        &self.steps
    }

    /// Number of scheduled steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// A randomized plan over `links`, for property tests: each link
    /// independently receives (with probability ~1/2 each) a flap inside
    /// `[0, horizon)` and/or a gray-loss rate up to `max_loss`, drawn from
    /// `rng`. Same RNG state ⇒ same plan.
    pub fn randomized(
        rng: &mut DetRng,
        links: &[(NodeId, PortId)],
        horizon: SimTime,
        max_loss: f64,
    ) -> Self {
        let mut plan = FaultPlan::new();
        let span = horizon.as_ps().max(2) as f64;
        for &(node, port) in links {
            if rng.gen_f64() < 0.5 {
                // Down somewhere in the first half, up in the second, so the
                // flap always recovers within the horizon.
                let a = (rng.gen_f64() * span * 0.5) as u64;
                let b = (span * 0.5 + rng.gen_f64() * (span * 0.5 - 1.0)) as u64;
                plan.flap(
                    node,
                    port,
                    SimTime::from_ps(a),
                    SimTime::from_ps(b.max(a + 1)),
                );
            }
            if rng.gen_f64() < 0.5 {
                let loss = rng.gen_f64() * max_loss;
                let at = SimTime::from_ps((rng.gen_f64() * span) as u64);
                plan.gray_loss(node, port, loss, at);
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combinators_push_expected_steps() {
        let mut plan = FaultPlan::new();
        plan.gray_loss(1, 2, 0.05, SimTime::from_ms(1))
            .corruption(1, 3, 1e-6, SimTime::ZERO)
            .kill(3, 0, SimTime::from_ms(4))
            .flap(4, 0, SimTime::from_ms(5), SimTime::from_ms(6));
        assert_eq!(plan.len(), 5);
        assert_eq!(
            plan.steps()[0],
            (
                SimTime::from_ms(1),
                FaultAction::GrayLoss {
                    node: 1,
                    port: 2,
                    loss: 0.05
                }
            )
        );
        assert!(matches!(
            plan.steps()[4].1,
            FaultAction::LinkState { up: true, .. }
        ));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn loss_above_one_rejected() {
        FaultPlan::new().gray_loss(0, 0, 1.5, SimTime::ZERO);
    }

    #[test]
    fn try_at_rejects_garbage_with_actionable_errors() {
        let mut plan = FaultPlan::new();
        let nan = plan.try_at(
            SimTime::ZERO,
            FaultAction::GrayLoss {
                node: 0,
                port: 0,
                loss: f64::NAN,
            },
        );
        assert!(nan.unwrap_err().contains("rejected, not clamped"));
        let neg = plan.try_at(
            SimTime::ZERO,
            FaultAction::Corruption {
                node: 0,
                port: 0,
                ber: -0.1,
            },
        );
        assert!(neg.unwrap_err().contains("outside [0, 1]"));
        assert!(plan.is_empty(), "rejected steps must not be recorded");
        plan.try_at(
            SimTime::ZERO,
            FaultAction::GrayLoss {
                node: 0,
                port: 0,
                loss: 0.5,
            },
        )
        .unwrap();
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn switch_outage_pushes_crash_then_revive() {
        let mut plan = FaultPlan::new();
        plan.switch_outage(7, SimTime::from_ms(1), SimTime::from_ms(3));
        assert_eq!(
            plan.steps(),
            &[
                (SimTime::from_ms(1), FaultAction::SwitchDown { node: 7 }),
                (SimTime::from_ms(3), FaultAction::SwitchUp { node: 7 }),
            ]
        );
        assert_eq!(plan.steps()[0].1.node(), 7);
    }

    #[test]
    #[should_panic(expected = "down before it comes up")]
    fn inverted_flap_rejected() {
        FaultPlan::new().flap(0, 0, SimTime::from_ms(2), SimTime::from_ms(1));
    }

    #[test]
    fn randomized_is_deterministic_and_bounded() {
        let links = [(0u32, 0u16), (1, 1), (2, 0), (3, 2)];
        let horizon = SimTime::from_ms(10);
        let a = FaultPlan::randomized(&mut DetRng::new(7, 1), &links, horizon, 0.05);
        let b = FaultPlan::randomized(&mut DetRng::new(7, 1), &links, horizon, 0.05);
        assert_eq!(a, b, "same seed must yield the same plan");
        let c = FaultPlan::randomized(&mut DetRng::new(8, 1), &links, horizon, 0.05);
        assert_ne!(a, c, "different seed should (here) yield a different plan");
        for &(at, action) in a.steps() {
            assert!(at < horizon + horizon, "step at {at} beyond 2x horizon");
            if let FaultAction::GrayLoss { loss, .. } = action {
                assert!((0.0..=0.05).contains(&loss));
            }
        }
    }
}
