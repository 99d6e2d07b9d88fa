//! Bender-INT: FlowBender's bending driven by per-hop INT telemetry
//! instead of the scalar ECN-echo fraction.

use netsim::{FeedbackConfig, HashConfig, SwitchConfig};
use transport::{PathSpec, TcpConfig};

use super::SchemeSpec;

/// Switch-assisted FlowBender: the fabric stamps INT metadata (switch,
/// egress port, queue depth, ECN state) into every forwarded packet, the
/// receiver echoes the stack on its ACKs, and a [`flowbender::BenderInt`]
/// controller bends away from the *blamed hop* — the deepest queue on the
/// path — once [`transport::config::BENDER_INT_CONFIRM`] consecutive ACKs
/// agree on it. The new V is a deterministic function of the blamed
/// (switch, port), so the flow rehashes around that specific port rather
/// than to a random neighbor.
pub fn bender_int() -> SchemeSpec {
    SchemeSpec::new(
        "Bender-INT",
        SwitchConfig::commodity(HashConfig::FiveTupleAndVField)
            .with_feedback(FeedbackConfig::int_only()),
        TcpConfig::with_path(PathSpec::BenderInt),
    )
    .fabric("static 5-tuple+V hash + per-hop INT stamping")
    .host("DCTCP + bend away from the INT-blamed hop")
    .brief("FlowBender steered by telemetry: rehash around the congested port, not at random")
}
