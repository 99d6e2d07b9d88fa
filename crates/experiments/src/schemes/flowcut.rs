//! Flowcut: the host-side mirror of switch flowlet switching, built on
//! the same V-field fabric as FlowBender.

use super::SchemeSpec;
use netsim::{HashConfig, SimTime, SwitchConfig};
use transport::{PathSpec, TcpConfig};

/// Host-side gap switching: the sender re-draws its V-field whenever its
/// ACK stream has been idle longer than `gap` (the pipe has drained, so a
/// path change cannot reorder). Same commodity fabric as FlowBender; the
/// whole mechanism is a [`flowbender::FlowcutGap`] controller.
pub fn flowcut(gap: SimTime) -> SchemeSpec {
    SchemeSpec::new(
        format!("Flowcut({})", super::fmt_gap(gap)),
        SwitchConfig::commodity(HashConfig::FiveTupleAndVField),
        TcpConfig::with_path(PathSpec::Flowcut {
            gap,
            v_range: flowbender::Config::default().v_range,
        }),
    )
    .fabric("static 5-tuple+V hash")
    .host("DCTCP + V re-draw after idle ACK gaps")
    .brief("host-side flowlets: re-path only when the pipe is provably empty")
}
