//! FastCC: DCTCP whose congestion cut is triggered by switch-generated
//! early feedback instead of the end-to-end ECN echo. The host half is
//! the stock stack: every sender cuts cwnd on a CN, and this is the one
//! scheme whose fabric sends them.

use netsim::{FeedbackConfig, HashConfig, SwitchConfig};
use transport::TcpConfig;

use super::SchemeSpec;

/// CN threshold, aligned with the fabric's ECN marking point (K = 90 KB)
/// so the switch notifies the sender at exactly the occupancy that would
/// have marked the packet — the CN is a faster copy of the same signal.
const CN_THRESHOLD: u64 = 90_000;

/// ECMP fabric whose switches send a congestion notification (CN)
/// straight back to the sender when an egress queue crosses
/// `CN_THRESHOLD` (rate-limited per port/flow), plus the stock DCTCP host,
/// which cuts cwnd the moment the CN lands rather than half an RTT later
/// when the receiver's echo arrives.
pub fn fastcc() -> SchemeSpec {
    SchemeSpec::new(
        "FastCC",
        SwitchConfig::commodity(HashConfig::FiveTupleAndVField)
            .with_feedback(FeedbackConfig::cn(CN_THRESHOLD)),
        TcpConfig::default(),
    )
    .fabric("static 5-tuple+V hash + early CN at the ECN mark point")
    .host("DCTCP cutting cwnd on CN arrival, not on the echoed ACK")
    .brief("switch-assisted DCTCP: the congestion signal skips the receiver round-trip")
}
