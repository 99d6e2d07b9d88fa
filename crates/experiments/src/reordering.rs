//! `reordering` — the cost of packet spraying, made visible: what each
//! load-balancing locus does to packet order, and what disorder costs the
//! transport.
//!
//! Six schemes spanning the three routing loci: flow-level (ECMP,
//! FlowBender), packet-level (RPS, DeTail), and flowcut-level — host-side
//! gap switching (`Flowcut`) and switch-side flowcut switching
//! (`Flowcut-SW`, after Bonato et al.), where the fabric re-routes
//! adaptively but only at instants where the flow's in-flight data has
//! provably drained, so delivery stays in order.
//!
//! The metric suite is the receiver's and sender's own accounting, not a
//! model: out-of-order arrivals ([`Counter::OooPktsRcvd`]), duplicate wire
//! bytes ([`Counter::DupBytes`]), the reassembly buffer's high-water mark
//! ([`Counter::OooBytesMax`]), and the sender's
//! misfires — spurious fast retransmits proven by DSACKs
//! ([`Counter::SpuriousRetransmits`]) and the cwnd undos they trigger
//! ([`Counter::DsackUndos`]). For the flowcut fabric the pin/boundary
//! counters ([`Counter::FlowcutPinned`], [`Counter::FlowcutReroutes`])
//! show how often re-routing actually happened.

use netsim::{Counter, SimTime};

use crate::cell::{secs_or_dash, WorkloadSweep};
use crate::report::{Opts, Report};
use crate::schemes::{self, SchemeSpec};

/// What the reordering sweep is: see [`WorkloadSweep`].
pub const SWEEP: WorkloadSweep = WorkloadSweep {
    name: "reordering",
    title: "Reordering cost by routing locus",
    tag: 0x00DD_BA11,
    headers: &[
        "scheme",
        "complete",
        "p99 FCT",
        "ooo pkts",
        "spurious rtx",
        "dsack undos",
        "dup bytes",
        "ooo buf max",
        "fc reroutes",
    ],
};

/// Workload slugs swept by default.
pub fn default_workloads() -> Vec<String> {
    vec!["websearch".into(), "hotspot".into()]
}

/// The default scheme set: the three routing loci, two schemes each.
pub fn default_schemes() -> Vec<SchemeSpec> {
    vec![
        schemes::ecmp(),
        schemes::flowbender(Default::default()),
        schemes::rps(),
        schemes::detail(),
        schemes::flowcut(SimTime::from_us(100)),
        schemes::flowcut_sw(SimTime::from_us(100)),
    ]
}

/// Run the reordering experiment and build the report.
pub fn run(opts: &Opts) -> Report {
    let mut report = SWEEP.report(
        opts,
        &default_schemes(),
        default_workloads(),
        |_, _, scheme, _, c| {
            let get = |counter| c.out.get(counter);
            vec![
                scheme.name().to_string(),
                format!("{:.1}%", c.fct.completion * 100.0),
                secs_or_dash(c.fct.quantile(0.99)),
                match (get(Counter::OooPktsRcvd), get(Counter::DataPktsRcvd)) {
                    (_, 0) => "-".to_string(),
                    (n, data) => format!("{n} ({:.2}%)", n as f64 * 100.0 / data as f64),
                },
                get(Counter::SpuriousRetransmits).to_string(),
                get(Counter::DsackUndos).to_string(),
                get(Counter::DupBytes).to_string(),
                get(Counter::OooBytesMax).to_string(),
                match get(Counter::FlowcutReroutes) {
                    0 => "-".into(),
                    n => n.to_string(),
                },
            ]
        },
    );
    report.note(
        "ooo pkts = packets arriving after a later sequence was already seen \
         (receiver accounting, % of data received); spurious rtx = fast \
         retransmits the receiver proved unnecessary via DSACK; dup bytes = \
         wire bytes delivered twice; ooo buf max = peak bytes parked in a \
         reassembly buffer",
    );
    report.note(
        "Flowcut-SW re-routes only at boundaries where the flow's in-flight \
         data has drained (idle gap > 100us, pinned port held while \
         uncongested), so delivery is in order whenever the gap exceeds the \
         fabric's residual queueing skew — exactly zero ooo on uncongested \
         paths, orders of magnitude below RPS/DeTail when a congested queue \
         outlives the gap, and zero spurious retransmits either way",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::RunSummary;
    use netsim::TraceConfig;

    fn smoke_opts() -> Opts {
        Opts {
            seed: 7,
            topo_k: Some(4),
            smoke: true,
            ..Opts::default()
        }
    }

    fn cnt(s: &RunSummary, name: &str) -> Option<u64> {
        s.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The acceptance table of the experiment: packet-level spraying shows
    /// its reordering bill, switch flowcuts deliver fully in order in the
    /// same table.
    #[test]
    fn spraying_reorders_and_switch_flowcuts_do_not() {
        let r = run(&smoke_opts());
        assert_eq!(r.name, "reordering");
        assert_eq!(r.sections.len(), 2, "websearch + hotspot");
        assert_eq!(r.sections[0].1.len(), 6, "six scheme rows per workload");
        assert_eq!(r.runs.len(), 12, "one JSON summary per cell");

        let by_label = |frag: &str| {
            r.runs
                .iter()
                .find(|s| s.label.starts_with("websearch") && s.label.contains(frag))
                .unwrap_or_else(|| panic!("no websearch summary for {frag}"))
        };
        let rps = by_label("_rps_");
        assert!(
            cnt(rps, "ooo_pkts_rcvd").unwrap_or(0) > 0,
            "RPS must reorder: {:?}",
            rps.counters
        );
        let flowcut_sw = by_label("flowcut_sw");
        assert_eq!(
            cnt(flowcut_sw, "ooo_pkts_rcvd").unwrap_or(0),
            0,
            "switch flowcuts must deliver in order: {:?}",
            flowcut_sw.counters
        );
        assert!(
            cnt(flowcut_sw, "spurious_retransmits").is_none(),
            "in-order delivery cannot produce spurious retransmits \
             (zero-valued reordering metrics are omitted): {:?}",
            flowcut_sw.counters
        );
        assert!(
            cnt(flowcut_sw, "flowcut_pinned").unwrap_or(0) > 0,
            "the flowcut fabric must actually pin flows: {:?}",
            flowcut_sw.counters
        );
        // ECMP never moves a flow, so its summary carries no reordering
        // metrics at all (omitted while zero) — the pre-PR layout.
        let ecmp = by_label("_ecmp_");
        assert!(cnt(ecmp, "spurious_retransmits").is_none());
        assert!(cnt(ecmp, "dup_bytes").is_none());
        assert!(cnt(ecmp, "flowcut_reroutes").is_none());
    }

    /// RPS under the default dupack threshold misfires, and the misfires
    /// are the DSACK-accounted kind: every undo needs a spurious
    /// retransmit, and duplicate bytes back the story.
    #[test]
    fn rps_misfires_are_dsack_accounted() {
        let out = SWEEP
            .cell(
                &smoke_opts(),
                &schemes::rps(),
                "websearch",
                TraceConfig::off(),
            )
            .out;
        assert!(out.get(Counter::OooPktsRcvd) > 0, "RPS must reorder");
        assert!(
            out.get(Counter::SpuriousRetransmits) >= out.get(Counter::DsackUndos),
            "each undo is proven by at least one spurious retransmit"
        );
        assert!(
            out.get(Counter::OooBytesMax) > 0,
            "reordering must park bytes in the reassembly buffer"
        );
    }
}
