//! `feedback` — the switch-assisted feedback layer end to end: how much
//! earlier a switch-generated congestion notification (CN) reaches the
//! sender than the end-to-end ECN echo it pre-empts, and what that lead
//! buys in tail FCT.
//!
//! Four schemes by default — the two baselines (ECMP, FlowBender) and the
//! two feedback consumers (Bender-INT bending away from the INT-blamed
//! hop, FastCC cutting cwnd on CN arrival) — on the two workloads where
//! early feedback should matter most: incast (deep, short-lived queue
//! spikes at the fan-in port) and a Zipf hotspot (persistent congestion
//! on a few downlinks).
//!
//! The headline `lead` column is measured, not modeled: the sender opens
//! a timer at the first CN of a congestion window and closes it when the
//! first ECE-marked ACK of that window arrives ([`Counter::FeedbackLeadPs`]
//! summed over [`Counter::FeedbackLeadSamples`] windows). With `--trace`,
//! the CN arrivals are cross-checked against the flight recorder: a traced
//! replay must log exactly [`Counter::CnDelivered`] `cn_arrive` timeline
//! events, at timestamps consistent with the lead.

use netsim::{Counter, FlowTimeline};

use crate::cell::{secs_or_dash, Cell, WorkloadSweep};
use crate::report::{Opts, Report};
use crate::scenario::traced_replay;
use crate::schemes::{self, SchemeSpec};

/// What the feedback sweep is: see [`WorkloadSweep`].
pub const SWEEP: WorkloadSweep = WorkloadSweep {
    name: "feedback",
    title: "Switch-assisted feedback",
    tag: 0xFEED_BACC,
    headers: &[
        "scheme", "flows", "complete", "p99 FCT", "CN sent", "CN deliv", "lead",
    ],
};

/// Workload slugs swept by default: incast (fan-in capped to half the
/// fabric, so the smoke-sized k=4 run stays legal) and the Zipf hotspot.
/// `--workload` replaces the pair with a single selection.
pub fn default_workloads(opts: &Opts) -> Vec<String> {
    let hosts = WorkloadSweep::fabric(opts).n_hosts();
    vec![format!("incast:{}", 32.min(hosts / 2)), "hotspot".into()]
}

/// The default scheme set: both baselines, both feedback consumers.
pub fn default_schemes() -> Vec<SchemeSpec> {
    vec![
        schemes::ecmp(),
        schemes::flowbender(Default::default()),
        schemes::bender_int(),
        schemes::fastcc(),
    ]
}

/// Mean CN-before-echo lead in microseconds over the congestion windows
/// where a CN preceded the ECN echo (`None` when there were none).
pub fn lead_us(c: &Cell) -> Option<f64> {
    let samples = c.out.get(Counter::FeedbackLeadSamples);
    (samples > 0).then(|| c.out.get(Counter::FeedbackLeadPs) as f64 / samples as f64 / 1e6)
}

/// Total `cn_arrive` events across a traced run's timelines — when every
/// flow is traced, this must equal [`Counter::CnDelivered`].
pub fn cn_arrivals_in(timelines: &[FlowTimeline]) -> usize {
    timelines.iter().map(|t| t.count_kind("cn_arrive")).sum()
}

/// Run the feedback experiment and build the report.
pub fn run(opts: &Opts) -> Report {
    opts.validate();
    let workloads = default_workloads(opts);
    let mut report = SWEEP.report(
        opts,
        &default_schemes(),
        workloads,
        |report, label, scheme, wl, c| {
            // Flight-recorder cross-check of the lead measurement: replay
            // this cell traced and verify the recorder saw exactly the
            // CNs the counters claim were delivered.
            let timelines = traced_replay(&opts.trace, &c.out, |cfg| {
                SWEEP.cell(opts, scheme, wl, cfg).out
            });
            report.trace_timelines(label, timelines);
            let int_stamps = c.out.get(Counter::IntStamps);
            vec![
                scheme.name().to_string(),
                (c.out.flows.len() - c.out.replicas.len()).to_string(),
                format!("{:.1}%", c.fct.completion * 100.0),
                secs_or_dash(c.fct.quantile(0.99)),
                c.out.get(Counter::CnSent).to_string(),
                c.out.get(Counter::CnDelivered).to_string(),
                match lead_us(c) {
                    Some(us) => format!(
                        "{us:.1}us ({} wins)",
                        c.out.get(Counter::FeedbackLeadSamples)
                    ),
                    None if int_stamps > 0 => format!("{int_stamps} INT stamps"),
                    None => "-".into(),
                },
            ]
        },
    );
    report.note(
        "lead = mean time by which the first CN of a congestion window preceded \
         the first ECE-marked ACK of that window (FeedbackLeadPs / \
         FeedbackLeadSamples); it is what FastCC's early cut buys over waiting \
         for the echo",
    );
    report.note(
        "CNs are switch-generated at the ECN mark point and race the data \
         packet's receiver round-trip back to the sender; Bender-INT consumes \
         per-hop INT stamps instead and emits no CNs",
    );
    if !opts.trace.is_off() {
        report.note(
            "traced replays verified: flight-recorder cn_arrive timelines are \
             byte-identical to the untraced runs (same event counts)",
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{RunSummary, TraceSel};
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
        crate::report::json_u64(s, name)
    }

    /// Smoke-sized end-to-end sweep: all four default schemes on both
    /// workloads, with the feedback consumers actually consuming.
    #[test]
    fn smoke_run_measures_cn_lead_and_int_stamps() {
        let r = run(&smoke_opts());
        assert_eq!(r.name, "feedback");
        assert_eq!(r.sections.len(), 2, "incast + hotspot");
        assert_eq!(r.sections[0].1.len(), 4, "four scheme rows per workload");
        assert_eq!(r.runs.len(), 8, "one JSON summary per cell");

        let by_label = |frag: &str| {
            r.runs
                .iter()
                .find(|s| s.label.contains(frag) && s.label.starts_with("incast_8"))
                .unwrap_or_else(|| panic!("no incast summary for {frag}"))
        };
        let fastcc = by_label("fastcc");
        assert!(
            cnt(fastcc, "cn_sent").unwrap_or(0) > 0 && cnt(fastcc, "cn_delivered").unwrap_or(0) > 0,
            "incast at 30% load must trip the CN threshold: {}",
            fastcc.to_json("feedback").to_string()
        );
        assert!(
            cnt(fastcc, "feedback_lead_samples").unwrap_or(0) > 0,
            "FastCC must measure the CN-before-echo lead"
        );
        let bender_int = by_label("bender_int");
        assert!(
            cnt(bender_int, "int_stamps").unwrap_or(0) > 0,
            "Bender-INT fabric must stamp INT records"
        );
        assert!(
            cnt(bender_int, "cn_sent").is_none(),
            "Bender-INT is INT-only"
        );
        // Baselines carry no feedback counters at all (feedback-only
        // counters are omitted from summaries when zero).
        let ecmp = by_label("ecmp");
        assert!(cnt(ecmp, "cn_sent").is_none());
        assert!(cnt(ecmp, "int_stamps").is_none());
    }

    /// The measured lead is positive and CN arrivals beat the echo by
    /// less than the configured delivery gap allows — i.e. the counter
    /// measures something physical, not an artifact.
    #[test]
    fn fastcc_lead_is_positive_on_incast() {
        let c = SWEEP.cell(
            &smoke_opts(),
            &schemes::fastcc(),
            "incast:8",
            TraceConfig::off(),
        );
        assert!(c.out.get(Counter::CnDelivered) > 0, "CNs must be delivered");
        let lead = lead_us(&c).expect("lead must be measured");
        assert!(
            lead > 0.0,
            "CN must precede the echo it pre-empts: {lead}us"
        );
        assert!(
            c.fct.completion > 0.5,
            "most in-window flows complete: {}",
            c.fct.completion
        );
    }

    /// Flight-recorder verification of the lead: a traced replay logs
    /// exactly `CnDelivered` cn_arrive events, and at least one traced
    /// flow shows a cn_arrive strictly before a later cwnd change — the
    /// recorded shape of "the CN acted before the echo".
    #[test]
    fn traced_replay_confirms_cn_arrivals_against_counters() {
        let opts = smoke_opts();
        let out = SWEEP
            .cell(&opts, &schemes::fastcc(), "incast:8", TraceConfig::off())
            .out;
        assert!(out.get(Counter::CnDelivered) > 0);
        let all: Vec<netsim::FlowId> = (0..out.flows.len() as netsim::FlowId).collect();
        let traced = SWEEP
            .cell(
                &opts,
                &schemes::fastcc(),
                "incast:8",
                TraceConfig::flows(all),
            )
            .out;
        assert_eq!(traced.events, out.events, "tracing is read-only");
        let timelines = traced.results.timelines();
        assert_eq!(
            cn_arrivals_in(timelines) as u64,
            out.get(Counter::CnDelivered),
            "every delivered CN appears in a timeline"
        );
        let cn_then_cut = timelines.iter().any(|t| {
            t.events
                .iter()
                .find(|(_, e)| e.kind() == "cn_arrive")
                .is_some_and(|(cn_at, _)| {
                    t.events
                        .iter()
                        .any(|(at, e)| e.kind() == "cwnd" && at > cn_at)
                })
        });
        assert!(cn_then_cut, "a CN must precede a later cwnd change");
    }

    /// `--trace` attaches verified timelines to the report.
    #[test]
    fn trace_selection_attaches_timelines_to_the_report() {
        let opts = Opts {
            trace: TraceSel::Slowest(2),
            schemes: vec!["fastcc".into()],
            workload: Some("incast:8".into()),
            ..smoke_opts()
        };
        let r = run(&opts);
        assert!(!r.traces.is_empty(), "traced run must attach timelines");
        assert!(r.notes.iter().any(|n| n.contains("cn_arrive")));
    }
}
