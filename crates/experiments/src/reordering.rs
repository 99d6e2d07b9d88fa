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

use netsim::{Counter, DetRng, SimTime, TraceConfig};
use stats::Table;
use topology::FatTreeParams;

use crate::cell::{kary_fabric, kary_window, secs_or_dash, Cell};
use crate::report::{Opts, Report, RunSummary};
use crate::scenario::{sweep_schemes, traced_replay, Run};
use crate::schemes::Scheme;

/// Offered load (fraction of edge bandwidth): enough congestion to
/// exercise the schemes, not enough to collapse the fabric.
const LOAD: f64 = 0.3;

/// RNG stream tag of the workload generators.
const TAG: u64 = 0x00DD_BA11;

/// Workload slugs swept by default.
pub fn default_workloads() -> Vec<String> {
    vec!["websearch".into(), "hotspot".into()]
}

/// The default scheme set: the three routing loci, two schemes each.
pub fn default_schemes() -> Vec<Scheme> {
    let gap = SimTime::from_us(100);
    vec![
        Scheme::Ecmp,
        Scheme::FlowBender(Default::default()),
        Scheme::Rps,
        Scheme::DeTail,
        Scheme::Flowcut(gap),
        Scheme::FlowcutSw(gap),
    ]
}

/// The fabric this experiment builds: a k=8 fat-tree (k=4 under
/// `--smoke`).
pub fn fabric(opts: &Opts) -> FatTreeParams {
    kary_fabric(opts, 8)
}

/// Run one (scheme, workload) cell with the flight recorder on for the
/// flows `trace` selects. The flow list is deterministic in
/// `(seed, slug)`, independent of scheme.
fn cell(opts: &Opts, scheme: &Scheme, wl_slug: &str, trace: TraceConfig) -> Cell {
    let params = fabric(opts);
    // Generous drain: flows arriving late in the window still need to
    // finish for the completion column to mean anything.
    let window = kary_window(
        opts,
        SimTime::from_ms(2),
        SimTime::from_us(400),
        SimTime::from_ms(20),
    );
    let wl = workloads::find(wl_slug).unwrap_or_else(|| panic!("unknown workload `{wl_slug}`"));
    let mut rng = DetRng::new(opts.seed, TAG);
    let specs = wl.generate(&params, LOAD, window.end, &mut rng);
    let out = Run::new(params, scheme, &specs, window.drain_until, opts.seed)
        .trace(trace)
        .run();
    Cell::of(out, window)
}

/// Run the reordering experiment and build the report: the `--scheme`
/// selection over the `--workload` selection, one section per workload,
/// one table row and one JSON run summary per cell, and with `--trace`
/// one traced replay per cell.
pub fn run(opts: &Opts) -> Report {
    opts.validate();
    let params = fabric(opts);
    let selection = opts.scheme_selection(&default_schemes());
    let wl_slugs = opts
        .workload
        .clone()
        .map_or_else(default_workloads, |w| vec![w]);
    let grid = sweep_schemes(&selection, &wl_slugs, |scheme, wl| {
        let c = cell(opts, scheme, wl, TraceConfig::off());
        let timelines = traced_replay(&opts.trace, &c.out, |cfg| cell(opts, scheme, wl, cfg).out);
        (c, timelines)
    });

    let mut report = Report::new("reordering");
    for (wl_slug, cells) in wl_slugs.iter().zip(grid) {
        let wl = workloads::find(wl_slug).expect("resolved by cell()");
        let mut table = Table::new(vec![
            "scheme",
            "complete",
            "p99 FCT",
            "ooo pkts",
            "spurious rtx",
            "dsack undos",
            "dup bytes",
            "ooo buf max",
            "fc reroutes",
        ]);
        for (scheme, (c, timelines)) in selection.iter().zip(cells) {
            let label = format!("{}_{}_seed{}", wl.slug(), scheme.slug(), opts.seed);
            report.trace_timelines(&label, timelines);
            let get = |counter| c.out.get(counter);
            table.row(vec![
                scheme.name(),
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
            ]);
            report.run_summary(RunSummary::from_run(
                label,
                scheme.name(),
                opts,
                opts.seed,
                &c.out,
            ));
        }
        report.section(
            format!(
                "Reordering cost by routing locus on {}: k={} fat-tree ({} hosts) at {:.0}% load",
                wl.name(),
                params.pods,
                params.n_hosts(),
                LOAD * 100.0
            ),
            table,
        );
    }
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
    use crate::report::TraceSel;

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
            "RPS must reorder: {}",
            rps.to_json("reordering").to_string()
        );
        let flowcut_sw = by_label("flowcut_sw");
        assert_eq!(
            cnt(flowcut_sw, "ooo_pkts_rcvd").unwrap_or(0),
            0,
            "switch flowcuts must deliver in order: {}",
            flowcut_sw.to_json("reordering").to_string()
        );
        assert!(
            cnt(flowcut_sw, "spurious_retransmits").is_none(),
            "in-order delivery cannot produce spurious retransmits \
             (zero-valued reordering metrics are omitted): {}",
            flowcut_sw.to_json("reordering").to_string()
        );
        assert!(
            cnt(flowcut_sw, "flowcut_pinned").unwrap_or(0) > 0,
            "the flowcut fabric must actually pin flows: {}",
            flowcut_sw.to_json("reordering").to_string()
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
        let out = cell(&smoke_opts(), &Scheme::Rps, "websearch", TraceConfig::off()).out;
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

    /// `--trace` replays each cell with the flight recorder on and
    /// attaches the timelines under the cell's run label; the tables and
    /// run summaries stay the untraced run's, byte for byte.
    #[test]
    fn trace_selection_attaches_timelines_to_the_report() {
        let plain = Opts {
            schemes: vec!["flowcut-sw".into()],
            workload: Some("incast:8".into()),
            ..smoke_opts()
        };
        let traced = Opts {
            trace: TraceSel::Slowest(2),
            ..plain.clone()
        };
        let (a, b) = (run(&plain), run(&traced));
        assert!(a.traces.is_empty());
        assert_eq!(b.traces.len(), 2, "slowest=2 on the one cell");
        assert!(b.traces.iter().all(|(label, _)| *label == b.runs[0].label));
        let tables = |r: &Report| -> Vec<String> {
            r.sections
                .iter()
                .map(|(title, t)| format!("{title}\n{}", t.render()))
                .collect()
        };
        assert_eq!(tables(&a), tables(&b));
        let json = |r: &Report| -> Vec<String> {
            r.runs
                .iter()
                .map(|s| s.to_json("reordering").to_string())
                .collect()
        };
        assert_eq!(json(&a), json(&b));
    }
}
