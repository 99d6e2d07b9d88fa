//! Extension — the paper's failure argument (§1/§3.3.2) under a *gray*
//! failure: a link that is nominally up but silently dropping a fraction
//! of the packets crossing it (a flaky transceiver, a corrupting optic).
//!
//! Routing never reacts — the link reports healthy — so ECMP keeps
//! hashing the same unlucky flows onto it, and every retransmission
//! takes the same lossy path: their FCTs become timeout-dominated or the
//! flows stall outright. FlowBender sees the very same timeouts, treats
//! them as its failure signal, and bends the flow onto a clean path.
//!
//! Setup: 16 cross-pod flows on the paper fat-tree; one agg→core uplink
//! in the source pod drops packets with probability `loss` from t = 0
//! (via [`netsim::FaultPlan::gray_loss`]). We sweep `loss` over
//! {0.5%, 1%, 2%, 4%} for ECMP and FlowBender. Drop-reason audits in the
//! JSON summaries localize the gray loss to the faulted egress.

use netsim::{DropReason, SimTime, TraceConfig};
use stats::Table;

use crate::cell::{failure_cells, faulted_microbench, Cell};
use crate::report::{Opts, Report, RunSummary};
use crate::scenario::{sweep_schemes, traced_replay};
use crate::schemes::Scheme;

/// The loss rates swept by the committed experiment.
pub const LOSS_RATES: [f64; 4] = [0.005, 0.01, 0.02, 0.04];

/// Run one scheme against one gray-loss rate: the
/// [`faulted_microbench`] with the uplink silently losing packets with
/// probability `loss` from the start. Apart from the timelines in
/// `out.results.timelines()`, a traced run's output is byte-identical to
/// the untraced run at the same seed.
pub fn run_scheme(scheme: &Scheme, loss: f64, bytes: u64, seed: u64, trace: TraceConfig) -> Cell {
    faulted_microbench(scheme, bytes, seed, trace, &|plan, node, port| {
        plan.gray_loss(node, port, loss, SimTime::ZERO);
    })
}

/// Packets the gray link silently ate.
pub fn gray_drops(c: &Cell) -> u64 {
    c.out.drops().by_reason(DropReason::GrayLoss)
}

/// Produce the report: the sweep table plus one JSON run summary per
/// `(scheme, loss)` cell (each carrying its per-port drop audit).
pub fn run(opts: &Opts) -> Report {
    opts.validate();
    let bytes = (10_000_000.0 * opts.scale) as u64;
    let contenders = [
        Scheme::Ecmp,
        Scheme::FlowBender(flowbender::Config::default()),
    ];
    let grid = sweep_schemes(&contenders, &LOSS_RATES, |scheme, &loss| {
        let cell = |trace| run_scheme(scheme, loss, bytes, opts.seed, trace);
        let c = cell(TraceConfig::off());
        let timelines = traced_replay(&opts.trace, &c.out, |cfg| cell(cfg).out);
        (c, timelines)
    });

    let mut table = Table::new(vec![
        "loss",
        "scheme",
        "completed",
        "timeouts",
        "timeout reroutes",
        "gray drops",
        "max FCT",
    ]);
    let mut rep = Report::new("gray_failure");
    for (loss, row) in LOSS_RATES.iter().zip(grid) {
        for (scheme, (c, timelines)) in contenders.iter().zip(row) {
            let [completed, timeouts, timeout_reroutes, max_fct] = failure_cells(&c);
            table.row(vec![
                format!("{:.1}%", loss * 100.0),
                scheme.name().to_string(),
                completed,
                timeouts,
                timeout_reroutes,
                gray_drops(&c).to_string(),
                max_fct,
            ]);
            let label = format!(
                "{}_pm{}",
                scheme.name().to_lowercase(),
                (loss * 1000.0).round() as u32
            );
            rep.run_summary(RunSummary::from_run(
                label.clone(),
                scheme.name(),
                opts,
                opts.seed,
                &c.out,
            ));
            rep.trace_timelines(label, timelines);
        }
    }
    rep.section(
        "Gray failure: one agg->core uplink silently drops packets under 16 cross-pod flows",
        table,
    );
    rep.note("the link stays 'up', so routing never reconverges: ECMP flows hashed onto it retransmit into the same loss and go timeout-dominated (or stall); FlowBender bends off after the first RTO");
    rep.note("gray drops localize to the faulted egress in each run's JSON drop audit");
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Counter;

    fn plain(scheme: &Scheme, loss: f64, bytes: u64, seed: u64) -> Cell {
        run_scheme(scheme, loss, bytes, seed, TraceConfig::off())
    }

    #[test]
    fn flowbender_escapes_gray_link_ecmp_suffers() {
        let bytes = 3_000_000;
        let loss = 0.04;
        let ecmp = plain(&Scheme::Ecmp, loss, bytes, 11);
        let fb = plain(
            &Scheme::FlowBender(flowbender::Config::default()),
            loss,
            bytes,
            11,
        );
        let ecmp_out = &ecmp.out;
        assert!(gray_drops(&ecmp) > 0, "the gray link must actually drop");
        assert_eq!(
            fb.fct.n(),
            fb.out.flows.len(),
            "FlowBender must complete all flows"
        );
        assert!(
            fb.out.get(Counter::TimeoutReroutes) > 0,
            "escape must go through timeout reroutes"
        );
        // ECMP either strands flows on the lossy path or limps home
        // timeout-dominated: >= 5x FlowBender's worst FCT.
        assert!(
            ecmp.fct.n() < ecmp_out.flows.len() || ecmp.fct.max() >= 5.0 * fb.fct.max(),
            "ECMP should stall or be >=5x slower: ecmp {}/{} max {}s vs fb max {}s",
            ecmp.fct.n(),
            ecmp_out.flows.len(),
            ecmp.fct.max(),
            fb.fct.max()
        );
        // The audit pins every gray drop to the one faulted egress.
        let rows = ecmp_out.drops().per_port();
        let gray_rows: Vec<_> = rows
            .iter()
            .filter(|(_, c)| c[DropReason::GrayLoss as usize] > 0)
            .collect();
        assert_eq!(gray_rows.len(), 1, "gray loss localized to one port");
        assert!(ecmp_out.conservation.holds());
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let bytes = 500_000;
        let a = plain(&Scheme::Ecmp, 0.01, bytes, 7);
        let b = plain(&Scheme::Ecmp, 0.01, bytes, 7);
        assert!(gray_drops(&a) > 0, "the gray link drops");
        assert!(a.out.conservation.holds());
        assert_eq!(gray_drops(&a), gray_drops(&b));
        assert_eq!(a.out.get(Counter::Timeouts), b.out.get(Counter::Timeouts));
        assert_eq!(a.fct.max().to_bits(), b.fct.max().to_bits());
        assert_eq!(a.out.events, b.out.events);
        assert_eq!(a.out.conservation, b.out.conservation);
    }
}
