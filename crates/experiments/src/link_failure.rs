//! §1/§3.3.2 claim — failure recovery "essentially within an RTO":
//! FlowBender treats a retransmission timeout as the failure signal and
//! rehashes immediately, so a flow whose path dies resumes within ~RTO
//! (10 ms) instead of waiting O(seconds) for routing to reconverge (which,
//! in these runs, never happens at all).
//!
//! Setup: long ToR-to-ToR flows across pods on the paper fat-tree; at
//! t = 5 ms one agg→core link in the source pod fails. ECMP flows whose
//! hash lands on the dead link black-hole forever; FlowBender flows take
//! one RTO, bend, and finish.

use netsim::{SimTime, TraceConfig};
use stats::{fmt_secs, Table};

use crate::cell::{failure_cells, faulted_microbench, Cell};
use crate::report::{Opts, Report};
use crate::scenario::parallel_map;
use crate::schemes::{self, SchemeSpec};

/// Run the failure experiment for one scheme: the
/// [`faulted_microbench`] with both directions of the uplink dying at
/// `fail_at` — packets already hashed onto it black-hole.
pub fn run_scheme(scheme: &SchemeSpec, bytes: u64, fail_at: SimTime, seed: u64) -> Cell {
    let kill = |plan: &mut netsim::FaultPlan, node, port| {
        plan.kill(node, port, fail_at);
    };
    faulted_microbench(scheme, bytes, seed, TraceConfig::off(), &kill)
}

/// Produce the report.
pub fn run(opts: &Opts) -> Report {
    opts.validate();
    let bytes = (10_000_000.0 * opts.scale) as u64;
    let fail_at = SimTime::from_ms(5);
    let contenders = vec![
        schemes::ecmp(),
        schemes::flowbender(flowbender::Config::default()),
    ];
    let results = parallel_map(contenders, |s| {
        let c = run_scheme(&s, bytes, fail_at, opts.seed);
        (s, c)
    });

    let mut table = Table::new(vec![
        "scheme",
        "completed",
        "timeouts",
        "timeout reroutes",
        "max FCT",
    ]);
    for (scheme, c) in &results {
        let mut row = vec![scheme.name().to_string()];
        row.extend(failure_cells(c));
        table.row(row);
    }
    let mut rep = Report::new("link_failure");
    rep.section(
        format!(
            "Link failure at {}: agg0->core0 in the source pod dies under 16 cross-pod flows",
            fmt_secs(fail_at.as_secs_f64())
        ),
        table,
    );
    rep.note("paper claim: FlowBender recovers within ~an RTO (10ms); ECMP flows on the dead path stall until routing reconverges (never, here)");
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Counter;

    #[test]
    fn flowbender_survives_failure_ecmp_strands_flows() {
        let bytes = 3_000_000;
        let ecmp = run_scheme(&schemes::ecmp(), bytes, SimTime::from_ms(2), 21);
        let fb = run_scheme(
            &schemes::flowbender(flowbender::Config::default()),
            bytes,
            SimTime::from_ms(2),
            21,
        );
        assert_eq!(
            fb.fct.n(),
            fb.out.flows.len(),
            "FlowBender must complete all flows"
        );
        assert!(
            fb.out.get(Counter::TimeoutReroutes) > 0,
            "recovery must go through timeout reroutes"
        );
        assert!(
            ecmp.fct.n() < ecmp.out.flows.len(),
            "ECMP should strand the flows hashed onto the dead path"
        );
        // Recovery is RTO-scale: with a 10ms RTO floor the whole 3MB flow
        // set still finishes far faster than any routing reconvergence.
        assert!(fb.fct.max() < 5.0, "max fct = {}", fb.fct.max());
    }
}
