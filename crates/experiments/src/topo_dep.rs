//! §4.3.3 — topological dependencies: does FlowBender's improvement
//! survive when path diversity quadruples?
//!
//! The paper's argument: ECMP's per-path long-flow count is binomial with
//! mean `R = L/P` and variance `R(1 - 1/P)`; scaling the fabric up scales
//! `L` with `P`, so the imbalance (and hence FlowBender's win) is nearly
//! unchanged — they re-ran all-to-all on a wider fabric and saw "almost
//! the same" improvement. We run the 40 % all-to-all on the paper fabric
//! (8 inter-pod paths) and on the doubled-port-density variant (32 paths)
//! and compare FlowBender/ECMP mean-latency ratios.

use netsim::SimTime;
use stats::{fmt_secs, Table};
use topology::FatTreeParams;
use workloads::Workload;

use crate::cell::{windowed_cell, Cell};
use crate::report::{Opts, Report};
use crate::scenario::{run_fat_tree, sweep_schemes};
use crate::schemes;

/// The two fabrics compared: the paper's and its doubled-port-density
/// variant.
fn fabrics() -> [(&'static str, FatTreeParams); 2] {
    [
        ("paper (P=8)", FatTreeParams::paper()),
        ("wide (P=32)", FatTreeParams::paper_wide()),
    ]
}

/// Run both fabrics × {ECMP, FlowBender}: one row per fabric.
pub fn sweep(opts: &Opts) -> Vec<Vec<Cell>> {
    opts.validate();
    let contenders = [
        schemes::ecmp(),
        schemes::flowbender(flowbender::Config::default()),
    ];
    sweep_schemes(&contenders, &fabrics(), |scheme, (_, params)| {
        let tag = 0x70D ^ params.n_hosts() as u64;
        let (specs, window) = windowed_cell(
            opts,
            params,
            Workload::Websearch,
            0.4,
            SimTime::from_ms(25),
            tag,
        );
        let out = run_fat_tree(*params, scheme, &specs, window.drain_until, opts.seed);
        Cell::of(out, window)
    })
}

/// Produce the report.
pub fn run(opts: &Opts) -> Report {
    let mut table = Table::new(vec!["fabric", "paths", "ECMP mean", "FB mean", "FB/ECMP"]);
    let mut ratios = Vec::new();
    for ((fabric, params), row) in fabrics().iter().zip(sweep(opts)) {
        let (e, f) = (row[0].fct.mean(), row[1].fct.mean());
        ratios.push(f / e);
        table.row(vec![
            fabric.to_string(),
            params.inter_pod_paths().to_string(),
            fmt_secs(e),
            fmt_secs(f),
            format!("{:.3}", f / e),
        ]);
    }
    let mut r = Report::new("topo_dep");
    r.section(
        "§4.3.3: FlowBender improvement vs path diversity (40% all-to-all)",
        table,
    );
    r.note(format!(
        "improvement ratio P=8 vs P=32: {:.3} vs {:.3} (paper: 'almost the same')",
        ratios[0], ratios[1]
    ));
    r.note("theory: per-path long-flow count is Binomial(mean R=L/P, var R(1-1/P)); going P=8->32 changes the variance by <11%");
    r
}

/// The binomial variance argument itself (§4.3.3), as code: relative
/// variance change of the per-path flow count when P grows at constant
/// R = L/P.
pub fn binomial_variance_ratio(p_small: f64, p_large: f64) -> f64 {
    (1.0 - 1.0 / p_large) / (1.0 - 1.0 / p_small)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_variance_claim_checks_out() {
        // "varying P from 8 to 32 would increase the variance by less than
        // 11% only"
        let ratio = binomial_variance_ratio(8.0, 32.0);
        assert!(ratio > 1.0 && ratio - 1.0 < 0.11, "ratio = {ratio}");
    }
}
