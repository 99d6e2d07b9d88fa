//! Substrate sensitivity — switch buffer depth: the one knob that
//! separates this reproduction's magnitudes from the paper's.
//!
//! EXPERIMENTS.md claims that with shallow buffers the ECMP-vs-adaptive
//! gap widens toward the paper's headline numbers because ECMP collisions
//! start costing drops and 10 ms RTO tails. This experiment makes that
//! claim regenerable: the 60 % all-to-all workload under ECMP, FlowBender,
//! and RPS at three per-port buffer depths.

use netsim::{Counter, QueueSpec, SimTime};
use stats::{fmt_ratio, fmt_secs, Table};
use topology::FatTreeParams;
use workloads::Workload;

use crate::cell::{windowed_cell, Cell};
use crate::report::{Opts, Report};
use crate::scenario::{run_fat_tree, sweep_schemes};
use crate::schemes::Scheme;

/// Evaluated per-port buffer capacities (bytes).
pub const CAPACITIES: [u64; 3] = [150_000, 400_000, 2 * 1024 * 1024];

/// The compared schemes, ECMP (the baseline) first.
fn contenders() -> Vec<Scheme> {
    vec![
        Scheme::Ecmp,
        Scheme::FlowBender(flowbender::Config::default()),
        Scheme::Rps,
    ]
}

/// Run the sweep: one row per capacity, one [`Cell`] per contender.
pub fn sweep(opts: &Opts) -> Vec<Vec<Cell>> {
    opts.validate();
    sweep_schemes(&contenders(), &CAPACITIES, |scheme, &capacity| {
        let mut params = FatTreeParams::paper();
        params.fabric_queue = QueueSpec {
            capacity,
            mark_threshold: 90_000,
        };
        let (specs, window) = windowed_cell(
            opts,
            &params,
            Workload::Websearch,
            0.6,
            SimTime::from_ms(60),
            0xB0FF,
        );
        let out = run_fat_tree(params, scheme, &specs, window.drain_until, opts.seed);
        Cell::of(out, window)
    })
}

/// Produce the report.
pub fn run(opts: &Opts) -> Report {
    let mut table = Table::new(vec![
        "buffer/port",
        "scheme",
        "mean",
        "p99",
        "mean vs ECMP",
        "p99 vs ECMP",
        "drops",
        "RTOs",
        "compl",
    ]);
    for (capacity, row) in CAPACITIES.iter().zip(sweep(opts)) {
        let ecmp = &row[0].fct;
        for (scheme, c) in contenders().iter().zip(&row) {
            table.row(vec![
                format!("{}KB", capacity / 1000),
                scheme.name().to_string(),
                fmt_secs(c.fct.mean()),
                fmt_secs(c.fct.quantile(0.99)),
                fmt_ratio(c.fct.mean() / ecmp.mean()),
                fmt_ratio(c.fct.quantile(0.99) / ecmp.quantile(0.99)),
                c.out.get(Counter::QueueDrops).to_string(),
                c.out.get(Counter::Timeouts).to_string(),
                format!("{:.3}", c.fct.completion),
            ]);
        }
    }
    let mut r = Report::new("buffers");
    r.section(
        "Substrate sensitivity: per-port buffer depth at 60% all-to-all load",
        table,
    );
    r.note("claim under test: shallow buffers turn ECMP collisions into drops + RTO tails, widening the adaptive schemes' advantage toward the paper's magnitudes");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shallow_buffers_drop_and_deep_buffers_do_not() {
        let opts = Opts {
            scale: 0.04,
            seed: 2,
            ..Opts::default()
        };
        let grid = sweep(&opts);
        let (ecmp_shallow, ecmp_deep) = (&grid[0][0].out, &grid[2][0].out);
        assert!(
            ecmp_shallow.get(Counter::QueueDrops) > 0,
            "150KB buffers must overflow at 60% load"
        );
        assert_eq!(
            ecmp_deep.get(Counter::QueueDrops),
            0,
            "2MB buffers should absorb 60% load"
        );
        // Everything still completes (retransmission works).
        for (capacity, row) in CAPACITIES.iter().zip(&grid) {
            for (scheme, c) in contenders().iter().zip(row) {
                assert!(
                    c.fct.completion > 0.99,
                    "{} at {}: {}",
                    scheme.name(),
                    capacity,
                    c.fct.completion
                );
            }
        }
    }
}
