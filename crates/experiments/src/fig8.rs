//! Figure 8 — the testbed experiment, simulated: hosts of one ToR send
//! 1 MB flows to random servers at 20/40/60 % of the ToR's uplink
//! capacity; mean, 99th- and 99.9th-percentile completion times of
//! FlowBender normalized to ECMP.
//!
//! Paper's result (real hardware): FlowBender improves p99 by 15–26 % and
//! p99.9 by 34–45 %; at 60 % load flows finish >2× faster on average. Our
//! substrate is the simulator, so per the paper's own §4.3 caveat only the
//! qualitative shape is expected to match (simulation numbers tend to show
//! *larger* wins than the syscall-noise-limited testbed).

use netsim::SimTime;
use stats::{fmt_ratio, fmt_secs, Table};
use topology::TestbedParams;
use workloads::testbed_one_tor;

use crate::cell::Cell;
use crate::report::{Opts, Report};
use crate::scenario::{run_testbed, sweep_schemes, Window};
use crate::schemes::{self, SchemeSpec};

/// Loads from the paper.
pub const LOADS: [f64; 3] = [0.2, 0.4, 0.6];

/// Run the sweep: one row per load, one [`Cell`] per scheme.
pub fn sweep(opts: &Opts, schemes: &[SchemeSpec]) -> Vec<Vec<Cell>> {
    opts.validate();
    let params = TestbedParams::paper();
    let duration = opts.scaled(SimTime::from_ms(800));
    let window = Window::for_duration(duration, SimTime::from_ms(400));

    sweep_schemes(schemes, &LOADS, |scheme, &load| {
        let mut rng = netsim::DetRng::new(opts.seed, 0xF18 ^ (load * 1000.0) as u64);
        let tor0 = 0..params.servers_per_tor[0];
        let specs = testbed_one_tor(
            &params,
            tor0,
            params.n_hosts(),
            load,
            1_000_000,
            duration,
            &mut rng,
        );
        let out = run_testbed(
            params.clone(),
            scheme,
            &specs,
            window.drain_until,
            opts.seed,
            &[],
        );
        Cell::of(out, window)
    })
}

/// Produce the Figure 8 report.
pub fn run(opts: &Opts) -> Report {
    let grid = sweep(
        opts,
        &[
            schemes::ecmp(),
            schemes::flowbender(flowbender::Config::default()),
        ],
    );
    let mut table = Table::new(vec![
        "load",
        "FB mean/ECMP",
        "FB p99/ECMP",
        "FB p99.9/ECMP",
        "ECMP mean",
        "ECMP p99",
        "ECMP p99.9",
        "flows",
    ]);
    for (load, row) in LOADS.iter().zip(&grid) {
        let (e, f) = (&row[0].fct, &row[1].fct);
        table.row(vec![
            format!("{:.0}%", load * 100.0),
            fmt_ratio(f.mean() / e.mean()),
            fmt_ratio(f.quantile(0.99) / e.quantile(0.99)),
            fmt_ratio(f.quantile(0.999) / e.quantile(0.999)),
            fmt_secs(e.mean()),
            fmt_secs(e.quantile(0.99)),
            fmt_secs(e.quantile(0.999)),
            e.n().to_string(),
        ]);
    }
    let mut r = Report::new("fig8");
    r.section(
        "Fig 8: testbed (simulated) 1MB flows from one ToR, FlowBender vs ECMP",
        table,
    );
    r.note("paper (real testbed): p99 15-26% better, p99.9 34-45% better, mean >2x at 60% load");
    r.note("simulation lacks the testbed's host-side noise; expect same shape, stronger ratios");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_load_cells_are_sane() {
        let opts = Opts {
            scale: 0.1,
            seed: 2,
            ..Opts::default()
        };
        let params = TestbedParams::paper();
        let duration = opts.scaled(SimTime::from_ms(800));
        let window = Window::for_duration(duration, SimTime::from_ms(400));
        let mut rng = netsim::DetRng::new(opts.seed, 0xF18);
        let specs = testbed_one_tor(
            &params,
            0..params.servers_per_tor[0],
            params.n_hosts(),
            0.6,
            1_000_000,
            duration,
            &mut rng,
        );
        let out = run_testbed(
            params.clone(),
            &schemes::flowbender(flowbender::Config::default()),
            &specs,
            window.drain_until,
            opts.seed,
            &[],
        );
        let fct = Cell::of(out, window).fct;
        assert!(fct.n() > 50, "too few flows: {}", fct.n());
        let mean = fct.mean();
        // 1MB at 10G is ~0.9ms with stack delays; under load it stretches
        // but must stay well under 100ms.
        assert!(mean > 0.8e-3 && mean < 0.1, "mean = {mean}");
    }
}
