//! Extension — FlowBender vs flowlet switching (LetFlow-style), the other
//! major "adaptive without custom silicon" family that emerged alongside
//! FlowBender (CONGA SIGCOMM'14, LetFlow NSDI'17).
//!
//! Flowlet switches re-draw a flow's path during idle gaps; FlowBender
//! re-draws from end-host congestion signals. Both avoid the sustained
//! reordering of per-packet schemes. The comparison runs the 40/60 %
//! all-to-all plus the Table-1 microbenchmark, with flowlet gaps swept
//! around the fabric RTT.

use netsim::SimTime;
use stats::{fmt_ratio, fmt_secs, Table};
use topology::FatTreeParams;
use workloads::{microbench, Workload};

use crate::cell::{windowed_cell, Cell};
use crate::report::{Opts, Report};
use crate::scenario::{parallel_map, run_fat_tree, sweep_schemes, Window};
use crate::schemes::{self, SchemeSpec};

/// Flowlet inactivity gaps evaluated (around the ~90 µs fabric RTT).
pub const GAPS_US: [u64; 3] = [50, 100, 500];

/// Evaluated all-to-all loads.
pub const LOADS: [f64; 2] = [0.4, 0.6];

/// The compared schemes, ECMP (the baseline) first.
fn contenders() -> Vec<SchemeSpec> {
    let mut v = vec![
        schemes::ecmp(),
        schemes::flowbender(flowbender::Config::default()),
    ];
    for gap in GAPS_US {
        v.push(schemes::flowlet(SimTime::from_us(gap)));
    }
    v
}

/// Run the all-to-all comparison: one row per load, one [`Cell`] per
/// contender.
pub fn sweep(opts: &Opts) -> Vec<Vec<Cell>> {
    opts.validate();
    let params = FatTreeParams::paper();
    sweep_schemes(&contenders(), &LOADS, |scheme, &load| {
        let tag = 0xF10E ^ (load * 1000.0) as u64;
        let (specs, window) = windowed_cell(
            opts,
            &params,
            Workload::Websearch,
            load,
            SimTime::from_ms(60),
            tag,
        );
        let out = run_fat_tree(params, scheme, &specs, window.drain_until, opts.seed);
        Cell::of(out, window)
    })
}

/// Produce the report (all-to-all table plus a microbenchmark shootout).
pub fn run(opts: &Opts) -> Report {
    let mut table = Table::new(vec![
        "load",
        "scheme",
        "mean vs ECMP",
        "p99 vs ECMP",
        "ooo %",
    ]);
    for (load, row) in LOADS.iter().zip(sweep(opts)) {
        let ecmp = &row[0].fct;
        for (scheme, c) in contenders().iter().zip(&row) {
            table.row(vec![
                format!("{:.0}%", load * 100.0),
                scheme.name().to_string(),
                fmt_ratio(c.fct.mean() / ecmp.mean()),
                fmt_ratio(c.fct.quantile(0.99) / ecmp.quantile(0.99)),
                format!("{:.3}%", c.out.ooo_frac() * 100.0),
            ]);
        }
    }

    // Microbenchmark shootout: 16 x scaled flows, one number per scheme.
    let bytes = (10_000_000.0 * opts.scale) as u64;
    let micro = parallel_map(contenders(), |scheme| {
        let params = FatTreeParams::paper();
        let specs = microbench(&params, 16, bytes);
        let out = run_fat_tree(params, &scheme, &specs, SimTime::from_secs(120), opts.seed);
        (scheme, Cell::of(out, Window::WHOLE_RUN).fct)
    });
    let mut mtable = Table::new(vec!["scheme", "mean FCT", "max FCT"]);
    for (scheme, fct) in &micro {
        mtable.row(vec![
            scheme.name().to_string(),
            fmt_secs(fct.mean()),
            fmt_secs(fct.max()),
        ]);
    }

    let mut r = Report::new("flowlet");
    r.section(
        "Extension: FlowBender vs flowlet switching, all-to-all",
        table,
    );
    r.section(
        format!(
            "Extension: 16 x {} MB ToR-to-ToR microbenchmark",
            bytes / 1_000_000
        ),
        mtable,
    );
    r.note("small gaps (~RTT/2) rival FlowBender with even less reordering; large gaps degrade to ECMP — DCTCP's ack-clocked windows leave just enough idle gaps for flowlets to move");
    r.note("FlowBender's edge is *directed* rerouting: it moves because of congestion (and on RTOs around failures), not by idle-gap luck — see link-failure, hotspot and asym");
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{all_to_all, FlowSizeDist};

    #[test]
    fn flowlet_scheme_runs_and_reorders_moderately() {
        let opts = Opts {
            scale: 0.2,
            seed: 6,
            ..Opts::default()
        };
        let params = FatTreeParams::paper();
        let duration = opts.scaled(SimTime::from_ms(60));
        let window = Window::for_duration(duration, SimTime::from_ms(400));
        let mut rng = netsim::DetRng::new(opts.seed, 1);
        let specs = all_to_all(
            &params,
            0.4,
            duration,
            &FlowSizeDist::web_search(),
            &mut rng,
        );
        let out = run_fat_tree(
            params,
            &schemes::flowlet(SimTime::from_us(100)),
            &specs,
            window.drain_until,
            opts.seed,
        );
        let done = out.flows.iter().filter(|f| f.fct().is_some()).count();
        assert_eq!(
            done,
            out.flows.len(),
            "all flows must complete under flowlets"
        );
        let ooo = out.ooo_frac();
        // Flowlets reorder less than per-packet spraying (>10%) but are
        // not reorder-free.
        assert!(ooo < 0.10, "flowlet ooo unexpectedly high: {ooo}");
    }
}
