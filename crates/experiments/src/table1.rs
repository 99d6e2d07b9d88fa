//! Table 1 — functionality verification: FlowBender vs ECMP flow
//! completion times for 8/16/24 simultaneous 250 MB ToR-to-ToR flows.
//!
//! Paper's result: FlowBender improves the mean by ≈2× and the max by
//! 5–8×; the max/mean ratio falls from >3.3 (ECMP) to <1.3 (FlowBender),
//! i.e. a much tighter completion-time distribution.
//!
//! At the default `--scale 1` each flow is 25 MB (a tenth of the paper's
//! 250 MB) so the experiment runs in seconds; the load-balancing dynamics
//! are unchanged because all flows still span thousands of RTTs.

use netsim::{SimTime, TelemetryConfig};
use stats::{fmt_ratio, fmt_secs, Table};
use topology::FatTreeParams;
use workloads::microbench;

use crate::cell::Digest;
use crate::report::{Opts, Report, RunSummary};
use crate::scenario::{parallel_map, Run, Window};
use crate::schemes::{self, SchemeSpec};

/// Flow counts evaluated by the paper (1, 2, 3 flows per route on average).
pub const FLOW_COUNTS: [u32; 3] = [8, 16, 24];

/// Mean and max FCT of one (scheme, flow-count) cell.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Number of simultaneous flows.
    pub flows: u32,
    /// Mean FCT, seconds.
    pub mean_s: f64,
    /// Max FCT, seconds.
    pub max_s: f64,
    /// Flows that completed.
    pub completed: usize,
}

/// Telemetry collected for the JSON summaries: egress queue depths plus
/// V-field reroute traces. The sampling period is coarse (10 ms) because
/// these runs simulate minutes of traffic — fine-grained queue series
/// belong to purpose-built probes, not a table experiment.
fn telemetry() -> TelemetryConfig {
    TelemetryConfig::every(SimTime::from_ms(10))
}

/// Run the microbenchmark for one scheme across all flow counts under
/// `telemetry`, returning each cell with the machine-readable
/// [`RunSummary`] of its run (`opts` supplies the summary's metadata).
pub fn run_scheme(
    scheme: &SchemeSpec,
    bytes: u64,
    seed: u64,
    telemetry: TelemetryConfig,
    opts: &Opts,
) -> Vec<(Cell, RunSummary)> {
    let params = FatTreeParams::paper();
    let slug = scheme.slug();
    parallel_map(FLOW_COUNTS.to_vec(), |n| {
        let specs = microbench(&params, n, bytes);
        let out = Run::new(params, scheme, &specs, SimTime::from_secs(120), seed)
            .telemetry(telemetry)
            .run();
        let fct = Digest::of(&out, Window::WHOLE_RUN);
        let cell = Cell {
            flows: n,
            mean_s: fct.mean(),
            max_s: fct.max(),
            completed: fct.n(),
        };
        let label = format!("{slug}_flows{n}_seed{seed}");
        let summary = RunSummary::from_run(label, scheme.name(), opts, seed, &out);
        (cell, summary)
    })
}

/// Seeds evaluated per configuration: ECMP's worst-case collision is a
/// tail event of the hash draw, so a single seed under-samples it (the
/// paper, too, reports one draw).
pub const SEEDS: u64 = 3;

/// Produce the Table 1 report.
pub fn run(opts: &Opts) -> Report {
    opts.validate();
    let bytes = (25_000_000.0 * opts.scale) as u64;

    let mut table = Table::new(vec![
        "Flows",
        "seed",
        "ECMP mean",
        "ECMP max",
        "FB mean",
        "FB max",
        "ECMP max/mean",
        "FB max/mean",
    ]);
    let mut worst_ecmp_ratio: f64 = 0.0;
    let mut worst_fb_ratio: f64 = 0.0;
    let mut summaries = Vec::new();
    for s in 0..SEEDS {
        let seed = opts.seed + s;
        let mut split = |runs: Vec<(Cell, RunSummary)>| -> Vec<Cell> {
            runs.into_iter()
                .map(|(cell, summary)| {
                    summaries.push(summary);
                    cell
                })
                .collect()
        };
        let ecmp = split(run_scheme(&schemes::ecmp(), bytes, seed, telemetry(), opts));
        let bender = split(run_scheme(
            &schemes::flowbender(flowbender::Config::default()),
            bytes,
            seed,
            telemetry(),
            opts,
        ));
        for (e, b) in ecmp.iter().zip(&bender) {
            assert_eq!(e.flows, b.flows);
            assert_eq!(e.completed as u32, e.flows, "ECMP flows incomplete");
            assert_eq!(b.completed as u32, b.flows, "FlowBender flows incomplete");
            let er = e.max_s / e.mean_s;
            let br = b.max_s / b.mean_s;
            worst_ecmp_ratio = worst_ecmp_ratio.max(er);
            worst_fb_ratio = worst_fb_ratio.max(br);
            table.row(vec![
                e.flows.to_string(),
                seed.to_string(),
                fmt_secs(e.mean_s),
                fmt_secs(e.max_s),
                fmt_secs(b.mean_s),
                fmt_secs(b.max_s),
                fmt_ratio(er),
                fmt_ratio(br),
            ]);
        }
    }

    let mut report = Report::new("table1");
    report.section(
        format!(
            "Table 1: {} MB ToR-to-ToR flows, FlowBender vs ECMP ({SEEDS} hash draws)",
            bytes / 1_000_000
        ),
        table,
    );
    report.note(format!(
        "worst max/mean across draws: ECMP {worst_ecmp_ratio:.2} vs FlowBender {worst_fb_ratio:.2}"
    ));
    report.note("paper (one draw): ECMP max/mean > 3.3; FlowBender max/mean < 1.3; FB mean ~2x better, max 5-8x better");
    for summary in summaries {
        report.run_summary(summary);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A very small instance of the experiment to keep CI fast: the shape
    /// (FlowBender tightens the distribution) must already show at 2 MB.
    #[test]
    fn shrunken_table1_shows_the_shape() {
        let bytes = 2_000_000;
        let cells = |scheme: &SchemeSpec| -> Vec<Cell> {
            run_scheme(scheme, bytes, 3, TelemetryConfig::off(), &Opts::default())
                .into_iter()
                .map(|(cell, _)| cell)
                .collect()
        };
        let ecmp = cells(&schemes::ecmp());
        let fb = cells(&schemes::flowbender(flowbender::Config::default()));
        for (e, b) in ecmp.iter().zip(&fb) {
            assert_eq!(e.completed as u32, e.flows);
            assert_eq!(b.completed as u32, b.flows);
            // FlowBender's worst flow must not be (much) worse than ECMP's.
            assert!(
                b.max_s <= e.max_s * 1.10,
                "{} flows: FB max {} vs ECMP max {}",
                e.flows,
                b.max_s,
                e.max_s
            );
        }
        // In at least one configuration ECMP collisions must be visibly
        // worse than FlowBender (the whole point of the experiment).
        let improved = ecmp.iter().zip(&fb).any(|(e, b)| e.max_s > b.max_s * 1.3);
        assert!(
            improved,
            "ECMP never collided noticeably; seeds may be degenerate"
        );
    }
}
