//! Figure 5 — partition-aggregate workload: average job completion time
//! (the last flow of each incast job) normalized to ECMP, for fan-in
//! degrees 4–32 at 40 % load.
//!
//! Paper's result: FlowBender (like RPS and DeTail) completes jobs ~4×
//! faster than ECMP at fan-in 4, degrading to ~2× at fan-in 32 where the
//! receiver's last hop is the bottleneck and multipathing can't help.

use netsim::SimTime;
use stats::{fmt_secs, job_completion, JobStats, Table};
use topology::FatTreeParams;

use crate::cell::{baseline, ratio_cell, windowed_cell};
use crate::report::{Opts, Report};
use crate::scenario::{run_fat_tree, sweep_schemes};
use crate::schemes::{self, Scheme};

/// Fan-in degrees from the paper's Figure 5.
pub const FAN_INS: [u32; 4] = [4, 8, 16, 32];

/// Job completion statistics of one (scheme, fan-in) cell. Traffic comes
/// from the workload registry's `incast:<fanin>` pattern (the same
/// generator and RNG stream the hard-coded `partition_aggregate` call
/// always used, so results are byte-compatible).
pub fn run_cell(opts: &Opts, scheme: &Scheme, fan_in: u32) -> JobStats {
    let params = FatTreeParams::paper();
    let (specs, window) = windowed_cell(
        opts,
        &params,
        workloads::patterns::incast(fan_in),
        0.4,
        SimTime::from_ms(60),
        0xF165 ^ fan_in as u64,
    );
    let out = run_fat_tree(params, scheme, &specs, window.drain_until, opts.seed);
    // Job completion uses all jobs whose flows all completed; trim
    // cool-down jobs by start time like the FCT window does.
    let in_window: Vec<_> = out
        .effective_flows()
        .iter()
        .filter(|f| f.start >= window.start && f.start < window.end)
        .cloned()
        .collect();
    job_completion(&in_window)
}

/// Run the sweep over `schemes` × [`FAN_INS`]: one row per fan-in.
pub fn sweep(opts: &Opts, schemes: &[Scheme]) -> Vec<Vec<JobStats>> {
    opts.validate();
    sweep_schemes(schemes, &FAN_INS, |scheme, &fan_in| {
        run_cell(opts, scheme, fan_in)
    })
}

/// Produce the Figure 5 report.
pub fn run(opts: &Opts) -> Report {
    let selection = opts.scheme_selection(&schemes::paper_set());
    let grid = sweep(opts, &selection);
    let base = baseline(&selection);
    let base_name = selection[base].name();
    let others: Vec<usize> = (0..selection.len()).filter(|&s| s != base).collect();
    // One normalized table per statistic: the paper's average, plus the
    // p99 tail the per-job FCT extension adds.
    let jct_table = |stat: &dyn Fn(&JobStats) -> Option<f64>| {
        let mut header = vec!["fan-in".to_string()];
        header.extend(others.iter().map(|&s| selection[s].name().to_string()));
        header.push(format!("{base_name} abs"));
        header.push("jobs".to_string());
        let mut table = Table::new(header);
        for (n, row) in FAN_INS.iter().zip(&grid) {
            let base_v = stat(&row[base]);
            let mut cells = vec![n.to_string()];
            cells.extend(others.iter().map(|&s| ratio_cell(stat(&row[s]), base_v)));
            cells.push(base_v.map_or("-".to_string(), fmt_secs));
            cells.push(row[base].jobs_complete.to_string());
            table.row(cells);
        }
        table
    };
    let mut r = Report::new("fig5");
    r.section(
        format!(
            "Fig 5: partition-aggregate avg job completion time, normalized to {base_name} (lower is better)"
        ),
        jct_table(&|js| js.mean_s.filter(|&m| m > 0.0)),
    );
    r.section(
        format!("Fig 5 (ext): p99 job completion time, normalized to {base_name}"),
        jct_table(&|js| js.p99_s),
    );
    r.note("paper: FlowBender ~0.25x at fan-in 4, ~0.5x at fan-in 32; within ~2% of DeTail/RPS");
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::parallel_map;

    #[test]
    fn small_sweep_beats_ecmp_at_low_fan_in() {
        let opts = Opts {
            scale: 0.25,
            seed: 3,
            ..Opts::default()
        };
        let sel = vec![
            Scheme::Ecmp,
            Scheme::FlowBender(flowbender::Config::default()),
        ];
        let cells = parallel_map(sel, |scheme| {
            let js = run_cell(&opts, &scheme, 4);
            (
                scheme.name().to_string(),
                js.mean_s.unwrap_or(0.0),
                js.jobs_complete,
            )
        });
        let (_, ecmp_jct, ecmp_jobs) = cells[0].clone();
        let (_, fb_jct, fb_jobs) = cells[1].clone();
        assert!(ecmp_jobs > 10 && fb_jobs > 10, "too few jobs measured");
        assert!(fb_jct > 0.0 && ecmp_jct > 0.0);
        // In this substrate the incast bottleneck — the aggregator's own
        // downlink, which no load balancer can widen — dominates
        // partition-aggregate jobs (deep buffers + DCTCP keep the fabric
        // loss-free), so FlowBender's fabric-side gains are muted relative
        // to the paper; we assert non-inferiority within reroute-churn
        // noise. EXPERIMENTS.md discusses the deviation.
        assert!(fb_jct <= ecmp_jct * 1.15, "fb {fb_jct} vs ecmp {ecmp_jct}");
    }
}
