//! Figures 3 & 4 — all-to-all workload: mean and 99th-percentile flow
//! latency of DeTail / FlowBender / RPS normalized to ECMP, at 20/40/60 %
//! load, binned by flow size; plus the §4.2.3 out-of-order statistics that
//! come from the same runs.
//!
//! Paper's result: all three schemes substantially beat ECMP (up to 73 %
//! mean / 93 % tail reduction at high load for the larger bins) and land
//! within a few percent of each other; FlowBender's out-of-order rate is
//! ≈ ECMP's (+0.006 %) while DeTail reorders almost as much as RPS.
//!
//! Tables follow the schemes actually swept (any registry selection
//! works, parameterized names included).

use netsim::SimTime;
use stats::{fmt_secs, BinStats, FctAccumulator, Table, PAPER_BINS};

use crate::cell::{baseline, paper_fabric, ratio_cell, windowed_cell, Cell, Digest};
use crate::report::{Opts, Report};
use crate::scenario::sweep_schemes;
use crate::schemes::{self, Scheme};

/// The paper's evaluated loads (fraction of bisection bandwidth).
pub const LOADS: [f64; 3] = [0.2, 0.4, 0.6];

/// Run the all-to-all sweep over `schemes` × `loads`: one row per load,
/// one [`Cell`] per scheme. All schemes see the *same* flow arrivals at a
/// given load (same generator seed), so normalization compares like with
/// like.
///
/// Traffic comes from the workload registry: the historical web-search
/// all-to-all by default, or whatever `--workload` selected — the RNG
/// stream is unchanged, so the default reproduces the pre-registry flow
/// lists byte for byte.
pub fn sweep(opts: &Opts, schemes: &[Scheme], loads: &[f64]) -> Vec<Vec<Cell>> {
    opts.validate();
    let params = paper_fabric(opts);
    let workload = opts.workload_or("websearch");
    sweep_schemes(schemes, loads, |scheme, &load| {
        let tag = 0xA2A ^ (load * 1000.0) as u64;
        let (specs, window) =
            windowed_cell(opts, &params, workload, load, SimTime::from_ms(100), tag);
        let out = crate::run_fat_tree(params, scheme, &specs, window.drain_until, opts.seed);
        Cell::of(out, window)
    })
}

/// Per-size-bin latency stats (paper bins) through the streaming
/// [`FctAccumulator`] — the same path `fabric_scale` uses at 1024 hosts:
/// counts and means exact, tail percentiles within its 0.5 % sketch
/// guarantee.
fn binned(fct: &Digest) -> Vec<BinStats> {
    let mut acc = FctAccumulator::new();
    for x in &fct.samples {
        acc.record_sample(x);
    }
    acc.binned()
}

/// Build the Figure 3 (mean) or Figure 4 (p99) normalized-latency table,
/// one column per swept non-baseline scheme.
fn normalized_table(schemes: &[Scheme], grid: &[Vec<Cell>], loads: &[f64], tail: bool) -> Table {
    let base = baseline(schemes);
    let others: Vec<usize> = (0..schemes.len()).filter(|&s| s != base).collect();
    let mut header = vec!["load".to_string(), "flow size".to_string()];
    header.extend(others.iter().map(|&s| schemes[s].name().to_string()));
    header.push(format!("{} abs", schemes[base].name()));
    let mut table = Table::new(header);
    for (load, cells) in loads.iter().zip(grid) {
        let bins: Vec<Vec<BinStats>> = cells.iter().map(|c| binned(&c.fct)).collect();
        for (bi, bin) in PAPER_BINS.iter().enumerate() {
            // Empty bins carry `None` — rendered "-" so a binless config
            // can't masquerade as a perfect (0 s) tail.
            let stat = |s: usize| {
                if tail {
                    bins[s][bi].p99_s
                } else {
                    bins[s][bi].mean_s
                }
            };
            let mut row = vec![format!("{:.0}%", load * 100.0), bin.label.to_string()];
            row.extend(others.iter().map(|&s| ratio_cell(stat(s), stat(base))));
            row.push(stat(base).map_or("-".to_string(), fmt_secs));
            table.row(row);
        }
    }
    table
}

/// Figure 3: mean latency normalized to ECMP.
pub fn fig3_report(schemes: &[Scheme], grid: &[Vec<Cell>], loads: &[f64]) -> Report {
    let mut r = Report::new("fig3");
    r.section(
        format!(
            "Fig 3: all-to-all MEAN latency, normalized to {} (lower is better)",
            schemes[baseline(schemes)].name()
        ),
        normalized_table(schemes, grid, loads, false),
    );
    // Full FCT CDFs per (load, scheme), CSV-only, for plotting.
    let mut cdf = Table::new(vec!["load", "scheme", "fct_s", "p"]);
    for (load, cells) in loads.iter().zip(grid) {
        for (scheme, c) in schemes.iter().zip(cells) {
            for (v, p) in stats::cdf_points(&c.fct.fcts(), 200) {
                cdf.row(vec![
                    format!("{:.0}", load * 100.0),
                    scheme.name().to_string(),
                    format!("{v:.9}"),
                    format!("{p:.4}"),
                ]);
            }
        }
    }
    r.data_section("fct_cdf", cdf);
    completion_note(&mut r, grid);
    r.note(
        "paper: DeTail/FlowBender/RPS all well below 1.0 for >=10KB bins, within ~2% of each other",
    );
    r
}

/// Figure 4: 99th-percentile latency normalized to ECMP.
pub fn fig4_report(schemes: &[Scheme], grid: &[Vec<Cell>], loads: &[f64]) -> Report {
    let mut r = Report::new("fig4");
    r.section(
        format!(
            "Fig 4: all-to-all 99th-PERCENTILE latency, normalized to {} (lower is better)",
            schemes[baseline(schemes)].name()
        ),
        normalized_table(schemes, grid, loads, true),
    );
    completion_note(&mut r, grid);
    r.note("paper: tail reductions up to 93% vs ECMP at the larger bins/loads");
    r
}

/// §4.2.3: out-of-order delivery statistics.
pub fn ooo_report(schemes: &[Scheme], grid: &[Vec<Cell>], loads: &[f64]) -> Report {
    let mut table = Table::new(vec!["load", "scheme", "ooo fraction", "reroutes"]);
    for (load, cells) in loads.iter().zip(grid) {
        for (scheme, c) in schemes.iter().zip(cells) {
            table.row(vec![
                format!("{:.0}%", load * 100.0),
                scheme.name().to_string(),
                format!("{:.5}%", c.out.ooo_frac() * 100.0),
                c.out.reroutes().to_string(),
            ]);
        }
    }
    let mut rep = Report::new("ooo");
    rep.section("§4.2.3: out-of-order packet arrivals", table);
    // The paper's two headline OOO claims, computed at the middle load
    // (only meaningful when the paper's schemes were swept).
    if let Some(mid) = loads.iter().position(|&l| l == 0.4) {
        let ooo_of = |name: &str| {
            let s = schemes.iter().position(|s| s.name() == name)?;
            Some(grid[mid][s].out.ooo_frac())
        };
        if let (Some(e), Some(f)) = (ooo_of("ECMP"), ooo_of("FlowBender")) {
            rep.note(format!(
                "FlowBender - ECMP ooo delta at 40% load: {:+.4}% (paper: ~+0.006%)",
                (f - e) * 100.0
            ));
        }
        if let (Some(d), Some(p)) = (ooo_of("DeTail"), ooo_of("RPS")) {
            if p > 0.0 {
                rep.note(format!(
                    "DeTail / RPS ooo ratio at 40% load: {:.1}% (paper: >97.9%)",
                    d / p * 100.0
                ));
            }
        }
    }
    rep
}

fn completion_note(r: &mut Report, grid: &[Vec<Cell>]) {
    let worst = grid
        .iter()
        .flatten()
        .map(|c| c.fct.completion)
        .fold(1.0, f64::min);
    r.note(format!("worst in-window completion fraction: {:.4}", worst));
}

/// Run the sweep once and emit all three reports (fig3, fig4, ooo). The
/// `fig3`, `fig4` and `ooo` registry rows all name this function; the
/// registry hands each row the report named after it and runs the sweep
/// once per invocation.
pub fn run_all(opts: &Opts) -> Vec<Report> {
    let selection = opts.scheme_selection(&schemes::paper_set());
    let grid = sweep(opts, &selection, &LOADS);
    let mut reports = vec![
        fig3_report(&selection, &grid, &LOADS),
        fig4_report(&selection, &grid, &LOADS),
        ooo_report(&selection, &grid, &LOADS),
    ];
    // A non-default workload changes what the tables mean — say so.
    if opts.workload.is_some() {
        let wl = opts.workload_or("websearch").name();
        for r in &mut reports {
            r.note(format!("traffic workload: {wl} (selected with --workload)"));
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fast, small sweep: one load, ECMP + FlowBender only.
    #[test]
    fn small_sweep_produces_consistent_results() {
        let opts = Opts {
            scale: 0.2,
            seed: 5,
            ..Opts::default()
        };
        let sel = vec![
            Scheme::Ecmp,
            Scheme::FlowBender(flowbender::Config::default()),
        ];
        let results = &sweep(&opts, &sel, &[0.4])[0];
        assert_eq!(results.len(), 2);
        for (scheme, c) in sel.iter().zip(results) {
            assert!(
                c.fct.completion > 0.95,
                "{}: completion {}",
                scheme.name(),
                c.fct.completion
            );
            assert!(c.fct.mean() > 0.0);
            assert!(c.fct.quantile(0.99) >= c.fct.mean());
        }
        let (ecmp, fb) = (&results[0], &results[1]);
        assert_eq!(ecmp.out.reroutes(), 0);
        assert!(
            fb.out.reroutes() > 0,
            "FlowBender should reroute under 40% load"
        );
        // FlowBender should not be slower overall.
        assert!(
            fb.fct.mean() <= ecmp.fct.mean() * 1.05,
            "fb {} vs ecmp {}",
            fb.fct.mean(),
            ecmp.fct.mean()
        );
    }

    #[test]
    fn report_tables_have_all_rows() {
        let opts = Opts {
            scale: 0.05,
            seed: 5,
            ..Opts::default()
        };
        let sel = schemes::paper_set();
        let results = sweep(&opts, &sel, &[0.2]);
        let fig3 = fig3_report(&sel, &results, &[0.2]);
        assert_eq!(fig3.sections[0].1.len(), 4); // 1 load x 4 bins
        assert!(fig3.sections[0].0.contains("normalized to ECMP"));
        let ooo = ooo_report(&sel, &results, &[0.2]);
        assert_eq!(ooo.sections[0].1.len(), 4); // 4 schemes
    }

    #[test]
    fn tables_adapt_to_the_swept_schemes() {
        let opts = Opts {
            scale: 0.05,
            seed: 5,
            ..Opts::default()
        };
        // No ECMP in the selection: the first scheme becomes the baseline
        // and the column set follows the sweep.
        let sel = vec![
            Scheme::FlowBender(flowbender::Config::default()),
            Scheme::FlowBender(flowbender::Config::default().with_n(2)),
        ];
        let results = sweep(&opts, &sel, &[0.2]);
        let fig3 = fig3_report(&sel, &results, &[0.2]);
        assert!(fig3.sections[0].0.contains("normalized to FlowBender"));
        let header = fig3.sections[0].1.headers();
        assert!(header.contains(&"FlowBender(N=2)".to_string()));
        assert!(header.contains(&"FlowBender abs".to_string()));
    }
}
