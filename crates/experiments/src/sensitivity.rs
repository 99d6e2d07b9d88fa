//! Figures 6 & 7 — sensitivity of FlowBender to its two knobs:
//! `N` (consecutive congested RTTs before rerouting) and `T` (the marked-
//! fraction threshold), on the 40 % all-to-all workload, reported as mean
//! latency normalized to the default setting.
//!
//! Paper's result: both curves are nearly flat — FlowBender "is very
//! robust and simple to tune". Larger `N` slows response slightly; `T` is
//! best at 5 % with marginal degradation at 1 % (bursty false alarms) and
//! beyond 10 % (sluggish response).

use netsim::SimTime;
use stats::{fmt_secs, Table};
use topology::FatTreeParams;
use workloads::Workload;

use crate::cell::{windowed_cell, Digest};
use crate::report::{Opts, Report};
use crate::scenario::{parallel_map, run_fat_tree};
use crate::schemes;

/// N values of Figure 6.
pub const N_VALUES: [u32; 5] = [1, 2, 3, 4, 5];
/// T values of Figure 7.
pub const T_VALUES: [f64; 4] = [0.01, 0.05, 0.10, 0.20];

/// Mean latency of one FlowBender variant on the fixed workload.
fn run_variant(opts: &Opts, cfg: flowbender::Config) -> f64 {
    let params = FatTreeParams::paper();
    let (specs, window) = windowed_cell(
        opts,
        &params,
        Workload::Websearch,
        0.4,
        SimTime::from_ms(60),
        0x5E45,
    );
    let scheme = schemes::flowbender(cfg);
    let out = run_fat_tree(params, &scheme, &specs, window.drain_until, opts.seed);
    Digest::of(&out, window).mean()
}

/// Figure 6: sensitivity to `N`.
pub fn fig6(opts: &Opts) -> Report {
    opts.validate();
    let means = parallel_map(N_VALUES.to_vec(), |n| {
        (
            n,
            run_variant(opts, flowbender::Config::default().with_n(n)),
        )
    });
    let base = means.iter().find(|(n, _)| *n == 1).expect("N=1 present").1;
    let mut table = Table::new(vec!["N", "mean latency (norm. to N=1)", "mean abs"]);
    for (n, m) in &means {
        table.row(vec![
            n.to_string(),
            format!("{:.3}", m / base),
            fmt_secs(*m),
        ]);
    }
    let mut r = Report::new("fig6");
    r.section("Fig 6: FlowBender sensitivity to N (40% all-to-all)", table);
    r.note("paper: mild monotone degradation with N, all within ~a few % of N=1");
    r
}

/// Figure 7: sensitivity to `T`.
pub fn fig7(opts: &Opts) -> Report {
    opts.validate();
    let means = parallel_map(T_VALUES.to_vec(), |t| {
        (
            t,
            run_variant(opts, flowbender::Config::default().with_t(t)),
        )
    });
    let base = means
        .iter()
        .find(|(t, _)| *t == 0.05)
        .expect("T=5% present")
        .1;
    let mut table = Table::new(vec!["T", "mean latency (norm. to T=5%)", "mean abs"]);
    for (t, m) in &means {
        table.row(vec![
            format!("{:.0}%", t * 100.0),
            format!("{:.3}", m / base),
            fmt_secs(*m),
        ]);
    }
    let mut r = Report::new("fig7");
    r.section("Fig 7: FlowBender sensitivity to T (40% all-to-all)", table);
    r.note("paper: best at T=5%; T=1% and T=20% marginally worse; robust across the range");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensitivity_is_mild_between_n1_and_n3() {
        let opts = Opts {
            scale: 0.15,
            seed: 11,
            ..Opts::default()
        };
        let m1 = run_variant(&opts, flowbender::Config::default().with_n(1));
        let m3 = run_variant(&opts, flowbender::Config::default().with_n(3));
        assert!(m1 > 0.0 && m3 > 0.0);
        // The paper's robustness claim: N=3 within ~35% of N=1 even on a
        // short noisy run.
        let ratio = m3 / m1;
        assert!((0.65..1.35).contains(&ratio), "N sensitivity ratio {ratio}");
    }
}
