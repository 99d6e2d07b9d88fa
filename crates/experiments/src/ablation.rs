//! Ablation study — the §3.4/§5 design refinements, each evaluated on the
//! 40 % all-to-all workload against the paper-default FlowBender:
//!
//! * `N = 2` (reroute only after two consecutive congested RTTs, §3.4.1 —
//!   the paper reports "very similar performance"),
//! * randomized `N` (desynchronization, §3.4.2),
//! * EWMA-smoothed `F` (§3.4.1 footnote),
//! * reroute cooldown (§5.1 stability guard),
//! * `v_range = 2` (footnote 2: "even when we restricted each flow to 2
//!   options only, FlowBender was extremely effective"),
//! * timeout rerouting disabled (isolates the congestion-driven half).

use netsim::SimTime;
use stats::{fmt_secs, Table};
use topology::FatTreeParams;
use workloads::Workload;

use crate::cell::{windowed_cell, Cell};
use crate::report::{Opts, Report};
use crate::scenario::{parallel_map, run_fat_tree};
use crate::schemes::Scheme;

/// A named FlowBender variant.
pub struct Variant {
    /// Display name.
    pub name: &'static str,
    /// Its configuration.
    pub cfg: flowbender::Config,
}

/// The evaluated variants, paper default first.
pub fn variants() -> Vec<Variant> {
    let base = flowbender::Config::default();
    vec![
        Variant {
            name: "default (T=5%,N=1,V=8)",
            cfg: base,
        },
        Variant {
            name: "N=2",
            cfg: base.with_n(2),
        },
        Variant {
            name: "randomized N (N=2±1)",
            cfg: base.with_n(2).with_randomized_n(),
        },
        Variant {
            name: "EWMA F (gamma=0.25)",
            cfg: base.with_ewma(0.25),
        },
        Variant {
            name: "cooldown 3 RTTs",
            cfg: base.with_cooldown(3),
        },
        Variant {
            name: "V range 2",
            cfg: base.with_v_range(2),
        },
        Variant {
            name: "no timeout reroute",
            cfg: flowbender::Config {
                reroute_on_timeout: false,
                ..base
            },
        },
    ]
}

/// Run all variants on the same workload, in [`variants`] order.
pub fn sweep(opts: &Opts) -> Vec<Cell> {
    opts.validate();
    let params = FatTreeParams::paper();
    parallel_map(variants(), |v| {
        let (specs, window) = windowed_cell(
            opts,
            &params,
            Workload::Websearch,
            0.4,
            SimTime::from_ms(60),
            0xAB1A,
        );
        let scheme = Scheme::FlowBender(v.cfg);
        let out = run_fat_tree(params, &scheme, &specs, window.drain_until, opts.seed);
        Cell::of(out, window)
    })
}

/// Produce the ablation report.
pub fn run(opts: &Opts) -> Report {
    let cells = sweep(opts);
    let base = &cells[0].fct;
    let mut table = Table::new(vec![
        "variant",
        "mean (norm.)",
        "p99 (norm.)",
        "reroutes",
        "ooo %",
        "mean abs",
    ]);
    for (v, c) in variants().iter().zip(&cells) {
        table.row(vec![
            v.name.to_string(),
            format!("{:.3}", c.fct.mean() / base.mean()),
            format!("{:.3}", c.fct.quantile(0.99) / base.quantile(0.99)),
            c.out.reroutes().to_string(),
            format!("{:.4}%", c.out.ooo_frac() * 100.0),
            fmt_secs(c.fct.mean()),
        ]);
    }
    let mut r = Report::new("ablation");
    r.section(
        "Ablations: FlowBender variants on 40% all-to-all (normalized to default)",
        table,
    );
    r.note("paper: N=2 'very similar'; V range 2 still 'extremely effective'; refinements trade reroute count vs reaction time");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_list_covers_every_refinement_once() {
        let vs = variants();
        assert_eq!(vs.len(), 7);
        let names: std::collections::HashSet<_> = vs.iter().map(|v| v.name).collect();
        assert_eq!(names.len(), 7);
        for v in &vs {
            v.cfg.validate();
        }
        assert!(!vs[6].cfg.reroute_on_timeout);
        assert_eq!(vs[5].cfg.v_range, 2);
    }
}
