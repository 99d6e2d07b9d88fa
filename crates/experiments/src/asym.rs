//! §4.3.1 (second half) — asymmetric topologies and WCMP: one agg→core
//! link runs at half rate (a partial upgrade / degraded optic). The paper
//! argues that (a) oblivious schemes overload the slow path, (b) RPS is
//! *especially* hurt because every flow sprays onto it, and (c) FlowBender
//! compensates even when WCMP forwarding weights are missing or coarse
//! ("more robustness to forwarding weight misconfigurations or chip
//! limitations").
//!
//! We run the Table-1 style ToR-to-ToR microbenchmark across the degraded
//! pod under five configurations: ECMP, RPS, correctly-weighted WCMP,
//! FlowBender over unweighted ECMP, and FlowBender over weighted WCMP.

use netsim::{Counter, SimTime, Simulator};
use stats::{fmt_gbps, fmt_secs, Table};
use topology::{build_fat_tree, degrade_agg_core_link, FatTreeParams};
use transport::install_agents;
use workloads::microbench;

use crate::cell::Digest;
use crate::report::{Opts, Report};
use crate::scenario::{parallel_map, Window};
use crate::schemes::{self, SchemeSpec};

/// One configuration's outcome.
#[derive(Debug)]
pub struct Cell {
    /// Configuration label.
    pub label: &'static str,
    /// Mean FCT (s).
    pub mean_s: f64,
    /// Max FCT (s).
    pub max_s: f64,
    /// Achieved throughput on the degraded (5 Gbps) link, bps.
    pub slow_link_bps: f64,
    /// Flows completed (of 16).
    pub completed: usize,
    /// FlowBender reroutes.
    pub reroutes: u64,
}

/// The evaluated configurations: `(label, scheme, install_wcmp_weights)`.
fn configs() -> Vec<(&'static str, SchemeSpec, bool)> {
    vec![
        ("ECMP (oblivious)", schemes::ecmp(), false),
        ("RPS", schemes::rps(), false),
        ("WCMP (correct weights)", schemes::ecmp(), true),
        (
            "FlowBender (no weights)",
            schemes::flowbender(flowbender::Config::default()),
            false,
        ),
        (
            "FlowBender + WCMP",
            schemes::flowbender(flowbender::Config::default()),
            true,
        ),
    ]
}

/// Run one configuration: 16 cross-pod flows with pod-0/agg-0's first core
/// uplink degraded to `slow_rate`.
pub fn run_config(
    label: &'static str,
    scheme: &SchemeSpec,
    wcmp: bool,
    bytes: u64,
    slow_rate: u64,
    seed: u64,
) -> Cell {
    let params = FatTreeParams::paper();
    let mut sim = Simulator::new(seed);
    let ft = build_fat_tree(&mut sim, params, scheme.switch_config());
    degrade_agg_core_link(&mut sim, &ft, 0, 0, 0, slow_rate, wcmp);
    let specs = microbench(&params, 16, bytes);
    install_agents(&mut sim, &specs, &scheme.tcp_config());
    let t0 = sim.now();
    sim.run_until(SimTime::from_secs(120));
    let rec = sim.recorder();
    let fct = Digest::of_flows(rec.flows(), Window::WHOLE_RUN);
    let elapsed = (sim.now() - t0).as_secs_f64().min(fct.max());
    let (node, port) = ft.agg_core_link(0, 0);
    let slow = sim.port_stats(node, port);
    Cell {
        label,
        mean_s: fct.mean(),
        max_s: fct.max(),
        slow_link_bps: if elapsed > 0.0 {
            slow.tx_bytes_tcp as f64 * 8.0 / elapsed
        } else {
            0.0
        },
        completed: fct.n(),
        reroutes: rec.get(Counter::Reroutes) + rec.get(Counter::TimeoutReroutes),
    }
}

/// Run the sweep.
pub fn sweep(opts: &Opts) -> Vec<Cell> {
    opts.validate();
    let bytes = (10_000_000.0 * opts.scale) as u64;
    let slow_rate = 5_000_000_000;
    parallel_map(configs(), |(label, scheme, wcmp)| {
        run_config(label, &scheme, wcmp, bytes, slow_rate, opts.seed)
    })
}

/// Produce the report.
pub fn run(opts: &Opts) -> Report {
    let cells = sweep(opts);
    let mut table = Table::new(vec![
        "configuration",
        "mean FCT",
        "max FCT",
        "slow-link rate",
        "completed",
        "reroutes",
    ]);
    for c in &cells {
        table.row(vec![
            c.label.to_string(),
            fmt_secs(c.mean_s),
            fmt_secs(c.max_s),
            fmt_gbps(c.slow_link_bps),
            format!("{}/16", c.completed),
            c.reroutes.to_string(),
        ]);
    }
    let mut r = Report::new("asym");
    r.section(
        "§4.3.1 asymmetry: one agg->core link at 5 Gbps under 16 cross-pod flows",
        table,
    );
    r.note("paper's discussion: oblivious schemes overload the slow path; RPS suffers most; FlowBender compensates even without (or with coarse) WCMP weights");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flowbender_compensates_for_missing_weights() {
        let bytes = 3_000_000;
        let slow = 5_000_000_000;
        let ecmp = run_config("ecmp", &schemes::ecmp(), false, bytes, slow, 9);
        let fb = run_config(
            "fb",
            &schemes::flowbender(flowbender::Config::default()),
            false,
            bytes,
            slow,
            9,
        );
        let wcmp = run_config("wcmp", &schemes::ecmp(), true, bytes, slow, 9);
        // Everyone completes.
        assert_eq!(ecmp.completed, 16);
        assert_eq!(fb.completed, 16);
        assert_eq!(wcmp.completed, 16);
        // The slow link is the straggler-maker for oblivious ECMP: the
        // worst flow takes notably longer than under FlowBender.
        assert!(
            fb.max_s < ecmp.max_s * 0.95,
            "FlowBender max {} should beat oblivious ECMP max {}",
            fb.max_s,
            ecmp.max_s
        );
        // FlowBender without weights lands in the same league as correctly
        // weighted WCMP (within 25% on the worst flow).
        assert!(
            fb.max_s < wcmp.max_s * 1.25,
            "FlowBender max {} vs WCMP max {}",
            fb.max_s,
            wcmp.max_s
        );
    }

    #[test]
    fn wcmp_weights_shift_traffic_off_the_slow_link() {
        let bytes = 3_000_000;
        let slow = 5_000_000_000;
        let ecmp = run_config("ecmp", &schemes::ecmp(), false, bytes, slow, 11);
        let wcmp = run_config("wcmp", &schemes::ecmp(), true, bytes, slow, 11);
        // With weights, the slow link carries (weakly) less traffic.
        assert!(
            wcmp.slow_link_bps <= ecmp.slow_link_bps * 1.05,
            "WCMP slow-link {} vs ECMP {}",
            wcmp.slow_link_bps,
            ecmp.slow_link_bps
        );
    }
}
