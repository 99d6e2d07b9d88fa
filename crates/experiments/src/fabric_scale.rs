//! `fabric-scale` — fig3-style all-to-all on a 1024-host k=16 fat-tree,
//! packet-simulated end to end.
//!
//! This is the run `trace-scale` pointed at: scheme fidelity (real
//! DCTCP/FlowBender endpoints, real switches) at a fabric eight times the
//! paper's. Traffic comes from the streaming [`workloads::PoissonStream`]
//! generator, and FCT statistics go through the streaming
//! [`stats::FctAccumulator`] sketch, as at `trace-scale`.
//!
//! `--topo k=<K>` picks the fabric arity (hosts = k³/4); `--smoke`
//! shrinks to a k=8 / 128-host CI-sized run.

use netsim::SimTime;
use stats::{FctAccumulator, Table};
use topology::FatTreeParams;

use crate::cell::{kary_fabric, kary_window, poisson_websearch, secs_or_dash, Cell};
use crate::report::{Opts, Report, RunSummary};
use crate::scenario::Run;
use crate::schemes::{self, Scheme};

/// Offered load (fraction of edge bandwidth). One point, not a sweep —
/// a 1024-host packet run is minutes, and the load sweep story is fig3's.
pub const LOAD: f64 = 0.3;

/// RNG stream tag for the per-source Poisson streams.
const STREAM_TAG: u64 = 0xFA_B51C;

/// The fabric this invocation builds: `--topo k=K` if given, else k=16
/// (1024 hosts) — or k=8 (128 hosts) under `--smoke`.
pub fn fabric(opts: &Opts) -> FatTreeParams {
    kary_fabric(opts, 16)
}

/// Run one scheme on the k-ary fabric, returning the FCT sketch of the
/// measured flows alongside the cell.
pub fn run_one(opts: &Opts, scheme: &schemes::Scheme) -> (FctAccumulator, Cell) {
    let params = fabric(opts);
    // Short windows: a 1024-host all-to-all generates hundreds of flows
    // (and tens of millions of events) per simulated millisecond.
    let window = kary_window(
        opts,
        SimTime::from_ms(2),
        SimTime::from_us(400),
        SimTime::from_ms(50),
    );
    let specs = poisson_websearch(opts, &params, LOAD, window.end, STREAM_TAG);
    let out = Run::new(params, scheme, &specs, window.drain_until, opts.seed).run();
    let cell = Cell::of(out, window);
    let mut acc = FctAccumulator::new();
    for x in &cell.fct.samples {
        acc.record_sample(x);
    }
    (acc, cell)
}

/// Run the fabric-scale experiment and build the report.
pub fn run(opts: &Opts) -> Report {
    opts.validate();
    let params = fabric(opts);
    let k = params.pods;
    let selection = opts.scheme_selection(&[Scheme::Ecmp, Scheme::FlowBender(Default::default())]);

    let mut table = Table::new(vec![
        "scheme", "flows", "complete", "mean", "p99", "ooo", "events",
    ]);
    let mut report = Report::new("fabric_scale");
    for scheme in &selection {
        let (acc, c) = run_one(opts, scheme);
        report.run_summary(RunSummary::from_run(
            format!("{}_k{k}_seed{}", scheme.slug(), opts.seed),
            scheme.name(),
            opts,
            opts.seed,
            &c.out,
        ));
        table.row(vec![
            scheme.name().to_string(),
            (c.out.flows.len() - c.out.replicas.len()).to_string(),
            format!("{:.1}%", c.fct.completion * 100.0),
            secs_or_dash(acc.overall().mean().unwrap_or(0.0)),
            secs_or_dash(acc.overall().quantile(0.99).unwrap_or(0.0)),
            format!("{:.3}%", c.out.ooo_frac() * 100.0),
            c.out.events.to_string(),
        ]);
    }

    report.section(
        format!(
            "Fabric scale: websearch all-to-all on a k={k} fat-tree \
             ({} hosts) at {:.0}% load",
            params.n_hosts(),
            LOAD * 100.0
        ),
        table,
    );
    report.note(
        "mean and p99 come from a streaming FctAccumulator sketch, as at \
         trace-scale: exact for counts/means and within the sketch guarantee \
         for tails",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke-sized end-to-end run. Keep the fabric at k=4 (16 hosts) so
    /// `cargo test` stays fast; the k=16 acceptance run is exercised by the
    /// CLI / CI smoke step.
    #[test]
    fn smoke_run_produces_consistent_report() {
        let opts = Opts {
            seed: 3,
            topo_k: Some(4),
            smoke: true,
            schemes: vec!["ecmp".into()],
            ..Opts::default()
        };
        let r = run(&opts);
        assert_eq!(r.name, "fabric_scale");
        assert!(r.sections[0].0.contains("k=4"));
        assert_eq!(r.sections.len(), 1);
        assert_eq!(r.sections[0].1.len(), 1, "one scheme row");
        assert_eq!(r.runs[0].label, "ecmp_k4_seed3");
    }
}
