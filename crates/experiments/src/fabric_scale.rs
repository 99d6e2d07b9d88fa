//! `fabric-scale` — fig3-style all-to-all on a 1024-host k=16 fat-tree,
//! packet-simulated end to end by the sharded multi-core engine
//! ([`crate::Run::shards`]).
//!
//! This is the run `trace-scale` pointed at: scheme fidelity (real
//! DCTCP/FlowBender endpoints, real switches) at a fabric size the
//! single-threaded engine only reaches slowly. Traffic comes from the
//! streaming [`workloads::PoissonStream`] generator — per-source split
//! RNG streams, so the arrival process is identical no matter how the
//! fabric is partitioned — and FCT statistics are aggregated the way the
//! workers naturally produce them: one [`stats::FctAccumulator`] per
//! shard over the flows whose sources that shard owns, merged into the
//! global sketch at the end (merge-equals-bulk-feed is a sketch
//! invariant, tested in `stats`).
//!
//! `--topo k=<K>` picks the fabric arity (hosts = k³/4), `--shards N`
//! the worker count; `--smoke` shrinks to a k=8 / 128-host CI-sized run.
//! Reports stay byte-identical across shard counts — that property is
//! enforced by the `sharded_determinism` integration test; this
//! experiment is where it pays off.

use netsim::SimTime;
use stats::{fmt_secs, samples, BinSpec, FctAccumulator, Table};
use topology::{FatTreeParams, ShardPlan};

use crate::cell::{kary_fabric, kary_window, poisson_websearch, secs_or_dash, Cell};
use crate::report::{Opts, Report, RunSummary};
use crate::scenario::Run;
use crate::schemes;

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

/// Run one scheme on the k-ary fabric through the sharded engine,
/// returning the merged per-shard FCT sketches alongside the cell.
pub fn run_one(opts: &Opts, scheme: &schemes::SchemeSpec) -> (FctAccumulator, Cell) {
    let params = fabric(opts);
    let plan = ShardPlan::new(&params, opts.shards).expect("--shards checked by the CLI");
    // Short windows: a 1024-host all-to-all generates hundreds of flows
    // (and tens of millions of events) per simulated millisecond.
    let window = kary_window(
        opts,
        SimTime::from_ms(2),
        SimTime::from_us(400),
        SimTime::from_ms(50),
    );
    let specs = poisson_websearch(opts, &params, LOAD, window.end, STREAM_TAG);
    let out = Run::new(params, scheme, &specs, window.drain_until, opts.seed)
        .shards(opts.shards)
        .run()
        .expect("--shards checked by the CLI");

    // Aggregate the way the workers produce results: each shard sketches
    // the flows whose sources it owns, the coordinator merges sketches.
    let mut per_shard: Vec<FctAccumulator> = (0..opts.shards)
        .map(|_| FctAccumulator::new(BinSpec::paper()))
        .collect();
    for r in &out.effective_flows() {
        let shard = plan.host_owner(r.src as usize);
        for x in samples(std::slice::from_ref(r), window.start, window.end) {
            per_shard[shard].record_sample(&x);
        }
    }
    let mut acc = per_shard.remove(0);
    for other in &per_shard {
        acc.merge(other);
    }
    (acc, Cell::of(out, window))
}

/// Run the fabric-scale experiment and build the report.
pub fn run(opts: &Opts) -> Report {
    opts.validate();
    let params = fabric(opts);
    let k = params.pods;
    let selection =
        opts.scheme_selection(&[schemes::ecmp(), schemes::flowbender(Default::default())]);

    let mut table = Table::new(vec![
        "scheme", "flows", "complete", "mean", "p99", "ooo", "events",
    ]);
    let mut report = Report::new("fabric_scale");
    let mut shard_stats = Vec::with_capacity(selection.len());
    for scheme in &selection {
        let (acc, c) = run_one(opts, scheme);
        report.run_summary(RunSummary::from_run(
            format!(
                "{}_k{k}_shards{}_seed{}",
                scheme.slug(),
                opts.shards,
                opts.seed
            ),
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
        shard_stats.extend(c.out.shard_stats);
    }

    report.section(
        format!(
            "Fabric scale: websearch all-to-all on a k={k} fat-tree \
             ({} hosts) at {:.0}% load, {} shard(s)",
            params.n_hosts(),
            LOAD * 100.0,
            opts.shards
        ),
        table,
    );
    if let Some(ss) = shard_stats.first() {
        let mut st = Table::new(vec!["shards", "epochs", "handoffs", "lookahead"]);
        for s in &shard_stats {
            st.row(vec![
                s.shards.to_string(),
                s.rounds.to_string(),
                s.handoffs.to_string(),
                fmt_secs(s.lookahead_ps as f64 * 1e-12),
            ]);
        }
        report.section(
            format!(
                "Sharded engine: conservative barrier-epoch sync, \
                 lookahead {}",
                fmt_secs(ss.lookahead_ps as f64 * 1e-12)
            ),
            st,
        );
        report.note(
            "every cross-shard packet handoff is ledgered; exported == imported \
             is asserted at quiesce, and results are byte-identical across shard \
             counts (see the sharded_determinism test)",
        );
    }
    report.note(
        "per-shard FctAccumulator sketches (one per worker, over the sources it \
         owns) are merged for the table above — the aggregation path the sharded \
         engine uses, exact for counts/means and within the sketch guarantee for \
         tails",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke-sized end-to-end run through the sharded engine. Keep the
    /// fabric at k=4 (16 hosts) so `cargo test` stays fast; the k=16
    /// acceptance run is exercised by the CLI / CI smoke step.
    #[test]
    fn smoke_run_produces_consistent_report() {
        let opts = Opts {
            seed: 3,
            topo_k: Some(4),
            shards: 2,
            smoke: true,
            schemes: vec!["ecmp".into()],
            ..Opts::default()
        };
        let r = run(&opts);
        assert_eq!(r.name, "fabric_scale");
        assert!(r.sections[0].0.contains("k=4"));
        assert_eq!(r.sections[0].1.len(), 1, "one scheme row");
        assert!(r.sections[1].0.contains("barrier-epoch"));
        assert!(r.notes.iter().any(|n| n.contains("exported == imported")));
    }

    #[test]
    fn report_is_identical_across_shard_counts() {
        let mk = |shards| Opts {
            seed: 3,
            topo_k: Some(4),
            shards,
            smoke: true,
            schemes: vec!["flowbender".into()],
            ..Opts::default()
        };
        let (a_acc, a) = run_one(&mk(1), &schemes::flowbender(Default::default()));
        let (b_acc, b) = run_one(&mk(2), &schemes::flowbender(Default::default()));
        assert_eq!(a.out.flows.len(), b.out.flows.len());
        assert_eq!(a.fct.completion, b.fct.completion);
        assert_eq!(a_acc.overall().mean(), b_acc.overall().mean());
        assert_eq!(
            a_acc.overall().quantile(0.99),
            b_acc.overall().quantile(0.99)
        );
        assert_eq!(a.out.ooo_frac(), b.out.ooo_frac());
        assert!(
            a.out.shard_stats.is_none(),
            "--shards 1 is the classic engine"
        );
        let ss = b.out.shard_stats.expect("2-shard run reports stats");
        assert_eq!(ss.shards, 2);
        assert!(ss.rounds > 0);
    }
}
