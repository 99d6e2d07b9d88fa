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

use netsim::{Counter, DetRng, SimTime};
use stats::{completion_fraction, fmt_secs, samples, BinSpec, FctAccumulator, Table};
use topology::{FatTreeParams, ShardPlan};
use workloads::{FlowSizeDist, PoissonStream};

use crate::report::{Opts, Report, RunSummary};
use crate::scenario::{Run, RunOutput, ShardStats, Window};
use crate::schemes;

/// Offered load (fraction of edge bandwidth). One point, not a sweep —
/// a 1024-host packet run is minutes, and the load sweep story is fig3's.
pub const LOAD: f64 = 0.3;

/// RNG stream tag for the per-source Poisson streams.
const STREAM_TAG: u64 = 0xFA_B51C;

/// One (scheme) result of the fabric-scale run.
#[derive(Debug)]
pub struct FsResult {
    /// Scheme display name.
    pub scheme: String,
    /// Flows the Poisson stream emitted.
    pub flows: usize,
    /// Fraction of in-window flows that completed.
    pub completion: f64,
    /// Overall mean FCT (seconds), from the merged per-shard sketches.
    pub mean_s: f64,
    /// Overall p99 FCT (seconds), same source.
    pub p99_s: f64,
    /// Out-of-order arrival fraction.
    pub ooo_frac: f64,
    /// Events the engine processed (summed over shards).
    pub events: u64,
    /// What the sharded engine did (`None` when `--shards 1`).
    pub shard_stats: Option<ShardStats>,
}

/// The fabric arity this invocation runs: `--topo k=K` if given, else
/// k=16 (1024 hosts) — or k=8 (128 hosts) under `--smoke`.
pub fn arity(opts: &Opts) -> usize {
    opts.topo_k.unwrap_or(if opts.smoke { 8 } else { 16 })
}

/// Run one scheme on the k-ary fabric through the sharded engine,
/// returning the digest alongside the full run output (for JSON export).
pub fn run_one(opts: &Opts, scheme: &schemes::SchemeSpec) -> (FsResult, RunOutput) {
    let params = FatTreeParams::k_ary(arity(opts)).expect("arity checked by Opts::check");
    let plan = ShardPlan::new(&params, opts.shards).expect("shards checked by Opts::check");
    // Short windows: a 1024-host all-to-all generates hundreds of flows
    // (and tens of millions of events) per simulated millisecond.
    let base = if opts.smoke {
        SimTime::from_us(400)
    } else {
        SimTime::from_ms(2)
    };
    let duration = opts.scaled(base);
    let window = Window::for_duration(duration, SimTime::from_ms(50));

    let rng = DetRng::new(opts.seed, STREAM_TAG);
    let stream = PoissonStream::new(&params, LOAD, duration, FlowSizeDist::web_search(), &rng);
    let specs: Vec<netsim::FlowSpec> = stream.collect();

    let out = Run::new(params, scheme, &specs, window.drain_until, opts.seed)
        .shards(opts.shards)
        .run()
        .expect("shard plan checked by Opts::check");

    // Aggregate the way the workers produce results: each shard sketches
    // the flows whose sources it owns, the coordinator merges sketches.
    let flows = out.effective_flows();
    let mut per_shard: Vec<FctAccumulator> = (0..opts.shards)
        .map(|_| FctAccumulator::new(BinSpec::paper()))
        .collect();
    for r in &flows {
        let shard = plan.host_owner(r.src as usize);
        for x in samples(std::slice::from_ref(r), window.start, window.end) {
            per_shard[shard].record_sample(&x);
        }
    }
    let mut acc = per_shard.remove(0);
    for other in &per_shard {
        acc.merge(other);
    }

    let data = out.get(Counter::DataPktsRcvd).max(1);
    let digest = FsResult {
        scheme: scheme.name().to_string(),
        flows: specs.len(),
        completion: completion_fraction(&flows, window.start, window.end),
        mean_s: acc.overall().mean().unwrap_or(0.0),
        p99_s: acc.overall().quantile(0.99).unwrap_or(0.0),
        ooo_frac: out.get(Counter::OooPktsRcvd) as f64 / data as f64,
        events: out.events,
        shard_stats: out.shard_stats,
    };
    (digest, out)
}

/// Run the fabric-scale experiment and build the report.
pub fn run(opts: &Opts) -> Report {
    opts.validate();
    let k = arity(opts);
    let params = FatTreeParams::k_ary(k).expect("arity checked by Opts::check");
    let selection =
        opts.scheme_selection(&[schemes::ecmp(), schemes::flowbender(Default::default())]);

    let mut table = Table::new(vec![
        "scheme", "flows", "complete", "mean", "p99", "ooo", "events",
    ]);
    let mut results = Vec::with_capacity(selection.len());
    let mut summaries = Vec::with_capacity(selection.len());
    for scheme in &selection {
        let (r, out) = run_one(opts, scheme);
        summaries.push(RunSummary::from_run(
            format!(
                "{}_k{k}_shards{}_seed{}",
                scheme.slug(),
                opts.shards,
                opts.seed
            ),
            scheme.name(),
            opts,
            opts.seed,
            &out,
        ));
        table.row(vec![
            r.scheme.clone(),
            r.flows.to_string(),
            format!("{:.1}%", r.completion * 100.0),
            if r.mean_s > 0.0 {
                fmt_secs(r.mean_s)
            } else {
                "-".into()
            },
            if r.p99_s > 0.0 {
                fmt_secs(r.p99_s)
            } else {
                "-".into()
            },
            format!("{:.3}%", r.ooo_frac * 100.0),
            r.events.to_string(),
        ]);
        results.push(r);
    }

    let mut report = Report::new("fabric_scale");
    for s in summaries {
        report.run_summary(s);
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
    if let Some(ss) = results.iter().find_map(|r| r.shard_stats) {
        let mut st = Table::new(vec!["shards", "epochs", "handoffs", "lookahead"]);
        for r in &results {
            let s = r.shard_stats.expect("all runs share one shard count");
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
        let (a, _) = run_one(&mk(1), &schemes::flowbender(Default::default()));
        let (b, _) = run_one(&mk(2), &schemes::flowbender(Default::default()));
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.completion, b.completion);
        assert_eq!(a.mean_s, b.mean_s);
        assert_eq!(a.p99_s, b.p99_s);
        assert_eq!(a.ooo_frac, b.ooo_frac);
        assert!(a.shard_stats.is_none(), "--shards 1 is the classic engine");
        let ss = b.shard_stats.expect("2-shard run reports stats");
        assert_eq!(ss.shards, 2);
        assert!(ss.rounds > 0);
    }
}
