//! Extension — RepFlow-style short-flow replication vs rerouting: every
//! TCP flow under 100 KB is sent twice with different V fields and the
//! first finisher wins, trading ~a doubling of short-flow load for path
//! diversity without any congestion signal at all.
//!
//! Expected shape: replication shortens the short-flow tail (p99) versus
//! ECMP because at least one copy usually dodges the collided path, while
//! FlowBender gets a similar tail with no duplicate traffic; long flows
//! are untouched by replication. The point of the experiment — and of the
//! `RepFlow` registry entry — is that a scheme with a *host-side flow
//! transformation* (not just a switch config or a path controller) still
//! fits the one-file [`crate::schemes`] recipe.

use netsim::SimTime;
use stats::{fmt_ratio, fmt_secs, Table};
use topology::FatTreeParams;
use workloads::Workload;

use crate::cell::{baseline, windowed_cell, Cell};
use crate::report::{Opts, Report, RunSummary};
use crate::scenario::{parallel_map, run_fat_tree, RunOutput};
use crate::schemes::{self, SchemeSpec};

/// Flows below this size count as "short" in the report tables — the same
/// 100 KB cut-off [`schemes::repflow`] replicates under.
pub const SHORT_BYTES: u64 = 100_000;

/// Run the 40 % web-search all-to-all workload once per scheme.
pub fn sweep(opts: &Opts, schemes: &[SchemeSpec]) -> Vec<Cell> {
    opts.validate();
    let params = FatTreeParams::paper();
    parallel_map(schemes.to_vec(), |scheme| {
        let (specs, window) = windowed_cell(
            opts,
            &params,
            Workload::Websearch,
            0.4,
            SimTime::from_ms(60),
            0x4EBF,
        );
        let out = run_fat_tree(params, &scheme, &specs, window.drain_until, opts.seed);
        Cell::of(out, window)
    })
}

/// Extra data the replicas carried, as a fraction of the primaries' bytes.
pub fn overhead_frac(out: &RunOutput) -> f64 {
    let bytes = |i: usize| out.flows[i].bytes;
    let replicas: u64 = out.replicas.iter().map(|&(p, _)| bytes(p as usize)).sum();
    // Replica flows are appended after the primaries (dense ids).
    let primaries: u64 = (0..out.flows.len() - out.replicas.len()).map(bytes).sum();
    replicas as f64 / primaries.max(1) as f64
}

/// The machine-readable summary of one scheme's run.
fn summary(opts: &Opts, scheme: &SchemeSpec, out: &RunOutput) -> RunSummary {
    let label = format!("{}_seed{}", scheme.slug(), opts.seed);
    RunSummary::from_run(label, scheme.name(), opts, opts.seed, out)
}

/// Produce the replication-vs-rerouting report.
pub fn run(opts: &Opts) -> Report {
    let selection = opts.scheme_selection(&[
        schemes::ecmp(),
        schemes::flowbender(flowbender::Config::default()),
        schemes::repflow(),
    ]);
    let cells = sweep(opts, &selection);
    let short = |c: &Cell| c.fct.only(|s| s.bytes < SHORT_BYTES);
    let long = |c: &Cell| c.fct.only(|s| s.bytes >= SHORT_BYTES);
    let base = baseline(&selection);
    let (base_short, base_long) = (short(&cells[base]), long(&cells[base]));
    let mut table = Table::new(vec![
        "scheme",
        "short mean (norm.)",
        "short p99 (norm.)",
        "long mean (norm.)",
        "short flows",
        "replicas",
        "overhead",
        "short mean abs",
    ]);
    let mut report = Report::new("repflow");
    for (scheme, c) in selection.iter().zip(&cells) {
        let short = short(c);
        table.row(vec![
            scheme.name().to_string(),
            fmt_ratio(short.mean() / base_short.mean()),
            fmt_ratio(short.quantile(0.99) / base_short.quantile(0.99)),
            fmt_ratio(long(c).mean() / base_long.mean()),
            short.n().to_string(),
            c.out.replicas.len().to_string(),
            format!("{:.1}%", overhead_frac(&c.out) * 100.0),
            fmt_secs(short.mean()),
        ]);
        report.run_summary(summary(opts, scheme, &c.out));
    }
    report.section(
        format!(
            "RepFlow vs rerouting: short-flow (<100KB) FCT on 40% all-to-all, normalized to {}",
            selection[base].name()
        ),
        table,
    );
    report.note(
        "replication buys short-flow tail latency with duplicate bytes; \
         FlowBender buys it with reactive rerouting and zero overhead",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Counter;

    #[test]
    fn replication_adds_replicas_and_helps_or_matches_the_short_tail() {
        let opts = Opts {
            scale: 0.15,
            seed: 7,
            ..Opts::default()
        };
        let selection = [schemes::ecmp(), schemes::repflow()];
        let results = sweep(&opts, &selection);
        let (ecmp, rep) = (&results[0], &results[1]);
        assert_eq!(ecmp.out.replicas.len(), 0);
        assert!(!rep.out.replicas.is_empty(), "RepFlow injected no replicas");
        let overhead = overhead_frac(&rep.out);
        assert!(overhead > 0.0 && overhead < 1.0);
        let short = |c: &Cell| c.fct.only(|s| s.bytes < SHORT_BYTES);
        let (ecmp_short, rep_short) = (short(ecmp), short(rep));
        assert!(
            ecmp_short.n() > 50 && rep_short.n() > 50,
            "too few short flows"
        );
        // First-finisher-wins can't make the merged completion later than
        // the primary alone up to scheduling noise; on a congested fabric
        // the short tail should not regress materially.
        assert!(
            rep_short.quantile(0.99) <= ecmp_short.quantile(0.99) * 1.25,
            "RepFlow p99 {} vs ECMP {}",
            rep_short.quantile(0.99),
            ecmp_short.quantile(0.99)
        );
        // The summaries carry the reroute counters for the JSON artifact.
        assert!(selection
            .iter()
            .zip(&results)
            .all(|(s, c)| summary(&opts, s, &c.out)
                .counters
                .iter()
                .any(|(n, _)| n == "reroutes")));
    }

    #[test]
    fn run_emits_one_json_summary_per_scheme() {
        let opts = Opts {
            scale: 0.1,
            seed: 3,
            schemes: vec!["ecmp".into(), "repflow".into()],
            ..Opts::default()
        };
        let report = run(&opts);
        assert_eq!(report.runs.len(), 2);
        assert_eq!(report.runs[0].label, "ecmp_seed3");
        assert_eq!(report.runs[1].label, "repflow_seed3");
        assert_eq!(report.name, "repflow");
    }

    #[test]
    #[allow(clippy::absurd_extreme_comparisons)]
    fn counter_names_exist_for_duplicate_accounting() {
        // The ledger treats replica packets as ordinary data packets; the
        // conservation audit inside every runner covers them. This test
        // pins the counter the sweep leans on.
        assert!(Counter::all().iter().any(|c| c.name() == "reroutes"));
    }
}
