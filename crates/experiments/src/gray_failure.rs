//! Extension — the paper's failure argument (§1/§3.3.2) under a *gray*
//! failure: a link that is nominally up but silently dropping a fraction
//! of the packets crossing it (a flaky transceiver, a corrupting optic).
//!
//! Routing never reacts — the link reports healthy — so ECMP keeps
//! hashing the same unlucky flows onto it, and every retransmission
//! takes the same lossy path: their FCTs become timeout-dominated or the
//! flows stall outright. FlowBender sees the very same timeouts, treats
//! them as its failure signal, and bends the flow onto a clean path.
//!
//! Setup: 16 cross-pod flows on the paper fat-tree; one agg→core uplink
//! in the source pod drops packets with probability `loss` from t = 0
//! (via [`netsim::FaultPlan::gray_loss`]). We sweep `loss` over
//! {0.5%, 1%, 2%, 4%} for ECMP and FlowBender. Drop-reason audits in the
//! JSON summaries localize the gray loss to the faulted egress.

use netsim::{Counter, DropReason, FaultPlan, SimTime, TraceConfig};
use stats::{fmt_secs, Table};
use topology::FatTreeParams;
use workloads::microbench;

use crate::report::{Opts, Report, RunSummary};
use crate::scenario::{parallel_map, traced_replay, Run, RunOutput};
use crate::schemes::{self, SchemeSpec};

/// The loss rates swept by the committed experiment.
pub const LOSS_RATES: [f64; 4] = [0.005, 0.01, 0.02, 0.04];

/// Result of one `(scheme, loss rate)` run.
#[derive(Debug)]
pub struct GrayResult {
    /// Scheme display name (parameters included).
    pub scheme: String,
    /// Per-packet drop probability on the gray link.
    pub loss: f64,
    /// Flows that completed (of `flows`).
    pub completed: usize,
    /// Total flows.
    pub flows: usize,
    /// Timeouts observed.
    pub timeouts: u64,
    /// FlowBender reroutes triggered by timeouts.
    pub timeout_reroutes: u64,
    /// Packets the gray link silently ate ([`DropReason::GrayLoss`]).
    pub gray_drops: u64,
    /// Worst FCT among completed flows (s).
    pub max_fct_s: f64,
}

/// Run one scheme against one gray-loss rate on `shards` engine threads,
/// with the flight recorder on for the flows `trace` selects. Apart from
/// the timelines in `out.results.timelines()`, a traced run's output is
/// byte-identical to the untraced run at the same seed. This
/// microbenchmark's synchronized flows tie at shared switches, so a
/// sharded run is a reproducible parallel execution of the same
/// experiment rather than a byte-replica of `shards == 1` (see
/// [`Run`]). Errors on what [`Run::run`] rejects — here, shard counts
/// the paper fabric (4 pods) cannot host, or tracing with `shards > 1`.
pub fn run_scheme(
    scheme: &SchemeSpec,
    loss: f64,
    bytes: u64,
    seed: u64,
    shards: usize,
    trace: TraceConfig,
) -> Result<(GrayResult, RunOutput), String> {
    let params = FatTreeParams::paper();
    // 16 flows: two per host pair between ToR0/pod0 and ToR0/pod1.
    let specs = microbench(&params, 16, bytes);
    let out = Run::new(params, scheme, &specs, SimTime::from_secs(60), seed)
        .shards(shards)
        .trace(trace)
        .faults(&|ft| {
            // Gray out agg 0 of pod 0's first core uplink: one of the 8
            // inter-pod paths silently loses packets from the start.
            let (node, port) = ft.agg_core_link(0, 0);
            let mut plan = FaultPlan::new();
            plan.gray_loss(node, port, loss, SimTime::ZERO);
            plan
        })
        .run()?;
    Ok((summarize(scheme, loss, specs.len(), &out), out))
}

/// Fold one finished run into its table row.
fn summarize(scheme: &SchemeSpec, loss: f64, flows: usize, out: &RunOutput) -> GrayResult {
    let fcts: Vec<f64> = out
        .flows
        .iter()
        .filter_map(|f| f.fct())
        .map(|t| t.as_secs_f64())
        .collect();
    GrayResult {
        scheme: scheme.name().to_string(),
        loss,
        completed: fcts.len(),
        flows,
        timeouts: out.get(Counter::Timeouts),
        timeout_reroutes: out.get(Counter::TimeoutReroutes),
        gray_drops: out.drops().by_reason(DropReason::GrayLoss),
        max_fct_s: fcts.iter().cloned().fold(0.0, f64::max),
    }
}

/// Produce the report: the sweep table plus one JSON run summary per
/// `(scheme, loss)` cell (each carrying its per-port drop audit).
pub fn run(opts: &Opts) -> Report {
    opts.validate();
    let bytes = (10_000_000.0 * opts.scale) as u64;
    let mut jobs: Vec<(SchemeSpec, f64)> = Vec::new();
    for &loss in &LOSS_RATES {
        jobs.push((schemes::ecmp(), loss));
        jobs.push((schemes::flowbender(flowbender::Config::default()), loss));
    }
    let runs = parallel_map(jobs, |(scheme, loss)| {
        let cell = |trace| {
            run_scheme(&scheme, loss, bytes, opts.seed, opts.shards, trace)
                .unwrap_or_else(|e| panic!("{e}"))
        };
        let (r, out) = cell(TraceConfig::off());
        let timelines = traced_replay(&opts.trace, &out, |cfg| cell(cfg).1);
        (r, out, timelines)
    });

    let mut table = Table::new(vec![
        "loss",
        "scheme",
        "completed",
        "timeouts",
        "timeout reroutes",
        "gray drops",
        "max FCT",
    ]);
    let mut rep = Report::new("gray_failure");
    for (r, out, timelines) in &runs {
        table.row(vec![
            format!("{:.1}%", r.loss * 100.0),
            r.scheme.to_string(),
            format!("{}/{}", r.completed, r.flows),
            r.timeouts.to_string(),
            r.timeout_reroutes.to_string(),
            r.gray_drops.to_string(),
            if r.completed > 0 {
                fmt_secs(r.max_fct_s)
            } else {
                "-".to_string()
            },
        ]);
        // `--shards 1` keeps the historical labels (and so the committed
        // JSON file names); parallel runs are tagged with their shard
        // count even though the bytes inside are identical.
        let mut label = format!(
            "{}_pm{}",
            r.scheme.to_lowercase(),
            (r.loss * 1000.0).round() as u32
        );
        if opts.shards > 1 {
            label.push_str(&format!("_shards{}", opts.shards));
        }
        rep.run_summary(RunSummary::from_run(
            label.clone(),
            &r.scheme,
            opts,
            opts.seed,
            out,
        ));
        rep.trace_timelines(label, timelines.clone());
    }
    rep.section(
        "Gray failure: one agg->core uplink silently drops packets under 16 cross-pod flows",
        table,
    );
    rep.note("the link stays 'up', so routing never reconverges: ECMP flows hashed onto it retransmit into the same loss and go timeout-dominated (or stall); FlowBender bends off after the first RTO");
    rep.note("gray drops localize to the faulted egress in each run's JSON drop audit");
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(
        scheme: &SchemeSpec,
        loss: f64,
        bytes: u64,
        seed: u64,
        shards: usize,
    ) -> (GrayResult, RunOutput) {
        run_scheme(scheme, loss, bytes, seed, shards, TraceConfig::off()).unwrap()
    }

    #[test]
    fn flowbender_escapes_gray_link_ecmp_suffers() {
        let bytes = 3_000_000;
        let loss = 0.04;
        let (ecmp, ecmp_out) = plain(&schemes::ecmp(), loss, bytes, 11, 1);
        let (fb, _) = plain(
            &schemes::flowbender(flowbender::Config::default()),
            loss,
            bytes,
            11,
            1,
        );
        assert!(ecmp.gray_drops > 0, "the gray link must actually drop");
        assert_eq!(fb.completed, fb.flows, "FlowBender must complete all flows");
        assert!(
            fb.timeout_reroutes > 0,
            "escape must go through timeout reroutes"
        );
        // ECMP either strands flows on the lossy path or limps home
        // timeout-dominated: >= 5x FlowBender's worst FCT.
        assert!(
            ecmp.completed < ecmp.flows || ecmp.max_fct_s >= 5.0 * fb.max_fct_s,
            "ECMP should stall or be >=5x slower: ecmp {}/{} max {}s vs fb max {}s",
            ecmp.completed,
            ecmp.flows,
            ecmp.max_fct_s,
            fb.max_fct_s
        );
        // The audit pins every gray drop to the one faulted egress.
        let rows = ecmp_out.drops().per_port();
        let gray_rows: Vec<_> = rows
            .iter()
            .filter(|(_, c)| c[DropReason::GrayLoss as usize] > 0)
            .collect();
        assert_eq!(gray_rows.len(), 1, "gray loss localized to one port");
        assert!(ecmp_out.conservation.holds());
    }

    #[test]
    fn sharded_gray_run_is_audited_and_reproducible() {
        // This microbenchmark's 16 synchronized flows produce same-instant
        // arrival ties at shared switches, whose resolution order is
        // engine-specific (see `scenario::Run`), so shards
        // > 1 is parallel execution of the same experiment rather than a
        // byte-replica of the classic run. What must hold: the behavioral
        // outcome, the conservation audit, and exact reproducibility at a
        // fixed shard count. (Byte-identity across shard counts is pinned
        // by the Poisson-workload property suite in tests/sharded_faults.)
        let bytes = 500_000;
        let (a, ao) = plain(&schemes::ecmp(), 0.01, bytes, 7, 1);
        for shards in [2, 4] {
            let (b, bo) = plain(&schemes::ecmp(), 0.01, bytes, 7, shards);
            assert_eq!(a.completed, b.completed, "shards={shards}");
            assert_eq!(ao.flows.len(), bo.flows.len(), "shards={shards}");
            assert!(b.gray_drops > 0, "shards={shards}: the gray link drops");
            assert!(bo.conservation.holds(), "shards={shards}");
            let (b2, bo2) = plain(&schemes::ecmp(), 0.01, bytes, 7, shards);
            assert_eq!(
                b.max_fct_s.to_bits(),
                b2.max_fct_s.to_bits(),
                "shards={shards}"
            );
            assert_eq!(bo.events, bo2.events, "shards={shards}");
            assert_eq!(bo.conservation, bo2.conservation, "shards={shards}");
        }
        let err = run_scheme(&schemes::ecmp(), 0.01, bytes, 7, 8, TraceConfig::off()).unwrap_err();
        assert!(err.contains("4 pods"), "paper fabric has 4 pods: {err}");
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let bytes = 500_000;
        let (a, ao) = plain(&schemes::ecmp(), 0.01, bytes, 7, 1);
        let (b, bo) = plain(&schemes::ecmp(), 0.01, bytes, 7, 1);
        assert_eq!(a.gray_drops, b.gray_drops);
        assert_eq!(a.timeouts, b.timeouts);
        assert_eq!(a.max_fct_s.to_bits(), b.max_fct_s.to_bits());
        assert_eq!(ao.events, bo.events);
        assert_eq!(ao.conservation, bo.conservation);
    }
}
