//! §1/§3.3.2 claim — failure recovery "essentially within an RTO":
//! FlowBender treats a retransmission timeout as the failure signal and
//! rehashes immediately, so a flow whose path dies resumes within ~RTO
//! (10 ms) instead of waiting O(seconds) for routing to reconverge (which,
//! in these runs, never happens at all).
//!
//! Setup: long ToR-to-ToR flows across pods on the paper fat-tree; at
//! t = 5 ms one agg→core link in the source pod fails. ECMP flows whose
//! hash lands on the dead link black-hole forever; FlowBender flows take
//! one RTO, bend, and finish.

use netsim::{Counter, FaultPlan, SimTime};
use stats::{fmt_secs, Table};
use topology::FatTreeParams;
use workloads::microbench;

use crate::report::{Opts, Report};
use crate::scenario::{parallel_map, Run};
use crate::schemes::{self, SchemeSpec};

/// Result of one scheme's failure run.
#[derive(Debug)]
pub struct FailureResult {
    /// Scheme display name (parameters included).
    pub scheme: String,
    /// Flows that completed (of `flows`).
    pub completed: usize,
    /// Total flows.
    pub flows: usize,
    /// Timeouts observed.
    pub timeouts: u64,
    /// FlowBender reroutes triggered by timeouts.
    pub timeout_reroutes: u64,
    /// Worst FCT among completed flows (s).
    pub max_fct_s: f64,
}

/// Run the failure experiment for one scheme. `shards` selects the
/// engine (`--shards N`); the failure is a [`FaultPlan::kill`] — both
/// link directions die. As in the gray-failure microbenchmark, the
/// synchronized flows tie at shared switches, so a sharded run is a
/// reproducible parallel execution rather than a byte-replica of
/// `shards == 1` (see [`Run`]). Errors on shard counts the paper fabric
/// (4 pods) cannot host.
pub fn run_scheme(
    scheme: &SchemeSpec,
    bytes: u64,
    fail_at: SimTime,
    seed: u64,
    shards: usize,
) -> Result<FailureResult, String> {
    let params = FatTreeParams::paper();
    // 16 flows: two per host pair between ToR0/pod0 and ToR0/pod1.
    let specs = microbench(&params, 16, bytes);
    let out = Run::new(params, scheme, &specs, SimTime::from_secs(60), seed)
        .shards(shards)
        .faults(&|ft| {
            // Fail agg 0 of pod 0's first core uplink: one of the 8
            // inter-pod paths dies. Packets already hashed onto it
            // black-hole.
            let (node, port) = ft.agg_core_link(0, 0);
            let mut plan = FaultPlan::new();
            plan.kill(node, port, fail_at);
            plan
        })
        .run()?;
    let fcts: Vec<f64> = out
        .flows
        .iter()
        .filter_map(|f| f.fct())
        .map(|t| t.as_secs_f64())
        .collect();
    Ok(FailureResult {
        scheme: scheme.name().to_string(),
        completed: fcts.len(),
        flows: specs.len(),
        timeouts: out.get(Counter::Timeouts),
        timeout_reroutes: out.get(Counter::TimeoutReroutes),
        max_fct_s: fcts.iter().cloned().fold(0.0, f64::max),
    })
}

/// Produce the report.
pub fn run(opts: &Opts) -> Report {
    opts.validate();
    let bytes = (10_000_000.0 * opts.scale) as u64;
    let fail_at = SimTime::from_ms(5);
    let contenders = vec![
        schemes::ecmp(),
        schemes::flowbender(flowbender::Config::default()),
    ];
    let results = parallel_map(contenders, |s| {
        run_scheme(&s, bytes, fail_at, opts.seed, opts.shards).unwrap_or_else(|e| panic!("{e}"))
    });

    let mut table = Table::new(vec![
        "scheme",
        "completed",
        "timeouts",
        "timeout reroutes",
        "max FCT",
    ]);
    for r in &results {
        table.row(vec![
            r.scheme.to_string(),
            format!("{}/{}", r.completed, r.flows),
            r.timeouts.to_string(),
            r.timeout_reroutes.to_string(),
            if r.completed > 0 {
                fmt_secs(r.max_fct_s)
            } else {
                "-".to_string()
            },
        ]);
    }
    let mut rep = Report::new("link_failure");
    rep.section(
        format!(
            "Link failure at {}: agg0->core0 in the source pod dies under 16 cross-pod flows",
            fmt_secs(fail_at.as_secs_f64())
        ),
        table,
    );
    rep.note("paper claim: FlowBender recovers within ~an RTO (10ms); ECMP flows on the dead path stall until routing reconverges (never, here)");
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flowbender_survives_failure_ecmp_strands_flows() {
        let bytes = 3_000_000;
        let ecmp = run_scheme(&schemes::ecmp(), bytes, SimTime::from_ms(2), 21, 1).unwrap();
        let fb = run_scheme(
            &schemes::flowbender(flowbender::Config::default()),
            bytes,
            SimTime::from_ms(2),
            21,
            1,
        )
        .unwrap();
        assert_eq!(fb.completed, fb.flows, "FlowBender must complete all flows");
        assert!(
            fb.timeout_reroutes > 0,
            "recovery must go through timeout reroutes"
        );
        assert!(
            ecmp.completed < ecmp.flows,
            "ECMP should strand the flows hashed onto the dead path"
        );
        // Recovery is RTO-scale: with a 10ms RTO floor the whole 3MB flow
        // set still finishes far faster than any routing reconvergence.
        assert!(fb.max_fct_s < 5.0, "max fct = {}", fb.max_fct_s);
    }

    #[test]
    fn sharded_failure_run_strands_the_same_flows() {
        // Like the gray-failure microbenchmark, the synchronized flows
        // here tie at shared switches, so shards > 1 is not a byte-replica
        // of the classic engine — but the *experiment's* outcome (which
        // hash buckets black-hole) is topology-determined and must agree,
        // and a fixed shard count must reproduce exactly.
        let bytes = 400_000;
        let one = run_scheme(&schemes::ecmp(), bytes, SimTime::from_ms(2), 21, 1).unwrap();
        for shards in [2, 4] {
            let n = run_scheme(&schemes::ecmp(), bytes, SimTime::from_ms(2), 21, shards).unwrap();
            assert_eq!(one.completed, n.completed, "shards={shards}");
            let again =
                run_scheme(&schemes::ecmp(), bytes, SimTime::from_ms(2), 21, shards).unwrap();
            assert_eq!(
                n.max_fct_s.to_bits(),
                again.max_fct_s.to_bits(),
                "shards={shards}"
            );
        }
    }
}
