//! Property test for the chaos engine: deterministic fault injection on
//! the sharded runner. For **every registered scheme**, a randomized
//! [`FaultPlan`] (flaps and gray loss over agg→core uplinks — the
//! cross-shard tier) produces a [`RunSummary`] JSON **byte-identical**
//! across shard counts, and the packet-conservation ledger balances with
//! faults active — asserted by the runner after every epoch, re-checked
//! here at quiesce. A second property pins the whole-switch path: a core
//! crash + revival (whose directed transitions fan out to *every* pod,
//! so most travel through the epoch mailbox) with an armed reconvergence
//! SLO probe stays byte-identical at 1, 2, 4, and 8 shards, probe
//! output included.
//!
//! Traffic is a seeded Poisson all-to-all on a k=8 fat-tree — tie-free
//! arrivals, the precondition for cross-shard byte-identity (see
//! `experiments::Run`).

use experiments::report::{Opts, RunSummary};
use experiments::{schemes, Run};
use netsim::{DetRng, FaultPlan, FlowSpec, SimTime, SloConfig};
use topology::FatTreeParams;
use workloads::{FlowSizeDist, PoissonStream};

const SEED: u64 = 3;

fn fabric() -> FatTreeParams {
    FatTreeParams::k_ary(8).expect("k=8 is a valid arity")
}

/// The same seeded stream `sharded_determinism` uses: proven tie-free for
/// every registered scheme. (Heavy-tailed size draws make tie-freedom
/// seed-dependent — a stream that lands a large elephant saturates links
/// for the whole run, and saturated parallel paths produce same-picosecond
/// arrivals that the engines order differently.)
fn traffic(params: &FatTreeParams) -> Vec<FlowSpec> {
    let rng = DetRng::new(SEED, 0xDE7);
    PoissonStream::new(
        params,
        0.3,
        SimTime::from_us(200),
        FlowSizeDist::web_search(),
        &rng,
    )
    .collect()
}

fn summary_json(out: &experiments::RunOutput, scheme: &str) -> String {
    let opts = Opts {
        seed: SEED,
        ..Opts::default()
    };
    RunSummary::from_run("faults", scheme, &opts, SEED, out)
        .to_json("sharded_faults")
        .to_string_pretty()
}

#[test]
fn randomized_fault_plans_are_byte_identical_across_shard_counts() {
    let params = fabric();
    let specs = traffic(&params);
    assert!(!specs.is_empty());
    let until = SimTime::from_ms(30);

    for scheme in schemes::registry() {
        let run = |shards: usize| {
            Run::new(params, &scheme, &specs, until, SEED)
                .shards(shards)
                .faults(&|ft| {
                    // Pod 0's aggs towards their first two cores each:
                    // every one of these links crosses a shard boundary at
                    // some tested shard count, so the randomized flap/gray
                    // schedule exercises the Handoff::Fault path.
                    let links: Vec<_> = (0..4)
                        .flat_map(|a| (0..2).map(move |k| ft.agg_core_link(a, k)))
                        .collect();
                    let mut rng = DetRng::new(SEED, 0xC4A05);
                    FaultPlan::randomized(&mut rng, &links, SimTime::from_ms(20), 0.10)
                })
                .run()
                .unwrap_or_else(|e| panic!("{shards} shards on k=8: {e}"))
        };

        let base = run(1);
        assert!(
            base.conservation.holds(),
            "{}: faulted classic run must balance",
            scheme.name()
        );
        let base_json = summary_json(&base, scheme.name());
        for shards in [2usize, 4] {
            let out = run(shards);
            assert_eq!(
                out.conservation,
                base.conservation,
                "{} at {shards} shards: merged ledger diverged under faults",
                scheme.name()
            );
            assert_eq!(
                base_json,
                summary_json(&out, scheme.name()),
                "{} at {shards} shards: faulted RunSummary JSON diverged",
                scheme.name()
            );
        }
    }
}

#[test]
fn core_crash_with_slo_probe_is_byte_identical_up_to_eight_shards() {
    let params = fabric();
    let specs = traffic(&params);
    let until = SimTime::from_ms(30);
    let fail_at = SimTime::from_us(100);
    let slo = SloConfig {
        fail_at,
        bin: SimTime::from_us(50),
    };
    let scheme = schemes::flowbender(flowbender::Config::default());

    let run = |shards: usize| {
        Run::new(params, &scheme, &specs, until, SEED)
            .shards(shards)
            .slo(slo)
            .faults(&|ft| {
                // Core 1 serves every pod; at 2+ shards its crash compiles
                // on its owner and fans directed faults out to aggs in
                // other shards through the mailbox. A flap on a pod-0
                // uplink rides along so link- and switch-scale faults mix.
                let (agg0, up0) = ft.agg_core_link(0, 0);
                let mut plan = FaultPlan::new();
                plan.switch_outage(ft.cores[1], fail_at, SimTime::from_us(400));
                plan.flap(agg0, up0, SimTime::from_us(150), SimTime::from_us(300));
                plan
            })
            .run()
            .unwrap_or_else(|e| panic!("{shards} shards on k=8: {e}"))
    };

    let base = run(1);
    let slo_out = base.slo().expect("SLO probe was armed");
    assert!(
        slo_out.samples() > 0,
        "flows must deliver again after the crash"
    );
    let base_json = summary_json(&base, scheme.name());
    assert!(
        base_json.contains("\"reconvergence\""),
        "the summary must carry the SLO section"
    );
    for shards in [2usize, 4, 8] {
        let out = run(shards);
        assert_eq!(
            base_json,
            summary_json(&out, scheme.name()),
            "{shards} shards: crash+SLO RunSummary JSON diverged"
        );
        assert_eq!(out.conservation, base.conservation, "{shards} shards");
    }
}
