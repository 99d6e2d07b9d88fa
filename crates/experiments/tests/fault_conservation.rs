//! Property test: the packet-conservation ledger balances under
//! *randomized* fault plans — arbitrary interleavings of link flaps and
//! gray loss across every agg→core uplink — for **every scheme in the
//! registry** (ECMP, FlowBender, RPS, DeTail's PFC fabric, flowlet and
//! flowcut switching, and RepFlow's duplicated short flows), across
//! seeds. Whatever the plan does to the fabric, every injected packet —
//! replicas included — must end up delivered, dropped with a recorded
//! reason, or still in flight at the cutoff; nothing leaks, nothing is
//! double-counted. (`Run::run` additionally asserts the same
//! audit internally before returning, so a violation fails twice over.)
//!
//! A second property pins the answer as a function of `(config, seed)`:
//! for every registered scheme, running the same input twice yields a
//! byte-identical [`RunSummary`] JSON — on the randomized-fault input
//! above, on a healthy Poisson all-to-all on a k=8 fat-tree, and on that
//! fabric with a core-switch outage plus a link flap under an armed
//! reconvergence SLO probe (probe output included).

use experiments::report::{Opts, RunSummary};
use experiments::schemes::{self, SchemeSpec};
use experiments::{Run, RunOutput};
use netsim::{DetRng, FaultPlan, FlowSpec, SimTime, SloConfig};
use topology::FatTreeParams;
use workloads::{FlowSizeDist, PoissonStream};

const SEEDS: u64 = 3;

fn chaos_run(scheme: &SchemeSpec, seed: u64) -> RunOutput {
    let params = FatTreeParams::tiny();
    // 8 cross-pod flows (hosts 0..8 are pod 0, 8..16 pod 1). Half are
    // short (50 KB, below the RepFlow replication cut-off) so replicating
    // schemes exercise the duplicate-packet accounting too.
    let specs: Vec<FlowSpec> = (0..8)
        .map(|i| {
            let bytes = if i % 2 == 0 { 50_000 } else { 200_000 };
            FlowSpec::tcp(i, i, 8 + i, bytes, SimTime::ZERO)
        })
        .collect();
    Run::new(params, scheme, &specs, SimTime::from_secs(10), seed)
        .faults(&|ft| {
            // Every agg->core uplink in the fabric is fair game: tiny has
            // 4 aggs x 2 core uplinks each.
            let links: Vec<_> = (0..4)
                .flat_map(|a| (0..2).map(move |k| ft.agg_core_link(a, k)))
                .collect();
            let mut rng = DetRng::new(seed, 0x4E57);
            FaultPlan::randomized(&mut rng, &links, SimTime::from_ms(50), 0.15)
        })
        .run()
}

/// A seeded Poisson web-search all-to-all on a k=8 fat-tree (128 hosts):
/// big enough to push cross-pod traffic through the core tier, with
/// DeTail exercising PFC pause/resume. With `outage`, core 1 — which
/// serves every pod — crashes at 100 µs and revives at 400 µs while a
/// pod-0 uplink flaps, under an armed SLO probe.
fn k8_run(scheme: &SchemeSpec, outage: bool) -> RunOutput {
    const SEED: u64 = 3;
    let params = FatTreeParams::k_ary(8).expect("k=8 is a valid arity");
    let rng = DetRng::new(SEED, 0xDE7);
    let specs: Vec<FlowSpec> = PoissonStream::new(
        &params,
        0.3,
        SimTime::from_us(200),
        FlowSizeDist::web_search(),
        &rng,
    )
    .collect();
    let run = Run::new(params, scheme, &specs, SimTime::from_ms(30), SEED);
    if !outage {
        return run.run();
    }
    let fail_at = SimTime::from_us(100);
    run.slo(SloConfig {
        fail_at,
        bin: SimTime::from_us(50),
    })
    .faults(&|ft| {
        let (agg0, up0) = ft.agg_core_link(0, 0);
        let mut plan = FaultPlan::new();
        plan.switch_outage(ft.cores[1], fail_at, SimTime::from_us(400));
        plan.flap(agg0, up0, SimTime::from_us(150), SimTime::from_us(300));
        plan
    })
    .run()
}

fn summary_json(out: &RunOutput, scheme: &str) -> String {
    RunSummary::from_run("det", scheme, &Opts::default(), 3, out)
        .to_json("fault_conservation")
        .to_string_pretty()
}

#[test]
fn conservation_holds_under_randomized_faults_for_every_registered_scheme() {
    for seed in 0..SEEDS {
        for scheme in schemes::registry() {
            let out = chaos_run(&scheme, seed);
            let c = out.conservation;
            assert!(c.holds(), "seed {seed}, {}: {c}", scheme.name());
            assert!(c.injected > 0, "seed {seed}: the run must inject traffic");
            assert_eq!(
                c.injected,
                c.delivered + c.dropped_total() + c.in_flight,
                "seed {seed}, {}: ledger must balance",
                scheme.name()
            );
            // The audit's per-port rows must agree with its totals.
            let audit = out.drops();
            let row_sum: u64 = audit
                .per_port()
                .iter()
                .flat_map(|(_, counts)| counts.iter())
                .sum();
            assert_eq!(row_sum, audit.total(), "seed {seed}: rows vs totals");
            assert_eq!(audit.totals().iter().sum::<u64>(), c.dropped_total());
            // Replicating schemes must actually have added replica flows
            // (the 50 KB flows qualify), and their packets sit in the same
            // ledger as everyone else's — the balance above covers them.
            if scheme.replication().is_some() {
                assert_eq!(
                    out.replicas.len(),
                    4,
                    "seed {seed}, {}: each short flow gets one replica",
                    scheme.name()
                );
                assert_eq!(out.flows.len(), 12, "8 primaries + 4 replicas");
                assert_eq!(out.effective_flows().len(), 8);
            } else {
                assert!(out.replicas.is_empty());
                assert_eq!(out.flows.len(), 8);
            }
        }
    }
}

#[test]
fn repeated_runs_are_byte_identical_for_every_registered_scheme() {
    type Input = (&'static str, fn(&SchemeSpec) -> RunOutput);
    let inputs: [Input; 3] = [
        ("randomized faults", |s| chaos_run(s, 3)),
        ("k=8 all-to-all", |s| k8_run(s, false)),
        ("k=8 core outage + flap + SLO", |s| k8_run(s, true)),
    ];
    for scheme in schemes::registry() {
        for (what, run) in inputs {
            let (a, b) = (run(&scheme), run(&scheme));
            let json = summary_json(&a, scheme.name());
            assert_eq!(
                json,
                summary_json(&b, scheme.name()),
                "{}, {what}: RunSummary JSON differs between two runs",
                scheme.name()
            );
            assert_eq!(a.events, b.events, "{}, {what}", scheme.name());
            assert_eq!(a.conservation, b.conservation, "{}, {what}", scheme.name());
            assert_eq!(a.drops().per_port(), b.drops().per_port());
            assert!(a.conservation.holds(), "{}, {what}", scheme.name());
            if what.contains("SLO") {
                let slo = a.slo().expect("SLO probe was armed");
                assert!(
                    slo.samples() > 0,
                    "{}: flows must deliver again after the crash",
                    scheme.name()
                );
                assert!(
                    json.contains("\"reconvergence\""),
                    "the summary must carry the SLO section"
                );
            }
        }
    }
}
