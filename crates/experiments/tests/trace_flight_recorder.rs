//! End-to-end tests of the flow flight recorder: a traced run must be an
//! exact replay of the untraced run (same seed, byte-identical normal
//! outputs), the timelines themselves must serialize deterministically,
//! and the gray-failure experiment must attach decision-bearing
//! timelines when `--trace` is on.

use experiments::gray_failure::{gray_drops, run, run_scheme};
use experiments::{slowest_flows, timeline_json, Opts, RunSummary, SchemeSpec, TraceSel};
use netsim::{Counter, TraceConfig};

const BYTES: u64 = 3_000_000;
const LOSS: f64 = 0.02;
const SEED: u64 = 21;

fn fb() -> SchemeSpec {
    experiments::schemes::flowbender(flowbender::Config::default())
}

/// One gray-failure cell, traced per `cfg`.
fn cell(scheme: &SchemeSpec, cfg: TraceConfig) -> experiments::Cell {
    run_scheme(scheme, LOSS, BYTES, SEED, cfg)
}

#[test]
fn traced_run_leaves_normal_outputs_byte_identical() {
    let scheme = fb();
    let r_plain = cell(&scheme, TraceConfig::off());
    let cfg = TraceConfig::flows((0..16).collect());
    let r_traced = cell(&scheme, cfg);
    let (plain, traced) = (&r_plain.out, &r_traced.out);

    // The pinned machine-readable summary — counters, FCT percentiles,
    // drop audit, event count — must not move by a byte.
    let opts = Opts::default();
    let a = RunSummary::from_run("cell", scheme.name(), &opts, SEED, plain)
        .to_json("gray_failure")
        .to_string();
    let b = RunSummary::from_run("cell", scheme.name(), &opts, SEED, traced)
        .to_json("gray_failure")
        .to_string();
    assert_eq!(a, b, "tracing changed the run summary");
    assert_eq!(gray_drops(&r_plain), gray_drops(&r_traced));
    assert_eq!(r_plain.fct.max().to_bits(), r_traced.fct.max().to_bits());

    // Untraced runs carry no timelines; the traced run carries one per
    // selected flow, populated with the event kinds the recorder covers.
    assert!(plain.timelines().is_empty());
    let tls = traced.timelines();
    assert_eq!(tls.len(), 16);
    let total = |kind: &str| tls.iter().map(|t| t.count_kind(kind)).sum::<usize>();
    assert!(total("hop") > 0, "hop traversals recorded");
    assert!(total("enqueue") > 0, "enqueues recorded");
    assert!(total("ecn_mark") > 0, "ECN marks recorded");
    assert!(total("decision") > 0, "path-controller reroutes recorded");
    assert!(total("rto_fire") > 0, "RTO fires recorded");
    assert!(total("cwnd") > 0, "cwnd changes recorded");
    assert!(
        traced.get(Counter::TimeoutReroutes) > 0,
        "the escape actually happened"
    );
}

#[test]
fn timeline_json_is_deterministic_across_runs_and_scheme_order() {
    let scheme = fb();
    let probe = cell(&scheme, TraceConfig::off()).out;
    let ids = slowest_flows(&probe, 2);
    assert_eq!(ids.len(), 2);
    let cfg = TraceConfig::flows(ids);

    let first = cell(&scheme, cfg.clone()).out;
    // Interleave an unrelated ECMP run: every run is an independent
    // simulation, so what else ran (and in what order) must not leak
    // into the timelines.
    let _ = cell(&experiments::schemes::ecmp(), TraceConfig::off());
    let second = cell(&scheme, cfg).out;

    let ser = |out: &experiments::RunOutput| -> Vec<String> {
        out.timelines()
            .iter()
            .map(|t| timeline_json("gray_failure", "cell", t).to_string_pretty())
            .collect()
    };
    let (ja, jb) = (ser(&first), ser(&second));
    assert_eq!(ja, jb, "timelines differ between identical traced runs");
    assert!(
        ja.iter().any(|j| j.contains("\"kind\"")),
        "at least one timeline has events"
    );
}

#[test]
fn gray_failure_report_attaches_timelines_when_traced() {
    let opts = Opts {
        scale: 0.05,
        seed: 7,
        trace: TraceSel::Slowest(1),
        ..Opts::default()
    };
    let rep = run(&opts);
    // One traced flow per (scheme, loss) cell: 4 loss rates x 2 schemes.
    assert_eq!(rep.traces.len(), 8, "one timeline per cell");
    let decisions: usize = rep
        .traces
        .iter()
        .filter(|(label, _)| label.starts_with("flowbender"))
        .map(|(_, t)| t.count_kind("decision"))
        .sum();
    assert!(
        decisions > 0,
        "the traced slowest FlowBender flow recorded at least one reroute decision"
    );
    let text = rep.render();
    assert!(text.contains("Flight recorder"), "summary table rendered");
    // The untraced report at the same options renders identical normal
    // sections (the flight-recorder table is purely additive).
    let plain = run(&Opts {
        trace: TraceSel::Off,
        ..opts
    });
    assert!(plain.traces.is_empty());
    for ((ta, a), (tb, b)) in plain.sections.iter().zip(rep.sections.iter()) {
        assert_eq!(ta, tb);
        assert_eq!(a.render(), b.render(), "section {ta} changed under --trace");
    }
    for (ra, rb) in plain.runs.iter().zip(rep.runs.iter()) {
        assert_eq!(
            ra.to_json("gray_failure").to_string(),
            rb.to_json("gray_failure").to_string(),
            "run summary {} changed under --trace",
            ra.label
        );
    }
}
