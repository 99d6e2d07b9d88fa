//! Golden-file test for the machine-readable run JSON.
//!
//! A small fixed-seed FlowBender run from the Table 1 microbenchmark is
//! serialized twice in-process (byte equality = same-seed determinism of
//! the whole sim + telemetry + JSON stack) and compared byte-for-byte
//! against the committed golden file. Any intentional change to the
//! simulator's event ordering, the telemetry probes, or the JSON layout
//! shows up here as a diff; regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p experiments --test golden_json`.

use std::path::PathBuf;

use experiments::schemes;
use experiments::table1::{run_scheme, FLOW_COUNTS};
use experiments::Opts;
use netsim::{SimTime, TelemetryConfig};

const BYTES: u64 = 2_000_000;
const SEED: u64 = 3;

fn telemetry() -> TelemetryConfig {
    TelemetryConfig::every(SimTime::from_ms(10))
}

fn render_once() -> String {
    let opts = Opts {
        scale: 0.08,
        seed: SEED,
        ..Opts::default()
    };
    let runs = run_scheme(
        &schemes::flowbender(flowbender::Config::default()),
        BYTES,
        SEED,
        telemetry(),
        &opts,
    );
    assert_eq!(runs.len(), FLOW_COUNTS.len());
    let (cell, summary) = &runs[0];
    assert_eq!(cell.flows, FLOW_COUNTS[0]);
    assert_eq!(
        cell.completed as u32, cell.flows,
        "fixture flows must complete"
    );
    summary.to_json("table1").to_string_pretty()
}

#[test]
fn golden_run_json_is_reproducible_and_matches_the_committed_file() {
    let first = render_once();
    let second = render_once();
    assert_eq!(
        first, second,
        "same-seed runs must serialize byte-identically"
    );

    let path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "tests",
        "golden",
        "table1_run.json",
    ]
    .iter()
    .collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &first).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        first,
        golden,
        "run JSON drifted from {}; if intentional, regenerate with UPDATE_GOLDEN=1",
        path.display()
    );
}

/// The fixture run is loss-free, and the summary layout must reflect
/// that exactly: zero drop counters and *no* `drops` section at all (the
/// section is emitted only when packets were actually lost, which is
/// what keeps the golden bytes identical across the audit's addition).
#[test]
fn golden_fixture_is_loss_free_and_omits_the_drops_section() {
    let json = render_once();
    assert!(json.contains("\"queue_drops\": 0"));
    assert!(json.contains("\"link_drops\": 0"));
    assert!(
        !json.contains("\"drops\""),
        "a loss-free run must not emit a drops section"
    );
}

/// When a run *does* lose packets, the per-reason drop counts in its
/// JSON must sum to the advertised total and agree with the audit.
#[test]
fn dropful_run_reasons_sum_to_total() {
    use experiments::Run;
    use netsim::{DropReason, FaultPlan};
    use topology::FatTreeParams;
    use workloads::microbench;

    let params = FatTreeParams::tiny();
    let specs = microbench(&params, 4, 200_000);
    let out = Run::new(params, &schemes::ecmp(), &specs, SimTime::from_secs(20), 5)
        .faults(&|ft| {
            let (node, port) = ft.agg_core_link(0, 0);
            let mut plan = FaultPlan::new();
            plan.gray_loss(node, port, 0.05, SimTime::ZERO);
            plan
        })
        .run();
    let audit = out.drops();
    assert!(audit.total() > 0, "the gray link must drop something");
    let opts = Opts::default();
    let summary = experiments::RunSummary::from_run("dropful", "ECMP", &opts, 5, &out);
    let json = summary.to_json("gray_failure").to_string();
    // Per-reason counts from the serialized summary must reproduce the
    // audit: each reason's value, and their sum, match exactly.
    let grab = |key: &str| -> u64 {
        json.find(&format!("\"{key}\":"))
            .map(|i| {
                json[i + key.len() + 3..]
                    .chars()
                    .take_while(|c| c.is_ascii_digit())
                    .collect::<String>()
                    .parse()
                    .unwrap()
            })
            .unwrap_or(0)
    };
    let total = grab("total");
    let by_reason: u64 = DropReason::all().iter().map(|r| grab(r.name())).sum();
    assert_eq!(total, audit.total());
    assert_eq!(
        by_reason,
        audit.total(),
        "drop reasons must sum to the total"
    );
    assert_eq!(grab("gray_loss"), audit.by_reason(DropReason::GrayLoss));
}
