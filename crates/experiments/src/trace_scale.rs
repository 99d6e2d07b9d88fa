//! `trace-scale` — the million-flow workload-engine experiment: exercises
//! the registry workloads and the streaming FCT machinery at trace scale,
//! where holding one `Sample` per flow is no longer an option.
//!
//! This experiment deliberately does **not** run the packet simulator
//! (`fabric-scale` does, at 10^4 flows). It proves out the two layers a
//! 10^6-flow run stands on:
//!
//! 1. **Generation**: the selected workload (websearch by default) is
//!    produced through [`workloads::PoissonStream`] when it advertises a
//!    streamable distribution — O(hosts) generator state, flows emitted
//!    in arrival order — and through the batch registry path otherwise.
//! 2. **Aggregation**: every flow is scored by a deterministic analytic
//!    FCT model and fed straight into a [`stats::FctAccumulator`], so
//!    peak stats memory is O(sketch buckets), independent of flow count.
//!
//! The analytic model is a pipeline-throughput proxy, *not* scheme
//! fidelity: `fct = (base_rtt + bytes·8/link_bps) / (1 - load)` — the
//! M/M/1-flavored slowdown of an uncongested-path transfer. It keeps the
//! pipeline end-to-end deterministic (same seed → byte-identical tables)
//! while producing realistically heavy-tailed FCTs for the sketches.
//!
//! Wall-clock generation/aggregation rates are printed to stderr (and
//! tracked as a flows/sec curve in `BENCH_engine.json` via the bench
//! crate); the report files stay byte-deterministic.

use netsim::{DetRng, FlowRecord, Proto, SimTime, LINK_BPS, LINK_DELAY};
use stats::{fmt_secs, job_completion, FctAccumulator, JobStats, Table};
use topology::FatTreeParams;
use workloads::{load, PoissonStream, Workload};

use crate::report::{Opts, Report};

/// Flow count of the full run at `--scale 1` (the acceptance bar).
pub const TARGET_FLOWS: u64 = 1_000_000;

/// Offered load the trace is generated at.
pub const LOAD: f64 = 0.6;

/// RNG stream tag for the per-source split streams.
const STREAM_TAG: u64 = 0x57AE;

/// Deterministic analytic FCT proxy (seconds) for one flow: base RTT plus
/// edge-link serialization, inflated by the M/M/1-style `1/(1-load)`
/// congestion factor. Not a scheme simulation — a stand-in that gives the
/// sketches a realistic heavy-tailed input at zero per-flow state.
pub fn model_fct_s(load: f64, bytes: u64) -> f64 {
    // Six store-and-forward links each way: host-ToR-agg-core-agg-ToR-host.
    let base_rtt_s = 12.0 * LINK_DELAY.as_secs_f64();
    let serialize_s = bytes as f64 * 8.0 / LINK_BPS as f64;
    (base_rtt_s + serialize_s) / (1.0 - load.min(0.95))
}

/// One point of the scale curve.
pub struct PointResult {
    /// Flows generated and aggregated.
    pub flows: u64,
    /// Wall-clock seconds spent generating (and scoring) flows.
    pub gen_wall_s: f64,
    /// The streaming accumulator after all flows were recorded.
    pub acc: FctAccumulator,
    /// Job completion stats, when the workload tags jobs (batch path).
    pub jobs: Option<JobStats>,
    /// Whether the O(hosts) streaming generator was used.
    pub streamed: bool,
}

/// Duration whose *expected* streamed flow count is `target`, plus 25 %
/// headroom so `take(target)` always fills.
fn duration_for(p: &FatTreeParams, target: u64, mean_bytes: f64) -> SimTime {
    let rate_total = load::fat_tree_flow_rate_per_host(p, LOAD, mean_bytes) * p.n_hosts() as f64;
    SimTime::from_secs_f64(target as f64 / rate_total * 1.25)
}

/// Generate + aggregate one curve point at `target` flows.
pub fn run_point(p: &FatTreeParams, wl: Workload, target: u64, seed: u64) -> PointResult {
    let started = std::time::Instant::now();
    let mut acc = FctAccumulator::new();
    if let Some(dist) = wl.stream_dist() {
        // Streaming path: never materializes the flow list.
        let duration = duration_for(p, target, dist.mean_bytes());
        let base = DetRng::new(seed, STREAM_TAG);
        let stream = PoissonStream::new(p, LOAD, duration, dist, &base);
        let mut n = 0u64;
        for spec in stream.take(target as usize) {
            acc.record(spec.bytes, model_fct_s(LOAD, spec.bytes));
            n += 1;
        }
        PointResult {
            flows: n,
            gen_wall_s: started.elapsed().as_secs_f64(),
            acc,
            jobs: None,
            streamed: true,
        }
    } else {
        // Batch path for structured workloads (jobs, bursts): duration
        // sized with the websearch mean as a proxy, flow count capped at
        // `target`; job metrics come from the analytic model's records.
        let duration = duration_for(
            p,
            target,
            workloads::FlowSizeDist::web_search().mean_bytes(),
        );
        let mut rng = DetRng::new(seed, STREAM_TAG);
        let mut specs = wl.generate(p, LOAD, duration, &mut rng);
        specs.truncate(target as usize);
        let mut records = Vec::with_capacity(specs.len());
        for s in &specs {
            let fct = model_fct_s(LOAD, s.bytes);
            acc.record(s.bytes, fct);
            records.push(FlowRecord {
                flow: s.id,
                src: s.src,
                dst: s.dst,
                bytes: s.bytes,
                start: s.start,
                end: s.start + SimTime::from_secs_f64(fct),
                job: s.job,
                proto: Proto::Tcp,
            });
        }
        let jobs = records.iter().any(|r| r.job.is_some());
        PointResult {
            flows: records.len() as u64,
            gen_wall_s: started.elapsed().as_secs_f64(),
            jobs: jobs.then(|| job_completion(&records)),
            acc,
            streamed: false,
        }
    }
}

/// Run the scale curve and build the report.
pub fn run(opts: &Opts) -> Report {
    opts.validate();
    let params = crate::cell::paper_fabric(opts);
    let wl = opts.workload_or("websearch");
    let target = ((TARGET_FLOWS as f64 * opts.scale).round() as u64).max(8);
    // Quarter/half/full curve, deduped for tiny targets.
    let mut curve: Vec<u64> = vec![target / 4, target / 2, target];
    curve.retain(|&f| f > 0);
    curve.dedup();

    let mut table = Table::new(vec![
        "flows",
        "streamed",
        "p50",
        "p99",
        "p99.9",
        "max",
        "buckets",
        "sketch-KB",
    ]);
    let mut last: Option<PointResult> = None;
    for &f in &curve {
        let pt = run_point(&params, wl, f, opts.seed);
        let sk = pt.acc.overall();
        table.row(vec![
            pt.flows.to_string(),
            if pt.streamed { "yes" } else { "no" }.to_string(),
            sk.quantile(0.5).map(fmt_secs).unwrap_or("-".into()),
            sk.quantile(0.99).map(fmt_secs).unwrap_or("-".into()),
            sk.quantile(0.999).map(fmt_secs).unwrap_or("-".into()),
            sk.max().map(fmt_secs).unwrap_or("-".into()),
            pt.acc.bucket_count().to_string(),
            format!("{:.1}", pt.acc.memory_bytes() as f64 / 1024.0),
        ]);
        if pt.gen_wall_s > 0.0 {
            // Wall-clock rates go to stderr, never into the report: the
            // files under --out stay byte-deterministic like every other
            // experiment's. The tracked flows/sec curve lives in
            // BENCH_engine.json (workload/websearch_gen_agg_*).
            eprintln!(
                "trace-scale: {} flows at {:.2}M flows/s generate+aggregate",
                pt.flows,
                pt.flows as f64 / pt.gen_wall_s / 1e6
            );
        }
        last = Some(pt);
    }
    let last = last.expect("curve is never empty");

    let mut r = Report::new("trace_scale");
    r.section(
        format!(
            "Trace scale: {} over the flow-count curve at {:.0}% load (streaming sketches)",
            wl.name(),
            LOAD * 100.0
        ),
        table,
    );
    // Per-size-bin breakdown at the final (largest) point.
    let mut bins = Table::new(vec!["flow size", "count", "mean", "p99", "p99.9"]);
    for b in last.acc.binned() {
        bins.row(vec![
            b.bin.label.to_string(),
            b.count.to_string(),
            b.mean_s.map(fmt_secs).unwrap_or("-".into()),
            b.p99_s.map(fmt_secs).unwrap_or("-".into()),
            b.p999_s.map(fmt_secs).unwrap_or("-".into()),
        ]);
    }
    r.section(
        format!("Binned FCTs at {} flows (analytic model)", last.flows),
        bins,
    );
    if let Some(js) = &last.jobs {
        let mut jt = Table::new(vec!["jobs", "complete", "mean", "p50", "p99", "max"]);
        jt.row(vec![
            js.jobs_total.to_string(),
            js.jobs_complete.to_string(),
            js.mean_s.map(fmt_secs).unwrap_or("-".into()),
            js.p50_s.map(fmt_secs).unwrap_or("-".into()),
            js.p99_s.map(fmt_secs).unwrap_or("-".into()),
            js.max_s.map(fmt_secs).unwrap_or("-".into()),
        ]);
        r.section("Job completion (analytic model)", jt);
    }
    r.note(format!(
        "stats memory at {} flows: {} sketch buckets, {:.1} KB — O(sketch), not O(flows)",
        last.flows,
        last.acc.bucket_count(),
        last.acc.memory_bytes() as f64 / 1024.0
    ));
    r.note(
        "generation+aggregation flows/sec is tracked commit over commit in \
         BENCH_engine.json (workload/websearch_gen_agg_*), perf-gated in CI",
    );
    r.note(
        "FCTs are an analytic pipeline-throughput proxy (no packet simulation); \
         for scheme fidelity at the largest packet-simulated size see fabric-scale",
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_point_reaches_a_million_flows_with_flat_memory() {
        // The acceptance bar: >= 1,000,000 websearch-CDF flows through
        // the streaming path, with stats memory bounded by the sketch —
        // not the flow count.
        let p = FatTreeParams::paper();
        let wl = workloads::find("websearch").unwrap();
        let pt = run_point(&p, wl, TARGET_FLOWS, 3);
        assert!(pt.streamed, "websearch must take the streaming path");
        assert_eq!(pt.flows, 1_000_000);
        assert_eq!(pt.acc.count(), 1_000_000);
        assert!(
            pt.acc.bucket_count() < 8_192,
            "buckets {} not flat",
            pt.acc.bucket_count()
        );
        assert!(
            pt.acc.memory_bytes() < 1 << 20,
            "sketch memory {} exceeds 1 MB",
            pt.acc.memory_bytes()
        );
        // The heavy tail is visible: p99.9 well above p50.
        let sk = pt.acc.overall();
        assert!(sk.quantile(0.999).unwrap() > 5.0 * sk.quantile(0.5).unwrap());
    }

    #[test]
    fn points_are_deterministic_in_the_seed() {
        let p = FatTreeParams::paper();
        let wl = workloads::find("websearch").unwrap();
        let a = run_point(&p, wl, 20_000, 7);
        let b = run_point(&p, wl, 20_000, 7);
        let c = run_point(&p, wl, 20_000, 8);
        assert_eq!(
            a.acc.overall().quantile(0.99),
            b.acc.overall().quantile(0.99)
        );
        assert_eq!(a.acc.overall().sum(), b.acc.overall().sum());
        assert_ne!(a.acc.overall().sum(), c.acc.overall().sum());
    }

    #[test]
    fn batch_workloads_report_job_completion() {
        let p = FatTreeParams::paper();
        let wl = workloads::find("incast:8").unwrap();
        let pt = run_point(&p, wl, 10_000, 3);
        assert!(!pt.streamed, "incast has cross-flow structure");
        assert!(pt.flows > 0);
        let js = pt.jobs.expect("incast tags jobs");
        assert!(js.jobs_complete > 0);
        assert!(js.p99_s.unwrap() >= js.p50_s.unwrap());
    }

    #[test]
    fn small_scale_report_has_curve_bins_and_memory_note() {
        let opts = Opts {
            scale: 0.01, // 10k flows
            seed: 3,
            ..Opts::default()
        };
        let r = run(&opts);
        assert_eq!(r.name, "trace_scale");
        assert!(r.sections[0].0.contains("Websearch"));
        assert_eq!(r.sections[0].1.len(), 3, "quarter/half/full curve");
        assert!(r.sections[1].0.contains("Binned"));
        assert_eq!(r.sections[1].1.len(), 4, "paper bins");
        assert!(r.notes.iter().any(|n| n.contains("O(sketch)")));
    }
}
