//! `chaos` — fabric-scale incident drill: a scripted timeline (gray-loss
//! ramp → whole-core crash → flap storm → recovery) hits a k=16 /
//! 1024-host fat-tree while a Poisson all-to-all runs, and every scheme is
//! graded on *degradation SLOs* against its own healthy baseline:
//!
//! * **p99 inflation** — chaos-run p99 FCT over healthy-run p99 FCT;
//! * **reconvergence latency** — per flow in flight at the crash instant,
//!   the time to its first post-crash delivered payload (p50/p99),
//!   measured by the engine-level [`netsim::SloConfig`] probe;
//! * **timeout-dominated fraction** — flows whose FCT is at least the
//!   10 ms RTO floor (or that never finished): the flows for which the
//!   incident cost at least one full retransmission timeout;
//! * **goodput dip** — depth and duration of the delivered-bytes trough,
//!   binned identically in both runs and compared bin-by-bin.
//!
//! The timeline targets agg↔core links and a whole core switch — the
//! tier every inter-pod path crosses — and the conservation ledger is
//! asserted at the end of both runs. Traffic comes from
//! [`workloads::PoissonStream`].

use netsim::{FaultPlan, SimTime, SloConfig};
use stats::{fmt_secs, percentile, Table};
use topology::{FatTree, FatTreeParams};

use crate::cell::{kary_window, poisson_websearch, Digest};
use crate::fabric_scale::{fabric, LOAD};
use crate::report::{Opts, Report, RunSummary};
use crate::scenario::{parallel_map, PlanFn, Run, RunOutput, Window};
use crate::schemes::{self, Scheme};

/// RNG stream tag for the per-source Poisson streams (distinct from
/// fabric-scale's so the two experiments draw independent workloads).
const STREAM_TAG: u64 = 0x00C4_A055;

/// The transport's minimum RTO in seconds. A flow whose FCT reaches this
/// paid at least one full timeout — the "timeout-dominated" SLO bucket.
pub const RTO_MIN_S: f64 = 0.010;

/// Goodput histogram bins per arrival window (the dip metrics compare
/// chaos and healthy runs bin-by-bin over exactly this many bins).
const GOODPUT_BINS: u64 = 20;

/// The scripted incident, expressed in absolute simulation times derived
/// from the arrival-window `duration`. Pure function of the duration, so
/// every scheme sees the identical script.
#[derive(Debug, Clone, Copy)]
pub struct Incident {
    /// Gray loss begins (1 %) on one agg→core uplink.
    pub gray_onset: SimTime,
    /// Gray loss ramps to 4 % on the same uplink.
    pub gray_ramp: SimTime,
    /// A core switch crashes whole — the SLO probe's failure instant.
    pub fail_at: SimTime,
    /// Two more agg uplinks start flapping.
    pub storm_start: SimTime,
    /// The incident clears: core revived, gray loss zeroed.
    pub recovery_at: SimTime,
}

impl Incident {
    /// Lay the timeline out over an arrival window: ramp in the first
    /// quarter, crash at the midpoint, storm in the third quarter,
    /// recovery at three quarters — leaving a healthy final quarter so
    /// the goodput curve shows the climb back out of the trough.
    pub fn over(duration: SimTime) -> Self {
        let d = duration.as_ps();
        Incident {
            gray_onset: SimTime::from_ps(d / 8),
            gray_ramp: SimTime::from_ps(d / 4),
            fail_at: SimTime::from_ps(d / 2),
            storm_start: SimTime::from_ps(d / 2 + d / 16),
            recovery_at: SimTime::from_ps(3 * d / 4),
        }
    }

    /// Compile the timeline into a [`FaultPlan`] against a concrete
    /// fabric. Targets are agg↔core elements:
    ///
    /// * gray ramp on agg 0's uplink 0;
    /// * whole-switch crash of the core behind agg 0's uplink 1 — every
    ///   one of its per-pod links dies at once;
    /// * flap storm on agg 0's uplink 1 and the first uplink of the last
    ///   pod's first agg (two flaps, staggered, both healed before
    ///   recovery);
    /// * at recovery: core revived, gray loss back to zero.
    pub fn plan(&self, ft: &FatTree) -> FaultPlan {
        let p = &ft.params;
        let (agg0, up0) = ft.agg_core_link(0, 0);
        let (_, up1) = ft.agg_core_link(0, 1);
        // Core index 1: attached to agg position 0.
        let sick_core = ft.cores[1];
        let far_agg = p.aggs_per_pod * (p.pods - 1);
        let (agg_far, far_up0) = ft.agg_core_link(far_agg, 0);

        let mut plan = FaultPlan::new();
        plan.gray_loss(agg0, up0, 0.01, self.gray_onset);
        plan.gray_loss(agg0, up0, 0.04, self.gray_ramp);
        plan.crash(sick_core, self.fail_at);
        let storm_len = SimTime::from_ps(self.fail_at.as_ps() / 8);
        plan.flap(agg0, up1, self.storm_start, self.storm_start + storm_len);
        let stagger = SimTime::from_ps(storm_len.as_ps() / 2);
        plan.flap(
            agg_far,
            far_up0,
            self.storm_start + stagger,
            self.storm_start + stagger + storm_len,
        );
        plan.revive(sick_core, self.recovery_at);
        plan.gray_loss(agg0, up0, 0.0, self.recovery_at);
        plan
    }
}

/// One scheme's healthy-vs-chaos digest.
#[derive(Debug)]
pub struct ChaosResult {
    /// Scheme display name.
    pub scheme: String,
    /// Fraction of in-window flows that completed under chaos.
    pub completion: f64,
    /// Chaos p99 FCT over healthy p99 FCT (1.0 = no degradation).
    pub p99_inflation: f64,
    /// Median reconvergence latency (s) of flows in flight at the crash.
    pub recon_p50_s: f64,
    /// p99 reconvergence latency (s).
    pub recon_p99_s: f64,
    /// Flows that reconverged (delivered again after the crash).
    pub recon_samples: usize,
    /// Fraction of flows whose FCT reached [`RTO_MIN_S`] (or that never
    /// finished) under chaos.
    pub timeout_dominated: f64,
    /// Deepest goodput trough: `1 - chaos/healthy` over the compared
    /// bins (0 = no dip).
    pub dip_depth: f64,
    /// Seconds of bins where chaos goodput sat below 90 % of healthy.
    pub dip_duration_s: f64,
}

/// The chaos run's shape for one invocation: fabric, workload, window,
/// incident. Built once and shared by every scheme's healthy and chaos
/// runs, so the only difference between them is the fault plan.
struct Setup {
    params: FatTreeParams,
    specs: Vec<netsim::FlowSpec>,
    window: Window,
    incident: Incident,
    slo: SloConfig,
}

fn setup(opts: &Opts) -> Setup {
    let params = fabric(opts);
    // Longer windows than fabric-scale: the SLO suite needs a population
    // of flows *in flight at the crash instant*, and the drain must span
    // the 10ms RTO floor with room to spare — flows black-holed by the
    // crash retransmit one RTO later, and that reconvergence tail is
    // exactly what is being measured.
    let window = kary_window(
        opts,
        SimTime::from_ms(4),
        SimTime::from_ms(2),
        SimTime::from_ms(50),
    );
    let duration = window.end;
    let incident = Incident::over(duration);
    let specs = poisson_websearch(opts, &params, LOAD, duration, STREAM_TAG);
    let slo = SloConfig {
        fail_at: incident.fail_at,
        bin: SimTime::from_ps(duration.as_ps() / GOODPUT_BINS),
    };
    Setup {
        params,
        specs,
        window,
        incident,
        slo,
    }
}

/// Run one scheme twice on `s` — healthy baseline, then the scripted
/// incident — and digest the degradation SLOs. Returns the digest plus
/// both full run outputs `(healthy, chaos)` for JSON export.
fn run_one(
    s: &Setup,
    opts: &Opts,
    scheme: &schemes::Scheme,
) -> (ChaosResult, RunOutput, RunOutput) {
    let run = |plan_fn: PlanFn| {
        Run::new(s.params, scheme, &s.specs, s.window.drain_until, opts.seed)
            .slo(s.slo)
            .faults(plan_fn)
            .run()
    };
    // The healthy run arms the same SLO probe: its goodput bins are the
    // dip baseline, and its "reconvergence" samples (first delivery after
    // the would-be failure instant) calibrate what a non-incident looks
    // like.
    let healthy = run(&|_| FaultPlan::new());
    let chaos = run(&|ft| s.incident.plan(ft));

    let h_p99 = Digest::of(&healthy, s.window).quantile(0.99);
    let c_flows = chaos.effective_flows();
    let c_fct = Digest::of_flows(&c_flows, s.window);
    let c_p99 = c_fct.quantile(0.99);

    let slo = chaos.slo().expect("SLO probe was armed");
    let lats: Vec<f64> = slo
        .reconvergence_latencies()
        .iter()
        .map(|t| t.as_secs_f64())
        .collect();

    // Timeout-dominated: in-window flows that either never finished or
    // paid at least one full RTO.
    let in_window: Vec<_> = c_flows
        .iter()
        .filter(|r| r.start >= s.window.start && r.start < s.window.end)
        .collect();
    let dominated = in_window
        .iter()
        .filter(|r| r.fct().is_none_or(|t| t.as_secs_f64() >= RTO_MIN_S))
        .count();

    // Goodput dip: compare the arrival-window bins only (drain-period
    // bins are stragglers in both runs and would wash the signal out).
    let h_bins = &healthy.slo().expect("SLO probe was armed").goodput_bins;
    let c_bins = &slo.goodput_bins;
    let n = (GOODPUT_BINS as usize).min(h_bins.len()).min(c_bins.len());
    let mut dip_depth: f64 = 0.0;
    let mut dip_bins = 0usize;
    for i in 0..n {
        if h_bins[i] == 0 {
            continue;
        }
        let ratio = c_bins[i] as f64 / h_bins[i] as f64;
        dip_depth = dip_depth.max(1.0 - ratio);
        if ratio < 0.9 {
            dip_bins += 1;
        }
    }

    let digest = ChaosResult {
        scheme: scheme.name().to_string(),
        completion: c_fct.completion,
        p99_inflation: if h_p99 > 0.0 { c_p99 / h_p99 } else { 0.0 },
        recon_p50_s: percentile(&lats, 0.5).unwrap_or(0.0),
        recon_p99_s: percentile(&lats, 0.99).unwrap_or(0.0),
        recon_samples: slo.samples(),
        timeout_dominated: if in_window.is_empty() {
            0.0
        } else {
            dominated as f64 / in_window.len() as f64
        },
        dip_depth,
        dip_duration_s: dip_bins as f64 * s.slo.bin.as_secs_f64(),
    };
    (digest, healthy, chaos)
}

/// Run the chaos suite and build the report.
pub fn run(opts: &Opts) -> Report {
    opts.validate();
    let s = setup(opts);
    let k = s.params.pods;
    let selection = opts.scheme_selection(&[Scheme::Ecmp, Scheme::FlowBender(Default::default())]);

    let mut table = Table::new(vec![
        "scheme",
        "complete",
        "p99 inflation",
        "recon p50",
        "recon p99",
        "timeout-dom",
        "dip depth",
        "dip duration",
    ]);
    let mut summaries = Vec::new();
    let runs = parallel_map(selection.iter().collect(), |scheme| {
        run_one(&s, opts, scheme)
    });
    for (scheme, (r, healthy, chaos)) in selection.iter().zip(runs) {
        for (tag, out) in [("healthy", &healthy), ("chaos", &chaos)] {
            summaries.push(RunSummary::from_run(
                format!("{}_{tag}_k{k}_seed{}", scheme.slug(), opts.seed),
                scheme.name(),
                opts,
                opts.seed,
                out,
            ));
        }
        table.row(vec![
            r.scheme.clone(),
            format!("{:.1}%", r.completion * 100.0),
            format!("{:.2}x", r.p99_inflation),
            fmt_secs(r.recon_p50_s),
            fmt_secs(r.recon_p99_s),
            format!("{:.1}%", r.timeout_dominated * 100.0),
            format!("{:.0}%", r.dip_depth * 100.0),
            fmt_secs(r.dip_duration_s),
        ]);
    }

    let mut report = Report::new("chaos");
    for summary in summaries {
        report.run_summary(summary);
    }
    report.section(
        format!(
            "Chaos drill on a k={k} fat-tree ({} hosts), {} flows at {:.0}% load: \
             gray ramp at {} -> core crash at {} -> flap storm -> recovery at {}",
            s.params.n_hosts(),
            s.specs.len(),
            LOAD * 100.0,
            fmt_secs(s.incident.gray_onset.as_secs_f64()),
            fmt_secs(s.incident.fail_at.as_secs_f64()),
            fmt_secs(s.incident.recovery_at.as_secs_f64()),
        ),
        table,
    );
    report.note(format!(
        "SLOs vs each scheme's own healthy baseline: p99 inflation = chaos p99 FCT / \
         healthy p99 FCT; reconvergence = crash instant to a flow's first post-crash \
         delivered payload; timeout-dominated = in-window flows with FCT >= the {}ms \
         RTO floor (or unfinished); dip = binned goodput vs the healthy run",
        (RTO_MIN_S * 1e3) as u64
    ));
    report.note(
        "the incident targets agg<->core links and one whole core — the tier every \
         inter-pod path crosses — with packet conservation asserted at the end of \
         both runs",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> Opts {
        Opts {
            seed: 3,
            topo_k: Some(4),
            smoke: true,
            schemes: vec!["flowbender".into()],
            ..Opts::default()
        }
    }

    #[test]
    fn smoke_run_reports_degradation_slos() {
        let r = run(&opts());
        assert_eq!(r.name, "chaos");
        assert!(r.sections[0].0.contains("core crash"));
        assert_eq!(r.sections[0].1.len(), 1, "one scheme row");
        // Healthy + chaos summaries, and the chaos one carries the
        // reconvergence section with nonzero samples.
        assert_eq!(r.runs.len(), 2);
        assert!(r.runs[0].label.contains("healthy"));
        let chaos = &r.runs[1];
        assert!(chaos.label.contains("chaos"));
        let json = chaos.to_json("chaos").to_string();
        let recon = json
            .find(r#""reconvergence":{"#)
            .expect("SLO probe was armed");
        let samples = crate::report::json_u64(chaos, "samples").unwrap();
        assert!(samples > 0, "flows must reconverge after the crash");
        assert!(
            json[recon..].contains(r#""p99_s":"#),
            "percentiles digested"
        );
    }

    #[test]
    fn incident_clears_and_flows_still_complete() {
        let scheme = Scheme::FlowBender(Default::default());
        let opts = opts();
        let (r, _, chaos) = run_one(&setup(&opts), &opts, &scheme);
        assert!(r.recon_samples > 0, "crash must leave flows to reconverge");
        assert!(
            r.completion > 0.5,
            "recovery must let most flows finish: {}",
            r.completion
        );
        // The crash + revival appear in the drop audit / counters as real
        // faults: the chaos run must differ from a healthy one.
        assert!(
            r.p99_inflation >= 1.0 || r.dip_depth > 0.0 || r.timeout_dominated > 0.0,
            "the incident must leave a measurable mark: {r:?}"
        );
        assert!(chaos.conservation.holds());
    }
}
