//! `reordering` — the cost of packet spraying, made visible: what each
//! load-balancing locus does to packet order, and what disorder costs the
//! transport.
//!
//! Six schemes spanning the three routing loci: flow-level (ECMP,
//! FlowBender), packet-level (RPS, DeTail), and flowcut-level — host-side
//! gap switching (`Flowcut`) and switch-side flowcut switching
//! (`Flowcut-SW`, after Bonato et al.), where the fabric re-routes
//! adaptively but only at instants where the flow's in-flight data has
//! provably drained, so delivery stays in order.
//!
//! The metric suite is the receiver's and sender's own accounting, not a
//! model: out-of-order arrivals ([`Counter::OooPktsRcvd`]), duplicate wire
//! bytes ([`Counter::DupBytes`]), the reassembly buffer's high-water mark
//! ([`Counter::OooBytesMax`] — max-merged across shards), and the sender's
//! misfires — spurious fast retransmits proven by DSACKs
//! ([`Counter::SpuriousRetransmits`]) and the cwnd undos they trigger
//! ([`Counter::DsackUndos`]). For the flowcut fabric the pin/boundary
//! counters ([`Counter::FlowcutPinned`], [`Counter::FlowcutReroutes`])
//! show how often re-routing actually happened.
//!
//! Runs go through the sharded engine, so `--shards N` works; the default
//! Poisson workloads are byte-identical across shard counts.

use netsim::{Counter, DetRng, SimTime};
use stats::{completion_fraction, fmt_secs, percentile, samples, Table};
use topology::FatTreeParams;

use crate::report::{Opts, Report, RunSummary};
use crate::scenario::{sweep_schemes_sharded, Run, RunOutput, Window};
use crate::schemes::{self, SchemeSpec};

/// Offered load (fraction of edge bandwidth): enough concurrency that
/// spraying actually interleaves paths, not enough to melt the fabric.
pub const LOAD: f64 = 0.3;

/// RNG stream tag for the workload generators.
const STREAM_TAG: u64 = 0x00DD_BA11;

/// Workload slugs swept by default. Both are Poisson (no synchronized
/// ties), so every cell is byte-identical across shard counts.
pub fn default_workloads() -> Vec<String> {
    vec!["websearch".into(), "hotspot".into()]
}

/// The fabric arity this invocation runs: `--topo k=K` if given, else
/// k=8 (128 hosts) — or k=4 (16 hosts) under `--smoke`.
pub fn arity(opts: &Opts) -> usize {
    opts.topo_k.unwrap_or(if opts.smoke { 4 } else { 8 })
}

/// The default scheme set: the three routing loci, two schemes each.
pub fn default_schemes() -> Vec<SchemeSpec> {
    vec![
        schemes::ecmp(),
        schemes::flowbender(Default::default()),
        schemes::rps(),
        schemes::detail(),
        schemes::flowcut(SimTime::from_us(100)),
        schemes::flowcut_sw(SimTime::from_us(100)),
    ]
}

/// One (workload, scheme) cell of the reordering sweep.
#[derive(Debug)]
pub struct ReorderResult {
    /// Scheme display name.
    pub scheme: String,
    /// Workload display name.
    pub workload: String,
    /// Flows the generator emitted.
    pub flows: usize,
    /// Fraction of in-window flows that completed.
    pub completion: f64,
    /// p99 FCT (seconds) over in-window completions.
    pub p99_s: f64,
    /// Data packets the receivers saw.
    pub data_rcvd: u64,
    /// Packets that arrived after a later sequence number.
    pub ooo_rcvd: u64,
    /// Spurious fast retransmits (each proven by a DSACK).
    pub spurious_rexmit: u64,
    /// cwnd undos those DSACKs triggered.
    pub dsack_undos: u64,
    /// Wire bytes delivered twice.
    pub dup_bytes: u64,
    /// Peak bytes parked in any receiver's reassembly buffer.
    pub ooo_bytes_max: u64,
    /// Flowcut boundary re-routes the fabric performed (flowcut fabrics
    /// only; zero elsewhere).
    pub flowcut_reroutes: u64,
}

fn measurement(opts: &Opts) -> Window {
    let base = if opts.smoke {
        SimTime::from_us(400)
    } else {
        SimTime::from_ms(2)
    };
    Window::for_duration(opts.scaled(base), SimTime::from_ms(20))
}

/// Generate the flow list for one cell (deterministic in `(seed, slug)`,
/// independent of scheme and shard count).
fn gen_specs(
    opts: &Opts,
    params: &FatTreeParams,
    wl_slug: &str,
    window: Window,
) -> Vec<netsim::FlowSpec> {
    let wl = workloads::find(wl_slug).unwrap_or_else(|| panic!("unknown workload `{wl_slug}`"));
    let mut rng = DetRng::new(opts.seed, STREAM_TAG);
    wl.generate(params, LOAD, window.end, &mut rng)
}

/// Run one (scheme, workload) cell through the sharded engine.
pub fn run_one(opts: &Opts, scheme: &SchemeSpec, wl_slug: &str) -> (ReorderResult, RunOutput) {
    let params = FatTreeParams::k_ary(arity(opts)).expect("arity checked by Opts::check");
    let window = measurement(opts);
    let specs = gen_specs(opts, &params, wl_slug, window);
    let out = Run::new(params, scheme, &specs, window.drain_until, opts.seed)
        .shards(opts.shards)
        .run()
        .expect("shard plan checked by Opts::check");

    let flows = out.effective_flows();
    let fcts: Vec<f64> = samples(&flows, window.start, window.end)
        .iter()
        .map(|s| s.fct_s)
        .collect();
    let digest = ReorderResult {
        scheme: scheme.name().to_string(),
        workload: workloads::find(wl_slug).expect("resolved above").name(),
        flows: specs.len(),
        completion: completion_fraction(&flows, window.start, window.end),
        p99_s: percentile(&fcts, 0.99).unwrap_or(0.0),
        data_rcvd: out.get(Counter::DataPktsRcvd),
        ooo_rcvd: out.get(Counter::OooPktsRcvd),
        spurious_rexmit: out.get(Counter::SpuriousRetransmits),
        dsack_undos: out.get(Counter::DsackUndos),
        dup_bytes: out.get(Counter::DupBytes),
        ooo_bytes_max: out.get(Counter::OooBytesMax),
        flowcut_reroutes: out.get(Counter::FlowcutReroutes),
    };
    (digest, out)
}

/// Run the reordering experiment and build the report.
pub fn run(opts: &Opts) -> Report {
    opts.validate();
    let k = arity(opts);
    let params = FatTreeParams::k_ary(k).expect("arity checked by Opts::check");
    let selection = opts.scheme_selection(&default_schemes());
    let wl_slugs: Vec<String> = match &opts.workload {
        Some(w) => vec![w.clone()],
        None => default_workloads(),
    };

    let runs = sweep_schemes_sharded(&selection, &wl_slugs, opts.shards, |scheme, wl| {
        run_one(opts, scheme, wl)
    });

    let mut report = Report::new("reordering");
    for (wl, cells) in wl_slugs.iter().zip(runs) {
        let wl_name = cells
            .first()
            .map(|(r, _)| r.workload.clone())
            .unwrap_or_else(|| wl.clone());
        let wl_label = workloads::find(wl).expect("resolved by run_one").slug();
        let mut table = Table::new(vec![
            "scheme",
            "complete",
            "p99 FCT",
            "ooo pkts",
            "spurious rtx",
            "dsack undos",
            "dup bytes",
            "ooo buf max",
            "fc reroutes",
        ]);
        for (scheme, (r, out)) in selection.iter().zip(cells) {
            let label = format!(
                "{wl_label}_{}_shards{}_seed{}",
                scheme.slug(),
                opts.shards,
                opts.seed
            );
            report.run_summary(RunSummary::from_run(
                label,
                scheme.name(),
                opts,
                opts.seed,
                &out,
            ));
            let pct = |n: u64| {
                if r.data_rcvd == 0 {
                    "-".to_string()
                } else {
                    format!("{n} ({:.2}%)", n as f64 * 100.0 / r.data_rcvd as f64)
                }
            };
            table.row(vec![
                r.scheme.clone(),
                format!("{:.1}%", r.completion * 100.0),
                if r.p99_s > 0.0 {
                    fmt_secs(r.p99_s)
                } else {
                    "-".into()
                },
                pct(r.ooo_rcvd),
                r.spurious_rexmit.to_string(),
                r.dsack_undos.to_string(),
                r.dup_bytes.to_string(),
                r.ooo_bytes_max.to_string(),
                if r.flowcut_reroutes > 0 {
                    r.flowcut_reroutes.to_string()
                } else {
                    "-".into()
                },
            ]);
        }
        report.section(
            format!(
                "Reordering cost by routing locus on {wl_name}: k={k} fat-tree \
                 ({} hosts) at {:.0}% load, {} shard(s)",
                params.n_hosts(),
                LOAD * 100.0,
                opts.shards
            ),
            table,
        );
    }
    report.note(
        "ooo pkts = packets arriving after a later sequence was already seen \
         (receiver accounting, % of data received); spurious rtx = fast \
         retransmits the receiver proved unnecessary via DSACK; dup bytes = \
         wire bytes delivered twice; ooo buf max = peak bytes parked in a \
         reassembly buffer (max-merged across shards)",
    );
    report.note(
        "Flowcut-SW re-routes only at boundaries where the flow's in-flight \
         data has drained (idle gap > 100us, pinned port held while \
         uncongested), so delivery is in order whenever the gap exceeds the \
         fabric's residual queueing skew — exactly zero ooo on uncongested \
         paths, orders of magnitude below RPS/DeTail when a congested queue \
         outlives the gap, and zero spurious retransmits either way",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_opts() -> Opts {
        Opts {
            seed: 7,
            topo_k: Some(4),
            smoke: true,
            ..Opts::default()
        }
    }

    fn cnt(s: &RunSummary, name: &str) -> Option<u64> {
        s.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The acceptance table of the experiment: packet-level spraying shows
    /// its reordering bill, switch flowcuts deliver fully in order in the
    /// same table.
    #[test]
    fn spraying_reorders_and_switch_flowcuts_do_not() {
        let r = run(&smoke_opts());
        assert_eq!(r.name, "reordering");
        assert_eq!(r.sections.len(), 2, "websearch + hotspot");
        assert_eq!(r.sections[0].1.len(), 6, "six scheme rows per workload");
        assert_eq!(r.runs.len(), 12, "one JSON summary per cell");

        let by_label = |frag: &str| {
            r.runs
                .iter()
                .find(|s| s.label.starts_with("websearch") && s.label.contains(frag))
                .unwrap_or_else(|| panic!("no websearch summary for {frag}"))
        };
        let rps = by_label("_rps_");
        assert!(
            cnt(rps, "ooo_pkts_rcvd").unwrap_or(0) > 0,
            "RPS must reorder: {:?}",
            rps.counters
        );
        let flowcut_sw = by_label("flowcut_sw");
        assert_eq!(
            cnt(flowcut_sw, "ooo_pkts_rcvd").unwrap_or(0),
            0,
            "switch flowcuts must deliver in order: {:?}",
            flowcut_sw.counters
        );
        assert!(
            cnt(flowcut_sw, "spurious_retransmits").is_none(),
            "in-order delivery cannot produce spurious retransmits \
             (zero-valued reordering metrics are omitted): {:?}",
            flowcut_sw.counters
        );
        assert!(
            cnt(flowcut_sw, "flowcut_pinned").unwrap_or(0) > 0,
            "the flowcut fabric must actually pin flows: {:?}",
            flowcut_sw.counters
        );
        // ECMP never moves a flow, so its summary carries no reordering
        // metrics at all (omitted while zero) — the pre-PR layout.
        let ecmp = by_label("_ecmp_");
        assert!(cnt(ecmp, "spurious_retransmits").is_none());
        assert!(cnt(ecmp, "dup_bytes").is_none());
        assert!(cnt(ecmp, "flowcut_reroutes").is_none());
    }

    /// RPS under the default dupack threshold misfires, and the misfires
    /// are the DSACK-accounted kind: every undo needs a spurious
    /// retransmit, and duplicate bytes back the story.
    #[test]
    fn rps_misfires_are_dsack_accounted() {
        let (r, _) = run_one(&smoke_opts(), &schemes::rps(), "websearch");
        assert!(r.ooo_rcvd > 0, "RPS must reorder: {r:?}");
        assert!(
            r.spurious_rexmit >= r.dsack_undos,
            "each undo is proven by at least one spurious retransmit: {r:?}"
        );
        assert!(
            r.ooo_bytes_max > 0,
            "reordering must park bytes in the reassembly buffer: {r:?}"
        );
    }

    /// Switch flowcuts are byte-identical across shard counts: the pin
    /// table is driven purely by per-switch local arrival order, so the
    /// partition cannot perturb it. (The ISSUE's shards {1,2,4} gate; 8
    /// is covered by the registry-wide sharded_determinism test.)
    #[test]
    fn flowcut_sw_cells_are_identical_across_shard_counts() {
        let dense = Opts {
            smoke: false,
            ..smoke_opts()
        };
        let scheme = schemes::flowcut_sw(SimTime::from_us(100));
        let base = run_one(&dense, &scheme, "hotspot");
        for shards in [2, 4] {
            let opts = Opts {
                shards,
                ..dense.clone()
            };
            let (r, out) = run_one(&opts, &scheme, "hotspot");
            assert_eq!(base.0.p99_s, r.p99_s, "x{shards}");
            assert_eq!(base.0.completion, r.completion, "x{shards}");
            assert_eq!(base.0.ooo_rcvd, r.ooo_rcvd, "x{shards}");
            assert_eq!(base.0.spurious_rexmit, r.spurious_rexmit, "x{shards}");
            assert_eq!(base.0.dup_bytes, r.dup_bytes, "x{shards}");
            assert_eq!(base.0.ooo_bytes_max, r.ooo_bytes_max, "x{shards}");
            assert_eq!(base.0.flowcut_reroutes, r.flowcut_reroutes, "x{shards}");
            assert_eq!(base.1.flows.len(), out.flows.len());
            assert!(
                base.1
                    .flows
                    .iter()
                    .zip(out.flows.iter())
                    .all(|(a, b)| a.end == b.end),
                "x{shards}: per-flow completion times must match"
            );
        }
    }
}
