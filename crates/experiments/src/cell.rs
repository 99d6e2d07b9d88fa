//! The one path from a finished run to a table row — [`Digest`] / [`Cell`]
//! — and one function per cell set-up that more than one experiment uses.
//!
//! The conventions every windowed experiment shares are stated here once:
//! flows are generated for `opts.scaled(base)` from the RNG stream
//! `(opts.seed, tag)`, so every scheme of a sweep sees the same arrivals;
//! only flows *arriving* after the first 10 % (warm-up) and before the end
//! of the arrival window are measured; the simulation keeps running for a
//! drain period so those flows can finish; replicated flows count once,
//! at their first finisher; and a table normalizes to ECMP when ECMP was
//! swept, else to the first swept scheme ([`baseline`]).

use netsim::{
    Counter, DetRng, FaultPlan, FlowRecord, FlowSpec, NodeId, PortId, SimTime, TraceConfig,
};
use stats::Sample;
use topology::FatTreeParams;
use workloads::{FlowSizeDist, PoissonStream, Workload};

use crate::report::Opts;
use crate::scenario::{Run, RunOutput, Window};
use crate::schemes::Scheme;

/// The FCT statistics of one run: the completed TCP flows that arrived
/// inside the measurement window, replicas merged into their primaries.
/// Every FCT number in every table comes through here.
#[derive(Debug)]
pub struct Digest {
    /// One sample per measured flow, in flow-id order.
    pub samples: Vec<Sample>,
    /// Fraction of in-window flows that completed (1.0 for an empty
    /// window) — a run-health check: ~1.0 when the drain was adequate.
    pub completion: f64,
}

impl Digest {
    /// Digest the effective (replica-merged) flows of `out`.
    pub fn of(out: &RunOutput, window: Window) -> Self {
        Self::of_flows(&out.effective_flows(), window)
    }

    /// Digest raw flow records (for the one experiment that drives a
    /// [`netsim::Simulator`] by hand).
    pub fn of_flows(flows: &[FlowRecord], window: Window) -> Self {
        Digest {
            samples: stats::samples(flows, window.start, window.end),
            completion: stats::completion_fraction(flows, window.start, window.end),
        }
    }

    /// The sub-population `keep` selects (e.g. short flows). `completion`
    /// stays the whole window's.
    pub fn only(&self, keep: impl Fn(&Sample) -> bool) -> Digest {
        Digest {
            samples: self.samples.iter().copied().filter(keep).collect(),
            completion: self.completion,
        }
    }

    /// Flows measured.
    pub fn n(&self) -> usize {
        self.samples.len()
    }

    /// The measured FCTs in seconds, in flow-id order.
    pub fn fcts(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.fct_s).collect()
    }

    /// Mean FCT in seconds (0 when nothing was measured).
    pub fn mean(&self) -> f64 {
        stats::mean(&self.fcts()).unwrap_or(0.0)
    }

    /// The `q`-quantile FCT in seconds, nearest-rank (0 when nothing was
    /// measured).
    pub fn quantile(&self, q: f64) -> f64 {
        stats::percentile(&self.fcts(), q).unwrap_or(0.0)
    }

    /// The slowest measured flow's FCT in seconds.
    pub fn max(&self) -> f64 {
        self.quantile(1.0)
    }
}

/// One finished cell of a sweep: the run (counters, flow records, drop
/// audit) and its FCT digest. Sweeps return these in the `[param][scheme]`
/// grid of [`crate::sweep_schemes`]; tables index the grid.
#[derive(Debug)]
pub struct Cell {
    /// In-window FCT statistics.
    pub fct: Digest,
    /// The run itself.
    pub out: RunOutput,
}

impl Cell {
    /// Digest `out` over `window`.
    pub fn of(out: RunOutput, window: Window) -> Self {
        Cell {
            fct: Digest::of(&out, window),
            out,
        }
    }
}

/// Column of the scheme a table normalizes to: ECMP when it was swept,
/// otherwise the first swept scheme.
pub fn baseline(schemes: &[Scheme]) -> usize {
    schemes.iter().position(|s| s.name() == "ECMP").unwrap_or(0)
}

/// `v / base` as a table cell; `-` when either side is missing or the
/// base is zero, so an empty bin cannot pass for a perfect result.
pub fn ratio_cell(v: Option<f64>, base: Option<f64>) -> String {
    match (v, base) {
        (Some(v), Some(b)) if b > 0.0 => stats::fmt_ratio(v / b),
        _ => "-".to_string(),
    }
}

/// Seconds as a table cell; `-` for the 0 a [`Digest`] answers when
/// nothing was measured.
pub fn secs_or_dash(s: f64) -> String {
    if s > 0.0 {
        stats::fmt_secs(s)
    } else {
        "-".to_string()
    }
}

/// The windowed fat-tree cell: `wl` at `load` for `opts.scaled(base)`,
/// drawn from the RNG stream `(opts.seed, tag)`, measured after a 10 %
/// warm-up and drained for 400 ms.
pub fn windowed_cell(
    opts: &Opts,
    params: &FatTreeParams,
    wl: Workload,
    load: f64,
    base: SimTime,
    tag: u64,
) -> (Vec<FlowSpec>, Window) {
    let duration = opts.scaled(base);
    let mut rng = DetRng::new(opts.seed, tag);
    let specs = wl.generate(params, load, duration, &mut rng);
    (specs, Window::for_duration(duration, SimTime::from_ms(400)))
}

/// The fat-tree a k-ary experiment builds: `--topo k=K` if given, else
/// k = `full` — or `full / 2` under `--smoke`. Registry rows name this as
/// the fabric `--workload` is checked against.
pub fn kary_fabric(opts: &Opts, full: usize) -> FatTreeParams {
    let k = opts
        .topo_k
        .unwrap_or(if opts.smoke { full / 2 } else { full });
    FatTreeParams::k_ary(k).expect("--topo checked by Opts::check")
}

/// The short arrival window of the k-ary experiments (`full`, or `smoke`
/// under `--smoke`, scaled) with its drain.
pub fn kary_window(opts: &Opts, full: SimTime, smoke: SimTime, drain: SimTime) -> Window {
    Window::for_duration(opts.scaled(if opts.smoke { smoke } else { full }), drain)
}

/// Web-search all-to-all from the streaming per-source Poisson generator,
/// stream `(opts.seed, tag)`.
pub fn poisson_websearch(
    opts: &Opts,
    params: &FatTreeParams,
    load: f64,
    duration: SimTime,
    tag: u64,
) -> Vec<FlowSpec> {
    let rng = DetRng::new(opts.seed, tag);
    PoissonStream::new(params, load, duration, FlowSizeDist::web_search(), &rng).collect()
}

/// The paper fat-tree, whatever the options say, as the registry rows of
/// the experiments that build it and honor `--workload` name it.
pub fn paper_fabric(_: &Opts) -> FatTreeParams {
    FatTreeParams::paper()
}

/// The failure microbenchmark: 16 cross-pod flows of `bytes` (two per
/// host pair between ToR0/pod0 and ToR0/pod1) on the paper fat-tree, with
/// `fault` scripted onto agg 0 of pod 0's first core uplink — one of the 8
/// inter-pod paths. Runs with the flight recorder on for the flows `trace`
/// selects; every flow counts (no window).
pub fn faulted_microbench(
    scheme: &Scheme,
    bytes: u64,
    seed: u64,
    trace: TraceConfig,
    fault: &(dyn Fn(&mut FaultPlan, NodeId, PortId) + Sync),
) -> Cell {
    let params = FatTreeParams::paper();
    let specs = workloads::microbench(&params, 16, bytes);
    let out = Run::new(params, scheme, &specs, SimTime::from_secs(60), seed)
        .trace(trace)
        .faults(&|ft| {
            let (node, port) = ft.agg_core_link(0, 0);
            let mut plan = FaultPlan::new();
            fault(&mut plan, node, port);
            plan
        })
        .run();
    Cell::of(out, Window::WHOLE_RUN)
}

/// The failure microbenchmarks' shared table cells for one run:
/// `completed/total`, timeouts, timeout reroutes, and the worst completed
/// FCT (`-` when nothing completed).
pub fn failure_cells(c: &Cell) -> [String; 4] {
    [
        format!("{}/{}", c.fct.n(), c.out.flows.len()),
        c.out.get(Counter::Timeouts).to_string(),
        c.out.get(Counter::TimeoutReroutes).to_string(),
        secs_or_dash(c.fct.max()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::run_fat_tree;

    /// Four short flows starting 1 ms apart, so a window can cut between
    /// them; all under RepFlow's 100 KB replication threshold.
    fn staggered() -> Vec<FlowSpec> {
        (0..4)
            .map(|i| FlowSpec::tcp(i, i, 8 + i, 40_000, SimTime::from_ms(i as u64)))
            .collect()
    }

    fn window(start_ms: u64, end_ms: u64) -> Window {
        Window {
            start: SimTime::from_ms(start_ms),
            end: SimTime::from_ms(end_ms),
            drain_until: SimTime::from_secs(1),
        }
    }

    #[test]
    fn digest_trims_to_the_window_by_arrival_time() {
        let params = FatTreeParams::tiny();
        let until = SimTime::from_secs(1);
        let out = run_fat_tree(params, &Scheme::Ecmp, &staggered(), until, 1);
        let fct_of = |i: usize| out.flows[i].fct().expect("completes").as_secs_f64();
        // [1 ms, 3 ms): flows 1 and 2 — not the warm-up flow 0, not flow 3
        // arriving exactly at the window's end.
        let d = Digest::of(&out, window(1, 3));
        assert_eq!(d.fcts(), [fct_of(1), fct_of(2)]);
        assert_eq!(d.n(), 2);
        assert_eq!(d.mean(), (fct_of(1) + fct_of(2)) / 2.0);
        assert_eq!(d.max(), fct_of(1).max(fct_of(2)));
        assert_eq!(d.quantile(0.5), fct_of(1).min(fct_of(2)));
        assert_eq!(d.completion, 1.0);
        assert_eq!(Digest::of(&out, Window::WHOLE_RUN).n(), 4);
        assert_eq!(d.only(|s| s.bytes > 40_000).n(), 0);
        // A run cut short of flow 3's arrival: it is in the window but
        // cannot complete, and the completion fraction says so.
        let cut = run_fat_tree(params, &Scheme::Ecmp, &staggered(), SimTime::from_ms(3), 1);
        let d = Digest::of(&cut, window(2, 4));
        assert_eq!((d.n(), d.completion), (1, 0.5));
    }

    #[test]
    fn digest_counts_a_replicated_flow_once_at_its_first_finisher() {
        let until = SimTime::from_secs(1);
        let out = run_fat_tree(
            FatTreeParams::tiny(),
            &Scheme::RepFlow,
            &staggered(),
            until,
            1,
        );
        assert_eq!(out.replicas.len(), 4, "every flow is short: all replicated");
        assert_eq!(out.flows.len(), 8);
        let d = Digest::of(&out, Window::WHOLE_RUN);
        assert_eq!(d.n(), 4, "replicas fold into their primaries");
        for (&(p, r), s) in out.replicas.iter().zip(&d.samples) {
            let first = out.flows[p as usize].end.min(out.flows[r as usize].end);
            let fct = (first - out.flows[p as usize].start).as_secs_f64();
            assert_eq!(s.fct_s, fct, "flow {p}: first finisher wins");
        }
        // The raw-record digest sees all eight copies.
        assert_eq!(Digest::of_flows(&out.flows, Window::WHOLE_RUN).n(), 8);
    }

    #[test]
    fn an_empty_window_digests_to_zeros_and_full_completion() {
        let until = SimTime::from_secs(1);
        let out = run_fat_tree(FatTreeParams::tiny(), &Scheme::Ecmp, &staggered(), until, 1);
        let d = Digest::of(&out, window(10, 20));
        assert_eq!(
            (d.n(), d.mean(), d.quantile(0.99), d.max()),
            (0, 0.0, 0.0, 0.0)
        );
        assert_eq!(d.completion, 1.0);
    }

    #[test]
    fn baseline_is_ecmp_when_swept_else_the_first_scheme() {
        let fb = Scheme::FlowBender(Default::default());
        assert_eq!(baseline(&[fb, Scheme::Ecmp, Scheme::Rps]), 1);
        assert_eq!(baseline(&[Scheme::Rps, fb]), 0);
        assert_eq!(ratio_cell(Some(1.0), Some(2.0)), stats::fmt_ratio(0.5));
        assert_eq!(ratio_cell(Some(1.0), Some(0.0)), "-");
        assert_eq!(ratio_cell(None, Some(2.0)), "-");
        assert_eq!(ratio_cell(Some(1.0), None), "-");
    }
}
