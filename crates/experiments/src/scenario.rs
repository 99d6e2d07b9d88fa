//! Shared experiment machinery: the runner ([`Run`]), replication
//! expansion, and parallel sweeps.
//!
//! What to run is described by a [`crate::schemes::Scheme`] (fabric +
//! host sides of one design, see the `schemes` module); this module owns
//! *how* to run it: building the topology, expanding replicated flows,
//! installing agents, auditing conservation, and fanning sweeps out over
//! a bounded worker pool.

use std::borrow::Cow;
use std::ops::Deref;

use netsim::{
    Counter, FaultPlan, FlowId, FlowSpec, FlowTimeline, PortStats, Proto, RunResults, SimTime,
    Simulator, SloConfig, TelemetryConfig, TraceConfig,
};
use topology::{build_fat_tree, build_testbed, FatTree, FatTreeParams, Testbed, TestbedParams};
use transport::install_agents;

use crate::report::TraceSel;
use crate::schemes::Scheme;

/// Everything a finished run hands back for analysis (thread-safe: no
/// simulator internals). Dereferences to [`RunResults`], so flow records,
/// counters, and telemetry series read directly (`out.flows`,
/// `out.get(c)`, `out.series()`).
#[derive(Debug)]
pub struct RunOutput {
    /// The read-side view of the run: flows, counters, telemetry series.
    pub results: RunResults,
    /// Snapshots of requested ports' statistics, in request order.
    pub port_stats: Vec<PortStats>,
    /// Events the simulator processed (for performance reporting).
    pub events: u64,
    /// The end-of-run packet-conservation ledger (already verified to
    /// balance — the runners assert it before handing results out).
    pub conservation: netsim::Conservation,
    /// `(primary, replica)` flow-id pairs added by a replicating scheme
    /// (empty for everything but RepFlow-style specs). Replica flows
    /// appear in `flows` like any other; use [`RunOutput::effective_flows`]
    /// for the first-finisher-wins view.
    pub replicas: Vec<(FlowId, FlowId)>,
    /// Always `None` from [`Run`]; part of the shim the frozen `benchmark/`
    /// package compiles against (see [`run_fat_tree_sharded`]).
    pub shard_stats: Option<ShardStats>,
}

impl Deref for RunOutput {
    type Target = RunResults;
    fn deref(&self) -> &RunResults {
        &self.results
    }
}

impl RunOutput {
    /// The flow records as the *application* experienced them: replicas
    /// are folded into their primary (a replicated flow completes when
    /// its first copy does) and dropped from the list. For
    /// non-replicating schemes this is `flows` itself, borrowed.
    ///
    /// The merge is defensive: a pair whose copies *all* failed to
    /// complete (reachable under heavy-loss fault plans) leaves the
    /// primary in the list with `end == SimTime::MAX` — see
    /// [`RunOutput::incomplete_flows`] — and a malformed pair (id out of
    /// range, self-pair) is skipped rather than panicking mid-analysis.
    pub fn effective_flows(&self) -> Cow<'_, [netsim::FlowRecord]> {
        if self.replicas.is_empty() {
            return Cow::Borrowed(&self.flows);
        }
        let mut merged = self.flows.to_vec();
        let mut drop: Vec<bool> = vec![false; merged.len()];
        for &(primary, replica) in &self.replicas {
            let (p, r) = (primary as usize, replica as usize);
            if p == r || p >= merged.len() || r >= merged.len() {
                debug_assert!(false, "malformed replica pair ({primary}, {replica})");
                continue;
            }
            // First finisher wins; copies that never finished carry
            // SimTime::MAX, so min() keeps whichever copy (if any) made it.
            if merged[r].end < merged[p].end {
                merged[p].end = merged[r].end;
            }
            drop[r] = true;
        }
        let mut i = 0;
        merged.retain(|_| {
            let keep = !drop[i];
            i += 1;
            keep
        });
        Cow::Owned(merged)
    }

    /// Ids of effective (replica-merged) flows that never completed.
    /// Healthy runs with an adequate drain return an empty list; fault
    /// plans that kill a flow's every copy surface it here instead of
    /// panicking in analysis code.
    pub fn incomplete_flows(&self) -> Vec<FlowId> {
        self.effective_flows()
            .iter()
            .filter(|f| f.fct().is_none())
            .map(|f| f.flow)
            .collect()
    }

    /// Out-of-order arrivals as a fraction of the data packets received.
    pub fn ooo_frac(&self) -> f64 {
        self.get(Counter::OooPktsRcvd) as f64 / self.get(Counter::DataPktsRcvd).max(1) as f64
    }

    /// Path changes the end hosts made: congestion- plus timeout-driven.
    pub fn reroutes(&self) -> u64 {
        self.get(Counter::Reroutes) + self.get(Counter::TimeoutReroutes)
    }
}

/// The `k` slowest effective TCP flows of a finished run, slowest first
/// (the natural selection for `--trace slowest=k`). Incomplete flows rank
/// slowest of all — they are exactly what a diagnosis wants to see — and
/// ties break by flow id so the selection is deterministic.
pub fn slowest_flows(out: &RunOutput, k: usize) -> Vec<FlowId> {
    let flows = out.effective_flows();
    let mut eff: Vec<_> = flows.iter().filter(|f| f.proto == Proto::Tcp).collect();
    eff.sort_by_key(|f| (std::cmp::Reverse(f.fct().unwrap_or(SimTime::MAX)), f.flow));
    eff.into_iter().take(k).map(|f| f.flow).collect()
}

/// The flight-recorder half of `--trace`: resolve `sel` against the
/// finished `probe` run (`slowest=k` ranks its own FCTs), `replay` the
/// same cell at the same seed with the recorder on, and return the
/// timelines. Tracing is read-only, so the replay must process exactly
/// the probe's events — asserted here. Empty when `sel` is off.
pub fn traced_replay(
    sel: &TraceSel,
    probe: &RunOutput,
    replay: impl FnOnce(TraceConfig) -> RunOutput,
) -> Vec<FlowTimeline> {
    if sel.is_off() {
        return Vec::new();
    }
    let traced = replay(sel.config_with(|k| slowest_flows(probe, k)));
    assert_eq!(
        traced.events, probe.events,
        "tracing must not perturb the simulation"
    );
    traced.results.timelines().to_vec()
}

/// Expand `specs` for `scheme`: a replicating scheme gets one replica per
/// short TCP flow appended (dense ids continuing after the primaries),
/// everything else passes through untouched. Returns the expanded spec
/// list and the `(primary, replica)` pairs.
fn expand_replicas(specs: &[FlowSpec], scheme: &Scheme) -> (Vec<FlowSpec>, Vec<(FlowId, FlowId)>) {
    let Some(rep) = scheme.replication() else {
        return (specs.to_vec(), Vec::new());
    };
    let mut all = specs.to_vec();
    let mut next: FlowId = specs.iter().map(|s| s.id + 1).max().unwrap_or(0);
    let mut pairs = Vec::new();
    for s in specs {
        if s.proto == Proto::Tcp && s.bytes < rep.max_bytes && s.clone_of.is_none() {
            all.push(s.replica(next, rep.replica_v));
            pairs.push((s.id, next));
            next += 1;
        }
    }
    (all, pairs)
}

/// Builds a [`netsim::FaultPlan`] against the constructed topology, so a
/// plan can target specific fabric links.
pub type PlanFn<'a> = &'a (dyn Fn(&FatTree) -> FaultPlan + Sync);

/// The one way to run a fat-tree simulation: `specs` on a fat-tree of
/// `params` under `scheme`, until `until` (which should cover the arrival
/// window plus a drain period), from `seed`. Everything else is opt-in:
///
/// ```
/// use experiments::{Run, Scheme};
/// use netsim::{Counter, FaultPlan, FlowSpec, SimTime};
/// use topology::FatTreeParams;
///
/// // Eight cross-pod flows on the 16-host fabric, under FlowBender, with
/// // one agg->core uplink silently losing packets.
/// let specs: Vec<FlowSpec> = (0..8)
///     .map(|i| FlowSpec::tcp(i, i, 8 + i, 200_000, SimTime::ZERO))
///     .collect();
/// let scheme = Scheme::FlowBender(Default::default());
/// let out = Run::new(FatTreeParams::tiny(), &scheme, &specs, SimTime::from_secs(5), 42)
///     .faults(&|ft| {
///         let (agg, port) = ft.agg_core_link(0, 0);
///         let mut plan = FaultPlan::new();
///         plan.gray_loss(agg, port, 0.02, SimTime::ZERO);
///         plan
///     })
///     .run();
/// assert!(out.flows.iter().all(|f| f.fct().is_some()));
/// println!("{} events, {} reroutes", out.events, out.get(Counter::Reroutes));
/// ```
///
/// **One set-up sequence:** `Simulator::new` → `set_telemetry` →
/// `set_trace` → `set_slo` → `build_fat_tree` → `install_faults` →
/// `install_agents`. An off telemetry/trace config, an unarmed SLO probe
/// and an empty fault plan are all no-ops, so the plain run *is* the
/// instrumented run with nothing switched on: tracing and telemetry are
/// read-only, and a traced run's flow records, counters and event count
/// are byte-identical to the untraced run at the same seed. Agents are
/// installed after the faults, so fault events carry seq numbers below
/// every flow event. Packet conservation is asserted before results are
/// handed out, in every build profile.
#[derive(Clone)]
pub struct Run<'a> {
    params: FatTreeParams,
    scheme: &'a Scheme,
    specs: &'a [FlowSpec],
    until: SimTime,
    seed: u64,
    telemetry: TelemetryConfig,
    trace: TraceConfig,
    slo: Option<SloConfig>,
    faults: Option<PlanFn<'a>>,
}

impl<'a> Run<'a> {
    /// A plain run: no telemetry, no tracing, no SLO probe, no faults.
    pub fn new(
        params: FatTreeParams,
        scheme: &'a Scheme,
        specs: &'a [FlowSpec],
        until: SimTime,
        seed: u64,
    ) -> Self {
        Run {
            params,
            scheme,
            specs,
            until,
            seed,
            telemetry: TelemetryConfig::off(),
            trace: TraceConfig::off(),
            slo: None,
            faults: None,
        }
    }

    /// Collect telemetry time series.
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.telemetry = cfg;
        self
    }

    /// Record flight-recorder timelines for the flows `cfg` selects; they
    /// come back in [`RunResults::timelines`].
    pub fn trace(mut self, cfg: TraceConfig) -> Self {
        self.trace = cfg;
        self
    }

    /// Arm the reconvergence / goodput SLO probe
    /// ([`RunResults::slo`]).
    pub fn slo(mut self, cfg: SloConfig) -> Self {
        self.slo = Some(cfg);
        self
    }

    /// Inject the faults `plan_fn` builds against the topology.
    pub fn faults(mut self, plan_fn: PlanFn<'a>) -> Self {
        self.faults = Some(plan_fn);
        self
    }

    /// Run it (the set-up sequence of the type docs, then `run_until`).
    pub fn run(&self) -> RunOutput {
        let mut sim = Simulator::new(self.seed);
        sim.set_telemetry(self.telemetry);
        sim.set_trace(self.trace.clone());
        if let Some(cfg) = self.slo {
            sim.set_slo(cfg);
        }
        let ft = build_fat_tree(&mut sim, self.params, self.scheme.switch_config());
        if let Some(plan_fn) = self.faults {
            sim.install_faults(&plan_fn(&ft));
        }
        let (specs, replicas) = expand_replicas(self.specs, self.scheme);
        install_agents(&mut sim, &specs, &self.scheme.tcp_config());
        sim.run_until(self.until);
        // Every run passes the conservation audit, in every build profile
        // (the simulator itself only debug-asserts it).
        sim.assert_conservation();
        let (events, conservation) = (sim.events_processed(), sim.conservation());
        RunOutput {
            results: sim.into_results(),
            port_stats: Vec::new(),
            events,
            conservation,
            replicas,
            shard_stats: None,
        }
    }
}

/// The five-argument short form of [`Run`]: a plain run.
pub fn run_fat_tree(
    params: FatTreeParams,
    scheme: &Scheme,
    specs: &[FlowSpec],
    until: SimTime,
    seed: u64,
) -> RunOutput {
    Run::new(params, scheme, specs, until, seed).run()
}

// ---- Shim for the frozen `benchmark/` package -------------------------
// flowbench's shard probe (benchmark/src/probes.rs) still compiles against
// `RunOutput::shard_stats`, `ShardStats` and `run_fat_tree_sharded`, and
// unwraps the 2-shard result's stats. There is one engine (DESIGN §12), so
// this reports what actually happens: one worker, one window spanning the
// horizon, nothing handed off. The `benchmark` PR that drops the probe
// deletes this block and the `shard_stats` field.

/// What a run asked for with more than one shard reports (see above).
#[derive(Debug, Clone, Copy)]
pub struct ShardStats {
    /// Workers that simulated the fabric: always 1.
    pub shards: usize,
    /// Packets handed between workers: always 0.
    pub handoffs: u64,
    /// Synchronization windows: always 1.
    pub rounds: u64,
    /// Width of that one window, in picoseconds: the run's horizon.
    pub lookahead_ps: u64,
}

/// [`Run`] on the calling thread whatever `shards` says (0 is an error).
pub fn run_fat_tree_sharded(
    params: FatTreeParams,
    scheme: &Scheme,
    specs: &[FlowSpec],
    until: SimTime,
    seed: u64,
    shards: usize,
) -> Result<RunOutput, String> {
    if shards == 0 {
        return Err("--shards 0: at least one shard is required".to_string());
    }
    let mut out = Run::new(params, scheme, specs, until, seed).run();
    out.shard_stats = (shards > 1).then_some(ShardStats {
        shards: 1,
        handoffs: 0,
        rounds: 1,
        lookahead_ps: until.as_ps(),
    });
    Ok(out)
}
// ---- end of the shim ---------------------------------------------------

/// Run `specs` on a testbed of `params` under `scheme`. `watch_uplinks`
/// selects `(tor_index, uplink_index)` ports to snapshot (for the hotspot
/// path-throughput measurement); their stats appear in `port_stats` in
/// order.
pub fn run_testbed(
    params: TestbedParams,
    scheme: &Scheme,
    specs: &[FlowSpec],
    until: SimTime,
    seed: u64,
    watch_uplinks: &[(usize, usize)],
) -> RunOutput {
    let mut sim = Simulator::new(seed);
    let tb: Testbed = build_testbed(&mut sim, params, scheme.switch_config());
    let (specs, replicas) = expand_replicas(specs, scheme);
    install_agents(&mut sim, &specs, &scheme.tcp_config());
    sim.run_until(until);
    sim.assert_conservation();
    let port_stats = watch_uplinks
        .iter()
        .map(|&(t, a)| sim.port_stats(tb.tors[t], tb.tor_uplinks[t][a]))
        .collect();
    let (events, conservation) = (sim.events_processed(), sim.conservation());
    RunOutput {
        results: sim.into_results(),
        port_stats,
        events,
        conservation,
        replicas,
        shard_stats: None,
    }
}

/// Map `f` over `inputs` on a bounded worker pool (runs are
/// single-threaded and independent; sweeps parallelize across
/// configurations — the only parallelism there is, see DESIGN §12).
/// Workers are capped at the machine's available parallelism and pull
/// indices from a shared queue, so a sweep of any size never
/// oversubscribes the host. Output order matches input order.
///
/// Each call of `f` runs under `catch_unwind`: a panic is captured
/// per-index and re-raised from the calling thread as one panic naming
/// *which* inputs failed, instead of poisoning the shared result slots and
/// surfacing as an unrelated mutex error.
pub fn parallel_map<I, T, F>(inputs: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(n);
    let next = AtomicUsize::new(0);
    let inputs: Vec<Mutex<Option<I>>> = inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<std::thread::Result<T>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let input = inputs[i].lock().unwrap().take().expect("input taken once");
                // Capture the panic instead of unwinding through the
                // worker: the mutexes stay unpoisoned and every other
                // index still completes.
                let out = catch_unwind(AssertUnwindSafe(|| f(input)));
                *results[i].lock().unwrap() = Some(out);
            });
        }
    });
    let mut out = Vec::with_capacity(n);
    let mut failures: Vec<String> = Vec::new();
    for (i, m) in results.into_iter().enumerate() {
        match m.into_inner().unwrap() {
            Some(Ok(v)) => out.push(v),
            Some(Err(payload)) => {
                failures.push(format!("input {i}: {}", panic_text(payload.as_ref())))
            }
            None => unreachable!("every index is claimed exactly once"),
        }
    }
    assert!(
        failures.is_empty(),
        "parallel_map: {} of {n} inputs panicked:\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
    out
}

/// Run `f` for every `(param, scheme)` pair on the [`parallel_map`] pool
/// and return the results grouped by parameter: `out[p]` holds one entry
/// per scheme, in registry order. This is the one sweep loop every
/// experiment used to hand-roll; jobs are flattened params-outer /
/// schemes-inner so result order matches the nested loops they replaced.
pub fn sweep_schemes<P, T, F>(schemes: &[Scheme], params: &[P], f: F) -> Vec<Vec<T>>
where
    P: Clone + Send + Sync,
    T: Send,
    F: Fn(&Scheme, &P) -> T + Sync,
{
    let jobs: Vec<(Scheme, P)> = params
        .iter()
        .flat_map(|p| schemes.iter().map(|&s| (s, p.clone())))
        .collect();
    let flat = parallel_map(jobs, |(s, p)| f(&s, &p));
    let mut flat = flat.into_iter();
    params
        .iter()
        .map(|_| (&mut flat).take(schemes.len()).collect())
        .collect()
}

/// Best-effort text of a captured panic payload (panics carry `&str` or
/// `String` in practice).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

/// Common measurement conventions for windowed workloads.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Ignore flows arriving before this (warm-up).
    pub start: SimTime,
    /// Ignore flows arriving at/after this (cool-down); also the end of
    /// the arrival process.
    pub end: SimTime,
    /// Keep simulating until this, so in-window flows can finish.
    pub drain_until: SimTime,
}

impl Window {
    /// No trimming: every flow of the run counts. For the fixed flow sets
    /// (microbenchmarks) that have no arrival process to warm up.
    pub const WHOLE_RUN: Window = Window {
        start: SimTime::ZERO,
        end: SimTime::MAX,
        drain_until: SimTime::MAX,
    };

    /// A window of `duration` with 10 % warm-up and a generous drain.
    pub fn for_duration(duration: SimTime, drain: SimTime) -> Self {
        Window {
            start: SimTime::from_ps(duration.as_ps() / 10),
            end: duration,
            drain_until: duration + drain,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes;
    use flowbender as fb;

    /// Kill host 0's NIC outright: nothing it sources can ever finish.
    fn kill_host0(ft: &FatTree) -> FaultPlan {
        let mut plan = FaultPlan::new();
        plan.gray_loss(ft.hosts[0], 0, 1.0, SimTime::ZERO);
        plan
    }

    /// Every `Run` option is read-only or a no-op when it has nothing to
    /// do: each one, switched on alone, leaves flow records, counters and
    /// the event count of the plain run untouched.
    #[test]
    fn run_options_do_not_perturb() {
        let params = FatTreeParams::tiny();
        let specs: Vec<FlowSpec> = (0..8)
            .map(|i| FlowSpec::tcp(i, i, 8 + i, 300_000, SimTime::ZERO))
            .collect();
        let scheme = Scheme::FlowBender(fb::Config::default());
        let base = Run::new(params, &scheme, &specs, SimTime::from_secs(5), 1);
        let plain = base.run();
        assert!(plain.flows.iter().all(|f| f.fct().is_some()));
        let slo = SloConfig {
            fail_at: SimTime::from_ms(1),
            bin: SimTime::from_us(100),
        };
        let telemetry = base
            .clone()
            .telemetry(TelemetryConfig::every(SimTime::from_us(100)));
        let trace = base.clone().trace(TraceConfig::flows((0..8).collect()));
        let variants = [
            ("telemetry", telemetry),
            ("trace", trace),
            ("slo", base.clone().slo(slo)),
            ("empty plan", base.clone().faults(&|_| FaultPlan::new())),
        ];
        for (what, run) in variants {
            let out = run.run();
            assert_eq!(out.events, plain.events, "{what}: events");
            assert_eq!(
                format!("{:?}", out.flows),
                format!("{:?}", plain.flows),
                "{what}: flow records"
            );
            for c in Counter::all() {
                assert_eq!(out.get(c), plain.get(c), "{what}: {}", c.name());
            }
            assert_eq!(out.conservation, plain.conservation, "{what}: ledger");
            // ...while the option itself did its job.
            match what {
                "telemetry" => assert!(!out.series().is_empty()),
                "trace" => assert_eq!(out.timelines().len(), 8),
                "slo" => assert!(out.slo().is_some()),
                _ => {}
            }
        }
    }

    /// The benchmark shim: whatever shard count is asked for, the run is
    /// the plain run, and more than one reports the single window it was.
    #[test]
    fn shard_shim_runs_one_engine_and_says_so() {
        let params = FatTreeParams::tiny();
        let specs: Vec<FlowSpec> = (0..8)
            .map(|i| FlowSpec::tcp(i, i, 8 + i, 100_000, SimTime::ZERO))
            .collect();
        let until = SimTime::from_secs(5);
        let run = |shards| run_fat_tree_sharded(params, &Scheme::Ecmp, &specs, until, 1, shards);
        assert!(run(0).is_err());
        let (one, two) = (run(1).unwrap(), run(2).unwrap());
        assert!(one.shard_stats.is_none());
        assert_eq!(two.events, one.events);
        assert_eq!(format!("{:?}", two.flows), format!("{:?}", one.flows));
        let st = two.shard_stats.unwrap();
        assert_eq!(
            (st.shards, st.handoffs, st.rounds, st.lookahead_ps),
            (1, 0, 1, until.as_ps())
        );
    }

    #[test]
    fn tiny_fat_tree_run_completes_flows() {
        let params = FatTreeParams::tiny();
        let specs: Vec<FlowSpec> = (0..8)
            .map(|i| FlowSpec::tcp(i, i, 8 + i, 500_000, SimTime::ZERO))
            .collect();
        for scheme in schemes::paper_set() {
            let out = run_fat_tree(params, &scheme, &specs, SimTime::from_secs(5), 1);
            let done = out.flows.iter().filter(|f| f.fct().is_some()).count();
            assert_eq!(done, 8, "{} incomplete", scheme.name());
            assert!(out.events > 0);
            let _ = out.get(Counter::DataPktsRcvd);
        }
    }

    #[test]
    fn testbed_run_snapshots_requested_ports() {
        let params = TestbedParams::tiny();
        let specs = vec![
            FlowSpec::tcp(0, 0, 5, 1_000_000, SimTime::ZERO),
            FlowSpec::udp(1, 0, 5, 1_000_000_000, SimTime::ZERO),
        ];
        let watch: Vec<(usize, usize)> = (0..4).map(|a| (0usize, a)).collect();
        let out = run_testbed(
            params,
            &Scheme::Ecmp,
            &specs,
            SimTime::from_ms(20),
            7,
            &watch,
        );
        assert_eq!(out.port_stats.len(), 4);
        let tcp_total: u64 = out.port_stats.iter().map(|p| p.tx_bytes_tcp).sum();
        let udp_total: u64 = out.port_stats.iter().map(|p| p.tx_bytes_udp).sum();
        assert!(tcp_total > 0, "TCP crossed the uplinks");
        assert!(udp_total > 0, "UDP crossed the uplinks");
        assert_eq!(out.flows[1].proto, Proto::Udp);
    }

    #[test]
    fn replicating_scheme_expands_and_merges() {
        let params = FatTreeParams::tiny();
        // Two short flows (replicated) and one long flow (not).
        let specs = vec![
            FlowSpec::tcp(0, 0, 8, 50_000, SimTime::ZERO),
            FlowSpec::tcp(1, 1, 9, 30_000, SimTime::ZERO),
            FlowSpec::tcp(2, 2, 10, 2_000_000, SimTime::ZERO),
        ];
        let out = run_fat_tree(params, &Scheme::RepFlow, &specs, SimTime::from_secs(5), 3);
        assert_eq!(out.replicas, vec![(0, 3), (1, 4)]);
        assert_eq!(out.flows.len(), 5, "two replicas were installed");
        assert!(out.flows.iter().all(|f| f.fct().is_some()));
        let eff = out.effective_flows();
        assert_eq!(eff.len(), 3, "replicas folded away");
        for &(p, r) in &out.replicas {
            let merged: Vec<_> = eff.iter().filter(|f| f.flow == p).collect();
            assert_eq!(merged.len(), 1, "primary {p} present exactly once");
            assert_eq!(
                merged[0].end,
                out.flows[p as usize].end.min(out.flows[r as usize].end),
                "first finisher wins"
            );
        }
        assert!(out.incomplete_flows().is_empty(), "healthy run completes");
        assert_eq!(eff[2].end, out.flows[2].end, "long flow untouched");
        assert!(out.conservation.holds(), "duplicates stay in the ledger");
    }

    #[test]
    fn replica_merge_survives_a_primary_that_never_completes() {
        // Regression: a fault plan that silently eats *every* copy of a
        // replicated flow used to make effective_flows()'s callers panic
        // (`.find(...).unwrap()` on an incomplete merge). Kill host 0's
        // NIC outright: flow 0 and its replica share src 0, so neither
        // copy can ever finish.
        let params = FatTreeParams::tiny();
        let specs = vec![
            FlowSpec::tcp(0, 0, 8, 50_000, SimTime::ZERO),
            FlowSpec::tcp(1, 1, 9, 30_000, SimTime::ZERO),
        ];
        let out = Run::new(params, &Scheme::RepFlow, &specs, SimTime::from_ms(200), 3)
            .faults(&kill_host0)
            .run();
        let eff = out.effective_flows();
        assert_eq!(eff.len(), 2, "replicas fold away even when incomplete");
        let incomplete = out.incomplete_flows();
        assert!(incomplete.contains(&0), "the killed flow is surfaced");
        assert!(!incomplete.contains(&1), "the healthy flow completed");
        assert!(out.conservation.holds(), "dropped copies stay audited");
    }

    #[test]
    fn slowest_flows_ranks_incomplete_first_and_breaks_ties_by_id() {
        let params = FatTreeParams::tiny();
        let specs = vec![
            FlowSpec::tcp(0, 0, 8, 50_000, SimTime::ZERO),
            FlowSpec::tcp(1, 1, 9, 30_000, SimTime::ZERO),
            FlowSpec::tcp(2, 2, 10, 2_000_000, SimTime::ZERO),
        ];
        let out = Run::new(params, &Scheme::Ecmp, &specs, SimTime::from_ms(200), 3)
            .faults(&kill_host0)
            .run();
        let slow = slowest_flows(&out, 2);
        assert_eq!(slow.len(), 2);
        assert_eq!(slow[0], 0, "the flow that never finished ranks slowest");
        assert_eq!(
            slowest_flows(&out, 10).len(),
            3,
            "k larger than the flow count returns everything"
        );
    }

    #[test]
    fn non_replicating_scheme_has_no_replicas() {
        let params = FatTreeParams::tiny();
        let specs = vec![FlowSpec::tcp(0, 0, 8, 50_000, SimTime::ZERO)];
        let out = run_fat_tree(params, &Scheme::Ecmp, &specs, SimTime::from_secs(5), 3);
        assert!(out.replicas.is_empty());
        assert_eq!(out.effective_flows().len(), out.flows.len());
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..16).collect::<Vec<_>>(), |i| i * i);
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_far_more_inputs_than_cores() {
        // The old implementation spawned one thread per input; this must
        // stay bounded and still produce every result in order.
        let out = parallel_map((0..1_000).collect::<Vec<_>>(), |i| i + 1);
        assert_eq!(out, (1..=1_000).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_names_the_panicking_inputs() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map((0..16).collect::<Vec<_>>(), |i| {
                if i == 7 || i == 11 {
                    panic!("scenario {i} exploded");
                }
                i
            })
        })
        .expect_err("a worker panic must propagate");
        let msg = caught
            .downcast_ref::<String>()
            .expect("propagated panic carries a message");
        assert!(msg.contains("input 7"), "names index 7: {msg}");
        assert!(msg.contains("input 11"), "names index 11: {msg}");
        assert!(msg.contains("scenario 7 exploded"), "keeps cause: {msg}");
    }

    #[test]
    fn sweep_schemes_groups_by_param_in_registry_order() {
        let schemes = vec![Scheme::Ecmp, Scheme::Rps];
        let out = sweep_schemes(&schemes, &[10u64, 20u64], |s, p| {
            format!("{}@{p}", s.name())
        });
        assert_eq!(
            out,
            vec![
                vec!["ECMP@10".to_string(), "RPS@10".to_string()],
                vec!["ECMP@20".to_string(), "RPS@20".to_string()],
            ]
        );
    }

    #[test]
    fn fault_runner_injects_and_audits() {
        let params = FatTreeParams::tiny();
        let specs: Vec<FlowSpec> = (0..8)
            .map(|i| FlowSpec::tcp(i, i, 8 + i, 200_000, SimTime::ZERO))
            .collect();
        let out = Run::new(params, &Scheme::Ecmp, &specs, SimTime::from_secs(5), 1)
            .faults(&|ft| {
                let mut plan = FaultPlan::new();
                let (agg, port) = ft.agg_core_link(0, 0);
                plan.gray_loss(agg, port, 0.05, SimTime::ZERO);
                plan
            })
            .run();
        assert!(out.conservation.holds());
        assert_eq!(
            out.conservation.injected,
            out.conservation.delivered
                + out.conservation.dropped_total()
                + out.conservation.in_flight
        );
    }

    /// Telemetry collects exactly two families, queue depths and V-field
    /// traces — also on a run that reroutes and overflows queues, where
    /// per-transmission, per-epoch and per-drop probes once fired too.
    #[test]
    fn telemetry_run_collects_queue_and_reroute_series() {
        let params = FatTreeParams {
            fabric_queue: netsim::QueueSpec {
                capacity: 12_000,
                mark_threshold: 6_000,
            },
            ..FatTreeParams::tiny()
        };
        let specs: Vec<FlowSpec> = (0..8)
            .map(|i| FlowSpec::tcp(i, i, 8 + i, 500_000, SimTime::ZERO))
            .collect();
        let scheme = Scheme::FlowBender(fb::Config::default());
        let out = Run::new(params, &scheme, &specs, SimTime::from_secs(5), 1)
            .telemetry(TelemetryConfig::every(SimTime::from_us(100)))
            .run();
        assert!(out.get(Counter::Reroutes) > 0, "a flow must reroute");
        assert!(out.get(Counter::QueueDrops) > 0, "a queue must overflow");
        let family = |s: &netsim::Series| s.name().split('.').next().unwrap().to_string();
        let mut families: Vec<String> = out.series().iter().map(family).collect();
        families.sort();
        families.dedup();
        assert_eq!(families, ["queue_depth", "vfield"]);
        // The same run without telemetry behaves identically flow-wise.
        let plain = run_fat_tree(params, &scheme, &specs, SimTime::from_secs(5), 1);
        assert!(plain.series().is_empty());
        assert_eq!(
            plain.events, out.events,
            "telemetry must not perturb the simulation"
        );
        let fcts_a: Vec<_> = out.flows.iter().filter_map(|f| f.fct()).collect();
        let fcts_b: Vec<_> = plain.flows.iter().filter_map(|f| f.fct()).collect();
        assert_eq!(fcts_a, fcts_b);
    }

    #[test]
    fn window_conventions() {
        let w = Window::for_duration(SimTime::from_ms(100), SimTime::from_ms(400));
        assert_eq!(w.start, SimTime::from_ms(10));
        assert_eq!(w.end, SimTime::from_ms(100));
        assert_eq!(w.drain_until, SimTime::from_ms(500));
    }
}
