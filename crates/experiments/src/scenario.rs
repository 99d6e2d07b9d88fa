//! Shared experiment machinery: the runner ([`Run`]), replication
//! expansion, and parallel sweeps.
//!
//! What to run is described by a [`crate::schemes::SchemeSpec`] (fabric +
//! host sides of one design, see the `schemes` module); this module owns
//! *how* to run it: building the topology, expanding replicated flows,
//! installing agents, auditing conservation, and fanning sweeps out over
//! a bounded worker pool.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use netsim::{
    Conservation, Counter, FaultPlan, FlowId, FlowSpec, FlowTimeline, Handoff, PortStats, Proto,
    RunResults, SimTime, Simulator, SloConfig, TelemetryConfig, TraceConfig,
};
use topology::{
    build_fat_tree, build_testbed, FatTree, FatTreeParams, ShardPlan, Testbed, TestbedParams,
};
use transport::{install_agents, install_agents_on};

use crate::report::TraceSel;
use crate::schemes::SchemeSpec;

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
    /// Cross-shard accounting of a sharded run (`None` at one shard and
    /// for testbed runs).
    pub shard_stats: Option<ShardStats>,
}

/// What the sharded engine did, summed over workers — exported/imported
/// are verified equal before results are handed out.
#[derive(Debug, Clone, Copy)]
pub struct ShardStats {
    /// Worker (shard) count.
    pub shards: usize,
    /// Packets handed off across shard boundaries (sum over shards; equals
    /// the verified import count).
    pub handoffs: u64,
    /// Synchronization epochs the coordinator ran.
    pub rounds: u64,
    /// The conservative lookahead every epoch granted, in picoseconds.
    pub lookahead_ps: u64,
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
    /// non-replicating schemes this is simply a copy of `flows`.
    ///
    /// The merge is defensive: a pair whose copies *all* failed to
    /// complete (reachable under heavy-loss fault plans) leaves the
    /// primary in the list with `end == SimTime::MAX` — see
    /// [`RunOutput::incomplete_flows`] — and a malformed pair (id out of
    /// range, self-pair) is skipped rather than panicking mid-analysis.
    pub fn effective_flows(&self) -> Vec<netsim::FlowRecord> {
        if self.replicas.is_empty() {
            return self.flows.to_vec();
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
        merged
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
    let mut eff: Vec<_> = out
        .effective_flows()
        .into_iter()
        .filter(|f| f.proto == Proto::Tcp)
        .collect();
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
fn expand_replicas(
    specs: &[FlowSpec],
    scheme: &SchemeSpec,
) -> (Vec<FlowSpec>, Vec<(FlowId, FlowId)>) {
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

/// The synchronization state shared by all workers of one sharded run.
///
/// The engine is a conservative barrier-epoch parallel DES. Each epoch:
///
/// 1. every shard publishes its next pending event time (`fetch_min` into
///    `round_min`) and hits barrier A;
/// 2. the barrier leader computes the global minimum `M` and opens the
///    window `[M, min(M + L - 1, until)]`, where `L` is the lookahead —
///    the minimum latency any message needs to *cross* a shard boundary;
///    barrier B publishes it;
/// 3. every shard runs its local events inside the window. Any message a
///    shard generates for another lands at `>= t + L >= M + L`, i.e.
///    strictly after the window, so nothing processed this epoch could
///    have been affected by a message still in transit;
/// 4. outboxes are posted into per-destination mailboxes, barrier C, and
///    each shard imports its mail sorted by source shard — a fixed merge
///    order, so event seq numbers (the tie-breakers) are reproducible
///    regardless of thread scheduling.
///
/// The run ends when the global minimum is beyond `until` (or no events
/// remain anywhere).
struct ShardCoord {
    barrier: Barrier,
    /// `fetch_min` target for the epoch's next-event agreement.
    round_min: AtomicU64,
    /// Global lookahead `L` in ps (`fetch_min` over shards before epoch 0).
    lookahead: AtomicU64,
    /// The agreed window deadline (inclusive, ps); `u64::MAX` = done.
    window: AtomicU64,
    rounds: AtomicU64,
    /// `mailboxes[dst]` collects `(src, messages)` posted this epoch.
    mailboxes: Vec<Mailbox>,
}

/// One shard's incoming mail for the epoch: `(source shard, messages)`.
type Mailbox = Mutex<Vec<(usize, Vec<Handoff>)>>;

const DONE: u64 = u64::MAX;

impl ShardCoord {
    fn new(shards: usize) -> Self {
        ShardCoord {
            barrier: Barrier::new(shards),
            round_min: AtomicU64::new(u64::MAX),
            lookahead: AtomicU64::new(u64::MAX),
            window: AtomicU64::new(DONE),
            rounds: AtomicU64::new(0),
            mailboxes: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Publish this shard's next event time and agree on the epoch window.
    /// Returns the inclusive deadline to run, or `None` when the run is
    /// over everywhere.
    fn agree(&self, next_ps: u64, until_ps: u64) -> Option<SimTime> {
        self.round_min.fetch_min(next_ps, Ordering::SeqCst);
        if self.barrier.wait().is_leader() {
            let m = self.round_min.swap(u64::MAX, Ordering::SeqCst);
            let l = self.lookahead.load(Ordering::SeqCst);
            let w = if m == u64::MAX || m > until_ps {
                DONE
            } else {
                // Process [m, m + l - 1]: messages generated at t >= m
                // arrive at >= m + l, strictly outside the window.
                m.saturating_add(l).saturating_sub(1).min(until_ps)
            };
            self.window.store(w, Ordering::SeqCst);
            self.rounds.fetch_add(1, Ordering::Relaxed);
        }
        self.barrier.wait();
        let w = self.window.load(Ordering::SeqCst);
        (w != DONE).then_some(SimTime::from_ps(w))
    }

    /// Post this shard's outbox into the destination mailboxes, then wait
    /// for every shard to do the same (barrier C).
    fn post(&self, from: usize, outbox: Vec<Handoff>, plan: &ShardPlan) {
        if !outbox.is_empty() {
            let n = self.mailboxes.len();
            let mut per: Vec<Vec<Handoff>> = vec![Vec::new(); n];
            for h in outbox {
                per[plan.owner_of(h.node())].push(h);
            }
            for (dst, msgs) in per.into_iter().enumerate() {
                if !msgs.is_empty() {
                    self.mailboxes[dst].lock().unwrap().push((from, msgs));
                }
            }
        }
        self.barrier.wait();
    }

    /// Drain this shard's mailbox in source-shard order.
    fn collect(&self, me: usize) -> Vec<Handoff> {
        let mut entries = std::mem::take(&mut *self.mailboxes[me].lock().unwrap());
        entries.sort_by_key(|&(src, _)| src);
        entries.into_iter().flat_map(|(_, v)| v).collect()
    }
}

/// Builds a [`netsim::FaultPlan`] against the constructed topology, so a
/// plan can target specific fabric links. Called once per worker, each on
/// its own copy of the fabric: it must be a pure function of the
/// [`FatTree`].
pub type PlanFn<'a> = &'a (dyn Fn(&FatTree) -> FaultPlan + Sync);

/// What [`Run::run`] answers when telemetry or the flight recorder is
/// asked of a multi-shard run (`Opts::check` rejects the CLI form with the
/// same text).
pub(crate) const SHARDED_PROBES_ERR: &str = "--trace and telemetry series need --shards 1: \
     their probe streams are keyed to one event ladder";

/// The one way to run a fat-tree simulation: `specs` on a fat-tree of
/// `params` under `scheme`, until `until` (which should cover the arrival
/// window plus a drain period), from `seed`. Everything else is opt-in:
///
/// ```
/// use experiments::{schemes, Run};
/// use netsim::{Counter, FaultPlan, FlowSpec, SimTime};
/// use topology::FatTreeParams;
///
/// // Eight cross-pod flows on the 16-host fabric, under FlowBender, on two
/// // engine threads, with one agg->core uplink silently losing packets.
/// let specs: Vec<FlowSpec> = (0..8)
///     .map(|i| FlowSpec::tcp(i, i, 8 + i, 200_000, SimTime::ZERO))
///     .collect();
/// let scheme = schemes::flowbender(Default::default());
/// let out = Run::new(FatTreeParams::tiny(), &scheme, &specs, SimTime::from_secs(5), 42)
///     .shards(2)
///     .faults(&|ft| {
///         let (agg, port) = ft.agg_core_link(0, 0);
///         let mut plan = FaultPlan::new();
///         plan.gray_loss(agg, port, 0.02, SimTime::ZERO);
///         plan
///     })
///     .run()?;
/// assert!(out.flows.iter().all(|f| f.fct().is_some()));
/// println!("{} events, {} reroutes", out.events, out.get(Counter::Reroutes));
/// # Ok::<(), String>(())
/// ```
///
/// **One set-up sequence.** Every simulator — the only one of a 1-shard
/// run, or each worker's of a sharded one — is built by the same private
/// function: `Simulator::new` → `set_telemetry` → `set_trace` → `set_slo`
/// → `build_fat_tree` → `set_owned` (sharded only) → `install_faults`.
/// An off telemetry/trace config, an unarmed SLO probe and an empty fault
/// plan are all no-ops, so the plain run *is* the instrumented run with
/// nothing switched on: tracing and telemetry are read-only, and a traced
/// run's flow records, counters and event count are byte-identical to the
/// untraced run at the same seed. Agents are installed after the faults,
/// so fault events carry seq numbers below every flow event.
///
/// **Sharding.** With `shards > 1` the fabric is partitioned
/// pod-granularly per [`ShardPlan`]; each worker thread simulates its
/// partition over a private event ladder and packet slab, and workers
/// synchronize through the conservative barrier-epoch protocol of
/// `ShardCoord`. Results merge in fixed shard order, so a run is
/// reproducible for a given `(seed, shards)` however the OS schedules the
/// workers. Fault plans shard cleanly: gray-loss and corruption draws come
/// from per-directed-port RNG streams (a function of the port's own
/// departure order, which sharding does not change), and each plan step
/// is compiled by the shard owning its anchor node, the directions owned
/// elsewhere crossing the mailbox as [`Handoff::Fault`] in a round-0
/// exchange *before* any traffic is installed. One caveat carried over
/// from [`Simulator::install_faults`]: two same-instant plan steps from
/// different anchor nodes targeting the same directed egress may apply in
/// source-shard order rather than plan order. Every worker asserts packet
/// conservation after **every** epoch's import phase and at quiesce, and
/// the merged ledger must show exported == imported.
///
/// **Byte-identity across shard counts needs a tie-free workload.** When
/// two packets arrive at one switch in the same picosecond from different
/// ingress ports, their service order is the event insertion order, which
/// a partitioned run reaches differently. Poisson-arrival workloads
/// (fabric-scale, chaos, feedback's hotspot, the property suites) never
/// tie in practice and are byte-identical at every shard count; the
/// synchronized `microbench` / incast flow sets (gray-failure,
/// link-failure, feedback's incast) tie constantly and are reproducible
/// per shard count but not across counts.
///
/// **What `run()` rejects** (as `Err`, never a panic): a shard count the
/// fabric cannot host (the [`ShardPlan`] message), and telemetry or
/// tracing with `shards > 1` ("... need --shards 1").
#[derive(Clone)]
pub struct Run<'a> {
    params: FatTreeParams,
    scheme: &'a SchemeSpec,
    specs: &'a [FlowSpec],
    until: SimTime,
    seed: u64,
    shards: usize,
    telemetry: TelemetryConfig,
    trace: TraceConfig,
    slo: Option<SloConfig>,
    faults: Option<PlanFn<'a>>,
}

/// One worker's place in a sharded run.
struct Shard<'a> {
    id: usize,
    plan: &'a ShardPlan,
    coord: &'a ShardCoord,
}

impl Shard<'_> {
    /// Post `sim`'s outbox, wait for every shard's, import this shard's
    /// mail.
    fn exchange(&self, sim: &mut Simulator) {
        self.coord.post(self.id, sim.take_outbox(), self.plan);
        for h in self.coord.collect(self.id) {
            sim.import(h);
        }
    }
}

impl<'a> Run<'a> {
    /// A plain single-threaded run: no telemetry, no tracing, no SLO
    /// probe, no faults.
    pub fn new(
        params: FatTreeParams,
        scheme: &'a SchemeSpec,
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
            shards: 1,
            telemetry: TelemetryConfig::off(),
            trace: TraceConfig::off(),
            slo: None,
            faults: None,
        }
    }

    /// Run on `n` worker threads (the sharded engine); 1 is the default.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Collect telemetry time series (single-shard only).
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.telemetry = cfg;
        self
    }

    /// Record flight-recorder timelines for the flows `cfg` selects; they
    /// come back in [`RunResults::timelines`] (single-shard only).
    pub fn trace(mut self, cfg: TraceConfig) -> Self {
        self.trace = cfg;
        self
    }

    /// Arm the reconvergence / goodput SLO probe. Every worker arms the
    /// same probe; per-shard [`netsim::SloResults`] merge with the flow
    /// records.
    pub fn slo(mut self, cfg: SloConfig) -> Self {
        self.slo = Some(cfg);
        self
    }

    /// Inject the faults `plan_fn` builds against the topology.
    pub fn faults(mut self, plan_fn: PlanFn<'a>) -> Self {
        self.faults = Some(plan_fn);
        self
    }

    /// The one set-up sequence (see the type docs).
    fn set_up(&self, shard: Option<&Shard>) -> Simulator {
        let mut sim = Simulator::new(self.seed);
        sim.set_telemetry(self.telemetry.clone());
        sim.set_trace(self.trace.clone());
        if let Some(cfg) = self.slo {
            sim.set_slo(cfg);
        }
        let ft = build_fat_tree(&mut sim, self.params, self.scheme.switch_config());
        if let Some(s) = shard {
            sim.set_owned(s.plan.owned_mask(s.id));
        }
        if let Some(plan_fn) = self.faults {
            sim.install_faults(&plan_fn(&ft));
        }
        sim
    }

    /// Simulate one partition of the fabric (all of it when `shard` is
    /// `None`) and audit its books.
    fn simulate(
        &self,
        specs: &[FlowSpec],
        shard: Option<&Shard>,
    ) -> (RunResults, u64, Conservation) {
        let mut sim = self.set_up(shard);
        if let Some(s) = shard {
            // Round 0: cross-shard fault directions cross the mailbox
            // before any traffic exists, so their event seqs sit below
            // every flow event — the single-shard install order.
            s.exchange(&mut sim);
        }
        install_agents_on(&mut sim, specs, &self.scheme.tcp_config(), |h| {
            shard.is_none_or(|s| s.plan.owner_of(h) == s.id)
        });
        match shard {
            None => sim.run_until(self.until),
            Some(s) => {
                let lookahead = sim
                    .lookahead()
                    .expect("a multi-shard plan must produce cross-shard links");
                s.coord
                    .lookahead
                    .fetch_min(lookahead.as_ps(), Ordering::SeqCst);
                loop {
                    let next = sim.next_event_time().map_or(u64::MAX, |t| t.as_ps());
                    let Some(deadline) = s.coord.agree(next, self.until.as_ps()) else {
                        break;
                    };
                    sim.run_window(deadline);
                    s.exchange(&mut sim);
                    // Every epoch keeps the books balanced, not just the
                    // quiesced end state — a fault that leaks or double
                    // counts a packet is caught in the epoch it happens.
                    sim.assert_conservation();
                }
            }
        }
        // Every run passes the conservation audit, in every build profile
        // (the simulator itself only debug-asserts it).
        sim.assert_conservation();
        let (events, conservation) = (sim.events_processed(), sim.conservation());
        (sim.into_results(), events, conservation)
    }

    /// Run it. Errors (rather than panics) on what the type docs list —
    /// the CLI surfaces these directly.
    pub fn run(&self) -> Result<RunOutput, String> {
        let shards = self.shards;
        let plan = ShardPlan::new(&self.params, shards)?;
        if shards > 1 && (self.telemetry.enabled || self.trace.enabled) {
            return Err(SHARDED_PROBES_ERR.to_string());
        }
        let (specs, replicas) = expand_replicas(self.specs, self.scheme);
        let coord = ShardCoord::new(shards);
        let worker_out = if shards == 1 {
            vec![self.simulate(&specs, None)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..shards)
                    .map(|id| {
                        let shard = Shard {
                            id,
                            plan: &plan,
                            coord: &coord,
                        };
                        let specs = &specs[..];
                        scope.spawn(move || self.simulate(specs, Some(&shard)))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard worker panicked"))
                    .collect()
            })
        };

        // Deterministic merge in shard order, then the cross-shard ledger:
        // every packet exported by one shard must have been imported by
        // another, and the global invariant must balance once handoffs
        // cancel.
        let mut it = worker_out.into_iter();
        let (mut results, mut events, mut c) = it.next().expect("at least one shard");
        for (r, e, o) in it {
            results.merge(r);
            events += e;
            c.injected += o.injected;
            c.delivered += o.delivered;
            c.in_flight += o.in_flight;
            for (a, b) in c.dropped.iter_mut().zip(o.dropped) {
                *a += b;
            }
            c.exported += o.exported;
            c.imported += o.imported;
        }
        let handoffs = c.exported;
        assert_eq!(
            c.exported, c.imported,
            "cross-shard handoff imbalance at quiesce: {handoffs} exported vs {} imported",
            c.imported
        );
        // Imports re-insert packets that already counted at their source
        // shard; subtract them so `injected` means true injections.
        c.injected -= c.imported;
        c.exported = 0;
        c.imported = 0;
        assert!(c.holds(), "packet conservation violated across shards: {c}");
        Ok(RunOutput {
            results,
            port_stats: Vec::new(),
            events,
            conservation: c,
            replicas,
            shard_stats: (shards > 1).then(|| ShardStats {
                shards,
                handoffs,
                rounds: coord.rounds.load(Ordering::Relaxed),
                lookahead_ps: coord.lookahead.load(Ordering::Relaxed),
            }),
        })
    }
}

/// The five-argument short form of [`Run`]: a plain single-threaded run.
pub fn run_fat_tree(
    params: FatTreeParams,
    scheme: &SchemeSpec,
    specs: &[FlowSpec],
    until: SimTime,
    seed: u64,
) -> RunOutput {
    Run::new(params, scheme, specs, until, seed)
        .run()
        .expect("one shard partitions every fabric")
}

/// [`Run`] with only a shard count set, for callers that predate the
/// builder.
pub fn run_fat_tree_sharded(
    params: FatTreeParams,
    scheme: &SchemeSpec,
    specs: &[FlowSpec],
    until: SimTime,
    seed: u64,
    shards: usize,
) -> Result<RunOutput, String> {
    Run::new(params, scheme, specs, until, seed)
        .shards(shards)
        .run()
}

/// Run `specs` on a testbed of `params` under `scheme`. `watch_uplinks`
/// selects `(tor_index, uplink_index)` ports to snapshot (for the hotspot
/// path-throughput measurement); their stats appear in `port_stats` in
/// order.
pub fn run_testbed(
    params: TestbedParams,
    scheme: &SchemeSpec,
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
/// configurations). Workers are capped at the machine's available
/// parallelism and pull indices from a shared queue, so a sweep of any
/// size never oversubscribes the host. Output order matches input order.
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
    parallel_map_capped(inputs, usize::MAX, f)
}

/// The sweep-worker budget for jobs that each run `shards` engine threads
/// of their own: one sweep worker per `shards` cores of available
/// parallelism, never below one. `sweep_cap(1)` is the full machine —
/// [`parallel_map`]'s classic behavior.
pub fn sweep_cap(shards: usize) -> usize {
    let avail = std::thread::available_parallelism().map_or(1, |p| p.get());
    (avail / shards.max(1)).max(1)
}

/// [`parallel_map`] with an explicit ceiling on concurrent workers
/// (effective worker count: `min(cap, available parallelism, inputs)`).
/// Sweeps whose jobs are themselves multi-threaded — sharded engine runs
/// with `--shards N` — pass [`sweep_cap`]`(N)` so scheme × load points
/// still run concurrently without oversubscribing the shard workers.
pub fn parallel_map_capped<I, T, F>(inputs: Vec<I>, cap: usize, f: F) -> Vec<T>
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
        .min(n)
        .min(cap.max(1));
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
pub fn sweep_schemes<P, T, F>(schemes: &[SchemeSpec], params: &[P], f: F) -> Vec<Vec<T>>
where
    P: Clone + Send + Sync,
    T: Send,
    F: Fn(&SchemeSpec, &P) -> T + Sync,
{
    sweep_schemes_sharded(schemes, params, 1, f)
}

/// [`sweep_schemes`] for jobs that each run the sharded engine with
/// `shards` worker threads: the sweep pool is capped at
/// [`sweep_cap`]`(shards)` so `sweep workers × shards` never exceeds the
/// machine's available parallelism. `shards = 1` is exactly
/// [`sweep_schemes`].
pub fn sweep_schemes_sharded<P, T, F>(
    schemes: &[SchemeSpec],
    params: &[P],
    shards: usize,
    f: F,
) -> Vec<Vec<T>>
where
    P: Clone + Send + Sync,
    T: Send,
    F: Fn(&SchemeSpec, &P) -> T + Sync,
{
    let jobs: Vec<(SchemeSpec, P)> = params
        .iter()
        .flat_map(|p| schemes.iter().map(|s| (s.clone(), p.clone())))
        .collect();
    let flat = parallel_map_capped(jobs, sweep_cap(shards), |(s, p)| f(&s, &p));
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
    /// do: each one, switched on alone at 1 shard, leaves flow records,
    /// counters and the event count of the plain run untouched — and the
    /// combinations `run()` cannot serve are an `Err`, not a panic.
    #[test]
    fn run_options_do_not_perturb_and_bad_combinations_are_errors() {
        let params = FatTreeParams::tiny();
        let specs: Vec<FlowSpec> = (0..8)
            .map(|i| FlowSpec::tcp(i, i, 8 + i, 300_000, SimTime::ZERO))
            .collect();
        let scheme = schemes::flowbender(fb::Config::default());
        let base = Run::new(params, &scheme, &specs, SimTime::from_secs(5), 1);
        let plain = base.run().unwrap();
        assert!(plain.flows.iter().all(|f| f.fct().is_some()));
        let slo = SloConfig {
            fail_at: SimTime::from_ms(1),
            bin: SimTime::from_us(100),
        };
        let telemetry = base
            .clone()
            .telemetry(TelemetryConfig::all(SimTime::from_us(100)));
        let trace = base.clone().trace(TraceConfig::flows((0..8).collect()));
        let variants = [
            ("telemetry", telemetry.clone()),
            ("trace", trace.clone()),
            ("slo", base.clone().slo(slo)),
            ("empty plan", base.clone().faults(&|_| FaultPlan::new())),
        ];
        for (what, run) in variants {
            let out = run.run().unwrap();
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
            assert!(out.shard_stats.is_none(), "{what}: one shard");
            // ...while the option itself did its job.
            match what {
                "telemetry" => assert!(!out.series().is_empty()),
                "trace" => assert_eq!(out.timelines().len(), 8),
                "slo" => assert!(out.slo().is_some()),
                _ => {}
            }
        }
        for (what, run) in [("telemetry", telemetry), ("trace", trace)] {
            let err = run.shards(2).run().unwrap_err();
            assert_eq!(err, SHARDED_PROBES_ERR, "{what} x 2 shards");
        }
        assert!(base.clone().shards(2).run().is_ok(), "2 pods host 2 shards");
        let err = base.shards(3).run().unwrap_err();
        assert!(err.contains("does not divide"), "ShardPlan's error: {err}");
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
            &schemes::ecmp(),
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
        let out = run_fat_tree(
            params,
            &schemes::repflow(),
            &specs,
            SimTime::from_secs(5),
            3,
        );
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
        let out = Run::new(
            params,
            &schemes::repflow(),
            &specs,
            SimTime::from_ms(200),
            3,
        )
        .faults(&kill_host0)
        .run()
        .unwrap();
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
        let out = Run::new(params, &schemes::ecmp(), &specs, SimTime::from_ms(200), 3)
            .faults(&kill_host0)
            .run()
            .unwrap();
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
        let out = run_fat_tree(params, &schemes::ecmp(), &specs, SimTime::from_secs(5), 3);
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
    fn parallel_map_capped_bounds_concurrency_and_preserves_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let out = parallel_map_capped((0..64).collect::<Vec<_>>(), 2, |i| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            live.fetch_sub(1, Ordering::SeqCst);
            i * 3
        });
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "cap=2 exceeded: peak {}",
            peak.load(Ordering::SeqCst)
        );
        // A zero cap is clamped to one worker, never a deadlock.
        let out = parallel_map_capped(vec![1, 2, 3], 0, |i| i);
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    fn sweep_cap_divides_the_machine_between_sweep_and_shards() {
        let avail = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(sweep_cap(1), avail.max(1));
        assert!(sweep_cap(avail * 2) >= 1, "never starves the sweep");
        assert!(
            sweep_cap(2).saturating_mul(2) <= avail.max(2),
            "cap x shards stays within the machine"
        );
        assert_eq!(sweep_cap(0), sweep_cap(1), "0 shards treated as 1");
    }

    #[test]
    fn sweep_schemes_sharded_matches_the_unsharded_sweep() {
        let schemes = vec![schemes::ecmp(), schemes::rps()];
        let f = |s: &SchemeSpec, p: &u64| format!("{}@{p}", s.name());
        let a = sweep_schemes(&schemes, &[10u64, 20u64], f);
        let b = sweep_schemes_sharded(&schemes, &[10u64, 20u64], 4, f);
        assert_eq!(a, b, "the cap changes scheduling, never results");
    }

    #[test]
    fn sweep_schemes_groups_by_param_in_registry_order() {
        let schemes = vec![schemes::ecmp(), schemes::rps()];
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
        let out = Run::new(params, &schemes::ecmp(), &specs, SimTime::from_secs(5), 1)
            .faults(&|ft| {
                let mut plan = FaultPlan::new();
                let (agg, port) = ft.agg_core_link(0, 0);
                plan.gray_loss(agg, port, 0.05, SimTime::ZERO);
                plan
            })
            .run()
            .unwrap();
        assert!(out.conservation.holds());
        assert_eq!(
            out.conservation.injected,
            out.conservation.delivered
                + out.conservation.dropped_total()
                + out.conservation.in_flight
        );
    }

    #[test]
    fn telemetry_run_collects_queue_and_reroute_series() {
        let params = FatTreeParams::tiny();
        let specs: Vec<FlowSpec> = (0..8)
            .map(|i| FlowSpec::tcp(i, i, 8 + i, 500_000, SimTime::ZERO))
            .collect();
        let scheme = schemes::flowbender(fb::Config::default());
        let out = Run::new(params, &scheme, &specs, SimTime::from_secs(5), 1)
            .telemetry(TelemetryConfig::all(SimTime::from_us(100)))
            .run()
            .unwrap();
        assert!(
            out.series()
                .iter()
                .any(|s| s.name().starts_with("queue_depth.")),
            "queue-depth series collected"
        );
        assert!(
            out.series().iter().any(|s| s.name().starts_with("vfield.")),
            "V-field traces collected (at least the start anchor)"
        );
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
