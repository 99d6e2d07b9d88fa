//! One repetition of one workload: set up, simulate, collect, and check.
//!
//! Everything the program is asked to do goes through its public API —
//! the same calls `experiments::run_fat_tree` makes, spelled out so each
//! layer boundary can be timed on its own.

use std::hash::Hasher;
use std::time::Instant;

use experiments::{Opts, RunOutput, RunSummary};
use netsim::{Conservation, Counter, FxHasher, Proto, SimTime, Simulator};
use topology::build_fat_tree;
use transport::install_agents;

use crate::host::{Elapsed, Stamp};
use crate::statx;
use crate::trace::Tracer;
use crate::workload::{Inputs, Workload};

/// Equal simulated-time slices a traced `run_until` is driven in.
pub const SLICES: u64 = 20;

/// What every port of the fabric counted, summed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PortSweep {
    /// Ports in the fabric (both ends of every link).
    pub ports: u64,
    /// Packets transmitted by switch ports (one per switch hop).
    pub pkt_hops: u64,
    pub enqueued: u64,
    pub drops: u64,
    pub ecn_marks: u64,
    /// Deepest any queue ever got, in bytes.
    pub max_bytes: u64,
}

fn sweep_ports(sim: &Simulator) -> PortSweep {
    // build_fat_tree creates hosts first, so host ids are 0..n_hosts.
    let n_hosts = sim.hosts().len();
    let mut s = PortSweep::default();
    for node in 0..sim.node_count() {
        let node_id = node as netsim::NodeId;
        for port in 0..sim.port_count(node_id) {
            let p = sim.port_stats(node_id, port as netsim::PortId);
            s.ports += 1;
            if node >= n_hosts {
                s.pkt_hops += p.tx_pkts;
            }
            s.enqueued += p.queue.enqueued;
            s.drops += p.queue.dropped;
            s.ecn_marks += p.queue.marked;
            s.max_bytes = s.max_bytes.max(p.queue.max_bytes);
        }
    }
    s
}

/// One simulated-time slice of a traced run.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// The slice starts inside the arrival window (else: drain tail).
    pub busy: bool,
    pub wall_ns: u64,
    pub events: u64,
}

/// Host-side timings of one repetition.
#[derive(Debug)]
pub struct Timings {
    pub setup_s: f64,
    pub run: Elapsed,
    /// Empty unless traced.
    pub slices: Vec<Slice>,
}

/// Everything about a finished repetition that is a pure function of
/// `(workload, seed)`: simulated outcomes and exact counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Facts {
    pub events: u64,
    /// The packet-conservation ledger at the horizon.
    pub ledger: Conservation,
    pub counters: [u64; Counter::COUNT],
    pub ports: PortSweep,
    pub slab_peak: u64,
    pub flows_recorded: u64,
    pub tcp_offered: u64,
    pub tcp_completed: u64,
    /// Application bytes delivered exactly once.
    pub goodput_bytes: u64,
    /// Simulated instant of the last delivery that counted.
    pub last_delivery: SimTime,
    pub fct_mean_us: f64,
    /// `None` with fewer than ten samples beyond the 99th percentile.
    pub fct_p99_us: Option<f64>,
    /// Digest of every flow record, every counter and the JSON summary:
    /// equal digests mean the run produced the same result, byte for byte.
    pub digest: u64,
}

impl Facts {
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }
}

pub struct Rep {
    pub timings: Timings,
    pub facts: Facts,
}

/// Run one repetition. `tracer` decides the shape of the simulate step:
/// disabled, it is a single `run_until(horizon)`; enabled, it is
/// [`SLICES`] equal simulated-time slices, each a child span carrying its
/// event and delivery deltas (the result is the same either way — the
/// digest check in `measure` proves it on every run).
pub fn run_rep(w: &Workload, seed: u64, smoke: bool, tracer: &mut Tracer) -> Rep {
    let rep_span = tracer.enter("rep");

    // ---- set up: generate inputs, build the fabric, install agents ----
    let t_setup = Instant::now();
    let setup_span = tracer.enter("setup");
    let inputs: Inputs = tracer.span("workloads.generate", || w.generate(seed, smoke));
    let scheme = w.scheme_spec();
    let mut sim = Simulator::new(seed);
    tracer.span("topology.build", || {
        build_fat_tree(&mut sim, w.params(), scheme.switch_config());
    });
    tracer.span("transport.install", || {
        install_agents(&mut sim, &inputs.specs, &scheme.tcp_config());
    });
    tracer.exit(setup_span, &[("flows", inputs.specs.len() as u64)]);
    let setup_s = t_setup.elapsed().as_secs_f64();

    // ---- simulate ----
    let mut slices = Vec::new();
    let run_span = tracer.enter("netsim.run_until");
    let stamp = Stamp::now();
    if tracer.enabled() {
        let horizon = inputs.horizon.as_ps();
        let mut start = SimTime::ZERO;
        for i in 1..=SLICES {
            // The last slice ends exactly at the horizon.
            let end = SimTime::from_ps((horizon as u128 * i as u128 / SLICES as u128) as u64);
            let (ev0, dl0) = (sim.events_processed(), sim.packets_delivered());
            let id = tracer.enter("netsim.run_until.slice");
            let t = Instant::now();
            sim.run_until(end);
            let wall_ns = t.elapsed().as_nanos() as u64;
            let events = sim.events_processed() - ev0;
            tracer.exit(
                id,
                &[
                    ("events", events),
                    ("delivered", sim.packets_delivered() - dl0),
                ],
            );
            slices.push(Slice {
                busy: start < inputs.arrival_end,
                wall_ns,
                events,
            });
            start = end;
        }
    } else {
        sim.run_until(inputs.horizon);
    }
    let run = stamp.elapsed();
    tracer.exit(run_span, &[("events", sim.events_processed())]);

    // ---- collect: ledger, port sweep, results ----
    let collect_span = tracer.enter("netsim.collect");
    let conservation = sim.conservation();
    let ports = sweep_ports(&sim);
    let events = sim.events_processed();
    let slab_peak = sim.packets_peak() as u64;
    let out = RunOutput {
        results: sim.into_results(),
        port_stats: Vec::new(),
        events,
        conservation,
        replicas: Vec::new(),
        shard_stats: None,
    };
    tracer.exit(collect_span, &[]);

    // ---- summarize: the result a user of the suite reads ----
    let summary = tracer.span("stats.summarize", || {
        RunSummary::from_run(w.name, scheme.name(), &Opts::default(), seed, &out)
    });
    let json = tracer.span("stats.json", || summary.to_json("flowbench").to_string());

    let facts = facts_of(w, &inputs, &out, ports, slab_peak, &json);
    tracer.exit(rep_span, &[]);
    Rep {
        timings: Timings {
            setup_s,
            run,
            slices,
        },
        facts,
    }
}

fn facts_of(
    w: &Workload,
    inputs: &Inputs,
    out: &RunOutput,
    ports: PortSweep,
    slab_peak: u64,
    summary_json: &str,
) -> Facts {
    let c = out.conservation;
    let mut counters = [0u64; Counter::COUNT];
    for k in Counter::all() {
        counters[k as usize] = out.get(k);
    }

    // The repository's own deterministic hasher: a digest for equality
    // checks, not for security.
    let mut digest = FxHasher::default();
    digest.write(summary_json.as_bytes());
    let mut fcts_us = Vec::new();
    let (mut tcp_offered, mut tcp_bytes_done) = (0u64, 0u64);
    let mut last_done = SimTime::ZERO;
    for f in out.flows() {
        digest.write_u64(f.flow as u64);
        digest.write_u64(f.start.as_ps());
        digest.write_u64(f.end.as_ps());
        digest.write_u64(f.bytes);
        if f.proto == Proto::Tcp {
            tcp_offered += 1;
            if let Some(fct) = f.fct() {
                fcts_us.push(fct.as_us_f64());
                tcp_bytes_done += f.bytes;
                last_done = last_done.max(f.end);
            }
        }
    }
    for v in counters {
        digest.write_u64(v);
    }
    for v in [
        c.injected,
        c.delivered,
        c.dropped_total(),
        c.in_flight,
        ports.pkt_hops,
        ports.enqueued,
        ports.drops,
        ports.ecn_marks,
        ports.max_bytes,
        slab_peak,
    ] {
        digest.write_u64(v);
    }

    // UDP sinks keep no per-flow completion: every delivered datagram is a
    // whole MSS of payload delivered once, and the CBR sources stop at the
    // end of the arrival window.
    let (goodput_bytes, last_delivery) = if w.is_udp() {
        (
            counters[Counter::DataPktsRcvd as usize] * netsim::MSS as u64,
            inputs.arrival_end,
        )
    } else {
        (tcp_bytes_done, last_done)
    };

    Facts {
        events: out.events,
        ledger: c,
        counters,
        ports,
        slab_peak,
        flows_recorded: out.flows().len() as u64,
        tcp_offered,
        tcp_completed: fcts_us.len() as u64,
        goodput_bytes,
        last_delivery,
        fct_mean_us: stats::mean(&fcts_us).unwrap_or(0.0),
        fct_p99_us: statx::tail_percentile(&fcts_us, 0.99),
        digest: digest.finish(),
    }
}
