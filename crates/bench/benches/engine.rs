//! Simulator-engine microbenchmarks with no flowbench counterpart: bulk
//! event scheduling, the RNG, raw packet-forwarding throughput through the
//! full simulator (plain, traced, flowcut-pinned), workload
//! generation, and the chaos incident. The per-operation probes — scheduler
//! hold model, ECMP select, queue enqueue/dequeue, sketch add — are
//! flowbench's (`benchmark/`, `netsim.event.push_pop_ns_d*`,
//! `netsim.hashing.select_ns`, `netsim.queue.enq_deq_ns`,
//! `stats.sketch.add_ns`): one harness per question.

use std::hint::black_box;

use fb_bench::Harness;
use netsim::testutil::{Blaster, CountingSink, RxLog};
use netsim::{DetRng, HashConfig, LinkSpec, RoutingTable, SimTime, Simulator, SwitchConfig};

fn bench_scheduler(h: &Harness) {
    h.bench_with_setup(
        "scheduler/push_pop_10k",
        10_000,
        netsim::event::Scheduler::new,
        |mut s| {
            let mut rng = DetRng::new(1, 1);
            for i in 0..10_000u64 {
                let t = SimTime::from_ns(rng.gen_range(1_000_000) as u64);
                s.schedule(t, netsim::event::EventKind::Timer { host: 0, token: i });
            }
            while let Some(e) = s.pop() {
                black_box(e.time);
            }
        },
    );
}

fn bench_rng(h: &Harness) {
    let mut rng = DetRng::new(7, 7);
    h.bench("rng/detrng_u64_1k", 1_000, || {
        let mut acc = 0u64;
        for _ in 0..1_000 {
            acc ^= rng.next_u64();
        }
        black_box(acc)
    });
}

/// Raw forwarding throughput: blast 5 000 packets through one switch.
fn bench_forwarding(h: &Harness) {
    h.bench_with_setup(
        "simulator/blast_5k_packets_through_switch",
        5_000,
        || {
            let mut sim = Simulator::new(1);
            let h0 = sim.add_host(SimTime::ZERO, SimTime::ZERO);
            let h1 = sim.add_host(SimTime::ZERO, SimTime::ZERO);
            let sw = sim.add_switch(SwitchConfig::commodity(HashConfig::FiveTuple));
            sim.connect(h0, sw, LinkSpec::host_10g());
            sim.connect(h1, sw, LinkSpec::host_10g());
            let mut rt = RoutingTable::new(2);
            rt.set(0, vec![0]);
            rt.set(1, vec![1]);
            sim.set_routes(sw, rt);
            let log = RxLog::shared();
            sim.set_agent(h0, Box::new(Blaster::new(1, 5_000, log.clone())));
            sim.set_agent(h1, Box::new(CountingSink { log }));
            sim
        },
        |mut sim| {
            sim.run_to_quiescence();
            black_box(sim.events_processed())
        },
    );
}

/// Flight-recorder overhead on the same 5 000-packet blast.
/// `simulator/blast_5k_packets_through_switch` above is the recorder-off
/// baseline (the disabled check is a single branch); here the recorder is
/// (a) on but watching a flow that never appears — the hot-path membership
/// check — and (b) on for the blasted flow itself — full event recording.
fn bench_forwarding_traced(h: &Harness) {
    let setup = |cfg: netsim::TraceConfig| {
        move || {
            let mut sim = Simulator::new(1);
            let h0 = sim.add_host(SimTime::ZERO, SimTime::ZERO);
            let h1 = sim.add_host(SimTime::ZERO, SimTime::ZERO);
            let sw = sim.add_switch(SwitchConfig::commodity(HashConfig::FiveTuple));
            sim.connect(h0, sw, LinkSpec::host_10g());
            sim.connect(h1, sw, LinkSpec::host_10g());
            let mut rt = RoutingTable::new(2);
            rt.set(0, vec![0]);
            rt.set(1, vec![1]);
            sim.set_routes(sw, rt);
            sim.set_trace(cfg.clone());
            let log = RxLog::shared();
            sim.set_agent(h0, Box::new(Blaster::new(1, 5_000, log.clone())));
            sim.set_agent(h1, Box::new(CountingSink { log }));
            sim
        }
    };
    let run = |mut sim: Simulator| {
        sim.run_to_quiescence();
        black_box(sim.events_processed())
    };
    h.bench_with_setup(
        "simulator/blast_5k_packets_trace_other_flow",
        5_000,
        setup(netsim::TraceConfig::flows(vec![999])),
        run,
    );
    h.bench_with_setup(
        "simulator/blast_5k_packets_trace_blasted_flow",
        5_000,
        setup(netsim::TraceConfig::flows(vec![0])),
        run,
    );
}

/// Flowcut pin-table overhead on the same 5 000-packet blast:
/// `simulator/blast_5k_packets_through_switch` above is the stateless-hash
/// baseline; here the switch runs flowcut switching
/// ([`netsim::SwitchConfig::flowcut_sw`]), so every forwarded packet pays
/// the pin-table lookup, idle-gap comparison, and last-seen update. The
/// blast never goes idle for 100 µs, so no boundary fires — this prices
/// the steady-state (pinned) path, the one every packet of a long flow
/// takes.
fn bench_flowcut_pin(h: &Harness) {
    h.bench_with_setup(
        "flowcut/pin_overhead",
        5_000,
        || {
            let mut sim = Simulator::new(1);
            let h0 = sim.add_host(SimTime::ZERO, SimTime::ZERO);
            let h1 = sim.add_host(SimTime::ZERO, SimTime::ZERO);
            let sw = sim.add_switch(SwitchConfig::flowcut_sw(netsim::FlowcutConfig::new(
                SimTime::from_us(100),
            )));
            sim.connect(h0, sw, LinkSpec::host_10g());
            sim.connect(h1, sw, LinkSpec::host_10g());
            let mut rt = RoutingTable::new(2);
            rt.set(0, vec![0]);
            rt.set(1, vec![1]);
            sim.set_routes(sw, rt);
            let log = RxLog::shared();
            sim.set_agent(h0, Box::new(Blaster::new(1, 5_000, log.clone())));
            sim.set_agent(h1, Box::new(CountingSink { log }));
            sim
        },
        |mut sim| {
            sim.run_to_quiescence();
            black_box(sim.events_processed())
        },
    );
}

/// Workload-engine throughput: the trace-scale generation+aggregation
/// curve. Each iteration streams `flows` websearch-CDF flows out of the
/// registry workload, scores them with the analytic FCT model, and feeds
/// the quantile sketch — the exact pipeline the `trace-scale`
/// experiment runs. `elements` is the flow count, so the recorded
/// `elems_per_sec` *is* the flows/sec figure, commit over commit.
fn bench_workload_engine(h: &Harness) {
    let p = topology::FatTreeParams::paper();
    let wl = workloads::find("websearch").expect("websearch is registered");
    for (label, flows) in [("10k", 10_000u64), ("100k", 100_000), ("1m", 1_000_000)] {
        h.bench(
            &format!("workload/websearch_gen_agg_{label}"),
            flows,
            || {
                let pt = experiments::trace_scale::run_point(&p, wl, flows, 3);
                black_box((pt.flows, pt.acc.bucket_count()))
            },
        );
    }
}

/// Chaos-engine overhead: a fig3-style Poisson all-to-all on a k=16
/// fat-tree (1024 hosts; flowbench's `fabric1024` is the healthy
/// harness at that size) with the chaos experiment's scripted incident
/// (gray ramp → core crash → flap storm → recovery) and the reconvergence
/// SLO probe armed — the fault-injection hot paths (per-port fault RNG
/// draws, one fault event per plan step, last-bit sampling, delivery-probe
/// hook).
/// `elements` is the packets the faulted run delivers, so `elems_per_sec`
/// is engine throughput in delivered packets/sec.
fn bench_chaos(h: &Harness) {
    let params = topology::FatTreeParams::k_ary(16).expect("k=16 is valid");
    let scheme = experiments::Scheme::FlowBender(Default::default());
    let rng = DetRng::new(3, 0xFAB);
    let specs: Vec<netsim::FlowSpec> = workloads::PoissonStream::new(
        &params,
        0.3,
        SimTime::from_ms(1),
        workloads::FlowSizeDist::web_search(),
        &rng,
    )
    .collect();
    let until = SimTime::from_ms(25);
    let incident = experiments::chaos::Incident::over(SimTime::from_ms(1));
    let slo = netsim::SloConfig {
        fail_at: incident.fail_at,
        bin: SimTime::from_us(50),
    };
    let plan = |ft: &topology::FatTree| incident.plan(ft);
    let run = experiments::Run::new(params, &scheme, &specs, until, 3)
        .slo(slo)
        .faults(&plan);
    // One untimed probe run sizes `elements` with the delivered packets.
    let pkts = run.run().conservation.delivered;
    h.bench("chaos/1024h", pkts, || black_box(run.run().events));
}

fn main() {
    let h = Harness::from_args();
    bench_scheduler(&h);
    bench_rng(&h);
    bench_forwarding(&h);
    bench_forwarding_traced(&h);
    bench_flowcut_pin(&h);
    bench_workload_engine(&h);
    bench_chaos(&h);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    h.write_json(out).expect("write BENCH_engine.json");
}
