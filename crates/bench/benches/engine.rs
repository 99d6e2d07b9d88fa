//! Simulator-engine microbenchmarks: the hot paths every experiment leans
//! on (event scheduling, ECMP hashing, queue operations, RNG, and raw
//! packet-forwarding throughput through the full simulator).

use std::hint::black_box;

use fb_bench::Harness;
use netsim::testutil::{Blaster, CountingSink, RxLog};
use netsim::{
    DetRng, EcmpHasher, EcnQueue, FlowKey, HashConfig, LinkSpec, Packet, Proto, RoutingTable,
    SimTime, Simulator, SwitchConfig, MSS, MTU,
};

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

/// The simulator's own access pattern (the hold model): `depth` events stay
/// resident and every popped event is replaced by one a little later. The
/// increments are the delays the simulator schedules with — an ACK's and an
/// MTU's serialization at 10 Gbps plus 100 ns of wire, a switch's 1 µs
/// processing delay, a host's 20 µs stack delay — so most events land just
/// ahead of "now" (the same mix flowbench's `push_pop_ns_d*` probe uses).
/// `elements` is pop+schedule pairs, so ns/pair = 1e9 / `elems_per_sec`.
fn bench_scheduler_hold(h: &Harness) {
    use netsim::event::{EventKind, Scheduler};
    const OPS: u64 = 200_000;
    const SPAN_PS: u64 = 20_000_000;
    const STEPS_PS: [u64; 5] = [151_200, 1_000_000, 1_200_000, 1_300_000, 20_000_000];
    for (name, depth) in [
        ("scheduler/hold_1k", 1_000u64),
        ("scheduler/hold_64k", 64_000),
    ] {
        let mut rng = DetRng::new(1, depth);
        // Drawn ahead of time: the loop times the scheduler, not the RNG.
        let deltas: Vec<SimTime> = (0..4096)
            .map(|_| SimTime::from_ps(STEPS_PS[rng.gen_index(STEPS_PS.len())]))
            .collect();
        h.bench_with_setup(
            name,
            OPS,
            || {
                let mut s = Scheduler::new();
                for token in 0..depth {
                    let at = SimTime::from_ps(rng.next_u64() % SPAN_PS);
                    s.schedule(at, EventKind::Timer { host: 0, token });
                }
                s
            },
            |mut s| {
                for i in 0..OPS as usize {
                    let e = s.pop().expect("hold model never drains");
                    let at = e.time + deltas[i & 4095];
                    s.schedule(at, EventKind::Timer { host: 0, token: 0 });
                }
                black_box(s.now())
            },
        );
    }
}

fn bench_hashing(h: &Harness) {
    let hasher = EcmpHasher::new(HashConfig::FiveTupleAndVField, 0xDEADBEEF);
    let key = FlowKey {
        src: 17,
        dst: 99,
        sport: 5555,
        dport: 80,
        proto: Proto::Tcp,
    };
    let pkt = Packet::data(0, key, 3, 0, MSS, SimTime::ZERO);
    h.bench("hashing/ecmp_select_8way_1k", 1_000, || {
        let mut acc = 0usize;
        for _ in 0..1_000 {
            acc ^= hasher.select(black_box(&pkt), 8);
        }
        black_box(acc)
    });
}

fn bench_queue(h: &Harness) {
    h.bench_with_setup(
        "queue/enqueue_dequeue_1k",
        1_000,
        || EcnQueue::new(10_000_000, 90_000),
        |mut q| {
            for i in 0..1_000u32 {
                q.enqueue(i, MTU, true);
            }
            while let Some(id) = q.dequeue() {
                black_box(id);
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

/// INT-stamping overhead on the same 5 000-packet blast:
/// `simulator/blast_5k_packets_through_switch` above is the feedback-off
/// baseline (the disabled check is one `Option` branch); here the switch
/// appends a per-hop INT record to every forwarded packet
/// ([`netsim::FeedbackConfig::int_only`]) — pricing the lazy stack
/// allocation plus the per-hop push on the forwarding hot path.
fn bench_int_stamp(h: &Harness) {
    h.bench_with_setup(
        "feedback/int_stamp_overhead",
        5_000,
        || {
            let mut sim = Simulator::new(1);
            let h0 = sim.add_host(SimTime::ZERO, SimTime::ZERO);
            let h1 = sim.add_host(SimTime::ZERO, SimTime::ZERO);
            let sw = sim.add_switch(
                SwitchConfig::commodity(HashConfig::FiveTuple)
                    .with_feedback(netsim::FeedbackConfig::int_only()),
            );
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
                let pt = experiments::trace_scale::run_point(&p, wl.as_ref(), flows, 3);
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
/// draws, directed-fault events, last-bit sampling, delivery-probe hook).
/// `elements` is the packets the faulted run delivers, so `elems_per_sec`
/// is engine throughput in delivered packets/sec.
fn bench_chaos(h: &Harness) {
    let params = topology::FatTreeParams::k_ary(16).expect("k=16 is valid");
    let scheme = experiments::schemes::flowbender(Default::default());
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

/// Sketch ingestion alone: 1M pre-drawn FCT values into a fresh
/// [`stats::QuantileSketch`], isolating aggregation from generation.
fn bench_sketch(h: &Harness) {
    let mut rng = DetRng::new(9, 9);
    let values: Vec<f64> = (0..1_000_000)
        .map(|_| 1e-5 * (1e6f64).powf(rng.gen_f64()))
        .collect();
    h.bench("stats/sketch_add_1m", 1_000_000, || {
        let mut sk = stats::QuantileSketch::for_fct();
        for &v in &values {
            sk.add(v);
        }
        black_box(sk.quantile(0.99))
    });
}

fn main() {
    let h = Harness::from_args();
    bench_scheduler(&h);
    bench_scheduler_hold(&h);
    bench_hashing(&h);
    bench_queue(&h);
    bench_rng(&h);
    bench_forwarding(&h);
    bench_forwarding_traced(&h);
    bench_int_stamp(&h);
    bench_flowcut_pin(&h);
    bench_workload_engine(&h);
    bench_chaos(&h);
    bench_sketch(&h);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    h.write_json(out).expect("write BENCH_engine.json");
}
