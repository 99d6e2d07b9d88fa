//! Unit costs from isolated calls into each layer's public functions, and
//! the sharded-engine probe.
//!
//! Each probe times batches of one operation and reports nanoseconds per
//! operation, one sample per batch; the report takes the median. The
//! probes do not depend on the workload being measured (only
//! `workloads.stream.next_ns` looks at its fabric), so a traced run of any
//! workload prices every layer the same way and `measure` multiplies the
//! prices by that workload's own counts.

use std::hint::black_box;
use std::time::Instant;

use experiments::{run_fat_tree_sharded, RunOutput};
use flowbender::{FlowBender, SplitMix64};
use netsim::event::{EventKind, Scheduler};
use netsim::testutil::{Blaster, CountingSink, CtxHarness, RxLog};
use netsim::{
    register_flows, Counter, DetRng, EcmpHasher, EcnQueue, FlowKey, FlowSpec, FlowcutConfig,
    HashConfig, LinkSpec, Packet, PacketSlab, Proto, Recorder, RoutingTable, SimTime, Simulator,
    SwitchConfig, MSS, MTU,
};
use stats::QuantileSketch;
use transport::{Receiver, TcpConfig, TcpSender, UdpSender};
use workloads::{FlowSizeDist, PoissonStream};

use crate::host;
use crate::statx;
use crate::workload::{self, Traffic, Workload};

/// Batches per probe (1 under `--smoke`).
pub const BATCHES: usize = 5;

pub struct UnitCosts {
    /// `(metric name, ns per operation of each batch)`.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Engine events the hop rig processes per blasted packet.
    pub rig_events_per_pkt: f64,
}

impl UnitCosts {
    pub fn median(&self, name: &str) -> f64 {
        let (_, s) = self
            .samples
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no probe named {name}"));
        statx::median(s)
    }
}

/// Run `batch` (which returns `(elapsed ns, operations)`) `batches` times.
fn sample(batches: usize, mut batch: impl FnMut() -> (u64, u64)) -> Vec<f64> {
    (0..batches)
        .map(|_| {
            let (ns, ops) = batch();
            ns as f64 / ops.max(1) as f64
        })
        .collect()
}

fn timed(f: impl FnOnce()) -> u64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as u64
}

fn key() -> FlowKey {
    FlowKey {
        src: 0,
        dst: 1,
        sport: 5555,
        dport: 80,
        proto: Proto::Tcp,
    }
}

/// `Scheduler::schedule` + `pop` in the hold model: `depth` events stay
/// resident, each popped event is replaced by one a little later. The
/// increments are the simulator's own: an ACK's and an MTU's serialization
/// at 10 Gbps (+ 100 ns of wire), a switch's 1 µs processing delay, a
/// host's 20 µs stack delay — most events land just ahead of "now".
fn scheduler_hold(depth: u64, batches: usize) -> Vec<f64> {
    const OPS: usize = 200_000;
    const SPAN_PS: u64 = 20_000_000;
    const STEPS_PS: [u64; 5] = [151_200, 1_000_000, 1_200_000, 1_300_000, 20_000_000];
    let mut rng = DetRng::new(1, depth);
    // Drawn ahead of time: the loop below times the scheduler, not the RNG.
    let deltas: Vec<SimTime> = (0..4096)
        .map(|_| SimTime::from_ps(STEPS_PS[rng.gen_index(STEPS_PS.len())]))
        .collect();
    let mut s = Scheduler::new();
    for i in 0..depth {
        let at = SimTime::from_ps(rng.next_u64() % SPAN_PS);
        s.schedule(at, EventKind::Timer { host: 0, token: i });
    }
    sample(batches, || {
        let ns = timed(|| {
            for i in 0..OPS {
                let e = s.pop().expect("hold model never drains");
                let at = e.time + deltas[i & 4095];
                s.schedule(at, EventKind::Timer { host: 0, token: 0 });
            }
        });
        (ns, OPS as u64)
    })
}

fn hashing(batches: usize) -> Vec<f64> {
    const OPS: u64 = 1_000_000;
    let hasher = EcmpHasher::new(HashConfig::FiveTupleAndVField, 0xDEAD_BEEF);
    let mut pkt = Packet::data(0, key(), 0, 0, MSS, SimTime::ZERO);
    sample(batches, || {
        let mut acc = 0usize;
        let ns = timed(|| {
            for i in 0..OPS {
                pkt.vfield = i as u8;
                acc ^= hasher.select(black_box(&pkt), 8);
            }
        });
        black_box(acc);
        (ns, OPS)
    })
}

fn queue(batches: usize) -> Vec<f64> {
    const OPS: u64 = 1_000_000;
    let mut q = EcnQueue::new(10_000_000, 90_000);
    for i in 0..32 {
        q.enqueue(i, MTU, true);
    }
    sample(batches, || {
        let ns = timed(|| {
            for i in 0..OPS {
                black_box(q.enqueue(i as u32, MTU, true));
                black_box(q.dequeue());
            }
        });
        (ns, OPS)
    })
}

fn slab(batches: usize) -> Vec<f64> {
    const OPS: u64 = 1_000_000;
    const RESIDENT: usize = 1024;
    let mut slab = PacketSlab::new();
    let mut ids: Vec<u32> = (0..RESIDENT)
        .map(|i| slab.insert(Packet::data(0, key(), 0, i as u64, MSS, SimTime::ZERO)))
        .collect();
    sample(batches, || {
        let ns = timed(|| {
            for i in 0..OPS as usize {
                // A stride coprime to the ring walks every slot.
                let k = (i * 389) % RESIDENT;
                let pkt = slab.remove(ids[k]);
                ids[k] = slab.insert(black_box(pkt));
            }
        });
        (ns, OPS)
    })
}

/// Blaster → one switch → sink: ns per packet through the whole rig, and
/// the rig's events per packet.
fn hop_rig(cfg: SwitchConfig, batches: usize) -> (Vec<f64>, f64) {
    const PKTS: u32 = 5_000;
    let mut events = 0u64;
    let samples = sample(batches, || {
        let mut ns = 0;
        for _ in 0..4 {
            let mut sim = Simulator::new(1);
            let h0 = sim.add_host(SimTime::ZERO, SimTime::ZERO);
            let h1 = sim.add_host(SimTime::ZERO, SimTime::ZERO);
            let sw = sim.add_switch(cfg);
            sim.connect(h0, sw, LinkSpec::host_10g());
            sim.connect(h1, sw, LinkSpec::host_10g());
            let mut rt = RoutingTable::new(2);
            rt.set(0, vec![0]);
            rt.set(1, vec![1]);
            sim.set_routes(sw, rt);
            let log = RxLog::shared();
            sim.set_agent(h0, Box::new(Blaster::new(1, PKTS, log.clone())));
            sim.set_agent(h1, Box::new(CountingSink { log: log.clone() }));
            ns += timed(|| sim.run_to_quiescence());
            assert_eq!(
                log.borrow().arrivals.len(),
                PKTS as usize,
                "hop rig lost packets"
            );
            events = sim.events_processed();
        }
        (ns, 4 * PKTS as u64)
    });
    (samples, events as f64 / PKTS as f64)
}

fn record_bump(batches: usize) -> Vec<f64> {
    const OPS: u64 = 2_000_000;
    const WHICH: [Counter; 4] = [
        Counter::DataPktsRcvd,
        Counter::AcksRcvd,
        Counter::DupAcks,
        Counter::OooPktsRcvd,
    ];
    let mut rec = Recorder::new();
    sample(batches, || {
        let ns = timed(|| {
            for i in 0..OPS as usize {
                rec.bump(black_box(WHICH[i & 3]));
            }
        });
        black_box(rec.get(Counter::AcksRcvd));
        (ns, OPS)
    })
}

/// Sender ↔ receiver ping-pong through a [`CtxHarness`]: every window the
/// sender emits is handed to the receiver (in order, or reversed so that
/// all but one segment arrive out of order), and every ACK that produces
/// is handed back. Returns `(ns per ACK at the sender, ns per segment at
/// the receiver)`.
fn ping_pong(reversed: bool) -> (f64, f64) {
    const SIZE: u64 = 48 * 1024 * 1024;
    const HALF_RTT: SimTime = SimTime::from_us(40);
    let mut h = CtxHarness::new(1);
    let spec = FlowSpec::tcp(0, 0, 1, SIZE, SimTime::ZERO);
    register_flows(h.recorder_mut(), std::slice::from_ref(&spec));
    let mut tx = TcpSender::new(
        0,
        spec.key(),
        SIZE,
        TcpConfig::default(),
        None,
        0,
        &mut h.ctx(),
    );
    let mut rx = Receiver::new(0, SIZE);
    tx.start(&mut h.ctx());
    let (mut tx_ns, mut tx_ops, mut rx_ns, mut rx_ops) = (0u64, 0u64, 0u64, 0u64);
    loop {
        // Timers are dropped: nothing is ever lost, so no RTO may fire.
        let (mut data, _timers) = h.drain();
        if data.is_empty() {
            break;
        }
        if reversed {
            data.reverse();
        }
        h.now += HALF_RTT;
        rx_ns += timed(|| {
            for p in &data {
                black_box(rx.on_data(p, &mut h.ctx()));
            }
        });
        rx_ops += data.len() as u64;
        let (acks, _timers) = h.drain();
        h.now += HALF_RTT;
        tx_ns += timed(|| {
            for a in &acks {
                black_box(tx.on_ack(a, &mut h.ctx()));
            }
        });
        tx_ops += acks.len() as u64;
    }
    assert!(
        rx.is_complete(),
        "ping-pong stalled before the flow finished"
    );
    (
        tx_ns as f64 / tx_ops.max(1) as f64,
        rx_ns as f64 / rx_ops.max(1) as f64,
    )
}

fn udp_tick(batches: usize) -> Vec<f64> {
    const ROUNDS: u64 = 200;
    const PER_ROUND: u64 = 1_000;
    let mut h = CtxHarness::new(1);
    let mut udp = UdpSender::new(0, key(), 1_000_000_000, u64::MAX);
    sample(batches, || {
        let mut ns = 0;
        for _ in 0..ROUNDS {
            ns += timed(|| {
                for _ in 0..PER_ROUND {
                    black_box(udp.tick(&mut h.ctx()));
                }
            });
            // Hand the datagrams back so the harness slab stays small.
            h.drain();
        }
        (ns, ROUNDS * PER_ROUND)
    })
}

/// `(on_ack samples, on_rtt_end samples)`. An RTT epoch is closed after
/// every four ACKs; `on_rtt_end`'s cost is the epoch's time minus its four
/// `on_ack`s.
fn bender(batches: usize) -> (Vec<f64>, Vec<f64>) {
    const OPS: u64 = 2_000_000;
    const ACKS_PER_EPOCH: u64 = 4;
    let mut rng = SplitMix64::new(7);
    let mut fb = FlowBender::new(flowbender::Config::default(), &mut rng);
    let on_ack = sample(batches, || {
        let ns = timed(|| {
            for i in 0..OPS {
                fb.on_ack(black_box(i % 7 == 0));
            }
        });
        black_box(fb.on_rtt_end(&mut rng));
        (ns, OPS)
    });
    let ack_ns = statx::median(&on_ack);
    let epochs = OPS / ACKS_PER_EPOCH;
    let on_rtt_end = sample(batches, || {
        let ns = timed(|| {
            for e in 0..epochs {
                for i in 0..ACKS_PER_EPOCH {
                    fb.on_ack(black_box((e + i) % 7 == 0));
                }
                black_box(fb.on_rtt_end(&mut rng));
            }
        });
        let acks_ns = (ack_ns * (epochs * ACKS_PER_EPOCH) as f64) as u64;
        (ns.saturating_sub(acks_ns), epochs)
    });
    (on_ack, on_rtt_end)
}

fn sketch(batches: usize) -> Vec<f64> {
    const OPS: u64 = 1_000_000;
    // FCT-like values: log-uniform over 10 µs .. 1 s.
    let mut rng = DetRng::new(3, 3);
    let vals: Vec<f64> = (0..4096)
        .map(|_| 1e-5 * 10f64.powf(5.0 * rng.gen_f64()))
        .collect();
    let mut sk = QuantileSketch::for_fct();
    sample(batches, || {
        let ns = timed(|| {
            for i in 0..OPS as usize {
                sk.add(black_box(vals[i & 4095]));
            }
        });
        black_box(sk.count());
        (ns, OPS)
    })
}

fn stream_next(w: &Workload, batches: usize) -> Vec<f64> {
    const FLOWS: usize = 20_000;
    let p = w.params();
    let load = if w.load > 0.0 { w.load } else { 0.4 };
    let base = DetRng::new(5, 5);
    sample(batches, || {
        let mut stream = PoissonStream::new(
            &p,
            load,
            SimTime::from_secs(3600),
            FlowSizeDist::web_search(),
            &base,
        );
        let mut n = 0u64;
        let ns = timed(|| {
            for f in stream.by_ref().take(FLOWS) {
                black_box(f.bytes);
                n += 1;
            }
        });
        (ns, n)
    })
}

/// Price every layer. `w` only selects the fabric `PoissonStream` is
/// probed on.
pub fn unit_costs(w: &Workload, batches: usize) -> UnitCosts {
    let (hop, rig_events_per_pkt) =
        hop_rig(SwitchConfig::commodity(HashConfig::FiveTuple), batches);
    let (hop_flowcut, _) = hop_rig(
        SwitchConfig::flowcut_sw(FlowcutConfig::new(SimTime::from_us(100))),
        batches,
    );
    let (mut ack, mut inorder, mut dupack, mut ooo) = (vec![], vec![], vec![], vec![]);
    for _ in 0..batches {
        let (a, d) = ping_pong(false);
        ack.push(a);
        inorder.push(d);
        let (a, d) = ping_pong(true);
        dupack.push(a);
        ooo.push(d);
    }
    let (bender_ack, bender_rtt) = bender(batches);
    UnitCosts {
        samples: vec![
            ("workloads.stream.next_ns", stream_next(w, batches)),
            (
                "netsim.event.push_pop_ns_d1k",
                scheduler_hold(1 << 10, batches),
            ),
            (
                "netsim.event.push_pop_ns_d64k",
                scheduler_hold(1 << 16, batches),
            ),
            ("netsim.hashing.select_ns", hashing(batches)),
            ("netsim.queue.enq_deq_ns", queue(batches)),
            ("netsim.slab.insert_remove_ns", slab(batches)),
            ("netsim.switch.hop_ns", hop),
            ("netsim.switch.hop_ns_flowcut", hop_flowcut),
            ("netsim.record.bump_ns", record_bump(batches)),
            ("transport.sender.on_ack_ns", ack),
            ("transport.sender.on_dupack_ns", dupack),
            ("transport.receiver.on_data_inorder_ns", inorder),
            ("transport.receiver.on_data_ooo_ns", ooo),
            ("transport.udp.tick_ns", udp_tick(batches)),
            ("core.bender.on_ack_ns", bender_ack),
            ("core.bender.on_rtt_end_ns", bender_rtt),
            ("stats.sketch.add_ns", sketch(batches)),
        ],
        rig_events_per_pkt,
    }
}

/// What the sharded engine did on a reduced `fabric1024` input, against
/// the classic engine on the same input.
pub struct ShardProbe {
    pub rounds: u64,
    pub handoffs: u64,
    pub events_s1: u64,
    pub events_s2: u64,
    /// Flow records and counters of the 2-shard run equal the classic run.
    pub matches_s1: bool,
    /// Minimum wall time over the repetitions, classic engine.
    pub wall_s1: f64,
    /// Minimum wall time over the repetitions, 2 shards.
    pub wall_s2: f64,
    /// `1 − cpu ÷ (2 × wall)` over the 2-shard repetitions.
    pub idle_share: f64,
}

fn same_result(a: &RunOutput, b: &RunOutput) -> bool {
    let flows = |o: &RunOutput| -> Vec<(u32, u64, u64)> {
        o.flows()
            .iter()
            .map(|f| (f.flow, f.start.as_ps(), f.end.as_ps()))
            .collect()
    };
    flows(a) == flows(b) && Counter::all().iter().all(|&c| a.get(c) == b.get(c))
}

/// Run the `fabric1024` recipe, cut to a quarter of its flows and a 5 ms
/// drain, on the classic engine and on 2 shards (3 repetitions
/// each, 1 under `--smoke`). The input is small on purpose: the barrier
/// protocol's wall time is unbounded under hypervisor steal (README,
/// "Why no sharded end-to-end workload"), and a probe must finish.
pub fn shard_probe(seed: u64, smoke: bool) -> ShardProbe {
    let base = workload::find("fabric1024").expect("fabric1024 is a workload");
    let Traffic::Websearch { flows } = base.traffic else {
        panic!("fabric1024 is a web-search workload");
    };
    let w = Workload {
        traffic: Traffic::Websearch { flows: flows / 4 },
        window: SimTime::from_ps(base.window.as_ps() / 4),
        drain: SimTime::from_ms(5),
        ..*base
    };
    let inputs = w.generate(seed, smoke);
    let scheme = w.scheme_spec();
    let reps = if smoke { 1 } else { 3 };
    let run = |shards: usize| -> (RunOutput, f64, f64) {
        let mut best = f64::INFINITY;
        let mut out = None;
        let (t, cpu0) = (Instant::now(), host::process_cpu_ns());
        for _ in 0..reps {
            let t = Instant::now();
            let o = run_fat_tree_sharded(
                w.params(),
                &scheme,
                &inputs.specs,
                inputs.horizon,
                seed,
                shards,
            )
            .expect("1024 hosts shard into 2");
            best = best.min(t.elapsed().as_secs_f64());
            out = Some(o);
        }
        let cpu_s = (host::process_cpu_ns() - cpu0) as f64 / 1e9;
        let busy = cpu_s / (shards as f64 * t.elapsed().as_secs_f64());
        (out.expect("reps >= 1"), best, 1.0 - busy)
    };
    let (s1, wall_s1, _) = run(1);
    let (s2, wall_s2, idle_share) = run(2);
    let stats = s2.shard_stats.expect("a 2-shard run reports shard stats");
    ShardProbe {
        rounds: stats.rounds,
        handoffs: stats.handoffs,
        events_s1: s1.events,
        events_s2: s2.events,
        matches_s1: same_result(&s1, &s2),
        wall_s1,
        wall_s2,
        idle_share,
    }
}
