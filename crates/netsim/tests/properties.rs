//! Randomized tests of the simulator's core data structures against
//! reference models. All inputs are drawn from seeded [`DetRng`] streams,
//! so failures reproduce exactly.

use netsim::event::{EventKind, Scheduler};
use netsim::switch::{PfcAction, PfcConfig, PfcState};
use netsim::{
    Agent, Counter, Ctx, DetRng, EcmpHasher, EcnQueue, EnqueueResult, FlowKey, FlowRecord,
    HashConfig, LinkSpec, NodeId, Packet, Proto, QueueSpec, RoutingTable, SimTime, Simulator,
    SwitchConfig, MSS,
};

fn mk_pkt(seq: u64, payload: u32, sport: u16, v: u8) -> Packet {
    let key = FlowKey {
        src: 1,
        dst: 2,
        sport,
        dport: 80,
        proto: Proto::Tcp,
    };
    Packet::data(0, key, v, seq, payload.max(1), SimTime::ZERO)
}

/// The queue's byte counter always equals the sum of queued packet
/// sizes, never exceeds capacity, and FIFO order is preserved.
#[test]
fn queue_matches_reference_model() {
    for seed in 0..40u64 {
        let mut rng = DetRng::new(seed, 0x10);
        let capacity = 2_000 + rng.next_u32() as u64 % 98_000;
        let n_ops = 1 + rng.gen_index(200);
        let mut q = EcnQueue::new(capacity, capacity / 2);
        let mut model: std::collections::VecDeque<(u32, u64)> = Default::default(); // (id, size)
        let mut bytes = 0u64;
        let mut next_id = 0u32;
        for _ in 0..n_ops {
            let enq = rng.gen_range(2) == 0;
            let payload = 1 + rng.gen_range(1_999);
            if enq {
                let size = mk_pkt(0, payload, 7, 0).size as u32;
                match q.enqueue(next_id, size, true) {
                    EnqueueResult::Queued { .. } => {
                        model.push_back((next_id, size as u64));
                        bytes += size as u64;
                        assert!(bytes <= capacity, "seed {seed}: over capacity");
                    }
                    EnqueueResult::Dropped => {
                        assert!(
                            bytes + size as u64 > capacity,
                            "seed {seed}: dropped below capacity"
                        );
                    }
                }
                next_id += 1;
            } else {
                match (q.dequeue(), model.pop_front()) {
                    (Some(got), Some((id, size))) => {
                        assert_eq!(got, id, "seed {seed}: FIFO order broken");
                        bytes -= size;
                    }
                    (None, None) => {}
                    (a, b) => {
                        panic!("seed {seed}: queue/model disagree: {a:?} vs {b:?}")
                    }
                }
            }
            assert_eq!(q.bytes(), bytes, "seed {seed}");
            assert_eq!(q.len(), model.len(), "seed {seed}");
        }
    }
}

/// Packets enqueued while occupancy >= K report `marked`; packets
/// enqueued below K do not.
#[test]
fn queue_marks_exactly_above_threshold() {
    for seed in 0..40u64 {
        let mut rng = DetRng::new(seed, 0x11);
        let n = 1 + rng.gen_index(100);
        let payloads: Vec<u32> = (0..n).map(|_| 100 + rng.gen_range(1360)).collect();
        let k = 10_000u64;
        let mut q = EcnQueue::new(1_000_000, k);
        let mut occupancy = 0u64;
        for (i, p) in payloads.iter().enumerate() {
            let size = mk_pkt(0, *p, 7, 0).size as u32;
            let expect = occupancy >= k;
            occupancy += size as u64;
            assert_eq!(
                q.enqueue(i as u32, size, true),
                EnqueueResult::Queued { marked: expect },
                "seed {seed}"
            );
        }
    }
}

/// Ordinary scheduling releases events in exact (time, insertion) order.
#[test]
fn scheduler_is_a_stable_priority_queue() {
    for seed in 0..40u64 {
        let mut rng = DetRng::new(seed, 0x12);
        let n = 1 + rng.gen_index(300);
        let times: Vec<u64> = (0..n).map(|_| rng.gen_range(1_000) as u64).collect();
        let mut s = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.schedule(
                SimTime::from_ns(t),
                EventKind::Timer {
                    host: 0,
                    token: i as u64,
                },
            );
        }
        let mut expected: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u64))
            .collect();
        expected.sort();
        for (t, token) in expected {
            let e = s.pop().unwrap();
            assert_eq!(e.time, SimTime::from_ns(t), "seed {seed}");
            match e.kind {
                EventKind::Timer { token: got, .. } => assert_eq!(got, token, "seed {seed}"),
                _ => panic!("seed {seed}: unexpected event kind"),
            }
        }
        assert!(s.pop().is_none(), "seed {seed}");
    }
}

/// The calendar scheduler and a plain binary heap ordered by
/// `(time, cause, seq)` agree on every answer (`pop`, `pop_before`,
/// `peek_time`, `len`), under random interleavings that
/// alternate growing and draining phases: same-instant ties, sub-bucket and
/// in-ring deltas, beyond-ring spills that later sit between occupied ring
/// buckets, deep far-future jumps over an empty ring, thousands of events in
/// one bucket, and enough elapsed time to wrap the ring many times.
/// Scheduling right after a `pop_before` that stopped at its deadline is what
/// a fault API call between two `run_until`s does. Mixed in are the
/// simulator's two keyed
/// patterns: an event booked ahead of its cause (the fused `Arrive`: seq
/// drawn now, cause one serialization later), and a seq drawn now whose
/// event is inserted late or never (the lazy `TxDone` wake-up) — by then
/// newer events for the same instant are pending, so the insert lands
/// behind the read cursor of the bucket being drained, not at its end.
#[test]
fn scheduler_matches_reference_heap() {
    use netsim::event::{Tie, BUCKET_WIDTH_PS, NUM_BUCKETS};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// `(time, cause, seq)`, the cause as the scheduler keeps it: a
    /// saturating distance below `time`, larger = earlier.
    type Key = (u64, Reverse<u64>, u64);
    fn key(at: u64, cause: u64, seq: u64) -> Key {
        (at, Reverse((at - cause).min(Tie::MAX_DELTA_PS)), seq)
    }

    struct Pair {
        s: Scheduler,
        reference: BinaryHeap<Reverse<(Key, u64)>>,
        /// Mirror of the scheduler's seq counter.
        seq: u64,
        token: u64,
        now: u64,
        last_popped: Key,
        /// Seqs drawn for a wake-up not inserted (yet): `(at, cause, seq)`.
        armed: Vec<(u64, u64, u64)>,
        /// Keyed inserts that landed before a pending same-instant event.
        inserts_behind_cursor: u32,
        seed: u64,
    }
    impl Pair {
        fn timer(&mut self) -> EventKind {
            self.token += 1;
            EventKind::Timer {
                host: 0,
                token: self.token,
            }
        }
        fn schedule(&mut self, at: u64) {
            let kind = self.timer();
            self.s.schedule(SimTime::from_ps(at), kind);
            self.reference
                .push(Reverse((key(at, self.now, self.seq), self.token)));
            self.seq += 1;
        }
        fn draw(&mut self) -> u64 {
            assert_eq!(self.s.draw_seq(), self.seq, "seed {}", self.seed);
            self.seq += 1;
            self.seq - 1
        }
        fn schedule_keyed(&mut self, at: u64, cause: u64, seq: u64) {
            let k = key(at, cause, seq);
            assert!(k > self.last_popped);
            if self.reference.iter().any(|r| r.0 .0 .0 == at && r.0 .0 > k) {
                self.inserts_behind_cursor += 1;
            }
            let kind = self.timer();
            let (at_t, cause_t) = (SimTime::from_ps(at), SimTime::from_ps(cause));
            self.s
                .schedule_keyed(at_t, Tie::new(at_t, cause_t, seq), kind);
            self.reference.push(Reverse((k, self.token)));
        }
        /// `pop_before(deadline)` on both; the popped event must match.
        fn pop_before(&mut self, deadline: u64) {
            let seed = self.seed;
            let want = match self.reference.peek() {
                Some(&Reverse((k, token))) if k.0 <= deadline => {
                    self.reference.pop();
                    self.now = k.0;
                    self.last_popped = k;
                    Some((k.0, token))
                }
                _ => None,
            };
            let got = self.s.pop_before(SimTime::from_ps(deadline)).map(|e| {
                let EventKind::Timer { token, .. } = e.kind else {
                    panic!("seed {seed}: unexpected kind");
                };
                (e.time.as_ps(), token)
            });
            assert_eq!(got, want, "seed {seed}: pop diverged (deadline {deadline})");
        }
        fn check_views(&mut self) {
            let seed = self.seed;
            let want = self.reference.peek().map(|r| SimTime::from_ps(r.0 .0 .0));
            assert_eq!(self.s.peek_time(), want, "seed {seed}: peek_time");
            assert_eq!(self.s.len(), self.reference.len(), "seed {seed}: len");
        }
    }

    let horizon = BUCKET_WIDTH_PS * NUM_BUCKETS as u64;
    let mut inserts_behind_cursor = 0;
    for seed in 0..30u64 {
        let mut rng = DetRng::new(seed, 0x18);
        let mut p = Pair {
            s: Scheduler::new(),
            reference: BinaryHeap::new(),
            seq: 0,
            token: 0,
            now: 0,
            last_popped: (0, Reverse(0), 0),
            armed: Vec::new(),
            inserts_behind_cursor: 0,
            seed,
        };
        let mut last_scheduled = 0u64;
        let mut ops = 0usize;
        while ops < 20_000 {
            ops += 1;
            // Phases of 1500 ops: growing (2 schedules per pop), then
            // draining (1 per 2) down into the sparse regime where the
            // window skips empty buckets and jumps to the far heap.
            let growing = (ops / 1500).is_multiple_of(2);
            let schedule = rng.gen_range(6) < if growing { 4 } else { 1 };
            if ops.is_multiple_of(7_000) {
                // > 2000 events inside one future bucket.
                let base = (p.now + rng.gen_range(100_000_000) as u64) | (BUCKET_WIDTH_PS - 1);
                for _ in 0..2_100 {
                    p.schedule(base + 1 + rng.gen_range(BUCKET_WIDTH_PS as u32) as u64);
                }
            } else if rng.gen_range(8) == 0 {
                // A transmission starts: one seq for its wake-up (armed,
                // inserted later if at all) and its arrival (booked now,
                // caused when the serialization ends). The wake-up time
                // falls in the bucket being drained half the time, and an
                // ordinary event for the same instant goes in right behind.
                let max_ser = if rng.gen_range(2) == 0 {
                    60_000
                } else {
                    1_300_000
                };
                let (tx_end, seq) = (p.now + rng.gen_range(max_ser) as u64, p.draw());
                p.armed.push((tx_end, p.now, seq));
                let d = [100_000, 1_100_000, 20_100_000, 60_000_000][rng.gen_index(4)];
                p.schedule_keyed(tx_end + d, tx_end, seq);
                p.schedule(tx_end);
            } else if rng.gen_range(4) == 0 && !p.armed.is_empty() {
                // Something queued up behind an armed transmission: its
                // wake-up goes in under the key drawn back then — unless the
                // clock has passed it.
                let (at, cause, seq) = p.armed.swap_remove(rng.gen_index(p.armed.len()));
                if key(at, cause, seq) > p.last_popped {
                    p.schedule_keyed(at, cause, seq);
                }
            } else if schedule || p.reference.is_empty() {
                let delta = match rng.gen_range(7) {
                    0 => 0,
                    1 => rng.gen_range(1_000) as u64,
                    2 => rng.gen_range(1_000_000) as u64,
                    3 => rng.gen_range(200_000_000) as u64,
                    // Around the ring's horizon, either side of it.
                    4 => {
                        horizon - BUCKET_WIDTH_PS + rng.gen_range(2 * BUCKET_WIDTH_PS as u32) as u64
                    }
                    5 => rng.gen_range(2_000_000_000) as u64,
                    _ => 50_000_000_000 + rng.gen_range(1_000_000_000) as u64,
                };
                // Occasionally reuse an earlier future instant to force
                // cross-call (time, seq) ties.
                let at = if rng.gen_range(4) == 0 && last_scheduled >= p.now {
                    last_scheduled
                } else {
                    p.now + delta
                };
                last_scheduled = at;
                p.schedule(at);
            } else {
                match rng.gen_range(4) {
                    0 => p.pop_before(u64::MAX),
                    1 => p.check_views(),
                    _ => {
                        // One synchronization window: run to a deadline a
                        // little ahead, then (next iterations) schedule.
                        let deadline = p.now + rng.gen_range(3_000_000) as u64;
                        for _ in 0..1 + rng.gen_range(40) {
                            p.pop_before(deadline);
                        }
                    }
                }
            }
        }
        assert!(
            p.now > 8 * horizon,
            "seed {seed}: only reached {} ps, the ring never wrapped",
            p.now
        );
        // Drain the remainder in lockstep.
        while !p.reference.is_empty() {
            p.check_views();
            p.pop_before(u64::MAX);
        }
        assert!(
            p.s.pop().is_none(),
            "seed {seed}: scheduler has extra events"
        );
        assert!(p.s.is_empty() && p.s.peek_time().is_none(), "seed {seed}");
        inserts_behind_cursor += p.inserts_behind_cursor;
    }
    assert!(
        inserts_behind_cursor > 1_000,
        "the lazy wake-up pattern was barely exercised: {inserts_behind_cursor}"
    );
}

/// One burst of a [`Scripted`] host: `count` data packets of `payload`
/// bytes to `dst`, handed to the stack at `at`, as flow `flow`.
#[derive(Clone, Copy)]
struct Burst {
    at: SimTime,
    dst: NodeId,
    flow: u32,
    count: u32,
    payload: u32,
}

/// One delivery: `(receiving host, time, flow, seq)`.
type Delivery = (NodeId, SimTime, u32, u64);

/// Sends its bursts, ACKs (40 B) every data packet it receives, and
/// completes a flow when its last packet arrived.
struct Scripted {
    bursts: Vec<Burst>,
    /// Data packets each flow (indexed by id) consists of.
    flow_pkts: std::rc::Rc<Vec<u32>>,
    received: Vec<u32>,
    log: std::rc::Rc<std::cell::RefCell<Vec<Delivery>>>,
}

impl Agent for Scripted {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, b) in self.bursts.iter().enumerate() {
            ctx.set_timer(b.at, i as u64);
        }
    }
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        self.log
            .borrow_mut()
            .push((ctx.host(), ctx.now(), pkt.flow, pkt.seq as u64));
        if pkt.payload == 0 {
            return;
        }
        ctx.send(Packet::ack_packet(
            pkt.flow,
            pkt.key,
            0,
            pkt.seq as u64,
            pkt.tstamp,
        ));
        let got = &mut self.received[pkt.flow as usize];
        *got += 1;
        if *got == self.flow_pkts[pkt.flow as usize] {
            let now = ctx.now();
            ctx.recorder().flow_completed(pkt.flow, now);
        }
    }
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        let b = self.bursts[token as usize];
        let key = FlowKey {
            src: ctx.host() as u16,
            dst: b.dst as u16,
            sport: b.flow as u16,
            dport: 80,
            proto: Proto::Tcp,
        };
        for i in 0..b.count {
            ctx.send(Packet::data(b.flow, key, 0, i as u64, b.payload, ctx.now()));
        }
    }
}

/// Everything a run of [`random_fabric`] leaves behind that a user could
/// read, rendered for comparison.
#[derive(Debug, PartialEq)]
struct Outcome {
    arrivals: Vec<Delivery>,
    flow_ends: Vec<SimTime>,
    ports: Vec<String>,
    counters: Vec<u64>,
    ledger: netsim::Conservation,
    end: SimTime,
}

/// A seeded two-tier fabric (2-3 leaves x 1-2 spines x 2-4 hosts per leaf;
/// ECMP or per-packet spraying; PFC with low thresholds or none; deep or
/// drop-prone queues; one uplink degraded before the run) under a script of
/// bursts that start at shared instants (an incast onto host 0 among them)
/// with 40 B, 1000 B, 1375 B and MTU packets. With `sample_at_tx_end` every
/// port is named by a fault API first, so every transmission takes the
/// TxDone-samples-then-launches path instead of the fused one.
fn random_fabric(seed: u64, sample_at_tx_end: bool) -> (Outcome, u64, [u64; EventKind::COUNT]) {
    let mut rng = DetRng::new(seed, 0x19);
    let mut sim = Simulator::new(seed);
    let (leaves, spines, per_leaf) = (
        2 + rng.gen_index(2),
        1 + rng.gen_index(2),
        2 + rng.gen_index(3),
    );
    let host_delay = [SimTime::ZERO, SimTime::from_us(20)][rng.gen_index(2)];
    let hosts: Vec<NodeId> = (0..leaves * per_leaf)
        .map(|_| sim.add_host(host_delay, host_delay))
        .collect();
    let mut cfg = if rng.gen_range(2) == 0 {
        SwitchConfig::commodity(HashConfig::FiveTuple)
    } else {
        SwitchConfig::rps()
    };
    let pfc = rng.gen_range(2) == 0;
    if pfc {
        cfg.pfc = Some(PfcConfig {
            pause_threshold: 6_000,
            resume_threshold: 3_000,
        });
    }
    let queue = if pfc || rng.gen_range(2) == 0 {
        QueueSpec::switch_10g()
    } else {
        QueueSpec {
            capacity: 12_000,
            mark_threshold: 6_000,
        }
    };
    let leaf_ids: Vec<NodeId> = (0..leaves).map(|_| sim.add_switch(cfg)).collect();
    let spine_ids: Vec<NodeId> = (0..spines).map(|_| sim.add_switch(cfg)).collect();
    let mut leaf_rt: Vec<RoutingTable> = vec![RoutingTable::new(hosts.len()); leaves];
    let mut spine_rt: Vec<RoutingTable> = vec![RoutingTable::new(hosts.len()); spines];
    let mut link = LinkSpec::host_10g();
    link.b_queue = queue;
    for (i, &h) in hosts.iter().enumerate() {
        let (_, down) = sim.connect(h, leaf_ids[i / per_leaf], link);
        leaf_rt[i / per_leaf].set(h, vec![down]);
    }
    let mut uplinks = vec![Vec::new(); leaves];
    for (l, &leaf) in leaf_ids.iter().enumerate() {
        for (s, &spine) in spine_ids.iter().enumerate() {
            let (up, down) = sim.connect(leaf, spine, LinkSpec::fabric_10g().with_queues(queue));
            uplinks[l].push(up);
            for &h in &hosts[l * per_leaf..(l + 1) * per_leaf] {
                spine_rt[s].set(h, vec![down]);
            }
        }
    }
    for (l, rt) in leaf_rt.iter_mut().enumerate() {
        for (i, &h) in hosts.iter().enumerate() {
            if i / per_leaf != l {
                rt.set(h, uplinks[l].clone());
            }
        }
    }
    for (id, rt) in leaf_ids
        .iter()
        .chain(&spine_ids)
        .zip(leaf_rt.into_iter().chain(spine_rt))
    {
        sim.set_routes(*id, rt);
    }
    // A degraded uplink, set before the run: stays on the fused path.
    let slow = rng.gen_index(leaves);
    sim.set_link_rate(leaf_ids[slow], uplinks[slow][0], 2_500_000_000);

    // The script: a few shared start instants; the first is an incast of
    // every other host onto host 0.
    let instants: Vec<SimTime> = (0..3)
        .map(|i| SimTime::from_us(30 * i) + SimTime::from_ns(rng.gen_range(2_000) as u64))
        .collect();
    let payloads = [1, 960, 1335, MSS];
    let mut bursts: Vec<Vec<Burst>> = vec![Vec::new(); hosts.len()];
    let mut flow_pkts = Vec::new();
    for (i, &at) in instants.iter().enumerate() {
        for (src, _) in hosts.iter().enumerate() {
            let dst = if i == 0 {
                0
            } else {
                rng.gen_index(hosts.len())
            };
            if dst == src || (i > 0 && rng.gen_range(3) == 0) {
                continue;
            }
            let b = Burst {
                at,
                dst: hosts[dst],
                flow: flow_pkts.len() as u32,
                count: 1 + rng.gen_range(12),
                payload: payloads[rng.gen_index(payloads.len())],
            };
            sim.recorder_mut().flow_started(FlowRecord {
                flow: b.flow,
                src: hosts[src],
                dst: b.dst,
                bytes: (b.count * b.payload) as u64,
                start: at,
                end: SimTime::MAX,
                job: None,
                proto: Proto::Tcp,
            });
            flow_pkts.push(b.count);
            bursts[src].push(b);
        }
    }
    let flow_pkts = std::rc::Rc::new(flow_pkts);
    let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    for (&h, bursts) in hosts.iter().zip(bursts) {
        sim.set_agent(
            h,
            Box::new(Scripted {
                bursts,
                flow_pkts: flow_pkts.clone(),
                received: vec![0; flow_pkts.len()],
                log: log.clone(),
            }),
        );
    }
    if sample_at_tx_end {
        for node in 0..sim.node_count() as NodeId {
            for port in 0..sim.port_count(node) as u16 {
                sim.set_gray_loss(node, port, 0.0);
            }
        }
    }
    sim.run_to_quiescence();
    sim.assert_conservation();
    let mut ports = Vec::new();
    for node in 0..sim.node_count() as NodeId {
        for port in 0..sim.port_count(node) as u16 {
            ports.push(format!("{node}/{port} {:?}", sim.port_stats(node, port)));
        }
    }
    let (events, mix) = (sim.events_processed(), sim.event_mix());
    let outcome = Outcome {
        arrivals: log.borrow().clone(),
        flow_ends: sim.recorder().flows().iter().map(|f| f.end).collect(),
        ports,
        counters: Counter::all()
            .iter()
            .map(|&c| sim.recorder().get(c))
            .collect(),
        ledger: sim.conservation(),
        end: sim.now(),
    };
    (outcome, events, mix)
}

/// The fused path (arrival booked at tx-start, TxDone virtual unless
/// something waits) and the sampling path (TxDone always real, books the
/// arrival at the last bit) build identical event keys, so a run must not
/// be able to tell them apart — except by doing fewer events.
#[test]
fn fused_and_tx_end_sampling_paths_are_indistinguishable() {
    let (mut drops, mut pauses, mut completed) = (0, 0, 0);
    for seed in 0..40u64 {
        let (fused, fused_events, fused_mix) = random_fabric(seed, false);
        let (sampled, sampled_events, sampled_mix) = random_fabric(seed, true);
        assert_eq!(fused, sampled, "seed {seed}");
        assert!(
            fused_events < sampled_events,
            "seed {seed}: {fused_events} events fused, {sampled_events} sampling"
        );
        // Only wake-ups went away; the sampling path has one per packet sent.
        for (k, name) in EventKind::NAMES.iter().enumerate() {
            if *name != "tx_done" {
                assert_eq!(fused_mix[k], sampled_mix[k], "seed {seed}: {name}");
            }
        }
        drops += fused.ledger.dropped_total();
        pauses += fused.counters[Counter::PfcPauses as usize];
        completed += fused
            .flow_ends
            .iter()
            .filter(|&&e| e != SimTime::MAX)
            .count();
    }
    // The seeds together reach the regimes the rule has to survive.
    assert!(
        drops > 0 && pauses > 0 && completed > 100,
        "{drops} {pauses} {completed}"
    );
}

/// Serialization time is exactly linear in bytes and inverse in rate.
#[test]
fn serialization_scales_linearly() {
    for seed in 0..100u64 {
        let mut rng = DetRng::new(seed, 0x13);
        let bytes = 1 + rng.next_u32() as u64 % 999_999;
        let rate_gbps = 1 + rng.gen_range(399) as u64;
        let rate = rate_gbps * 1_000_000_000;
        let one = SimTime::serialization(bytes, rate);
        let two = SimTime::serialization(bytes * 2, rate);
        // Integer division may lose at most 1 ps per call.
        let diff = (two.as_ps() as i128 - 2 * one.as_ps() as i128).abs();
        assert!(diff <= 2, "seed {seed}: nonlinear: {one} vs {two}");
        let faster = SimTime::serialization(bytes, rate * 2);
        assert!(faster <= one, "seed {seed}");
    }
}

/// ECMP selection is deterministic, in-bounds, and V-insensitive when
/// configured without the V-field.
#[test]
fn hasher_bounds_and_determinism() {
    for seed in 0..200u64 {
        let mut rng = DetRng::new(seed, 0x14);
        let salt = rng.next_u64();
        let sport = rng.next_u32() as u16;
        let v = rng.next_u32() as u8;
        let n = 1 + rng.gen_index(63);
        let with_v = EcmpHasher::new(HashConfig::FiveTupleAndVField, salt);
        let without_v = EcmpHasher::new(HashConfig::FiveTuple, salt);
        let pkt = mk_pkt(0, 1000, sport, v);
        let a = with_v.select(&pkt, n);
        assert!(a < n, "seed {seed}");
        assert_eq!(a, with_v.select(&pkt, n), "seed {seed}: non-deterministic");
        let b0 = without_v.select(&mk_pkt(0, 1000, sport, 0), n);
        let bv = without_v.select(&pkt, n);
        assert_eq!(b0, bv, "seed {seed}: V leaked into a 5-tuple hash");
    }
}

/// Weighted selection never picks zero-weight entries.
#[test]
fn weighted_selection_avoids_zero_weights() {
    for seed in 0..200u64 {
        let mut rng = DetRng::new(seed, 0x15);
        let salt = rng.next_u64();
        let sport = rng.next_u32() as u16;
        let len = 2 + rng.gen_index(6);
        let mut weights: Vec<u32> = (0..len).map(|_| rng.gen_range(5)).collect();
        if weights.iter().all(|&w| w == 0) {
            weights[rng.gen_index(len)] = 1 + rng.gen_range(4);
        }
        let h = EcmpHasher::new(HashConfig::FiveTuple, salt);
        let idx = h.select_weighted(&mk_pkt(0, 1000, sport, 0), &weights);
        assert!(
            weights[idx] > 0,
            "seed {seed}: picked zero-weight index {idx} of {weights:?}"
        );
    }
}

/// PFC accounting: pause/resume alternate per ingress, byte counts
/// match a reference model, and the underflow guard holds.
#[test]
fn pfc_model_alternates_and_balances() {
    for seed in 0..40u64 {
        let mut rng = DetRng::new(seed, 0x16);
        let cfg = PfcConfig {
            pause_threshold: 10_000,
            resume_threshold: 5_000,
        };
        let mut pfc = PfcState::new(cfg, 4);
        let mut bytes = [0u64; 4];
        let mut paused = [false; 4];
        let n_ops = 1 + rng.gen_index(300);
        for _ in 0..n_ops {
            let port = rng.gen_range(4) as u16;
            let size = 1 + rng.gen_range(4_999) as u64;
            let buffer = rng.gen_range(2) == 0;
            let p = port as usize;
            if buffer {
                let action = pfc.on_buffered(port, size);
                bytes[p] += size;
                match action {
                    PfcAction::SendPause => {
                        assert!(!paused[p], "seed {seed}: double pause");
                        assert!(bytes[p] > cfg.pause_threshold, "seed {seed}");
                        paused[p] = true;
                    }
                    PfcAction::SendResume => panic!("seed {seed}: resume on buffer"),
                    PfcAction::None => {}
                }
            } else {
                let take = size.min(bytes[p]);
                if take == 0 {
                    continue;
                }
                let action = pfc.on_released(port, take);
                bytes[p] -= take;
                match action {
                    PfcAction::SendResume => {
                        assert!(paused[p], "seed {seed}: resume while not paused");
                        assert!(bytes[p] < cfg.resume_threshold, "seed {seed}");
                        paused[p] = false;
                    }
                    PfcAction::SendPause => panic!("seed {seed}: pause on release"),
                    PfcAction::None => {}
                }
            }
            assert_eq!(pfc.ingress_bytes(port), bytes[p], "seed {seed}");
            assert_eq!(pfc.is_pausing(port), paused[p], "seed {seed}");
        }
    }
}

/// DetRng::gen_range stays in bounds for arbitrary bounds and seeds.
#[test]
fn rng_range_in_bounds() {
    for seed in 0..100u64 {
        let mut meta = DetRng::new(seed, 0x17);
        let stream = meta.next_u64();
        let bound = 1 + meta.gen_range(999_999);
        let mut rng = DetRng::new(seed, stream);
        for _ in 0..50 {
            assert!(rng.gen_range(bound) < bound, "seed {seed}");
        }
    }
}

/// gen_exp is always non-negative and finite.
#[test]
fn rng_exp_nonnegative() {
    for seed in 0..100u64 {
        let mut rng = DetRng::new(seed, 1);
        let mean = 0.001 + rng.gen_f64() * 1e6;
        for _ in 0..50 {
            let x = rng.gen_exp(mean);
            assert!(x.is_finite() && x >= 0.0, "seed {seed}");
        }
    }
}
