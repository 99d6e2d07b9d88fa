//! Randomized tests of the transport: the receiver's reassembly (against
//! a bitmap reference model), the receiver's ACK stream under adversarial
//! data schedules (live and retired), the RTT estimator, and the sender's
//! invariants under adversarial ACK schedules. Every schedule is generated
//! from a seeded [`DetRng`] stream so every failure reproduces exactly.

use netsim::testutil::CtxHarness;
use netsim::{
    register_flows, Agent, Counter, DetRng, Flags, FlowKey, FlowSpec, HashConfig, LinkSpec, Packet,
    Proto, RoutingTable, SimTime, Simulator, SwitchConfig, MSS,
};
use transport::config::MAX_CWND;
use transport::{HostAgent, Receiver, RttEstimator, TcpConfig, TcpSender, TimerOutcome, RTO_MAX};

/// Drive a real `Receiver` inside a minimal simulation so it has a `Ctx`:
/// one host delivers a scripted segment arrival order to another.
struct Replay {
    segments: Vec<(u64, u32)>, // (seq, len) in arrival order
    rx: Option<Receiver>,
    size: u64,
    /// Echo of receiver state after each delivery: (expected, complete).
    pub log: std::rc::Rc<std::cell::RefCell<Vec<(u64, bool, bool)>>>,
}

impl netsim::Agent for Replay {
    fn on_start(&mut self, ctx: &mut netsim::Ctx<'_>) {
        // Feed all scripted segments directly to the receiver.
        let mut rx = self.rx.take().expect("receiver present");
        let key = FlowKey {
            src: 1,
            dst: 0,
            sport: 5,
            dport: 6,
            proto: Proto::Tcp,
        };
        for &(seq, len) in &self.segments {
            let pkt = Packet::data(0, key, 0, seq, len, ctx.now());
            rx.on_data(&pkt, ctx);
            self.log
                .borrow_mut()
                .push((rx.expected(), rx.is_complete(), false));
        }
        let _ = self.size;
        self.rx = Some(rx);
    }
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut netsim::Ctx<'_>) {}
    fn on_timer(&mut self, _token: u64, _ctx: &mut netsim::Ctx<'_>) {}
}

/// Run a scripted arrival order through a real Receiver; returns the state
/// log and the number of ACKs emitted (captured by the peer).
fn replay(size: u64, segments: Vec<(u64, u32)>) -> (Vec<(u64, bool, bool)>, usize) {
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
    // Register the flow so completion can be recorded.
    sim.recorder_mut().flow_started(netsim::FlowRecord {
        flow: 0,
        src: 1,
        dst: 0,
        bytes: size,
        start: SimTime::ZERO,
        end: SimTime::MAX,
        job: None,
        proto: Proto::Tcp,
    });
    let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let replay = Replay {
        segments,
        rx: Some(Receiver::new(0, size)),
        size,
        log: log.clone(),
    };
    // Count ACKs at the peer.
    let acks = netsim::testutil::RxLog::shared();
    sim.set_agent(h0, Box::new(replay));
    sim.set_agent(
        h1,
        Box::new(netsim::testutil::CountingSink { log: acks.clone() }),
    );
    sim.run_to_quiescence();
    let n_acks = acks.borrow().arrivals.len();
    let out = log.borrow().clone();
    (out, n_acks)
}

/// Segment a flow into `n` MSS-sized pieces, append some duplicates, and
/// shuffle the lot (Fisher–Yates on `rng`).
fn arrival_order(rng: &mut DetRng, max_segs: usize) -> (u64, Vec<(u64, u32)>) {
    let n = 1 + rng.gen_index(max_segs - 1);
    let size = n as u64 * 1000;
    let base: Vec<(u64, u32)> = (0..n).map(|i| (i as u64 * 1000, 1000u32)).collect();
    let mut all = base.clone();
    let n_dups = rng.gen_index(n + 1);
    for _ in 0..n_dups {
        all.push(base[rng.gen_index(n)]);
    }
    for i in (1..all.len()).rev() {
        all.swap(i, rng.gen_index(i + 1));
    }
    (size, all)
}

/// Whatever the arrival order (including duplicates):
/// * `expected` is monotone non-decreasing,
/// * one cumulative ACK is emitted per arriving segment,
/// * the flow completes exactly once every byte has arrived.
#[test]
fn reassembly_matches_bitmap_model() {
    for seed in 0..60u64 {
        let mut rng = DetRng::new(seed, 0x20);
        let (size, order) = arrival_order(&mut rng, 40);
        let (log, n_acks) = replay(size, order.clone());
        assert_eq!(n_acks, order.len(), "seed {seed}: one ACK per data segment");
        let mut covered = vec![false; (size / 1000) as usize];
        let mut prev_expected = 0;
        for (i, &(seq, len)) in order.iter().enumerate() {
            for b in (seq / 1000)..((seq + len as u64) / 1000) {
                covered[b as usize] = true;
            }
            // Model: expected = first uncovered byte.
            let model_expected = covered
                .iter()
                .position(|&c| !c)
                .map(|p| p as u64 * 1000)
                .unwrap_or(size);
            let (expected, complete, _) = log[i];
            assert_eq!(expected, model_expected, "seed {seed}: at arrival {i}");
            assert!(expected >= prev_expected, "seed {seed}: ACK went backwards");
            prev_expected = expected;
            assert_eq!(complete, model_expected >= size, "seed {seed}");
        }
        // All segments present at least once -> must be complete.
        assert!(log.last().unwrap().1, "seed {seed}: flow never completed");
    }
}

/// One data segment of a receiver schedule: its place in the flow, its CE
/// mark, and how long after the previous arrival it lands.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    seq: u64,
    len: u32,
    ce: bool,
    gap: SimTime,
}

impl Arrival {
    fn packet(&self, size: u64, now: SimTime) -> Packet {
        let key = FlowKey {
            src: 1,
            dst: 0,
            sport: 1024,
            dport: 9000,
            proto: Proto::Tcp,
        };
        let mut p = Packet::data(0, key, self.seq as u8, self.seq, self.len, now);
        if self.ce {
            p.flags.set(Flags::CE);
        }
        if self.seq + self.len as u64 == size {
            p.flags.set(Flags::FIN);
        }
        p
    }
}

/// A flow of random size cut into MSS segments, delivered adversarially:
/// segments dropped and retransmitted later, duplicated anywhere,
/// reordered locally, and duplicated again after the flow has completed.
fn receiver_schedule(rng: &mut DetRng) -> (u64, Vec<Arrival>) {
    let mss = MSS as u64;
    let size = 1 + rng.gen_range(40 * MSS) as u64;
    let n = size.div_ceil(mss) as usize;
    let odds = [0.0, 0.1, 0.3];
    let (p_drop, p_dup) = (*rng.choose(&odds), *rng.choose(&odds));
    let mut order: Vec<usize> = (0..n).collect();
    for seg in 0..n {
        if rng.gen_f64() < p_drop {
            // The first copy is lost; the retransmission lands later.
            let at = order.iter().position(|&s| s == seg).expect("present");
            order.remove(at);
            order.insert(at + rng.gen_index(order.len() - at + 1), seg);
        }
    }
    for _ in 0..n {
        if rng.gen_f64() < p_dup {
            order.insert(rng.gen_index(order.len() + 1), rng.gen_index(n));
        }
    }
    for _ in 0..rng.gen_index(n + 1) {
        let i = rng.gen_index(order.len());
        let j = (i + 1 + rng.gen_index(4)).min(order.len() - 1);
        order.swap(i, j);
    }
    for _ in 0..1 + rng.gen_index(4) {
        order.push(rng.gen_index(n));
    }
    let arrivals = order
        .into_iter()
        .map(|seg| {
            let seq = seg as u64 * mss;
            Arrival {
                seq,
                len: (size - seq).min(mss) as u32,
                ce: rng.gen_f64() < 0.3,
                gap: SimTime::from_us(rng.gen_range(20) as u64),
            }
        })
        .collect();
    (size, arrivals)
}

/// What one schedule produced: every ACK with the index of the arrival it
/// answers, the counters, and the flow's recorded end.
struct Replayed {
    acks: Vec<(usize, Packet)>,
    counters: Vec<u64>,
    end: SimTime,
    completed: usize,
}

/// Run `arrivals` through a bare [`Receiver`] that is kept after
/// completion, or through a [`HostAgent`] terminating the flow, which
/// builds its receiver on the first segment and retires it at completion.
fn replay_schedule(size: u64, arrivals: &[Arrival], via_host: bool) -> Replayed {
    let mut h = CtxHarness::new(1);
    let spec = FlowSpec::tcp(0, 1, 0, size, SimTime::ZERO);
    register_flows(h.recorder_mut(), std::slice::from_ref(&spec));
    let mut host = HostAgent::new(TcpConfig::default(), Vec::new(), [&spec]);
    let mut live = Receiver::new(0, size);
    let mut acks = Vec::new();
    for (i, a) in arrivals.iter().enumerate() {
        h.now += a.gap;
        let pkt = a.packet(size, h.now);
        if via_host {
            host.on_packet(pkt, &mut h.ctx());
        } else {
            live.on_data(&pkt, &mut h.ctx());
        }
        let (sent, timers) = h.drain();
        assert!(timers.is_empty(), "an ACK arms no timer");
        acks.extend(sent.into_iter().map(|p| (i, p)));
    }
    let rec = h.recorder();
    Replayed {
        acks,
        counters: Counter::all().iter().map(|&c| rec.get(c)).collect(),
        end: rec.flows()[0].end,
        completed: rec.completed_count(),
    }
}

/// The receiver against hostile delivery, with CE marks on random
/// segments:
/// * completion is recorded exactly once, at the arrival that covers the
///   last missing byte;
/// * every segment is answered at once by one ACK carrying the model's
///   cumulative ACK, the highest segment start seen so far (`rcv_high`),
///   and the segment's own CE bit;
/// * the cumulative ACK never decreases and ends at the flow size, so no
///   byte is delivered twice;
/// * every segment after completion is answered with `ack = size` and
///   DSACK;
/// * data and reordering counters match the model.
///
/// The same schedule through a [`HostAgent`], which retires its receiver
/// at completion and answers late duplicates from a 16-byte record, and
/// through a receiver kept live yields the same ACKs and counters.
#[test]
fn receiver_acks_hold_under_adversarial_schedules() {
    let mut late = 0;
    for seed in 0..150u64 {
        let mut rng = DetRng::new(seed, 0x23);
        let (size, arrivals) = receiver_schedule(&mut rng);
        let host = replay_schedule(size, &arrivals, true);
        let live = replay_schedule(size, &arrivals, false);

        // The model: cumulative point, highest start and completion instant.
        let mut held = vec![false; size.div_ceil(MSS as u64) as usize];
        let (mut high, mut ooo) = (0u64, 0u64);
        let mut done_at: Option<usize> = None;
        let mut after: Vec<(u64, u64)> = Vec::new(); // (expected, high) per arrival
        let mut now = SimTime::ZERO;
        let mut end = SimTime::MAX;
        for (i, a) in arrivals.iter().enumerate() {
            now += a.gap;
            if a.seq < high {
                ooo += 1;
            }
            high = high.max(a.seq);
            held[(a.seq / MSS as u64) as usize] = true;
            let first_missing = held.iter().position(|&h| !h).unwrap_or(held.len());
            let expected = (first_missing as u64 * MSS as u64).min(size);
            if expected == size && done_at.is_none() {
                done_at = Some(i);
                end = now;
            }
            after.push((expected, high));
        }
        let done_at = done_at.expect("every segment arrives");

        for r in [&host, &live] {
            assert_eq!(r.completed, 1, "seed {seed}");
            assert_eq!(r.end, end, "seed {seed}: completion instant");
            assert_eq!(
                r.counters[Counter::DataPktsRcvd as usize],
                arrivals.len() as u64
            );
            assert_eq!(
                r.counters[Counter::OooPktsRcvd as usize],
                ooo,
                "seed {seed}"
            );
            assert!(
                r.acks.iter().map(|&(i, _)| i).eq(0..arrivals.len()),
                "seed {seed}: one ACK per segment, at once"
            );
            let mut prev = 0;
            for &(i, ref ack) in &r.acks {
                let a = &arrivals[i];
                assert!(ack.flags.has(Flags::ACK));
                assert!(ack.ack >= prev, "seed {seed}: cumulative ACK went back");
                prev = ack.ack;
                let (exp, hi) = after[i];
                assert_eq!(ack.ack, exp, "seed {seed}: cumulative ACK");
                assert_eq!(ack.rcv_high, hi, "seed {seed}: rcv_high");
                assert_eq!(ack.flags.has(Flags::ECE), a.ce, "seed {seed}: echo");
                if i > done_at {
                    late += 1;
                    assert_eq!(ack.ack, size, "seed {seed}: late ACK");
                    assert!(ack.flags.has(Flags::DSACK), "seed {seed}: late DSACK");
                }
            }
            assert_eq!(prev, size, "seed {seed}: never acknowledged everything");
        }

        let render =
            |r: &Replayed| -> Vec<String> { r.acks.iter().map(|a| format!("{a:?}")).collect() };
        assert_eq!(
            render(&host),
            render(&live),
            "seed {seed}: ACK streams differ"
        );
        assert_eq!(host.counters, live.counters, "seed {seed}: counters differ");
    }
    assert!(late > 100, "only {late} ACKs after completion");
}

/// RTO is always >= the floor, and SRTT stays within the sample range.
#[test]
fn rtt_estimator_bounds() {
    for seed in 0..60u64 {
        let mut rng = DetRng::new(seed, 0x21);
        let n = 1 + rng.gen_index(200);
        let floor = SimTime::from_ms(10);
        let mut est = RttEstimator::new(floor, floor);
        let mut lo = u64::MAX;
        let mut hi = 0;
        for _ in 0..n {
            let s = 1 + rng.gen_range(999_999) as u64;
            est.sample(SimTime::from_ns(s));
            lo = lo.min(s);
            hi = hi.max(s);
            assert!(est.rto() >= floor, "seed {seed}");
            let srtt = est.srtt().unwrap().as_ps();
            assert!(srtt >= SimTime::from_ns(lo).as_ps(), "seed {seed}");
            assert!(srtt <= SimTime::from_ns(hi).as_ps(), "seed {seed}");
        }
    }
}

/// Backoff multiplies the RTO monotonically and caps.
#[test]
fn rtt_backoff_is_monotone() {
    for n_backoffs in 0u32..12 {
        let floor = SimTime::from_ms(10);
        let mut est = RttEstimator::new(floor, floor);
        let mut prev = est.rto();
        for _ in 0..n_backoffs {
            est.backoff();
            let now = est.rto();
            assert!(now >= prev);
            assert!(now <= floor.saturating_mul(64));
            prev = now;
        }
    }
}

/// The network and receiver one [`TcpSender`] talks to in
/// [`sender_invariants_hold_under_adversarial_schedules`]: data and ACKs in
/// flight, a per-segment model of what the receiver holds, and the
/// retransmit timer the host agent would have armed.
struct Wire {
    size: u64,
    data: Vec<Packet>,
    acks: Vec<Packet>,
    held: Vec<bool>,
    /// First segment the receiver is missing (its cumulative ACK / MSS).
    next_missing: usize,
    /// Highest byte the receiver has seen (the ACKs' `rcv_high`).
    high: u64,
    /// Highest cumulative ACK the sender has been handed (its `snd_una`).
    una: u64,
    timer: Option<SimTime>,
}

impl Wire {
    fn new(size: u64) -> Self {
        Wire {
            size,
            data: Vec::new(),
            acks: Vec::new(),
            held: vec![false; size.div_ceil(MSS as u64) as usize],
            next_missing: 0,
            high: 0,
            una: 0,
            timer: None,
        }
    }

    /// Take what the sender just sent, checking every segment on the way.
    fn collect(&mut self, h: &mut CtxHarness, seed: u64) {
        let (pkts, timers) = h.drain();
        assert!(
            timers.is_empty(),
            "seed {seed}: the sender arms no timers itself"
        );
        for p in pkts {
            let end = p.seq + p.payload as u64;
            assert!(p.payload > 0 && end <= self.size, "seed {seed}: {p:?}");
            assert_eq!(p.seq % MSS as u64, 0, "seed {seed}: off the MSS grid");
            assert_eq!(
                p.flags.has(Flags::FIN),
                end == self.size,
                "seed {seed}: FIN on the last segment only"
            );
            // The receive window: no segment starts MAX_CWND or more past
            // the cumulative ACK, so bytes in flight stay capped.
            assert!(
                p.seq < self.una + MAX_CWND,
                "seed {seed}: {} in flight",
                p.seq - self.una
            );
            self.data.push(p);
        }
    }

    /// The receiver takes one data segment and answers with a cumulative
    /// ACK — DSACK when it already held the segment, ECE and spurious
    /// DSACK flags at the given odds.
    fn receive(&mut self, p: &Packet, p_ece: f64, p_dsack: f64, rng: &mut DetRng) {
        let seg = (p.seq / MSS as u64) as usize;
        let dup = std::mem::replace(&mut self.held[seg], true);
        while self.held.get(self.next_missing) == Some(&true) {
            self.next_missing += 1;
        }
        self.high = self.high.max(p.seq + p.payload as u64);
        let cum = (self.next_missing as u64 * MSS as u64).min(self.size);
        let mut a = Packet::ack_packet(p.flow, p.key, 0, cum, p.tstamp);
        a.rcv_high = self.high;
        if dup || rng.gen_f64() < p_dsack {
            a.flags.set(Flags::DSACK);
        }
        if rng.gen_f64() < p_ece {
            a.flags.set(Flags::ECE);
        }
        self.acks.push(a);
    }

    fn ack(&mut self, s: &mut TcpSender, a: &Packet, h: &mut CtxHarness) {
        if let Some(deadline) = s.on_ack(a, &mut h.ctx()) {
            self.timer = Some(deadline);
        }
        self.una = self.una.max(a.ack);
    }

    fn fire(&mut self, s: &mut TcpSender, h: &mut CtxHarness) {
        self.timer = match s.on_timer(&mut h.ctx()) {
            TimerOutcome::Rearm(deadline) => Some(deadline),
            TimerOutcome::Quiet => None,
        };
    }
}

fn check_window(s: &TcpSender, seed: u64) {
    assert!(s.cwnd() >= MSS as f64, "seed {seed}: cwnd {}", s.cwnd());
    assert!(
        (0.0..=1.0).contains(&s.alpha()),
        "seed {seed}: alpha {}",
        s.alpha()
    );
}

/// Watches DSACK undos: an undo may restore cwnd to at most the window
/// the sender had when it entered the recovery it undoes.
#[derive(Default)]
struct UndoWatch {
    /// cwnd just before the ACK that entered the open recovery; `None`
    /// when no recovery can be undone (none entered, or an RTO since).
    entry: Option<f64>,
    /// Undos checked, over all seeds.
    undos: u32,
}

impl UndoWatch {
    /// The sender's cwnd, its cumulative ACK and the recovery counters:
    /// taken before a step, it is what the step is judged against.
    fn snapshot(s: &TcpSender, w: &Wire, h: &CtxHarness) -> (f64, u64, [u64; 3]) {
        let counts = [
            Counter::FastRetransmits,
            Counter::DsackUndos,
            Counter::Timeouts,
        ];
        (s.cwnd(), w.una, counts.map(|c| h.recorder().get(c)))
    }

    fn check(
        &mut self,
        before: (f64, u64, [u64; 3]),
        s: &TcpSender,
        w: &Wire,
        h: &CtxHarness,
        seed: u64,
    ) {
        let (cwnd, una, [fr, undos, rtos]) = before;
        let (_, _, [fr_now, undos_now, rtos_now]) = Self::snapshot(s, w, h);
        if rtos_now > rtos {
            self.entry = None;
        }
        if fr_now > fr {
            self.entry = Some(cwnd);
        }
        if undos_now > undos {
            let Some(entry) = self.entry.take() else {
                panic!("seed {seed}: undo with no open recovery");
            };
            // The ACK that carried the DSACK may also advance the
            // cumulative ACK, which grows the restored window by at most
            // one MSS.
            let growth = if w.una > una { MSS as f64 } else { 0.0 };
            assert!(
                s.cwnd() <= entry + growth,
                "seed {seed}: undo restored cwnd {} above the {entry} of recovery entry",
                s.cwnd()
            );
            self.undos += 1;
        }
    }
}

/// The sender against a hostile network. Each seed picks a flow size, a
/// host stack and the odds of every perturbation, then runs a schedule
/// built from what the sender actually sent: data and ACKs delivered out
/// of order, duplicated or dropped, ECE and DSACK flags (spurious ones
/// too), and retransmit-timer events fired both
/// before and after their deadline. After every step: cwnd ≥ one MSS,
/// `alpha` ∈ [0, 1], and every segment lies in `[0, size)` on the MSS grid,
/// carries FIN only at the end and starts within `MAX_CWND` of the
/// cumulative ACK; a DSACK undo restores no more than the window the
/// sender entered its recovery with ([`UndoWatch`]; the undos must
/// happen). Then the network turns reliable and the sender must
/// complete. Every fifth seed sends 2–3 MB over the reliable network
/// alone: the one schedule that grows cwnd into the `MAX_CWND` cap.
#[test]
fn sender_invariants_hold_under_adversarial_schedules() {
    let odds = [0.0, 0.02, 0.1, 0.4];
    let mut capped = 0;
    let mut watch = UndoWatch::default();
    for seed in 0..40u64 {
        let mut rng = DetRng::new(seed, 0x22);
        let (size, steps) = if seed % 5 == 0 {
            (2_000_000 + rng.gen_range(1_000_000) as u64, 0)
        } else {
            // Any order of magnitude, down to single-segment flows.
            let bytes = rng.gen_range(2_500_000) >> rng.gen_range(16);
            (1 + bytes as u64, 3_000)
        };
        let cfg = match seed % 4 {
            2 => TcpConfig::detail(),
            3 => TcpConfig::flowbender(flowbender::Config::default()),
            _ => TcpConfig::default(),
        };
        let (p_drop, p_dup) = (*rng.choose(&odds), *rng.choose(&odds));
        let (p_ece, p_dsack) = (*rng.choose(&odds), *rng.choose(&odds) / 4.0);
        let key = FlowKey {
            src: 0,
            dst: 1,
            sport: 1000,
            dport: 80,
            proto: Proto::Tcp,
        };
        let mut h = CtxHarness::new(seed);
        let mut w = Wire::new(size);
        let mut s = TcpSender::new(0, key, size, cfg, None, 0, &mut h.ctx());
        w.timer = s.start(&mut h.ctx());
        w.collect(&mut h, seed);
        watch.entry = None;
        for _ in 0..steps {
            let before = UndoWatch::snapshot(&s, &w, &h);
            h.now += SimTime::from_ns(rng.gen_range(20_000) as u64);
            match rng.gen_range(100) {
                0..=39 if !w.data.is_empty() => {
                    let p = w.data.swap_remove(rng.gen_index(w.data.len()));
                    if rng.gen_f64() < p_dup {
                        w.data.push(p.clone());
                    }
                    if rng.gen_f64() >= p_drop {
                        w.receive(&p, p_ece, p_dsack, &mut rng);
                    }
                }
                40..=79 if !w.acks.is_empty() => {
                    let a = w.acks.swap_remove(rng.gen_index(w.acks.len()));
                    if rng.gen_f64() < p_dup {
                        w.acks.push(a.clone());
                    }
                    if rng.gen_f64() >= p_drop {
                        w.ack(&mut s, &a, &mut h);
                    }
                }
                // A stale timer event, whatever its deadline.
                88..=93 => w.fire(&mut s, &mut h),
                // The armed timer at (or after) its deadline.
                94..=99 => {
                    if let Some(t) = w.timer {
                        h.now = h.now.max(t);
                    }
                    w.fire(&mut s, &mut h);
                }
                _ => {}
            }
            w.collect(&mut h, seed);
            check_window(&s, seed);
            watch.check(before, &s, &w, &h, seed);
        }
        // The network turns reliable: deliver everything in order and let
        // the retransmit timer cover what the schedule lost.
        w.acks.clear();
        for _ in 0..100_000 {
            if s.is_complete() {
                break;
            }
            if w.data.is_empty() {
                h.now += RTO_MAX;
                w.fire(&mut s, &mut h);
            } else {
                h.now += SimTime::from_us(50);
                let mut data = std::mem::take(&mut w.data);
                data.sort_by_key(|p| p.seq);
                for p in &data {
                    w.receive(p, 0.0, 0.0, &mut rng);
                }
                for a in std::mem::take(&mut w.acks) {
                    w.ack(&mut s, &a, &mut h);
                }
            }
            w.collect(&mut h, seed);
            check_window(&s, seed);
            if s.cwnd() >= MAX_CWND as f64 {
                capped += 1;
            }
        }
        assert!(s.is_complete(), "seed {seed}: never completed");
        assert!(w.held.iter().all(|&b| b), "seed {seed}: receiver has holes");
    }
    assert!(capped > 0, "no seed grew cwnd to MAX_CWND");
    assert!(watch.undos > 0, "no schedule undid a recovery");
}
