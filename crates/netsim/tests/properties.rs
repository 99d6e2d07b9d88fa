//! Randomized tests of the simulator's core data structures against
//! reference models. All inputs are drawn from seeded [`DetRng`] streams,
//! so failures reproduce exactly.

use netsim::event::{EventKind, Scheduler};
use netsim::switch::{PfcAction, PfcConfig, PfcState};
use netsim::{
    DetRng, EcmpHasher, EcnQueue, EnqueueResult, FlowKey, HashConfig, Packet, Proto, SimTime,
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
                let size = mk_pkt(0, payload, 7, 0).size;
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
            let size = mk_pkt(0, *p, 7, 0).size;
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

/// The scheduler releases events in exact (time, insertion) order.
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

/// The calendar scheduler and a plain binary heap agree on every answer
/// (`pop`, `pop_before`, `next_time`, `peek_time`, `len`), under random
/// interleavings that alternate growing and draining phases: same-instant
/// ties, sub-bucket and in-ring deltas, beyond-ring spills that later sit
/// between occupied ring buckets, deep far-future jumps over an empty ring,
/// thousands of events in one bucket, and enough elapsed time to wrap the
/// ring many times. Scheduling right after a `pop_before` that stopped at
/// its deadline is the sharded engine's access pattern.
#[test]
fn scheduler_matches_reference_heap() {
    use netsim::event::{BUCKET_WIDTH_PS, NUM_BUCKETS};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    struct Pair {
        s: Scheduler,
        reference: BinaryHeap<Reverse<(u64, u64)>>,
        seq: u64,
        now: u64,
        seed: u64,
    }
    impl Pair {
        fn schedule(&mut self, at: u64) {
            let token = self.seq;
            self.s
                .schedule(SimTime::from_ps(at), EventKind::Timer { host: 0, token });
            self.reference.push(Reverse((at, token)));
            self.seq += 1;
        }
        /// `pop_before(deadline)` on both; the popped event must match.
        fn pop_before(&mut self, deadline: u64) {
            let seed = self.seed;
            let want = match self.reference.peek() {
                Some(&Reverse((t, token))) if t <= deadline => {
                    self.reference.pop();
                    self.now = t;
                    Some((t, token))
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
            let want = self.reference.peek().map(|r| SimTime::from_ps(r.0 .0));
            assert_eq!(self.s.peek_time(), want, "seed {seed}: peek_time");
            assert_eq!(self.s.next_time(), want, "seed {seed}: next_time");
            assert_eq!(self.s.len(), self.reference.len(), "seed {seed}: len");
        }
    }

    let horizon = BUCKET_WIDTH_PS * NUM_BUCKETS as u64;
    for seed in 0..30u64 {
        let mut rng = DetRng::new(seed, 0x18);
        let mut p = Pair {
            s: Scheduler::new(),
            reference: BinaryHeap::new(),
            seq: 0,
            now: 0,
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
        assert!(p.s.is_empty() && p.s.next_time().is_none(), "seed {seed}");
    }
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
