//! The discrete-event core: compact events and an arena calendar scheduler.
//!
//! Events are ordered by `(time, cause, seq)`. `cause` is the instant the
//! event was decided and `seq` the global insertion sequence; for everything
//! scheduled through [`Scheduler::schedule`] the two agree (a later instant
//! draws a larger `seq`), so ties break FIFO and runs are fully
//! deterministic: two events scheduled for the same instant fire in the
//! order they were scheduled. The pair exists for the one event that is
//! scheduled *ahead of its cause*: the simulator books a packet's `Arrive`
//! when its serialization starts, but keys it ([`Scheduler::schedule_keyed`])
//! with `cause` = the instant serialization ends — where an engine that
//! also fired an event at the last bit would have drawn the `seq` — so it
//! pops exactly where that engine would have popped it (see [`Tie`] and the
//! `sim` module docs). Packet-carrying events hold a 4-byte [`PacketId`]
//! into the simulator's [`crate::slab::PacketSlab`] rather than an inline
//! `Packet`, so an [`Event`] is a few machine words and moving one through
//! the queue is cheap.
//!
//! ## The calendar
//!
//! Datacenter workloads schedule overwhelmingly into the near future
//! (serialization times are ~1.2 µs, hops ~100 ns, host delays ~20 µs), so
//! instead of one global heap — `O(log n)` sift work and its cache misses
//! on every event — the scheduler keeps three tiers:
//!
//! * a ring of [`NUM_BUCKETS`] **near-future buckets**, each spanning
//!   [`BUCKET_WIDTH_PS`] (≈ 65 ns, so a bucket of a busy 128-host fabric
//!   holds a few dozen events); scheduling prepends to the bucket's
//!   unordered list in O(1);
//! * **`current`**, the bucket being drained: its list is gathered into one
//!   reused `Vec`, sorted by key *once*, and read front to back — no heap
//!   sift per pop. An event scheduled into the bucket being drained is
//!   inserted in order; an ordinary one carries the newest `cause` and
//!   `seq`, so equal and later times append and a same-instant burst of any
//!   size stays O(1) each;
//! * a **far heap** for everything beyond the ring's horizon (≈ 268 µs:
//!   retransmit timers, far-off administrative events).
//!
//! **One arena, not a `Vec` per bucket.** All ring events live in a single
//! pooled `Vec` of list nodes with a LIFO free list; a bucket is a `u32`
//! head. Per-bucket `Vec`s are as fast, but each keeps the capacity of the
//! largest burst that ever hit it — 4096 of them raised peak RSS by 19–59 %
//! when measured. The arena's size is the peak number of simultaneously
//! pending ring events and nothing more, and a slot freed by a drain is the
//! next one reused, still in cache.
//!
//! **Skipping, and where it must stop.** A 64-word occupancy bitmap lets
//! the window jump over empty buckets with `trailing_zeros` instead of
//! stepping through a sparse drain tail one bucket at a time. Far events
//! never enter the ring: the window stops at the far heap's earliest bucket
//! if that comes before the next occupied ring bucket, and merges every far
//! event inside the bucket it lands on into `current` before anything pops.
//! So `far`'s earliest event always lies after the current bucket, every
//! event of one bucket is in `current` before the first of them pops, and
//! across buckets time strictly increases — the pop order is *identical* to
//! a global heap's (`scheduler_matches_reference_heap` in
//! `tests/properties.rs` checks it against one).
//!
//! **The window never passes a deadline.** [`Scheduler::pop_before`] does
//! not move the window to a bucket that starts after its deadline, and
//! [`Scheduler::peek_time`] does not move it at all: a caller that stops at
//! a deadline and then schedules just past it (a fault API call between
//! two `run_until`s) still finds that bucket ahead of the window instead
//! of funnelling through ordered inserts into `current`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::packet::{NodeId, PortId};
use crate::slab::PacketId;
use crate::time::SimTime;

/// Near-future bucket width in picoseconds (`1 << 16` ≈ 65.5 ns). A power
/// of two so that bucket indexing is a shift, not a division.
pub const BUCKET_WIDTH_PS: u64 = 1 << BUCKET_SHIFT;
const BUCKET_SHIFT: u32 = 16;
/// Number of near-future buckets (the ring spans ≈ 268 µs — several RTTs).
/// A power of two so the ring wrap is a mask.
pub const NUM_BUCKETS: usize = 4096;

/// What happens when an event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are described in the variant docs
pub enum EventKind {
    /// A packet finished propagation (and ingress processing delay) and is
    /// now at `node`, having entered through `port`.
    Arrive {
        node: NodeId,
        port: PortId,
        pkt: PacketId,
    },
    /// Serialization on `(node, port)` finished and somebody has to act on
    /// it: a packet is queued behind the one that just left, or the port
    /// samples its fault state at the last bit. A transmission nobody waits
    /// for never schedules this — the port just remembers the key it would
    /// have had (see the `sim` module docs).
    TxDone { node: NodeId, port: PortId },
    /// A host's protocol stack finished processing an outbound packet
    /// (models the 20 µs host delay); enqueue it at the NIC.
    HostTx { host: NodeId, pkt: PacketId },
    /// A timer set by a host agent fired.
    Timer { host: NodeId, token: u64 },
    /// A PFC pause (`pause == true`) or resume frame arrived at the egress
    /// port `(node, port)`, sent by the downstream ingress.
    Pfc {
        node: NodeId,
        port: PortId,
        pause: bool,
    },
    /// One step of an installed [`crate::FaultPlan`] is due: set `set` on
    /// the link attached at `(node, port)` (every link of switch `node` for
    /// [`FaultSet::SwitchState`]) to the value in `bits`, through the same
    /// immediate setter a caller can use between two `run_until`s (see
    /// [`crate::Simulator::install_faults`]). One event per step,
    /// whichever directions it touches. The step is carried flat, its value
    /// as raw bits, because a [`crate::FaultAction`] is 16 bytes on its own
    /// and would grow every [`Event`] from 32 bytes to 40.
    Fault {
        node: NodeId,
        port: PortId,
        set: FaultSet,
        bits: u64,
    },
}

/// What an [`EventKind::Fault`] sets, and how its `bits` read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSet {
    /// Administrative link state, both directions; `bits != 0` is up.
    LinkState,
    /// Gray-loss probability of the `(node, port)` egress, as
    /// [`f64::to_bits`].
    GrayLoss,
    /// Bit error rate of the `(node, port)` egress, as [`f64::to_bits`].
    Corruption,
    /// Administrative state of every link of the switch; `bits != 0` is up.
    SwitchState,
}

impl EventKind {
    /// Number of event kinds.
    pub const COUNT: usize = 6;
    /// Kind names, indexed by [`EventKind::index`].
    pub const NAMES: [&'static str; EventKind::COUNT] =
        ["arrive", "tx_done", "host_tx", "timer", "pfc", "fault"];

    /// Dense index of this kind (declaration order), for per-kind tallies.
    #[inline]
    pub fn index(&self) -> usize {
        match self {
            EventKind::Arrive { .. } => 0,
            EventKind::TxDone { .. } => 1,
            EventKind::HostTx { .. } => 2,
            EventKind::Timer { .. } => 3,
            EventKind::Pfc { .. } => 4,
            EventKind::Fault { .. } => 5,
        }
    }
}

/// The tie-break among same-time events: `(cause, seq)` packed into one
/// word so an [`Event`] stays 32 bytes. Ordered by `cause` ascending, then
/// `seq` ascending.
///
/// `cause` is kept as the distance `time - cause`, saturating at
/// [`Tie::MAX_DELTA_PS`] (≈ 33.5 µs — beyond every link and host delay the
/// fabrics use). Saturation loses nothing for ordinary events, whose `seq`
/// already orders them by cause; it would only matter for an `Arrive`
/// booked over a link whose propagation-plus-processing delay exceeds the
/// limit, which then ties on `seq` alone. `seq` has [`Tie::SEQ_BITS`] bits
/// (5 × 10¹¹ events; [`Scheduler::draw_seq`] panics past that).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Tie(u64);

impl Tie {
    /// Bits of `seq`.
    pub const SEQ_BITS: u32 = 39;
    /// Largest `time - cause` kept exactly, in picoseconds.
    pub const MAX_DELTA_PS: u64 = (1 << (64 - Tie::SEQ_BITS)) - 1;
    /// Sorts before, or equal to, every tie an event can carry.
    pub const MIN: Tie = Tie(0);
    /// Sorts after every tie an event can carry.
    pub const MAX: Tie = Tie(u64::MAX);

    /// The tie of an event firing at `at`, decided at `cause`, with
    /// insertion sequence `seq`.
    #[inline]
    pub fn new(at: SimTime, cause: SimTime, seq: u64) -> Tie {
        debug_assert!(seq >> Tie::SEQ_BITS == 0);
        // wrapping_sub: a (release-mode-only) past-time event wraps to a
        // huge distance and saturates like any old cause.
        let delta = at.as_ps().wrapping_sub(cause.as_ps());
        // A later cause is a smaller delta and must sort later.
        Tie((Tie::MAX_DELTA_PS.saturating_sub(delta) << Tie::SEQ_BITS) | seq)
    }

    /// The insertion sequence.
    #[inline]
    pub fn seq(self) -> u64 {
        self.0 & ((1 << Tie::SEQ_BITS) - 1)
    }
}

/// An event: a `kind` firing at `time`, with `tie` as the deterministic
/// tie-breaker.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// When the event fires.
    pub time: SimTime,
    /// Deterministic tie-breaker among same-time events.
    pub tie: Tie,
    /// What fires.
    pub kind: EventKind,
}

impl Event {
    /// The full ordering key; unique per event.
    #[inline]
    pub fn key(&self) -> (SimTime, Tie) {
        (self.time, self.tie)
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event on
        // top.
        other.key().cmp(&self.key())
    }
}

/// "No node": end of a bucket list / empty free list.
const NIL: u32 = u32::MAX;
const RING_MASK: usize = NUM_BUCKETS - 1;
const BITMAP_WORDS: usize = NUM_BUCKETS / 64;

/// One arena slot: an event linked into its bucket's list (or, while free,
/// into the free list — `ev` is then stale).
#[derive(Debug, Clone, Copy)]
struct Node {
    ev: Event,
    next: u32,
}

/// Time-ordered event queue (arena calendar; see the module docs).
#[derive(Debug)]
pub struct Scheduler {
    next_seq: u64,
    scheduled: u64,
    len: usize,
    /// Watermark: the time of the last popped event. Scheduling before this
    /// is time travel and trips a debug assertion.
    now: SimTime,
    /// The bucket being drained, ascending by [`Event::key`];
    /// `current[head..]` is still pending.
    current: Vec<Event>,
    head: usize,
    /// Every near-ring event lives here; `heads[slot]` starts the unordered
    /// singly linked list of the events in that bucket.
    arena: Vec<Node>,
    /// LIFO free list through `Node::next`: a slot freed by a drain is the
    /// next one handed out, while it is still in cache.
    free: u32,
    /// Slot `cursor` is the current bucket (drained through `current`, its
    /// list empty); slot `cursor + k` covers times
    /// `[cursor_start + k*W, cursor_start + (k+1)*W)`.
    heads: Box<[u32]>,
    /// Bit `slot` is set iff `heads[slot] != NIL`.
    occupied: [u64; BITMAP_WORDS],
    cursor: usize,
    /// Start (ps) of the current bucket's time range.
    cursor_start: u64,
    /// Events resident in the ring (excluding `current`).
    near: usize,
    /// Events at or beyond the ring's horizon when they were scheduled.
    /// Invariant: its earliest event lies in a bucket after the current one.
    far: BinaryHeap<Event>,
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new()
    }
}

impl Scheduler {
    /// Create an empty scheduler.
    pub fn new() -> Self {
        Scheduler {
            next_seq: 0,
            scheduled: 0,
            len: 0,
            now: SimTime::ZERO,
            current: Vec::new(),
            head: 0,
            arena: Vec::new(),
            free: NIL,
            heads: vec![NIL; NUM_BUCKETS].into_boxed_slice(),
            occupied: [0; BITMAP_WORDS],
            cursor: 0,
            cursor_start: 0,
            near: 0,
            far: BinaryHeap::new(),
        }
    }

    /// Schedule `kind` to fire at absolute time `at`, after everything
    /// already scheduled for that instant (`cause` = the watermark, a fresh
    /// `seq`).
    ///
    /// Debug builds reject time travel: scheduling before the last popped
    /// event's time is always a logic error (the event could never fire in
    /// order) and panics immediately instead of corrupting the run.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let tie = Tie::new(at, self.now, self.draw_seq());
        self.schedule_keyed(at, tie, kind);
    }

    /// Draw the next insertion sequence number without scheduling anything:
    /// the caller builds [`Tie`]s from it for [`Scheduler::schedule_keyed`].
    #[inline]
    pub fn draw_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        assert!(seq >> Tie::SEQ_BITS == 0, "event sequence space exhausted");
        self.next_seq += 1;
        seq
    }

    /// Schedule `kind` at `at` under an explicit tie-break. The key
    /// `(at, tie)` must be unique and must sort after the last popped
    /// event's.
    #[inline]
    pub fn schedule_keyed(&mut self, at: SimTime, tie: Tie, kind: EventKind) {
        debug_assert!(
            at >= self.now,
            "time travel: scheduling an event at {at} but the clock is already at {}",
            self.now
        );
        self.scheduled += 1;
        self.len += 1;
        let ev = Event {
            time: at,
            tie,
            kind,
        };
        // saturating_sub guards the (release-mode-only) past-time case: such
        // events land in `current` and still pop earliest-first.
        let offset = at.as_ps().saturating_sub(self.cursor_start) >> BUCKET_SHIFT;
        if offset == 0 {
            self.insert_current(ev);
        } else if offset < NUM_BUCKETS as u64 {
            let slot = (self.cursor + offset as usize) & RING_MASK;
            let next = self.heads[slot];
            let node = Node { ev, next };
            let idx = if self.free == NIL {
                self.arena.push(node);
                (self.arena.len() - 1) as u32
            } else {
                let idx = self.free;
                self.free = std::mem::replace(&mut self.arena[idx as usize], node).next;
                idx
            };
            self.heads[slot] = idx;
            self.occupied[slot >> 6] |= 1 << (slot & 63);
            self.near += 1;
        } else {
            self.far.push(ev);
        }
    }

    /// Insert into the bucket being drained, in key order. An ordinary
    /// event carries the newest cause and `seq`, so equal and later times —
    /// a burst at one instant, however large — append; only a key below the
    /// bucket's last pays a shift, of one bucket's tail.
    fn insert_current(&mut self, ev: Event) {
        if self.head == self.current.len() {
            // Everything was read: restart the buffer instead of growing it.
            self.current.clear();
            self.head = 0;
        }
        if self.current.last().is_none_or(|last| last.key() < ev.key()) {
            self.current.push(ev);
        } else {
            let at = self.head + self.current[self.head..].partition_point(|e| e.key() < ev.key());
            self.current.insert(at, ev);
        }
    }

    /// Remove and return the earliest event, if its time is `<= deadline`.
    /// Events beyond the deadline stay queued, and the window never moves to
    /// a bucket that starts after `deadline`: whatever the caller schedules
    /// next still finds its own bucket ahead of the window.
    #[inline]
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<Event> {
        loop {
            if let Some(&e) = self.current.get(self.head) {
                if e.time > deadline {
                    return None;
                }
                self.head += 1;
                self.len -= 1;
                self.now = e.time;
                return Some(e);
            }
            if self.len == 0 || !self.advance_window(deadline) {
                return None;
            }
        }
    }

    /// Remove and return the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        self.pop_before(SimTime::MAX)
    }

    /// Ring distance (`1..NUM_BUCKETS`) from the cursor to the first
    /// occupied bucket. Requires `near > 0`; the cursor's own bit is never
    /// set (its list was drained, and `schedule` sends offset 0 to
    /// `current`).
    fn next_occupied(&self) -> u64 {
        debug_assert!(self.near > 0);
        let start = (self.cursor + 1) & RING_MASK;
        let (w0, b0) = (start >> 6, start & 63);
        let mut word = self.occupied[w0] & (!0u64 << b0);
        let mut w = w0;
        while word == 0 {
            // Wraps back to `w0` last, whose low bits are then examined.
            w = (w + 1) % BITMAP_WORDS;
            word = self.occupied[w];
        }
        let slot = (w << 6) + word.trailing_zeros() as usize;
        (slot.wrapping_sub(self.cursor) & RING_MASK) as u64
    }

    /// Buckets from the current one to the next one holding an event: the
    /// first occupied ring bucket or the far heap's earliest bucket,
    /// whichever comes first — the bitmap skip must stop for a far event
    /// that lies between two occupied ring buckets. Requires `len > 0` with
    /// `current` exhausted.
    fn next_step(&self) -> u64 {
        let ring = if self.near > 0 {
            self.next_occupied()
        } else {
            u64::MAX
        };
        let far = self.far.peek().map_or(u64::MAX, |e| {
            (e.time.as_ps() - self.cursor_start) >> BUCKET_SHIFT
        });
        ring.min(far)
    }

    /// Jump the window to the next bucket holding an event — unless that
    /// bucket starts after `deadline`, in which case nothing moves and the
    /// result is `false`. Otherwise the bucket's list and the far events
    /// inside its range are gathered into `current`, sorted once, and the
    /// list's nodes go back on the free list.
    fn advance_window(&mut self, deadline: SimTime) -> bool {
        debug_assert!(self.head == self.current.len() && self.len > 0);
        let step = self.next_step();
        let start = self.cursor_start + (step << BUCKET_SHIFT);
        if start > deadline.as_ps() {
            return false;
        }
        self.cursor = (self.cursor + step as usize) & RING_MASK;
        self.cursor_start = start;
        self.current.clear();
        self.head = 0;
        let mut i = std::mem::replace(&mut self.heads[self.cursor], NIL);
        self.occupied[self.cursor >> 6] &= !(1 << (self.cursor & 63));
        while i != NIL {
            let node = &mut self.arena[i as usize];
            self.current.push(node.ev);
            let next = std::mem::replace(&mut node.next, self.free);
            self.free = i;
            self.near -= 1;
            i = next;
        }
        // Far events whose bucket the window just reached merge here —
        // before anything in this bucket pops — preserving global order.
        let last = start | (BUCKET_WIDTH_PS - 1);
        while self.far.peek().is_some_and(|e| e.time.as_ps() <= last) {
            let ev = self.far.pop().expect("peeked event must pop");
            self.current.push(ev);
        }
        self.current.sort_unstable_by_key(Event::key);
        true
    }

    /// Time of the earliest pending event, if any. Never moves the window;
    /// costs a walk over the first occupied bucket's list when `current` is
    /// exhausted, O(1) otherwise.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(e) = self.current.get(self.head) {
            return Some(e.time);
        }
        let mut best = self.far.peek().map(|e| e.time);
        if self.near > 0 {
            let slot = (self.cursor + self.next_occupied() as usize) & RING_MASK;
            let mut i = self.heads[slot];
            while i != NIL {
                let node = &self.arena[i as usize];
                if best.is_none_or(|b| node.ev.time < b) {
                    best = Some(node.ev.time);
                }
                i = node.next;
            }
        }
        best
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no event is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled.
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// The watermark: time of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Raise the watermark to `t`: the caller has popped everything up to
    /// `t` and will schedule nothing earlier. What it schedules next is then
    /// caused at `t`, not at the last event that happened to pop.
    pub fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(token: u64) -> EventKind {
        EventKind::Timer { host: 0, token }
    }

    fn token_of(e: Event) -> u64 {
        match e.kind {
            EventKind::Timer { token, .. } => token,
            _ => unreachable!(),
        }
    }

    fn drain_tokens(s: &mut Scheduler) -> Vec<u64> {
        std::iter::from_fn(|| s.pop()).map(token_of).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_us(3), timer(3));
        s.schedule(SimTime::from_us(1), timer(1));
        s.schedule(SimTime::from_us(2), timer(2));
        assert_eq!(drain_tokens(&mut s), vec![1, 2, 3]);
    }

    /// 200 000 events at one instant, half of them scheduled *at* that
    /// instant while it is being drained (every host starting at t = 0 does
    /// this): FIFO order holds and the burst costs O(1) per event — a
    /// `current` that shifted on same-time inserts would move ~10^10
    /// entries here.
    #[test]
    fn ties_break_fifo() {
        const N: u64 = 200_000;
        let mut s = Scheduler::new();
        let t = SimTime::from_us(5);
        for token in 0..N / 2 {
            s.schedule(t, timer(token));
        }
        let mut tokens = Vec::with_capacity(N as usize);
        for token in N / 2..N {
            tokens.push(token_of(s.pop().unwrap()));
            s.schedule(t, timer(token));
        }
        tokens.extend(drain_tokens(&mut s));
        assert_eq!(tokens, (0..N).collect::<Vec<_>>());
    }

    #[test]
    fn tie_orders_by_cause_then_seq() {
        let (at, us) = (SimTime::from_us(100), SimTime::from_us);
        // An earlier cause wins whatever the seqs say...
        assert!(Tie::new(at, us(98), 9) < Tie::new(at, us(99), 1));
        // ...the seq decides among equal causes...
        assert!(Tie::new(at, us(99), 1) < Tie::new(at, us(99), 2));
        // ...and causes further back than the limit count as equally old.
        assert!(Tie::new(at, us(10), 2) > Tie::new(at, us(50), 1));
        assert_eq!(Tie::new(at, us(10), 7).seq(), 7);
        assert!(Tie::MIN <= Tie::new(at, SimTime::ZERO, 0) && Tie::new(at, at, 7) < Tie::MAX);
    }

    /// An event booked ahead of its cause pops among its same-time peers
    /// where the cause puts it, not where its (old) seq would.
    #[test]
    fn keyed_event_pops_by_cause_not_by_insertion() {
        let mut s = Scheduler::new();
        let at = SimTime::from_us(10);
        // Booked first, but caused at 9 us.
        let seq = s.draw_seq();
        s.schedule_keyed(at, Tie::new(at, SimTime::from_us(9), seq), timer(2));
        s.schedule(SimTime::from_us(8), timer(0));
        assert_eq!(token_of(s.pop().unwrap()), 0);
        // Scheduled at 8 us for the same instant: the earlier cause.
        s.schedule(at, timer(1));
        s.schedule(SimTime::from_us(9), timer(9));
        assert_eq!(token_of(s.pop().unwrap()), 9);
        // Scheduled at 9 us — the booked event's cause — with a newer seq.
        s.schedule(at, timer(3));
        assert_eq!(drain_tokens(&mut s), vec![1, 2, 3]);
    }

    #[test]
    fn peek_and_len() {
        let mut s = Scheduler::new();
        assert!(s.is_empty());
        assert_eq!(s.peek_time(), None);
        s.schedule(SimTime::from_ms(1), timer(0));
        s.schedule(SimTime::from_us(1), timer(1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.peek_time(), Some(SimTime::from_us(1)));
        assert_eq!(s.total_scheduled(), 2);
    }

    #[test]
    fn far_future_events_spill_back_in_order() {
        let mut s = Scheduler::new();
        // Far beyond the ring horizon (~268 us): a 10 ms timer...
        s.schedule(SimTime::from_ms(10), timer(2));
        // ...a same-instant tie scheduled later must still fire after it...
        s.schedule(SimTime::from_ms(10), timer(3));
        // ...and near events fire first.
        s.schedule(SimTime::from_us(7), timer(1));
        assert_eq!(drain_tokens(&mut s), vec![1, 2, 3]);
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_us(10), timer(0));
        let e = s.pop().unwrap();
        assert_eq!(e.time, SimTime::from_us(10));
        // Scheduling "now" (same instant as the popped event) is legal and
        // fires next, before later events.
        s.schedule(SimTime::from_ms(50), timer(9));
        s.schedule(SimTime::from_us(10), timer(1));
        s.schedule(SimTime::from_us(11), timer(2));
        assert_eq!(drain_tokens(&mut s), vec![1, 2, 9]);
    }

    #[test]
    fn pop_before_respects_deadline_and_preserves_state() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_us(1), timer(1));
        s.schedule(SimTime::from_us(100), timer(2));
        assert_eq!(
            s.pop_before(SimTime::from_us(50)).map(|e| e.time),
            Some(SimTime::from_us(1))
        );
        assert!(s.pop_before(SimTime::from_us(50)).is_none());
        assert_eq!(s.len(), 1);
        // The deferred event is intact and pops once the deadline allows.
        let e = s.pop_before(SimTime::from_us(100)).unwrap();
        assert_eq!(e.time, SimTime::from_us(100));
        assert!(s.is_empty());
    }

    #[test]
    fn window_jumps_over_long_idle_gaps() {
        let mut s = Scheduler::new();
        // Two events separated by ~1 s of dead time: the window must jump,
        // not crawl bucket by bucket.
        s.schedule(SimTime::from_us(1), timer(1));
        s.schedule(SimTime::from_secs(1), timer(2));
        assert_eq!(drain_tokens(&mut s), vec![1, 2]);
        // After the jump, nearby scheduling still works.
        s.schedule(SimTime::from_secs(1), timer(3));
        assert_eq!(drain_tokens(&mut s), vec![3]);
    }

    /// A far-heap event whose bucket lies between two occupied ring
    /// buckets: the occupancy-bitmap skip must stop for it.
    #[test]
    fn bitmap_skip_stops_for_a_far_event_between_ring_buckets() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_us(300), timer(2)); // beyond the horizon: far
        s.schedule(SimTime::from_us(100), timer(1));
        assert_eq!(s.pop().map(|e| e.time), Some(SimTime::from_us(100)));
        // From 100 us, 350 us is inside the ring — past the far event.
        s.schedule(SimTime::from_us(350), timer(3));
        assert_eq!(s.arena.len(), 1, "350 us reuses the slot 100 us freed");
        assert_eq!(s.peek_time(), Some(SimTime::from_us(300)));
        assert_eq!(drain_tokens(&mut s), vec![2, 3]);
    }

    /// `pop_before` must not move the window past its deadline: what the
    /// caller schedules next (here 100 us, before the pending 200 us) still
    /// goes to its own ring bucket, not into the sorted `current` buffer.
    #[test]
    fn deadline_bounded_pop_leaves_the_window_behind_the_deadline() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_us(200), timer(2));
        assert!(s.pop_before(SimTime::from_us(50)).is_none());
        assert_eq!(s.peek_time(), Some(SimTime::from_us(200)));
        s.schedule(SimTime::from_us(100), timer(1));
        assert_eq!(s.near, 2, "both events are ring residents");
        assert_eq!(drain_tokens(&mut s), vec![1, 2]);
    }

    /// Arena slots are reused: after any interleaving the arena holds no
    /// more nodes than the peak number of simultaneously pending near-ring
    /// events — nothing leaks across drains, bitmap skips or far jumps.
    #[test]
    fn arena_is_bounded_by_peak_ring_population() {
        let mut s = Scheduler::new();
        let mut rng = crate::rng::DetRng::new(5, 5);
        let horizon = BUCKET_WIDTH_PS * NUM_BUCKETS as u64;
        let mut peak = 0;
        for token in 0..60_000u64 {
            // Bursts, then drains down to empty (idle gaps: far jumps).
            let grow = (token / 3_000).is_multiple_of(2);
            if grow || s.is_empty() {
                let delta = match rng.gen_range(3) {
                    0 => rng.gen_range(20_000_000) as u64,
                    1 => rng.gen_range(horizon as u32) as u64,
                    _ => 5 * horizon + rng.gen_range(1_000_000) as u64,
                };
                s.schedule(s.now() + SimTime::from_ps(delta), timer(token));
            } else {
                s.pop();
            }
            peak = peak.max(s.near);
            assert!(s.arena.len() <= peak, "{} > {peak}", s.arena.len());
        }
        assert!(peak > 1_000, "never built a ring population: {peak}");
        assert_eq!(s.arena.len(), peak, "the peak itself needs every slot");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "time travel")]
    fn scheduling_into_the_past_panics_in_debug() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_us(10), timer(0));
        s.pop();
        // The clock watermark is now 10 us; 5 us is the past.
        s.schedule(SimTime::from_us(5), timer(1));
    }

    #[test]
    fn event_is_compact() {
        // The point of the packet slab: events are a few words, not a
        // packet. Guard against regressions re-inlining payloads.
        assert_eq!(std::mem::size_of::<Event>(), 32);
    }
}
