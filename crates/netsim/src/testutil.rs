//! Minimal traffic agents for tests and examples.
//!
//! These are *not* real transports (no congestion control, no reliability) —
//! the `transport` crate provides those. They exist so that structural
//! tests (topology reachability, link failure behaviour, queue accounting)
//! can inject and count packets without pulling in a full TCP stack.

use std::cell::RefCell;
use std::rc::Rc;

use crate::agent::{Agent, Ctx};
use crate::packet::{FlowKey, HostId, Packet, Proto, MSS};
use crate::time::SimTime;

/// Shared counters written by a [`CountingSink`] / [`Blaster`].
#[derive(Debug, Default)]
pub struct RxLog {
    /// Packets received, in arrival order, as `(time, flow, seq)`.
    pub arrivals: Vec<(SimTime, u32, u64)>,
}

impl RxLog {
    /// New, shareable log.
    pub fn shared() -> Rc<RefCell<RxLog>> {
        Rc::new(RefCell::new(RxLog::default()))
    }
}

/// Sends a fixed burst of MSS-sized packets to one destination at start,
/// optionally spaced by a fixed gap, and logs everything it receives.
pub struct Blaster {
    /// Destination host.
    pub dst: HostId,
    /// Number of packets to send.
    pub count: u32,
    /// Gap between consecutive sends (`SimTime::ZERO` = back-to-back).
    pub gap: SimTime,
    /// Flow id stamped on packets.
    pub flow: u32,
    /// Source port (varies the ECMP hash).
    pub sport: u16,
    /// V-field stamped on packets.
    pub vfield: u8,
    /// Arrival log.
    pub log: Rc<RefCell<RxLog>>,
    sent: u32,
}

impl Blaster {
    /// A blaster sending `count` packets to `dst`, logging into `log`.
    pub fn new(dst: HostId, count: u32, log: Rc<RefCell<RxLog>>) -> Self {
        Blaster {
            dst,
            count,
            gap: SimTime::ZERO,
            flow: 0,
            sport: 1,
            vfield: 0,
            log,
            sent: 0,
        }
    }

    fn send_one(&mut self, ctx: &mut Ctx<'_>) {
        let key = FlowKey {
            src: ctx.host() as u16,
            dst: self.dst as u16,
            sport: self.sport,
            dport: 7,
            proto: Proto::Tcp,
        };
        let pkt = Packet::data(
            self.flow,
            key,
            self.vfield,
            self.sent as u64 * MSS as u64,
            MSS,
            ctx.now(),
        );
        ctx.send(pkt);
        self.sent += 1;
    }
}

impl Agent for Blaster {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.count == 0 {
            return;
        }
        if self.gap == SimTime::ZERO {
            for _ in 0..self.count {
                self.send_one(ctx);
            }
        } else {
            self.send_one(ctx);
            if self.sent < self.count {
                ctx.set_timer(ctx.now() + self.gap, 0);
            }
        }
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        self.log
            .borrow_mut()
            .arrivals
            .push((ctx.now(), pkt.flow, pkt.seq as u64));
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        self.send_one(ctx);
        if self.sent < self.count {
            ctx.set_timer(ctx.now() + self.gap, 0);
        }
    }
}

/// A standalone harness for unit-testing components that need a [`Ctx`]
/// without spinning up a whole simulator: it owns a scheduler, RNG, and
/// recorder, hands out contexts at chosen instants, and lets the test
/// inspect what was sent and which timers were armed.
pub struct CtxHarness {
    sched: crate::event::Scheduler,
    packets: crate::slab::PacketSlab,
    rng: crate::rng::DetRng,
    recorder: crate::record::Recorder,
    /// The simulated instant handed to the next [`CtxHarness::ctx`] call.
    pub now: SimTime,
}

impl CtxHarness {
    /// New harness with the given RNG seed; the clock starts at zero.
    pub fn new(seed: u64) -> Self {
        CtxHarness {
            sched: crate::event::Scheduler::new(),
            packets: crate::slab::PacketSlab::new(),
            rng: crate::rng::DetRng::new(seed, 0x7E57),
            recorder: crate::record::Recorder::new(),
            now: SimTime::ZERO,
        }
    }

    /// A context for host 0 at the current `now` (zero TX stack delay, so
    /// sent packets are observable immediately).
    pub fn ctx(&mut self) -> Ctx<'_> {
        Ctx::new(
            self.now,
            0,
            SimTime::ZERO,
            &mut self.sched,
            &mut self.packets,
            &mut self.rng,
            &mut self.recorder,
        )
    }

    /// Drain and return everything scheduled so far as
    /// `(fire_time, sent_packet_or_timer_token)` pairs, splitting packets
    /// from timers. Sent packets are pulled back out of the harness slab.
    pub fn drain(&mut self) -> (Vec<Packet>, Vec<(SimTime, u64)>) {
        let mut pkts = Vec::new();
        let mut timers = Vec::new();
        while let Some(ev) = self.sched.pop() {
            match ev.kind {
                crate::event::EventKind::HostTx { pkt, .. } => {
                    pkts.push(self.packets.remove(pkt));
                }
                crate::event::EventKind::Timer { token, .. } => timers.push((ev.time, token)),
                other => panic!("unexpected event in harness: {other:?}"),
            }
        }
        (pkts, timers)
    }

    /// The measurement recorder (register flows before completing them).
    pub fn recorder_mut(&mut self) -> &mut crate::record::Recorder {
        &mut self.recorder
    }

    /// Read access to the recorder.
    pub fn recorder(&self) -> &crate::record::Recorder {
        &self.recorder
    }
}

/// Pure receiver: logs arrivals, never sends.
pub struct CountingSink {
    /// Arrival log.
    pub log: Rc<RefCell<RxLog>>,
}

impl Agent for CountingSink {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        self.log
            .borrow_mut()
            .arrivals
            .push((ctx.now(), pkt.flow, pkt.seq as u64));
    }
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::HashConfig;
    use crate::sim::{LinkSpec, Simulator, SwitchConfig};
    use crate::switch::RoutingTable;

    #[test]
    fn paced_blaster_spaces_packets() {
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
        let mut b = Blaster::new(h1, 3, RxLog::shared());
        b.gap = SimTime::from_us(100);
        sim.set_agent(h0, Box::new(b));
        sim.set_agent(h1, Box::new(CountingSink { log: log.clone() }));
        sim.run_to_quiescence();
        let log = log.borrow();
        assert_eq!(log.arrivals.len(), 3);
        let dt = log.arrivals[1].0 - log.arrivals[0].0;
        assert_eq!(dt, SimTime::from_us(100));
    }
}
