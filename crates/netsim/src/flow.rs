//! Flow descriptions, shared between workload generators and transports.
//!
//! A [`FlowSpec`] is the workload layer's description of one flow: who
//! sends how many bytes to whom, starting when. The experiment layer
//! registers all specs with the [`crate::Recorder`] up front; the
//! `transport` crate turns each spec into a live TCP/UDP connection at its
//! start time.

use crate::packet::{FlowId, FlowKey, HostId, Proto};
use crate::record::FlowRecord;
use crate::time::SimTime;

/// One flow to be run in an experiment.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Globally unique, dense id (0..n, assigned by the workload).
    pub id: FlowId,
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Application bytes to transfer. For unbounded UDP sources this is the
    /// cap (use `u64::MAX` for "until the run ends").
    pub bytes: u64,
    /// When the flow arrives at the sender.
    pub start: SimTime,
    /// Partition-aggregate job id, if this flow is part of one.
    pub job: Option<u32>,
    /// Transport protocol.
    pub proto: Proto,
    /// For UDP: the constant bit rate of the source. Ignored for TCP.
    pub udp_rate_bps: u64,
    /// For UDP: re-draw the V-field every this many datagrams (paper
    /// §3.4.3, "FlowBender beyond TCP": burst-level spraying for
    /// reorder-tolerant transports). 0 = never (pinned, the hotspot
    /// behaviour).
    pub udp_spray_every: u64,
    /// Initial V-field hint for the transport's path controller. 0 for
    /// ordinary flows; replication schemes pin their duplicates to other
    /// values so a replica hashes onto a different path than its primary.
    pub vhint: u8,
    /// When this flow is a replica, the id of the flow it duplicates.
    /// Replicas inherit the primary's 5-tuple (see [`FlowSpec::key`]) so
    /// the *only* routing difference between the copies is the V-field.
    pub clone_of: Option<FlowId>,
}

impl FlowSpec {
    /// A TCP flow of `bytes` from `src` to `dst` starting at `start`.
    pub fn tcp(id: FlowId, src: HostId, dst: HostId, bytes: u64, start: SimTime) -> Self {
        assert_ne!(src, dst, "flow {id}: src == dst");
        assert!(bytes > 0, "flow {id}: empty flow");
        FlowSpec {
            id,
            src,
            dst,
            bytes,
            start,
            job: None,
            proto: Proto::Tcp,
            udp_rate_bps: 0,
            udp_spray_every: 0,
            vhint: 0,
            clone_of: None,
        }
    }

    /// A rate-limited UDP flow (the §4.3.1 hotspot source).
    pub fn udp(id: FlowId, src: HostId, dst: HostId, rate_bps: u64, start: SimTime) -> Self {
        assert_ne!(src, dst, "flow {id}: src == dst");
        assert!(rate_bps > 0, "flow {id}: zero-rate UDP");
        FlowSpec {
            id,
            src,
            dst,
            bytes: u64::MAX,
            start,
            job: None,
            proto: Proto::Udp,
            udp_rate_bps: rate_bps,
            udp_spray_every: 0,
            vhint: 0,
            clone_of: None,
        }
    }

    /// Tag this flow as part of partition-aggregate job `job`.
    pub fn with_job(mut self, job: u32) -> Self {
        self.job = Some(job);
        self
    }

    /// For UDP flows: re-draw the V-field every `every` datagrams
    /// (§3.4.3's burst-level spraying; `every = 1` is per-packet).
    pub fn with_udp_spray(mut self, every: u64) -> Self {
        assert_eq!(self.proto, Proto::Udp, "spraying applies to UDP flows");
        self.udp_spray_every = every;
        self
    }

    /// A RepFlow-style replica of this flow: same endpoints, same bytes,
    /// same start — and, via [`FlowSpec::key`], the *same 5-tuple* — but
    /// pinned to V-field `v`, so the fabric hashes the two copies
    /// independently through the V-field alone.
    pub fn replica(&self, id: FlowId, v: u8) -> FlowSpec {
        assert_eq!(self.proto, Proto::Tcp, "only TCP flows replicate");
        assert!(self.clone_of.is_none(), "replicas don't replicate");
        FlowSpec {
            id,
            vhint: v,
            clone_of: Some(self.id),
            job: self.job,
            ..self.clone()
        }
    }

    /// The 5-tuple this flow's packets carry. Ports are derived from the
    /// flow id so every flow gets distinct ECMP hash entropy, like distinct
    /// ephemeral ports would in a real host. Replicas derive ports from
    /// their *primary's* id: both copies share the 5-tuple and differ only
    /// in the V-field, which is the whole replication mechanism.
    ///
    /// # Panics
    /// If a host id does not fit the key's 16-bit address (hosts are
    /// numbered first, so every fabric up to `k = 64` fits).
    pub fn key(&self) -> FlowKey {
        let hash_id = self.clone_of.unwrap_or(self.id);
        let addr = |host: HostId| {
            u16::try_from(host)
                .unwrap_or_else(|_| panic!("flow {}: host {host} has no 16-bit address", self.id))
        };
        FlowKey {
            src: addr(self.src),
            dst: addr(self.dst),
            sport: 1024 + (hash_id % 60_000) as u16,
            dport: 9_000 + (hash_id / 60_000) as u16,
            proto: self.proto,
        }
    }

    /// The initial (not-yet-finished) recorder entry for this flow.
    pub fn record(&self) -> FlowRecord {
        FlowRecord {
            flow: self.id,
            src: self.src,
            dst: self.dst,
            bytes: self.bytes,
            start: self.start,
            end: SimTime::MAX,
            job: self.job,
            proto: self.proto,
        }
    }
}

/// Register every spec with the recorder (specs must be sorted by id and
/// dense from 0 — workload generators guarantee this).
pub fn register_flows(recorder: &mut crate::record::Recorder, specs: &[FlowSpec]) {
    recorder.reserve_flows(specs.len());
    for s in specs {
        recorder.flow_started(s.record());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Recorder;

    #[test]
    fn tcp_spec_key_is_stable_and_distinct() {
        let a = FlowSpec::tcp(0, 1, 2, 1000, SimTime::ZERO);
        let b = FlowSpec::tcp(1, 1, 2, 1000, SimTime::ZERO);
        assert_eq!(a.key(), a.key());
        assert_ne!(a.key(), b.key());
        assert_eq!(a.key().proto, Proto::Tcp);
    }

    #[test]
    fn udp_spec_is_unbounded() {
        let u = FlowSpec::udp(3, 1, 2, 6_000_000_000, SimTime::from_ms(1));
        assert_eq!(u.bytes, u64::MAX);
        assert_eq!(u.udp_rate_bps, 6_000_000_000);
        assert_eq!(u.key().proto, Proto::Udp);
    }

    #[test]
    fn register_flows_populates_recorder() {
        let specs = vec![
            FlowSpec::tcp(0, 1, 2, 100, SimTime::ZERO),
            FlowSpec::tcp(1, 2, 3, 200, SimTime::from_us(5)).with_job(7),
        ];
        let mut rec = Recorder::new();
        register_flows(&mut rec, &specs);
        assert_eq!(rec.flows().len(), 2);
        assert_eq!(rec.flows()[1].job, Some(7));
        assert_eq!(rec.completed_count(), 0);
    }

    #[test]
    #[should_panic]
    fn self_flow_rejected() {
        FlowSpec::tcp(0, 5, 5, 100, SimTime::ZERO);
    }

    #[test]
    fn replica_shares_the_primary_tuple_but_not_its_v() {
        let primary = FlowSpec::tcp(3, 1, 2, 50_000, SimTime::from_us(7)).with_job(9);
        let rep = primary.replica(10, 1);
        assert_eq!(
            rep.key(),
            primary.key(),
            "replication must not change the 5-tuple"
        );
        assert_eq!(rep.id, 10);
        assert_eq!(rep.clone_of, Some(3));
        assert_eq!(rep.vhint, 1);
        assert_eq!(rep.bytes, primary.bytes);
        assert_eq!(rep.start, primary.start);
        assert_eq!(rep.job, Some(9));
        assert_eq!(primary.vhint, 0);
    }

    #[test]
    fn host_ids_up_to_sixteen_bits_are_addresses() {
        let top = u16::MAX as HostId;
        let key = FlowSpec::tcp(0, top, top - 1, 100, SimTime::ZERO).key();
        assert_eq!((key.src, key.dst), (u16::MAX, u16::MAX - 1));
    }

    #[test]
    #[should_panic(expected = "flow 4: host 65536 has no 16-bit address")]
    fn host_ids_past_sixteen_bits_are_refused() {
        FlowSpec::tcp(4, 0, 1 << 16, 100, SimTime::ZERO).key();
    }

    #[test]
    #[should_panic]
    fn replicas_do_not_replicate() {
        let primary = FlowSpec::tcp(0, 1, 2, 100, SimTime::ZERO);
        primary.replica(1, 1).replica(2, 2);
    }
}
