//! Switch models: forwarding schemes, routing tables, and PFC state.
//!
//! The paper compares four load-balancing designs. Three of them live in the
//! switch (the fourth, FlowBender, is pure end-host logic riding on the
//! [`ForwardingScheme::EcmpHash`] switch with the V-field enabled):
//!
//! * **ECMP** — static hash of header fields picks one of the equal-cost
//!   egress ports; same flow, same path, forever.
//! * **RPS** (Random Packet Spraying) — every packet independently picks a
//!   uniformly random eligible egress port.
//! * **DeTail-style adaptive** — every packet picks the *least congested*
//!   eligible egress port (full comparison across all candidates, the
//!   paper's "best-possible DeTail"), combined with PFC for losslessness.
//!
//! Routing tables map destination host → the set of eligible egress ports,
//! as computed by the `topology` crate.
//!
//! The configs here carry only what a scheme varies. What the paper fixes
//! is a constant: a flowcut boundary re-routes only off an egress holding
//! more than one [`MTU`], and the feedback layer paces CNs at
//! [`CN_MIN_GAP`] per (port, flow) and delivers them [`CN_DELAY`] after
//! emission. (The switch's 1 µs ingress delay lives in `sim`.)

use crate::hashing::{DetHashMap, EcmpHasher};
use crate::packet::{FlowId, Packet, PortId, MTU};
use crate::rng::DetRng;
use crate::time::SimTime;

/// How a switch picks among equal-cost egress ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardingScheme {
    /// Hash-based static flow-to-path assignment (ECMP; also carries
    /// FlowBender traffic when the hasher covers the V-field).
    EcmpHash,
    /// Per-packet uniform random spraying (RPS).
    Rps,
    /// Per-packet least-queued adaptive routing (DeTail's load balancer).
    /// Locally failed links are excluded (a switch knows its own link
    /// state); remote failures are invisible, matching the paper's
    /// critique of link-level schemes.
    Adaptive,
    /// Flowlet switching (LetFlow-style): a flow keeps its port while its
    /// packets arrive within `gap` of each other; an idle gap larger than
    /// that starts a new flowlet on a uniformly random eligible port.
    /// Reordering is avoided as long as `gap` exceeds the path-delay
    /// difference. A contemporary (CONGA/LetFlow) baseline beyond the
    /// paper's four schemes.
    Flowlet {
        /// Inactivity gap that ends a flowlet.
        gap: SimTime,
    },
    /// Flowcut switching (Bonato et al.): a flow is pinned to one egress
    /// until a *flowcut boundary* — an idle gap long enough that every
    /// in-flight packet of the flow has drained ahead — and only at a
    /// boundary may the switch re-route, adaptively, to the least-queued
    /// eligible port. Unlike [`ForwardingScheme::Flowlet`], the boundary
    /// re-route is load-triggered (an uncongested pinned egress holds its
    /// path) and adaptive rather than random, so the scheme combines
    /// in-order delivery with congestion-aware path selection.
    Flowcut {
        /// Detection and re-route parameters.
        cfg: FlowcutConfig,
    },
}

/// Parameters of switch-side flowcut switching
/// ([`ForwardingScheme::Flowcut`]). The boundary load trigger is fixed:
/// a flow leaves its pinned egress only if that queue holds more than one
/// [`MTU`], so a quiet path is never abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowcutConfig {
    /// Idle gap that ends a flowcut. Re-routing is only permitted after
    /// the flow has been silent this long at the switch, which is the
    /// in-order safety condition: choose it larger than the fabric's
    /// path-delay skew and every packet of the previous flowcut has
    /// drained before the next one can take a different path.
    pub gap: SimTime,
}

impl FlowcutConfig {
    /// Flowcut detection with idle gap `gap`.
    pub fn new(gap: SimTime) -> Self {
        FlowcutConfig { gap }
    }

    /// Validate invariants.
    ///
    /// # Panics
    /// On out-of-range values.
    pub fn validate(&self) {
        assert!(self.gap.as_ps() > 0, "flowcut gap must be positive");
    }
}

/// What [`PinTable::select`] decided for one packet (for flowcut switching
/// the simulator turns these into counters and trace events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowcutDecision {
    /// First packet of a flow at this switch (or its pinned port became
    /// unusable): a new pin started.
    Start,
    /// Within the gap: the packet followed the pinned egress.
    Pinned,
    /// Boundary reached, but the pinned egress was kept (load below the
    /// trigger, or it was still the boundary policy's choice).
    Held,
    /// Boundary reached and the flow moved to a different egress.
    Rerouted,
}

/// Per-switch gap-pinned table: flow hash → (last packet seen, pinned
/// port) — the one mechanism behind both [`ForwardingScheme::Flowlet`] and
/// [`ForwardingScheme::Flowcut`], which differ only in which ports count
/// as usable and in what happens at a boundary (flowlet is flowcut with no
/// load trigger and a random pick).
///
/// Entries are never evicted — at simulation scale the table stays small,
/// and evicting one would turn a held boundary into a fresh start. The
/// table is driven purely by the switch's local arrival order. Backed by
/// a [`DetHashMap`]: the lookup runs once per packet, where SipHash would
/// dominate the whole selection.
#[derive(Debug, Default)]
pub struct PinTable {
    table: DetHashMap<u64, (SimTime, PortId)>,
}

impl PinTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pick the egress port for a packet of flow `flow_hash` arriving at
    /// `now`. While the pinned port is `usable` and packets keep arriving
    /// within `gap` of each other the pin is authoritative (packets of the
    /// flow may still be in flight on it; moving now could overtake them).
    /// Otherwise `boundary` chooses: it gets `Some(pinned)` at an idle-gap
    /// boundary (and may keep it), `None` for a flow's first packet or
    /// when the pinned port became unusable (routing change / local link
    /// death).
    pub fn select(
        &mut self,
        now: SimTime,
        gap: SimTime,
        flow_hash: u64,
        usable: impl Fn(PortId) -> bool,
        boundary: impl FnOnce(Option<PortId>) -> PortId,
    ) -> (PortId, FlowcutDecision) {
        match self.table.get_mut(&flow_hash) {
            Some((last, port)) if usable(*port) => {
                let idle = now.saturating_sub(*last);
                *last = now;
                if idle <= gap {
                    return (*port, FlowcutDecision::Pinned);
                }
                let next = boundary(Some(*port));
                let decision = if next == *port {
                    FlowcutDecision::Held
                } else {
                    FlowcutDecision::Rerouted
                };
                *port = next;
                (next, decision)
            }
            _ => {
                let port = boundary(None);
                self.table.insert(flow_hash, (now, port));
                (port, FlowcutDecision::Start)
            }
        }
    }

    /// Flowlet switching (LetFlow): any eligible port is usable, and every
    /// boundary re-draws uniformly at random.
    pub fn flowlet(
        &mut self,
        now: SimTime,
        gap: SimTime,
        flow_hash: u64,
        eligible: &[PortId],
        rng: &mut DetRng,
    ) -> PortId {
        debug_assert!(!eligible.is_empty());
        let usable = |p| eligible.contains(&p);
        self.select(now, gap, flow_hash, usable, |_| {
            eligible[rng.gen_index(eligible.len())]
        })
        .0
    }

    /// Flowcut switching: a pinned port must also be locally up; at an
    /// idle-gap boundary a pinned egress holding at most one [`MTU`] is
    /// kept, and every other boundary takes the least-queued live eligible
    /// port.
    #[allow(clippy::too_many_arguments)]
    pub fn flowcut(
        &mut self,
        now: SimTime,
        cfg: FlowcutConfig,
        flow_hash: u64,
        eligible: &[PortId],
        rng: &mut DetRng,
        queue_bytes: impl Fn(PortId) -> u64,
        link_up: impl Fn(PortId) -> bool,
    ) -> (PortId, FlowcutDecision) {
        debug_assert!(!eligible.is_empty());
        let usable = |p| eligible.contains(&p) && link_up(p);
        self.select(now, cfg.gap, flow_hash, usable, |pinned| match pinned {
            Some(p) if queue_bytes(p) <= MTU as u64 => p,
            _ => adaptive_pick(eligible, rng, &queue_bytes, &link_up),
        })
    }

    /// Number of tracked flows (diagnostics).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True if no flow is tracked yet.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

/// PFC (IEEE 802.1Qbb priority flow control) thresholds, in bytes of
/// per-ingress buffered data. The paper's DeTail configuration pauses at
/// 20 KB and resumes at 10 KB (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PfcConfig {
    /// Send PAUSE upstream when per-ingress occupancy exceeds this.
    pub pause_threshold: u64,
    /// Send RESUME when occupancy falls back below this.
    pub resume_threshold: u64,
}

impl PfcConfig {
    /// The paper's DeTail setting: pause at 20 KB, resume at 10 KB.
    pub fn detail_defaults() -> Self {
        PfcConfig {
            pause_threshold: 20_000,
            resume_threshold: 10_000,
        }
    }
}

/// Minimum spacing between two CNs per (egress port, flow): one
/// outstanding notification per RTT (~100 µs), so a congested queue can't
/// storm the sender.
pub const CN_MIN_GAP: SimTime = SimTime::from_us(100);

/// Delivery latency of a CN back to its source host. A constant (the CN
/// skips data queues, like a priority-queued control frame) so feedback
/// timing is independent of fabric load: roughly the reverse-path wire +
/// host-RX-stack time, and several times faster than the ~86 µs
/// end-to-end echo it pre-empts.
pub const CN_DELAY: SimTime = SimTime::from_us(20);

/// Switch-assisted feedback: opt-in INT per-hop telemetry stamping and
/// switch-generated early congestion notifications (CN), the P4-style
/// fast-feedback layer. Entirely off by default — a fabric without a
/// `FeedbackConfig` forwards byte-identically to one that predates it.
/// CNs are paced by [`CN_MIN_GAP`] and arrive [`CN_DELAY`] after emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedbackConfig {
    /// Stamp an [`crate::IntHop`] (node, egress port, queue bytes, ECN
    /// state) into every forwarded packet's INT stack.
    pub int_stamp: bool,
    /// Emit a CN packet back to the sender when the egress queue exceeds
    /// this many bytes at enqueue; `None` disables CN generation.
    pub cn_threshold: Option<u64>,
}

impl FeedbackConfig {
    /// INT stamping only: per-hop telemetry, no switch-generated packets.
    pub fn int_only() -> Self {
        FeedbackConfig {
            int_stamp: true,
            cn_threshold: None,
        }
    }

    /// CN generation at `threshold` bytes of egress queue.
    pub fn cn(threshold: u64) -> Self {
        FeedbackConfig {
            int_stamp: false,
            cn_threshold: Some(threshold),
        }
    }

    /// Validate invariants.
    ///
    /// # Panics
    /// On out-of-range values.
    pub fn validate(&self) {
        if let Some(t) = self.cn_threshold {
            assert!(t > 0, "CN threshold must be positive");
        }
    }
}

/// Per-switch CN pacing state: at most one notification per
/// (egress port, flow) per [`CN_MIN_GAP`].
///
/// Pure bookkeeping (no simulator types beyond ids and time), so the
/// "never more than one outstanding CN per (port, flow) per gap"
/// guarantee is property-testable in isolation.
#[derive(Debug, Default)]
pub struct CnLimiter {
    /// (egress port, flow) → earliest time the next CN may be emitted.
    next_allowed: DetHashMap<(PortId, FlowId), SimTime>,
}

impl CnLimiter {
    /// Create an empty limiter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a CN may be emitted at `now` for `(port, flow)`. When it
    /// may, the emission is registered and the next one is blocked until
    /// `now + CN_MIN_GAP`.
    pub fn allow(&mut self, now: SimTime, port: PortId, flow: FlowId) -> bool {
        match self.next_allowed.get_mut(&(port, flow)) {
            Some(next) if now < *next => false,
            Some(next) => {
                *next = now + CN_MIN_GAP;
                true
            }
            None => {
                self.next_allowed.insert((port, flow), now + CN_MIN_GAP);
                true
            }
        }
    }

    /// Number of (port, flow) pairs tracked (diagnostics).
    pub fn len(&self) -> usize {
        self.next_allowed.len()
    }

    /// True if no pair is tracked yet.
    pub fn is_empty(&self) -> bool {
        self.next_allowed.is_empty()
    }
}

/// A switch's multipath routing table: destination host → port set.
///
/// `eligible(dst)` returns the egress ports on which the destination host
/// is reachable; `weights(dst)` returns matching WCMP weights (empty =
/// equal cost). Real switches implement WCMP by replicating ECMP table
/// entries in proportion to the weights — same hash engine, uneven
/// shares — which is exactly how [`crate::hashing::EcmpHasher`] consumes
/// them.
///
/// A switch has few *distinct* port sets (a fat-tree switch at most one per
/// port plus "all uplinks"), so the table stores each set once and a dense
/// 2-byte set id per destination (host ids are dense, `0..n_hosts`). A
/// topology builder registers each set with [`RoutingTable::add_set`] and
/// points destinations at it with [`RoutingTable::assign`];
/// [`RoutingTable::set`] does both for one destination (no de-duplication:
/// searching for an equal set on every call costs more than it saves).
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    /// Index into `sets` per destination; set 0 is empty (unreachable).
    set_of: Vec<u16>,
    sets: Vec<PortSet>,
}

/// Handle of a port set registered in one [`RoutingTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortSetId(u16);

#[derive(Debug, Clone, Default)]
struct PortSet {
    ports: Vec<PortId>,
    /// Parallel to `ports`; empty = equal weights.
    weights: Vec<u32>,
}

impl RoutingTable {
    /// Build an empty table for `n_hosts` destinations.
    pub fn new(n_hosts: usize) -> Self {
        RoutingTable {
            set_of: vec![0; n_hosts],
            sets: vec![PortSet::default()],
        }
    }

    /// Register an equal-cost port set.
    pub fn add_set(&mut self, ports: Vec<PortId>) -> PortSetId {
        self.push_set(PortSet {
            ports,
            weights: Vec::new(),
        })
    }

    /// Register a port set with WCMP weights (§4.3.1's weighted-cost
    /// multipathing). Zero-weight ports are legal (they are never
    /// selected) but at least one weight must be positive.
    pub fn add_weighted_set(&mut self, ports: Vec<PortId>, weights: Vec<u32>) -> PortSetId {
        assert_eq!(ports.len(), weights.len(), "weights must match ports");
        assert!(weights.iter().any(|&w| w > 0), "all-zero WCMP weights");
        self.push_set(PortSet { ports, weights })
    }

    fn push_set(&mut self, set: PortSet) -> PortSetId {
        let id = u16::try_from(self.sets.len()).expect("more than 65535 port sets in one table");
        self.sets.push(set);
        PortSetId(id)
    }

    /// Route `dst` over a set registered in this table.
    pub fn assign(&mut self, dst: u32, set: PortSetId) {
        assert!((set.0 as usize) < self.sets.len(), "foreign port set id");
        self.set_of[dst as usize] = set.0;
    }

    /// Set the eligible egress ports towards `dst` (equal-cost).
    pub fn set(&mut self, dst: u32, ports: Vec<PortId>) {
        let id = self.add_set(ports);
        self.assign(dst, id);
    }

    #[inline]
    fn set_for(&self, dst: u32) -> &PortSet {
        &self.sets[self.set_of[dst as usize] as usize]
    }

    /// Eligible egress ports towards `dst`. Empty means unreachable
    /// (a routing bug — the simulator treats it as a hard error).
    #[inline]
    pub fn eligible(&self, dst: u32) -> &[PortId] {
        &self.set_for(dst).ports
    }

    /// WCMP weights towards `dst`; empty slice = equal cost.
    #[inline]
    pub fn weights(&self, dst: u32) -> &[u32] {
        &self.set_for(dst).weights
    }

    /// Number of destinations this table covers.
    pub fn len(&self) -> usize {
        self.set_of.len()
    }

    /// True if the table covers no destinations.
    pub fn is_empty(&self) -> bool {
        self.set_of.is_empty()
    }
}

/// Per-ingress-port PFC accounting state for one switch.
#[derive(Debug)]
pub struct PfcState {
    cfg: PfcConfig,
    /// Bytes buffered in this switch attributed to each ingress port.
    ingress_bytes: Vec<u64>,
    /// Whether we have an outstanding PAUSE towards each ingress' upstream.
    pause_sent: Vec<bool>,
}

/// What the PFC bookkeeping asks the simulator to do after an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfcAction {
    /// Nothing to send.
    None,
    /// Send a PAUSE frame to the upstream of this ingress port.
    SendPause,
    /// Send a RESUME frame to the upstream of this ingress port.
    SendResume,
}

impl PfcState {
    /// Create state for a switch with `n_ports` ports.
    pub fn new(cfg: PfcConfig, n_ports: usize) -> Self {
        assert!(
            cfg.resume_threshold <= cfg.pause_threshold,
            "resume threshold must not exceed pause threshold"
        );
        PfcState {
            cfg,
            ingress_bytes: vec![0; n_ports],
            pause_sent: vec![false; n_ports],
        }
    }

    /// Extend the accounting to one more port (called as the simulator
    /// builder wires up links).
    pub fn add_port(&mut self) {
        self.ingress_bytes.push(0);
        self.pause_sent.push(false);
    }

    /// Account a packet of `bytes` arriving via `ingress` and staying
    /// buffered; returns whether a PAUSE must be sent upstream.
    pub fn on_buffered(&mut self, ingress: u16, bytes: u64) -> PfcAction {
        let b = &mut self.ingress_bytes[ingress as usize];
        *b += bytes;
        if *b > self.cfg.pause_threshold && !self.pause_sent[ingress as usize] {
            self.pause_sent[ingress as usize] = true;
            PfcAction::SendPause
        } else {
            PfcAction::None
        }
    }

    /// Account a packet of `bytes` leaving the buffer that had arrived via
    /// `ingress`; returns whether a RESUME must be sent upstream.
    pub fn on_released(&mut self, ingress: u16, bytes: u64) -> PfcAction {
        let b = &mut self.ingress_bytes[ingress as usize];
        debug_assert!(*b >= bytes, "PFC accounting underflow");
        *b -= bytes;
        if *b < self.cfg.resume_threshold && self.pause_sent[ingress as usize] {
            self.pause_sent[ingress as usize] = false;
            PfcAction::SendResume
        } else {
            PfcAction::None
        }
    }

    /// Current buffered bytes attributed to `ingress`.
    pub fn ingress_bytes(&self, ingress: u16) -> u64 {
        self.ingress_bytes[ingress as usize]
    }

    /// Whether a PAUSE is outstanding for `ingress`.
    pub fn is_pausing(&self, ingress: u16) -> bool {
        self.pause_sent[ingress as usize]
    }
}

/// Pick an egress port for `pkt` among `eligible` according to `scheme`.
///
/// `weights` are WCMP weights parallel to `eligible` (empty = equal cost;
/// only the hash-based scheme honours them, like real silicon).
/// `queue_bytes(port)` reports the instantaneous egress occupancy (used by
/// `Adaptive`); `link_up(port)` reports local link state (Adaptive skips
/// locally dead links; hash/RPS do not, faithfully modelling oblivious
/// schemes that keep black-holing until routing reconverges).
#[allow(clippy::too_many_arguments)]
pub fn select_port(
    scheme: ForwardingScheme,
    hasher: &EcmpHasher,
    rng: &mut DetRng,
    pkt: &Packet,
    eligible: &[PortId],
    weights: &[u32],
    queue_bytes: impl Fn(PortId) -> u64,
    link_up: impl Fn(PortId) -> bool,
) -> PortId {
    assert!(!eligible.is_empty(), "no route to host {}", pkt.dst());
    if eligible.len() == 1 {
        return eligible[0];
    }
    match scheme {
        ForwardingScheme::EcmpHash if !weights.is_empty() => {
            eligible[hasher.select_weighted(pkt, weights)]
        }
        ForwardingScheme::EcmpHash => eligible[hasher.select(pkt, eligible.len())],
        ForwardingScheme::Rps => eligible[rng.gen_index(eligible.len())],
        ForwardingScheme::Adaptive => adaptive_pick(eligible, rng, &queue_bytes, &link_up),
        ForwardingScheme::Flowlet { .. } | ForwardingScheme::Flowcut { .. } => {
            unreachable!("flowlet/flowcut selection is stateful; the simulator handles it")
        }
    }
}

/// Least-occupied among live local links, with an unbiased
/// (reservoir-sampled) random tie-break. Shared by the DeTail-style
/// [`ForwardingScheme::Adaptive`] per-packet path and the boundary
/// re-route of [`PinTable::flowcut`]. If every local link is down, falls back
/// to the first eligible port (the packet will be black-holed, as it
/// would in reality).
fn adaptive_pick(
    eligible: &[PortId],
    rng: &mut DetRng,
    queue_bytes: &impl Fn(PortId) -> u64,
    link_up: &impl Fn(PortId) -> bool,
) -> PortId {
    let mut best: Option<PortId> = None;
    let mut best_bytes = u64::MAX;
    let mut ties = 0u32;
    for &p in eligible {
        if !link_up(p) {
            continue;
        }
        let b = queue_bytes(p);
        if b < best_bytes {
            best = Some(p);
            best_bytes = b;
            ties = 1;
        } else if b == best_bytes {
            // Reservoir-sample among ties for an unbiased pick.
            ties += 1;
            if rng.gen_range(ties) == 0 {
                best = Some(p);
            }
        }
    }
    best.unwrap_or(eligible[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::HashConfig;
    use crate::packet::{FlowKey, Proto};
    use crate::time::SimTime;

    fn pkt(sport: u16) -> Packet {
        let key = FlowKey {
            src: 1,
            dst: 5,
            sport,
            dport: 80,
            proto: Proto::Tcp,
        };
        Packet::data(0, key, 0, 0, 1460, SimTime::ZERO)
    }

    fn hasher() -> EcmpHasher {
        EcmpHasher::new(HashConfig::FiveTupleAndVField, 42)
    }

    #[test]
    fn routing_table_set_get() {
        let mut rt = RoutingTable::new(8);
        rt.set(5, vec![1, 2, 3]);
        assert_eq!(rt.eligible(5), &[1, 2, 3]);
        assert!(rt.eligible(0).is_empty());
        assert_eq!(rt.len(), 8);
    }

    #[test]
    fn ecmp_is_static_per_flow() {
        let h = hasher();
        let mut rng = DetRng::new(1, 1);
        let elig = vec![0, 1, 2, 3];
        let first = select_port(
            ForwardingScheme::EcmpHash,
            &h,
            &mut rng,
            &pkt(7),
            &elig,
            &[],
            |_| 0,
            |_| true,
        );
        for _ in 0..20 {
            let again = select_port(
                ForwardingScheme::EcmpHash,
                &h,
                &mut rng,
                &pkt(7),
                &elig,
                &[],
                |_| 0,
                |_| true,
            );
            assert_eq!(again, first);
        }
    }

    #[test]
    fn rps_uses_all_ports() {
        let h = hasher();
        let mut rng = DetRng::new(1, 1);
        let elig = vec![0, 1, 2, 3];
        let mut seen = [false; 4];
        for _ in 0..200 {
            let p = select_port(
                ForwardingScheme::Rps,
                &h,
                &mut rng,
                &pkt(7),
                &elig,
                &[],
                |_| 0,
                |_| true,
            );
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn adaptive_picks_least_queued() {
        let h = hasher();
        let mut rng = DetRng::new(1, 1);
        let elig = vec![0, 1, 2, 3];
        let occupancy = |p: PortId| match p {
            0 => 5000,
            1 => 100,
            2 => 9000,
            _ => 700,
        };
        let p = select_port(
            ForwardingScheme::Adaptive,
            &h,
            &mut rng,
            &pkt(7),
            &elig,
            &[],
            occupancy,
            |_| true,
        );
        assert_eq!(p, 1);
    }

    #[test]
    fn adaptive_skips_dead_links_and_breaks_ties() {
        let h = hasher();
        let mut rng = DetRng::new(1, 1);
        let elig = vec![0, 1, 2];
        // Port 1 is least-queued but dead; ports 0 and 2 tie.
        let mut picked = [0u32; 3];
        for _ in 0..400 {
            let p = select_port(
                ForwardingScheme::Adaptive,
                &h,
                &mut rng,
                &pkt(7),
                &elig,
                &[],
                |p| if p == 1 { 0 } else { 500 },
                |p| p != 1,
            );
            picked[p as usize] += 1;
        }
        assert_eq!(picked[1], 0, "dead link must not be picked");
        assert!(
            picked[0] > 100 && picked[2] > 100,
            "ties should split: {picked:?}"
        );
    }

    #[test]
    fn single_eligible_short_circuits() {
        let h = hasher();
        let mut rng = DetRng::new(1, 1);
        for scheme in [
            ForwardingScheme::EcmpHash,
            ForwardingScheme::Rps,
            ForwardingScheme::Adaptive,
        ] {
            assert_eq!(
                select_port(scheme, &h, &mut rng, &pkt(7), &[9], &[], |_| 0, |_| true),
                9
            );
        }
    }

    #[test]
    fn pfc_pause_resume_hysteresis() {
        let cfg = PfcConfig {
            pause_threshold: 1000,
            resume_threshold: 500,
        };
        let mut pfc = PfcState::new(cfg, 4);
        assert_eq!(pfc.on_buffered(2, 900), PfcAction::None);
        assert_eq!(pfc.on_buffered(2, 200), PfcAction::SendPause);
        // Further growth does not re-send.
        assert_eq!(pfc.on_buffered(2, 100), PfcAction::None);
        assert!(pfc.is_pausing(2));
        // Draining above resume threshold: nothing.
        assert_eq!(pfc.on_released(2, 600), PfcAction::None);
        // Below resume threshold: resume.
        assert_eq!(pfc.on_released(2, 200), PfcAction::SendResume);
        assert!(!pfc.is_pausing(2));
        assert_eq!(pfc.ingress_bytes(2), 400);
        // Other ingress ports are independent.
        assert_eq!(pfc.ingress_bytes(0), 0);
    }

    #[test]
    #[should_panic]
    fn pfc_rejects_inverted_thresholds() {
        PfcState::new(
            PfcConfig {
                pause_threshold: 100,
                resume_threshold: 200,
            },
            1,
        );
    }

    #[test]
    fn flowlet_sticks_within_gap_and_moves_after() {
        let mut fl = PinTable::new();
        let mut rng = DetRng::new(4, 4);
        let gap = SimTime::from_us(100);
        let elig = vec![0u16, 1, 2, 3];
        let p0 = fl.flowlet(SimTime::from_us(0), gap, 42, &elig, &mut rng);
        // Packets within the gap stick to the same port.
        for t in [10u64, 60, 150, 240] {
            // each arrival refreshes last-seen, so gaps are measured
            // packet-to-packet
            assert_eq!(
                fl.flowlet(SimTime::from_us(t), gap, 42, &elig, &mut rng),
                p0
            );
        }
        assert_eq!(fl.len(), 1);
        // After an idle period > gap, the flowlet may move: over many
        // re-draws all ports get used.
        let mut seen = std::collections::HashSet::new();
        let mut t = SimTime::from_ms(1);
        for _ in 0..64 {
            seen.insert(fl.flowlet(t, gap, 42, &elig, &mut rng));
            t += SimTime::from_us(500); // always > gap
        }
        assert!(
            seen.len() >= 3,
            "re-draws should cover most ports: {seen:?}"
        );
    }

    #[test]
    fn flowlet_flows_are_independent() {
        let mut fl = PinTable::new();
        let mut rng = DetRng::new(9, 9);
        let gap = SimTime::from_us(100);
        let elig: Vec<u16> = (0..8).collect();
        let now = SimTime::from_us(5);
        let ports: Vec<u16> = (0..32)
            .map(|f| fl.flowlet(now, gap, f, &elig, &mut rng))
            .collect();
        assert_eq!(fl.len(), 32);
        let distinct: std::collections::HashSet<_> = ports.iter().collect();
        assert!(
            distinct.len() >= 4,
            "32 flows should spread over several ports"
        );
    }

    #[test]
    fn flowlet_redraws_when_port_no_longer_eligible() {
        let mut fl = PinTable::new();
        let mut rng = DetRng::new(2, 2);
        let gap = SimTime::from_us(100);
        let p = fl.flowlet(SimTime::ZERO, gap, 7, &[5, 6], &mut rng);
        // Routing changed: the cached port is not eligible any more.
        let only = if p == 5 { vec![6u16] } else { vec![5u16] };
        let np = fl.flowlet(SimTime::from_us(1), gap, 7, &only, &mut rng);
        assert_eq!(np, only[0]);
    }

    #[test]
    fn flowcut_pins_within_gap_even_under_congestion() {
        let mut fc = PinTable::new();
        let mut rng = DetRng::new(3, 3);
        let cfg = FlowcutConfig::new(SimTime::from_us(100));
        let elig = vec![0u16, 1, 2, 3];
        // The pinned port becomes the most congested one — mid-flowcut the
        // flow must stay anyway (moving could overtake in-flight packets).
        let (p0, d0) = fc.flowcut(SimTime::ZERO, cfg, 7, &elig, &mut rng, |_| 0, |_| true);
        assert_eq!(d0, FlowcutDecision::Start);
        for t in [10u64, 60, 150, 240] {
            let (p, d) = fc.flowcut(
                SimTime::from_us(t),
                cfg,
                7,
                &elig,
                &mut rng,
                |q| if q == p0 { 1_000_000 } else { 0 },
                |_| true,
            );
            assert_eq!((p, d), (p0, FlowcutDecision::Pinned));
        }
        assert_eq!(fc.len(), 1);
    }

    #[test]
    fn flowcut_boundary_reroutes_to_least_queued_only_when_loaded() {
        let mut fc = PinTable::new();
        let mut rng = DetRng::new(5, 5);
        let cfg = FlowcutConfig::new(SimTime::from_us(100));
        let elig = vec![0u16, 1, 2];
        let (p0, _) = fc.flowcut(SimTime::ZERO, cfg, 9, &elig, &mut rng, |_| 0, |_| true);
        // Boundary (idle 1 ms > gap) but the pinned egress is empty: the
        // load trigger holds the path.
        let (p1, d1) = fc.flowcut(
            SimTime::from_ms(1),
            cfg,
            9,
            &elig,
            &mut rng,
            |_| 0,
            |_| true,
        );
        assert_eq!((p1, d1), (p0, FlowcutDecision::Held));
        // Next boundary with the pinned egress congested: move to the
        // least-queued alternative.
        let free = if p0 == 0 { 1 } else { 0 };
        let (p2, d2) = fc.flowcut(
            SimTime::from_ms(2),
            cfg,
            9,
            &elig,
            &mut rng,
            |q| if q == free { 0 } else { 1_000_000 },
            |_| true,
        );
        assert_eq!((p2, d2), (free, FlowcutDecision::Rerouted));
    }

    /// The boundary load trigger is exactly one MTU: a pinned egress
    /// holding `MTU` bytes keeps the flow, one byte more moves it.
    #[test]
    fn flowcut_load_trigger_is_one_mtu() {
        let mut fc = PinTable::new();
        let mut rng = DetRng::new(6, 6);
        let cfg = FlowcutConfig::new(SimTime::from_us(100));
        let elig = vec![0u16, 1];
        let (p0, _) = fc.flowcut(SimTime::ZERO, cfg, 1, &elig, &mut rng, |_| 0, |_| true);
        // A boundary (1 ms idle > gap) with `pinned` bytes at the pinned
        // egress and an empty alternative.
        let mut boundary = |ms, pinned: u64| {
            let load = move |q: PortId| if q == p0 { pinned } else { 0 };
            fc.flowcut(SimTime::from_ms(ms), cfg, 1, &elig, &mut rng, load, |_| {
                true
            })
        };
        assert_eq!(boundary(1, MTU as u64), (p0, FlowcutDecision::Held));
        assert_eq!(
            boundary(2, MTU as u64 + 1),
            (1 - p0, FlowcutDecision::Rerouted)
        );
    }

    #[test]
    fn flowcut_restarts_when_pinned_port_dies() {
        let mut fc = PinTable::new();
        let mut rng = DetRng::new(8, 8);
        let cfg = FlowcutConfig::new(SimTime::from_us(100));
        let (p0, _) = fc.flowcut(SimTime::ZERO, cfg, 4, &[5, 6], &mut rng, |_| 0, |_| true);
        // Mid-flowcut, but the pinned link died locally: a fresh flowcut
        // starts on the surviving port.
        let other = if p0 == 5 { 6 } else { 5 };
        let (p1, d1) = fc.flowcut(
            SimTime::from_us(1),
            cfg,
            4,
            &[5, 6],
            &mut rng,
            |_| 0,
            |q| q != p0,
        );
        assert_eq!((p1, d1), (other, FlowcutDecision::Start));
    }

    #[test]
    fn flowcut_config_defaults_and_validation() {
        let cfg = FlowcutConfig::new(SimTime::from_us(100));
        assert_eq!(cfg.gap, SimTime::from_us(100));
        cfg.validate();
    }

    #[test]
    #[should_panic]
    fn flowcut_config_rejects_zero_gap() {
        FlowcutConfig::new(SimTime::ZERO).validate();
    }

    #[test]
    fn detail_default_thresholds_match_paper() {
        let d = PfcConfig::detail_defaults();
        assert_eq!(d.pause_threshold, 20_000);
        assert_eq!(d.resume_threshold, 10_000);
    }

    /// The presets, and the CN delivery constant: on a congested egress
    /// every CN reaches its sender exactly `CN_DELAY` after the switch
    /// emitted it.
    #[test]
    fn feedback_config_presets() {
        use crate::sim::{LinkSpec, Simulator, SwitchConfig};
        use crate::testutil::{Blaster, RxLog};
        use crate::trace::{TraceConfig, TraceEvent};

        let i = FeedbackConfig::int_only();
        assert!(i.int_stamp && i.cn_threshold.is_none());
        i.validate();
        let c = FeedbackConfig::cn(3000);
        assert!(!c.int_stamp);
        assert_eq!(c.cn_threshold, Some(3000));
        assert!(CN_DELAY < SimTime::from_us(86), "CN beats the e2e echo");
        c.validate();

        // Two line-rate senders (flows 0 and 1) into one egress towards h2.
        let mut sim = Simulator::new(7);
        let hosts: Vec<_> = (0..3).map(|_| sim.add_host_default()).collect();
        let sw = sim.add_switch(SwitchConfig::commodity(HashConfig::FiveTuple).with_feedback(c));
        let mut rt = RoutingTable::new(3);
        for (port, &h) in hosts.iter().enumerate() {
            sim.connect(h, sw, LinkSpec::host_10g());
            rt.set(h, vec![port as PortId]);
        }
        sim.set_routes(sw, rt);
        sim.set_trace(TraceConfig::flows(vec![0, 1]));
        for flow in 0..2 {
            let mut b = Blaster::new(hosts[2], 30, RxLog::shared());
            b.flow = flow;
            b.sport = 10 + flow as u16;
            sim.set_agent(hosts[flow as usize], Box::new(b));
        }
        sim.run_to_quiescence();
        for tl in sim.into_results().timelines() {
            let at = |pick: fn(&TraceEvent) -> bool| -> Vec<SimTime> {
                tl.events
                    .iter()
                    .filter(|(_, e)| pick(e))
                    .map(|&(t, _)| t)
                    .collect()
            };
            let emitted = at(|e| matches!(e, TraceEvent::CnEmit { .. }));
            let landed = at(|e| matches!(e, TraceEvent::CnArrive { .. }));
            assert!(
                !emitted.is_empty(),
                "flow {}: the queue must emit CNs",
                tl.flow
            );
            let due: Vec<SimTime> = emitted.iter().map(|&t| t + CN_DELAY).collect();
            assert_eq!(
                landed, due,
                "flow {}: a CN lands CN_DELAY after emission",
                tl.flow
            );
        }
    }

    #[test]
    #[should_panic]
    fn feedback_config_rejects_zero_threshold() {
        FeedbackConfig::cn(0).validate();
    }

    #[test]
    fn cn_limiter_paces_per_port_flow() {
        let mut lim = CnLimiter::new();
        assert_eq!(CN_MIN_GAP, SimTime::from_us(100));
        assert!(lim.allow(SimTime::ZERO, 1, 7));
        // Within the gap: suppressed, repeatedly.
        assert!(!lim.allow(SimTime::from_us(10), 1, 7));
        assert!(!lim.allow(SimTime::from_us(99), 1, 7));
        // Other (port, flow) pairs are independent.
        assert!(lim.allow(SimTime::from_us(10), 2, 7));
        assert!(lim.allow(SimTime::from_us(10), 1, 8));
        // At/after the gap: allowed again.
        assert!(lim.allow(SimTime::from_us(100), 1, 7));
        assert!(!lim.allow(SimTime::from_us(150), 1, 7));
        assert_eq!(lim.len(), 3);
    }

    /// Property: over a long randomized query stream, no (port, flow)
    /// pair is ever granted two CNs less than [`CN_MIN_GAP`] apart — the
    /// "one outstanding CN per (port, flow) per RTT" guarantee.
    #[test]
    fn cn_limiter_never_exceeds_one_per_gap_property() {
        for seed in 0..8u64 {
            let mut rng = DetRng::new(seed, 0xC0FFEE);
            let mut lim = CnLimiter::new();
            let mut now = SimTime::ZERO;
            let mut last_granted: DetHashMap<(PortId, FlowId), SimTime> = DetHashMap::default();
            for _ in 0..5_000 {
                // Time advances by random sub-gap steps so queries land
                // densely inside each pacing window.
                now += SimTime::from_ps(rng.gen_range(20_000_000) as u64);
                let port = rng.gen_range(4) as PortId;
                let flow = rng.gen_range(8);
                if lim.allow(now, port, flow) {
                    if let Some(&prev) = last_granted.get(&(port, flow)) {
                        assert!(
                            now.saturating_sub(prev) >= CN_MIN_GAP,
                            "seed {seed}: CNs {prev:?} and {now:?} within the gap"
                        );
                    }
                    last_granted.insert((port, flow), now);
                }
            }
        }
    }
}
