//! The four benchmark workloads: what each one feeds the simulator and
//! why it is in the set.
//!
//! A workload is a fabric, a load-balancing scheme and a traffic recipe.
//! Inputs are generated here, from the seed, through `workloads`' public
//! generators; the simulator only ever sees the resulting `FlowSpec`s.
//!
//! Every recipe offers the *same amount and shape of work under every
//! seed*, so that `wall_s` of two seeds can be compared at all:
//!
//! * the web-search recipes offer a fixed number of flows whose sizes are a
//!   fixed set — the evenly spaced quantiles of the web-search distribution
//!   — and the seed decides who talks to whom, when, and which flow gets
//!   which size. (I.i.d. sizes do not repeat: over eight seeds of
//!   `fabric1024`, a fixed packet-hop budget of i.i.d. draws held the event
//!   count within ±1 % and still left the nanoseconds per event 170–219,
//!   because the share of bytes in flows above 5 MB ranged 0.70–0.81 and
//!   with it the share of events in the sparse, cache-friendly drain.)
//! * the incast recipe accepts whole jobs, in arrival order, up to a fixed
//!   budget of packet-hops (one per switch a data packet crosses, plus one
//!   for its delivery);
//! * the CBR recipe sends a fixed number of datagrams per flow.

use std::sync::Mutex;

use experiments::{schemes, SchemeSpec};
use netsim::{DetRng, FlowSpec, SimTime, MSS};
use topology::FatTreeParams;
use workloads::{FlowSizeDist, PoissonStream, Workload as _};

/// RNG stream tag for input generation (distinct from every stream the
/// simulator derives from the same seed).
const INPUT_STREAM: u64 = 0xF10B_E7C4;

/// RNG stream the web-search size set is drawn from: a constant of the
/// benchmark, not of the seed.
const SIZE_STREAM: u64 = 0x512E_5E70;

/// `DetRng::split` label of the stream that deals sizes to flows (the
/// `PoissonStream` splits by source host, `0..n_hosts`).
const DEAL_LABEL: u64 = 1 << 40;

/// How many nominal windows the lazy `PoissonStream` may run to yield the
/// workload's flows: the arrival process is cut by count, not by time.
const STREAM_SLACK: u64 = 4;

/// Traffic recipe of one workload.
#[derive(Debug, Clone, Copy)]
pub enum Traffic {
    /// Poisson all-to-all (TCP): `flows` arrivals carrying the web-search
    /// size set of that many flows ([`size_set`]).
    Websearch { flows: usize },
    /// Partition-aggregate jobs, `fan_in` synchronized senders each (TCP),
    /// accepted up to `work` packet-hops.
    Incast { fan_in: u32, work: u64 },
    /// `per_host` constant-bit-rate UDP flows per host to fixed offsets.
    UdpCbr { rate_bps: u64 },
}

/// The fabric a workload runs on.
#[derive(Debug, Clone, Copy)]
pub enum Fabric {
    /// `FatTreeParams::paper()`: the paper's 128-server fat-tree.
    Paper,
    /// `FatTreeParams::k_ary(16)`: 1024 hosts, 320 switches.
    K16,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why this workload is in the set (also in BENCHMARK.json).
    pub why: &'static str,
    pub fabric: Fabric,
    pub scheme: &'static str,
    pub traffic: Traffic,
    /// Average pod-uplink utilization the TCP recipes offer.
    pub load: f64,
    /// Nominal arrival window: how long the CBR sources of `udp-forward`
    /// send, and about how long the TCP recipes' arrivals take at `load`
    /// (their generators may run somewhat past it; they are cut by flow
    /// count or work, not by time).
    pub window: SimTime,
    /// Simulated time granted after the last arrival. For the web-search
    /// workloads, nearly twice what the busiest host link of 400 seeds needs
    /// at line rate (157 ms and 139 ms; the size set's largest flow alone is
    /// 73 ms), so that no flow is left unfinished.
    pub drain: SimTime,
}

/// Destination offsets of the three CBR flows every host of `udp-forward`
/// sources: one cross-fabric, one mid-range, one near neighbour.
fn udp_offsets(n: u32) -> [u32; 3] {
    [n / 2 + 3, n / 4 + 1, 5]
}

/// The benchmark's workloads, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fig3-alltoall",
        why: "paper's headline run: 128 hosts, FlowBender, web-search all-to-all at 40% load; every layer busy, TCP on its in-order fast path, working set cache-resident",
        fabric: Fabric::Paper,
        scheme: "flowbender",
        traffic: Traffic::Websearch { flows: FLOWS },
        load: 0.4,
        window: SimTime::from_ms(52),
        drain: SimTime::from_ms(300),
    },
    Workload {
        name: "spray-incast",
        why: "RPS spraying under 32:1 incast: reassembly, DSACK/undo, dup-ACK and fast-retransmit paths do the work and 13x more flows stress per-flow state and the recorder",
        fabric: Fabric::Paper,
        scheme: "rps",
        traffic: Traffic::Incast {
            fan_in: 32,
            work: 1_930_000,
        },
        load: 0.4,
        window: SimTime::from_ms(24),
        drain: SimTime::from_ms(300),
    },
    Workload {
        name: "udp-forward",
        why: "CBR UDP under ECMP bypasses TCP entirely: only scheduler, switch forwarding, hashing, queues (with tail drops) and slab run, so transport/core changes must not move it",
        fabric: Fabric::Paper,
        scheme: "ecmp",
        traffic: Traffic::UdpCbr {
            rate_bps: 1_000_000_000,
        },
        load: 0.0,
        window: SimTime::from_ms(24),
        drain: SimTime::from_ms(5),
    },
    Workload {
        name: "fabric1024",
        why: "same code as fig3-alltoall on 1024 hosts / 320 switches at 30% load: working set far beyond cache, long sparse drain tail, non-trivial set-up",
        fabric: Fabric::K16,
        scheme: "flowbender",
        traffic: Traffic::Websearch { flows: FLOWS },
        load: 0.3,
        window: SimTime::from_us(2900),
        drain: SimTime::from_ms(250),
    },
];

/// Flows of the two web-search workloads: 13 completion times beyond the
/// 99th percentile, and about what their nominal windows offer on average.
const FLOWS: usize = 1300;

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What one run feeds the simulator.
pub struct Inputs {
    pub specs: Vec<FlowSpec>,
    /// Instant of the last arrival (end of the busy phase).
    pub arrival_end: SimTime,
    /// `run_until` deadline: last arrival plus the workload's drain.
    pub horizon: SimTime,
}

/// `--smoke` shrinks every workload's window and work by this factor.
const SMOKE_SHRINK: u64 = 20;

impl Workload {
    pub fn params(&self) -> FatTreeParams {
        match self.fabric {
            Fabric::Paper => FatTreeParams::paper(),
            Fabric::K16 => FatTreeParams::k_ary(16).expect("16 is a valid arity"),
        }
    }

    pub fn scheme_spec(&self) -> SchemeSpec {
        schemes::find(self.scheme).expect("benchmark schemes are registered")
    }

    pub fn is_udp(&self) -> bool {
        matches!(self.traffic, Traffic::UdpCbr { .. })
    }

    /// Generate this workload's flows for `seed`.
    pub fn generate(&self, seed: u64, smoke: bool) -> Inputs {
        let p = self.params();
        let shrink = if smoke { SMOKE_SHRINK } else { 1 };
        let window = SimTime::from_ps(self.window.as_ps() / shrink);
        let mut rng = DetRng::new(seed, INPUT_STREAM);
        let specs = match self.traffic {
            Traffic::Websearch { flows } => {
                let flows = flows / shrink as usize;
                let limit = window.saturating_mul(STREAM_SLACK);
                let dist = FlowSizeDist::web_search();
                let arrivals = PoissonStream::new(&p, self.load, limit, dist, &rng);
                // The stream's own i.i.d. sizes are replaced by the fixed
                // set, dealt in a seed-drawn order.
                let mut sizes = size_set(flows);
                let mut deal = rng.split(DEAL_LABEL);
                for i in (1..sizes.len()).rev() {
                    sizes.swap(i, deal.gen_index(i + 1));
                }
                let specs: Vec<FlowSpec> = arrivals
                    .zip(sizes)
                    .map(|(mut f, bytes)| {
                        f.bytes = bytes;
                        f
                    })
                    .collect();
                assert_eq!(specs.len(), flows, "arrivals ran dry; lengthen the window");
                specs
            }
            Traffic::Incast { fan_in, work } => {
                let work = work / shrink;
                // Spend the budget to within 1 % (a tenth under --smoke,
                // where one job is 4 % of it). The batch generator
                // materializes everything up to its limit, and equal-sized
                // jobs vary little: 1.5 windows.
                let tolerance = work / if smoke { 10 } else { 100 };
                let limit = SimTime::from_ps(window.as_ps() / 2 * 3);
                let all =
                    workloads::patterns::incast(fan_in).generate(&p, self.load, limit, &mut rng);
                fill_budget(all.into_iter(), work, tolerance, &p)
            }
            Traffic::UdpCbr { rate_bps } => udp_cbr(&p, rate_bps, window, &mut rng),
        };
        assert!(!specs.is_empty(), "{}: no flows generated", self.name);
        let arrival_end = match self.traffic {
            // CBR sources start at ~0 and stop when their byte budget,
            // one window's worth, is sent.
            Traffic::UdpCbr { .. } => window,
            _ => specs.last().map_or(SimTime::ZERO, |s| s.start),
        };
        Inputs {
            specs,
            arrival_end,
            horizon: arrival_end + self.drain,
        }
    }
}

/// Draws behind each size of a [`size_set`].
const POOL_PER_FLOW: usize = 64;

/// The `n` flow sizes every seed of a web-search workload offers: the
/// `(i + ½) / n` quantiles of `FlowSizeDist::web_search()`, ascending. The
/// distribution offers sampling, not its inverse, so they are read off a
/// sorted pool of `64 n` draws from a fixed stream — once per process and
/// `n`; a repetition's set-up pays for a copy.
fn size_set(n: usize) -> Vec<u64> {
    static SETS: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());
    let mut sets = SETS.lock().expect("no holder panics");
    if let Some(set) = sets.iter().find(|s| s.len() == n) {
        return set.clone();
    }
    let dist = FlowSizeDist::web_search();
    let mut rng = DetRng::new(0, SIZE_STREAM);
    let mut pool: Vec<u64> = (0..n * POOL_PER_FLOW)
        .map(|_| dist.sample(&mut rng))
        .collect();
    pool.sort_unstable();
    let set: Vec<u64> = pool
        .chunks_exact(POOL_PER_FLOW)
        .map(|stratum| stratum[POOL_PER_FLOW / 2])
        .collect();
    sets.push(set.clone());
    set
}

/// Forwarding work of one flow in packet-hops: its data packets times the
/// switches on its path plus one (the delivery). ACKs retrace the path, so
/// they scale the same way and need no term of their own.
pub fn packet_hops(f: &FlowSpec, p: &FatTreeParams) -> u64 {
    let tor = |h: u32| h as usize / p.hosts_per_tor;
    let pod = |h: u32| tor(h) / p.tors_per_pod;
    let switches = if tor(f.src) == tor(f.dst) {
        1
    } else if pod(f.src) == pod(f.dst) {
        3
    } else {
        5
    };
    f.bytes.div_ceil(MSS as u64) * (switches + 1)
}

/// Accept arrivals (in time order) while they fit the remaining budget of
/// `work` packet-hops. Flows arriving at the same instant (a
/// partition-aggregate job) are taken or left together. A group that does
/// not fit ends the input if it is small (under `tolerance`: the budget is
/// then spent to within that); a larger one is passed over, so the tail of
/// the budget is filled by smaller groups rather than overshot. Ids are
/// renumbered densely.
///
/// Panics if the generator ran dry with more than `tolerance` unspent: the
/// workload's `window` is then too short for its `work`.
fn fill_budget(
    flows: impl Iterator<Item = FlowSpec>,
    work: u64,
    tolerance: u64,
    p: &FatTreeParams,
) -> Vec<FlowSpec> {
    let mut kept: Vec<FlowSpec> = Vec::new();
    let mut left = work;
    let mut group: Vec<FlowSpec> = Vec::new();
    // Takes the pending group if it fits; says whether the input is done.
    let mut settle = |group: &mut Vec<FlowSpec>, left: &mut u64| -> bool {
        let cost: u64 = group.iter().map(|f| packet_hops(f, p)).sum();
        let fits = cost <= *left;
        if fits {
            *left -= cost;
            kept.append(group);
        }
        group.clear();
        !fits && cost <= tolerance
    };
    for f in flows {
        if group.last().is_some_and(|g| g.start != f.start) && settle(&mut group, &mut left) {
            break;
        }
        group.push(f);
    }
    settle(&mut group, &mut left);
    assert!(
        left <= tolerance,
        "arrivals ran dry with {left} of {work} packet-hops unspent; lengthen the window"
    );
    for (id, f) in kept.iter_mut().enumerate() {
        f.id = id as u32;
    }
    kept
}

/// Three CBR flows per host to fixed destination offsets, each sending one
/// window's worth of whole datagrams. The seed draws every flow's start
/// phase inside its first inter-datagram gap (and, through the id order,
/// its source port), so which datagrams collide in which queue differs per
/// seed while the offered bytes do not.
fn udp_cbr(p: &FatTreeParams, rate_bps: u64, window: SimTime, rng: &mut DetRng) -> Vec<FlowSpec> {
    let n = p.n_hosts() as u32;
    let wire = (MSS + netsim::HEADER_BYTES) as u64;
    let gap_ps = SimTime::serialization(wire, rate_bps).as_ps();
    let datagrams = window.as_ps() / gap_ps;
    let mut flows: Vec<(SimTime, u32, u32)> = Vec::with_capacity(3 * n as usize);
    for src in 0..n {
        for off in udp_offsets(n) {
            let phase = SimTime::from_ps(rng.next_u64() % gap_ps);
            flows.push((phase, src, (src + off) % n));
        }
    }
    flows.sort_unstable();
    flows
        .into_iter()
        .enumerate()
        .map(|(id, (start, src, dst))| {
            let mut f = FlowSpec::udp(id as u32, src, dst, rate_bps, start);
            f.bytes = datagrams * MSS as u64;
            f
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_on_seed_and_only_on_seed() {
        for w in &WORKLOADS {
            let sig = |seed| -> Vec<(u32, u32, u64, u64)> {
                w.generate(seed, true)
                    .specs
                    .iter()
                    .map(|f| (f.src, f.dst, f.bytes, f.start.as_ps()))
                    .collect()
            };
            assert_eq!(sig(3), sig(3), "{}: same seed, same inputs", w.name);
            assert_ne!(sig(3), sig(4), "{}: seed must change inputs", w.name);
        }
    }

    #[test]
    fn flows_are_dense_time_ordered_and_inside_the_horizon() {
        for w in &WORKLOADS {
            let inp = w.generate(1, true);
            for (i, f) in inp.specs.iter().enumerate() {
                assert_eq!(f.id as usize, i, "{}: dense ids", w.name);
                assert!(f.start <= inp.arrival_end, "{}: late arrival", w.name);
            }
            assert!(inp.specs.windows(2).all(|p| p[0].start <= p[1].start));
            assert_eq!(inp.horizon, inp.arrival_end + w.drain);
        }
    }

    #[test]
    fn every_seed_offers_the_same_work_in_whole_jobs() {
        let w = find("spray-incast").unwrap();
        let Traffic::Incast { work, .. } = w.traffic else {
            panic!("spray-incast is an incast workload");
        };
        let p = w.params();
        for (smoke, shrink, tolerance) in [(true, SMOKE_SHRINK, 10), (false, 1, 100)] {
            for seed in 1..=12 {
                let inp = w.generate(seed, smoke);
                let spent: u64 = inp.specs.iter().map(|f| packet_hops(f, &p)).sum();
                let budget = work / shrink;
                assert!(
                    spent <= budget && spent >= budget - budget / tolerance,
                    "seed {seed} smoke {smoke}: {spent} of {budget} packet-hops"
                );
            }
        }
        let inp = w.generate(2, true);
        for job in inp.specs.iter().filter_map(|f| f.job) {
            let members = inp.specs.iter().filter(|f| f.job == Some(job)).count();
            assert_eq!(members, 32, "job {job} was cut");
        }
    }

    #[test]
    fn every_seed_offers_the_same_web_search_sizes() {
        let sizes = |w: &Workload, seed, smoke| {
            let mut v: Vec<u64> = w
                .generate(seed, smoke)
                .specs
                .iter()
                .map(|f| f.bytes)
                .collect();
            v.sort_unstable();
            v
        };
        for name in ["fig3-alltoall", "fabric1024"] {
            let w = find(name).unwrap();
            assert_eq!(sizes(w, 1, false), size_set(FLOWS), "{name}");
            assert_eq!(sizes(w, 2, false), size_set(FLOWS), "{name}");
            assert_eq!(sizes(w, 2, true), size_set(FLOWS / 20), "{name} --smoke");
        }
        // The set has the distribution's shape: half the flows at most
        // 10 KB, a tenth above 1 MB carrying most of the bytes.
        let set = size_set(FLOWS);
        assert!(set.windows(2).all(|p| p[0] <= p[1]));
        let share = |pred: fn(u64) -> bool| {
            set.iter().filter(|&&b| pred(b)).count() as f64 / set.len() as f64
        };
        assert!((share(|b| b <= 10_000) - 0.5).abs() < 0.01);
        assert!((share(|b| b > 1_000_000) - 0.1).abs() < 0.01);
        let big: u64 = set.iter().filter(|&&b| b > 1_000_000).sum();
        assert!(big as f64 > 0.8 * set.iter().sum::<u64>() as f64);
    }

    #[test]
    fn packet_hops_follow_the_path_length() {
        let p = FatTreeParams::paper(); // 8 hosts per ToR, 4 ToRs per pod
        let flow = |src, dst| FlowSpec::tcp(0, src, dst, 3 * MSS as u64 + 1, SimTime::ZERO);
        assert_eq!(packet_hops(&flow(0, 7), &p), 4 * 2, "same rack");
        assert_eq!(packet_hops(&flow(0, 8), &p), 4 * 4, "same pod");
        assert_eq!(packet_hops(&flow(0, 32), &p), 4 * 6, "across pods");
    }
}
