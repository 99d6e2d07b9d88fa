//! Workload generators: one function per paper experiment family, plus
//! the Zipf-hotspot and ON/OFF loops behind the registry's extension
//! workloads ([`crate::Workload`]).
//!
//! Every generator returns a `Vec<FlowSpec>` with dense flow ids `0..n`,
//! ready for `transport::install_agents`-style consumption, and draws all
//! randomness from a caller-supplied [`DetRng`] so runs reproduce exactly.

use netsim::{DetRng, FlowSpec, HostId, SimTime};
use topology::{FatTreeParams, TestbedParams};

use crate::dist::FlowSizeDist;
use crate::load;

/// §4.2.1 functionality microbenchmark (Table 1): `n_flows` simultaneous
/// 250 MB flows from the hosts of one ToR in pod 0 to the hosts of the
/// corresponding ToR in pod 1, paired round-robin (8 flows = one per host
/// pair; 16 = two; 24 = three).
pub fn microbench(p: &FatTreeParams, n_flows: u32, bytes: u64) -> Vec<FlowSpec> {
    let hosts_per_tor = p.hosts_per_tor as u32;
    let pod1_base = (p.tors_per_pod * p.hosts_per_tor) as u32;
    (0..n_flows)
        .map(|i| {
            let src = i % hosts_per_tor;
            let dst = pod1_base + (i % hosts_per_tor);
            FlowSpec::tcp(i, src, dst, bytes, SimTime::ZERO)
        })
        .collect()
}

/// §4.2.2 all-to-all workload (Figures 3/4): every server Poisson-generates
/// flows to uniformly random other servers; sizes from `dist`; `load` is
/// the average pod-uplink utilization. Flows arrive in `[0, duration)`.
pub fn all_to_all(
    p: &FatTreeParams,
    load: f64,
    duration: SimTime,
    dist: &FlowSizeDist,
    rng: &mut DetRng,
) -> Vec<FlowSpec> {
    let n = p.n_hosts() as u32;
    let rate = load::fat_tree_flow_rate_per_host(p, load, dist.mean_bytes());
    let mean_gap_secs = 1.0 / rate;
    let mut specs = Vec::new();
    for src in 0..n {
        let mut t = SimTime::from_secs_f64(rng.gen_exp(mean_gap_secs));
        while t < duration {
            let mut dst = rng.gen_range(n - 1);
            if dst >= src {
                dst += 1;
            }
            let bytes = dist.sample(rng);
            specs.push((t, src, dst, bytes));
            t += SimTime::from_secs_f64(rng.gen_exp(mean_gap_secs));
        }
    }
    dense_ids(specs)
}

/// Flow ids assigned after generation keep them dense and arrival-sorted:
/// stable-sort the `(start, src, dst, bytes)` arrivals by `(start, src)`,
/// then number them `0..n`.
fn dense_ids(mut arrivals: Vec<(SimTime, HostId, HostId, u64)>) -> Vec<FlowSpec> {
    arrivals.sort_by_key(|&(t, src, _, _)| (t, src));
    arrivals
        .into_iter()
        .enumerate()
        .map(|(id, (t, src, dst, bytes))| FlowSpec::tcp(id as u32, src, dst, bytes, t))
        .collect()
}

/// Zipf-skewed all-to-all (the `hotspot:<skew>` workload): every host
/// Poisson-generates web-search flows as in [`all_to_all`], but the
/// destination with rank `j` (0-based, by host id) is drawn with weight
/// `1/(j+1)^skew`; `skew = 0` is the uniform matrix.
pub(crate) fn zipf_hotspot(
    p: &FatTreeParams,
    load: f64,
    duration: SimTime,
    skew: f64,
    rng: &mut DetRng,
) -> Vec<FlowSpec> {
    let n = p.n_hosts() as u32;
    assert!(n >= 2);
    let dist = FlowSizeDist::web_search();
    let rate = load::fat_tree_flow_rate_per_host(p, load, dist.mean_bytes());
    let mean_gap_secs = 1.0 / rate;
    // Cumulative Zipf weights over host ids; a destination is picked by
    // binary search on a uniform draw scaled to the total mass.
    let mut cum = Vec::with_capacity(n as usize);
    let mut total = 0.0f64;
    for j in 0..n {
        total += 1.0 / ((j + 1) as f64).powf(skew);
        cum.push(total);
    }
    let mut specs = Vec::new();
    for src in 0..n {
        let mut t = SimTime::from_secs_f64(rng.gen_exp(mean_gap_secs));
        while t < duration {
            // Rejection on self-sends keeps the marginal Zipf shape over
            // the remaining hosts.
            let dst = loop {
                let u = rng.gen_f64() * total;
                let d = cum.partition_point(|&c| c < u) as u32;
                let d = d.min(n - 1);
                if d != src {
                    break d;
                }
            };
            let bytes = dist.sample(rng);
            specs.push((t, src, dst, bytes));
            t += SimTime::from_secs_f64(rng.gen_exp(mean_gap_secs));
        }
    }
    dense_ids(specs)
}

/// Mean ON-period length of [`onoff`]. A couple of milliseconds is long
/// against the fabric RTT (~40 µs) and short against run durations, so
/// queues see genuine squalls rather than a slightly-modulated Poisson
/// process.
const ON_MEAN_S: f64 = 2e-3;

/// ON/OFF bursty all-to-all (the `onoff:<burst>` workload): ON periods
/// exp(2 ms), OFF periods scaled so the duty cycle is `1/burst`, in-ON
/// arrival rate `burst`× the average — the load calibration of
/// [`all_to_all`] with arrivals concentrated into squalls. Web-search
/// sizes.
pub(crate) fn onoff(
    p: &FatTreeParams,
    load: f64,
    duration: SimTime,
    burst: f64,
    rng: &mut DetRng,
) -> Vec<FlowSpec> {
    let n = p.n_hosts() as u32;
    let dist = FlowSizeDist::web_search();
    let avg_rate = load::fat_tree_flow_rate_per_host(p, load, dist.mean_bytes());
    let on_gap_secs = 1.0 / (avg_rate * burst);
    let off_mean_s = ON_MEAN_S * (burst - 1.0);
    let mut specs = Vec::new();
    for src in 0..n {
        let mut t = 0.0f64;
        // Desynchronize sources: start each at a random phase of its first
        // OFF period.
        if off_mean_s > 0.0 {
            t += rng.gen_f64() * (ON_MEAN_S + off_mean_s);
        }
        while t < duration.as_secs_f64() {
            let on_end = t + rng.gen_exp(ON_MEAN_S);
            let mut s = t + rng.gen_exp(on_gap_secs);
            while s < on_end && s < duration.as_secs_f64() {
                let mut dst = rng.gen_range(n - 1);
                if dst >= src {
                    dst += 1;
                }
                let bytes = dist.sample(rng);
                specs.push((SimTime::from_secs_f64(s), src, dst, bytes));
                s += rng.gen_exp(on_gap_secs);
            }
            t = on_end;
            if off_mean_s > 0.0 {
                t += rng.gen_exp(off_mean_s);
            }
        }
    }
    dense_ids(specs)
}

/// §4.2.4 partition-aggregate workload (Figure 5): jobs arrive Poisson with
/// aggregate intensity `load`; each job is `job_bytes` split evenly across
/// `fan_in` workers at uniformly random hosts, all sending simultaneously
/// to a uniformly random aggregator.
pub fn partition_aggregate(
    p: &FatTreeParams,
    load: f64,
    fan_in: u32,
    job_bytes: u64,
    duration: SimTime,
    rng: &mut DetRng,
) -> Vec<FlowSpec> {
    assert!(fan_in >= 1);
    let n = p.n_hosts() as u32;
    assert!(fan_in < n, "fan-in must leave room for the aggregator");
    // Jobs/s such that the offered bytes match the all-to-all convention.
    let offered_bps = load::fat_tree_offered_bps(p, load);
    let job_rate = offered_bps / (job_bytes as f64 * 8.0);
    let mean_gap_secs = 1.0 / job_rate;
    let per_worker = job_bytes / fan_in as u64;

    let mut specs = Vec::new();
    let mut t = SimTime::from_secs_f64(rng.gen_exp(mean_gap_secs));
    let mut job_id = 0u32;
    while t < duration {
        let aggregator = rng.gen_range(n);
        // Pick fan_in distinct workers != aggregator.
        let mut workers = Vec::with_capacity(fan_in as usize);
        while workers.len() < fan_in as usize {
            let w = rng.gen_range(n);
            if w != aggregator && !workers.contains(&w) {
                workers.push(w);
            }
        }
        for w in workers {
            specs.push((t, w, aggregator, per_worker, job_id));
        }
        job_id += 1;
        t += SimTime::from_secs_f64(rng.gen_exp(mean_gap_secs));
    }
    specs
        .into_iter()
        .enumerate()
        .map(|(id, (t, src, dst, bytes, job))| {
            FlowSpec::tcp(id as u32, src, dst, bytes, t).with_job(job)
        })
        .collect()
}

/// §4.3 testbed workload (Figure 8): the hosts of ToR `src_tor` initiate
/// `flow_bytes` flows to uniformly random other servers with exponential
/// inter-arrivals, cumulatively offering `load` of the ToR's uplink
/// capacity.
pub fn testbed_one_tor(
    p: &TestbedParams,
    tor_hosts: std::ops::Range<usize>,
    n_hosts: usize,
    load: f64,
    flow_bytes: u64,
    duration: SimTime,
    rng: &mut DetRng,
) -> Vec<FlowSpec> {
    let senders: Vec<HostId> = tor_hosts.clone().map(|h| h as HostId).collect();
    let rate = load::testbed_flow_rate_per_sender(p, senders.len(), load, flow_bytes as f64);
    let mean_gap_secs = 1.0 / rate;
    let mut specs = Vec::new();
    for &src in &senders {
        let mut t = SimTime::from_secs_f64(rng.gen_exp(mean_gap_secs));
        while t < duration {
            let mut dst = rng.gen_range(n_hosts as u32 - 1);
            if dst >= src {
                dst += 1;
            }
            specs.push((t, src, dst, flow_bytes));
            t += SimTime::from_secs_f64(rng.gen_exp(mean_gap_secs));
        }
    }
    dense_ids(specs)
}

/// §4.3.1 hotspot workload: a random shuffle of `flow_bytes` TCP flows from
/// ToR `src` hosts to ToR `dst` hosts at aggregate `tcp_bps`, plus one
/// rate-limited UDP flow (`udp_bps`) between the same ToR pair pinning a
/// hotspot onto whatever path it hashes to. The UDP flow has the **last**
/// flow id.
#[allow(clippy::too_many_arguments)]
pub fn hotspot(
    src_hosts: std::ops::Range<usize>,
    dst_hosts: std::ops::Range<usize>,
    tcp_bps: f64,
    udp_bps: u64,
    flow_bytes: u64,
    duration: SimTime,
    rng: &mut DetRng,
) -> Vec<FlowSpec> {
    let flow_rate = tcp_bps / (flow_bytes as f64 * 8.0);
    let mean_gap_secs = 1.0 / flow_rate;
    let mut raw = Vec::new();
    let mut t = SimTime::from_secs_f64(rng.gen_exp(mean_gap_secs));
    while t < duration {
        let src = src_hosts.start + rng.gen_index(src_hosts.len());
        let dst = dst_hosts.start + rng.gen_index(dst_hosts.len());
        raw.push((t, src as HostId, dst as HostId));
        t += SimTime::from_secs_f64(rng.gen_exp(mean_gap_secs));
    }
    let mut specs: Vec<FlowSpec> = raw
        .into_iter()
        .enumerate()
        .map(|(id, (t, src, dst))| FlowSpec::tcp(id as u32, src, dst, flow_bytes, t))
        .collect();
    let udp_src = src_hosts.start as HostId;
    let udp_dst = dst_hosts.start as HostId;
    specs.push(FlowSpec::udp(
        specs.len() as u32,
        udp_src,
        udp_dst,
        udp_bps,
        SimTime::ZERO,
    ));
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Proto;

    fn rng() -> DetRng {
        DetRng::new(42, 1)
    }

    #[test]
    fn microbench_pairs_tors_across_pods() {
        let p = FatTreeParams::paper();
        for n in [8u32, 16, 24] {
            let specs = microbench(&p, n, 250_000_000);
            assert_eq!(specs.len(), n as usize);
            for (i, s) in specs.iter().enumerate() {
                assert_eq!(s.id as usize, i);
                assert!(s.src < 8, "src in ToR 0 of pod 0");
                assert!((32..40).contains(&s.dst), "dst in ToR 0 of pod 1");
                assert_eq!(s.bytes, 250_000_000);
                assert_eq!(s.start, SimTime::ZERO);
            }
            // Per-host flow counts are balanced.
            let mut per_src = [0u32; 8];
            for s in &specs {
                per_src[s.src as usize] += 1;
            }
            assert!(per_src.iter().all(|&c| c == n / 8));
        }
    }

    #[test]
    fn all_to_all_hits_target_load() {
        let p = FatTreeParams::paper();
        let dist = FlowSizeDist::Fixed(1_000_000);
        let dur = SimTime::from_ms(500);
        let specs = all_to_all(&p, 0.4, dur, &dist, &mut rng());
        // Offered bits over the window vs expectation.
        let offered: f64 = specs.iter().map(|s| s.bytes as f64 * 8.0).sum();
        let expect = load::fat_tree_offered_bps(&p, 0.4) * dur.as_secs_f64();
        let rel = (offered - expect).abs() / expect;
        assert!(rel < 0.05, "offered {offered:.3e} vs expected {expect:.3e}");
        // Ids dense and starts sorted.
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.id as usize, i);
            assert_ne!(s.src, s.dst);
            assert!(s.start < dur);
            if i > 0 {
                assert!(specs[i - 1].start <= s.start);
            }
        }
    }

    #[test]
    fn all_to_all_destinations_are_spread() {
        let p = FatTreeParams::paper();
        let dist = FlowSizeDist::Fixed(100_000);
        let specs = all_to_all(&p, 0.4, SimTime::from_ms(200), &dist, &mut rng());
        let mut dst_seen = [false; 128];
        for s in &specs {
            dst_seen[s.dst as usize] = true;
        }
        let covered = dst_seen.iter().filter(|&&b| b).count();
        assert!(covered > 100, "only {covered}/128 destinations seen");
    }

    #[test]
    fn partition_aggregate_structure() {
        let p = FatTreeParams::paper();
        let specs = partition_aggregate(&p, 0.4, 8, 1_000_000, SimTime::from_ms(100), &mut rng());
        assert!(!specs.is_empty());
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.id as usize, i, "flow ids must be dense");
        }
        // Group by job: every job has exactly 8 flows of 125KB to one
        // aggregator, all starting together.
        let mut jobs: std::collections::BTreeMap<u32, Vec<&FlowSpec>> = Default::default();
        for s in &specs {
            jobs.entry(s.job.expect("every flow is in a job"))
                .or_default()
                .push(s);
        }
        for flows in jobs.values() {
            assert_eq!(flows.len(), 8);
            let agg = flows[0].dst;
            let t0 = flows[0].start;
            for f in flows {
                assert_eq!(f.dst, agg);
                assert_eq!(f.start, t0);
                assert_eq!(f.bytes, 125_000);
                assert_ne!(f.src, agg);
            }
            // Workers are distinct.
            let mut srcs: Vec<_> = flows.iter().map(|f| f.src).collect();
            srcs.sort_unstable();
            srcs.dedup();
            assert_eq!(srcs.len(), 8);
        }
    }

    #[test]
    fn testbed_one_tor_only_tor0_sends() {
        let p = TestbedParams::paper();
        let n = p.n_hosts();
        let specs = testbed_one_tor(
            &p,
            0..12,
            n,
            0.4,
            1_000_000,
            SimTime::from_ms(200),
            &mut rng(),
        );
        assert!(!specs.is_empty());
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.id as usize, i);
            assert!(s.src < 12);
            assert!((s.dst as usize) < n);
            assert_ne!(s.src, s.dst);
            assert_eq!(s.bytes, 1_000_000);
        }
    }

    #[test]
    fn hotspot_appends_one_udp_flow() {
        let specs = hotspot(
            0..12,
            12..24,
            14e9,
            6_000_000_000,
            1_000_000,
            SimTime::from_ms(50),
            &mut rng(),
        );
        let udp: Vec<_> = specs.iter().filter(|s| s.proto == Proto::Udp).collect();
        assert_eq!(udp.len(), 1);
        assert_eq!(udp[0].id as usize, specs.len() - 1);
        assert_eq!(udp[0].udp_rate_bps, 6_000_000_000);
        for s in specs.iter().filter(|s| s.proto == Proto::Tcp) {
            assert!((0..12).contains(&(s.src as usize)));
            assert!((12..24).contains(&(s.dst as usize)));
        }
        // TCP aggregate ~14Gbps over 50ms = 87.5MB = ~87 flows.
        let tcp_count = specs.len() - 1;
        assert!((60..120).contains(&tcp_count), "tcp flows = {tcp_count}");
    }

    #[test]
    fn generators_are_deterministic() {
        let p = FatTreeParams::paper();
        let dist = FlowSizeDist::web_search();
        let mk = || {
            let mut r = DetRng::new(9, 9);
            all_to_all(&p, 0.2, SimTime::from_ms(100), &dist, &mut r)
                .iter()
                .map(|s| (s.start, s.src, s.dst, s.bytes))
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }
}
