//! Streaming flow generation for runs too large to hold their flow list.
//!
//! The batch generators materialize a `Vec<FlowSpec>` and sort it — fine
//! at experiment scale, but a million-flow trace costs hundreds of MB and
//! a giant sort before the first flow is usable. [`PoissonStream`]
//! produces the same *kind* of workload (per-source Poisson arrivals,
//! i.i.d. sizes, uniform destinations) as an iterator that yields flows
//! already in arrival order with dense ids, using O(hosts) memory: one
//! RNG and one pending arrival per source, merged through a binary heap.
//!
//! Per-source randomness comes from [`DetRng::split`], so the stream is
//! deterministic in `(seed, host count)` and — unlike the batch path —
//! each source's sequence is independent of every other's.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use netsim::{DetRng, FlowSpec, SimTime};
use topology::FatTreeParams;

use crate::dist::FlowSizeDist;
use crate::load;

/// An endless-until-`duration` merged Poisson arrival process over all
/// hosts, yielding [`FlowSpec`]s in nondecreasing start order with dense
/// ids `0..`.
pub struct PoissonStream {
    dist: FlowSizeDist,
    n: u32,
    mean_gap_secs: f64,
    duration: SimTime,
    /// Next pending arrival per source, merged smallest-first. Keyed
    /// `(time, src)` so ties break exactly like the batch sort.
    heap: BinaryHeap<Reverse<(SimTime, u32)>>,
    rngs: Vec<DetRng>,
    next_id: u32,
}

impl PoissonStream {
    /// A stream over `p`'s hosts at pod-uplink utilization `load`, flow
    /// sizes from `dist`, arrivals in `[0, duration)`. `base` seeds one
    /// independent per-source RNG via [`DetRng::split`].
    pub fn new(
        p: &FatTreeParams,
        load: f64,
        duration: SimTime,
        dist: FlowSizeDist,
        base: &DetRng,
    ) -> Self {
        let n = p.n_hosts() as u32;
        assert!(n >= 2);
        let rate = load::fat_tree_flow_rate_per_host(p, load, dist.mean_bytes());
        let mean_gap_secs = 1.0 / rate;
        let mut rngs: Vec<DetRng> = (0..n).map(|src| base.split(src as u64)).collect();
        let mut heap = BinaryHeap::with_capacity(n as usize);
        for src in 0..n {
            let t = SimTime::from_secs_f64(rngs[src as usize].gen_exp(mean_gap_secs));
            if t < duration {
                heap.push(Reverse((t, src)));
            }
        }
        PoissonStream {
            dist,
            n,
            mean_gap_secs,
            duration,
            heap,
            rngs,
            next_id: 0,
        }
    }

    /// Flows yielded so far.
    pub fn emitted(&self) -> u32 {
        self.next_id
    }
}

impl Iterator for PoissonStream {
    type Item = FlowSpec;

    fn next(&mut self) -> Option<FlowSpec> {
        let Reverse((t, src)) = self.heap.pop()?;
        let rng = &mut self.rngs[src as usize];
        let mut dst = rng.gen_range(self.n - 1);
        if dst >= src {
            dst += 1;
        }
        let bytes = self.dist.sample(rng);
        let succ = t + SimTime::from_secs_f64(rng.gen_exp(self.mean_gap_secs));
        if succ < self.duration {
            self.heap.push(Reverse((succ, src)));
        }
        let id = self.next_id;
        self.next_id += 1;
        Some(FlowSpec::tcp(id, src, dst, bytes, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> DetRng {
        DetRng::new(0x57AE, 0)
    }

    #[test]
    fn stream_is_sorted_dense_and_deterministic() {
        let p = FatTreeParams::paper();
        let mk = || {
            PoissonStream::new(
                &p,
                0.3,
                SimTime::from_ms(50),
                FlowSizeDist::web_search(),
                &base(),
            )
            .map(|s| (s.id, s.src, s.dst, s.bytes, s.start))
            .collect::<Vec<_>>()
        };
        let a = mk();
        assert_eq!(a, mk(), "same seed, same stream");
        assert!(!a.is_empty());
        for (i, s) in a.iter().enumerate() {
            assert_eq!(s.0 as usize, i, "dense ids");
            assert_ne!(s.1, s.2, "no self-sends");
            assert!(s.4 < SimTime::from_ms(50));
            if i > 0 {
                assert!(a[i - 1].4 <= s.4, "arrival-sorted");
            }
        }
    }

    #[test]
    fn stream_hits_target_load() {
        let p = FatTreeParams::paper();
        let dur = SimTime::from_ms(500);
        let stream = PoissonStream::new(&p, 0.4, dur, FlowSizeDist::Fixed(1_000_000), &base());
        let offered: f64 = stream.map(|s| s.bytes as f64 * 8.0).sum();
        let expect = load::fat_tree_offered_bps(&p, 0.4) * dur.as_secs_f64();
        let rel = (offered - expect).abs() / expect;
        assert!(rel < 0.05, "offered {offered:.3e} vs expected {expect:.3e}");
    }

    #[test]
    fn memory_is_per_host_not_per_flow() {
        // The struct holds one RNG + one heap slot per host; generating
        // 10x more flows (longer duration) allocates nothing extra.
        let p = FatTreeParams::paper();
        let short: Vec<_> = PoissonStream::new(
            &p,
            0.3,
            SimTime::from_ms(20),
            FlowSizeDist::Fixed(1_000_000),
            &base(),
        )
        .collect();
        let mut long = PoissonStream::new(
            &p,
            0.3,
            SimTime::from_ms(200),
            FlowSizeDist::Fixed(1_000_000),
            &base(),
        );
        assert!(long.heap.capacity() <= 2 * p.n_hosts());
        let n_long = long.by_ref().count();
        assert!(n_long > 5 * short.len());
        assert!(long.heap.capacity() <= 2 * p.n_hosts(), "heap never grew");
    }

    #[test]
    fn per_source_sequences_are_split_independent() {
        // Each source's subsequence repeats, whatever the others drew.
        let p = FatTreeParams::paper();
        let all: Vec<_> = PoissonStream::new(
            &p,
            0.3,
            SimTime::from_ms(50),
            FlowSizeDist::web_search(),
            &base(),
        )
        .collect();
        // Regenerate and compare each source's subsequence by key fields.
        let again: Vec<_> = PoissonStream::new(
            &p,
            0.3,
            SimTime::from_ms(50),
            FlowSizeDist::web_search(),
            &base(),
        )
        .collect();
        for src in [0u32, 7, 127] {
            let sub = |v: &[FlowSpec]| {
                v.iter()
                    .filter(|s| s.src == src)
                    .map(|s| (s.dst, s.bytes, s.start))
                    .collect::<Vec<_>>()
            };
            assert_eq!(sub(&all), sub(&again));
            assert!(!sub(&all).is_empty(), "src {src} sent something");
        }
    }
}
