//! Property tests over the whole workload registry: every registered
//! workload, at every probed seed, must generate byte-identical flow
//! lists across two runs and keep flow ids dense and arrival-sorted.
//! These are the invariants downstream consumers (agent installation,
//! the flight recorder) silently rely on.

use std::hash::{Hash, Hasher};

use netsim::{DetRng, FlowSpec, FxHasher, SimTime};
use topology::FatTreeParams;
use workloads::{registry, PoissonStream};

/// A few milliseconds keeps per-case flow counts in the tens-to-hundreds
/// — enough to exercise every code path (datamining's ~5 MB mean size
/// makes its arrival rate ~10x sparser than websearch's) without making
/// the product of (workloads x seeds) slow.
const DURATION: SimTime = SimTime::from_ms(5);
const LOAD: f64 = 0.4;
const SEEDS: [u64; 5] = [0, 1, 42, 0xDEAD_BEEF, u64::MAX];

fn key(s: &FlowSpec) -> (u32, u32, u32, u64, SimTime, Option<u32>) {
    (s.id, s.src, s.dst, s.bytes, s.start, s.job)
}

#[test]
fn every_workload_is_deterministic_at_every_seed() {
    let p = FatTreeParams::paper();
    for w in registry() {
        for seed in SEEDS {
            let run = || {
                let mut rng = DetRng::new(seed, 0x3017);
                w.generate(&p, LOAD, DURATION, &mut rng)
                    .iter()
                    .map(key)
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                run(),
                run(),
                "{} not byte-identical at seed {seed}",
                w.name()
            );
        }
    }
}

#[test]
fn every_workload_yields_dense_sorted_ids_and_sane_flows() {
    let p = FatTreeParams::paper();
    let n = p.n_hosts() as u32;
    for w in registry() {
        for seed in SEEDS {
            let mut rng = DetRng::new(seed, 0x3017);
            let specs = w.generate(&p, LOAD, DURATION, &mut rng);
            assert!(
                !specs.is_empty(),
                "{} generated nothing at seed {seed}",
                w.name()
            );
            for (i, s) in specs.iter().enumerate() {
                assert_eq!(s.id as usize, i, "{}: ids dense+sorted", w.name());
                assert!(s.src < n && s.dst < n, "{}: hosts in range", w.name());
                assert_ne!(s.src, s.dst, "{}: no self-sends", w.name());
                assert!(s.bytes > 0, "{}: empty flow", w.name());
            }
            // Arrival-sorted within TCP flows (UDP pins may start at 0).
            let starts: Vec<_> = specs.iter().map(|s| s.start).collect();
            assert!(
                starts.windows(2).all(|w2| w2[0] <= w2[1]),
                "{}: starts sorted at seed {seed}",
                w.name()
            );
        }
    }
}

/// One `FxHasher` digest over a flow list's `(id, src, dst, bytes, start,
/// job)` tuples, in order.
fn digest(specs: &[FlowSpec]) -> u64 {
    let mut h = FxHasher::default();
    for s in specs {
        key(s).hash(&mut h);
    }
    h.finish()
}

/// Every registered workload's flow list at seeds 1 and 42, by slug. The
/// determinism tests above compare two runs of one build; these digests
/// compare against the flow lists the generators produced when they were
/// pinned, so a refactor that reorders an RNG draw or a sort fails here.
const PINNED: [(&str, u64, u64); 6] = [
    ("websearch", 11285411337837387366, 15970933469247740087),
    ("datamining", 7541966564270528662, 1706985280474068511),
    ("alltoall_1mb", 13555233367091188031, 6129491810689353718),
    ("incast_32_1", 11047800309600622327, 16695011739631536332),
    ("hotspot_z_1", 7275477028373411010, 6143869812712555160),
    ("onoff_burst_5", 15964206817017335324, 2849692881765570760),
];

#[test]
fn every_workload_matches_its_pinned_flow_list_digest() {
    let p = FatTreeParams::paper();
    let got: Vec<(String, u64, u64)> = registry()
        .iter()
        .map(|w| {
            let at = |seed: u64| {
                let mut rng = DetRng::new(seed, 0x3017);
                digest(&w.generate(&p, LOAD, DURATION, &mut rng))
            };
            (w.slug(), at(1), at(42))
        })
        .collect();
    let want: Vec<(String, u64, u64)> = PINNED
        .iter()
        .map(|&(slug, a, b)| (slug.to_string(), a, b))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn different_seeds_actually_change_the_traffic() {
    // Guards against a registry entry accidentally ignoring its RNG.
    let p = FatTreeParams::paper();
    for w in registry() {
        let gen_with = |seed: u64| {
            let mut rng = DetRng::new(seed, 0x3017);
            w.generate(&p, LOAD, DURATION, &mut rng)
                .iter()
                .map(key)
                .collect::<Vec<_>>()
        };
        assert_ne!(
            gen_with(1),
            gen_with(2),
            "{} ignores its seed entirely",
            w.name()
        );
    }
}

#[test]
fn streaming_path_matches_streaming_path_not_batch() {
    // The streamable workloads advertise a dist; the stream built from it
    // must itself be deterministic and well-formed (it intentionally uses
    // a different RNG interleave than the batch path, so batch-vs-stream
    // equality is NOT expected — determinism of each path is).
    let p = FatTreeParams::paper();
    for w in registry() {
        let Some(dist) = w.stream_dist() else {
            continue;
        };
        let mk = || {
            PoissonStream::new(&p, LOAD, DURATION, dist, &DetRng::new(7, 0x57AE))
                .map(|s| key(&s))
                .collect::<Vec<_>>()
        };
        let a = mk();
        assert_eq!(a, mk(), "{}: stream deterministic", w.name());
        assert!(!a.is_empty(), "{}: stream produced flows", w.name());
        for (i, s) in a.iter().enumerate() {
            assert_eq!(s.0 as usize, i, "{}: stream ids dense", w.name());
        }
    }
}
