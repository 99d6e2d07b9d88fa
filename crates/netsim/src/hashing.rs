//! ECMP hash engine.
//!
//! Commodity switches pick an equal-cost next hop by hashing header fields
//! of each packet; all packets of one flow hash identically, so a flow
//! sticks to one path. FlowBender's deployment trick (paper §3.3.2) is to
//! configure this hash to additionally cover a "flexible" field — TTL or
//! VLAN id — that end hosts may change at will, giving hosts a per-flow
//! path selector without any switch hardware change.
//!
//! [`HashConfig`] captures that switch configuration: whether the V-field is
//! included. Each switch uses its own random salt, modelling the per-switch
//! hash-seed diversity of real silicon (without it, consecutive hops would
//! make correlated choices and some paths would be unreachable).
//!
//! The module also hosts [`FxHasher`]/[`FxBuildHasher`]: an in-tree,
//! dependency-free FxHash-style [`std::hash::Hasher`] for the simulator's
//! per-packet hash maps. `std`'s default SipHash is keyed with per-process
//! random state — both slow (per-packet cost on the flowlet path) and
//! non-deterministic in iteration order. FxHash is a few-cycle multiply-mix,
//! with no random state, so [`DetHashMap`] is deterministic across runs and
//! processes.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use crate::packet::{Packet, Proto};

/// Which header fields the switches' ECMP hash covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashConfig {
    /// Classic 5-tuple hash; the V-field is ignored. This is plain ECMP:
    /// a flow's path can never change.
    FiveTuple,
    /// 5-tuple plus the FlowBender V-field ("a handful of configuration
    /// commands" on real switches). Changing V re-hashes the flow.
    FiveTupleAndVField,
}

/// A per-switch ECMP hasher.
#[derive(Debug, Clone)]
pub struct EcmpHasher {
    config: HashConfig,
    salt: u64,
}

impl EcmpHasher {
    /// Build a hasher with the given field configuration and per-switch salt.
    pub fn new(config: HashConfig, salt: u64) -> Self {
        EcmpHasher { config, salt }
    }

    /// The field configuration in use.
    pub fn config(&self) -> HashConfig {
        self.config
    }

    /// Hash a packet's headers to a 64-bit value.
    #[inline]
    pub fn hash(&self, pkt: &Packet) -> u64 {
        let proto = match pkt.key.proto {
            Proto::Tcp => 6u64,
            Proto::Udp => 17u64,
        };
        let mut x = (pkt.key.src as u64) << 32 | pkt.key.dst as u64;
        x = mix(x ^ self.salt);
        x = mix(x ^ ((pkt.key.sport as u64) << 32 | (pkt.key.dport as u64) << 8 | proto));
        if self.config == HashConfig::FiveTupleAndVField {
            x = mix(x ^ (0xA5A5_0000 | pkt.vfield as u64));
        }
        x
    }

    /// Pick an index in `[0, n)` for this packet, as a hardware ECMP engine
    /// would (hash modulo group size). Panics if `n == 0`.
    #[inline]
    pub fn select(&self, pkt: &Packet, n: usize) -> usize {
        assert!(n > 0, "ECMP group must be non-empty");
        (self.hash(pkt) % n as u64) as usize
    }

    /// Weighted-cost multipath selection: pick an index into `weights`
    /// proportionally to the weights, still deterministically per flow
    /// (hash-based). Used by the WCMP discussion of paper §4.3.1.
    /// Panics if all weights are zero.
    pub fn select_weighted(&self, pkt: &Packet, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        assert!(total > 0, "WCMP weights must not all be zero");
        let mut point = self.hash(pkt) % total;
        for (i, &w) in weights.iter().enumerate() {
            if point < w as u64 {
                return i;
            }
            point -= w as u64;
        }
        unreachable!("point must fall within total weight")
    }
}

/// Multiplier used by the FxHash word mixer (the golden-ratio-derived
/// constant rustc's own FxHash uses for 64-bit words).
const FX_K: u64 = 0x517c_c1b7_2722_0a95;

/// An FxHash-style streaming hasher: rotate, xor, multiply per word.
///
/// Not cryptographic and not DoS-resistant — exactly right for interior
/// simulator state keyed by trusted values (flow hashes, flow ids), where
/// per-packet SipHash latency is pure waste.
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]: stateless, so every map built with it
/// hashes identically in every process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A `HashMap` with deterministic, cheap hashing — the map type for all
/// per-packet interior state (flowlet tables, flow demux maps, telemetry
/// series indices).
pub type DetHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// splitmix64-style finalizer: a fast, well-mixed 64-bit permutation.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowKey, Packet};
    use crate::time::SimTime;

    fn pkt(src: u16, sport: u16, v: u8) -> Packet {
        let key = FlowKey {
            src,
            dst: 99,
            sport,
            dport: 80,
            proto: Proto::Tcp,
        };
        Packet::data(0, key, v, 0, 1460, SimTime::ZERO)
    }

    #[test]
    fn same_flow_same_path() {
        let h = EcmpHasher::new(HashConfig::FiveTupleAndVField, 1234);
        let a = h.select(&pkt(1, 1000, 5), 8);
        for _ in 0..10 {
            assert_eq!(h.select(&pkt(1, 1000, 5), 8), a);
        }
    }

    #[test]
    fn vfield_ignored_in_five_tuple_mode() {
        let h = EcmpHasher::new(HashConfig::FiveTuple, 1234);
        for v in 0..=255u8 {
            assert_eq!(h.hash(&pkt(1, 1000, v)), h.hash(&pkt(1, 1000, 0)));
        }
    }

    #[test]
    fn vfield_changes_hash_in_flowbender_mode() {
        let h = EcmpHasher::new(HashConfig::FiveTupleAndVField, 1234);
        // Over 8 ports and 8 V values, at least two different ports should
        // be reachable (overwhelmingly likely; deterministic given the salt).
        let ports: std::collections::HashSet<usize> =
            (0..8).map(|v| h.select(&pkt(1, 1000, v), 8)).collect();
        assert!(
            ports.len() > 1,
            "changing V should change the selected port"
        );
    }

    #[test]
    fn different_salts_decorrelate_switches() {
        let h1 = EcmpHasher::new(HashConfig::FiveTuple, 1);
        let h2 = EcmpHasher::new(HashConfig::FiveTuple, 2);
        let same = (0..256)
            .filter(|&s| h1.select(&pkt(s, 1000, 0), 8) == h2.select(&pkt(s, 1000, 0), 8))
            .count();
        // Random agreement would be ~32/256; allow wide slack but rule out
        // full correlation.
        assert!(
            same < 96,
            "salts should decorrelate selections, {same} agreed"
        );
    }

    #[test]
    fn selection_is_roughly_uniform_over_flows() {
        let h = EcmpHasher::new(HashConfig::FiveTuple, 77);
        let mut counts = [0usize; 4];
        for s in 0..4000u16 {
            counts[h.select(&pkt(s, s % 5000, 0), 4)] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "skewed: {counts:?}");
        }
    }

    #[test]
    fn weighted_selection_respects_weights() {
        let h = EcmpHasher::new(HashConfig::FiveTuple, 9);
        let weights = [3, 1];
        let mut counts = [0usize; 2];
        for s in 0..8000u16 {
            counts[h.select_weighted(&pkt(s, s % 997, 0), &weights)] += 1;
        }
        let frac = counts[0] as f64 / 8000.0;
        assert!(
            (0.70..0.80).contains(&frac),
            "expected ~75% on port 0, got {frac}"
        );
    }

    #[test]
    #[should_panic]
    fn empty_group_panics() {
        let h = EcmpHasher::new(HashConfig::FiveTuple, 9);
        h.select(&pkt(1, 1, 0), 0);
    }

    #[test]
    fn fx_hasher_is_deterministic_and_spreads() {
        let hash_one = |x: u64| {
            let mut h = FxBuildHasher.build_hasher();
            h.write_u64(x);
            h.finish()
        };
        // Same input, same output — across fresh hashers (no hidden state).
        assert_eq!(hash_one(42), hash_one(42));
        assert_ne!(hash_one(42), hash_one(43));
        // Sequential keys must not collide in the low bits a HashMap uses.
        let low: std::collections::HashSet<u64> = (0..1024u64).map(|x| hash_one(x) % 64).collect();
        assert!(low.len() > 32, "low-bit spread too poor: {}", low.len());
    }

    #[test]
    fn fx_hasher_byte_stream_matches_tail_padding() {
        // write() must consume any length; differing tails must differ.
        let digest = |bytes: &[u8]| {
            let mut h = FxHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(digest(b"abcdefghij"), digest(b"abcdefghij"));
        assert_ne!(digest(b"abcdefghij"), digest(b"abcdefghik"));
        // A difference confined to the sub-8-byte tail must still matter.
        assert_ne!(digest(b"abcdefgh\x01"), digest(b"abcdefgh\x02"));
    }

    #[test]
    fn det_hash_map_behaves_like_a_map() {
        let mut m: DetHashMap<u64, u32> = DetHashMap::default();
        for i in 0..100u64 {
            m.insert(i, (i * 2) as u32);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&40), Some(&80));
        assert_eq!(m.remove(&40), Some(80));
        assert_eq!(m.get(&40), None);
    }
}
