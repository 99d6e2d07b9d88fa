//! Streaming quantile sketches for flow-completion-time statistics at
//! millions of flows.
//!
//! [`QuantileSketch`] is a hand-rolled DDSketch-style quantile
//! summary: values are counted into logarithmically spaced buckets with
//! relative width `gamma = (1 + ALPHA) / (1 - ALPHA)`, so any quantile is
//! answered with relative error at most [`ALPHA`] (0.5 %, the one
//! accuracy in use) using memory proportional to the *value range* (a few
//! hundred buckets for microsecond-to-minute FCTs) — never to the number
//! of observations. Everything is deterministic (sorted bucket maps, no
//! randomness, no wall clock), in the same spirit as [`crate::Json`]: two
//! identical runs serialize and summarize byte-identically.
//!
//! [`FctAccumulator`] layers the flow-size bins on top: one overall sketch
//! plus one per [`crate::PAPER_BINS`] bin, fed incrementally one
//! completed flow at a time (`record(bytes, fct_s)`), so a run over 10^6+
//! flows needs O(buckets) stats memory instead of a `Vec<Sample>` per flow.

use std::collections::BTreeMap;

use crate::fct::{BinStats, Sample, PAPER_BINS};

/// The sketch's relative-accuracy guarantee: quantile estimates are
/// within `ALPHA * true_value` of the exact order statistic. 0.5 % sits
/// comfortably inside the 1 % equivalence budget with room for
/// rank-vs-interpolation slop.
pub const ALPHA: f64 = 0.005;

/// Values below this (in the caller's unit; seconds for FCTs) are counted
/// in a dedicated underflow bucket and reported as the observed minimum.
/// One picosecond is far below any representable simulated FCT.
const MIN_TRACKED: f64 = 1e-12;

/// A deterministic DDSketch-style quantile summary of
/// non-negative values, accurate to [`ALPHA`].
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    /// `ln(gamma)` with `gamma = (1 + ALPHA) / (1 - ALPHA)`.
    ln_gamma: f64,
    /// Observations counted.
    count: u64,
    /// Exact running sum (for exact means).
    sum: f64,
    /// Exact observed extremes.
    min: f64,
    max: f64,
    /// Count of values below [`MIN_TRACKED`].
    underflow: u64,
    /// Log-bucket index -> count. A `BTreeMap` keeps iteration sorted,
    /// which makes quantile walks and serialization deterministic.
    buckets: BTreeMap<i32, u64>,
}

impl QuantileSketch {
    /// An empty FCT sketch.
    pub fn for_fct() -> Self {
        let gamma = (1.0 + ALPHA) / (1.0 - ALPHA);
        QuantileSketch {
            ln_gamma: gamma.ln(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            underflow: 0,
            buckets: BTreeMap::new(),
        }
    }

    /// Count one value. Values must be finite and non-negative (FCTs are).
    pub fn add(&mut self, v: f64) {
        assert!(v.is_finite() && v >= 0.0, "sketch value {v} out of domain");
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v < MIN_TRACKED {
            self.underflow += 1;
        } else {
            let idx = (v.ln() / self.ln_gamma).ceil() as i32;
            *self.buckets.entry(idx).or_insert(0) += 1;
        }
    }

    /// Observations counted so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact arithmetic mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Exact minimum; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact running sum.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by the same nearest-rank convention as
    /// [`crate::fct::percentile`], accurate to [`ALPHA`] relative error;
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = self.underflow;
        if rank <= cum {
            return Some(self.min);
        }
        for (&idx, &c) in &self.buckets {
            cum += c;
            if cum >= rank {
                // Mid-point of the bucket (gamma^(idx-1), gamma^idx]:
                // 2*gamma^idx/(gamma+1), within ALPHA of any member.
                let gamma_idx = (self.ln_gamma * idx as f64).exp();
                let est = 2.0 * gamma_idx / ((self.ln_gamma.exp()) + 1.0);
                return Some(est.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Number of occupied buckets — the memory driver. Bounded by the
    /// dynamic range of the data (≈ `ln(max/min)/ln(gamma)`), independent
    /// of how many values were added.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Approximate heap footprint in bytes (BTreeMap entries plus the
    /// fixed header) — what "O(sketch), not O(flows)" means in numbers.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.buckets.len() * (std::mem::size_of::<(i32, u64)>() + 16)
    }
}

/// Streaming per-size-bin FCT statistics: the O(buckets) replacement for
/// collecting a `Vec<Sample>` and calling [`crate::fct::binned`].
///
/// Feed it one completed flow at a time; ask for the same [`BinStats`]
/// rows the exact path produces (counts and means exact, tail percentiles
/// within [`ALPHA`]).
#[derive(Debug, Clone)]
pub struct FctAccumulator {
    overall: QuantileSketch,
    /// One sketch per [`PAPER_BINS`] bin, in bin order.
    per_bin: [QuantileSketch; PAPER_BINS.len()],
}

impl Default for FctAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl FctAccumulator {
    /// An empty accumulator over the paper's bins.
    pub fn new() -> Self {
        FctAccumulator {
            overall: QuantileSketch::for_fct(),
            per_bin: std::array::from_fn(|_| QuantileSketch::for_fct()),
        }
    }

    /// Count one completed flow of `bytes` with completion time `fct_s`.
    pub fn record(&mut self, bytes: u64, fct_s: f64) {
        self.overall.add(fct_s);
        if let Some(i) = PAPER_BINS.iter().position(|b| b.contains(bytes)) {
            self.per_bin[i].add(fct_s);
        }
    }

    /// [`FctAccumulator::record`] from a [`Sample`].
    pub fn record_sample(&mut self, s: &Sample) {
        self.record(s.bytes, s.fct_s);
    }

    /// Flows recorded (all sizes).
    pub fn count(&self) -> u64 {
        self.overall.count()
    }

    /// The sketch over every recorded flow, for overall percentiles.
    pub fn overall(&self) -> &QuantileSketch {
        &self.overall
    }

    /// Per-bin summary rows, shaped exactly like [`crate::fct::binned`]:
    /// counts and means are exact; p99/p99.9 carry the sketch guarantee.
    pub fn binned(&self) -> Vec<BinStats> {
        PAPER_BINS
            .iter()
            .zip(&self.per_bin)
            .map(|(&bin, sk)| BinStats {
                bin,
                count: sk.count() as usize,
                mean_s: sk.mean(),
                p99_s: sk.quantile(0.99),
                p999_s: sk.quantile(0.999),
            })
            .collect()
    }

    /// Total occupied buckets across the overall and per-bin sketches.
    pub fn bucket_count(&self) -> usize {
        self.overall.bucket_count() + self.per_bin.iter().map(|s| s.bucket_count()).sum::<usize>()
    }

    /// Approximate heap footprint in bytes — flat in the flow count.
    pub fn memory_bytes(&self) -> usize {
        self.overall.memory_bytes() + self.per_bin.iter().map(|s| s.memory_bytes()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fct::percentile;

    /// Deterministic heavy-tailed pseudo-FCTs without pulling in a real
    /// RNG dependency: a simple xorshift over a log-uniform range.
    fn synth_fcts(n: usize, seed: u64) -> Vec<f64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let u = (x >> 11) as f64 / (1u64 << 53) as f64;
                // 10us .. 10s, log-uniform: a realistic FCT spread.
                1e-5 * (1e6f64).powf(u)
            })
            .collect()
    }

    #[test]
    fn quantiles_match_exact_within_alpha_at_10k() {
        // The acceptance bar: p50/p99/p99.9 within 1% relative error of
        // the exact nearest-rank values at 10k samples.
        let xs = synth_fcts(10_000, 42);
        let mut sk = QuantileSketch::for_fct();
        for &v in &xs {
            sk.add(v);
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = percentile(&xs, q).unwrap();
            let est = sk.quantile(q).unwrap();
            let rel = (est - exact).abs() / exact;
            assert!(rel < 0.01, "q={q}: exact {exact} vs sketch {est} ({rel})");
        }
        // Mean, min, max, count are exact.
        assert_eq!(sk.count(), 10_000);
        let exact_mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((sk.mean().unwrap() - exact_mean).abs() < 1e-12 * exact_mean.abs().max(1.0));
        assert_eq!(
            sk.min().unwrap(),
            xs.iter().cloned().fold(f64::INFINITY, f64::min)
        );
        assert_eq!(
            sk.max().unwrap(),
            xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        );
    }

    #[test]
    fn memory_is_flat_in_the_observation_count() {
        let mut small = QuantileSketch::for_fct();
        let mut big = QuantileSketch::for_fct();
        for &v in &synth_fcts(1_000, 7) {
            small.add(v);
        }
        for &v in &synth_fcts(100_000, 7) {
            big.add(v);
        }
        // 100x the data, same value range: bucket count stays in the same
        // ballpark (it can only grow toward the range-implied ceiling).
        assert!(big.bucket_count() < 4_000, "buckets {}", big.bucket_count());
        assert!(
            big.memory_bytes() < 64 * small.memory_bytes().max(1),
            "memory must not scale with n: {} vs {}",
            big.memory_bytes(),
            small.memory_bytes()
        );
    }

    #[test]
    fn empty_and_singleton_sketches() {
        let mut sk = QuantileSketch::for_fct();
        assert_eq!(sk.count(), 0);
        assert_eq!(sk.quantile(0.5), None);
        assert_eq!(sk.mean(), None);
        assert_eq!(sk.min(), None);
        sk.add(0.25);
        for q in [0.0, 0.5, 1.0] {
            let v = sk.quantile(q).unwrap();
            assert!((v - 0.25).abs() / 0.25 < 0.005, "q={q}: {v}");
        }
    }

    #[test]
    fn zero_values_count_toward_low_quantiles() {
        let mut sk = QuantileSketch::for_fct();
        for _ in 0..90 {
            sk.add(0.0);
        }
        for _ in 0..10 {
            sk.add(1.0);
        }
        assert_eq!(sk.quantile(0.5), Some(0.0), "median of mostly-zeros");
        let p99 = sk.quantile(0.99).unwrap();
        assert!((p99 - 1.0).abs() < 0.01, "p99 {p99}");
        assert_eq!(sk.min(), Some(0.0));
    }

    #[test]
    #[should_panic]
    fn rejects_nan() {
        QuantileSketch::for_fct().add(f64::NAN);
    }

    #[test]
    fn accumulator_matches_exact_binned_at_10k() {
        // Exact-vs-sketch equivalence over the full accumulator: same
        // counts, same means, tails within 1%.
        let mut vals = Vec::new();
        let mut x: u64 = 99;
        for i in 0..10_000usize {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let bytes = 1_000 + (x % 5_000_000);
            let fct = 1e-4 + (i as f64) * 1e-6 + (x % 1000) as f64 * 1e-5;
            vals.push(Sample { bytes, fct_s: fct });
        }
        let exact = crate::fct::binned(&vals);
        let mut acc = FctAccumulator::new();
        for s in &vals {
            acc.record_sample(s);
        }
        let sketched = acc.binned();
        assert_eq!(acc.count(), 10_000);
        for (e, s) in exact.iter().zip(&sketched) {
            assert_eq!(e.bin, s.bin);
            assert_eq!(e.count, s.count, "{}", e.bin.label);
            match (e.mean_s, s.mean_s) {
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9 * a.max(1.0)),
                (a, b) => assert_eq!(a.is_some(), b.is_some()),
            }
            for (ep, sp) in [(e.p99_s, s.p99_s), (e.p999_s, s.p999_s)] {
                if let (Some(a), Some(b)) = (ep, sp) {
                    assert!((a - b).abs() / a < 0.01, "{}: {a} vs {b}", e.bin.label);
                }
            }
        }
    }
}
