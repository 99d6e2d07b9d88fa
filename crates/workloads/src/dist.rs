//! Flow-size distributions.
//!
//! The paper's all-to-all and partition-aggregate experiments draw flow
//! sizes from a heavy-tailed distribution "modeled based on the data from
//! \[8\]" (Benson et al., *Network Traffic Characteristics of Data Centers in
//! the Wild*). The exact table isn't public, so [`FlowSizeDist::web_search`]
//! encodes a CDF with the properties the paper leans on: half the flows are
//! ≤ 10 KB, but the ≈10 % of flows above 1 MB carry the overwhelming
//! majority of the bytes — "a handful of long flows account for a large
//! fraction of network load".
//!
//! Sampling is inverse-transform with log-linear interpolation between CDF
//! knots, so sizes span the whole range rather than clustering on the knots.
//! Each built-in table carries its mean, which load calibration reads on
//! every generator call; the tests recompute it from the knots.

use netsim::DetRng;

/// A flow-size distribution.
#[derive(Debug, Clone, Copy)]
pub enum FlowSizeDist {
    /// Every flow has exactly this many bytes.
    Fixed(u64),
    /// Uniform between the two bounds (inclusive), in bytes.
    Uniform(u64, u64),
    /// One of the built-in piecewise log-linear CDFs.
    Cdf(&'static SizeTable),
}

/// A built-in CDF and its mean. Only this module makes one, so a table's
/// mean always belongs to its knots.
#[derive(Debug)]
pub struct SizeTable {
    /// `(bytes, cum_prob)` knots: bytes increasing, probabilities
    /// non-decreasing from 0 to 1.
    knots: &'static [(u64, f64)],
    /// Mean flow size in bytes: the stratified integral of the inverse CDF
    /// over 100 000 strata.
    mean: f64,
}

/// [`FlowSizeDist::web_search`].
static WEB_SEARCH: SizeTable = SizeTable {
    knots: &[
        (1_000, 0.00),
        (2_000, 0.12),
        (5_000, 0.30),
        (10_000, 0.50),
        (20_000, 0.60),
        (50_000, 0.70),
        (128_000, 0.78),
        (300_000, 0.84),
        (1_000_000, 0.90),
        (3_000_000, 0.95),
        (10_000_000, 0.98),
        (30_000_000, 0.995),
        (100_000_000, 1.00),
    ],
    mean: 889_783.269_15,
};

/// [`FlowSizeDist::data_mining`].
static DATA_MINING: SizeTable = SizeTable {
    knots: &[
        (100, 0.00),
        (300, 0.30),
        (1_000, 0.55),
        (3_000, 0.70),
        (10_000, 0.78),
        (100_000, 0.86),
        (1_000_000, 0.92),
        (10_000_000, 0.96),
        (100_000_000, 0.99),
        (1_000_000_000, 1.00),
    ],
    mean: 5_265_107.544_74,
};

impl FlowSizeDist {
    /// The heavy-tailed web-search-like distribution described above.
    ///
    /// Bin shares (the paper's Figure 3/4 bins):
    /// `[1 KB, 10 KB]` ≈ 50 % of flows, `(10 KB, 128 KB]` ≈ 28 %,
    /// `(128 KB, 1 MB]` ≈ 12 %, `> 1 MB` ≈ 10 % — the last bin carrying
    /// ≈ 85 % of all bytes.
    pub fn web_search() -> Self {
        FlowSizeDist::Cdf(&WEB_SEARCH)
    }

    /// The data-mining distribution from the DCTCP/VL2 measurement line
    /// (Greenberg et al., *VL2*; Alizadeh et al., *DCTCP*): even more
    /// extreme than web-search — the large majority of flows are tiny
    /// (≈ 80 % under 10 KB), but the tail stretches to 1 GB and flows
    /// above 1 MB carry ≈ 95 % of all bytes.
    ///
    /// Bin shares (the paper's Figure 3/4 bins): `[1 KB, 10 KB]` ≈ 78 %
    /// of flows, `(10 KB, 128 KB]` ≈ 8 %, `(128 KB, 1 MB]` ≈ 6 %,
    /// `> 1 MB` ≈ 8 % — with a mean near 5 MB, an order of magnitude
    /// above web-search's.
    pub fn data_mining() -> Self {
        FlowSizeDist::Cdf(&DATA_MINING)
    }

    /// Draw one flow size.
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        match self {
            FlowSizeDist::Fixed(b) => *b,
            FlowSizeDist::Uniform(lo, hi) => lo + (rng.gen_f64() * (hi - lo + 1) as f64) as u64,
            FlowSizeDist::Cdf(table) => Self::inverse(table.knots, rng.gen_f64()),
        }
    }

    /// Inverse CDF at probability `p` with log-linear interpolation.
    fn inverse(knots: &[(u64, f64)], p: f64) -> u64 {
        debug_assert!((0.0..1.0).contains(&p));
        for w in knots.windows(2) {
            let (b0, p0) = w[0];
            let (b1, p1) = w[1];
            if p <= p1 {
                if p1 <= p0 {
                    return b1;
                }
                let t = (p - p0) / (p1 - p0);
                let log_b = (b0 as f64).ln() + t * ((b1 as f64).ln() - (b0 as f64).ln());
                return log_b.exp().round().max(1.0) as u64;
            }
        }
        knots.last().unwrap().0
    }

    /// Mean flow size in bytes (a table's stored mean is accurate to
    /// ≈0.1 % — plenty for load calibration).
    ///
    /// # Panics
    /// On zero-size flows or reversed uniform bounds.
    pub fn mean_bytes(&self) -> f64 {
        match *self {
            FlowSizeDist::Fixed(b) => {
                assert!(b > 0, "zero-size flows");
                b as f64
            }
            FlowSizeDist::Uniform(lo, hi) => {
                assert!(lo > 0 && lo <= hi, "bad uniform bounds {lo}..{hi}");
                (lo as f64 + hi as f64) / 2.0
            }
            FlowSizeDist::Cdf(table) => table.mean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::new(7, 7)
    }

    /// CDF monotonicity: bytes increase, probabilities run from 0 to 1
    /// without decreasing.
    fn validate(knots: &[(u64, f64)]) {
        assert!(knots.len() >= 2, "CDF needs at least two knots");
        assert_eq!(knots.first().unwrap().1, 0.0, "CDF must start at 0");
        assert_eq!(knots.last().unwrap().1, 1.0, "CDF must end at 1");
        for w in knots.windows(2) {
            assert!(w[0].0 < w[1].0, "CDF bytes must increase");
            assert!(w[0].1 <= w[1].1, "CDF probs must not decrease");
        }
    }

    /// The mean of the inverse CDF by deterministic stratified quadrature
    /// over 100 000 strata.
    fn stratified_mean(knots: &[(u64, f64)]) -> f64 {
        const STRATA: usize = 100_000;
        let mut sum = 0.0;
        for i in 0..STRATA {
            let p = (i as f64 + 0.5) / STRATA as f64;
            sum += FlowSizeDist::inverse(knots, p) as f64;
        }
        sum / STRATA as f64
    }

    /// Each table is well formed and stores the stratified integral of its
    /// knots to the bit (every load calibration, so every arrival time,
    /// reads it).
    #[test]
    fn tables_are_valid_and_store_their_stratified_mean() {
        for (d, bits) in [
            (FlowSizeDist::web_search(), 0x412b_276e_89ce_075f_u64),
            (FlowSizeDist::data_mining(), 0x4154_15b4_e2dd_0529),
        ] {
            let FlowSizeDist::Cdf(table) = d else {
                unreachable!()
            };
            validate(table.knots);
            assert_eq!(stratified_mean(table.knots).to_bits(), bits);
            assert_eq!(table.mean.to_bits(), bits);
        }
    }

    #[test]
    fn fixed_is_fixed() {
        let d = FlowSizeDist::Fixed(1_000_000);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut r), 1_000_000);
        }
        assert_eq!(d.mean_bytes(), 1_000_000.0);
    }

    #[test]
    fn uniform_stays_in_bounds_with_right_mean() {
        let d = FlowSizeDist::Uniform(1_000, 9_000);
        assert_eq!(d.mean_bytes(), 5_000.0);
        let mut r = rng();
        let n = 50_000;
        let mut sum = 0u64;
        for _ in 0..n {
            let s = d.sample(&mut r);
            assert!((1_000..=9_000).contains(&s));
            sum += s;
        }
        let mean = sum as f64 / n as f64;
        assert!((mean - 5_000.0).abs() < 60.0, "mean = {mean}");
    }

    #[test]
    fn web_search_is_valid_and_heavy_tailed() {
        let d = FlowSizeDist::web_search();
        let mut r = rng();
        let n = 200_000;
        let mut small = 0u64; // <= 10KB flows
        let mut big = 0u64; // > 1MB flows
        let mut big_bytes = 0u64;
        let mut total_bytes = 0u64;
        for _ in 0..n {
            let s = d.sample(&mut r);
            assert!((1_000..=100_000_000).contains(&s));
            total_bytes += s;
            if s <= 10_000 {
                small += 1;
            }
            if s > 1_000_000 {
                big += 1;
                big_bytes += s;
            }
        }
        let small_frac = small as f64 / n as f64;
        let big_frac = big as f64 / n as f64;
        let big_byte_share = big_bytes as f64 / total_bytes as f64;
        assert!(
            (0.45..0.55).contains(&small_frac),
            "small flows: {small_frac}"
        );
        assert!((0.07..0.13).contains(&big_frac), "big flows: {big_frac}");
        assert!(
            big_byte_share > 0.75,
            "byte share of >1MB flows: {big_byte_share}"
        );
    }

    #[test]
    fn web_search_mean_matches_samples() {
        let d = FlowSizeDist::web_search();
        let analytic = d.mean_bytes();
        let mut r = rng();
        let n = 400_000;
        let sampled: f64 = (0..n).map(|_| d.sample(&mut r) as f64).sum::<f64>() / n as f64;
        let rel = (analytic - sampled).abs() / analytic;
        assert!(rel < 0.02, "analytic {analytic} vs sampled {sampled}");
    }

    #[test]
    fn data_mining_is_valid_and_tinier_flows_heavier_tail() {
        // CDF-shape sanity against the published distribution: the mass
        // of flows is tiny, the mass of bytes is in the giant tail, and
        // the mean sits an order of magnitude above web-search's.
        let d = FlowSizeDist::data_mining();
        let mut r = rng();
        let n = 200_000;
        let mut tiny = 0u64; // <= 10KB flows
        let mut big_bytes = 0u64; // bytes in > 1MB flows
        let mut total_bytes = 0u64;
        for _ in 0..n {
            let s = d.sample(&mut r);
            assert!((100..=1_000_000_000).contains(&s));
            total_bytes += s;
            if s <= 10_000 {
                tiny += 1;
            }
            if s > 1_000_000 {
                big_bytes += s;
            }
        }
        let tiny_frac = tiny as f64 / n as f64;
        let big_byte_share = big_bytes as f64 / total_bytes as f64;
        assert!((0.73..0.83).contains(&tiny_frac), "tiny flows: {tiny_frac}");
        assert!(
            big_byte_share > 0.90,
            "byte share of >1MB flows: {big_byte_share}"
        );
        // Percentile spot checks straight off the knots.
        let FlowSizeDist::Cdf(table) = d else {
            unreachable!()
        };
        assert_eq!(FlowSizeDist::inverse(table.knots, 0.55), 1_000);
        assert_eq!(FlowSizeDist::inverse(table.knots, 0.78), 10_000);
        assert_eq!(FlowSizeDist::inverse(table.knots, 0.92), 1_000_000);
        // Mean near 5 MB, ~8x web-search's ~600KB.
        let mean = d.mean_bytes();
        assert!(
            (3e6..8e6).contains(&mean),
            "data-mining mean {mean} out of expected band"
        );
        assert!(mean > 4.0 * FlowSizeDist::web_search().mean_bytes());
    }

    #[test]
    fn inverse_cdf_is_monotone() {
        let mut prev = 0;
        for i in 0..1000 {
            let p = i as f64 / 1000.0;
            let v = FlowSizeDist::inverse(WEB_SEARCH.knots, p);
            assert!(v >= prev, "non-monotone at p={p}");
            prev = v;
        }
    }

    #[test]
    #[should_panic]
    fn cdf_must_start_at_zero() {
        validate(&[(10, 0.5), (20, 1.0)]);
    }

    #[test]
    #[should_panic]
    fn cdf_bytes_must_increase() {
        validate(&[(10, 0.0), (10, 1.0)]);
    }
}
