//! Flow-completion-time statistics: filtering, percentiles, and the
//! paper's size bins ([`PAPER_BINS`], the one bin set every binned table
//! uses).

use netsim::{FlowRecord, Proto, SimTime};

/// One completed flow, reduced to what the figures need.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Flow size in bytes.
    pub bytes: u64,
    /// Flow completion time in seconds.
    pub fct_s: f64,
}

/// Extract completed TCP flows as samples, keeping only flows that
/// *arrived* within `[window_start, window_end)` (standard warm-up /
/// cool-down trimming: late arrivals that couldn't finish before the run
/// ended must not be counted, and neither should a cold-start transient).
pub fn samples(records: &[FlowRecord], window_start: SimTime, window_end: SimTime) -> Vec<Sample> {
    records
        .iter()
        .filter(|r| r.proto == Proto::Tcp)
        .filter(|r| r.start >= window_start && r.start < window_end)
        .filter_map(|r| {
            r.fct().map(|fct| Sample {
                bytes: r.bytes,
                fct_s: fct.as_secs_f64(),
            })
        })
        .collect()
}

/// Fraction of TCP flows arriving in the window that completed (a run
/// health check: should be ~1.0 when the drain period is adequate).
pub fn completion_fraction(
    records: &[FlowRecord],
    window_start: SimTime,
    window_end: SimTime,
) -> f64 {
    let in_window: Vec<_> = records
        .iter()
        .filter(|r| r.proto == Proto::Tcp && r.start >= window_start && r.start < window_end)
        .collect();
    if in_window.is_empty() {
        return 1.0;
    }
    let done = in_window.iter().filter(|r| r.fct().is_some()).count();
    done as f64 / in_window.len() as f64
}

/// Arithmetic mean; `None` on empty input.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// The `p`-quantile (0 ≤ p ≤ 1) by the nearest-rank method on a sorted
/// copy; `None` on empty input.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    assert!((0.0..=1.0).contains(&p), "quantile {p} out of range");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Empirical CDF of `xs` sampled at `n` evenly spaced quantiles, as
/// `(value, cumulative_probability)` pairs — the raw material for the
/// paper-style latency CDF plots. Empty input yields an empty vec.
pub fn cdf_points(xs: &[f64], n: usize) -> Vec<(f64, f64)> {
    if xs.is_empty() || n == 0 {
        return Vec::new();
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
    (1..=n)
        .map(|i| {
            let p = i as f64 / n as f64;
            let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            (sorted[rank - 1], p)
        })
        .collect()
}

/// A half-open flow-size bin `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeBin {
    /// Human-readable label (the paper's axis labels).
    pub label: &'static str,
    /// Inclusive lower bound, bytes.
    pub lo: u64,
    /// Exclusive upper bound, bytes.
    pub hi: u64,
}

impl SizeBin {
    /// True if `bytes` falls in this bin.
    ///
    /// Edge cases are pinned by tests: a degenerate bin with `lo >= hi`
    /// contains nothing, and `hi == u64::MAX` means "unbounded above" —
    /// it admits `bytes == u64::MAX` rather than silently excluding the
    /// one value the half-open convention can't express.
    pub fn contains(&self, bytes: u64) -> bool {
        if self.lo >= self.hi {
            return false;
        }
        bytes >= self.lo && (bytes < self.hi || self.hi == u64::MAX)
    }
}

/// The paper's Figure 3/4 bins — the one bin set every binned-FCT table
/// uses: `[1KB,10KB]`, `(10KB,128KB]`, `(128KB,1MB]`, `>1MB` (expressed
/// half-open on byte counts, so they partition every size).
pub const PAPER_BINS: [SizeBin; 4] = [
    SizeBin {
        label: "[1KB,10KB]",
        lo: 0,
        hi: 10_001,
    },
    SizeBin {
        label: "(10KB,128KB]",
        lo: 10_001,
        hi: 128_001,
    },
    SizeBin {
        label: "(128KB,1MB]",
        lo: 128_001,
        hi: 1_000_001,
    },
    SizeBin {
        label: ">1MB",
        lo: 1_000_001,
        hi: u64::MAX,
    },
];

/// Per-bin latency summary.
///
/// Statistics are `None` when the bin received no samples. An empty bin
/// used to report `0.0`, which read as "perfect tail" in tables and
/// JSON; consumers must render the absence explicitly (`-` in tables,
/// omitted keys in JSON) instead.
#[derive(Debug, Clone, Copy)]
pub struct BinStats {
    /// The bin.
    pub bin: SizeBin,
    /// Number of samples.
    pub count: usize,
    /// Mean FCT in seconds; `None` if the bin is empty.
    pub mean_s: Option<f64>,
    /// 99th-percentile FCT in seconds; `None` if the bin is empty.
    pub p99_s: Option<f64>,
    /// 99.9th-percentile FCT in seconds; `None` if the bin is empty.
    pub p999_s: Option<f64>,
}

/// Summarize `samples` into [`PAPER_BINS`] (exact path: holds all FCTs
/// per bin in memory — fine at experiment scale; at millions of flows use
/// the streaming [`crate::FctAccumulator`] instead).
pub fn binned(samples: &[Sample]) -> Vec<BinStats> {
    PAPER_BINS
        .iter()
        .map(|&bin| {
            let fcts: Vec<f64> = samples
                .iter()
                .filter(|s| bin.contains(s.bytes))
                .map(|s| s.fct_s)
                .collect();
            BinStats {
                bin,
                count: fcts.len(),
                mean_s: mean(&fcts),
                p99_s: percentile(&fcts, 0.99),
                p999_s: percentile(&fcts, 0.999),
            }
        })
        .collect()
}

/// Job/coflow completion-time summary: flows are grouped by job id; a job
/// completes when its last flow completes; a job only counts toward the
/// latency statistics if every one of its flows completed.
#[derive(Debug, Clone, Copy)]
pub struct JobStats {
    /// Distinct job ids seen (complete or not).
    pub jobs_total: usize,
    /// Jobs whose every flow completed.
    pub jobs_complete: usize,
    /// Mean JCT in seconds over complete jobs; `None` if none completed.
    pub mean_s: Option<f64>,
    /// Median JCT in seconds; `None` if no job completed.
    pub p50_s: Option<f64>,
    /// 99th-percentile JCT in seconds; `None` if no job completed.
    pub p99_s: Option<f64>,
    /// Slowest complete job's JCT in seconds; `None` if none completed.
    pub max_s: Option<f64>,
}

/// Full job/coflow completion-time statistics from `FlowSpec::job`
/// tagging (the paper's partition-aggregate jobs; RepNet-style coflows).
/// Untagged flows are ignored.
pub fn job_completion(records: &[FlowRecord]) -> JobStats {
    use std::collections::HashMap;
    let mut jobs: HashMap<u32, (SimTime, SimTime, bool)> = HashMap::new();
    for r in records {
        let Some(job) = r.job else { continue };
        let e = jobs.entry(job).or_insert((r.start, SimTime::ZERO, true));
        e.0 = e.0.min(r.start);
        match r.fct() {
            Some(_) => e.1 = e.1.max(r.end),
            None => e.2 = false,
        }
    }
    let jcts: Vec<f64> = jobs
        .values()
        .filter(|(_, _, complete)| *complete)
        .map(|(start, end, _)| (*end - *start).as_secs_f64())
        .collect();
    JobStats {
        jobs_total: jobs.len(),
        jobs_complete: jcts.len(),
        mean_s: mean(&jcts),
        p50_s: percentile(&jcts, 0.5),
        p99_s: percentile(&jcts, 0.99),
        max_s: percentile(&jcts, 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        flow: u32,
        bytes: u64,
        start_us: u64,
        fct_us: Option<u64>,
        job: Option<u32>,
    ) -> FlowRecord {
        FlowRecord {
            flow,
            src: 0,
            dst: 1,
            bytes,
            start: SimTime::from_us(start_us),
            end: match fct_us {
                Some(f) => SimTime::from_us(start_us + f),
                None => SimTime::MAX,
            },
            job,
            proto: Proto::Tcp,
        }
    }

    #[test]
    fn samples_respect_window_and_completion() {
        let records = vec![
            rec(0, 1000, 10, Some(100), None),
            rec(1, 1000, 20, None, None),            // incomplete
            rec(2, 1000, 5_000_000, Some(50), None), // after window
        ];
        let s = samples(&records, SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(s.len(), 1);
        assert!((s[0].fct_s - 100e-6).abs() < 1e-12);
        let frac = completion_fraction(&records, SimTime::ZERO, SimTime::from_secs(1));
        assert!((frac - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mean_and_percentile_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), Some(2.5));
        assert_eq!(percentile(&xs, 0.5), Some(2.0));
        assert_eq!(percentile(&xs, 1.0), Some(4.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_nearest_rank_on_100() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 0.999), Some(100.0));
        assert_eq!(percentile(&xs, 0.01), Some(1.0));
    }

    #[test]
    fn percentile_edge_cases() {
        // Single element: every quantile is that element.
        assert_eq!(percentile(&[7.0], 0.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 0.5), Some(7.0));
        assert_eq!(percentile(&[7.0], 1.0), Some(7.0));
        // Two elements: p = 0 pins the min, anything above 0.5 the max.
        assert_eq!(percentile(&[2.0, 1.0], 0.0), Some(1.0));
        assert_eq!(percentile(&[2.0, 1.0], 0.5), Some(1.0));
        assert_eq!(percentile(&[2.0, 1.0], 0.51), Some(2.0));
        // Ties collapse to the tied value; input order is irrelevant.
        assert_eq!(percentile(&[3.0, 3.0, 3.0], 0.99), Some(3.0));
        assert_eq!(
            percentile(&[5.0, 1.0, 3.0], 0.5),
            percentile(&[1.0, 3.0, 5.0], 0.5)
        );
        // Empty input never panics, for any p.
        assert_eq!(percentile(&[], 0.0), None);
        assert_eq!(percentile(&[], 1.0), None);
    }

    #[test]
    #[should_panic]
    fn percentile_rejects_out_of_range_p() {
        percentile(&[1.0], 1.5);
    }

    #[test]
    fn cdf_points_are_monotone_and_end_at_max() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        let c = cdf_points(&xs, 10);
        assert_eq!(c.len(), 10);
        assert_eq!(c.last().unwrap(), &(5.0, 1.0));
        for w in c.windows(2) {
            assert!(w[1].0 >= w[0].0, "values must be nondecreasing");
            assert!(w[1].1 > w[0].1, "probabilities must increase");
        }
        // Median lands on the middle element.
        let mid = c.iter().find(|&&(_, p)| (p - 0.5).abs() < 1e-12).unwrap();
        assert_eq!(mid.0, 3.0);
        assert!(cdf_points(&[], 10).is_empty());
        assert!(cdf_points(&xs, 0).is_empty());
    }

    #[test]
    fn paper_bins_partition_sizes() {
        let bins = PAPER_BINS;
        for bytes in [
            1_000u64, 10_000, 10_001, 128_000, 128_001, 1_000_000, 1_000_001, 30_000_000,
        ] {
            let hits = bins.iter().filter(|b| b.contains(bytes)).count();
            assert_eq!(hits, 1, "bytes {bytes} in {hits} bins");
        }
        // Boundary semantics: 10KB in the first bin, >10KB in the second.
        assert!(bins[0].contains(10_000));
        assert!(bins[1].contains(10_001));
        assert!(bins[2].contains(1_000_000));
        assert!(bins[3].contains(1_000_001));
    }

    #[test]
    fn binned_stats_split_by_size() {
        let samples = vec![
            Sample {
                bytes: 5_000,
                fct_s: 1.0,
            },
            Sample {
                bytes: 5_000,
                fct_s: 3.0,
            },
            Sample {
                bytes: 2_000_000,
                fct_s: 10.0,
            },
        ];
        let b = binned(&samples);
        assert_eq!(b[0].count, 2);
        assert_eq!(b[0].mean_s, Some(2.0));
        assert_eq!(b[0].p99_s, Some(3.0));
        assert_eq!(b[3].count, 1);
        assert_eq!(b[3].mean_s, Some(10.0));
    }

    #[test]
    fn size_bin_degenerate_and_unbounded_edges() {
        // lo == hi: an empty interval contains nothing, not even lo.
        let empty = SizeBin {
            label: "empty",
            lo: 100,
            hi: 100,
        };
        assert!(!empty.contains(100));
        assert!(!empty.contains(99));
        assert!(!empty.contains(101));
        // lo > hi is equally degenerate.
        let inverted = SizeBin {
            label: "inverted",
            lo: 200,
            hi: 100,
        };
        assert!(!inverted.contains(150));
        // hi == u64::MAX acts unbounded: u64::MAX itself is included,
        // instead of being the one value a half-open bin can never hold.
        let top = SizeBin {
            label: "top",
            lo: 1_000_001,
            hi: u64::MAX,
        };
        assert!(top.contains(1_000_001));
        assert!(top.contains(u64::MAX - 1));
        assert!(top.contains(u64::MAX));
        assert!(!top.contains(1_000_000));
        // A bounded bin still excludes its upper edge.
        let bounded = SizeBin {
            label: "bounded",
            lo: 0,
            hi: 10,
        };
        assert!(bounded.contains(9));
        assert!(!bounded.contains(10));
    }

    #[test]
    fn empty_bins_report_none_not_zero() {
        // Regression: an empty bin's p99 used to come back as 0.0 via
        // `unwrap_or(0.0)`, masquerading as a perfect tail.
        let samples = vec![Sample {
            bytes: 5_000,
            fct_s: 1.0,
        }];
        let b = binned(&samples);
        assert_eq!(b[1].count, 0);
        assert_eq!(b[1].mean_s, None);
        assert_eq!(b[1].p99_s, None);
        assert_eq!(b[1].p999_s, None);
        // And a fully empty input leaves every bin explicit about it.
        for bs in binned(&[]) {
            assert_eq!(bs.count, 0);
            assert_eq!(bs.p99_s, None);
        }
    }

    #[test]
    fn job_completion_takes_last_flow() {
        let records = vec![
            rec(0, 1000, 0, Some(100), Some(1)),
            rec(1, 1000, 0, Some(300), Some(1)),
            rec(2, 1000, 0, Some(200), Some(1)),
            // Job 2 incomplete: excluded.
            rec(3, 1000, 0, Some(100), Some(2)),
            rec(4, 1000, 0, None, Some(2)),
            // Non-job flow ignored.
            rec(5, 1000, 0, Some(999), None),
        ];
        let js = job_completion(&records);
        assert_eq!(js.jobs_total, 2);
        assert_eq!(js.jobs_complete, 1);
        assert!((js.mean_s.unwrap() - 300e-6).abs() < 1e-12);
        assert_eq!(js.p50_s, js.p99_s, "one job: every quantile is it");
        assert_eq!(js.p99_s, js.max_s);
    }

    #[test]
    fn job_completion_percentiles_over_many_jobs() {
        // 100 jobs with JCTs 100us..10ms; p99 picks the 99th.
        let mut records = Vec::new();
        for j in 0..100u32 {
            records.push(rec(j, 1000, 0, Some(100 * (j as u64 + 1)), Some(j)));
        }
        let js = job_completion(&records);
        assert_eq!(js.jobs_total, 100);
        assert_eq!(js.jobs_complete, 100);
        assert!((js.p50_s.unwrap() - 5_000e-6).abs() < 1e-12);
        assert!((js.p99_s.unwrap() - 9_900e-6).abs() < 1e-12);
        assert!((js.max_s.unwrap() - 10_000e-6).abs() < 1e-12);
    }

    #[test]
    fn job_completion_empty_reports_none() {
        let js = job_completion(&[rec(0, 1000, 0, Some(5), None)]);
        assert_eq!(js.jobs_total, 0);
        assert_eq!(js.jobs_complete, 0);
        assert_eq!(js.mean_s, None);
        assert_eq!(js.p99_s, None);
        assert_eq!(job_completion(&[]).jobs_total, 0);
    }
}
