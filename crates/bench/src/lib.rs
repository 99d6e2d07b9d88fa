//! # fb-bench — benchmark crate for the FlowBender reproduction
//!
//! This crate hosts the two benchmark targets plus the tiny self-contained
//! harness they run on (the container builds fully offline, so the usual
//! external benchmark frameworks are out of reach):
//!
//! * `benches/engine.rs` — simulator hot-path microbenchmarks (event
//!   scheduling, ECMP hashing, queue operations, RNG, raw forwarding
//!   throughput);
//! * `benches/paper.rs` — one scaled-down run per paper table/figure,
//!   acting as throughput-regression canaries for every experiment.
//!
//! Run them with `cargo bench` (optionally passing a substring filter:
//! `cargo bench -- queue`). Each benchmark prints its median wall-clock
//! time per iteration and, where an element count is declared, the derived
//! elements-per-second throughput. Full-size artifact reproduction lives
//! in the `experiments` binary.
//!
//! Passing `--smoke` runs every benchmark exactly once — a CI-friendly
//! compile-and-run check that costs seconds, not minutes. Each bench
//! target also records its results and writes them as machine-readable
//! JSON (`BENCH_engine.json` / `BENCH_paper.json` at the repo root) via
//! [`Harness::write_json`], so perf can be tracked commit over commit.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::hint::black_box;
use std::time::{Duration, Instant};

use stats::Json;

/// Target wall-clock budget per benchmark (measurement phase).
const BUDGET: Duration = Duration::from_millis(500);
/// Hard cap on measured iterations, so heavyweight benches stay quick.
const MAX_ITERS: usize = 50;
/// Minimum measured iterations, so the median is meaningful.
const MIN_ITERS: usize = 5;

/// One finished benchmark: what [`Harness::write_json`] serializes.
#[derive(Debug, Clone)]
struct BenchRecord {
    name: String,
    median_ns: u64,
    elements: u64,
    iters: usize,
}

/// A minimal wall-clock benchmark runner.
///
/// Construct one with [`Harness::from_args`] at the top of a bench
/// target's `main`, then call [`Harness::bench`] (or
/// [`Harness::bench_with_setup`] when per-iteration state must be built
/// outside the timed region) once per benchmark, and finish with
/// [`Harness::write_json`] to persist the results.
pub struct Harness {
    filter: Option<String>,
    smoke: bool,
    results: RefCell<Vec<BenchRecord>>,
}

impl Harness {
    /// Build a harness from the process arguments. `cargo bench` passes
    /// `--bench` (and sometimes other flags); any non-flag argument is
    /// treated as a substring filter on benchmark names, and `--smoke`
    /// switches to single-iteration smoke mode.
    pub fn from_args() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
        Harness {
            filter,
            smoke,
            results: RefCell::new(Vec::new()),
        }
    }

    /// Does the command-line filter (if any) let `name` run? For callers
    /// that do work of their own around a benchmark.
    pub fn selected(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Time `routine`, reporting the median of several iterations.
    /// `elements` is the number of logical items one iteration processes
    /// (packets, events, draws); pass 0 to suppress the throughput line.
    pub fn bench<R>(&self, name: &str, elements: u64, mut routine: impl FnMut() -> R) {
        self.bench_with_setup(name, elements, || (), |()| routine());
    }

    /// Like [`Harness::bench`], but re-runs `setup` before every timed
    /// iteration; only `routine` is measured.
    pub fn bench_with_setup<S, R>(
        &self,
        name: &str,
        elements: u64,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
    ) {
        if !self.selected(name) {
            return;
        }
        // Warm-up (and a first duration estimate to size the sample count).
        let input = setup();
        let t0 = Instant::now();
        black_box(routine(input));
        let first = t0.elapsed();

        let (median, iters) = if self.smoke {
            // Smoke mode: the warm-up run is the measurement. This keeps a
            // CI check to one execution per benchmark.
            (first, 1)
        } else {
            let budgeted = (BUDGET.as_nanos() / first.as_nanos().max(1)) as usize;
            let iters = budgeted.clamp(MIN_ITERS, MAX_ITERS);
            let mut samples = Vec::with_capacity(iters);
            for _ in 0..iters {
                let input = setup();
                let t = Instant::now();
                black_box(routine(input));
                samples.push(t.elapsed());
            }
            samples.sort();
            (samples[samples.len() / 2], iters)
        };
        report(name, elements, median, iters);
        self.results.borrow_mut().push(BenchRecord {
            name: name.to_string(),
            median_ns: median.as_nanos() as u64,
            elements,
            iters,
        });
    }

    /// Serialize every recorded result to `path` as pretty-printed JSON:
    /// `{"smoke": bool, "benchmarks": [{name, median_ns, elements,
    /// elems_per_sec, iters}, ...]}` in run order.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        let mut benches = Json::arr();
        for r in self.results.borrow().iter() {
            let mut b = Json::obj();
            b.set("name", Json::str(r.name.as_str()));
            b.set("median_ns", Json::U64(r.median_ns));
            b.set("elements", Json::U64(r.elements));
            let eps = if r.elements > 0 {
                Json::Num(r.elements as f64 / (r.median_ns as f64 / 1e9).max(1e-12))
            } else {
                Json::Null
            };
            b.set("elems_per_sec", eps);
            b.set("iters", Json::U64(r.iters as u64));
            benches.push(b);
        }
        let mut root = Json::obj();
        root.set("smoke", Json::Bool(self.smoke));
        root.set("benchmarks", benches);
        std::fs::write(path, root.to_string_pretty())?;
        println!("wrote {} results to {path}", self.results.borrow().len());
        Ok(())
    }
}

fn report(name: &str, elements: u64, median: Duration, iters: usize) {
    let per_iter = fmt_duration(median);
    if elements > 0 {
        let eps = elements as f64 / median.as_secs_f64().max(1e-12);
        println!(
            "{name:<40} {per_iter:>12}/iter  {:>14}/s  ({iters} iters)",
            fmt_rate(eps)
        );
    } else {
        println!("{name:<40} {per_iter:>12}/iter  ({iters} iters)");
    }
}

/// Render a duration with a unit matched to its magnitude.
fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Render an elements-per-second rate with a thousands unit.
fn fmt_rate(eps: f64) -> String {
    if eps >= 1e9 {
        format!("{:.2} Gelem", eps / 1e9)
    } else if eps >= 1e6 {
        format!("{:.2} Melem", eps / 1e6)
    } else if eps >= 1e3 {
        format!("{:.2} Kelem", eps / 1e3)
    } else {
        format!("{eps:.1} elem")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting_picks_sane_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.00 us");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(12)), "12.00 s");
    }

    #[test]
    fn rate_formatting_picks_sane_units() {
        assert_eq!(fmt_rate(5.0), "5.0 elem");
        assert_eq!(fmt_rate(5_000.0), "5.00 Kelem");
        assert_eq!(fmt_rate(5_000_000.0), "5.00 Melem");
        assert_eq!(fmt_rate(5_000_000_000.0), "5.00 Gelem");
    }

    #[test]
    fn harness_runs_and_respects_filter() {
        let h = Harness {
            filter: Some("match".into()),
            smoke: false,
            results: RefCell::new(Vec::new()),
        };
        let mut ran = 0;
        h.bench("no_hit", 0, || 1u32);
        h.bench("does_match", 1, || {
            ran += 1;
            42u32
        });
        assert!(ran >= 1, "filtered-in benchmark must run");
        let results = h.results.borrow();
        assert_eq!(results.len(), 1, "skipped benches must not be recorded");
        assert_eq!(results[0].name, "does_match");
    }

    #[test]
    fn smoke_mode_runs_exactly_once() {
        let h = Harness {
            filter: None,
            smoke: true,
            results: RefCell::new(Vec::new()),
        };
        let mut ran = 0;
        h.bench("quick", 10, || ran += 1);
        assert_eq!(ran, 1, "smoke mode must run the routine exactly once");
        assert_eq!(h.results.borrow()[0].iters, 1);
    }

    #[test]
    fn write_json_emits_all_records() {
        let h = Harness {
            filter: None,
            smoke: true,
            results: RefCell::new(Vec::new()),
        };
        h.bench("a", 100, || 1u32);
        h.bench("b", 0, || 2u32);
        let path = std::env::temp_dir().join("fb_bench_write_json_test.json");
        let path = path.to_str().unwrap();
        h.write_json(path).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).ok();
        assert!(text.contains("\"name\": \"a\""));
        assert!(text.contains("\"name\": \"b\""));
        assert!(text.contains("\"median_ns\""));
        assert!(text.contains("\"smoke\": true"));
        // elements == 0 suppresses the throughput figure.
        assert!(text.contains("\"elems_per_sec\": null"));
    }
}
