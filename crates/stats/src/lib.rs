//! # stats — measurement reduction for the FlowBender experiment suite
//!
//! Takes a run's [`netsim::FlowRecord`]s and counters and produces the
//! numbers the paper's tables and figures report: windowed FCT samples,
//! means and tail percentiles, the paper's flow-size bins, job completion
//! times, plain-text/CSV table rendering, and a dependency-free
//! deterministic JSON writer for machine-readable results.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fct;
pub mod json;
pub mod sketch;
pub mod table;

pub use fct::{
    binned, cdf_points, completion_fraction, job_completion, mean, paper_bins, percentile, samples,
    BinSpec, BinStats, JobStats, Sample, SizeBin,
};
pub use json::Json;
pub use sketch::{FctAccumulator, QuantileSketch};
pub use table::{fmt_gbps, fmt_ratio, fmt_secs, Table};
