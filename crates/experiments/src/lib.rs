//! # experiments — the FlowBender (CoNEXT'14) reproduction harness
//!
//! One module per paper artifact; each produces a [`report::Report`] whose
//! tables mirror the rows/series the paper reports (normalized to ECMP
//! where the paper normalizes). The `experiments` binary exposes them as
//! subcommands; the `fb-bench` crate reuses the same entry points at
//! reduced scale for `cargo bench`.
//!
//! | module | paper artifact |
//! |--------|----------------|
//! | [`table1`] | Table 1 (functionality microbenchmark) |
//! | [`alltoall`] | Figures 3 & 4 + §4.2.3 out-of-order stats |
//! | [`fig5`] | Figure 5 (partition-aggregate) |
//! | [`sensitivity`] | Figures 6 & 7 (N and T sweeps) |
//! | [`fig8`] | Figure 8 (testbed, simulated) |
//! | [`hotspot`] | §4.3.1 (UDP hotspot decongestion) |
//! | [`topo_dep`] | §4.3.3 (path-diversity dependence) |
//! | [`link_failure`] | §1/§3.3.2 (RTO-scale failure recovery) |
//! | [`gray_failure`] | extension: silent (gray) loss on one agg-core uplink |
//! | [`asym`] | §4.3.1 second half (asymmetric links, WCMP, weight misconfiguration) |
//! | [`buffers`] | substrate sensitivity: buffer depth vs the ECMP gap |
//! | [`flowlet`] | extension: FlowBender vs LetFlow-style flowlet switching |
//! | [`ablation`] | §3.4/§5 design refinements |
//! | [`repflow`] | extension: RepFlow-style short-flow replication vs rerouting |
//! | [`trace_scale`] | extension: million-flow workload engine + streaming FCT sketches |
//! | [`fabric_scale`] | extension: 1024-host all-to-all on a k=16 fat-tree |
//! | [`chaos`] | extension: incident-timeline chaos drill with reconvergence SLOs |
//! | [`reordering`] | extension: reordering cost by routing locus, incl. switch-side flowcuts |
//!
//! Which load-balancing designs exist is owned by the [`schemes`]
//! registry (one [`Scheme`] variant per design); which traffic
//! patterns exist is owned by the `workloads` crate's registry (selected
//! with `--workload`); the one runner ([`Run`]) and the sweep machinery
//! live in [`scenario`].
//!
//! ## Adding an experiment
//!
//! One row in [`mod@registry`] plus one module, which is four steps:
//!
//! 1. **cell set-up** — a helper from [`cell`] turns the options into a
//!    flow list and a measurement [`Window`] ([`cell::windowed_cell`] for
//!    the paper-fabric sweeps, [`cell::kary_fabric`] and
//!    [`cell::kary_window`] for the k-ary ones, [`cell::faulted_microbench`]
//!    for the failure microbenchmarks); the window, warm-up, drain and
//!    normalization conventions are stated once, in [`cell`]'s docs;
//! 2. **sweep** — [`sweep_schemes`] runs the cell per `(param, scheme)`
//!    and returns the `[param][scheme]` grid, which tables index directly;
//! 3. **digest** — [`Cell::of`] pairs each [`RunOutput`] with its
//!    [`Digest`] (in-window FCT mean / quantiles / completion); counters
//!    read straight off the run (`out.get(..)`, `out.ooo_frac()`,
//!    `out.reroutes()`);
//! 4. **table** — rows go into a [`stats::Table`] in a [`Report`], with
//!    [`cell::baseline`] picking the scheme everything is normalized to.
//!
//! An experiment keeps code of its own only where it truly differs (the
//! chaos script, fig5's job statistics, asym's hand-degraded link).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod alltoall;
pub mod asym;
pub mod buffers;
pub mod cell;
pub mod chaos;
pub mod fabric_scale;
pub mod fig5;
pub mod fig8;
pub mod flowlet;
pub mod gray_failure;
pub mod hotspot;
pub mod link_failure;
pub mod registry;
pub mod reordering;
pub mod repflow;
pub mod report;
pub mod scenario;
pub mod schemes;
pub mod sensitivity;
pub mod table1;
pub mod topo_dep;
pub mod trace_scale;

pub use cell::{Cell, Digest};
pub use registry::{find, registry, Experiment};
pub use report::{timeline_json, Opts, Report, RunSummary, TraceSel};
pub use scenario::{
    parallel_map, run_fat_tree, run_fat_tree_sharded, run_testbed, slowest_flows, sweep_schemes,
    traced_replay, Run, RunOutput, ShardStats, Window,
};
pub use schemes::{Replication, Scheme};

/// The scheme type's former name, kept so code written against it still
/// compiles.
pub type SchemeSpec = Scheme;

/// The error text for an unknown `--scheme` value: names the offender and
/// lists every registered scheme, mirroring the unknown-experiment error.
pub fn schemes_help(unknown: &str) -> String {
    let known = schemes::registry()
        .iter()
        .map(|s| s.name().to_string())
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "unknown scheme `{unknown}`; registered schemes: {known} (try the `schemes` subcommand)"
    )
}

/// The error text for an unknown `--workload` value: names the offender
/// and lists every registered workload, mirroring [`schemes_help`].
pub fn workloads_help(unknown: &str) -> String {
    let known = workloads::registry()
        .iter()
        .map(|w| w.slug())
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "unknown workload `{unknown}`; registered workloads: {known} \
         (parameterized forms: {}; try the `workloads` subcommand)",
        workloads::PARAM_FORMS
    )
}
