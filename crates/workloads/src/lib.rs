//! # workloads — traffic generators for the FlowBender evaluation
//!
//! Deterministic generators for every traffic pattern in the paper's §4:
//!
//! * [`gen::microbench`] — Table 1's simultaneous 250 MB ToR-to-ToR flows;
//! * [`gen::all_to_all`] — Figures 3/4/6/7's Poisson all-to-all with the
//!   heavy-tailed [`dist::FlowSizeDist::web_search`] sizes;
//! * [`gen::partition_aggregate`] — Figure 5's synchronized incast jobs;
//! * [`gen::testbed_one_tor`] — Figure 8's one-ToR-sources workload;
//! * [`gen::hotspot`] — §4.3.1's 14 Gbps TCP shuffle + 6 Gbps UDP pin.
//!
//! The [`load`] module converts the paper's "% of bisection bandwidth"
//! into per-host arrival rates.
//!
//! On top of the free-function generators sits the [`spec`] registry: every
//! traffic pattern as one variant of the [`Workload`] enum, selectable by
//! slug (`websearch`, `datamining`, `alltoall`, `incast:<fanin>`,
//! `hotspot:<zipf-skew>`, `onoff:<burst>`) — the traffic-side twin of the
//! experiments crate's scheme registry; [`patterns`] builds the
//! parameterized ones. [`stream::PoissonStream`] is the O(hosts)-memory
//! streaming generator for runs too large to hold their flow list.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dist;
pub mod gen;
pub mod load;
pub mod patterns;
pub mod spec;
pub mod stream;

pub use dist::FlowSizeDist;
pub use gen::{all_to_all, hotspot, microbench, partition_aggregate, testbed_one_tor};
pub use spec::{find, registry, slug, Workload, PARAM_FORMS};
pub use stream::PoissonStream;
