//! # topology — datacenter fabrics for the FlowBender reproduction
//!
//! Builders that instantiate the paper's two evaluation networks inside a
//! [`netsim::Simulator`] and install multipath routing tables on every
//! switch:
//!
//! * [`fat_tree`] — the §4.2 simulation fabric: 128 servers, 4 pods,
//!   4 ToR + 4 agg switches per pod, 8 cores, 10 Gbps links, 4:1
//!   oversubscription, 8 equal-cost paths between pods (plus `tiny` and
//!   `paper_wide` variants).
//! * [`testbed`] — the §4.3 testbed shape: 15 ToRs of 12–16 servers behind
//!   4 aggregation switches, 4 equal-cost paths between ToRs.
//!
//! [`fat_tree::FatTreeParams::k_ary`] generalizes the fat-tree to the
//! canonical k-ary form (k=8..32 → 128–8192 hosts).
//!
//! Both builders create hosts first so host `NodeId`s are dense from 0,
//! which is what routing tables and the flow recorder index by.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fat_tree;
pub mod testbed;

pub use fat_tree::{build_fat_tree, degrade_agg_core_link, FatTree, FatTreeParams};
pub use testbed::{build_testbed, Testbed, TestbedParams};
