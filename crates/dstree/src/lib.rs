//! # hydra-dstree
//!
//! The DSTree index (Wang et al., PVLDB 2013): a data-adaptive and dynamic
//! segmentation tree for whole-matching data series similarity search,
//! extended — as in the Lernaean Hydra paper — to answer ng-approximate,
//! ε-approximate and δ-ε-approximate k-NN queries in addition to exact ones.
//!
//! ## How it works
//!
//! Every node carries its own segmentation of the series domain and, for
//! each segment, the range of segment means and standard deviations of all
//! series stored beneath it (the EAPCA synopsis). Leaves store the series
//! themselves (through the simulated disk layer). When a leaf overflows it
//! splits either *horizontally* (partition the series by the mean or the
//! standard deviation of one segment) or *vertically* (first refine the
//! segmentation by splitting one segment in two, then split horizontally on
//! one of the new sub-segments) — the policy with the best quality-of-split
//! score wins.
//!
//! The per-node synopsis yields a lower bound on the Euclidean distance
//! between a query and any series in the subtree, so the generic
//! [`hydra_core::search`] driver (Algorithms 1 and 2 of the paper) provides
//! exact and guarantee-carrying approximate search.
//!
//! The leaves, their leaf-ordered raw series, the kept member words, the
//! snapshot format and the ingest protocol are the
//! [`hydra_persist::LeafTree`] frame's, shared with iSAX2+; this crate keeps
//! the EAPCA nodes, their routing, splitting and bounds, and the member
//! gate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod node;
mod split;

pub use node::{DsTree, DsTreeConfig, PreparedQuery};
pub use split::{enumerate_candidates, SplitCandidate, SplitKind, SplitRule};
