//! # hydra-core
//!
//! Core types and algorithms for data series similarity search, reproducing
//! the framework of *"Return of the Lernaean Hydra: Experimental Evaluation
//! of Data Series Approximate Similarity Search"* (Echihabi et al.,
//! PVLDB 2019).
//!
//! This crate provides:
//!
//! * [`series::Dataset`] — a flat, cache-friendly container of fixed-length
//!   data series (equivalently, high-dimensional vectors).
//! * [`distance`] — Euclidean distance kernels, including an
//!   early-abandoning variant used by every index during leaf refinement.
//! * [`query`] — query, answer, and search-parameter types, together with
//!   the taxonomy of guarantees from the paper (ng-approximate,
//!   ε-approximate, δ-ε-approximate, exact).
//! * [`search`] — an index-invariant implementation of the paper's
//!   Algorithm 1 (exact k-NN over any hierarchical index built by
//!   conservative recursive partitioning) and Algorithm 2 (its
//!   δ-ε-approximate extension), generic over the
//!   [`index::HierarchicalIndex`] trait.
//! * [`histogram`] — the overall distance distribution `F(·)` and the
//!   `r_δ` radius estimation used by Algorithm 2's probabilistic stop
//!   condition.
//! * [`stats`] — implementation-independent query cost counters
//!   (distance computations, leaves visited, bytes accessed, random I/Os).
//! * [`workers`] — the batch fan-out every parallel batch path runs on.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod distance;
pub mod error;
pub mod half;
pub mod histogram;
pub mod index;
pub mod query;
#[cfg(test)]
mod proptests;
pub mod search;
pub mod series;
pub mod stats;
pub mod workers;

pub use distance::{
    euclidean, euclidean_early_abandon, euclidean_early_abandon_f16, euclidean_early_abandon_u8,
    squared_euclidean,
};
pub use half::{f16_bits_from_f32, f32_from_f16_bits};
pub use error::{Error, Result};
pub use histogram::DistanceHistogram;
pub use index::{AnnIndex, Capabilities, HierarchicalIndex, Representation};
pub use query::{
    merge_top_k, Answer, Neighbor, SearchKey, SearchMode, SearchParams, SearchResult, TopK,
};
pub use search::{knn_search, predict_first_leaf, KnnSearcher};
pub use series::{znormalize, znormalized, Dataset};
pub use stats::{QueryStats, StoreCounters};
