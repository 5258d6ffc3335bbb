//! # hydra-data
//!
//! Dataset generators, query workload generators and brute-force ground
//! truth for the Lernaean Hydra experiments.
//!
//! The paper evaluates on one synthetic dataset family (random walks, the
//! standard model for financial series) and four real datasets (Sift1B,
//! Deep1B, Seismic, SALD). The real datasets are not redistributable at the
//! scale the paper uses, so this crate provides synthetic generators that
//! mimic the statistical structure that drives the paper's findings:
//!
//! * [`generators::random_walk`] — cumulative sums of Gaussian steps
//!   (identical to the paper's Rand datasets);
//! * [`generators::sift_like`] — non-negative, clustered,
//!   gradient-histogram-like vectors (SIFT descriptors);
//! * [`generators::deep_like`] — L2-normalized Gaussian-mixture vectors with
//!   correlated dimensions (deep network embeddings);
//! * [`generators::seismic_like`] — noise with transient bursts (seismograph
//!   recordings);
//! * [`generators::mri_like`] — smooth, low-frequency series (the SALD MRI
//!   dataset).
//!
//! Query workloads follow the paper's protocol: queries are either drawn
//! from a held-out portion of the same distribution, or derived from stored
//! series by adding progressively larger amounts of noise so as to control
//! difficulty.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod generators;
pub mod ground_truth;
pub mod partition;
pub mod queries;

pub use generators::{deep_like, mri_like, random_walk, seismic_like, sift_like, DatasetKind};
pub use ground_truth::{
    exact_knn, exact_knn_batch, ground_truth, ground_truth_cached, ground_truth_fingerprint,
    GroundTruth, GROUND_TRUTH_KIND,
};
pub use partition::{partition, PartitionScheme, ShardMap};
pub use queries::{noisy_queries, sample_queries, QueryWorkload};
