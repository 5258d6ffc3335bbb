//! # hydra-summarize
//!
//! Summarization (dimensionality-reduction) techniques used by the
//! similarity search methods of the Lernaean Hydra study:
//!
//! * [`mod@paa`] — Piecewise Aggregate Approximation, the first step of SAX.
//! * [`apca`] — Adaptive Piecewise Constant Approximation and its extended
//!   variant EAPCA (mean + standard deviation per segment) used by DSTree.
//! * [`sax`] — Symbolic Aggregate approXimation and the indexable iSAX
//!   representation with variable per-segment cardinality.
//! * [`dft`] — Discrete Fourier Transform summarization (the paper's
//!   modified VA+file replaces KLT with DFT).
//! * [`quantization`] — k-means, product quantization and optimized product
//!   quantization (IMI).
//! * [`projection`] — Gaussian random projections (SRS, QALSH signatures),
//!   backed by the Johnson–Lindenstrauss lemma.
//! * [`linalg`] — the small dense-matrix kernel (Gram–Schmidt, Jacobi
//!   eigendecomposition, Procrustes) needed to train OPQ rotations.
//!
//! Every technique that supports it exposes a **lower-bounding** distance:
//! distances computed in the reduced space never exceed the true Euclidean
//! distance, which is what makes exact and ε-approximate pruning sound.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod apca;
pub mod dft;
pub mod linalg;
pub mod paa;
pub mod projection;
pub mod quantization;
#[cfg(test)]
mod proptests;
pub mod sax;

pub use apca::{eapca_segments, Segment, SegmentStats};
pub use dft::DftSummarizer;
pub use paa::{paa, paa_lower_bound};
pub use projection::GaussianProjection;
pub use quantization::{KMeans, OptimizedProductQuantizer, ProductQuantizer};
pub use sax::{IsaxWord, SaxParams};
