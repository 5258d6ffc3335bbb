//! # hydra-vafile
//!
//! The VA+file (Ferhatosmanoglu et al.), as modified by the Lernaean Hydra
//! paper: the Karhunen–Loève transform is replaced by the Discrete Fourier
//! Transform, and the method is extended to answer ng-approximate,
//! ε-approximate and δ-ε-approximate k-NN queries in addition to exact ones.
//!
//! ## How it works
//!
//! Every series is transformed with the (orthonormal, truncated) DFT and
//! each transformed dimension is quantized with an adaptive (equi-depth)
//! scalar quantizer. The resulting *approximation file* is small enough to
//! scan sequentially for every query. Search is skip-sequential: the scan
//! computes a lower bound per candidate from its cells' edges; only
//! candidates whose lower bound beats the current best-so-far
//! are refined by reading the raw series from the (simulated) disk — a
//! random I/O per refined candidate. There is no upper-bound filter, as
//! the classic VA-file has: a cell's upper bound covers only the kept DFT
//! coefficients, so it bounds no true distance.
//!
//! The ε / δ-ε extensions shrink the pruning threshold to `bsf / (1 + ε)`
//! and stop the refinement pass once the best-so-far is below
//! `(1 + ε) · r_δ`, exactly like Algorithm 2 does for tree indexes. The
//! ng-approximate mode refines only the `nprobe` candidates with the
//! smallest lower bounds.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod index;

pub use index::{VaPlusFile, VaPlusFileConfig};
