//! # hydra-isax
//!
//! The iSAX2+ index (Camerra et al.): a binary tree over indexable SAX
//! words, extended — as in the Lernaean Hydra paper — to answer
//! ng-approximate, ε-approximate and δ-ε-approximate k-NN queries in
//! addition to exact ones.
//!
//! ## How it works
//!
//! Every series is summarized by its SAX word: the PAA means of 16 segments
//! quantized against the breakpoints of the standard normal distribution at
//! a maximum cardinality of 256 (8 bits per segment). The root has one child
//! per 1-bit-per-segment word; when a leaf overflows, the cardinality of a
//! single segment is increased by one bit and the leaf's series are
//! redistributed between the two refined words (iSAX2.0/iSAX2+ choose the
//! segment that balances the children best, which is what this
//! implementation does). Leaves store raw series through the simulated disk
//! layer, so the index reports realistic random-I/O counts.
//!
//! The SAX MINDIST function lower-bounds the true Euclidean distance, so the
//! generic driver of [`hydra_core::search`] provides exact and
//! guarantee-carrying approximate search over this tree.
//!
//! The leaves, their leaf-ordered raw series, the kept SAX words, the
//! snapshot format and the ingest protocol are the
//! [`hydra_persist::LeafTree`] frame's, shared with DSTree; this crate keeps
//! the iSAX nodes and their virtual root, routing, splitting, the
//! per-node symbol envelopes and the member gate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod index;

pub use index::{Isax2Plus, IsaxConfig, PreparedQuery};
