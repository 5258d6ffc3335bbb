//! # hydra-storage
//!
//! Paged storage with a buffer pool and I/O accounting.
//!
//! The paper evaluates on-disk behaviour on 25–250 GB datasets with a
//! RAM-limited server, and reports two implementation-independent measures:
//! the number of random disk accesses and the percentage of data accessed.
//! This crate reproduces those measures at laptop scale. Raw series live in
//! a [`SeriesStore`], in one of three tiers behind one API:
//!
//! * **Resident**: every value in one flat vector; reads are zero-copy
//!   borrows, the buffer pool tracks page *ids* only, and the counters
//!   *simulate* what a spinning disk would have charged (`page_bytes` per
//!   miss). This is the build-time mode. The codec and the I/O mode of a
//!   [`StorageConfig`] do not apply to it.
//! * **File-backed raw** ([`SeriesStore::file_backed`]): the payload lives
//!   in a file; the pool caches real page frames with LRU eviction, a miss
//!   is a page-granular transfer (`pread`, or a copy out of a read-only
//!   mapping — [`FileIoMode`]), and the counters are *measurements*.
//! * **File-backed coded** (a [`PageCodec`] sidecar attached on top):
//!   sealed records are pruned through compressed pages, and only the
//!   survivors read their exact f32 values.
//!
//! Every page of every tier is served by one private function of
//! [`store`] — lock, probe the pool, load on a miss, charge, cache — so
//! for the same access sequence and [`StorageConfig`] a resident and a
//! file-backed raw store report identical [`hydra_core::QueryStats`], and
//! the I/O mode moves no counter at all.
//!
//! Indexes route all raw-data reads through the store, so the counters they
//! report reflect the same access-pattern economics that drive the paper's
//! on-disk results: tree indexes with few, large leaves incur few random
//! I/Os; skip-sequential methods read summaries sequentially and pay one
//! random I/O per refined candidate; in-memory methods configure the pool
//! to hold the whole dataset.
//!
//! The read side is three files: `store.rs` (configuration, the page path
//! and its accounting, the public API), `backing.rs` (where the values
//! live — the only code that matches on the backing) and `mmap.rs` (the
//! `mmap(2)` FFI). The crate denies `unsafe_code`; `mmap.rs` and the one
//! in-place byte view of `backing.rs` are the only opt-outs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

mod backing;
mod buffer;
pub mod coded;
#[allow(unsafe_code)]
mod mmap;
pub mod store;

pub use coded::{CodedPage, PageCodec};
pub use store::{FileIoMode, FileSpan, IoSnapshot, SeriesRead, SeriesStore, StorageConfig};
