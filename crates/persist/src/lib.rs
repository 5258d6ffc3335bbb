//! # hydra-persist
//!
//! Versioned on-disk snapshots for the whole index zoo: build an index once
//! (the cost the paper reports as *indexing time*), save it, and serve it
//! forever — every later process skips the build phase entirely and answers
//! with byte-identical results.
//!
//! ## The container
//!
//! Snapshots use a small self-describing binary format (see
//! [`snapshot`]): magic bytes, a format version, an index-kind tag, a
//! build-parameter fingerprint, and a sequence of length-prefixed,
//! checksummed sections. Everything is little-endian and dependency-free.
//! Misuse and damage map to typed errors ([`PersistError`]) — a stale
//! format version, a wrong index kind, a flipped bit, or a truncated file
//! are each distinguishable, and none of them panics or yields garbage.
//!
//! ## One parser per format
//!
//! Three byte layouts reach the disk. Each is parsed in exactly one place,
//! every little-endian decode among them is a [`SectionReader`] getter, and
//! no other crate parses a file header: `hydra-storage` receives a path and
//! the byte offset of its payload.
//!
//! | Format | Written by | Its one parser |
//! |---|---|---|
//! | `HYDRSNAP` container header | [`SnapshotWriter`] and the streamed one-section writer | `snapshot::read_header`, behind [`peek_kind`], [`peek_fingerprint`], [`SnapshotReader`] and the streamed reader |
//! | one-section payload: a 24-byte shape, then values or page records — the dataset snapshot (`.data.snap`), the `.series` sidecar (a dataset snapshot in store order, values at offset 73) and the coded sidecar (`.u8`, `.f16`: kind `coded-u8`/`coded-f16`, pages at offset 74 and 75) | [`dataset::save_dataset`], [`dataset::ensure_flat_series`], [`dataset::ensure_coded_series`] | `stream::ContainerScan`, behind [`dataset::load_dataset`], [`open_dataset_streaming`], [`dataset::dataset_flat_region`] and both sidecar checks |
//! | `HYDRJRNL` ingest journal | [`JournalWriter`] | [`JournalReader::open`] |
//!
//! Every one of these files is named by [`layout`], which also reads a
//! name back into what it is: `hydra-serve`'s boot scan matches on that.
//!
//! ## What is (and is not) stored
//!
//! A snapshot stores the *derived* structure an index spent its build time
//! computing — tree topology and synopses, codebooks and inverted lists,
//! graph adjacency, hash tables, quantized approximations — but not the raw
//! series, which every `load` receives as a [`Dataset`] (itself
//! snapshottable via [`dataset::save_dataset`]). The header fingerprint
//! hashes the build configuration *and* the dataset content, so loading
//! against the wrong data or the wrong parameters fails loudly with
//! [`PersistError::FingerprintMismatch`] instead of answering queries from
//! a mismatched index.
//!
//! ## Incremental snapshots
//!
//! A streaming-ingest run does not rewrite its whole snapshot per batch:
//! it appends each accepted batch's raw series to a checksummed
//! **journal** beside the base snapshot ([`journal`]), and loads replay
//! the journal through `insert_batch`
//! ([`LoaderRegistry::load_any_journaled`]) — reproducing the grown
//! index bit for bit. A later full save compacts: the new base carries
//! the grown data's fingerprint and the journal is deleted.
//!
//! ## Implementing persistence for an index
//!
//! Index crates implement [`PersistentIndex`] next to their private fields:
//! one required [`PersistentIndex::hash_config`] names what of the
//! configuration shapes a build, and the provided
//! [`PersistentIndex::snapshot_writer`] and
//! [`PersistentIndex::open_snapshot`] write and check the snapshot's
//! identity (kind, then configuration, then data). A disk-resident index
//! keeps its raw series in a [`Collection`], which owns their layout,
//! growth and re-attachment at load time. [`WordColumn`] is the one owner
//! of per-row `u8` cells, their edges and their lower bound, read from a
//! per-query [`GapTable`]: the trees' SAX words and VA+file's approximation
//! file. A leaf-ordered tree is built on
//! the [`LeafTree`] frame, which also holds its words and the δ-ε
//! histogram, and writes and loads the whole snapshot, handing the tree
//! only the encoding of its own nodes. The trees and VA+file keep that
//! histogram as derived data, a [`LazyHistogram`]: an ingest batch resets
//! it, and its first reader after one samples it. Sections are serialized with
//! [`snapshot::Section`] putters plus the shared [`codec`] helpers
//! (histograms, k-means codebooks, product quantizers, rotation matrices),
//! which guarantees one canonical layout for each shared structure across
//! the zoo.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backing;
pub mod codec;
pub mod dataset;
pub mod error;
pub mod fingerprint;
pub mod journal;
pub mod layout;
pub mod registry;
pub mod snapshot;
pub mod stream;
pub mod tree;
pub mod words;

use std::path::Path;

use hydra_core::Dataset;

pub use backing::{Collection, LazyHistogram, Leaf};
pub use error::{PersistError, Result};
pub use fingerprint::{
    fingerprint_dataset, while_fingerprinting, Fingerprint, SeriesFingerprinter,
};
pub use dataset::FlatSpan;
pub use journal::{remove_journal, JournalReader, JournalWriter};
pub use layout::journal_path;
pub use registry::{BoxedLoader, LoaderRegistry};
pub use snapshot::{
    peek_fingerprint, peek_kind, Section, SectionReader, SnapshotReader, SnapshotWriter,
    FORMAT_VERSION, MAGIC,
};
pub use stream::{open_dataset_streaming, DataSource, DatasetHandle, STREAM_CHUNK_BYTES};
pub use tree::{LeafTree, LeafTreeConfig, NodeSlot, TreeNode, Ungated};
pub use words::{GapTable, WordColumn};

/// How a loaded index should re-attach its raw series — the out-of-core
/// switch of the whole persistence layer.
///
/// The choice shapes only where bytes live and what the I/O counters
/// measure; it is **not** part of the snapshot fingerprint, so one snapshot
/// loads under either backing (at any buffer-pool size) with bit-identical
/// answers.
#[derive(Debug, Clone, Copy, Default)]
pub enum StoreBacking<'a> {
    /// Raw series resident in RAM, paged I/O simulated — the historical
    /// (and build-time) mode.
    #[default]
    Resident,
    /// Raw series served from a file through a page cache with real
    /// eviction. Indexes whose store keeps *dataset* order are backed by
    /// the dataset snapshot itself when its path is given (the snapshot
    /// doubles as the backing file, see
    /// [`dataset::dataset_flat_region`]); indexes with a permuted
    /// (leaf-ordered) store — and dataset-ordered ones when no snapshot
    /// path is available — use a [`dataset::ensure_flat_series`] sidecar
    /// next to the index snapshot.
    FileBacked {
        /// The `*.data.snap` file holding the dataset this index is loaded
        /// against, if the caller has one.
        dataset_snapshot: Option<&'a Path>,
    },
}

/// An index that can be saved to — and restored from — a snapshot file.
///
/// ## Contract
///
/// * `load(path, dataset, config)` after `save(path)` must produce an index
///   that answers every query **identically** to the saved one: same
///   neighbors, same distances (bit for bit), same CPU-side
///   [`hydra_core::QueryStats`]. Saving the loaded index again must produce
///   a byte-identical file.
/// * `save` records a fingerprint of the build configuration and the
///   dataset content; `load` recomputes it from its `config` and `dataset`
///   arguments and fails with [`PersistError::FingerprintMismatch`] if the
///   snapshot was built differently — a snapshot can never silently stand
///   in for an index it is not. The fingerprint is written once, for every
///   index: [`Self::KIND`], then [`Self::hash_config`], then the data
///   fingerprint. An index saves through [`Self::snapshot_writer`], which
///   writes kind and fingerprint, and loads through
///   [`Self::open_snapshot`], which checks them.
/// * Snapshots store derived structure only. Raw series are re-attached
///   from the `dataset` argument at load time (disk-backed indexes rebuild
///   their [`hydra_storage::SeriesStore`] layout from it, in-memory ones
///   keep a clone), so a snapshot is small relative to the collection and
///   can never disagree with the data it is served over.
/// * [`PersistentIndex::load_backed`] with [`StoreBacking::FileBacked`]
///   must answer **byte-identically** to the resident load of the same
///   snapshot — answers, accuracy, and [`hydra_core::QueryStats`] — at any
///   buffer-pool size and thread count; only the store-level totals may
///   differ, and only where concurrent readers interleave on the pool.
///
/// [`hydra_storage::SeriesStore`]: https://docs.rs/hydra-storage
pub trait PersistentIndex: Sized {
    /// The build-configuration type whose parameters fingerprint the
    /// snapshot.
    type Config;

    /// The kind tag written into (and required of) snapshot headers,
    /// e.g. `"isax2+"`.
    const KIND: &'static str;

    /// Hashes everything of `config` that shapes a build into `f`, in a
    /// fixed order. A storage configuration is deliberately **not**
    /// hashed: page size, pool capacity, codec and backing shape only I/O
    /// economics, never the index or its answers, so a snapshot may be
    /// served with any pool (`--pool-pages`) and either backing.
    fn hash_config(config: &Self::Config, f: &mut Fingerprint);

    /// A writer for a snapshot of this kind, built under `config` over data
    /// whose content fingerprint is `data_fingerprint`.
    fn snapshot_writer(config: &Self::Config, data_fingerprint: u64) -> SnapshotWriter {
        SnapshotWriter::new(Self::KIND, snapshot_fingerprint::<Self>(config, data_fingerprint))
    }

    /// Opens the snapshot at `path`, requiring this kind and the
    /// fingerprint of `config` over data fingerprinted `data_fingerprint`.
    ///
    /// # Errors
    /// [`SnapshotReader::open`]'s, [`PersistError::KindMismatch`] and
    /// [`PersistError::FingerprintMismatch`].
    fn open_snapshot(
        path: &Path,
        config: &Self::Config,
        data_fingerprint: u64,
    ) -> Result<SnapshotReader> {
        let reader = SnapshotReader::open(path)?;
        reader.expect_kind(Self::KIND)?;
        reader.expect_fingerprint(snapshot_fingerprint::<Self>(config, data_fingerprint))?;
        Ok(reader)
    }

    /// Writes the index to `path`, creating parent directories as needed.
    ///
    /// # Errors
    /// [`PersistError::Io`] if the file cannot be written.
    fn save(&self, path: &Path) -> Result<()>;

    /// Restores an index from `path`, re-attaching the raw series of
    /// `source` under `backing` and validating the snapshot against
    /// `config` — the one loader an index implements.
    ///
    /// A disk-capable index takes shape and fingerprint from the source's
    /// header facts and re-attaches series straight from it (see
    /// [`Collection::attach`]), so with a streamed source a whole serve
    /// boot touches O(pool) memory instead of O(dataset). A memory-only
    /// index holds no series store: it ignores `backing`, and if it needs
    /// every value it opens with [`DataSource::materialized`]. The loaded
    /// index must answer byte-identically under every combination of
    /// source and backing.
    ///
    /// # Errors
    /// Any [`PersistError`]: I/O failures (creating or validating a
    /// backing file and reading a streamed source included), a
    /// non-snapshot or truncated file, a future format version, a
    /// different index kind, a damaged section, or a fingerprint mismatch
    /// against `config`/`source`.
    fn load_from(
        path: &Path,
        source: DataSource<'_>,
        config: &Self::Config,
        backing: StoreBacking<'_>,
    ) -> Result<Self>;

    /// [`PersistentIndex::load_from`] over an in-RAM dataset, resident.
    ///
    /// # Errors
    /// Exactly [`PersistentIndex::load_from`]'s.
    fn load(path: &Path, dataset: &Dataset, config: &Self::Config) -> Result<Self> {
        Self::load_from(path, dataset.into(), config, StoreBacking::Resident)
    }

    /// [`PersistentIndex::load_from`] over an in-RAM dataset.
    ///
    /// # Errors
    /// Exactly [`PersistentIndex::load_from`]'s.
    fn load_backed(
        path: &Path,
        dataset: &Dataset,
        config: &Self::Config,
        backing: StoreBacking<'_>,
    ) -> Result<Self> {
        Self::load_from(path, dataset.into(), config, backing)
    }
}

/// The fingerprint a snapshot of `I` records (see [`PersistentIndex`]).
fn snapshot_fingerprint<I: PersistentIndex>(config: &I::Config, data_fingerprint: u64) -> u64 {
    let mut f = Fingerprint::new();
    f.push_str(I::KIND);
    I::hash_config(config, &mut f);
    f.push_u64(data_fingerprint);
    f.finish()
}
