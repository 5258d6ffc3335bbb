//! The raw-series tier of a disk-resident index.
//!
//! The paper's data-series indexes win on disk because they keep the raw
//! series in a layout the index can sweep. [`Collection`] is the single
//! owner of that idea for the whole zoo — the [`SeriesStore`], the record
//! order, the content fingerprint and the growth state — so each index
//! keeps only what is its own (nodes, words, approximations, projections):
//!
//! * **Dataset order** (VA+file, SRS): record `i` is series `i`.
//!   File-backed, the dataset snapshot itself is the backing file when its
//!   path is known ([`crate::dataset::dataset_flat_region`]); otherwise a
//!   flat-file sidecar next to the index snapshot is used.
//! * **Leaf order** (DSTree, iSAX2+): every [`Leaf`] owns one contiguous
//!   extent of the store. File-backed, the leaf-ordered payload lives in a
//!   verified `<snapshot>.series` sidecar
//!   ([`crate::dataset::ensure_flat_series`]).
//!
//! A collection is *pristine* as built or loaded, and *grown* once series
//! were appended: a grown leaf-ordered store is interleaved by arrival, so
//! leaf access walks the maximal contiguous runs of the leaf's member rows
//! instead of one extent, and a save compacts back to the canonical leaf
//! order a fresh build would have materialized. Callers never see which.
//!
//! The backing (see [`StoreBacking`]) never changes answers: the store
//! serves bit-identical series either way, and the shared accounting in
//! `hydra-storage` keeps the per-query I/O counters identical too.

use std::borrow::Cow;
use std::path::Path;
use std::sync::OnceLock;

use hydra_core::workers::{answer_on_workers, batch_workers, fill_rows};
use hydra_core::{Dataset, DistanceHistogram, Error, QueryStats, StoreCounters};
use hydra_storage::{FileSpan, PageCodec, SeriesStore, StorageConfig};

use crate::dataset::{
    coded_sidecar_path, dataset_flat_region, ensure_coded_series, ensure_flat_series,
    sidecar_series_path, FlatSpan,
};
use crate::error::{PersistError, Result};
use crate::fingerprint::{fingerprint_dataset, SeriesFingerprinter};
use crate::stream::DataSource;
use crate::StoreBacking;

fn file_backed(path: &Path, span: FlatSpan, storage: StorageConfig) -> Result<SeriesStore> {
    SeriesStore::file_backed(
        path,
        FileSpan {
            offset: span.payload_offset,
            records: span.records,
        },
        span.series_len,
        storage,
    )
    .map_err(|e| {
        PersistError::Io(format!(
            "cannot attach file-backed store {}: {e}",
            path.display()
        ))
    })
}

/// Builds (or reuses) and attaches the coded-page sidecar of the flat
/// backing file at `backing_file` when `storage` selects a non-f32 codec.
/// A no-op under f32 — raw pages serve directly.
fn attach_coded_tier(
    store: &mut SeriesStore,
    backing_file: &Path,
    source: DataSource<'_>,
    order: Option<&[usize]>,
) -> Result<()> {
    let storage = store.config();
    if storage.codec == PageCodec::F32 {
        return Ok(());
    }
    let sidecar = coded_sidecar_path(backing_file, storage.codec);
    ensure_coded_series(&sidecar, source, order, &storage)?;
    store.attach_coded_file(&sidecar).map_err(|e| {
        PersistError::Io(format!(
            "cannot attach coded tier {}: {e}",
            sidecar.display()
        ))
    })
}

/// The series `order[0], order[1], …` of `dataset`, flat, in one copy
/// (`order` already checked against it): the fan-out's workers each fill
/// one run of rows of a fresh buffer ([`fill_rows`]), so its pages fault
/// in in parallel. The buffer has the capacity an append loop would have
/// doubled it to, a power of two of series, so the first ingest batch
/// after a reload does not reallocate it either.
fn gather(dataset: &Dataset, order: &[usize]) -> Vec<f32> {
    let series_len = dataset.series_len();
    let mut values = vec![0.0; series_len * order.len().next_power_of_two()];
    values.truncate(series_len * order.len());
    fill_rows(&mut values, series_len, |first, rows| {
        for (row, &id) in rows.chunks_exact_mut(series_len).zip(&order[first..]) {
            row.copy_from_slice(dataset.series(id));
        }
    });
    values
}

/// Re-attaches the raw series under the requested backing, in dataset
/// order (`order = None`) or permuted by `order[record] = dataset id`
/// (`order` must cover the source): resident (copied from an in-memory
/// source, gathered in parallel when permuted; re-appended one series at a
/// time from a streamed one; the exact values are all
/// there, so `storage.codec` does not apply) or file-backed through the
/// real page cache — onto the dataset snapshot itself for a dataset-order
/// store whose snapshot path is known (no extra bytes on disk), onto a
/// verified flat-file sidecar next to `snapshot` otherwise. Neither ever
/// materializes a streamed dataset.
fn attach_store(
    snapshot: &Path,
    source: DataSource<'_>,
    order: Option<&[usize]>,
    storage: StorageConfig,
    backing: StoreBacking<'_>,
) -> Result<SeriesStore> {
    let StoreBacking::FileBacked { dataset_snapshot } = backing else {
        let rebuild = |e| PersistError::Corrupt(format!("cannot rebuild series store: {e}"));
        let store = match (order, source) {
            (None, DataSource::InMemory(dataset)) => {
                SeriesStore::from_dataset(dataset, storage).map_err(rebuild)?
            }
            (Some(order), DataSource::InMemory(dataset)) => {
                source.records_in(Some(order))?;
                SeriesStore::from_values(dataset.series_len(), gather(dataset, order), storage)
                    .map_err(rebuild)?
            }
            (_, DataSource::Streamed(_)) => {
                let records = source.records_in(order)?;
                let mut store =
                    SeriesStore::new(source.series_len(), storage).map_err(rebuild)?;
                let fetch = source.series_fetch()?;
                let mut series = Vec::new();
                for record in 0..records {
                    fetch.get(order.map_or(record, |order| order[record]), &mut series)?;
                    store.append(&series).map_err(rebuild)?;
                }
                store
            }
        };
        store.reset_io();
        return Ok(store);
    };
    let (file, span) = match (dataset_snapshot, order) {
        (Some(data_path), None) => (
            data_path.to_path_buf(),
            dataset_flat_region(data_path, source)?,
        ),
        _ => {
            let sidecar = sidecar_series_path(snapshot);
            let span = ensure_flat_series(&sidecar, source, order)?;
            (sidecar, span)
        }
    };
    let mut store = file_backed(&file, span, storage)?;
    attach_coded_tier(&mut store, &file, source, order)?;
    Ok(store)
}

/// One leaf's share of a leaf-ordered [`Collection`].
///
/// The index owns *which* series a leaf holds — it pushes dataset ids onto
/// `members` while building and ingesting — and the collection owns *where*
/// they live: the contiguous extent the build's layout
/// ([`crate::LeafTree::lay_out`]) or a snapshot load assigned, stale once
/// the collection has grown.
#[derive(Debug, Default)]
pub struct Leaf {
    /// Dataset ids of the leaf's series. Authoritative while building and
    /// once the collection has grown; empty on a loaded pristine tree,
    /// whose extent says everything.
    pub members: Vec<usize>,
    start: usize,
    len: usize,
}

impl Leaf {
    /// A loaded leaf occupying records `start..start + len` of a store
    /// holding `num_series` records.
    ///
    /// # Errors
    /// [`PersistError::Corrupt`] if the extent exceeds the store.
    pub(crate) fn from_extent(start: usize, len: usize, num_series: usize) -> Result<Self> {
        if start.checked_add(len).is_none_or(|end| end > num_series) {
            return Err(PersistError::Corrupt(
                "leaf extent exceeds the series store".into(),
            ));
        }
        Ok(Self {
            members: Vec::new(),
            start,
            len,
        })
    }
}

/// The leaf-order permutation of a [`Collection`].
#[derive(Debug)]
struct Permutation {
    /// Dataset id of every store record.
    to_dataset: Vec<usize>,
    /// Store record of every dataset id — maintained only once the
    /// collection has grown (see [`Collection::activate_growth`]); empty
    /// while pristine.
    to_store: Vec<usize>,
}

/// The raw-series tier of a disk-resident index (see the module docs).
#[derive(Debug)]
pub struct Collection {
    store: SeriesStore,
    /// `None` in dataset order.
    permutation: Option<Permutation>,
    /// Content fingerprint of the dataset the collection was built over or
    /// loaded against, captured then so snapshotting a pristine collection
    /// never has to re-read the (possibly file-backed) store.
    fingerprint: u64,
    /// Whether series were appended after the build/load.
    grown: bool,
}

/// Bins of the δ-ε histogram of every index kept over a collection.
pub const HISTOGRAM_BINS: usize = 256;

/// The [`HISTOGRAM_BINS`]-bin δ-ε histogram of an index kept over a
/// [`Collection`]: derived data, read only to set r_δ for a δ-ε query with
/// δ < 1 and to write a snapshot. A build starts it empty, a load fills it
/// from the snapshot, and an ingest batch resets it, so neither a build nor
/// the write path samples; the first reader samples it once
/// ([`LazyHistogram::get_or_sample`]) — from the same pairs and seed over
/// the same collection, so a grown index gets a fresh build's bits — and
/// every concurrent reader waits for that one sample.
#[derive(Debug, Default)]
pub struct LazyHistogram(OnceLock<DistanceHistogram>);

impl LazyHistogram {
    /// A histogram already at hand: a snapshot's.
    pub fn new(histogram: DistanceHistogram) -> Self {
        Self(OnceLock::from(histogram))
    }

    /// The histogram, if it was filled or sampled since the last reset.
    pub fn get(&self) -> Option<&DistanceHistogram> {
        self.0.get()
    }

    /// The histogram, sampled first from `samples` pairs drawn with `seed`
    /// over `collection` (unaccounted by-id reads on every core) if an
    /// ingest batch reset it.
    pub fn get_or_sample(
        &self,
        collection: &Collection,
        samples: usize,
        seed: u64,
    ) -> &DistanceHistogram {
        self.0
            .get_or_init(|| collection.pairwise_histogram(samples, HISTOGRAM_BINS, seed))
    }

    /// Forgets the histogram: the collection grew.
    pub fn reset(&mut self) {
        self.0.take();
    }
}

/// The store row of every dataset id, from the dataset id of every row.
fn invert(to_dataset: &[usize]) -> Vec<usize> {
    let mut to_store = vec![usize::MAX; to_dataset.len()];
    for (row, &id) in to_dataset.iter().enumerate() {
        to_store[id] = row;
    }
    to_store
}

/// The bug a leaf-order call on a dataset-order collection is.
const NOT_LEAF_ORDERED: &str = "leaf access needs a leaf-ordered collection";

impl Collection {
    /// A collection holding `dataset` in dataset order.
    ///
    /// # Errors
    /// Whatever [`SeriesStore::from_dataset`] rejects in `storage`.
    pub fn dataset_order(dataset: &Dataset, storage: StorageConfig) -> hydra_core::Result<Self> {
        let store = SeriesStore::from_dataset(dataset, storage)?;
        store.reset_io();
        Ok(Self {
            store,
            permutation: None,
            fingerprint: fingerprint_dataset(dataset),
            grown: false,
        })
    }

    /// An empty leaf-ordered collection, to be filled by
    /// [`crate::LeafTree::lay_out`] once the tree knows its leaves.
    ///
    /// # Errors
    /// Whatever [`SeriesStore::new`] rejects in `storage`.
    pub fn leaf_order(series_len: usize, storage: StorageConfig) -> hydra_core::Result<Self> {
        Ok(Self {
            store: SeriesStore::new(series_len, storage)?,
            permutation: Some(Permutation {
                to_dataset: Vec::new(),
                to_store: Vec::new(),
            }),
            fingerprint: 0,
            grown: false,
        })
    }

    /// Writes the members of every leaf contiguously into the store, in
    /// iteration order (the on-disk layout of the original implementations,
    /// where each leaf owns a contiguous region), and records each leaf's
    /// extent. The store is gathered in one copy on the fan-out, as a
    /// resident reload gathers it.
    ///
    /// # Errors
    /// [`Error::DimensionMismatch`] if `dataset` has another series length.
    pub(crate) fn materialize<'a>(
        &mut self,
        dataset: &Dataset,
        leaves: impl Iterator<Item = &'a mut Leaf>,
    ) -> hydra_core::Result<()> {
        if dataset.series_len() != self.series_len() {
            return Err(Error::DimensionMismatch {
                expected: self.series_len(),
                found: dataset.series_len(),
            });
        }
        let permutation = self.permutation.as_mut().expect(NOT_LEAF_ORDERED);
        let to_dataset = &mut permutation.to_dataset;
        to_dataset.reserve(dataset.len());
        for leaf in leaves {
            leaf.start = to_dataset.len();
            leaf.len = leaf.members.len();
            to_dataset.extend_from_slice(&leaf.members);
        }
        let values = gather(dataset, to_dataset);
        self.store = SeriesStore::from_values(self.series_len(), values, self.store.config())?;
        self.fingerprint = fingerprint_dataset(dataset);
        Ok(())
    }

    /// Re-attaches the collection of a snapshot being loaded: in dataset
    /// order, or — given the snapshot's leaf-order `mapping`
    /// (`mapping[record]` = dataset id) — permuted; resident over an
    /// in-memory source, a permuted store is gathered in one copy on the
    /// fan-out. `fingerprint` is the source's content fingerprint, which
    /// every loader has already computed to check the snapshot header.
    ///
    /// # Errors
    /// [`PersistError::Corrupt`] if the mapping does not cover the source
    /// or references series outside it; [`PersistError::Io`] on filesystem
    /// failures; [`PersistError::FingerprintMismatch`] if the backing names
    /// a dataset snapshot whose content is not the source's.
    pub fn attach(
        snapshot: &Path,
        source: DataSource<'_>,
        fingerprint: u64,
        mapping: Option<Vec<usize>>,
        storage: StorageConfig,
        backing: StoreBacking<'_>,
    ) -> Result<Self> {
        if mapping.as_ref().is_some_and(|m| m.len() != source.len()) {
            return Err(PersistError::Corrupt(
                "leaf-order mapping does not cover the dataset".into(),
            ));
        }
        Ok(Self {
            store: attach_store(snapshot, source, mapping.as_deref(), storage, backing)?,
            permutation: mapping.map(|to_dataset| Permutation {
                to_dataset,
                to_store: Vec::new(),
            }),
            fingerprint,
            grown: false,
        })
    }

    /// The storage layer holding the raw series.
    pub fn store(&self) -> &SeriesStore {
        &self.store
    }

    /// Cumulative I/O counters of the store.
    pub fn counters(&self) -> StoreCounters {
        self.store.io_snapshot()
    }

    /// Number of series held.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the collection holds no series.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Length of every series.
    #[inline]
    pub fn series_len(&self) -> usize {
        self.store.series_len()
    }

    /// Heap bytes of the record-order mappings (zero in dataset order).
    pub fn mapping_bytes(&self) -> usize {
        self.permutation.as_ref().map_or(0, |p| {
            (p.to_dataset.len() + p.to_store.len()) * std::mem::size_of::<usize>()
        })
    }

    fn permutation(&self) -> &Permutation {
        self.permutation.as_ref().expect(NOT_LEAF_ORDERED)
    }

    /// Rejects a query, or an ingest batch, containing a series of the
    /// wrong length — a batch before anything is appended, so a bad one
    /// never half-grows an index.
    ///
    /// # Errors
    /// [`Error::DimensionMismatch`] naming the first offending length.
    pub fn check_lengths(&self, series: &[&[f32]]) -> hydra_core::Result<()> {
        match series.iter().find(|s| s.len() != self.series_len()) {
            Some(series) => Err(Error::DimensionMismatch {
                expected: self.series_len(),
                found: series.len(),
            }),
            None => Ok(()),
        }
    }

    /// Switches a leaf-ordered collection into growth mode: repopulates the
    /// membership of `leaves` from their extents (a loaded tree carries
    /// none — a freshly built one still does) and builds the store-row
    /// inverse mapping. Idempotent.
    pub(crate) fn activate_growth<'a>(&mut self, leaves: impl Iterator<Item = &'a mut Leaf>) {
        if self.grown {
            return;
        }
        let p = self.permutation.as_mut().expect(NOT_LEAF_ORDERED);
        for leaf in leaves {
            if leaf.members.len() != leaf.len {
                leaf.members = p.to_dataset[leaf.start..leaf.start + leaf.len].to_vec();
            }
        }
        p.to_store = invert(&p.to_dataset);
        self.grown = true;
    }

    /// Appends one series in arrival order and returns its dataset id.
    ///
    /// # Errors
    /// [`Error::DimensionMismatch`] if the series has the wrong length.
    ///
    /// # Panics
    /// Panics on a leaf-ordered collection that was not switched into
    /// growth mode first ([`crate::LeafTree::begin_ingest`]).
    pub fn append(&mut self, series: &[f32]) -> hydra_core::Result<usize> {
        assert!(
            self.grown || self.permutation.is_none(),
            "activate_growth must precede the first append"
        );
        let id = self.len();
        let row = self.store.append(series)?;
        if let Some(p) = &mut self.permutation {
            p.to_dataset.push(id);
            p.to_store.push(row);
        }
        self.grown = true;
        Ok(id)
    }

    /// Reads the series with dataset id `id` without touching the buffer
    /// pool or any I/O counter (see [`SeriesStore::read_uncharged`]) — for
    /// the maintenance reads growth requires, never for a query path. A
    /// leaf-ordered collection serves it only once grown (the inverse
    /// mapping does not exist before).
    pub fn read_by_id(&self, id: usize, out: &mut Vec<f32>) {
        let row = self.permutation.as_ref().map_or(id, |p| p.to_store[id]);
        self.store.read_uncharged(row, out);
    }

    /// The leaf extents and leaf-order mapping a snapshot stores, given
    /// every node of the tree in id order (`None` for an internal node,
    /// which owns no extent). Pristine, they are saved verbatim; a grown
    /// collection **compacts** its arrival-interleaved layout to the
    /// canonical leaf order a fresh build would have materialized — node
    /// creation order is identical for the same insert sequence, so the
    /// snapshot bytes are identical too.
    pub(crate) fn snapshot_layout<'a>(
        &self,
        nodes: impl Iterator<Item = Option<&'a Leaf>>,
    ) -> (Vec<(usize, usize)>, Cow<'_, [usize]>) {
        let mut compacted = Vec::with_capacity(if self.grown { self.len() } else { 0 });
        let extents = nodes
            .map(|node| match node {
                None => (0, 0),
                Some(leaf) if self.grown => {
                    let extent = (compacted.len(), leaf.members.len());
                    compacted.extend_from_slice(&leaf.members);
                    extent
                }
                Some(leaf) => (leaf.start, leaf.len),
            })
            .collect();
        let mapping = if self.grown {
            Cow::Owned(compacted)
        } else {
            Cow::Borrowed(self.permutation().to_dataset.as_slice())
        };
        (extents, mapping)
    }

    /// Number of series in `leaf`, valid in both states (a grown leaf's
    /// extent is stale; its membership is authoritative).
    pub fn leaf_len(&self, leaf: &Leaf) -> usize {
        if self.grown {
            leaf.members.len()
        } else {
            leaf.len
        }
    }

    /// The one run walker: calls `run(start, count)` for each maximal
    /// contiguous run of store records holding `leaf`'s series, ascending.
    /// A pristine leaf is its extent; a grown leaf's series live at its
    /// members' rows — the original (ascending) leaf block plus appended
    /// arrivals — which are gathered and walked as maximal runs so
    /// sequential leaf I/O stays sequential where the layout permits.
    fn for_each_run(&self, leaf: &Leaf, mut run: impl FnMut(usize, usize)) {
        if !self.grown {
            if leaf.len > 0 {
                run(leaf.start, leaf.len);
            }
            return;
        }
        let to_store = &self.permutation().to_store;
        let mut rows: Vec<usize> = leaf.members.iter().map(|&id| to_store[id]).collect();
        rows.sort_unstable();
        let mut i = 0;
        while i < rows.len() {
            let mut j = i + 1;
            while j < rows.len() && rows[j] == rows[j - 1] + 1 {
                j += 1;
            }
            run(rows[i], j - i);
            i = j;
        }
    }

    /// The store record ranges holding `leaf`'s series, appended to `out` —
    /// the rows of a leaf, found without reading anything.
    pub fn leaf_ranges(&self, leaf: &Leaf, out: &mut Vec<(usize, usize)>) {
        self.for_each_run(leaf, |start, count| out.push((start, count)));
    }

    /// Visits every series of `leaf` with its dataset id and raw values,
    /// charging `stats` one [`SeriesStore::read_range`] per run — the raw
    /// reference [`Collection::refine_leaf`] is tested against.
    pub fn visit_leaf(
        &self,
        leaf: &Leaf,
        stats: &mut QueryStats,
        visit: &mut dyn FnMut(usize, &[f32]),
    ) {
        let to_dataset = &self.permutation().to_dataset;
        self.for_each_run(leaf, |start, count| {
            self.store
                .read_range(start, count, stats, &mut |pos, series| {
                    visit(to_dataset[pos], series)
                });
        });
    }

    /// Refines every series of `leaf` against `query` — the body of
    /// [`hydra_core::HierarchicalIndex::refine_leaf`]. Mirrors
    /// [`Collection::visit_leaf`]'s run structure through the store's
    /// `scan_refine`, threading the tightening bound from run to run, so on
    /// a coded store the leaf scan prunes on compressed pages (and only
    /// survivors read exact f32), while on a raw store the I/O charges are
    /// exactly `visit_leaf`'s.
    ///
    /// `gate(row, bound)` sees every member's store row with the bound live
    /// at that member and decides, before the store reads anything of it,
    /// whether it is compared at all (see [`SeriesStore::scan_refine`]); a
    /// tree with no per-series summary passes `|_, _| true`. Returns the
    /// number of members the gate kept.
    pub fn refine_leaf(
        &self,
        leaf: &Leaf,
        query: &[f32],
        best_so_far: f32,
        stats: &mut QueryStats,
        mut gate: impl FnMut(usize, f32) -> bool,
        accept: &mut dyn FnMut(usize, f32) -> f32,
    ) -> u64 {
        let to_dataset = &self.permutation().to_dataset;
        let mut bound = best_so_far;
        let mut kept = 0;
        self.for_each_run(leaf, |start, count| {
            bound = self.store.scan_refine(
                start,
                count,
                query,
                bound,
                stats,
                |row, bound| {
                    let keep = gate(row, bound);
                    kept += u64::from(keep);
                    keep
                },
                &mut |row, d| accept(to_dataset[row], d),
            );
        });
        kept
    }

    /// The store row holding the series with dataset id `id` of a grown
    /// leaf-ordered collection — where an index keeping per-row data finds
    /// the entry of a leaf member.
    ///
    /// # Panics
    /// Panics before the collection grows
    /// ([`crate::LeafTree::begin_ingest`]): a pristine collection keeps no
    /// inverse mapping.
    pub fn row_of(&self, id: usize) -> usize {
        self.permutation().to_store[id]
    }

    /// The dataset id of every store row of a leaf-ordered collection, in
    /// row order — what per-row data kept in arrival order is permuted by
    /// once [`Collection::materialize`] has laid the leaves out.
    pub(crate) fn dataset_ids(&self) -> &[usize] {
        &self.permutation().to_dataset
    }

    /// The content fingerprint ([`fingerprint_dataset`]) of the collection
    /// as currently held: the build/load-time cache while pristine, or an
    /// unaccounted dataset-order rescan of the store once grown.
    pub fn fingerprint(&self) -> u64 {
        if !self.grown {
            return self.fingerprint;
        }
        let mut f = SeriesFingerprinter::new(self.series_len(), self.len());
        match &self.permutation {
            None => self.store.for_each_series(&mut |_, series| {
                f.push_series(series);
            }),
            Some(p) => {
                let mut buf = Vec::new();
                for &row in &p.to_store {
                    self.store.read_uncharged(row, &mut buf);
                    f.push_series(&buf);
                }
            }
        }
        f.finish()
    }

    /// The δ-ε distance histogram of the collection as currently held,
    /// sampled over unaccounted by-id reads on every core (each worker
    /// reads into its own pair of buffers). The sampling sequence depends
    /// only on `(len, samples, seed)`, so this is bit-identical to
    /// [`DistanceHistogram::from_dataset`] over the collection's series in
    /// dataset order, built or grown. A pristine leaf-ordered collection
    /// keeps no id-to-row mapping, so the sample inverts its permutation.
    fn pairwise_histogram(&self, samples: usize, bins: usize, seed: u64) -> DistanceHistogram {
        let pristine = self.permutation.as_ref().filter(|p| p.to_store.is_empty());
        let to_store = pristine.map(|p| invert(&p.to_dataset));
        let read = |id: usize, out: &mut Vec<f32>| match &to_store {
            Some(rows) => self.store.read_uncharged(rows[id], out),
            None => self.read_by_id(id, out),
        };
        let buffers = || (Vec::new(), Vec::new());
        DistanceHistogram::from_pairwise(self.len(), samples, bins, seed, buffers, |(a, b), i, j| {
            read(i, a);
            read(j, b);
            hydra_core::euclidean(a, b)
        })
    }

    /// Runs `body` over every query of a batch and returns the results in
    /// query order.
    ///
    /// On a file-backed store the queries are answered on the batch
    /// fan-out ([`hydra_core::workers::answer_on_workers`]) by
    /// `min(cores, batch)` workers — the calling thread and scoped
    /// threads — each taking the next query from a shared cursor, so one
    /// worker's page transfers overlap another's compute.
    /// A resident store has no transfers to overlap: there a batch runs on
    /// the calling thread alone, as does a batch of one query or one on a
    /// one-core host. (Fanned out on a resident store, the benchmark's
    /// `route_exact` workload — two shard servers on a 2-core host — lost
    /// 6.5 % of its throughput: the helpers contend with the serving
    /// threads for the same cores.)
    ///
    /// Each worker calls `scratch` once and hands the value to `body` for
    /// every query it answers (a buffer with one entry per stored series
    /// is allocated per worker, not per query). A panicking `body` unwinds
    /// out of the call with its own payload once every worker has stopped.
    ///
    /// `body` sees every query, wrong-length ones included (it owns the
    /// error they produce), exactly as a per-query call would: answers and
    /// per-query logical counters are bit-identical to running `body` one
    /// query at a time, and on one worker so is every store counter. The
    /// batch schedules no I/O of its own — its queries do not share a
    /// working set — so with several workers only the interleaving of
    /// their accesses on the shared pool differs.
    pub fn answer_batch<R: Send, S>(
        &self,
        queries: &[&[f32]],
        scratch: impl Fn() -> S + Sync,
        body: impl Fn(&mut S, &[f32]) -> R + Sync,
    ) -> Vec<R> {
        let workers = if self.store.is_file_backed() { batch_workers() } else { 1 };
        answer_on_workers(queries, workers, scratch, |s, query| body(s, query))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::save_dataset;
    use hydra_core::workers::with_batch_workers;
    use hydra_storage::FileIoMode;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hydra-backing-{}-{name}", std::process::id()))
    }

    fn sample() -> Dataset {
        let mut d = Dataset::new(4).unwrap();
        for i in 0..10 {
            let s: Vec<f32> = (0..4).map(|j| (i * 4 + j) as f32).collect();
            d.push(&s).unwrap();
        }
        d
    }

    fn read_all(collection: &Collection) -> Vec<Vec<f32>> {
        let store = collection.store();
        let mut stats = QueryStats::new();
        (0..store.len())
            .map(|r| store.read(r, &mut stats).to_vec())
            .collect()
    }

    fn attach(
        snapshot: &Path,
        d: &Dataset,
        mapping: Option<&[usize]>,
        storage: StorageConfig,
        backing: StoreBacking<'_>,
    ) -> Result<Collection> {
        Collection::attach(
            snapshot,
            DataSource::InMemory(d),
            fingerprint_dataset(d),
            mapping.map(<[usize]>::to_vec),
            storage,
            backing,
        )
    }

    #[test]
    fn permuted_store_serves_identical_series_under_both_backings() {
        let d = sample();
        let snapshot = temp_path("perm.snap");
        std::fs::remove_file(crate::dataset::sidecar_series_path(&snapshot)).ok();
        let mapping: Vec<usize> = (0..10).rev().collect();
        let storage = StorageConfig {
            page_bytes: 32,
            buffer_pool_pages: 1,
            codec: PageCodec::F32,
            io: FileIoMode::Pread,
        };
        let filed_backing = StoreBacking::FileBacked {
            dataset_snapshot: None,
        };
        let resident =
            attach(&snapshot, &d, Some(&mapping), storage, StoreBacking::Resident).unwrap();
        let filed = attach(&snapshot, &d, Some(&mapping), storage, filed_backing).unwrap();
        assert!(!resident.store().is_file_backed());
        assert!(filed.store().is_file_backed());
        assert_eq!(read_all(&resident), read_all(&filed));
        assert!(
            filed.store().io_snapshot().pool_evictions > 0,
            "capacity 1 must thrash"
        );
        // A mapping outside the dataset, or not covering it, is corrupt
        // under either backing.
        let mut outside = mapping.clone();
        outside[3] = 99;
        for backing in [StoreBacking::Resident, filed_backing] {
            for bad in [&outside[..], &[99]] {
                assert!(matches!(
                    attach(&snapshot, &d, Some(bad), storage, backing),
                    Err(PersistError::Corrupt(_))
                ));
            }
        }
        std::fs::remove_file(crate::dataset::sidecar_series_path(&snapshot)).ok();
    }

    #[test]
    fn dataset_order_store_backs_onto_the_dataset_snapshot() {
        let d = sample();
        let snapshot = temp_path("order.snap");
        let data_snap = temp_path("order.data.snap");
        save_dataset(&d, &data_snap).unwrap();
        let storage = StorageConfig::on_disk();
        let resident = attach(&snapshot, &d, None, storage, StoreBacking::Resident).unwrap();
        let from_snap = attach(
            &snapshot,
            &d,
            None,
            storage,
            StoreBacking::FileBacked {
                dataset_snapshot: Some(&data_snap),
            },
        )
        .unwrap();
        let from_sidecar = attach(
            &snapshot,
            &d,
            None,
            storage,
            StoreBacking::FileBacked {
                dataset_snapshot: None,
            },
        )
        .unwrap();
        assert_eq!(read_all(&resident), read_all(&from_snap));
        assert_eq!(read_all(&resident), read_all(&from_sidecar));
        // The dataset snapshot was NOT copied: no sidecar appears when the
        // snapshot itself is the backing file.
        assert!(from_snap.store().is_file_backed());
        // A wrong dataset snapshot is refused, never silently served.
        let other = Dataset::from_flat(4, vec![0.0; 40]).unwrap();
        assert!(matches!(
            attach(
                &snapshot,
                &other,
                None,
                storage,
                StoreBacking::FileBacked {
                    dataset_snapshot: Some(&data_snap),
                },
            ),
            Err(PersistError::FingerprintMismatch { .. })
        ));
        std::fs::remove_file(&data_snap).ok();
        std::fs::remove_file(crate::dataset::sidecar_series_path(&snapshot)).ok();
    }

    #[test]
    fn coded_backings_answer_bit_identically_and_read_fewer_bytes() {
        // Pseudo-random values: a u8 grid cannot represent them exactly, so
        // quantization genuinely prunes and survivors genuinely re-read.
        let mut d = Dataset::new(4).unwrap();
        let mut x = 0x2545f491u32;
        for _ in 0..64 {
            let s: Vec<f32> = (0..4)
                .map(|_| {
                    x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                    (x >> 8) as f32 / (1 << 24) as f32 * 50.0 - 25.0
                })
                .collect();
            d.push(&s).unwrap();
        }
        let snapshot = temp_path("coded.snap");
        let mapping: Vec<usize> = (0..64).rev().collect();
        let scan = |collection: &Collection| {
            let store = collection.store();
            let query = vec![0.5f32; 4];
            let mut stats = QueryStats::new();
            let mut accepted = Vec::new();
            let mut best = f32::INFINITY;
            store.scan_refine(
                0,
                store.len(),
                &query,
                best,
                &mut stats,
                |_, _| true,
                &mut |id, dist| {
                    accepted.push((id, dist.to_bits()));
                    best = best.min(dist);
                    best
                },
            );
            (accepted, stats)
        };
        let attach_coded = |codec: PageCodec, backing: StoreBacking<'_>| {
            let storage = StorageConfig {
                page_bytes: 32,
                buffer_pool_pages: 2,
                codec,
                io: FileIoMode::Pread,
            };
            attach(&snapshot, &d, Some(&mapping), storage, backing).unwrap()
        };
        let cleanup = || {
            let sidecar = sidecar_series_path(&snapshot);
            for codec in [PageCodec::U8, PageCodec::F16] {
                std::fs::remove_file(coded_sidecar_path(&sidecar, codec)).ok();
            }
            std::fs::remove_file(sidecar).ok();
        };
        cleanup();

        let (want, raw_stats) = scan(&attach_coded(PageCodec::F32, StoreBacking::Resident));
        for codec in [PageCodec::U8, PageCodec::F16] {
            // The codec is a file-backed knob: a resident attach holds the
            // exact values, ignores it, and scans exactly as under f32.
            let resident = attach_coded(codec, StoreBacking::Resident);
            assert_eq!(resident.store().sealed(), 0, "resident attach stays raw");
            assert_eq!(scan(&resident), (want.clone(), raw_stats));
            let filed = attach_coded(
                codec,
                StoreBacking::FileBacked {
                    dataset_snapshot: None,
                },
            );
            assert_eq!(filed.store().sealed(), 64, "file attach seals via the sidecar");
            let (file_acc, file_stats) = scan(&filed);
            assert_eq!(file_acc, want, "{}: file answers drifted", codec.name());
            assert!(file_stats.bytes_read < raw_stats.bytes_read);
            assert!(filed.store().io_snapshot().compressed_bytes_read > 0);
        }
        cleanup();
    }

    #[test]
    fn only_a_file_backed_batch_fans_out() {
        let queries: Vec<Vec<f32>> = (0..9).map(|i| vec![i as f32]).collect();
        let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        let d = sample();
        let snapshot = temp_path("fan-out.snap");
        let filed_backing = StoreBacking::FileBacked {
            dataset_snapshot: None,
        };
        let resident = attach(&snapshot, &d, None, StorageConfig::in_memory(), StoreBacking::Resident);
        let filed = attach(&snapshot, &d, None, StorageConfig::on_disk(), filed_backing);
        for (collection, fans_out) in [(resident.unwrap(), false), (filed.unwrap(), true)] {
            for workers in [1usize, 2, 4] {
                let scratches = std::sync::atomic::AtomicUsize::new(0);
                let got = with_batch_workers(workers, || {
                    collection.answer_batch(
                        &refs,
                        || scratches.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                        |_, query| query[0] as usize,
                    )
                });
                assert_eq!(got, (0..9).collect::<Vec<_>>(), "{workers} workers");
                let want = if fans_out { workers } else { 1 };
                assert_eq!(scratches.into_inner(), want, "{workers} workers");
            }
        }
        std::fs::remove_file(sidecar_series_path(&snapshot)).ok();
    }

    #[test]
    fn a_grown_collection_fingerprints_and_samples_as_the_concatenated_dataset() {
        let full = sample();
        let head = Dataset::from_flat(4, full.as_flat()[..4 * 4].to_vec()).unwrap();
        let mut leaf = Leaf {
            members: (0..4).rev().collect(),
            ..Leaf::default()
        };
        let mut leaf_ordered = Collection::leaf_order(4, StorageConfig::in_memory()).unwrap();
        leaf_ordered
            .materialize(&head, std::iter::once(&mut leaf))
            .unwrap();
        leaf_ordered.activate_growth(std::iter::once(&mut leaf));
        let dataset_ordered = Collection::dataset_order(&head, StorageConfig::in_memory()).unwrap();
        // File-backed through pread: every sampled row is a positioned read
        // of the sidecar, or of the resident tail once appended.
        let storage = StorageConfig {
            io: FileIoMode::Pread,
            ..StorageConfig::on_disk().with_pool_pages(1)
        };
        let filed_backing = StoreBacking::FileBacked {
            dataset_snapshot: None,
        };
        let (leaf_snap, order_snap) = (temp_path("grown-leaf.snap"), temp_path("grown-order.snap"));
        let mapping: Vec<usize> = (0..4).rev().collect();
        let mut filed_leaf_ordered =
            attach(&leaf_snap, &head, Some(&mapping), storage, filed_backing).unwrap();
        let mut extent = Leaf::from_extent(0, 4, 4).unwrap();
        filed_leaf_ordered.activate_growth(std::iter::once(&mut extent));
        let filed_dataset_ordered = attach(&order_snap, &head, None, storage, filed_backing).unwrap();
        let fresh = DistanceHistogram::from_dataset(&full, 5_000, 16, 7);
        for mut collection in [leaf_ordered, dataset_ordered, filed_leaf_ordered, filed_dataset_ordered] {
            let filed = collection.store().is_file_backed();
            assert_eq!(collection.fingerprint(), fingerprint_dataset(&head));
            // Ids continue the dataset order.
            for (id, series) in full.iter().enumerate().skip(4) {
                assert_eq!(collection.append(series).unwrap(), id);
            }
            assert_eq!(collection.len(), full.len());
            assert_eq!(collection.fingerprint(), fingerprint_dataset(&full));
            // Five chunks of pairs, spread over four workers.
            let sampled = with_batch_workers(4, || collection.pairwise_histogram(5_000, 16, 7));
            assert_eq!(sampled.bin_edges(), fresh.bin_edges(), "file-backed: {filed}");
            assert_eq!(sampled.cumulative_counts(), fresh.cumulative_counts());
            assert_eq!(sampled.sample_count(), fresh.sample_count());
            assert_eq!(sampled.dataset_size(), fresh.dataset_size());
            assert!(collection.check_lengths(&[&[0.0; 4], &[0.0; 3]]).is_err());
        }
        for snap in [leaf_snap, order_snap] {
            std::fs::remove_file(sidecar_series_path(&snap)).ok();
        }
    }

    /// A grown leaf-ordered collection over `n` series whose store order
    /// is the permutation sorting `keys`, plus that permutation.
    fn grown_permuted(n: usize, keys: &[usize]) -> (Collection, Vec<usize>) {
        let mut d = Dataset::new(1).unwrap();
        for i in 0..n {
            d.push(&[i as f32]).unwrap();
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&id| (keys[id], id));
        let mut all = Leaf {
            members: order.clone(),
            ..Leaf::default()
        };
        let mut collection = Collection::leaf_order(1, StorageConfig::in_memory()).unwrap();
        collection.materialize(&d, std::iter::once(&mut all)).unwrap();
        collection.activate_growth(std::iter::once(&mut all));
        (collection, order)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// The one run walker: for an arbitrary store order and member
        /// subset, the runs are ascending, disjoint, maximal, and cover
        /// exactly the members' rows — and both leaf reads visit exactly
        /// the members, in row order.
        #[test]
        fn leaf_runs_are_ascending_maximal_and_cover_exactly_the_members(
            n in 1usize..48,
            keys in proptest::collection::vec(0usize..1000, 48),
            picks in proptest::collection::vec(0usize..2, 48),
        ) {
            let (collection, order) = grown_permuted(n, &keys);
            let leaf = Leaf {
                members: (0..n).filter(|&id| picks[id] == 1).collect(),
                ..Leaf::default()
            };
            let mut runs = Vec::new();
            collection.leaf_ranges(&leaf, &mut runs);

            let mut rows: Vec<usize> = leaf
                .members
                .iter()
                .map(|id| order.iter().position(|o| o == id).unwrap())
                .collect();
            rows.sort_unstable();
            let covered: Vec<usize> = runs.iter().flat_map(|&(s, c)| s..s + c).collect();
            proptest::prop_assert_eq!(&covered, &rows);
            proptest::prop_assert!(runs.iter().all(|&(_, count)| count > 0));
            // Ascending with a gap between neighbours: disjoint and maximal.
            proptest::prop_assert!(runs.windows(2).all(|w| w[0].0 + w[0].1 < w[1].0));

            let by_row: Vec<usize> = rows.iter().map(|&row| order[row]).collect();
            let mut stats = QueryStats::new();
            let mut visited = Vec::new();
            collection.visit_leaf(&leaf, &mut stats, &mut |id, series| {
                visited.push(id);
                assert_eq!(series, [id as f32]);
            });
            proptest::prop_assert_eq!(&visited, &by_row);
            let mut refined = Vec::new();
            let scanned = collection.refine_leaf(
                &leaf,
                &[0.0],
                f32::INFINITY,
                &mut stats,
                |_, _| true,
                &mut |id, _| {
                    refined.push(id);
                    f32::INFINITY
                },
            );
            proptest::prop_assert_eq!(scanned as usize, leaf.members.len());
            proptest::prop_assert_eq!(&refined, &by_row);

            runs.clear();
            collection.leaf_ranges(&Leaf::default(), &mut runs);
            proptest::prop_assert!(runs.is_empty(), "an empty leaf yields nothing");
        }

        /// A pristine leaf is exactly its extent, whatever its membership;
        /// an empty one is nothing.
        #[test]
        fn a_pristine_leaf_is_exactly_its_extent(
            n in 1usize..48,
            start in 0usize..48,
            len in 0usize..48,
        ) {
            let d = Dataset::from_flat(1, (0..n).map(|i| i as f32).collect()).unwrap();
            let mapping: Vec<usize> = (0..n).rev().collect();
            let collection = attach(
                Path::new("unused"),
                &d,
                Some(&mapping),
                StorageConfig::in_memory(),
                StoreBacking::Resident,
            )
            .unwrap();
            let (start, len) = (start % n, len % (n - start % n + 1));
            let leaf = Leaf::from_extent(start, len, n).unwrap();
            let mut runs = Vec::new();
            collection.leaf_ranges(&leaf, &mut runs);
            let want: Vec<(usize, usize)> = if len == 0 { vec![] } else { vec![(start, len)] };
            proptest::prop_assert_eq!(runs, want);
            proptest::prop_assert_eq!(collection.leaf_len(&leaf), len);
            proptest::prop_assert!(Leaf::from_extent(start, n - start + 1, n).is_err());
        }
    }
}
