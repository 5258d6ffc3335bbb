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

use hydra_core::{Dataset, DistanceHistogram, Error, HierarchicalIndex, QueryStats, StoreCounters};
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

/// Re-attaches the raw series under the requested backing, in dataset
/// order (`order = None`) or permuted by `order[record] = dataset id`
/// (`order` must cover the source): resident (re-appended from the source,
/// one series at a time when it is streamed; the exact values are all
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
            _ => {
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
/// they live: the contiguous extent [`Collection::materialize`] (or a
/// snapshot load) assigned, stale once the collection has grown.
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
    pub fn from_extent(start: usize, len: usize, num_series: usize) -> Result<Self> {
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
    /// [`Collection::materialize`] once the tree knows its leaves.
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
    /// extent.
    ///
    /// # Errors
    /// [`Error::DimensionMismatch`] if `dataset` has another series length.
    pub fn materialize<'a>(
        &mut self,
        dataset: &Dataset,
        leaves: impl Iterator<Item = &'a mut Leaf>,
    ) -> hydra_core::Result<()> {
        let permutation = self.permutation.as_mut().expect(NOT_LEAF_ORDERED);
        let to_dataset = &mut permutation.to_dataset;
        to_dataset.reserve(dataset.len());
        for leaf in leaves {
            leaf.start = self.store.len();
            leaf.len = leaf.members.len();
            for &id in &leaf.members {
                self.store.append(dataset.series(id))?;
                to_dataset.push(id);
            }
        }
        self.fingerprint = fingerprint_dataset(dataset);
        self.store.reset_io();
        Ok(())
    }

    /// Re-attaches the collection of a snapshot being loaded: in dataset
    /// order, or — given the snapshot's leaf-order `mapping`
    /// (`mapping[record]` = dataset id) — permuted. `fingerprint` is the
    /// source's content fingerprint, which every loader has already
    /// computed to check the snapshot header.
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
    pub fn activate_growth<'a>(&mut self, leaves: impl Iterator<Item = &'a mut Leaf>) {
        if self.grown {
            return;
        }
        let p = self.permutation.as_mut().expect(NOT_LEAF_ORDERED);
        for leaf in leaves {
            if leaf.members.len() != leaf.len {
                leaf.members = p.to_dataset[leaf.start..leaf.start + leaf.len].to_vec();
            }
        }
        let mut inverse = vec![usize::MAX; p.to_dataset.len()];
        for (row, &id) in p.to_dataset.iter().enumerate() {
            inverse[id] = row;
        }
        p.to_store = inverse;
        self.grown = true;
    }

    /// Appends one series in arrival order and returns its dataset id.
    ///
    /// # Errors
    /// [`Error::DimensionMismatch`] if the series has the wrong length.
    ///
    /// # Panics
    /// Panics on a leaf-ordered collection that was not switched into
    /// growth mode first ([`Collection::activate_growth`]).
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
    pub fn snapshot_layout<'a>(
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
    /// [`HierarchicalIndex::refine_leaf`]. Mirrors
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
    /// Panics before [`Collection::activate_growth`]: a pristine
    /// collection keeps no inverse mapping.
    pub fn row_of(&self, id: usize) -> usize {
        self.permutation().to_store[id]
    }

    /// The dataset id of every store row of a leaf-ordered collection, in
    /// row order — what per-row data kept in arrival order is permuted by
    /// once [`Collection::materialize`] has laid the leaves out.
    pub(crate) fn dataset_ids(&self) -> &[usize] {
        &self.permutation().to_dataset
    }

    /// `tree` with every member of a refined leaf read and compared — no
    /// gate — through [`Collection::visit_leaf`], `leaf_of` naming the
    /// [`Leaf`] of a leaf node: the reference a tree gating its members on
    /// per-series summaries is held to.
    pub fn ungated<'a, T: HierarchicalIndex>(
        &'a self,
        tree: &'a T,
        leaf_of: impl Fn(usize) -> &'a Leaf + 'a,
    ) -> Ungated<'a, T> {
        Ungated {
            tree,
            collection: self,
            leaf_of: Box::new(leaf_of),
        }
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
    /// sampled over unaccounted by-id reads. The sampling sequence depends
    /// only on `(len, samples, seed)`, so after an ingest this is
    /// bit-identical to [`DistanceHistogram::from_dataset`] of a fresh
    /// build over the grown collection.
    pub fn pairwise_histogram(&self, samples: usize, bins: usize, seed: u64) -> DistanceHistogram {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        DistanceHistogram::from_pairwise(self.len(), samples, bins, seed, |i, j| {
            self.read_by_id(i, &mut a);
            self.read_by_id(j, &mut b);
            hydra_core::euclidean(&a, &b)
        })
    }

    /// Runs `body` over every query of a batch and returns the results in
    /// query order.
    ///
    /// On a file-backed store the queries are answered by
    /// `min(available_parallelism, batch)` workers — the calling thread
    /// and scoped threads — each taking the next query from a shared
    /// cursor, so one worker's page transfers overlap another's compute.
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
        answer_on_workers(queries, workers, scratch, body)
    }
}

thread_local! {
    /// The worker count [`with_batch_workers`] imposes on batches started
    /// from this thread (`None`: the host's parallelism).
    static BATCH_WORKERS: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Runs `f` with every file-backed batch it starts on this thread answered
/// by `workers` workers (at most one per query) instead of the host's
/// parallelism — a test seam, so that the parallel batch path is exercised
/// at 1, 2 and 4 workers on any machine. Nested calls restore the outer
/// count on every exit path.
#[doc(hidden)]
pub fn with_batch_workers<T>(workers: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            BATCH_WORKERS.with(|w| w.set(self.0));
        }
    }
    let _restore = Restore(BATCH_WORKERS.with(|w| w.replace(Some(workers.max(1)))));
    f()
}

/// The workers a file-backed batch may use: one per available core, or
/// what [`with_batch_workers`] imposes.
fn batch_workers() -> usize {
    BATCH_WORKERS
        .with(std::cell::Cell::get)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Answers `queries` in order on up to `workers` workers, at most one per
/// query (see [`Collection::answer_batch`]): the calling thread plus
/// scoped threads, each drawing the next query index from an atomic
/// cursor. With one worker nothing is spawned.
fn answer_on_workers<R: Send, S>(
    queries: &[&[f32]],
    workers: usize,
    scratch: impl Fn() -> S + Sync,
    body: impl Fn(&mut S, &[f32]) -> R + Sync,
) -> Vec<R> {
    let workers = workers.min(queries.len());
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let work = || {
        let mut scratch = scratch();
        let mut answered = Vec::new();
        loop {
            // Relaxed: the cursor only hands out indices; the answers reach
            // the caller through `join`.
            let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let Some(query) = queries.get(i) else {
                return answered;
            };
            answered.push((i, body(&mut scratch, query)));
        }
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut answered = work();
        for helper in helpers {
            answered.extend(helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        answered.sort_unstable_by_key(|&(i, _)| i);
        answered.into_iter().map(|(_, result)| result).collect()
    })
}

/// A tree whose leaves are refined without its member gate (see
/// [`Collection::ungated`]): every other call is the tree's own, so a
/// search over it visits the same leaves in the same order and differs only
/// in the series it reads.
pub struct Ungated<'a, T> {
    tree: &'a T,
    collection: &'a Collection,
    leaf_of: Box<dyn Fn(usize) -> &'a Leaf + 'a>,
}

impl<T: HierarchicalIndex> HierarchicalIndex for Ungated<'_, T> {
    type Prepared = T::Prepared;

    fn roots(&self) -> &[usize] {
        self.tree.roots()
    }

    fn is_leaf(&self, node: usize) -> bool {
        self.tree.is_leaf(node)
    }

    fn children(&self, node: usize) -> &[usize] {
        self.tree.children(node)
    }

    fn prepare(&self, query: &[f32]) -> T::Prepared {
        self.tree.prepare(query)
    }

    fn min_dist(&self, query: &[f32], prepared: &T::Prepared, node: usize) -> f32 {
        self.tree.min_dist(query, prepared, node)
    }

    fn leaf_size(&self, node: usize) -> usize {
        self.tree.leaf_size(node)
    }

    fn refine_leaf(
        &self,
        node: usize,
        query: &[f32],
        _prepared: &T::Prepared,
        best_so_far: f32,
        stats: &mut QueryStats,
        accept: &mut dyn FnMut(usize, f32) -> f32,
    ) -> u64 {
        let mut bound = best_so_far;
        let mut compared = 0;
        self.collection
            .visit_leaf((self.leaf_of)(node), stats, &mut |id, series| {
                compared += 1;
                if let Some(d) = hydra_core::euclidean_early_abandon(query, series, bound) {
                    bound = accept(id, d);
                }
            });
        compared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::save_dataset;
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
    fn a_batch_comes_back_in_query_order_with_one_scratch_per_worker() {
        let queries: Vec<Vec<f32>> = (0..9).map(|i| vec![i as f32]).collect();
        let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        for workers in [1usize, 2, 4, 16] {
            let scratches = std::sync::atomic::AtomicUsize::new(0);
            let got = answer_on_workers(
                &refs,
                workers,
                || scratches.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                |_, query| query[0] as usize,
            );
            assert_eq!(got, (0..9).collect::<Vec<_>>(), "{workers} workers");
            assert_eq!(scratches.into_inner(), workers.min(9), "{workers} workers");

            // A panicking body unwinds out of the batch with its own
            // payload, whichever worker answered the query.
            let unwound = std::panic::catch_unwind(|| {
                answer_on_workers(&refs, workers, || (), |_, query| {
                    if query[0] == 5.0 {
                        panic!("query body");
                    }
                })
            });
            let payload = unwound.expect_err("the body's panic propagates");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"query body"));
        }
        let none: Vec<usize> = answer_on_workers(&[], 4, || (), |_, _| unreachable!());
        assert!(none.is_empty());

        // Only a file-backed batch fans out: a resident one stays on the
        // calling thread whatever the worker count.
        let resident = Collection::dataset_order(&sample(), StorageConfig::in_memory()).unwrap();
        let caller = std::thread::current().id();
        let thread = |_: &mut (), _: &[f32]| std::thread::current().id();
        let threads = with_batch_workers(4, || resident.answer_batch(&refs, || (), thread));
        assert!(threads.iter().all(|&t| t == caller));
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
        for mut collection in [leaf_ordered, dataset_ordered] {
            assert_eq!(collection.fingerprint(), fingerprint_dataset(&head));
            // Ids continue the dataset order.
            for (id, series) in full.iter().enumerate().skip(4) {
                assert_eq!(collection.append(series).unwrap(), id);
            }
            assert_eq!(collection.len(), full.len());
            assert_eq!(collection.fingerprint(), fingerprint_dataset(&full));
            let sampled = collection.pairwise_histogram(500, 16, 7);
            let fresh = DistanceHistogram::from_dataset(&full, 500, 16, 7);
            assert_eq!(sampled.bin_edges(), fresh.bin_edges());
            assert_eq!(sampled.cumulative_counts(), fresh.cumulative_counts());
            assert!(collection.check_lengths(&[&[0.0; 4], &[0.0; 3]]).is_err());
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
