//! The series store: its configuration, the one page path every tier is
//! served through (with the I/O accounting written once on it), and the
//! public API. Where the values live is `backing.rs`'s business.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use hydra_core::{Dataset, Error, QueryStats, Result};
use parking_lot::Mutex;

use crate::backing::{Backing, FileBacked};
use crate::buffer::{BufferPool, Frame};
use crate::coded::{
    coded_records_bytes, coded_series_bytes, conservative_threshold, page_disk_bytes, CodedPage,
    PageCodec, PageCodes,
};

/// How a file-backed store moves page bytes off disk. Like the pool
/// capacity and the page codec, the I/O mode shapes only how transfers
/// happen, never answers — both modes feed the identical frame bytes
/// through the identical pool/accounting path, so on one thread the
/// hit/miss/eviction sequence and every [`QueryStats`] field are the same
/// under either. (Readers on several threads transfer outside the pool
/// lock, so how their accesses interleave — and with it the split of
/// hits, misses and I/O operations — varies from run to run in either
/// mode.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FileIoMode {
    /// Positional reads ([`std::os::unix::fs::FileExt::read_exact_at`]) —
    /// one syscall per pool miss.
    #[default]
    Pread,
    /// The backing span is mapped read-only once ([`mmap(2)`]); a pool miss
    /// copies the frame out of the mapping instead of issuing a syscall.
    /// Frames are still *copied* (the payload offset is not f32-aligned,
    /// and the pool must own its bytes for eviction to mean anything), so
    /// accounting stays a measurement of the same transfers.
    ///
    /// [`mmap(2)`]: https://man7.org/linux/man-pages/man2/mmap.2.html
    Mmap,
}

impl FileIoMode {
    /// The mode's CLI name (`--backing pread|mmap`).
    pub fn name(self) -> &'static str {
        match self {
            FileIoMode::Pread => "pread",
            FileIoMode::Mmap => "mmap",
        }
    }

    /// Parses a CLI name; `None` for anything but `pread`/`mmap`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "pread" => Some(FileIoMode::Pread),
            "mmap" => Some(FileIoMode::Mmap),
            _ => None,
        }
    }
}

/// Configuration of the storage layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageConfig {
    /// Size of one disk page in bytes.
    pub page_bytes: usize,
    /// Capacity of the buffer pool in pages. Use a large value (or
    /// [`StorageConfig::in_memory`]) to model a dataset that fits in RAM.
    pub buffer_pool_pages: usize,
    /// How sealed pages are encoded — the compressed page tier of a
    /// file-backed store. Ignored by resident stores, which hold the exact
    /// values already. Like the pool capacity, the codec shapes only I/O
    /// economics, never answers (the refinement contract recomputes every
    /// returned distance from exact f32 values), so it is a pure serving
    /// knob.
    pub codec: PageCodec,
    /// How a file-backed store transfers page bytes (`pread` or `mmap`).
    /// Ignored by resident stores; a pure serving knob like the others.
    pub io: FileIoMode,
}

impl StorageConfig {
    /// The default on-disk configuration: 64 KiB pages and a pool of 128
    /// pages (8 MiB), small relative to the datasets used in experiments.
    pub fn on_disk() -> Self {
        Self {
            page_bytes: 64 * 1024,
            buffer_pool_pages: 128,
            codec: PageCodec::F32,
            io: FileIoMode::Pread,
        }
    }

    /// A configuration whose pool always holds the entire dataset, so only
    /// cold (first-touch) reads are charged — the in-memory scenario.
    pub fn in_memory() -> Self {
        Self {
            page_bytes: 64 * 1024,
            buffer_pool_pages: usize::MAX / 2,
            codec: PageCodec::F32,
            io: FileIoMode::Pread,
        }
    }

    /// This configuration with the buffer pool capacity replaced — the
    /// `--pool-pages N` serving knob. Pool capacity shapes only I/O
    /// economics, never answers, so it may differ freely between the
    /// process that built an index and the one that serves it.
    pub fn with_pool_pages(self, pages: usize) -> Self {
        Self {
            buffer_pool_pages: pages,
            ..self
        }
    }

    /// This configuration with the page codec replaced — the
    /// `--page-codec` serving knob. Like the pool capacity, a codec may
    /// differ freely between the process that built an index and the one
    /// that serves it: answers are bit-identical by the refinement
    /// contract.
    pub fn with_page_codec(self, codec: PageCodec) -> Self {
        Self { codec, ..self }
    }

    /// This configuration with the file I/O mode replaced — the
    /// `--backing pread|mmap` serving knob. Answers and accounting are
    /// identical under either mode (see [`FileIoMode`]).
    pub fn with_io_mode(self, io: FileIoMode) -> Self {
        Self { io, ..self }
    }
}

impl Default for StorageConfig {
    fn default() -> Self {
        Self::on_disk()
    }
}

/// Cumulative I/O counters of a store since creation (or the last reset):
/// the core [`hydra_core::StoreCounters`] the observability layer scrapes through
/// [`hydra_core::AnnIndex::store_counters`]. A miss charges `bytes_read`
/// the bytes of the page's records (whole frames, truncated at the tail;
/// coded page records), which a file-backed store actually transfers and
/// a resident one charges alike.
pub use hydra_core::StoreCounters as IoSnapshot;

#[derive(Debug)]
struct AccessState {
    pool: BufferPool,
    last_page: Option<u64>,
    totals: IoSnapshot,
}

impl AccessState {
    /// Records the outcome of one page access: a pool hit (`miss_bytes` is
    /// `None`), or a miss that transferred `miss_bytes` — from a coded page
    /// when `compressed`. The single accounting path of every tier, so a
    /// file-backed store charges exactly the hit/miss/random/sequential
    /// sequence the simulated store would.
    fn charge(
        &mut self,
        page: u64,
        miss_bytes: Option<u64>,
        compressed: bool,
        stats: &mut QueryStats,
    ) {
        match miss_bytes {
            None => self.totals.pool_hits += 1,
            Some(bytes) => {
                self.totals.pool_misses += 1;
                let sequential = self.last_page == Some(page.wrapping_sub(1))
                    || self.last_page == Some(page);
                if sequential {
                    self.totals.sequential_ios += 1;
                    stats.sequential_ios += 1;
                } else {
                    self.totals.random_ios += 1;
                    stats.random_ios += 1;
                }
                self.totals.bytes_read += bytes;
                if compressed {
                    self.totals.compressed_bytes_read += bytes;
                }
            }
        }
        self.last_page = Some(page);
    }
}

/// Where a record's byte range lives inside a backing file: the series
/// payload starts `offset` bytes into the file and holds `records`
/// fixed-length series, contiguous and little-endian (IEEE-754 bit
/// patterns) — the layout of `hydra-persist`'s dataset snapshots, and so
/// of its `.series` sidecars.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileSpan {
    /// Byte offset of record 0 within the file.
    pub offset: u64,
    /// Number of series in the span.
    pub records: usize,
}

/// The compressed page tier of a file-backed store (codec ≠ f32): the
/// sidecar holding the encoded pages of the *sealed* region (records
/// `0..sealed`) from byte `offset` on. A pool miss is a genuine `pread` of
/// the coded record, so the compressed byte counts are real transfers.
/// Records at or beyond `sealed` — streaming-ingest tail growth — always go
/// through the raw path.
#[derive(Debug)]
struct CodedFile {
    file: std::fs::File,
    path: PathBuf,
    offset: u64,
    sealed: usize,
}

/// The cached frame of `page` in the representation `view` selects.
fn cached_frame<T>(pool: &mut BufferPool, page: u64, view: fn(&Frame) -> Option<T>) -> Option<T> {
    let hit = view(&pool.fetch(page)?);
    if hit.is_none() {
        // The slot holds this page's *other* representation (possible only
        // for the one page straddling the seal boundary, when raw tail
        // reads and coded scans interleave). A raw read cannot be served
        // from codes, nor a coded probe from raw values, so invalidate and
        // let the caller fault the wanted bytes in.
        pool.remove(page);
    }
    hit
}

/// A guard over one series read from a [`SeriesStore`], dereferencing to
/// `&[f32]`.
///
/// On a resident store this borrows the store's flat vector (zero-copy,
/// exactly the old behaviour); on a file-backed store it keeps the cached
/// page frame alive for as long as the caller looks at the series, so an
/// eviction on another thread can never invalidate the view.
#[derive(Debug)]
pub struct SeriesRead<'a>(ReadRepr<'a>);

#[derive(Debug)]
enum ReadRepr<'a> {
    Resident(&'a [f32]),
    Cached {
        frame: Arc<[f32]>,
        start: usize,
        len: usize,
    },
}

impl std::ops::Deref for SeriesRead<'_> {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        match &self.0 {
            ReadRepr::Resident(slice) => slice,
            ReadRepr::Cached { frame, start, len } => &frame[*start..*start + *len],
        }
    }
}

impl AsRef<[f32]> for SeriesRead<'_> {
    fn as_ref(&self) -> &[f32] {
        self
    }
}

/// A flat, append-only store of fixed-length series with paged access, in
/// one of the three tiers the crate docs describe: resident
/// ([`SeriesStore::new`] / [`SeriesStore::from_dataset`]), file-backed raw
/// ([`SeriesStore::file_backed`]), or file-backed coded (plus
/// [`SeriesStore::attach_coded_file`]).
///
/// Record ids are assigned in append order; indexes lay out their leaves by
/// appending leaf contents contiguously, so a leaf scan is a sequential read
/// and a jump between leaves is a random read — matching the layout of the
/// original on-disk implementations.
///
/// Pages hold a whole number of series (`page_bytes / series_bytes`,
/// minimum one), so a record never straddles a page; a series larger than
/// `page_bytes` makes each page one series.
#[derive(Debug)]
pub struct SeriesStore {
    series_len: usize,
    /// Series per page: `page_bytes / series_bytes`, minimum one.
    spp: usize,
    config: StorageConfig,
    backing: Backing,
    /// The coded tier; `None` means every access is raw (the f32 codec, a
    /// resident store — it already holds the exact values a coded copy
    /// would only shadow — or a file-backed store no sidecar was attached
    /// to).
    coded: Option<CodedFile>,
    state: Mutex<AccessState>,
}

impl SeriesStore {
    fn validated(series_len: usize, config: StorageConfig, backing: Backing) -> Result<Self> {
        if series_len == 0 {
            return Err(Error::InvalidParameter(
                "series length must be positive".into(),
            ));
        }
        if config.page_bytes < std::mem::size_of::<f32>() {
            return Err(Error::InvalidParameter(
                "page size must hold at least one value".into(),
            ));
        }
        Ok(Self {
            series_len,
            spp: (config.page_bytes / (series_len * std::mem::size_of::<f32>())).max(1),
            config,
            backing,
            coded: None,
            state: Mutex::new(AccessState {
                pool: BufferPool::new(config.buffer_pool_pages),
                last_page: None,
                totals: IoSnapshot::default(),
            }),
        })
    }

    /// Creates an empty resident store for series of length `series_len`.
    pub fn new(series_len: usize, config: StorageConfig) -> Result<Self> {
        Self::validated(series_len, config, Backing::new(None, Vec::new()))
    }

    /// Creates a resident store populated with the contents of a dataset,
    /// preserving record ids = dataset positions.
    pub fn from_dataset(dataset: &Dataset, config: StorageConfig) -> Result<Self> {
        Self::from_values(dataset.series_len(), dataset.as_flat().to_vec(), config)
    }

    /// Creates a resident store holding `values`, flat in record order, and
    /// keeping their spare capacity for appends.
    ///
    /// # Errors
    /// [`Error::DimensionMismatch`] if `values` ends in a partial series;
    /// otherwise what [`SeriesStore::new`] rejects.
    pub fn from_values(series_len: usize, values: Vec<f32>, config: StorageConfig) -> Result<Self> {
        if series_len > 0 && values.len() % series_len != 0 {
            return Err(Error::DimensionMismatch {
                expected: series_len,
                found: values.len() % series_len,
            });
        }
        Self::validated(series_len, config, Backing::new(None, values))
    }

    /// The series the store's resident values hold room for before they
    /// reallocate: its capacity for appends, past [`SeriesStore::len`].
    pub fn resident_capacity(&self) -> usize {
        self.backing.span_records() + self.backing.capacity() / self.series_len
    }

    /// Attaches a store to the series payload at `span` inside the file at
    /// `path` — the out-of-core backing. The file is opened read-only and
    /// must stay immutable while the store lives; every cold read is a real
    /// page-granular transfer.
    ///
    /// # Errors
    /// [`Error::Storage`] if the file cannot be opened or is shorter than
    /// the span promises; [`Error::InvalidParameter`] for a zero series
    /// length or a degenerate page size.
    pub fn file_backed(
        path: &Path,
        span: FileSpan,
        series_len: usize,
        config: StorageConfig,
    ) -> Result<Self> {
        let file = FileBacked::open(path, span, series_len, config.io)?;
        Self::validated(series_len, config, Backing::new(Some(file), Vec::new()))
    }

    /// Whether this store reads from a backing file (vs. resident RAM).
    pub fn is_file_backed(&self) -> bool {
        self.backing.resident().is_err()
    }

    /// Appends one series, returning its record id.
    ///
    /// Both backings grow. A resident store extends its flat vector. A
    /// file-backed store keeps its backing file immutable and accumulates
    /// new records in a resident *tail* (records `span.records..`); the
    /// page frame the new record lands on is invalidated in the buffer
    /// pool, so readers never see a stale cached frame — growth keeps the
    /// pool coherent.
    ///
    /// # Errors
    /// [`Error::DimensionMismatch`] for a wrong series length.
    pub fn append(&mut self, series: &[f32]) -> Result<usize> {
        if series.len() != self.series_len {
            return Err(Error::DimensionMismatch {
                expected: self.series_len,
                found: series.len(),
            });
        }
        let id = self.len();
        self.backing.append(series);
        if self.is_file_backed() {
            // The page now holding `id` may be cached from before the
            // append (shorter, or missing the record entirely); drop it so
            // the next access reloads the assembled frame. A resident
            // store's id-only entry describes no contents and stays.
            self.state.lock().pool.remove(self.page_of(id));
        }
        Ok(id)
    }

    /// Number of series stored.
    pub fn len(&self) -> usize {
        self.backing.len(self.series_len)
    }

    /// Whether the store holds no series.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Length of each stored series.
    #[inline]
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// Total size of the stored raw payload in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.len() as u64 * self.series_bytes()
    }

    /// The storage configuration in use.
    pub fn config(&self) -> StorageConfig {
        self.config
    }

    /// The raw flat payload in record order, bypassing the I/O accounting
    /// entirely (no pool warm-up, no counters). This is a maintenance hatch
    /// for resident stores only — fingerprinting and snapshotting must not
    /// perturb the I/O economics the store exists to measure — and must
    /// never be used on a query path.
    ///
    /// # Errors
    /// [`Error::Storage`] on a file-backed store: there is no resident
    /// slice to hand out, and silently materializing one would defeat the
    /// out-of-core contract. Callers that need content identity use the
    /// fingerprint captured when the store was built or attached.
    pub fn as_flat(&self) -> Result<&[f32]> {
        self.backing.resident().map_err(|file| {
            Error::Storage(format!(
                "as_flat is resident-only: the payload of this store lives in {}",
                file.path().display()
            ))
        })
    }

    /// Bytes occupied by one series.
    fn series_bytes(&self) -> u64 {
        (self.series_len * std::mem::size_of::<f32>()) as u64
    }

    fn page_of(&self, record: usize) -> u64 {
        (record / self.spp) as u64
    }

    /// The records of `page` among the first `total`: `(first, count)`.
    fn page_records(&self, page: u64, total: usize) -> (usize, usize) {
        let first = page as usize * self.spp;
        (first, self.spp.min(total - first))
    }

    /// The one page access: every page any tier serves — for `read`,
    /// `read_range`, `refine`, `scan_refine` or the working-set prefetch —
    /// comes through here, so the protocol is written once. Takes the
    /// state lock and probes the pool with `probe` (`Ok` is a hit, charged
    /// under the same lock; `Err` carries what a miss takes from the pool
    /// in that same lock — a raw miss's parked frame); on a miss drops the
    /// lock and runs `load` on it — which returns what the tier hands its
    /// caller, the frame to cache (`None`: the page id alone, which the
    /// probe already claimed) and the bytes the transfer moved — then takes
    /// the lock again to charge the miss and install the frame.
    ///
    /// The transfer runs unlocked, so one reader's `pread` or mmap copy
    /// never stalls another reader's hits or transfers. Two readers
    /// missing the same page at once both transfer it and both are charged
    /// a miss (their bytes really moved); the first frame installed stays
    /// and the late one is dropped. On one thread the hit/miss sequence of
    /// a file-backed store stays identical to the resident simulation.
    fn access<T, S>(
        &self,
        page: u64,
        stats: &mut QueryStats,
        probe: impl FnOnce(&mut BufferPool) -> std::result::Result<T, S>,
        load: impl FnOnce(S) -> (T, Option<Frame>, u64),
    ) -> T {
        let taken = {
            let mut state = self.state.lock();
            match probe(&mut state.pool) {
                Ok(entry) => {
                    state.charge(page, None, false, stats);
                    return entry;
                }
                Err(taken) => taken,
            }
        };
        let (entry, frame, bytes) = load(taken);
        let compressed = matches!(frame, Some(Frame::Coded(_)));
        let mut state = self.state.lock();
        state.charge(page, Some(bytes), compressed, stats);
        if let Some(frame) = frame {
            state.pool.install(page, frame);
        }
        entry
    }

    /// Records `records` (all of one page) of the raw values of `page`,
    /// charged as one access. A resident page is a zero-copy borrow with
    /// nothing to load — the pool tracks its *id* only, enough to decide
    /// whether the access would have cost an I/O; a file-backed page is the
    /// cached or freshly read frame, read into the frame the pool parked
    /// when it last evicted one (see [`BufferPool`]). Either miss is
    /// charged the page's records, which is what the file-backed one
    /// transfers (whole frames, truncated at the tail).
    fn raw_page(
        &self,
        page: u64,
        records: std::ops::Range<usize>,
        stats: &mut QueryStats,
    ) -> SeriesRead<'_> {
        let len = records.len() * self.series_len;
        SeriesRead(match self.backing.resident() {
            Ok(values) => {
                let count = || self.page_records(page, self.len()).1 as u64;
                self.access(
                    page,
                    stats,
                    |pool| pool.access(page).then_some(()).ok_or(()),
                    |()| ((), None, count() * self.series_bytes()),
                );
                let start = records.start * self.series_len;
                ReadRepr::Resident(&values[start..start + len])
            }
            Err(_) => {
                let first = page as usize * self.spp;
                let probe = |pool: &mut BufferPool| {
                    cached_frame(pool, page, Frame::as_raw).ok_or_else(|| pool.take_parked())
                };
                let frame = self.access(page, stats, probe, |spare| {
                    let count = self.spp.min(self.len() - first);
                    let frame = self
                        .backing
                        .load_records(first, count, self.series_len, spare);
                    let bytes = std::mem::size_of_val(&*frame) as u64;
                    (Arc::clone(&frame), Some(Frame::Raw(frame)), bytes)
                });
                let start = (records.start - first) * self.series_len;
                ReadRepr::Cached { frame, start, len }
            }
        })
    }

    /// Reads one series, charging I/O to both the per-query `stats` and the
    /// store-wide totals.
    ///
    /// # Panics
    /// Panics if `record` is out of bounds, or (file-backed only) on a
    /// genuine disk fault: the span was validated when the store was
    /// attached, so a failing `pread` means real I/O trouble, not a
    /// recoverable query error.
    pub fn read(&self, record: usize, stats: &mut QueryStats) -> SeriesRead<'_> {
        assert!(record < self.len(), "record {record} out of bounds");
        stats.bytes_read += self.series_bytes();
        self.raw_page(self.page_of(record), record..record + 1, stats)
    }

    /// Reads `count` consecutive series starting at `start`, invoking
    /// `visit(record_id, series)` for each. The contiguous range is charged
    /// as one random positioning followed by sequential page reads; a range
    /// freely straddles page boundaries (each page is fetched once).
    pub fn read_range(
        &self,
        start: usize,
        count: usize,
        stats: &mut QueryStats,
        visit: &mut dyn FnMut(usize, &[f32]),
    ) {
        if count == 0 {
            return;
        }
        let end = (start + count).min(self.len());
        assert!(start < self.len(), "start {start} out of bounds");
        self.read_kept(start..end, stats, |_| true, visit);
    }

    /// The one raw range walk: visits the records of `range` that `keep`
    /// lets through, in order. A page is fetched (and charged its access)
    /// when its first kept record is met, and `bytes_read` is charged per
    /// kept record — so with everything kept this is a whole-range read,
    /// and a page with no kept record costs nothing.
    fn read_kept(
        &self,
        range: std::ops::Range<usize>,
        stats: &mut QueryStats,
        mut keep: impl FnMut(usize) -> bool,
        visit: &mut dyn FnMut(usize, &[f32]),
    ) {
        for page in self.page_of(range.start)..=self.page_of(range.end - 1) {
            let page_first = page as usize * self.spp;
            let records = range.start.max(page_first)..range.end.min(page_first + self.spp);
            let mut fetched = None;
            for record in records.clone() {
                if !keep(record) {
                    continue;
                }
                let values =
                    fetched.get_or_insert_with(|| self.raw_page(page, records.clone(), stats));
                stats.bytes_read += self.series_bytes();
                visit(
                    record,
                    &values[(record - records.start) * self.series_len..][..self.series_len],
                );
            }
        }
    }

    /// Reads one series into `out` without touching the buffer pool or any
    /// I/O counter — a maintenance hatch like [`SeriesStore::as_flat`], but
    /// available on both backings. Streaming ingest uses it for the
    /// maintenance reads growth requires (recomputing summaries, splitting
    /// tree leaves, re-fingerprinting at save time): those must not perturb
    /// the I/O economics the store exists to measure, and must never be
    /// used on a query path.
    ///
    /// # Panics
    /// Panics if `record` is out of bounds, or on a genuine disk fault.
    pub fn read_uncharged(&self, record: usize, out: &mut Vec<f32>) {
        assert!(record < self.len(), "record {record} out of bounds");
        self.backing.copy_series(record, self.series_len, out);
    }

    /// Visits every stored series in record order without touching the
    /// buffer pool or any I/O counter — the scan-shaped companion of
    /// [`SeriesStore::read_uncharged`], used by save-time fingerprinting
    /// and ingest-time retraining. Never use it on a query path.
    pub fn for_each_series(&self, visit: &mut dyn FnMut(usize, &[f32])) {
        let mut visit_run = |first: usize, values: &[f32]| {
            for (i, series) in values.chunks_exact(self.series_len).enumerate() {
                visit(first + i, series);
            }
        };
        match self.backing.resident() {
            Ok(values) => visit_run(0, values),
            Err(_) => {
                let len = self.len();
                for first in (0..len).step_by(self.spp) {
                    let count = self.spp.min(len - first);
                    let frame = self
                        .backing
                        .load_records(first, count, self.series_len, None);
                    visit_run(first, &frame);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // The compressed page tier (file-backed, codec != f32)
    // ------------------------------------------------------------------

    /// Number of records covered by the coded tier (0 when there is
    /// none). Records `0..sealed` are scanned through compressed pages by
    /// [`SeriesStore::refine`] / [`SeriesStore::scan_refine`]; records at
    /// or beyond it (streaming-ingest tail growth) always go raw.
    pub fn sealed(&self) -> usize {
        self.coded.as_ref().map_or(0, |tier| tier.sealed)
    }

    /// Attaches the coded sidecar at `path`, whose page records start at
    /// byte `offset`, as the compressed page tier of a **file-backed**
    /// store, sealing the span records. `hydra-persist` wrote and
    /// validated the sidecar for exactly this store's codec, series
    /// length, span size and page grouping; the store reads no header and
    /// checks only that the file holds the page records.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] on a resident store (it holds the exact
    /// values already; a coded copy could only simulate byte counts) or
    /// under the f32 codec; [`Error::Storage`] if the sidecar cannot be
    /// opened or is shorter than `offset` plus its page records.
    pub fn attach_coded_file(&mut self, path: &Path, offset: u64) -> Result<()> {
        if self.config.codec == PageCodec::F32 {
            return Err(Error::InvalidParameter(
                "the f32 codec has no coded tier to attach".into(),
            ));
        }
        if !self.is_file_backed() {
            return Err(Error::InvalidParameter(
                "resident stores have no coded tier".into(),
            ));
        }
        let sealed = self.backing.span_records();
        let pages = coded_records_bytes(sealed, self.series_len, self.spp, self.config.codec);
        let needed = offset.saturating_add(pages);
        let file = std::fs::File::open(path)
            .map_err(|e| Error::Storage(format!("cannot open {}: {e}", path.display())))?;
        let actual = file
            .metadata()
            .map_err(|e| Error::Storage(format!("cannot stat {}: {e}", path.display())))?
            .len();
        if actual < needed {
            return Err(Error::Storage(format!(
                "{} holds {actual} bytes but its pages need {needed}",
                path.display()
            )));
        }
        self.coded = Some(CodedFile {
            file,
            path: path.to_path_buf(),
            offset,
            sealed,
        });
        Ok(())
    }

    /// Logical bytes one coded series charges to a query.
    fn coded_record_bytes(&self) -> u64 {
        coded_series_bytes(self.series_len, self.config.codec)
    }

    /// The coded page `page` of the sealed region, charged as one access:
    /// a miss `pread`s the coded record and is charged its real byte size.
    fn coded_page(&self, tier: &CodedFile, page: u64, stats: &mut QueryStats) -> Arc<CodedPage> {
        let probe = |pool: &mut BufferPool| cached_frame(pool, page, Frame::as_coded).ok_or(());
        self.access(page, stats, probe, |()| {
            use std::os::unix::fs::FileExt;
            let (_, count) = self.page_records(page, tier.sealed);
            let codec = self.config.codec;
            let stride = page_disk_bytes(self.spp, self.series_len, codec);
            let bytes = page_disk_bytes(count, self.series_len, codec);
            let mut buf = vec![0u8; bytes as usize];
            tier.file
                .read_exact_at(&mut buf, tier.offset + page * stride)
                .unwrap_or_else(|e| {
                    panic!(
                        "coded series store: reading page {page} of {} failed: {e}",
                        tier.path.display()
                    )
                });
            let coded = CodedPage::from_disk_bytes(&buf, count, self.series_len, codec)
                .unwrap_or_else(|e| {
                    panic!("coded page {page} of {} is corrupt: {e}", tier.path.display())
                });
            let coded = Arc::new(coded);
            (Arc::clone(&coded), Some(Frame::Coded(coded)), bytes)
        })
    }

    /// Charges the exact-f32 read that refines one surviving candidate: a
    /// targeted random read of one raw series, bypassing the page pool
    /// (it does not disturb the coded scan's sequentiality detection).
    fn charge_exact_refinement(&self, stats: &mut QueryStats) {
        stats.bytes_read += self.series_bytes();
        stats.random_ios += 1;
        let mut state = self.state.lock();
        state.totals.bytes_read += self.series_bytes();
        state.totals.random_ios += 1;
    }

    /// Runs the fused quantized early-abandonment kernel for record
    /// `record` of the coded page `frame`, under the conservative bound.
    fn coded_probe(
        &self,
        frame: &CodedPage,
        idx_in_page: usize,
        query: &[f32],
        best_so_far: f32,
    ) -> Option<f32> {
        let threshold = conservative_threshold(best_so_far, frame.errs[idx_in_page]);
        let range = idx_in_page * self.series_len..(idx_in_page + 1) * self.series_len;
        match &frame.codes {
            PageCodes::U8(codes) => hydra_core::euclidean_early_abandon_u8(
                query,
                &codes[range],
                frame.min,
                frame.scale,
                threshold,
            ),
            PageCodes::F16(codes) => {
                hydra_core::euclidean_early_abandon_f16(query, &codes[range], threshold)
            }
        }
    }

    /// Refines one candidate: early-abandoning Euclidean distance between
    /// `query` and record `record`, returning `None` if the candidate
    /// provably cannot beat `best_so_far`.
    ///
    /// On a raw (f32) store this is exactly `read` followed by
    /// [`hydra_core::euclidean_early_abandon`], with identical charging.
    /// On a coded store the candidate is first probed through its
    /// compressed page under the conservative bound
    /// `best_so_far + residual_norm`; only survivors pay an exact-f32
    /// read (charged as one random I/O plus the series bytes) and re-run the
    /// *same* kernel on the exact values — so the returned distances, and
    /// therefore the answers, are bit-identical across codecs, while
    /// pruned candidates cost only their coded bytes.
    ///
    /// # Panics
    /// Panics if `record` is out of bounds, or on a genuine disk fault.
    pub fn refine(
        &self,
        record: usize,
        query: &[f32],
        best_so_far: f32,
        stats: &mut QueryStats,
    ) -> Option<f32> {
        assert!(record < self.len(), "record {record} out of bounds");
        let mut refined = None;
        self.scan_refine(
            record,
            1,
            query,
            best_so_far,
            stats,
            |_, _| true,
            &mut |_, d| {
                refined = Some(d);
                d
            },
        );
        refined
    }

    /// Refines `count` consecutive candidates starting at `start` — the
    /// scan-shaped companion of [`SeriesStore::refine`], used by tree
    /// leaves whose contents are contiguous runs. `accept(record, d)` is
    /// invoked for each surviving candidate and returns the (possibly
    /// tightened) bound for the rest of the scan; the final bound is
    /// returned.
    ///
    /// `gate(record, bound)` is asked about every record, in order, against
    /// the bound live at that record, before anything of the record is
    /// read: `false` skips it — no bytes charged, and a page none of whose
    /// records pass is never fetched. A caller with nothing cheaper than
    /// the series to decide on passes `|_, _| true`, which compiles away.
    ///
    /// With every record kept, a raw (f32) store charges exactly what
    /// [`SeriesStore::read_range`] plus the kernel would; on a coded store
    /// the sealed prefix of the range scans compressed pages and only
    /// survivors read exact f32 bytes, while any tail records (appended
    /// after sealing) fall through to the raw path.
    #[allow(clippy::too_many_arguments)]
    pub fn scan_refine(
        &self,
        start: usize,
        count: usize,
        query: &[f32],
        best_so_far: f32,
        stats: &mut QueryStats,
        mut gate: impl FnMut(usize, f32) -> bool,
        accept: &mut dyn FnMut(usize, f32) -> f32,
    ) -> f32 {
        if count == 0 {
            return best_so_far;
        }
        // Shared by the walk's keep and visit callbacks.
        let bound = std::cell::Cell::new(best_so_far);
        let end = (start + count).min(self.len());
        assert!(start < self.len(), "start {start} out of bounds");
        let mut raw_start = start;
        if let Some(tier) = &self.coded {
            let coded_end = end.min(tier.sealed);
            raw_start = start.max(tier.sealed);
            if coded_end > start {
                let mut exact = Vec::new();
                for page in self.page_of(start)..=self.page_of(coded_end - 1) {
                    let (page_first, in_page) = self.page_records(page, tier.sealed);
                    let mut fetched = None;
                    for record in start.max(page_first)..coded_end.min(page_first + in_page) {
                        if !gate(record, bound.get()) {
                            continue;
                        }
                        let frame =
                            fetched.get_or_insert_with(|| self.coded_page(tier, page, stats));
                        stats.bytes_read += self.coded_record_bytes();
                        if self
                            .coded_probe(frame, record - page_first, query, bound.get())
                            .is_some()
                        {
                            self.charge_exact_refinement(stats);
                            self.read_uncharged(record, &mut exact);
                            if let Some(d) =
                                hydra_core::euclidean_early_abandon(query, &exact, bound.get())
                            {
                                bound.set(accept(record, d));
                            }
                        }
                    }
                }
            }
        }
        if end > raw_start {
            self.read_kept(
                raw_start..end,
                stats,
                |record| gate(record, bound.get()),
                &mut |record, series| {
                    if let Some(d) = hydra_core::euclidean_early_abandon(query, series, bound.get())
                    {
                        bound.set(accept(record, d));
                    }
                },
            );
        }
        bound.get()
    }

    /// Snapshot of cumulative I/O counters.
    pub fn io_snapshot(&self) -> IoSnapshot {
        let state = self.state.lock();
        IoSnapshot {
            pool_evictions: state.pool.evictions(),
            ..state.totals
        }
    }

    /// Clears the buffer pool and resets cumulative counters (the paper
    /// clears caches before each experiment step). On a file-backed store
    /// this genuinely drops every cached frame.
    pub fn reset_io(&self) {
        let mut state = self.state.lock();
        state.pool.clear();
        state.last_page = None;
        state.totals = IoSnapshot::default();
    }

    // ------------------------------------------------------------------
    // Working-set pinning and prefetch
    // ------------------------------------------------------------------

    /// Declares a page working set: the pages covering each
    /// `(start, count)` record range are pinned in the buffer pool (never
    /// chosen as eviction victims) and, when `prefetch` is set, faulted in
    /// ascending page order so the misses are charged as one sequential
    /// sweep.
    ///
    /// No query path calls this: a batch's queries do not share the pages
    /// they read, and on the benchmark's traffic pinning a predicted
    /// working set cost more pool misses than it saved. It stays, with
    /// [`SeriesStore::release_working_set`] and the pool's pins, only
    /// because the benchmark's `storage.pin_working_set_us` probe calls it;
    /// it goes once that probe is retired.
    ///
    /// Returns the pages actually pinned — hand them back to
    /// [`SeriesStore::release_working_set`] when the batch completes.
    ///
    /// Semantics that keep the existing equivalence tests honest:
    /// - Pinning never changes *what* a read returns or how a per-query
    ///   [`QueryStats`] charges logical bytes; it only changes which pages
    ///   the pool keeps resident, i.e. the store-wide hit/miss economics.
    /// - The set is clipped to one page short of the pool capacity, so
    ///   demand paging always keeps at least one evictable slot; ranges
    ///   whose union exceeds the budget are truncated (those pages fall
    ///   back to plain LRU) rather than pinned into a read-through pool.
    /// - Prefetch goes through the same page access as any demand read —
    ///   the coded tier for sealed pages, the raw one otherwise — so its
    ///   charges land on the store totals identically; the per-page
    ///   scratch stats are discarded because prefetch belongs to the
    ///   batch, not to any one query.
    pub fn pin_working_set(&self, ranges: &[(usize, usize)], prefetch: bool) -> Vec<u64> {
        let len = self.len();
        let budget = self.config.buffer_pool_pages.saturating_sub(1);
        if len == 0 || budget == 0 {
            return Vec::new();
        }
        let mut pages: Vec<u64> = Vec::new();
        for &(start, count) in ranges {
            if count == 0 || start >= len {
                continue;
            }
            let end = start.saturating_add(count).min(len);
            pages.extend(self.page_of(start)..=self.page_of(end - 1));
        }
        pages.sort_unstable();
        pages.dedup();
        pages.truncate(budget);
        {
            let mut state = self.state.lock();
            for &page in &pages {
                state.pool.pin(page);
            }
        }
        if prefetch {
            // Ascending order makes the fault-in sweep sequential after the
            // first positioning. Only the pinned pages are prefetched:
            // faulting in pages the pool cannot protect would evict other
            // useful frames and then miss again on demand.
            let mut scratch = QueryStats::new();
            for &page in &pages {
                match &self.coded {
                    Some(tier) if (page as usize * self.spp) < tier.sealed => {
                        self.coded_page(tier, page, &mut scratch);
                    }
                    _ => {
                        let (first, count) = self.page_records(page, len);
                        self.raw_page(page, first..first + count, &mut scratch);
                    }
                }
            }
        }
        pages
    }

    /// Unpins pages previously returned by
    /// [`SeriesStore::pin_working_set`], restoring plain LRU eviction. Kept
    /// only for the benchmark probe that pairs it with that call.
    pub fn release_working_set(&self, pages: &[u64]) {
        let mut state = self.state.lock();
        for &page in pages {
            state.pool.unpin(page);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn dataset(n: usize, len: usize) -> Dataset {
        let mut d = Dataset::new(len).unwrap();
        for i in 0..n {
            let s: Vec<f32> = (0..len).map(|j| (i * len + j) as f32).collect();
            d.push(&s).unwrap();
        }
        d
    }

    fn small_store(n: usize, len: usize, config: StorageConfig) -> SeriesStore {
        small_store_of(&dataset(n, len), config)
    }

    fn small_store_of(d: &Dataset, config: StorageConfig) -> SeriesStore {
        SeriesStore::from_dataset(d, config).unwrap()
    }

    /// Writes the dataset's payload to a flat file behind a garbage header
    /// of `offset` bytes (proving the span offset is respected) and
    /// attaches a file-backed store over it.
    fn file_store(
        n: usize,
        len: usize,
        config: StorageConfig,
        name: &str,
    ) -> (SeriesStore, PathBuf) {
        file_store_of(&dataset(n, len), 32, config, name)
    }

    /// [`file_store`] over an arbitrary dataset and header length.
    fn file_store_of(
        d: &Dataset,
        offset: u64,
        config: StorageConfig,
        name: &str,
    ) -> (SeriesStore, PathBuf) {
        let path = std::env::temp_dir().join(format!(
            "hydra-storage-filestore-{}-{name}.flat",
            std::process::id()
        ));
        let mut bytes = vec![0xAAu8; offset as usize];
        for &v in d.as_flat() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        let span = FileSpan {
            offset,
            records: d.len(),
        };
        let store = SeriesStore::file_backed(&path, span, d.series_len(), config).unwrap();
        (store, path)
    }

    #[test]
    fn construction_validation() {
        assert!(SeriesStore::new(0, StorageConfig::default()).is_err());
        assert!(SeriesStore::new(
            8,
            StorageConfig {
                page_bytes: 1,
                buffer_pool_pages: 1,
                codec: PageCodec::F32,
                io: FileIoMode::Pread,
            }
        )
        .is_err());
        let mut s = SeriesStore::new(4, StorageConfig::default()).unwrap();
        assert!(s.is_empty());
        assert!(!s.is_file_backed());
        assert!(s.append(&[1.0, 2.0, 3.0]).is_err());
        assert_eq!(s.append(&[1.0, 2.0, 3.0, 4.0]).unwrap(), 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.series_len(), 4);
        assert_eq!(s.total_bytes(), 16);
        assert_eq!(s.as_flat().unwrap(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn read_returns_correct_series_and_charges_bytes() {
        let store = small_store(10, 4, StorageConfig::on_disk());
        let mut stats = QueryStats::new();
        let s = store.read(3, &mut stats);
        assert_eq!(&*s, &[12.0, 13.0, 14.0, 15.0]);
        assert_eq!(stats.bytes_read, 16);
    }

    #[test]
    fn sequential_scan_is_mostly_sequential_io() {
        // Page = 64 values = 16 series of length 4.
        let config = StorageConfig {
            page_bytes: 256,
            buffer_pool_pages: 0,
            codec: PageCodec::F32,
            io: FileIoMode::Pread,
        };
        let store = small_store(64, 4, config);
        let mut stats = QueryStats::new();
        store.read_range(0, 64, &mut stats, &mut |_, _| {});
        // 4 pages: the first positioning is random, the rest sequential.
        assert_eq!(stats.random_ios, 1);
        assert_eq!(stats.sequential_ios, 3);
        assert_eq!(stats.bytes_read, 64 * 16);
    }

    #[test]
    fn scattered_reads_are_random_io() {
        let config = StorageConfig {
            page_bytes: 256, // 16 series/page
            buffer_pool_pages: 0,
            codec: PageCodec::F32,
            io: FileIoMode::Pread,
        };
        let store = small_store(256, 4, config);
        let mut stats = QueryStats::new();
        // Jump between far-apart pages.
        for r in [0usize, 128, 16, 240, 64] {
            store.read(r, &mut stats);
        }
        assert_eq!(stats.random_ios, 5);
        assert_eq!(stats.sequential_ios, 0);
    }

    #[test]
    fn buffer_pool_absorbs_repeated_access() {
        let config = StorageConfig {
            page_bytes: 256,
            buffer_pool_pages: 1024,
            codec: PageCodec::F32,
            io: FileIoMode::Pread,
        };
        let store = small_store(64, 4, config);
        let mut stats = QueryStats::new();
        store.read(5, &mut stats);
        store.read(6, &mut stats); // same page -> pool hit
        assert_eq!(stats.random_ios + stats.sequential_ios, 1);
        let snap = store.io_snapshot();
        assert_eq!(snap.pool_hits, 1);
        assert_eq!(snap.pool_misses, 1);
        assert_eq!(snap.random_ios, 1);
    }

    #[test]
    fn reset_io_clears_totals_and_pool() {
        let store = small_store(64, 4, StorageConfig::in_memory());
        let mut stats = QueryStats::new();
        store.read(0, &mut stats);
        assert!(store.io_snapshot().random_ios > 0);
        store.reset_io();
        assert_eq!(store.io_snapshot(), IoSnapshot::default());
        let mut stats2 = QueryStats::new();
        store.read(0, &mut stats2);
        assert_eq!(stats2.random_ios, 1, "after reset the first read misses again");
    }

    #[test]
    fn read_range_clamps_to_len() {
        let store = small_store(10, 4, StorageConfig::in_memory());
        let mut stats = QueryStats::new();
        let mut seen = Vec::new();
        store.read_range(8, 100, &mut stats, &mut |id, _| seen.push(id));
        assert_eq!(seen, vec![8, 9]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_out_of_bounds_panics() {
        let store = small_store(4, 4, StorageConfig::in_memory());
        let mut stats = QueryStats::new();
        let _ = store.read(100, &mut stats);
    }

    // ------------------------------------------------------------------
    // File-backed behaviour
    // ------------------------------------------------------------------

    #[test]
    fn file_backed_reads_match_resident_reads_and_stats() {
        let config = StorageConfig {
            page_bytes: 64, // 4 series of length 4 per page
            buffer_pool_pages: 2,
            codec: PageCodec::F32,
            io: FileIoMode::Pread,
        };
        let resident = small_store(21, 4, config);
        let (file, path) = file_store(21, 4, config, "equiv");
        assert!(file.is_file_backed());
        assert_eq!(file.len(), 21);
        assert_eq!(file.total_bytes(), resident.total_bytes());

        // An access pattern with hits, misses, evictions, and a tail page.
        let pattern = [0usize, 1, 5, 0, 20, 7, 20, 3, 19];
        let mut rs = QueryStats::new();
        let mut fs = QueryStats::new();
        for &r in &pattern {
            let a = resident.read(r, &mut rs);
            let b = file.read(r, &mut fs);
            assert_eq!(&*a, &*b, "record {r} drifted between backings");
        }
        assert_eq!(rs, fs, "per-query stats must be identical across backings");
        let (ri, fi) = (resident.io_snapshot(), file.io_snapshot());
        assert_eq!(ri, fi, "store counters must be identical across backings");
        assert!(fi.pool_evictions > 0, "the pattern must evict at capacity 2");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_backed_read_range_straddles_page_boundaries() {
        let config = StorageConfig {
            page_bytes: 64, // 4 series/page
            buffer_pool_pages: 8,
            codec: PageCodec::F32,
            io: FileIoMode::Pread,
        };
        let (store, path) = file_store(21, 4, config, "straddle");
        let mut stats = QueryStats::new();
        let mut seen = Vec::new();
        // Records 2..19 span pages 0..=4 (page 5 untouched); the tail of the
        // range sits mid-page.
        store.read_range(2, 17, &mut stats, &mut |id, s| {
            assert_eq!(s[0], (id * 4) as f32, "record {id} content");
            seen.push(id);
        });
        assert_eq!(seen, (2..19).collect::<Vec<_>>());
        assert_eq!(stats.random_ios, 1, "one positioning");
        assert_eq!(stats.sequential_ios, 4, "then sequential pages");
        assert_eq!(stats.bytes_read, 17 * 16);
        // The tail page (records 20) was never fetched.
        assert_eq!(store.io_snapshot().pool_misses, 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_backed_bytes_read_measures_real_transfers() {
        let config = StorageConfig {
            page_bytes: 64, // 4 series/page -> frame = 64 bytes, tail = 1 series = 16 bytes
            buffer_pool_pages: 0,
            codec: PageCodec::F32,
            io: FileIoMode::Pread,
        };
        let (store, path) = file_store(9, 4, config, "bytes");
        let mut stats = QueryStats::new();
        store.read_range(0, 9, &mut stats, &mut |_, _| {});
        // Pages 0 and 1 are full frames (64 bytes), page 2 holds one series.
        assert_eq!(store.io_snapshot().bytes_read, 64 + 64 + 16);
        // The per-query counter stays logical (bytes delivered to the query).
        assert_eq!(stats.bytes_read, 9 * 16);
        // Re-reading with a cold pool transfers everything again.
        store.read_range(0, 9, &mut stats, &mut |_, _| {});
        assert_eq!(store.io_snapshot().bytes_read, 2 * (64 + 64 + 16));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn capacity_one_pool_still_answers_correctly() {
        // Regression: a pool of capacity 1 thrashes but never corrupts.
        let config = StorageConfig {
            page_bytes: 32, // 2 series of length 4 per page
            buffer_pool_pages: 1,
            codec: PageCodec::F32,
            io: FileIoMode::Pread,
        };
        let (store, path) = file_store(10, 4, config, "cap1");
        let mut stats = QueryStats::new();
        // Pinned sequence over pages 0,0,3,0: miss, hit, miss(evict), miss(evict).
        for (r, expect_first) in [(0usize, 0.0f32), (1, 4.0), (7, 28.0), (0, 0.0)] {
            let s = store.read(r, &mut stats);
            assert_eq!(s[0], expect_first);
        }
        let snap = store.io_snapshot();
        assert_eq!(snap.pool_hits, 1);
        assert_eq!(snap.pool_misses, 3);
        assert_eq!(snap.pool_evictions, 2);
        // Full scans still return every value.
        let mut sum = 0.0f64;
        store.read_range(0, 10, &mut stats, &mut |_, s| {
            sum += s.iter().map(|&v| v as f64).sum::<f64>()
        });
        assert_eq!(sum, (0..40).sum::<i32>() as f64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mmap_reads_are_bit_identical_to_pread_with_identical_counters() {
        let config = StorageConfig {
            page_bytes: 64, // 4 series of length 4 per page
            buffer_pool_pages: 2,
            codec: PageCodec::F32,
            io: FileIoMode::Pread,
        };
        let (pread, path_a) = file_store(21, 4, config, "iopread");
        let (mut mapped, path_b) =
            file_store(21, 4, config.with_io_mode(FileIoMode::Mmap), "iommap");
        let pattern = [0usize, 1, 5, 0, 20, 7, 20, 3, 19];
        let mut ps = QueryStats::new();
        let mut ms = QueryStats::new();
        for &r in &pattern {
            let a = pread.read(r, &mut ps);
            let b = mapped.read(r, &mut ms);
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "record {r} drifted between I/O modes"
            );
        }
        assert_eq!(ps, ms, "per-query stats must be identical across I/O modes");
        assert_eq!(
            pread.io_snapshot(),
            mapped.io_snapshot(),
            "store totals (incl. real transfer bytes) must be identical"
        );

        // The uncharged maintenance hatch reads through the mapping too.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        pread.read_uncharged(2, &mut a);
        mapped.read_uncharged(2, &mut b);
        assert_eq!(a, b);

        // Growth after attach: the frame of the last page is assembled from
        // mapped file bytes plus the resident tail.
        mapped.append(&[90.0, 91.0, 92.0, 93.0]).unwrap();
        let mut stats = QueryStats::new();
        let mut seen = Vec::new();
        mapped.read_range(20, 2, &mut stats, &mut |id, s| seen.push((id, s[0])));
        assert_eq!(seen, vec![(20, 80.0), (21, 90.0)]);
        std::fs::remove_file(&path_a).ok();
        std::fs::remove_file(&path_b).ok();
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn frames_read_in_place_equal_the_decoded_reference_bit_for_bit() {
        // 4 series of length 4 per page; 10 records = two full pages and a
        // short last one, behind a 7-byte header so that no payload byte
        // offset is f32-aligned.
        let d = varied_dataset(10, 4);
        let grown: Vec<Vec<f32>> = (0..3)
            .map(|i| (0..4).map(|j| -0.5 - (i * 4 + j) as f32).collect())
            .collect();
        for io in [FileIoMode::Pread, FileIoMode::Mmap] {
            let config = StorageConfig {
                page_bytes: 64,
                buffer_pool_pages: 3,
                codec: PageCodec::F32,
                io,
            };
            let offset = 7u64;
            let (mut store, path) =
                file_store_of(&d, offset, config, &format!("inplace-{}", io.name()));
            let file = std::fs::read(&path).unwrap();
            // Records `lo..hi` decoded value by value from the file's bytes,
            // then from the appended tail — no code shared with the store.
            let reference = |lo: usize, hi: usize, tail: &[Vec<f32>]| {
                let (file_lo, file_hi) = (lo.min(10), hi.min(10));
                let mut want = vec![0.0f32; (file_hi - file_lo) * 4];
                let payload = &file[offset as usize..];
                crate::backing::decode_le_f32s(&payload[file_lo * 16..file_hi * 16], &mut want);
                for series in &tail[lo.max(10) - 10..hi.max(10) - 10] {
                    want.extend_from_slice(series);
                }
                bits(&want)
            };
            let check =
                |store: &SeriesStore, page: u64, lo: usize, hi: usize, tail: &[Vec<f32>]| {
                    assert_eq!(store.page_records(page, store.len()), (lo, hi - lo));
                    assert!(store.is_file_backed());
                    let frame = store.backing.load_records(lo, hi - lo, 4, None);
                    assert_eq!(
                        bits(&frame),
                        reference(lo, hi, tail),
                        "{} page {page}",
                        io.name()
                    );
                    // The uncharged single-series read takes the same path.
                    let mut series = Vec::new();
                    for record in lo..hi {
                        store.read_uncharged(record, &mut series);
                        assert_eq!(bits(&series), reference(record, record + 1, tail));
                    }
                };
            check(&store, 0, 0, 4, &[]); // a full page
            check(&store, 2, 8, 10, &[]); // the short last page
            for series in &grown {
                store.append(series).unwrap();
            }
            check(&store, 1, 4, 8, &grown); // untouched by the append
            check(&store, 2, 8, 12, &grown); // straddles the span/tail boundary
            check(&store, 3, 12, 13, &grown); // tail only, and short

            // The charged paths serve those same frames.
            let mut stats = QueryStats::new();
            let mut seen = Vec::new();
            store.read_range(0, 13, &mut stats, &mut |_, s| seen.extend_from_slice(s));
            assert_eq!(bits(&seen), reference(0, 13, &grown));
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn mmap_attach_validates_the_span_before_mapping() {
        // A file shorter than the span promises must fail the attach with a
        // typed error under either I/O mode — never produce a mapping whose
        // tail could fault.
        let path = std::env::temp_dir().join(format!(
            "hydra-storage-short-mmap-{}.flat",
            std::process::id()
        ));
        std::fs::write(&path, vec![0u8; 40]).unwrap();
        let span = FileSpan { offset: 32, records: 2 };
        for io in [FileIoMode::Pread, FileIoMode::Mmap] {
            let got = SeriesStore::file_backed(
                &path,
                span,
                4,
                StorageConfig::on_disk().with_io_mode(io),
            );
            assert!(
                matches!(got, Err(Error::Storage(_))),
                "{}: short file must be rejected before any page is served",
                io.name()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pinned_working_set_survives_a_thrashing_scan() {
        let config = StorageConfig {
            page_bytes: 32, // 2 series of length 4 per page
            buffer_pool_pages: 4,
            codec: PageCodec::F32,
            io: FileIoMode::Pread,
        };
        let (store, path) = file_store(16, 4, config, "pin"); // 8 pages
        let mut stats = QueryStats::new();

        // Records 0..6 cover pages 0..=2; the budget (capacity - 1) admits
        // exactly those three.
        let pinned = store.pin_working_set(&[(0, 6)], true);
        assert_eq!(pinned, vec![0, 1, 2]);
        let warm = store.io_snapshot();
        assert_eq!(warm.pool_misses, 3, "prefetch faulted the set in");
        assert_eq!(warm.random_ios, 1, "one positioning...");
        assert_eq!(warm.sequential_ios, 2, "...then a sequential sweep");

        // A full scan: the pinned pages hit; pages 3..=7 fight over the one
        // unpinned slot and never touch the working set.
        store.read_range(0, 16, &mut stats, &mut |_, _| {});
        let snap = store.io_snapshot();
        assert_eq!(snap.pool_hits, 3);
        assert_eq!(snap.pool_misses, 3 + 5);
        let _ = store.read(0, &mut stats);
        let _ = store.read(5, &mut stats);
        assert_eq!(
            store.io_snapshot().pool_hits,
            5,
            "the working set is still resident after the scan"
        );

        // Release restores plain LRU: a thrashing sweep now evicts the
        // previously pinned pages like any others.
        store.release_working_set(&pinned);
        for r in (6..16).chain(6..16) {
            let _ = store.read(r, &mut stats);
        }
        let hits_before = store.io_snapshot().pool_hits;
        let _ = store.read(0, &mut stats);
        assert_eq!(
            store.io_snapshot().pool_hits,
            hits_before,
            "page 0 must have been evicted once unpinned"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pin_working_set_clips_to_the_pool_budget() {
        let config = StorageConfig {
            page_bytes: 32,
            buffer_pool_pages: 2,
            codec: PageCodec::F32,
            io: FileIoMode::Pread,
        };
        let (store, path) = file_store(16, 4, config, "pinclip");
        // Asking for everything pins only capacity - 1 pages; ranges beyond
        // the store length are clipped, empty ones skipped.
        let pinned = store.pin_working_set(&[(0, usize::MAX), (3, 0), (100, 4)], false);
        assert_eq!(pinned, vec![0]);
        store.release_working_set(&pinned);

        // A degenerate pool (capacity <= 1) pins nothing at all.
        let tiny = SeriesStore::from_dataset(&dataset(8, 4), config.with_pool_pages(1)).unwrap();
        assert!(tiny.pin_working_set(&[(0, 8)], true).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_backed_store_rejects_as_flat_but_accepts_append() {
        let (mut store, path) = file_store(4, 4, StorageConfig::on_disk(), "hatch");
        assert!(matches!(store.as_flat(), Err(Error::Storage(_))));
        assert!(store.append(&[0.0; 3]).is_err(), "dimension still checked");
        assert_eq!(store.append(&[90.0, 91.0, 92.0, 93.0]).unwrap(), 4);
        assert_eq!(store.len(), 5);
        assert!(
            matches!(store.as_flat(), Err(Error::Storage(_))),
            "growth does not create a resident flat view"
        );
        let mut stats = QueryStats::new();
        assert_eq!(&*store.read(4, &mut stats), &[90.0, 91.0, 92.0, 93.0]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_backed_append_grows_the_store_and_keeps_the_pool_coherent() {
        // 2 series of length 4 per page: appends land mid-page, on the
        // file/tail boundary page, and on fresh tail-only pages.
        let config = StorageConfig {
            page_bytes: 32,
            buffer_pool_pages: 8,
            codec: PageCodec::F32,
            io: FileIoMode::Pread,
        };
        let (mut store, path) = file_store(3, 4, config, "grow");
        let mut stats = QueryStats::new();
        // Warm the pool on the boundary page (page 1 holds record 2 only).
        assert_eq!(store.read(2, &mut stats)[0], 8.0);
        // Record 3 completes page 1: the cached short frame must not be
        // served stale.
        assert_eq!(store.append(&[100.0, 101.0, 102.0, 103.0]).unwrap(), 3);
        assert_eq!(store.len(), 4);
        assert_eq!(&*store.read(3, &mut stats), &[100.0, 101.0, 102.0, 103.0]);
        // Records 4 and 5 form a tail-only page.
        store.append(&[110.0; 4]).unwrap();
        store.append(&[120.0; 4]).unwrap();
        assert_eq!(store.total_bytes(), 6 * 16);
        // Every record — file span, boundary page, pure tail — reads back
        // exactly, before and after a pool reset.
        for round in 0..2 {
            let expected_first = [0.0f32, 4.0, 8.0, 100.0, 110.0, 120.0];
            for (r, &first) in expected_first.iter().enumerate() {
                let s = store.read(r, &mut stats);
                assert_eq!(s[0], first, "record {r}, round {round}");
                assert_eq!(s.len(), 4);
            }
            store.reset_io();
        }
        // read_range crosses the boundary seamlessly.
        let mut seen = Vec::new();
        store.read_range(1, 5, &mut stats, &mut |id, s| seen.push((id, s[0])));
        assert_eq!(
            seen,
            vec![(1, 4.0), (2, 8.0), (3, 100.0), (4, 110.0), (5, 120.0)]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn uncharged_reads_and_scans_match_charged_reads_on_both_backings() {
        let config = StorageConfig {
            page_bytes: 32, // 2 series of length 4 per page
            buffer_pool_pages: 2,
            codec: PageCodec::F32,
            io: FileIoMode::Pread,
        };
        let mut resident = small_store(7, 4, config);
        let (mut file, path) = file_store(7, 4, config, "uncharged");
        resident.append(&[70.0, 71.0, 72.0, 73.0]).unwrap();
        file.append(&[70.0, 71.0, 72.0, 73.0]).unwrap();
        for store in [&resident, &file] {
            let mut buf = Vec::new();
            let mut scanned: Vec<(usize, Vec<f32>)> = Vec::new();
            store.for_each_series(&mut |id, s| scanned.push((id, s.to_vec())));
            assert_eq!(scanned.len(), 8);
            for (id, s) in &scanned {
                store.read_uncharged(*id, &mut buf);
                assert_eq!(&buf, s, "record {id}");
            }
            assert_eq!(
                store.io_snapshot(),
                IoSnapshot::default(),
                "maintenance reads must not charge any I/O"
            );
            let mut stats = QueryStats::new();
            let charged = store.read(5, &mut stats);
            assert_eq!(&*charged, &scanned[5].1[..]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_backed_validates_the_span_against_the_file() {
        let path = std::env::temp_dir().join(format!(
            "hydra-storage-short-{}.flat",
            std::process::id()
        ));
        std::fs::write(&path, vec![0u8; 100]).unwrap();
        // 100 bytes cannot hold 10 series of length 4 (160 bytes) at offset 0.
        assert!(matches!(
            SeriesStore::file_backed(
                &path,
                FileSpan { offset: 0, records: 10 },
                4,
                StorageConfig::on_disk()
            ),
            Err(Error::Storage(_))
        ));
        assert!(SeriesStore::file_backed(
            &path,
            FileSpan { offset: 20, records: 5 },
            4,
            StorageConfig::on_disk()
        )
        .is_ok());
        assert!(matches!(
            SeriesStore::file_backed(
                Path::new("/nonexistent/x.flat"),
                FileSpan { offset: 0, records: 1 },
                4,
                StorageConfig::on_disk()
            ),
            Err(Error::Storage(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    /// The bits of page `page` as the store serves it, charged as one
    /// access: the raw frame, or the coded page decoded series by series.
    fn served_page_bits(store: &SeriesStore, page: u64, stats: &mut QueryStats) -> Vec<u32> {
        let (first, count) = store.page_records(page, store.len());
        match &store.coded {
            Some(tier) => {
                let coded = store.coded_page(tier, page, stats);
                let mut series = Vec::new();
                (0..count)
                    .flat_map(|i| {
                        coded.decode_series(i, store.series_len, &mut series);
                        bits(&series)
                    })
                    .collect()
            }
            None => bits(&store.raw_page(page, first..first + count, stats)),
        }
    }

    /// Rounds each thread of the concurrent-miss table plays.
    const ROUNDS: u64 = 100;

    /// One thread of the concurrent-miss table: every round it meets the
    /// other threads at `barrier`, then reads the round's page, which all
    /// of them read at once. Returns what it saw go wrong — a torn page, a
    /// pool holding more pages than its capacity or counting pages it does
    /// not hold, an evicted pinned page — instead of panicking, which would
    /// leave the others waiting at the barrier forever.
    fn read_one_page_per_round(
        store: &SeriesStore,
        barrier: &std::sync::Barrier,
        want: &[Vec<u32>],
        pinned: &[u64],
    ) -> Vec<String> {
        let pages = want.len() as u64;
        let mut stats = QueryStats::new();
        let mut violations = Vec::new();
        for round in 0..ROUNDS {
            let page = round * 5 % pages;
            barrier.wait();
            if served_page_bits(store, page, &mut stats) != want[page as usize] {
                violations.push(format!("torn page {page}"));
            }
            let state = store.state.lock();
            let held = (0..pages).filter(|&p| state.pool.contains(p)).count();
            if state.pool.len() > state.pool.capacity() || state.pool.len() != held {
                violations.push(format!("{} pages counted, {held} held", state.pool.len()));
            }
            for &p in pinned.iter().filter(|&&p| !state.pool.contains(p)) {
                violations.push(format!("pinned page {p} evicted"));
            }
        }
        violations
    }

    #[test]
    fn concurrent_file_backed_readers_see_consistent_data() {
        // Every round, the threads all access the same page, so most
        // rounds are simultaneous misses of one page: several unlocked
        // transfers, one install, the late frames dropped. A late frame
        // installed anyway would link its page twice — unless the page
        // itself were the eviction victim, as it always is on a 1-page
        // pool — and the pool's count would then disagree with the pages
        // it holds.
        const THREADS: u64 = 4;
        let d = varied_dataset(64, 4);
        let cells = [FileIoMode::Pread, FileIoMode::Mmap].into_iter().flat_map(|io| {
            [PageCodec::F32, PageCodec::U8]
                .into_iter()
                .flat_map(move |codec| [1usize, 2, 4].map(move |pool| (io, codec, pool)))
        });
        for (io, codec, pool) in cells {
            let config = StorageConfig {
                page_bytes: 64, // 4 series of length 4: 16 pages
                buffer_pool_pages: pool,
                codec,
                io,
            };
            let cell = format!("{} {} pool {pool}", io.name(), codec.name());
            let name = format!("threads-{}-{}-{pool}", io.name(), codec.name());
            let (store, paths) = if codec == PageCodec::F32 {
                let (store, flat) = file_store_of(&d, 32, config, &name);
                (store, vec![flat])
            } else {
                let (store, paths) = coded_file_store(&d, config, &name);
                (store, paths.to_vec())
            };
            let mut stats = QueryStats::new();
            let want: Vec<Vec<u32>> = (0..=store.page_of(store.len() - 1))
                .map(|page| served_page_bits(&store, page, &mut stats))
                .collect();
            store.reset_io();
            // Page 0 is pinned wherever the budget (one slot short of the
            // pool) allows it: not on a 1-page pool.
            let pinned = store.pin_working_set(&[(0, 1)], true);
            assert_eq!(pinned.len(), usize::from(pool > 1), "{cell}");
            let before = store.io_snapshot();
            let barrier = std::sync::Barrier::new(THREADS as usize);
            let play = || read_one_page_per_round(&store, &barrier, &want, &pinned);
            let violations: Vec<String> = std::thread::scope(|scope| {
                let threads: Vec<_> = (0..THREADS).map(|_| scope.spawn(play)).collect();
                threads.into_iter().flat_map(|t| t.join().unwrap()).collect()
            });
            assert!(violations.is_empty(), "{cell}: {violations:?}");
            let snap = store.io_snapshot();
            assert_eq!(
                snap.pool_hits + snap.pool_misses - before.pool_hits - before.pool_misses,
                THREADS * ROUNDS,
                "{cell}: every access is one hit or one miss"
            );
            assert!(snap.pool_evictions > 0, "{cell}");
            assert!(snap.pool_evictions <= snap.pool_misses, "{cell}");
            store.release_working_set(&pinned);
            for path in paths {
                std::fs::remove_file(path).ok();
            }
        }
    }

    // ------------------------------------------------------------------
    // Parked frames: a miss refills the frame its eviction freed
    // ------------------------------------------------------------------

    /// A 4-series-per-page store over `d`, behind a pool of `pool` pages.
    fn parking_store(
        d: &Dataset,
        pool: usize,
        io: FileIoMode,
        name: &str,
    ) -> (SeriesStore, PathBuf) {
        let config = StorageConfig {
            page_bytes: 64, // 4 series of length 4 per page
            buffer_pool_pages: pool,
            codec: PageCodec::F32,
            io,
        };
        file_store_of(d, 7, config, &format!("{name}-{}", io.name()))
    }

    /// The next draw of a xorshift32 stream.
    fn xorshift(x: &mut u32) -> usize {
        *x ^= *x << 13;
        *x ^= *x >> 17;
        *x ^= *x << 5;
        *x as usize
    }

    #[test]
    fn a_miss_refills_the_frame_its_eviction_parked() {
        // 18 records: four full pages and a short last one of 2 records.
        let d = varied_dataset(18, 4);
        let want = |record: usize| bits(&d.as_flat()[record * 4..][..4]);
        for io in [FileIoMode::Pread, FileIoMode::Mmap] {
            let (store, path) = parking_store(&d, 1, io, "refill");
            // The address of the frame that serves `record`'s page (its
            // first record sits at the frame's start).
            let frame_of = |record: usize| {
                let read = store.read(record, &mut QueryStats::new());
                assert_eq!(bits(&read), want(record), "{} record {record}", io.name());
                read.as_ptr()
            };
            let parked = || store.state.lock().pool.parked();
            let page0 = frame_of(0);
            assert_eq!(parked(), 0, "a cold pool has nothing to park");
            let page1 = frame_of(4); // evicts page 0 and parks its frame
            assert_ne!(page1, page0, "nothing was parked when page 1 missed");
            assert_eq!(parked(), 1);
            // Page 2 takes page 0's frame, page 3 then page 1's: each miss
            // is read into the allocation the previous eviction freed.
            assert_eq!(frame_of(8), page0, "{}", io.name());
            assert_eq!(frame_of(12), page1, "{}", io.name());
            assert_eq!(parked(), 1, "one thread parks one frame");
            // The short last page cannot use a full page's frame: a fresh
            // one is read, the spare dropped.
            let short = frame_of(16);
            assert!(short != page0 && short != page1, "{}", io.name());
            assert_eq!(parked(), 1, "page 3's frame is parked in turn");
            // A frame still held by a reader is parked but never refilled.
            let held = store.read(0, &mut QueryStats::new()); // evicts the short page
            assert_eq!(parked(), 1);
            let refilled = frame_of(4); // evicts page 0 while `held` reads it
            assert_ne!(refilled, held.as_ptr());
            assert_ne!(
                frame_of(8),
                held.as_ptr(),
                "{}: a held frame was refilled",
                io.name()
            );
            assert_eq!(
                bits(&held),
                want(0),
                "{}: the held frame changed",
                io.name()
            );
            store.reset_io();
            assert_eq!(parked(), 0, "clear drops parked frames");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn one_thread_never_parks_more_than_one_frame() {
        let d = varied_dataset(37, 4);
        for io in [FileIoMode::Pread, FileIoMode::Mmap] {
            for pool in [1usize, 2, 4] {
                let (store, path) = parking_store(&d, pool, io, &format!("one-{pool}"));
                let mut stats = QueryStats::new();
                let mut x = 0x2545_f491u32;
                for step in 0..400 {
                    let record = xorshift(&mut x) % d.len();
                    if step % 7 == 0 {
                        store.read_range(record, 9, &mut stats, &mut |_, _| {});
                    } else {
                        let read = store.read(record, &mut stats);
                        assert_eq!(bits(&read), bits(&d.as_flat()[record * 4..][..4]));
                    }
                    let parked = store.state.lock().pool.parked();
                    assert!(
                        parked <= 1,
                        "{} pool {pool} step {step}: {parked} parked",
                        io.name()
                    );
                }
                assert!(store.io_snapshot().pool_evictions > 0);
                std::fs::remove_file(&path).ok();
            }
        }
    }

    #[test]
    fn concurrent_readers_never_see_a_held_frame_refilled() {
        // Four threads read records behind a 2-page pool, so nearly every
        // read misses and refills a parked frame: three at random, checking
        // every read, and a fourth that holds each of its reads while the
        // others force misses, then re-checks it.
        use std::sync::atomic::{AtomicBool, Ordering};
        const READERS: usize = 3;
        const ROUNDS: usize = 40;
        /// Raised when the holder stops, on every exit path, so that the
        /// readers stop too.
        struct Done<'a>(&'a AtomicBool);
        impl Drop for Done<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let d = varied_dataset(64, 4);
        let want = |record: usize| bits(&d.as_flat()[record * 4..][..4]);
        for io in [FileIoMode::Pread, FileIoMode::Mmap] {
            let (store, path) = parking_store(&d, 2, io, "held");
            let misses = || store.io_snapshot().pool_misses;
            let done = AtomicBool::new(false);
            let read_randomly = |mut x: u32| {
                let (mut stats, mut torn) = (QueryStats::new(), 0);
                while !done.load(Ordering::Relaxed) {
                    let record = xorshift(&mut x) % d.len();
                    torn += usize::from(bits(&store.read(record, &mut stats)) != want(record));
                }
                torn
            };
            let hold = || {
                let _done = Done(&done);
                let (mut stats, mut changed, mut evicted) = (QueryStats::new(), 0, 0);
                for round in 0..ROUNDS {
                    let record = round * 13 % d.len();
                    let held = store.read(record, &mut stats);
                    let before = misses();
                    let deadline = Instant::now() + Duration::from_millis(200);
                    while misses() < before + 8 && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    let resident = store.state.lock().pool.contains(store.page_of(record));
                    evicted += usize::from(!resident);
                    changed += usize::from(bits(&held) != want(record));
                }
                (changed, evicted)
            };
            let (torn, (changed, evicted)) = std::thread::scope(|scope| {
                let readers: Vec<_> = (0..READERS as u32)
                    .map(|i| scope.spawn(move || read_randomly(0x9e37_79b9 ^ (i + 1))))
                    .collect();
                let held = hold();
                let torn: usize = readers.into_iter().map(|r| r.join().unwrap()).sum();
                (torn, held)
            });
            assert_eq!(torn, 0, "{}: torn reads", io.name());
            assert_eq!(changed, 0, "{}: a held frame was refilled", io.name());
            assert!(
                evicted > 0,
                "{}: no held page was evicted while held",
                io.name()
            );
            let parked = store.state.lock().pool.parked();
            assert!(parked <= READERS + 1, "{}: {parked} parked", io.name());
            std::fs::remove_file(&path).ok();
        }
    }

    // ------------------------------------------------------------------
    // Compressed page tier
    // ------------------------------------------------------------------

    /// A dataset whose values genuinely stress u8 quantization (spread,
    /// sign changes, non-grid values) — unlike the linear ramp above,
    /// whose page-affine values a u8 grid can represent too faithfully.
    fn varied_dataset(n: usize, len: usize) -> Dataset {
        let mut d = Dataset::new(len).unwrap();
        let mut x = 0x9e3779b9u32;
        for _ in 0..n {
            let s: Vec<f32> = (0..len)
                .map(|_| {
                    x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                    (x >> 8) as f32 / (1 << 24) as f32 * 200.0 - 100.0
                })
                .collect();
            d.push(&s).unwrap();
        }
        d
    }

    fn tiered_config(codec: PageCodec) -> StorageConfig {
        StorageConfig {
            page_bytes: 256, // 4 series of length 16 per page
            buffer_pool_pages: 4,
            codec,
            io: FileIoMode::Pread,
        }
    }

    /// 1-NN over the whole store through `scan_refine`, recording every
    /// accepted `(record, distance_bits)` pair.
    fn one_nn_scan(store: &SeriesStore, query: &[f32]) -> (Vec<(usize, u32)>, QueryStats) {
        let mut stats = QueryStats::new();
        let mut accepted = Vec::new();
        let mut best = f32::INFINITY;
        store.scan_refine(
            0,
            store.len(),
            query,
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
    }

    /// Where [`write_coded_sidecar`]'s page records start: the bytes before
    /// stand in for the header `hydra-persist` writes there.
    const SIDECAR_OFFSET: u64 = 24;

    /// Writes a coded sidecar for `d` under `codec`, page-grouped exactly
    /// as a store with `config` would group its raw pages.
    fn write_coded_sidecar(d: &Dataset, config: &StorageConfig, path: &Path) {
        let len = d.series_len();
        let spp = (config.page_bytes as usize / (4 * len)).max(1);
        let mut bytes = vec![0xAB; SIDECAR_OFFSET as usize];
        for page in d.as_flat().chunks(spp * len) {
            bytes.extend_from_slice(&CodedPage::encode(page, len, config.codec).to_disk_bytes());
        }
        std::fs::write(path, &bytes).unwrap();
    }

    /// A file-backed store over `d` with its coded sidecar attached
    /// (sealing every record), plus both paths for cleanup.
    fn coded_file_store(
        d: &Dataset,
        config: StorageConfig,
        name: &str,
    ) -> (SeriesStore, [PathBuf; 2]) {
        let (mut store, flat) = file_store_of(d, 0, config, name);
        let sidecar = flat.with_extension(config.codec.name());
        write_coded_sidecar(d, &config, &sidecar);
        store.attach_coded_file(&sidecar, SIDECAR_OFFSET).unwrap();
        assert_eq!(store.sealed(), d.len());
        (store, [flat, sidecar])
    }

    #[test]
    fn sealed_refine_answers_match_raw_store_bit_for_bit() {
        let d = varied_dataset(100, 16);
        let raw = SeriesStore::from_dataset(&d, tiered_config(PageCodec::F32)).unwrap();
        let mut query: Vec<f32> = d.get(37).unwrap().to_vec();
        query.iter_mut().for_each(|v| *v += 0.25);

        let (want, raw_stats) = one_nn_scan(&raw, &query);
        assert!(!want.is_empty());
        for codec in [PageCodec::U8, PageCodec::F16] {
            // A codec is a file-backed serving knob: a resident store under
            // the same config holds the exact values and stays raw.
            let resident = SeriesStore::from_dataset(&d, tiered_config(codec)).unwrap();
            assert_eq!(resident.sealed(), 0);
            assert_eq!(one_nn_scan(&resident, &query), (want.clone(), raw_stats));

            let (coded, paths) =
                coded_file_store(&d, tiered_config(codec), &format!("refine-{}", codec.name()));
            let (got, coded_stats) = one_nn_scan(&coded, &query);
            assert_eq!(got, want, "{} accept sequence diverged", codec.name());
            assert!(
                coded_stats.bytes_read < raw_stats.bytes_read,
                "{}: coded scan must be cheaper ({} vs {} bytes)",
                codec.name(),
                coded_stats.bytes_read,
                raw_stats.bytes_read,
            );

            // Candidate-at-a-time refinement agrees with the raw kernel at
            // every record and every bound tightness.
            let mut best = f32::INFINITY;
            for r in 0..coded.len() {
                let mut s1 = QueryStats::new();
                let mut s2 = QueryStats::new();
                let coded_d = coded.refine(r, &query, best, &mut s1);
                let series = raw.read(r, &mut s2);
                let raw_d = hydra_core::euclidean_early_abandon(&query, &series, best);
                if let Some(d) = raw_d {
                    assert_eq!(
                        coded_d.map(f32::to_bits),
                        Some(d.to_bits()),
                        "{} record {r}",
                        codec.name()
                    );
                    best = best.min(d);
                } else {
                    // The coded probe may keep a candidate the raw kernel
                    // abandons (its bound is conservative), but the exact
                    // re-check then abandons it too.
                    assert_eq!(coded_d, None, "{} record {r}", codec.name());
                }
            }
            for path in paths {
                std::fs::remove_file(path).ok();
            }
        }
    }

    #[test]
    fn coded_scan_charges_exactly_its_coded_pages_plus_its_survivors() {
        // 100 records of length 16, 4 per page: 25 coded pages behind a
        // 4-page pool, scanned once front to back.
        let d = varied_dataset(100, 16);
        let mut query: Vec<f32> = d.get(11).unwrap().to_vec();
        query[3] += 4.0;
        for codec in [PageCodec::U8, PageCodec::F16] {
            let (store, paths) =
                coded_file_store(&d, tiered_config(codec), &format!("bytes-{}", codec.name()));
            let (accepted, stats) = one_nn_scan(&store, &query);
            // Every survivor of the coded probe pays one exact read: a
            // random I/O of one raw series (64 bytes), outside the pool.
            let survivors = stats.random_ios - 1;
            assert!(survivors >= accepted.len() as u64 && survivors < 100);
            assert_eq!(stats.sequential_ios, 24, "one positioning, then a sweep");
            assert_eq!(
                stats.bytes_read,
                100 * coded_series_bytes(16, codec) + survivors * 64,
                "{}: logical bytes = every coded record + the exact survivors",
                codec.name()
            );
            let snap = store.io_snapshot();
            let coded_bytes = 25 * page_disk_bytes(4, 16, codec);
            assert_eq!(
                snap,
                IoSnapshot {
                    random_ios: 1 + survivors,
                    sequential_ios: 24,
                    bytes_read: coded_bytes + survivors * 64,
                    pool_hits: 0,
                    pool_misses: 25,
                    pool_evictions: 21,
                    compressed_bytes_read: coded_bytes,
                },
                "{}: the file tier measures exactly its coded page records",
                codec.name()
            );
            for path in paths {
                std::fs::remove_file(path).ok();
            }
        }
    }

    #[test]
    fn coded_scan_reads_fewer_bytes_at_equal_pool_size() {
        let d = varied_dataset(256, 16);
        let query: Vec<f32> = d.get(0).unwrap().to_vec();
        let raw = one_nn_scan(&small_store_of(&d, tiered_config(PageCodec::F32)), &query).1;
        let scan = |codec: PageCodec| {
            let (store, paths) =
                coded_file_store(&d, tiered_config(codec), &format!("fewer-{}", codec.name()));
            let (_, stats) = one_nn_scan(&store, &query);
            for path in paths {
                std::fs::remove_file(path).ok();
            }
            stats
        };
        let u8s = scan(PageCodec::U8);
        let f16s = scan(PageCodec::F16);
        // Per-series logical charges: 64 raw, 4+16=20 for u8, 4+32=36 for
        // f16 — plus per-survivor exact reads, which quantization keeps
        // rare. The issue's acceptance bar is >= 3x for u8.
        assert!(
            u8s.bytes_read * 3 <= raw.bytes_read,
            "u8 must read >=3x fewer bytes ({} vs {})",
            u8s.bytes_read,
            raw.bytes_read
        );
        assert!(f16s.bytes_read < raw.bytes_read);
        assert!(u8s.bytes_read < f16s.bytes_read);
    }

    #[test]
    fn appended_tail_records_stay_raw_after_sealing() {
        let d = varied_dataset(20, 8);
        let config = StorageConfig {
            page_bytes: 128,
            buffer_pool_pages: 4,
            codec: PageCodec::U8,
            io: FileIoMode::Pread,
        };
        let (mut store, paths) = coded_file_store(&d, config, "tail");
        let fresh: Vec<f32> = (0..8).map(|j| j as f32 * 0.5 - 2.0).collect();
        store.append(&fresh).unwrap();
        assert_eq!(store.sealed(), 20, "appends never silently join the coded tier");

        // Refining the tail record charges full raw bytes and returns the
        // exact distance.
        let query = vec![0.0f32; 8];
        let mut stats = QueryStats::new();
        let got = store.refine(20, &query, f32::INFINITY, &mut stats).unwrap();
        let want = hydra_core::euclidean(&query, &fresh);
        assert_eq!(got.to_bits(), want.to_bits());
        assert_eq!(stats.bytes_read, 32, "tail refinement reads raw f32 bytes");
        assert_eq!(store.io_snapshot().compressed_bytes_read, 0);

        // A scan straddling the seal boundary covers both tiers.
        let mut seen = Vec::new();
        let mut stats = QueryStats::new();
        store.scan_refine(
            18,
            3,
            &query,
            f32::INFINITY,
            &mut stats,
            |_, _| true,
            &mut |id, _| {
                seen.push(id);
                f32::INFINITY
            },
        );
        assert_eq!(seen, vec![18, 19, 20]);
        for path in paths {
            std::fs::remove_file(path).ok();
        }
    }

    /// What one script step observed: the values, ids and distance bits
    /// it returned, the per-query stats it charged, and the store totals
    /// after it.
    type Step = (Vec<u64>, QueryStats, IoSnapshot);

    /// Replays `script` against `store`. Each word is one step: its low
    /// digit picks the operation, the rest its two operands; everything
    /// else derives from the store's length at that step, which is the
    /// same on every tier.
    fn replay(store: &mut SeriesStore, d: &Dataset, script: &[usize]) -> Vec<Step> {
        let series_len = store.series_len();
        let mut pinned: Option<Vec<u64>> = None;
        let mut steps = Vec::with_capacity(script.len());
        for &word in script {
            let (op, a, b) = (word % 7, word / 7 % 64, word / (7 * 64));
            let len = store.len();
            let mut query = d.get(a % d.len()).unwrap().to_vec();
            query[0] += 0.5;
            let bound = if b % 2 == 0 { f32::INFINITY } else { 40.0 * (1 + b % 5) as f32 };
            let mut stats = QueryStats::new();
            let mut out: Vec<u64> = Vec::new();
            let mut out_gate: Vec<u64> = Vec::new();
            match op {
                0 => out.extend(store.read(a % len, &mut stats).iter().map(|v| v.to_bits() as u64)),
                1 => store.read_range(a % len, b % 7, &mut stats, &mut |id, series| {
                    out.push(id as u64);
                    out.extend(series.iter().map(|v| v.to_bits() as u64));
                }),
                2 => out.extend(
                    store
                        .refine(a % len, &query, bound, &mut stats)
                        .map(|dist| dist.to_bits() as u64),
                ),
                3 => {
                    let mut best = bound;
                    // The gate axis: keep everything, or drop records by a
                    // rule that reads both the record and the live bound.
                    let gate = |record: usize, live: f32| {
                        out_gate.push(live.to_bits() as u64);
                        b % 3 == 0 || ((record + b) % 3 != 0 && live > 20.0)
                    };
                    let last = store.scan_refine(
                        a % len,
                        b % 7,
                        &query,
                        bound,
                        &mut stats,
                        gate,
                        &mut |id, dist| {
                            out.extend([id as u64, dist.to_bits() as u64]);
                            best = best.min(dist);
                            best
                        },
                    );
                    out.push(last.to_bits() as u64);
                    out.append(&mut out_gate);
                }
                4 => {
                    let series: Vec<f32> =
                        (0..series_len).map(|j| (a * 7 + b * 3 + j) as f32 * 0.37 - 9.0).collect();
                    out.push(store.append(&series).unwrap() as u64);
                }
                5 => match pinned.take() {
                    Some(pages) => store.release_working_set(&pages),
                    None => {
                        let pages = store.pin_working_set(&[(a % len, b % 7), (b % len, 2)], b % 2 == 1);
                        out.extend(&pages);
                        pinned = Some(pages);
                    }
                },
                _ => store.reset_io(),
            }
            steps.push((out, stats, store.io_snapshot()));
        }
        steps
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(16))]

        /// One random script against the resident store and the six
        /// file-backed tiers, at a thrashing, a small and an unbounded
        /// pool: every tier returns the same values and distance bits; the
        /// raw file-backed store charges each query exactly what the
        /// resident simulation does; and the I/O mode moves no counter.
        #[test]
        fn every_tier_replays_one_script_identically(
            n in 1usize..40,
            script in proptest::collection::vec(0usize..7 * 64 * 64, 1..48),
        ) {
            // 2 series of length 8 per page; an odd `n` leaves the seal
            // boundary mid-page.
            let d = varied_dataset(n, 8);
            for pool in [1usize, 3, usize::MAX / 2] {
                let config = |codec, io| StorageConfig {
                    page_bytes: 64,
                    buffer_pool_pages: pool,
                    codec,
                    io,
                };
                let mut resident = small_store_of(&d, config(PageCodec::F32, FileIoMode::Pread));
                let want = replay(&mut resident, &d, &script);
                for codec in [PageCodec::F32, PageCodec::U8, PageCodec::F16] {
                    let by_io = [FileIoMode::Pread, FileIoMode::Mmap].map(|io| {
                        let name = format!("script-{}-{}", codec.name(), io.name());
                        let (mut store, paths) = if codec == PageCodec::F32 {
                            let (store, flat) = file_store_of(&d, 7, config(codec, io), &name);
                            (store, vec![flat])
                        } else {
                            let (store, paths) = coded_file_store(&d, config(codec, io), &name);
                            (store, paths.to_vec())
                        };
                        let got = replay(&mut store, &d, &script);
                        for path in paths {
                            std::fs::remove_file(path).ok();
                        }
                        got
                    });
                    proptest::prop_assert_eq!(
                        &by_io[0], &by_io[1],
                        "{} pool {}: pread and mmap must agree on everything", codec.name(), pool
                    );
                    // An append invalidates a file-backed store's cached
                    // frame where the resident id-only entry stays, so from
                    // there to the next `reset_io` the two pools hold
                    // different pages and only the I/O-operation split of a
                    // query's charge may differ.
                    let mut aligned = true;
                    for (i, ((got, stats, _), (want, want_stats, _))) in
                        by_io[0].iter().zip(&want).enumerate()
                    {
                        proptest::prop_assert_eq!(got, want, "{} pool {} step {}", codec.name(), pool, i);
                        match script[i] % 7 {
                            4 => aligned = false,
                            6 => aligned = true,
                            _ => {}
                        }
                        if codec == PageCodec::F32 {
                            let (mut stats, mut want_stats) = (*stats, *want_stats);
                            if !aligned {
                                for s in [&mut stats, &mut want_stats] {
                                    (s.random_ios, s.sequential_ios) = (0, 0);
                                }
                            }
                            proptest::prop_assert_eq!(stats, want_stats, "pool {} step {}", pool, i);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn attach_coded_file_rejects_foreign_sidecars() {
        let d = varied_dataset(30, 8);
        let config = StorageConfig {
            page_bytes: 128,
            buffer_pool_pages: 4,
            codec: PageCodec::U8,
            io: FileIoMode::Pread,
        };
        let dir = std::env::temp_dir();
        let flat = dir.join(format!("hydra-storage-badcoded-{}.flat", std::process::id()));
        let mut bytes = Vec::new();
        for &v in d.as_flat() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        std::fs::write(&flat, &bytes).unwrap();
        let open = |codec| {
            let config = config.clone().with_page_codec(codec);
            SeriesStore::file_backed(&flat, FileSpan { offset: 0, records: 30 }, 8, config).unwrap()
        };
        let mut store = open(PageCodec::U8);

        // A sidecar of a narrower codec is too short for this store's pages.
        let sidecar = dir.join(format!("hydra-storage-badcoded-{}.f16", std::process::id()));
        write_coded_sidecar(&d, &config, &sidecar);
        assert!(open(PageCodec::F16).attach_coded_file(&sidecar, SIDECAR_OFFSET).is_err());

        // Truncated payload, or an offset past where the pages start.
        let good = dir.join(format!("hydra-storage-badcoded-{}.u8", std::process::id()));
        write_coded_sidecar(&d, &config, &good);
        let full = std::fs::read(&good).unwrap();
        assert!(store.attach_coded_file(&good, SIDECAR_OFFSET + 1).is_err());
        std::fs::write(&good, &full[..full.len() - 1]).unwrap();
        assert!(store.attach_coded_file(&good, SIDECAR_OFFSET).is_err());

        // Restored, it attaches.
        std::fs::write(&good, &full).unwrap();
        store.attach_coded_file(&good, SIDECAR_OFFSET).unwrap();
        assert_eq!(store.sealed(), 30);

        // A resident store and the f32 codec have no coded tier.
        let mut resident = SeriesStore::from_dataset(&d, config.clone()).unwrap();
        assert!(resident.attach_coded_file(&good, SIDECAR_OFFSET).is_err());
        assert!(open(PageCodec::F32).attach_coded_file(&good, SIDECAR_OFFSET).is_err());

        // Byte-layout sanity: the file is the offset plus the page records.
        assert_eq!(full.len() as u64, SIDECAR_OFFSET + coded_records_bytes(30, 8, 4, PageCodec::U8));
        std::fs::remove_file(&flat).ok();
        std::fs::remove_file(&sidecar).ok();
        std::fs::remove_file(&good).ok();
    }
}
