//! The series store: resident (simulated-disk) or genuinely file-backed.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use hydra_core::{Dataset, Error, QueryStats, Result, StoreCounters};
use parking_lot::Mutex;

use crate::buffer::{BufferPool, Frame};
use crate::coded::{
    coded_series_bytes, conservative_threshold, page_disk_bytes, CodedHeader, CodedPage,
    PageCodec, PageCodes, CODED_HEADER_BYTES,
};

/// How a file-backed store moves page bytes off disk. Like the pool
/// capacity and the page codec, the I/O mode shapes only how transfers
/// happen, never answers — both modes feed the identical frame bytes
/// through the identical pool/accounting path, so hit/miss/eviction
/// sequences and every [`QueryStats`] field are the same under either.
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
    /// How sealed pages are encoded — the compressed page tier. Like the
    /// pool capacity, the codec shapes only I/O economics, never answers
    /// (the refinement contract recomputes every returned distance from
    /// exact f32 values), so it is a pure serving knob.
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

/// Cumulative I/O counters of a store since creation (or the last reset).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Pages read that required a seek (non-adjacent to the previous read).
    pub random_ios: u64,
    /// Pages read contiguously after the previous one.
    pub sequential_ios: u64,
    /// Total bytes charged to reads. On a resident store this is the
    /// simulated `page_bytes` per miss; on a file-backed store it is the
    /// bytes actually transferred from the backing file (whole frames,
    /// truncated at the tail), so the two backings legitimately differ
    /// here — this is the counter that became a *measurement*.
    pub bytes_read: u64,
    /// Buffer-pool hits (no I/O charged).
    pub pool_hits: u64,
    /// Buffer-pool misses (each one charged as a random or sequential I/O).
    pub pool_misses: u64,
    /// Pages evicted from the pool to make room — real eviction traffic on
    /// a file-backed store (the dropped bytes must be re-read), bookkeeping
    /// on a resident one.
    pub pool_evictions: u64,
    /// The subset of [`IoSnapshot::bytes_read`] served from compressed
    /// (u8/f16) pages. Zero on raw-f32 stores; the remainder is exact-f32
    /// refinement traffic.
    pub compressed_bytes_read: u64,
}

#[derive(Debug)]
struct AccessState {
    pool: BufferPool,
    last_page: Option<u64>,
    totals: IoSnapshot,
}

impl AccessState {
    /// Records the outcome of one page access — the single accounting path
    /// shared by both backings, so a file-backed store charges exactly the
    /// hit/miss/random/sequential sequence the simulated store would.
    fn charge(&mut self, page: u64, hit: bool, miss_bytes: u64, stats: &mut QueryStats) {
        if hit {
            self.totals.pool_hits += 1;
        } else {
            self.totals.pool_misses += 1;
            let sequential =
                self.last_page == Some(page.wrapping_sub(1)) || self.last_page == Some(page);
            if sequential {
                self.totals.sequential_ios += 1;
                stats.sequential_ios += 1;
            } else {
                self.totals.random_ios += 1;
                stats.random_ios += 1;
            }
            self.totals.bytes_read += miss_bytes;
        }
        self.last_page = Some(page);
    }
}

/// Where a record's byte range lives inside a backing file: the series
/// payload starts `offset` bytes into the file and holds `records`
/// fixed-length series, contiguous and little-endian (IEEE-754 bit
/// patterns) — the layout `hydra-persist`'s flat series files and dataset
/// snapshots both expose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileSpan {
    /// Byte offset of record 0 within the file.
    pub offset: u64,
    /// Number of series in the span.
    pub records: usize,
}

/// A read-only `mmap(2)` of the head of a backing file, torn down on drop.
///
/// Only bytes `0..len` are ever dereferenced, and `len` is validated
/// against the file's length *before* mapping — so the mapping can never
/// fault (SIGBUS) on a short file; a file that is short fails the attach
/// with a typed error instead. The payload offset inside the mapping is
/// byte-granular (snapshot payloads are not f32-aligned), which is why
/// frames are memcpy'd out of the mapping rather than reinterpreted in
/// place.
struct MmapRegion {
    ptr: std::ptr::NonNull<u8>,
    len: usize,
}

// The mapping is immutable for its whole lifetime (PROT_READ over a
// read-only file), so shared references from any thread are sound.
unsafe impl Send for MmapRegion {}
unsafe impl Sync for MmapRegion {}

impl std::fmt::Debug for MmapRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapRegion").field("len", &self.len).finish()
    }
}

// The platform mmap entry points. The workspace vendors no libc crate, but
// every std binary on a unix target already links these symbols; the repo
// is unix-only throughout (`std::os::unix::fs::FileExt` on every pread).
extern "C" {
    fn mmap(
        addr: *mut std::ffi::c_void,
        len: usize,
        prot: i32,
        flags: i32,
        fd: i32,
        offset: i64,
    ) -> *mut std::ffi::c_void;
    fn munmap(addr: *mut std::ffi::c_void, len: usize) -> i32;
}

const PROT_READ: i32 = 1;
const MAP_SHARED: i32 = 1;

impl MmapRegion {
    /// Maps the first `len` bytes of `file` read-only. The caller must
    /// have verified the file is at least `len` bytes long.
    fn map(file: &std::fs::File, len: usize, path: &Path) -> Result<Self> {
        use std::os::unix::io::AsRawFd;
        debug_assert!(len > 0, "mapping an empty span is a caller bug");
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(Error::Storage(format!(
                "cannot mmap {} ({len} bytes): {}",
                path.display(),
                std::io::Error::last_os_error()
            )));
        }
        Ok(Self {
            ptr: std::ptr::NonNull::new(ptr.cast::<u8>())
                .ok_or_else(|| Error::Storage(format!("mmap of {} returned null", path.display())))?,
            len,
        })
    }

    /// The mapped bytes.
    fn bytes(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        unsafe {
            munmap(self.ptr.as_ptr().cast(), self.len);
        }
    }
}

#[derive(Debug)]
struct FileBacked {
    file: std::fs::File,
    path: PathBuf,
    span: FileSpan,
    /// Under [`FileIoMode::Mmap`], the validated head of the file
    /// (`0..span.offset + payload`) mapped read-only; misses copy frames
    /// from here instead of issuing a `pread`. `None` under
    /// [`FileIoMode::Pread`] or for an empty span.
    map: Option<MmapRegion>,
    /// Series appended *after* the store was attached (streaming ingest).
    /// The backing file stays immutable; the tail is the resident overflow
    /// holding records `span.records..`, flat in append order. Page frames
    /// that straddle the file/tail boundary are assembled from both.
    tail: Vec<f32>,
}

/// The bytes of `values`, writable in place: a file read lands directly in
/// its final `[f32]` with no staging buffer and no per-value conversion.
/// Little-endian targets only — there, and only there, the on-disk payload
/// (little-endian IEEE-754 bit patterns) *is* the in-memory representation;
/// every other target decodes through `decode_le_f32s`.
#[cfg(target_endian = "little")]
fn f32_bytes_mut(values: &mut [f32]) -> &mut [u8] {
    // SAFETY: the view covers exactly the `size_of_val(values)` bytes of
    // the exclusively borrowed slice, and that borrow is held for as long
    // as the view lives, so nothing else can observe or alias the memory.
    // `u8` has alignment 1 and no invalid bit patterns, so viewing f32s as
    // bytes is always valid; every bit pattern is also a valid `f32`, so
    // no sequence of byte writes through the view can leave `values`
    // holding an invalid value.
    unsafe {
        std::slice::from_raw_parts_mut(
            values.as_mut_ptr().cast::<u8>(),
            std::mem::size_of_val(values),
        )
    }
}

/// Decodes a little-endian f32 payload value by value — the portable path
/// ([`FileBacked::read_f32s`] on big-endian targets) and the reference the
/// tests hold the in-place read to, bit for bit.
#[cfg(any(test, not(target_endian = "little")))]
fn decode_le_f32s(bytes: &[u8], out: &mut [f32]) {
    for (value, chunk) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *value = f32::from_bits(u32::from_le_bytes(chunk.try_into().unwrap()));
    }
}

impl FileBacked {
    /// Fills `out` with the f32 payload starting at file offset `offset`
    /// (byte-granular: span offsets are not f32-aligned). On little-endian
    /// targets the bytes are read straight into `out`'s own storage.
    fn read_f32s(&self, out: &mut [f32], offset: u64, context: &dyn std::fmt::Display) {
        #[cfg(target_endian = "little")]
        self.read_payload(f32_bytes_mut(out), offset, context);
        #[cfg(not(target_endian = "little"))]
        {
            let mut buf = vec![0u8; std::mem::size_of_val(out)];
            self.read_payload(&mut buf, offset, context);
            decode_le_f32s(&buf, out);
        }
    }

    /// Copies the `len` payload bytes at file offset `offset` into `buf` —
    /// through the mapping when one exists, via `pread` otherwise. The one
    /// place the two I/O modes differ.
    fn read_payload(&self, buf: &mut [u8], offset: u64, context: &dyn std::fmt::Display) {
        match &self.map {
            Some(map) => {
                let lo = offset as usize;
                buf.copy_from_slice(&map.bytes()[lo..lo + buf.len()]);
            }
            None => {
                use std::os::unix::fs::FileExt;
                self.file.read_exact_at(buf, offset).unwrap_or_else(|e| {
                    panic!(
                        "file-backed series store: reading {context} of {} failed: {e}",
                        self.path.display()
                    )
                });
            }
        }
    }
}

#[derive(Debug)]
enum Backing {
    /// Every value resident in one flat vector; paged I/O is simulated.
    Resident(Vec<f32>),
    /// Values live in a file; the buffer pool caches real page bytes.
    File(FileBacked),
}

/// The compressed page tier of a store (codec ≠ f32): where the encoded
/// pages of the *sealed* region (records `0..sealed`) live. Records at or
/// beyond `sealed` — streaming-ingest tail growth — always go through the
/// raw path.
#[derive(Debug)]
enum CodedTier {
    /// No coded tier: every access is raw (the f32 codec, or a store that
    /// was never sealed — fresh builds run raw even under a coded config).
    None,
    /// Encoded pages held in RAM, mirroring the resident raw payload; the
    /// pool tracks page ids and the byte charges *simulate* the coded
    /// transfers, exactly as the resident raw path simulates raw ones.
    Resident { pages: Vec<Arc<CodedPage>>, sealed: usize },
    /// Encoded pages live in a `HYDRCODE` sidecar file; a pool miss is a
    /// genuine `pread` of the coded record, so the compressed byte counts
    /// are real transfers.
    File {
        file: std::fs::File,
        path: PathBuf,
        sealed: usize,
    },
}

impl CodedTier {
    fn sealed(&self) -> usize {
        match self {
            CodedTier::None => 0,
            CodedTier::Resident { sealed, .. } | CodedTier::File { sealed, .. } => *sealed,
        }
    }
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

/// A flat, append-only store of fixed-length series with paged access.
///
/// Record ids are assigned in append order; indexes lay out their leaves by
/// appending leaf contents contiguously, so a leaf scan is a sequential read
/// and a jump between leaves is a random read — matching the layout of the
/// original on-disk implementations.
///
/// ## Backings
///
/// * [`SeriesStore::new`] / [`SeriesStore::from_dataset`] create a
///   **resident** store: all values in RAM, the buffer pool tracks page ids
///   only, and the I/O counters are a *simulation* of what a disk would
///   have done.
/// * [`SeriesStore::file_backed`] attaches a **file-backed** store: reads
///   go through the same buffer pool, but a miss is a genuine
///   page-granular `pread` ([`std::os::unix::fs::FileExt::read_exact_at`])
///   and an eviction genuinely drops bytes. The hit/miss/random/sequential
///   accounting is shared with the resident path, so for the same access
///   sequence and [`StorageConfig`] the two backings report identical
///   [`QueryStats`] — only [`IoSnapshot::bytes_read`] differs, because on
///   a file it measures real transfers.
///
/// Pages hold a whole number of series (`page_bytes / series_bytes`,
/// minimum one), so a record never straddles a page; a series larger than
/// `page_bytes` makes each page one series.
#[derive(Debug)]
pub struct SeriesStore {
    series_len: usize,
    config: StorageConfig,
    backing: Backing,
    coded: CodedTier,
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
            config,
            backing,
            coded: CodedTier::None,
            state: Mutex::new(AccessState {
                pool: BufferPool::new(config.buffer_pool_pages),
                last_page: None,
                totals: IoSnapshot::default(),
            }),
        })
    }

    /// Creates an empty resident store for series of length `series_len`.
    pub fn new(series_len: usize, config: StorageConfig) -> Result<Self> {
        Self::validated(series_len, config, Backing::Resident(Vec::new()))
    }

    /// Creates a resident store populated with the contents of a dataset,
    /// preserving record ids = dataset positions.
    pub fn from_dataset(dataset: &Dataset, config: StorageConfig) -> Result<Self> {
        let mut store = Self::new(dataset.series_len(), config)?;
        match &mut store.backing {
            Backing::Resident(data) => data.extend_from_slice(dataset.as_flat()),
            Backing::File(_) => unreachable!("new() builds resident stores"),
        }
        Ok(store)
    }

    /// Attaches a store to the series payload at `span` inside the file at
    /// `path` — the out-of-core backing. The file is opened read-only and
    /// must stay immutable while the store lives; every cold read is a real
    /// page-granular `pread`.
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
        let file = std::fs::File::open(path)
            .map_err(|e| Error::Storage(format!("cannot open {}: {e}", path.display())))?;
        let mut store = Self::validated(
            series_len,
            config,
            Backing::File(FileBacked {
                file,
                path: path.to_path_buf(),
                span,
                map: None,
                tail: Vec::new(),
            }),
        )?;
        let needed = (span.records as u64)
            .checked_mul(store.series_bytes())
            .and_then(|payload| span.offset.checked_add(payload))
            .ok_or_else(|| Error::Storage("file span overflows".into()))?;
        let actual = match &store.backing {
            Backing::File(fb) => fb
                .file
                .metadata()
                .map_err(|e| Error::Storage(format!("cannot stat {}: {e}", path.display())))?
                .len(),
            Backing::Resident(_) => unreachable!(),
        };
        if actual < needed {
            return Err(Error::Storage(format!(
                "{} holds {actual} bytes but the span needs {needed}",
                path.display()
            )));
        }
        // Only after the span has been validated against the real file
        // length is the mapping created — a short file fails above with a
        // typed error, so dereferencing `0..needed` can never SIGBUS.
        if config.io == FileIoMode::Mmap && needed > 0 {
            match &mut store.backing {
                Backing::File(fb) => fb.map = Some(MmapRegion::map(&fb.file, needed as usize, path)?),
                Backing::Resident(_) => unreachable!(),
            }
        }
        Ok(store)
    }

    /// Whether this store reads from a backing file (vs. resident RAM).
    pub fn is_file_backed(&self) -> bool {
        matches!(self.backing, Backing::File(_))
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
        let page = self.page_of(id);
        match &mut self.backing {
            Backing::Resident(data) => data.extend_from_slice(series),
            Backing::File(fb) => {
                fb.tail.extend_from_slice(series);
                // The page now holding `id` may be cached from before the
                // append (shorter, or missing the record entirely); drop it
                // so the next access reloads the assembled frame.
                self.state.lock().pool.remove(page);
            }
        }
        Ok(id)
    }

    /// Number of series stored.
    pub fn len(&self) -> usize {
        match &self.backing {
            Backing::Resident(data) => data.len() / self.series_len,
            Backing::File(fb) => fb.span.records + fb.tail.len() / self.series_len,
        }
    }

    /// Whether the store holds no series.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Length of each stored series.
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
        match &self.backing {
            Backing::Resident(data) => Ok(data),
            Backing::File(fb) => Err(Error::Storage(format!(
                "as_flat is resident-only: the payload of this store lives in {}",
                fb.path.display()
            ))),
        }
    }

    /// Bytes occupied by one series.
    fn series_bytes(&self) -> u64 {
        (self.series_len * std::mem::size_of::<f32>()) as u64
    }

    fn series_per_page(&self) -> u64 {
        (self.config.page_bytes as u64 / self.series_bytes()).max(1)
    }

    fn page_of(&self, record: usize) -> u64 {
        record as u64 / self.series_per_page()
    }

    /// Reads the whole frame of `page`: file bytes for records inside the
    /// immutable span, resident tail values for records appended after the
    /// store was attached (a frame freely straddles the boundary).
    ///
    /// # Panics
    /// Panics if the read fails: the span was validated when the store was
    /// attached, so a failure here is a genuine I/O fault (or the file was
    /// mutated behind the store's back), not a recoverable query error.
    fn load_frame(&self, fb: &FileBacked, page: u64) -> Arc<[f32]> {
        let spp = self.series_per_page();
        let first = page * spp;
        let total = (fb.span.records + fb.tail.len() / self.series_len) as u64;
        let count = spp.min(total - first) as usize;
        let from_file = (fb.span.records as u64).saturating_sub(first).min(count as u64) as usize;
        // The frame is allocated once, at its final address, and filled in
        // place: the pool hands out this very allocation on every later hit.
        let mut frame: Arc<[f32]> = std::iter::repeat_n(0.0, count * self.series_len).collect();
        let values = Arc::get_mut(&mut frame).expect("a fresh frame has one owner");
        let (file_values, tail_values) = values.split_at_mut(from_file * self.series_len);
        if from_file > 0 {
            fb.read_f32s(
                file_values,
                fb.span.offset + first * self.series_bytes(),
                &format_args!("page {page}"),
            );
        }
        if from_file < count {
            let lo = (first as usize + from_file - fb.span.records) * self.series_len;
            tail_values.copy_from_slice(&fb.tail[lo..lo + tail_values.len()]);
        }
        frame
    }

    /// Returns the (cached or freshly read) frame of `page`, charging the
    /// access. The pool lock is held across the `pread`, so concurrent
    /// readers of one page pay a single disk read — and the hit/miss
    /// sequence stays identical to the resident simulation.
    fn fetch_frame(&self, fb: &FileBacked, page: u64, stats: &mut QueryStats) -> Arc<[f32]> {
        let mut state = self.state.lock();
        if let Some(frame) = state.pool.fetch(page) {
            if let Some(raw) = frame.as_raw() {
                state.charge(page, true, 0, stats);
                return raw;
            }
            // The slot holds this page's *coded* representation (possible
            // only for the one page straddling the seal boundary, when raw
            // tail reads and coded scans interleave). A raw read cannot be
            // served from codes, so invalidate and fault the raw bytes in.
            state.pool.remove(page);
        }
        let frame = self.load_frame(fb, page);
        state.charge(page, false, (frame.len() * std::mem::size_of::<f32>()) as u64, stats);
        state.pool.install(page, Frame::Raw(Arc::clone(&frame)));
        frame
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
        let page = self.page_of(record);
        stats.bytes_read += self.series_bytes();
        match &self.backing {
            Backing::Resident(data) => {
                self.charge_resident_pages(page, page, stats);
                let start = record * self.series_len;
                SeriesRead(ReadRepr::Resident(&data[start..start + self.series_len]))
            }
            Backing::File(fb) => {
                let frame = self.fetch_frame(fb, page, stats);
                let first = (page * self.series_per_page()) as usize;
                SeriesRead(ReadRepr::Cached {
                    frame,
                    start: (record - first) * self.series_len,
                    len: self.series_len,
                })
            }
        }
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
        stats.bytes_read += self.series_bytes() * (end - start) as u64;
        let (first_page, last_page) = (self.page_of(start), self.page_of(end - 1));
        match &self.backing {
            Backing::Resident(data) => {
                self.charge_resident_pages(first_page, last_page, stats);
                for record in start..end {
                    let off = record * self.series_len;
                    visit(record, &data[off..off + self.series_len]);
                }
            }
            Backing::File(fb) => {
                let spp = self.series_per_page() as usize;
                for page in first_page..=last_page {
                    let frame = self.fetch_frame(fb, page, stats);
                    let page_first = page as usize * spp;
                    let lo = start.max(page_first);
                    let hi = end.min(page_first + frame.len() / self.series_len);
                    for record in lo..hi {
                        let off = (record - page_first) * self.series_len;
                        visit(record, &frame[off..off + self.series_len]);
                    }
                }
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
        out.clear();
        match &self.backing {
            Backing::Resident(data) => {
                let start = record * self.series_len;
                out.extend_from_slice(&data[start..start + self.series_len]);
            }
            Backing::File(fb) => {
                if record < fb.span.records {
                    out.resize(self.series_len, 0.0);
                    fb.read_f32s(
                        out,
                        fb.span.offset + record as u64 * self.series_bytes(),
                        &format_args!("record {record}"),
                    );
                } else {
                    let start = (record - fb.span.records) * self.series_len;
                    out.extend_from_slice(&fb.tail[start..start + self.series_len]);
                }
            }
        }
    }

    /// Visits every stored series in record order without touching the
    /// buffer pool or any I/O counter — the scan-shaped companion of
    /// [`SeriesStore::read_uncharged`], used by save-time fingerprinting
    /// and ingest-time retraining. Never use it on a query path.
    pub fn for_each_series(&self, visit: &mut dyn FnMut(usize, &[f32])) {
        match &self.backing {
            Backing::Resident(data) => {
                for (record, series) in data.chunks_exact(self.series_len).enumerate() {
                    visit(record, series);
                }
            }
            Backing::File(fb) => {
                let spp = self.series_per_page() as usize;
                let len = self.len();
                let mut record = 0usize;
                for page in 0..self.len().div_ceil(spp) {
                    let frame = self.load_frame(fb, page as u64);
                    for series in frame.chunks_exact(self.series_len) {
                        visit(record, series);
                        record += 1;
                    }
                }
                debug_assert_eq!(record, len);
            }
        }
    }

    /// Charges simulated page accesses for the inclusive page range
    /// `[first, last]` (resident backing).
    fn charge_resident_pages(&self, first: u64, last: u64, stats: &mut QueryStats) {
        let mut state = self.state.lock();
        for page in first..=last {
            let hit = state.pool.access(page);
            state.charge(page, hit, self.config.page_bytes as u64, stats);
        }
    }

    // ------------------------------------------------------------------
    // The compressed page tier (codec != f32)
    // ------------------------------------------------------------------

    /// Number of records covered by the coded tier (0 when there is
    /// none). Records `0..sealed` are scanned through compressed pages by
    /// [`SeriesStore::refine`] / [`SeriesStore::scan_refine`]; records at
    /// or beyond it (streaming-ingest tail growth) always go raw.
    pub fn sealed(&self) -> usize {
        self.coded.sealed()
    }

    /// Encodes the current contents of a **resident** store into the
    /// compressed page tier, sealing records `0..len()`. A no-op for the
    /// f32 codec. The attach helpers in `hydra-persist` call this after
    /// populating a resident store; fresh builds never seal, so build-time
    /// I/O stays raw.
    ///
    /// # Panics
    /// Panics on a file-backed store — those attach a `HYDRCODE` sidecar
    /// with [`SeriesStore::attach_coded_file`] instead, so the compressed
    /// byte counts stay real transfers.
    pub fn seal_coded(&mut self) {
        if self.config.codec == PageCodec::F32 {
            return;
        }
        let data = match &self.backing {
            Backing::Resident(data) => data,
            Backing::File(_) => {
                panic!("file-backed stores attach a HYDRCODE sidecar instead of sealing in RAM")
            }
        };
        let spp = self.series_per_page() as usize;
        let len = data.len() / self.series_len;
        let mut pages = Vec::with_capacity(len.div_ceil(spp));
        for page in 0..len.div_ceil(spp) {
            let lo = page * spp * self.series_len;
            let hi = ((page + 1) * spp).min(len) * self.series_len;
            pages.push(Arc::new(CodedPage::encode(
                &data[lo..hi],
                self.series_len,
                self.config.codec,
            )));
        }
        self.coded = CodedTier::Resident { pages, sealed: len };
    }

    /// Attaches the `HYDRCODE` sidecar at `path` as the compressed page
    /// tier of a **file-backed** store, sealing the span records. The
    /// sidecar's header must agree with this store's codec, series length,
    /// span size and page grouping (it was written for exactly this
    /// layout; `hydra-persist` rebuilds it otherwise).
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] on a resident store or under the f32
    /// codec; [`Error::Storage`] if the sidecar cannot be opened, has a
    /// foreign header, or is shorter than its page records require.
    pub fn attach_coded_file(&mut self, path: &Path) -> Result<()> {
        if self.config.codec == PageCodec::F32 {
            return Err(Error::InvalidParameter(
                "the f32 codec has no coded tier to attach".into(),
            ));
        }
        let span_records = match &self.backing {
            Backing::File(fb) => fb.span.records,
            Backing::Resident(_) => {
                return Err(Error::InvalidParameter(
                    "resident stores seal their coded tier in RAM".into(),
                ))
            }
        };
        use std::os::unix::fs::FileExt;
        let file = std::fs::File::open(path)
            .map_err(|e| Error::Storage(format!("cannot open {}: {e}", path.display())))?;
        let mut header = [0u8; CODED_HEADER_BYTES as usize];
        file.read_exact_at(&mut header, 0)
            .map_err(|e| Error::Storage(format!("cannot read {}: {e}", path.display())))?;
        let header = CodedHeader::decode(&header)?;
        let spp = self.series_per_page();
        if header.codec != self.config.codec
            || header.series_len != self.series_len as u64
            || header.records != span_records as u64
            || header.series_per_page != spp
        {
            return Err(Error::Storage(format!(
                "{} was coded for a different layout (codec {}, len {}, {} records, {} series/page)",
                path.display(),
                header.codec.name(),
                header.series_len,
                header.records,
                header.series_per_page,
            )));
        }
        let full_pages = (span_records as u64) / spp;
        let tail_records = span_records as u64 - full_pages * spp;
        let needed = CODED_HEADER_BYTES
            + full_pages * page_disk_bytes(spp as usize, self.series_len, self.config.codec)
            + if tail_records > 0 {
                page_disk_bytes(tail_records as usize, self.series_len, self.config.codec)
            } else {
                0
            };
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
        self.coded = CodedTier::File {
            file,
            path: path.to_path_buf(),
            sealed: span_records,
        };
        Ok(())
    }

    /// Logical bytes one coded series charges to a query.
    fn coded_record_bytes(&self) -> u64 {
        coded_series_bytes(self.series_len, self.config.codec)
    }

    /// Returns the coded page `page` of the sealed region, charging the
    /// page access (hit, or miss with the coded record's real byte size —
    /// also counted into `compressed_bytes_read`).
    fn fetch_coded_page(&self, page: u64, stats: &mut QueryStats) -> Arc<CodedPage> {
        match &self.coded {
            CodedTier::None => unreachable!("coded access without a coded tier"),
            CodedTier::Resident { pages, .. } => {
                let frame = Arc::clone(&pages[page as usize]);
                let miss_bytes =
                    page_disk_bytes(frame.count(), self.series_len, self.config.codec);
                let mut state = self.state.lock();
                let hit = state.pool.access(page);
                state.charge(page, hit, miss_bytes, stats);
                if !hit {
                    state.totals.compressed_bytes_read += miss_bytes;
                }
                frame
            }
            CodedTier::File { file, path, sealed } => {
                let mut state = self.state.lock();
                if let Some(frame) = state.pool.fetch(page) {
                    if let Some(coded) = frame.as_coded() {
                        state.charge(page, true, 0, stats);
                        return coded;
                    }
                    // Mirror image of the raw path: the seal-boundary page
                    // may be cached raw by a tail read; refetch its codes.
                    state.pool.remove(page);
                }
                use std::os::unix::fs::FileExt;
                let spp = self.series_per_page();
                let first = page * spp;
                let count = spp.min(*sealed as u64 - first) as usize;
                let stride = page_disk_bytes(spp as usize, self.series_len, self.config.codec);
                let bytes = page_disk_bytes(count, self.series_len, self.config.codec);
                let mut buf = vec![0u8; bytes as usize];
                file.read_exact_at(&mut buf, CODED_HEADER_BYTES + page * stride)
                    .unwrap_or_else(|e| {
                        panic!(
                            "coded series store: reading page {page} of {} failed: {e}",
                            path.display()
                        )
                    });
                let frame = Arc::new(
                    CodedPage::from_disk_bytes(&buf, count, self.series_len, self.config.codec)
                        .unwrap_or_else(|e| {
                            panic!("coded page {page} of {} is corrupt: {e}", path.display())
                        }),
                );
                state.charge(page, false, bytes, stats);
                state.totals.compressed_bytes_read += bytes;
                state.pool.install(page, Frame::Coded(Arc::clone(&frame)));
                frame
            }
        }
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
        if record >= self.coded.sealed() {
            let series = self.read(record, stats);
            return hydra_core::euclidean_early_abandon(query, &series, best_so_far);
        }
        stats.bytes_read += self.coded_record_bytes();
        let page = self.page_of(record);
        let frame = self.fetch_coded_page(page, stats);
        let idx = record - (page * self.series_per_page()) as usize;
        self.coded_probe(&frame, idx, query, best_so_far)?;
        self.charge_exact_refinement(stats);
        let mut exact = Vec::new();
        self.read_uncharged(record, &mut exact);
        hydra_core::euclidean_early_abandon(query, &exact, best_so_far)
    }

    /// Refines `count` consecutive candidates starting at `start` — the
    /// scan-shaped companion of [`SeriesStore::refine`], used by tree
    /// leaves whose contents are contiguous runs. `accept(record, d)` is
    /// invoked for each surviving candidate and returns the (possibly
    /// tightened) bound for the rest of the scan; the final bound is
    /// returned.
    ///
    /// On a raw (f32) store this charges exactly what
    /// [`SeriesStore::read_range`] plus the kernel would (it *is* that
    /// call); on a coded store the sealed prefix of the range scans
    /// compressed pages and only survivors read exact f32 bytes, while
    /// any tail records (appended after sealing) fall through to the raw
    /// path.
    pub fn scan_refine(
        &self,
        start: usize,
        count: usize,
        query: &[f32],
        best_so_far: f32,
        stats: &mut QueryStats,
        accept: &mut dyn FnMut(usize, f32) -> f32,
    ) -> f32 {
        let mut bound = best_so_far;
        if count == 0 {
            return bound;
        }
        let end = (start + count).min(self.len());
        assert!(start < self.len(), "start {start} out of bounds");
        let sealed = self.coded.sealed();
        let coded_end = end.min(sealed);
        if coded_end > start {
            let spp = self.series_per_page();
            let mut exact = Vec::new();
            for page in self.page_of(start)..=self.page_of(coded_end - 1) {
                let frame = self.fetch_coded_page(page, stats);
                let page_first = (page * spp) as usize;
                let lo = start.max(page_first);
                let hi = coded_end.min(page_first + frame.count());
                for record in lo..hi {
                    stats.bytes_read += self.coded_record_bytes();
                    if self
                        .coded_probe(&frame, record - page_first, query, bound)
                        .is_some()
                    {
                        self.charge_exact_refinement(stats);
                        self.read_uncharged(record, &mut exact);
                        if let Some(d) =
                            hydra_core::euclidean_early_abandon(query, &exact, bound)
                        {
                            bound = accept(record, d);
                        }
                    }
                }
            }
        }
        let raw_start = start.max(sealed);
        if end > raw_start {
            self.read_range(raw_start, end - raw_start, stats, &mut |record, series| {
                if let Some(d) = hydra_core::euclidean_early_abandon(query, series, bound) {
                    bound = accept(record, d);
                }
            });
        }
        bound
    }

    /// Snapshot of cumulative I/O counters.
    pub fn io_snapshot(&self) -> IoSnapshot {
        let state = self.state.lock();
        IoSnapshot {
            pool_evictions: state.pool.evictions(),
            ..state.totals
        }
    }

    /// The same cumulative totals as [`SeriesStore::io_snapshot`], in
    /// the core [`StoreCounters`] shape the observability layer scrapes
    /// through [`hydra_core::AnnIndex::store_counters`]. Reading is a
    /// pure snapshot — it charges nothing and touches no pool state.
    pub fn counters(&self) -> StoreCounters {
        let snap = self.io_snapshot();
        StoreCounters {
            random_ios: snap.random_ios,
            sequential_ios: snap.sequential_ios,
            bytes_read: snap.bytes_read,
            pool_hits: snap.pool_hits,
            pool_misses: snap.pool_misses,
            pool_evictions: snap.pool_evictions,
            compressed_bytes_read: snap.compressed_bytes_read,
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
    // Batch-aware pinning and prefetch
    // ------------------------------------------------------------------

    /// Declares the page working set of an in-flight batch: the pages
    /// covering each `(start, count)` record range are pinned in the
    /// buffer pool (never chosen as eviction victims) and, when `prefetch`
    /// is set, faulted in ascending page order so the misses are charged
    /// as one sequential sweep instead of the batch's own access pattern.
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
    /// - Prefetch charges land on the store totals through the same
    ///   `AccessState::charge` path as any other access; the per-page
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
                self.prefetch_page(page, &mut scratch);
            }
        }
        pages
    }

    /// Unpins pages previously returned by
    /// [`SeriesStore::pin_working_set`], restoring plain LRU eviction.
    pub fn release_working_set(&self, pages: &[u64]) {
        let mut state = self.state.lock();
        for &page in pages {
            state.pool.unpin(page);
        }
    }

    /// Faults one page into the pool through whichever representation the
    /// store would serve it from: the coded tier for sealed records, the
    /// raw frame path for a file backing, a plain id-access for a resident
    /// one. Must not be called with the state lock held —
    /// [`SeriesStore::fetch_coded_page`] locks internally.
    fn prefetch_page(&self, page: u64, stats: &mut QueryStats) {
        let first = (page * self.series_per_page()) as usize;
        if first >= self.len() {
            return;
        }
        if first < self.coded.sealed() {
            let _ = self.fetch_coded_page(page, stats);
            return;
        }
        match &self.backing {
            Backing::Resident(_) => {
                let mut state = self.state.lock();
                let hit = state.pool.access(page);
                state.charge(page, hit, self.config.page_bytes as u64, stats);
            }
            Backing::File(fb) => {
                let _ = self.fetch_frame(fb, page, stats);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(n: usize, len: usize) -> Dataset {
        let mut d = Dataset::new(len).unwrap();
        for i in 0..n {
            let s: Vec<f32> = (0..len).map(|j| (i * len + j) as f32).collect();
            d.push(&s).unwrap();
        }
        d
    }

    fn small_store(n: usize, len: usize, config: StorageConfig) -> SeriesStore {
        SeriesStore::from_dataset(&dataset(n, len), config).unwrap()
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
        assert_eq!(ri.pool_hits, fi.pool_hits);
        assert_eq!(ri.pool_misses, fi.pool_misses);
        assert_eq!(ri.random_ios, fi.random_ios);
        assert_eq!(ri.sequential_ios, fi.sequential_ios);
        assert_eq!(ri.pool_evictions, fi.pool_evictions);
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

    /// Written so `cargo miri test -p hydra-storage byte_view` accepts it:
    /// no file, no mapping, only the helper and the frame allocation the
    /// miss path pairs it with.
    #[cfg(target_endian = "little")]
    #[test]
    fn byte_view_writes_land_in_the_f32s_bit_for_bit() {
        // Zeroes, a subnormal, a NaN with a payload, -inf, -0.0, 1.0, all ones.
        let patterns = [
            0u32,
            1,
            0x7fc0_0001,
            0xff80_0000,
            0x8000_0000,
            0x3f80_0000,
            u32::MAX,
        ];
        let bytes: Vec<u8> = patterns.iter().flat_map(|p| p.to_le_bytes()).collect();
        let mut reference = vec![0.0f32; patterns.len()];
        decode_le_f32s(&bytes, &mut reference);
        assert_eq!(bits(&reference), patterns);

        let mut frame: Arc<[f32]> = std::iter::repeat_n(0.0, patterns.len()).collect();
        let values = Arc::get_mut(&mut frame).unwrap();
        assert_eq!(f32_bytes_mut(values).len(), bytes.len());
        f32_bytes_mut(values).copy_from_slice(&bytes);
        assert_eq!(bits(&frame), patterns);

        // A view of a sub-slice covers exactly that sub-slice.
        let mut values = reference.clone();
        f32_bytes_mut(&mut values[2..4]).fill(0);
        assert_eq!(
            bits(&values),
            [0, 1, 0, 0, 0x8000_0000, 0x3f80_0000, u32::MAX]
        );
        assert!(f32_bytes_mut(&mut []).is_empty());
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
                decode_le_f32s(&payload[file_lo * 16..file_hi * 16], &mut want);
                for series in &tail[lo.max(10) - 10..hi.max(10) - 10] {
                    want.extend_from_slice(series);
                }
                bits(&want)
            };
            let check =
                |store: &SeriesStore, page: u64, lo: usize, hi: usize, tail: &[Vec<f32>]| {
                    let Backing::File(fb) = &store.backing else {
                        unreachable!("file_store_of attaches a file backing")
                    };
                    let frame = store.load_frame(fb, page);
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

    #[test]
    fn concurrent_file_backed_readers_see_consistent_data() {
        let config = StorageConfig {
            page_bytes: 64,
            buffer_pool_pages: 1, // maximum thrash
            codec: PageCodec::F32,
            io: FileIoMode::Pread,
        };
        let (store, path) = file_store(64, 4, config, "threads");
        std::thread::scope(|scope| {
            for t in 0..4 {
                let store = &store;
                scope.spawn(move || {
                    let mut stats = QueryStats::new();
                    for i in 0..200 {
                        let r = (i * 7 + t * 13) % 64;
                        let s = store.read(r, &mut stats);
                        assert_eq!(s[0], (r * 4) as f32, "torn read of record {r}");
                        assert_eq!(s[3], (r * 4 + 3) as f32);
                    }
                });
            }
        });
        let snap = store.io_snapshot();
        assert_eq!(snap.pool_hits + snap.pool_misses, 4 * 200);
        assert!(snap.pool_evictions > 0);
        std::fs::remove_file(&path).ok();
    }

    // ------------------------------------------------------------------
    // Compressed page tier
    // ------------------------------------------------------------------

    use crate::coded::{page_disk_bytes, CodedHeader, CodedPage, CODED_HEADER_BYTES};

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
        store.scan_refine(0, store.len(), query, best, &mut stats, &mut |id, dist| {
            accepted.push((id, dist.to_bits()));
            best = best.min(dist);
            best
        });
        (accepted, stats)
    }

    /// Writes the `HYDRCODE` sidecar for `d` under `codec`, page-grouped
    /// exactly as a store with `config` would group its raw pages.
    fn write_coded_sidecar(d: &Dataset, config: &StorageConfig, path: &Path) {
        let len = d.series_len();
        let spp = (config.page_bytes as usize / (4 * len)).max(1);
        let flat = d.as_flat();
        let n = flat.len() / len;
        let mut bytes = CodedHeader {
            codec: config.codec,
            series_len: len as u64,
            records: n as u64,
            series_per_page: spp as u64,
            source_fingerprint: 0,
            payload_fingerprint: 0,
        }
        .encode()
        .to_vec();
        for page in 0..n.div_ceil(spp) {
            let lo = page * spp * len;
            let hi = ((page + 1) * spp).min(n) * len;
            bytes.extend_from_slice(&CodedPage::encode(&flat[lo..hi], len, config.codec).to_disk_bytes());
        }
        std::fs::write(path, &bytes).unwrap();
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
            let mut coded = SeriesStore::from_dataset(&d, tiered_config(codec)).unwrap();
            assert_eq!(coded.sealed(), 0, "fresh builds are raw even under a coded config");
            coded.seal_coded();
            assert_eq!(coded.sealed(), 100);
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
        }
    }

    #[test]
    fn coded_file_tier_matches_coded_resident_tier_exactly() {
        let d = varied_dataset(100, 16);
        let mut query: Vec<f32> = d.get(11).unwrap().to_vec();
        query[3] += 4.0;

        for codec in [PageCodec::U8, PageCodec::F16] {
            let config = tiered_config(codec);
            let mut resident = SeriesStore::from_dataset(&d, config.clone()).unwrap();
            resident.seal_coded();
            resident.reset_io();

            let dir = std::env::temp_dir();
            let flat = dir.join(format!(
                "hydra-storage-coded-{}-{}.flat",
                std::process::id(),
                codec.name()
            ));
            let sidecar = dir.join(format!(
                "hydra-storage-coded-{}-{}.coded",
                std::process::id(),
                codec.name()
            ));
            let mut bytes = Vec::new();
            for &v in d.as_flat() {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            std::fs::write(&flat, &bytes).unwrap();
            write_coded_sidecar(&d, &config, &sidecar);
            let mut file = SeriesStore::file_backed(
                &flat,
                FileSpan { offset: 0, records: 100 },
                16,
                config.clone(),
            )
            .unwrap();
            file.attach_coded_file(&sidecar).unwrap();
            assert_eq!(file.sealed(), 100);

            let (res_acc, res_stats) = one_nn_scan(&resident, &query);
            let (file_acc, file_stats) = one_nn_scan(&file, &query);
            assert_eq!(file_acc, res_acc, "{} answers diverged", codec.name());
            assert_eq!(
                file_stats, res_stats,
                "{}: the resident tier must simulate exactly what the file tier measures",
                codec.name()
            );
            assert_eq!(file.io_snapshot(), resident.io_snapshot());
            let snap = file.io_snapshot();
            assert!(snap.compressed_bytes_read > 0);
            assert!(
                snap.compressed_bytes_read <= snap.bytes_read,
                "compressed bytes are a subset of all bytes"
            );
            std::fs::remove_file(&flat).ok();
            std::fs::remove_file(&sidecar).ok();
        }
    }

    #[test]
    fn coded_scan_reads_fewer_bytes_at_equal_pool_size() {
        let d = varied_dataset(256, 16);
        let scan = |codec: PageCodec| {
            let mut store = SeriesStore::from_dataset(&d, tiered_config(codec)).unwrap();
            store.seal_coded();
            store.reset_io();
            let query: Vec<f32> = d.get(0).unwrap().to_vec();
            let (_, stats) = one_nn_scan(&store, &query);
            stats
        };
        let raw = scan(PageCodec::F32);
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
        let mut store = SeriesStore::from_dataset(
            &d,
            StorageConfig {
                page_bytes: 128,
                buffer_pool_pages: 4,
                codec: PageCodec::U8,
                io: FileIoMode::Pread,
            },
        )
        .unwrap();
        store.seal_coded();
        assert_eq!(store.sealed(), 20);
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
        store.scan_refine(18, 3, &query, f32::INFINITY, &mut stats, &mut |id, _| {
            seen.push(id);
            f32::INFINITY
        });
        assert_eq!(seen, vec![18, 19, 20]);
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
        let mut store = SeriesStore::file_backed(
            &flat,
            FileSpan { offset: 0, records: 30 },
            8,
            config.clone(),
        )
        .unwrap();

        // Sidecar coded for a different codec.
        let sidecar = dir.join(format!("hydra-storage-badcoded-{}.f16", std::process::id()));
        write_coded_sidecar(&d, &config.clone().with_page_codec(PageCodec::F16), &sidecar);
        assert!(store.attach_coded_file(&sidecar).is_err());

        // Truncated payload.
        let good = dir.join(format!("hydra-storage-badcoded-{}.u8", std::process::id()));
        write_coded_sidecar(&d, &config, &good);
        let full = std::fs::read(&good).unwrap();
        std::fs::write(&good, &full[..full.len() - 1]).unwrap();
        assert!(store.attach_coded_file(&good).is_err());

        // Restored, it attaches.
        std::fs::write(&good, &full).unwrap();
        store.attach_coded_file(&good).unwrap();
        assert_eq!(store.sealed(), 30);

        // Header byte-layout sanity: total size is header + page records.
        assert_eq!(
            full.len() as u64,
            CODED_HEADER_BYTES + 7 * page_disk_bytes(4, 8, PageCodec::U8) + page_disk_bytes(2, 8, PageCodec::U8),
        );
        std::fs::remove_file(&flat).ok();
        std::fs::remove_file(&sidecar).ok();
        std::fs::remove_file(&good).ok();
    }
}
