//! Snapshotting whole datasets — and the flat series layout that lets a
//! file on disk *back* a [`hydra-storage`] store directly.
//!
//! Generating the synthetic collections is cheap, but real deployments load
//! series from expensive pipelines; persisting the [`Dataset`] itself makes
//! a saved index fully self-sufficient: a server can boot from
//! `dataset.snap` + `index.snap` without touching the original source.
//!
//! ## The flat series layout
//!
//! Out-of-core serving needs raw series it can `pread` at a computable
//! offset. Two files provide that:
//!
//! * A **dataset snapshot** ([`save_dataset`]) stores its values as
//!   contiguous little-endian `f32` bit patterns, so the snapshot *doubles
//!   as the backing file* for any store that keeps series in dataset order
//!   (VA+file, SRS) — [`dataset_flat_region`] returns the payload's byte
//!   region. Every read of one — [`load_dataset`] included — is the single
//!   streaming pass of [`crate::stream`].
//! * A **flat series file** (`HYDRFLAT`, [`ensure_flat_series`]) holds
//!   series in an arbitrary caller-chosen order — the leaf-ordered layout
//!   of the tree indexes. It is a derived cache: written (atomically) from
//!   the in-RAM dataset on first use, verified against a content
//!   fingerprint on reuse, and silently rebuilt if damaged.
//!
//! ```text
//! flat series file layout (all little-endian)
//! offset  size  field
//! 0       8     magic  b"HYDRFLAT"
//! 8       4     format version (u32, currently 1)
//! 12      4     reserved (zero)
//! 16      8     series length (u64)
//! 24      8     record count (u64)
//! 32      8     content fingerprint (u64, see [`flat_series_fingerprint`])
//! 40      24    zero padding
//! 64      ...   record count × series length f32 values (bit patterns)
//! ```
//!
//! [`hydra-storage`]: https://docs.rs/hydra-storage

use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use hydra_core::Dataset;
use hydra_storage::coded::{CodedHeader, CodedPage, PageCodec, CODED_HEADER_BYTES};
use hydra_storage::StorageConfig;

use crate::error::{PersistError, Result};
use crate::fingerprint::{fingerprint_dataset, Fingerprint};
use crate::snapshot::{f32s_from_le, fnv1a64_continue, Section, SnapshotWriter, FNV_OFFSET_BASIS};
use crate::stream::{open_dataset_streaming, scan_dataset, DataSource, STREAM_CHUNK_BYTES};

/// Kind tag of dataset snapshots.
pub const DATASET_KIND: &str = "dataset";

/// Magic bytes identifying a flat series file.
pub const FLAT_MAGIC: [u8; 8] = *b"HYDRFLAT";

/// The single flat-series-file format version this build writes and reads.
pub const FLAT_VERSION: u32 = 1;

/// Byte offset of record 0 inside a flat series file.
pub const FLAT_PAYLOAD_OFFSET: u64 = 64;

/// Where the raw series of a file live: `payload_offset` bytes in, as
/// `records` × `series_len` little-endian `f32` bit patterns. This is the
/// value handed to `hydra_storage::SeriesStore::file_backed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatSpan {
    /// Byte offset of the first value.
    pub payload_offset: u64,
    /// Number of series.
    pub records: usize,
    /// Length of each series.
    pub series_len: usize,
}

/// Writes `dataset` to `path` as a snapshot of kind [`DATASET_KIND`], with
/// the dataset's content fingerprint in the header.
pub fn save_dataset(dataset: &Dataset, path: &Path) -> Result<()> {
    let mut w = SnapshotWriter::new(DATASET_KIND, fingerprint_dataset(dataset));
    let mut s = Section::new();
    s.put_usize(dataset.series_len());
    s.put_usize(dataset.len());
    s.put_f32s(dataset.as_flat());
    w.push(s);
    w.write_to(path)
}

/// Reads a dataset snapshot written by [`save_dataset`] — the streamed
/// validation of [`open_dataset_streaming`] (same checks, same typed
/// errors) with the values kept, in the one buffer the [`Dataset`] owns.
pub fn load_dataset(path: &Path) -> Result<Dataset> {
    let mut values = Vec::new();
    let handle = scan_dataset(path, Some(&mut values))?;
    Dataset::from_flat(handle.series_len(), values).map_err(|e| PersistError::Corrupt(e.to_string()))
}

/// The byte region of `source`'s values inside the dataset snapshot at
/// `path` — the span that lets the snapshot double as a store's backing
/// file.
///
/// A streamed source validated from this very path answers from its
/// handle. For anything else the container is fully validated (checksums
/// included) and must hold exactly `source`: a snapshot of different
/// content fails with [`PersistError::FingerprintMismatch`], so a store can
/// never be silently backed by the wrong bytes.
pub fn dataset_flat_region<'a>(path: &Path, source: impl Into<DataSource<'a>>) -> Result<FlatSpan> {
    let source = source.into();
    if let DataSource::Streamed(handle) = source {
        if handle.path() == path {
            return Ok(handle.flat_span());
        }
    }
    let handle = open_dataset_streaming(path)?;
    let expected = source.fingerprint();
    if handle.fingerprint() != expected {
        return Err(PersistError::FingerprintMismatch {
            expected,
            found: handle.fingerprint(),
        });
    }
    Ok(handle.flat_span())
}

/// The flat series file that caches an index snapshot's store-ordered raw
/// series: `<snapshot>.series` next to the snapshot itself.
pub fn sidecar_series_path(snapshot: &Path) -> PathBuf {
    let mut os = snapshot.as_os_str().to_os_string();
    os.push(".series");
    PathBuf::from(os)
}

/// Content fingerprint of a flat series file: shape, then every value's
/// bit pattern in *file* order (`order[pos]` names the dataset series
/// stored at record `pos`; `None` is dataset order). With `None` this
/// equals [`fingerprint_dataset`] — free for a streamed source, whose
/// handle already holds it; a streamed source with a permuted order costs
/// one bounded-memory pass of per-series reads.
///
/// # Errors
/// [`PersistError::Io`] if a streamed source cannot be read.
pub fn flat_series_fingerprint<'a>(
    source: impl Into<DataSource<'a>>,
    order: Option<&[usize]>,
) -> Result<u64> {
    let source = source.into();
    let Some(order) = order else {
        return Ok(source.fingerprint());
    };
    let fetch = source.series_fetch()?;
    let mut f = Fingerprint::new();
    f.push_usize(source.series_len());
    f.push_usize(order.len());
    let mut series = Vec::new();
    for &ds in order {
        fetch.get(ds, &mut series)?;
        f.push_f32s(&series);
    }
    Ok(f.finish())
}

fn flat_header(series_len: usize, records: usize, fingerprint: u64) -> [u8; FLAT_PAYLOAD_OFFSET as usize] {
    let mut header = [0u8; FLAT_PAYLOAD_OFFSET as usize];
    header[0..8].copy_from_slice(&FLAT_MAGIC);
    header[8..12].copy_from_slice(&FLAT_VERSION.to_le_bytes());
    header[16..24].copy_from_slice(&(series_len as u64).to_le_bytes());
    header[24..32].copy_from_slice(&(records as u64).to_le_bytes());
    header[32..40].copy_from_slice(&fingerprint.to_le_bytes());
    header
}

/// Opens the sidecar at `path` and reads its `N`-byte header; `None` when
/// the file is absent or too short to hold one (the caller rewrites).
fn open_sidecar<const N: usize>(path: &Path) -> Result<Option<(std::fs::File, [u8; N])>> {
    let mut file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut header = [0u8; N];
    Ok(file.read_exact(&mut header).is_ok().then_some((file, header)))
}

/// Feeds the rest of `file` to `visit` in chunks of at most
/// [`STREAM_CHUNK_BYTES`], each — but for the last — a whole number of
/// f32s. Bounded chunks: sidecar verification happens during lazy boot,
/// whose whole promise is an O(pool)-memory start — never buffer the
/// payload. Returns the bytes seen, or `None` on a read error (a damaged
/// cache is rewritten, not reported).
fn stream_payload(mut file: std::fs::File, mut visit: impl FnMut(&[u8])) -> Option<u64> {
    let mut buf = vec![0u8; STREAM_CHUNK_BYTES];
    let mut total = 0u64;
    loop {
        // Fill the chunk completely (short reads are legal mid-file), so
        // only end-of-file ever splits a value.
        let mut filled = 0;
        while filled < buf.len() {
            match file.read(&mut buf[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return None,
            }
        }
        if filled == 0 {
            return Some(total);
        }
        visit(&buf[..filled]);
        total += filled as u64;
    }
}

/// Checks whether the flat series file at `path` exists and holds exactly
/// the expected shape, header fingerprint and payload content. Any
/// shortfall — absent file, stale header, damaged payload — reports
/// `Ok(false)` (the caller rewrites); only an unreadable filesystem is an
/// error.
fn flat_series_is_valid(
    path: &Path,
    series_len: usize,
    records: usize,
    fingerprint: u64,
) -> Result<bool> {
    let Some((file, header)) = open_sidecar::<{ FLAT_PAYLOAD_OFFSET as usize }>(path)? else {
        return Ok(false);
    };
    if header != flat_header(series_len, records, fingerprint) {
        return Ok(false);
    }
    // Verify the payload really hashes to the header fingerprint, so a
    // flipped bit in a cached sidecar is repaired instead of served.
    let mut f = Fingerprint::new();
    f.push_usize(series_len);
    f.push_usize(records);
    let seen = stream_payload(file, |chunk| {
        for value in f32s_from_le(chunk) {
            f.push_f32(value);
        }
    });
    Ok(seen == Some((records * series_len * 4) as u64) && f.finish() == fingerprint)
}

/// Writes a sidecar through a temporary file and an atomic rename, so a
/// concurrent boot never observes a half-written payload. `fill` writes
/// the whole content.
fn write_atomically(
    path: &Path,
    fill: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> Result<()>,
) -> Result<()> {
    let tmp = {
        let mut os = path.as_os_str().to_os_string();
        os.push(format!(".tmp.{}", std::process::id()));
        PathBuf::from(os)
    };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
    fill(&mut w)?;
    w.flush()?;
    drop(w);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Ensures the flat series file at `path` holds the source's series in the
/// given order (`order[pos]` = dataset position of record `pos`; `None` is
/// dataset order), returning the payload span to back a store with.
///
/// The file is a derived cache: if it already exists with the expected
/// header and verified payload it is reused untouched; otherwise it is
/// (re)written atomically. A streamed source is read one series at a time
/// (bounded-memory `pread`s against its validated snapshot), so rebuilding
/// a sidecar during lazy boot never materializes the dataset.
///
/// # Errors
/// [`PersistError::Corrupt`] if `order` references a series outside the
/// dataset; [`PersistError::Io`] on filesystem failures, a streamed source
/// that cannot be read included.
pub fn ensure_flat_series<'a>(
    path: &Path,
    source: impl Into<DataSource<'a>>,
    order: Option<&[usize]>,
) -> Result<FlatSpan> {
    let source = source.into();
    let records = source.records_in(order)?;
    let series_len = source.series_len();
    let fingerprint = flat_series_fingerprint(source, order)?;
    let span = FlatSpan {
        payload_offset: FLAT_PAYLOAD_OFFSET,
        records,
        series_len,
    };
    if flat_series_is_valid(path, series_len, records, fingerprint)? {
        return Ok(span);
    }
    write_atomically(path, |w| {
        w.write_all(&flat_header(series_len, records, fingerprint))?;
        let fetch = source.series_fetch()?;
        let mut series = Vec::new();
        for pos in 0..records {
            let ds = order.map_or(pos, |o| o[pos]);
            fetch.get(ds, &mut series)?;
            for &v in &series {
                w.write_all(&v.to_bits().to_le_bytes())?;
            }
        }
        Ok(())
    })?;
    Ok(span)
}

/// The coded-page sidecar derived from the flat backing file at `backing`
/// for a non-f32 codec: `<backing>.<codec>` (e.g. `index.snap.series.u8`).
/// Each codec gets its own sidecar, so switching serving codecs never
/// invalidates another codec's cache.
pub fn coded_sidecar_path(backing: &Path, codec: PageCodec) -> PathBuf {
    let mut os = backing.as_os_str().to_os_string();
    os.push(format!(".{}", codec.name()));
    PathBuf::from(os)
}

/// Checks whether the `HYDRCODE` sidecar at `path` was derived from
/// exactly the expected source payload and page grouping, with an intact
/// coded payload. Any shortfall reports `Ok(false)` (the caller rewrites).
fn coded_series_is_valid(
    path: &Path,
    codec: PageCodec,
    series_len: usize,
    records: usize,
    series_per_page: usize,
    source_fingerprint: u64,
) -> Result<bool> {
    let Some((file, header)) = open_sidecar::<{ CODED_HEADER_BYTES as usize }>(path)? else {
        return Ok(false);
    };
    let header = match CodedHeader::decode(&header) {
        Ok(h) => h,
        Err(_) => return Ok(false),
    };
    if header.codec != codec
        || header.series_len != series_len as u64
        || header.records != records as u64
        || header.series_per_page != series_per_page as u64
        || header.source_fingerprint != source_fingerprint
    {
        return Ok(false);
    }
    // Verify the coded payload really hashes to the header fingerprint, so
    // a flipped bit in the cache is repaired instead of served.
    let mut state = FNV_OFFSET_BASIS;
    let seen = stream_payload(file, |chunk| state = fnv1a64_continue(state, chunk));
    Ok(seen.is_some() && state == header.payload_fingerprint)
}

/// Ensures the `HYDRCODE` coded-page sidecar at `path` holds the source's
/// series (in the given order, `None` = dataset order) quantized under
/// `storage.codec` and grouped exactly as a [`hydra_storage::SeriesStore`]
/// with `storage` groups its raw pages — the file a file-backed store
/// attaches with `SeriesStore::attach_coded_file`.
///
/// Like [`ensure_flat_series`], the sidecar is a derived cache: reused when
/// its header names the same source payload (by fingerprint) and its coded
/// payload verifies, and atomically (re)written otherwise. The codec never
/// enters *snapshot* fingerprints — it shapes only I/O economics, never
/// answers — so the same snapshot serves any codec.
///
/// A rewrite encodes in two bounded-memory passes — one to fingerprint the
/// coded payload for the header, one to write it — reading the source a
/// page's worth of series at a time, so even a coded-tier rebuild during
/// lazy boot stays O(page) in memory.
///
/// # Errors
/// [`PersistError::Corrupt`] on an f32 codec (there is nothing to encode)
/// or an out-of-range `order`; [`PersistError::Io`] on filesystem failures,
/// a streamed source that cannot be read included.
pub fn ensure_coded_series<'a>(
    path: &Path,
    source: impl Into<DataSource<'a>>,
    order: Option<&[usize]>,
    storage: &StorageConfig,
) -> Result<()> {
    let source = source.into();
    let codec = storage.codec;
    if codec == PageCodec::F32 {
        return Err(PersistError::Corrupt(
            "the f32 codec has no coded sidecar".into(),
        ));
    }
    let records = source.records_in(order)?;
    let series_len = source.series_len();
    let series_per_page = (storage.page_bytes as usize / (series_len * 4)).max(1);
    let source_fingerprint = flat_series_fingerprint(source, order)?;
    if coded_series_is_valid(
        path,
        codec,
        series_len,
        records,
        series_per_page,
        source_fingerprint,
    )? {
        return Ok(());
    }

    let fetch = source.series_fetch()?;
    let mut series: Vec<f32> = Vec::new();
    let mut scratch: Vec<f32> = Vec::with_capacity(series_per_page * series_len);
    let mut encode_pages = |sink: &mut dyn FnMut(&[u8]) -> Result<()>| -> Result<()> {
        for page_first in (0..records).step_by(series_per_page) {
            scratch.clear();
            for pos in page_first..(page_first + series_per_page).min(records) {
                let ds = order.map_or(pos, |o| o[pos]);
                fetch.get(ds, &mut series)?;
                scratch.extend_from_slice(&series);
            }
            sink(&CodedPage::encode(&scratch, series_len, codec).to_disk_bytes())?;
        }
        Ok(())
    };
    // Pass 1: the header records the coded payload's fingerprint, and the
    // header is written first — fingerprint now, encode again when writing.
    let mut state = FNV_OFFSET_BASIS;
    encode_pages(&mut |page| {
        state = fnv1a64_continue(state, page);
        Ok(())
    })?;
    let header = CodedHeader {
        codec,
        series_len: series_len as u64,
        records: records as u64,
        series_per_page: series_per_page as u64,
        source_fingerprint,
        payload_fingerprint: state,
    }
    .encode();

    write_atomically(path, |w| {
        w.write_all(&header)?;
        encode_pages(&mut |page| Ok(w.write_all(page)?))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hydra-dataset-{}-{name}", std::process::id()))
    }

    fn read_record(path: &Path, span: FlatSpan, record: usize) -> Vec<f32> {
        use std::os::unix::fs::FileExt;
        let file = std::fs::File::open(path).unwrap();
        let mut buf = vec![0u8; span.series_len * 4];
        file.read_exact_at(
            &mut buf,
            span.payload_offset + (record * span.series_len * 4) as u64,
        )
        .unwrap();
        f32s_from_le(&buf).collect()
    }

    #[test]
    fn dataset_roundtrip_is_bit_exact() {
        let d = Dataset::from_series(
            3,
            &[[1.0f32, -2.5, 3.0], [0.0, f32::MIN_POSITIVE, 9.75]],
        )
        .unwrap();
        let path = temp_path("roundtrip.snap");
        save_dataset(&d, &path).unwrap();
        let got = load_dataset(&path).unwrap();
        assert_eq!(got, d);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let path = temp_path("wrong-kind.snap");
        SnapshotWriter::new("not-a-dataset", 0)
            .write_to(&path)
            .unwrap();
        assert!(matches!(
            load_dataset(&path),
            Err(PersistError::KindMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dataset_snapshot_doubles_as_a_backing_file() {
        let rows = [
            [1.0f32, 2.0, 3.0, 4.0],
            [-1.5, 0.0, f32::INFINITY, 8.25],
            [9.0, -0.0, 11.0, f32::MIN_POSITIVE],
        ];
        let bits = |series: &[f32]| series.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let foreign_path = temp_path("region-foreign.snap");
        save_dataset(&Dataset::from_series(4, &[[0.5f32; 4]]).unwrap(), &foreign_path).unwrap();
        let foreign = open_dataset_streaming(&foreign_path).unwrap();
        for n in [0, 1, rows.len()] {
            let d = Dataset::from_series(4, &rows[..n]).unwrap();
            let path = temp_path(&format!("region-{n}.snap"));
            save_dataset(&d, &path).unwrap();
            let handle = open_dataset_streaming(&path).unwrap();
            // An in-memory source, the streamed handle of this very path
            // and a streamed handle of a byte-identical copy all name the
            // same span.
            let copy_path = temp_path(&format!("region-{n}-copy.snap"));
            std::fs::copy(&path, &copy_path).unwrap();
            let copy = open_dataset_streaming(&copy_path).unwrap();
            let span = dataset_flat_region(&path, &d).unwrap();
            assert_eq!(span, dataset_flat_region(&path, DataSource::Streamed(&handle)).unwrap());
            assert_eq!(span, dataset_flat_region(&path, DataSource::Streamed(&copy)).unwrap());
            assert_eq!((span.records, span.series_len), (n, 4));
            // pread at the advertised offset yields exactly the stored
            // series, bit for bit, up to the last record — which ends
            // where the file does.
            for r in 0..n {
                assert_eq!(bits(&read_record(&path, span, r)), bits(d.series(r)), "record {r}");
            }
            assert_eq!(
                span.payload_offset + (n * 4 * 4) as u64,
                std::fs::metadata(&path).unwrap().len()
            );
            // A snapshot of other content is refused from either source.
            let other = Dataset::from_flat(4, vec![0.0; (n + 1) * 4]).unwrap();
            for source in [DataSource::InMemory(&other), DataSource::Streamed(&foreign)] {
                assert!(matches!(
                    dataset_flat_region(&path, source),
                    Err(PersistError::FingerprintMismatch { expected, found })
                        if expected == source.fingerprint() && found == handle.fingerprint()
                ));
            }
            std::fs::remove_file(&path).ok();
            std::fs::remove_file(&copy_path).ok();
        }
        std::fs::remove_file(&foreign_path).ok();
    }

    #[test]
    fn flat_series_file_roundtrips_in_any_order() {
        let d = Dataset::from_series(
            2,
            &[[0.0f32, 1.0], [2.0, 3.0], [4.0, 5.0]],
        )
        .unwrap();
        let path = temp_path("flat.series");
        std::fs::remove_file(&path).ok();
        let order = [2usize, 0, 1];
        let span = ensure_flat_series(&path, &d, Some(&order)).unwrap();
        assert_eq!(span.payload_offset, FLAT_PAYLOAD_OFFSET);
        assert_eq!(span.records, 3);
        for (pos, &ds) in order.iter().enumerate() {
            assert_eq!(read_record(&path, span, pos), d.series(ds), "record {pos}");
        }
        // Identity order equals the dataset fingerprint.
        assert_eq!(
            flat_series_fingerprint(&d, None).unwrap(),
            fingerprint_dataset(&d)
        );
        // Out-of-range order entries are corrupt, not a panic.
        assert!(matches!(
            ensure_flat_series(&path, &d, Some(&[7])),
            Err(PersistError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flat_series_cache_is_reused_verified_and_self_healing() {
        let d = Dataset::from_series(2, &[[1.0f32, 2.0], [3.0, 4.0]]).unwrap();
        let path = temp_path("flat-heal.series");
        std::fs::remove_file(&path).ok();
        ensure_flat_series(&path, &d, None).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // Reuse does not rewrite (mtime-independent check: flip nothing,
        // ensure again, bytes unchanged).
        ensure_flat_series(&path, &d, None).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), pristine);

        // A flipped payload byte is detected and the file rebuilt.
        let mut damaged = pristine.clone();
        let last = damaged.len() - 1;
        damaged[last] ^= 0x20;
        std::fs::write(&path, &damaged).unwrap();
        let span = ensure_flat_series(&path, &d, None).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), pristine, "damage repaired");
        assert_eq!(read_record(&path, span, 1), d.series(1));

        // A truncated file is rebuilt too.
        std::fs::write(&path, &pristine[..pristine.len() - 3]).unwrap();
        ensure_flat_series(&path, &d, None).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), pristine);

        // A *different* expected order invalidates the cache.
        let span = ensure_flat_series(&path, &d, Some(&[1, 0])).unwrap();
        assert_eq!(read_record(&path, span, 0), d.series(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sidecar_path_appends_series_suffix() {
        assert_eq!(
            sidecar_series_path(Path::new("/snaps/rand256-isax2.snap")),
            Path::new("/snaps/rand256-isax2.snap.series")
        );
        assert_eq!(
            coded_sidecar_path(Path::new("/snaps/x.snap.series"), PageCodec::U8),
            Path::new("/snaps/x.snap.series.u8")
        );
        assert_eq!(
            coded_sidecar_path(Path::new("/snaps/x.snap.series"), PageCodec::F16),
            Path::new("/snaps/x.snap.series.f16")
        );
    }

    #[test]
    fn coded_sidecar_cache_is_reused_verified_and_self_healing() {
        let d = Dataset::from_series(
            4,
            &[
                [1.0f32, -2.5, 3.0, 0.125],
                [10.0, 20.0, 30.0, 40.0],
                [-7.0, 0.0, 7.0, 14.0],
                [2.0, 4.0, 6.0, 8.0],
                [0.5, 1.5, 2.5, 3.5],
            ],
        )
        .unwrap();
        let storage = StorageConfig {
            page_bytes: 32, // 2 series per page
            buffer_pool_pages: 2,
            codec: PageCodec::U8,
            io: hydra_storage::FileIoMode::Pread,
        };
        let path = temp_path("coded.series.u8");
        std::fs::remove_file(&path).ok();
        ensure_coded_series(&path, &d, None, &storage).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // The header names the layout a store with this config expects.
        let header = CodedHeader::decode(pristine[..64].try_into().unwrap()).unwrap();
        assert_eq!(header.codec, PageCodec::U8);
        assert_eq!(header.series_len, 4);
        assert_eq!(header.records, 5);
        assert_eq!(header.series_per_page, 2);
        assert_eq!(header.source_fingerprint, flat_series_fingerprint(&d, None).unwrap());

        // Reuse does not rewrite.
        ensure_coded_series(&path, &d, None, &storage).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), pristine);

        // A flipped payload byte is detected and the sidecar rebuilt.
        let mut damaged = pristine.clone();
        let last = damaged.len() - 1;
        damaged[last] ^= 0x10;
        std::fs::write(&path, &damaged).unwrap();
        ensure_coded_series(&path, &d, None, &storage).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), pristine, "damage repaired");

        // A different series order is a different source fingerprint: the
        // cache is invalidated, not served.
        let order = [4usize, 3, 2, 1, 0];
        ensure_coded_series(&path, &d, Some(&order), &storage).unwrap();
        let reordered = std::fs::read(&path).unwrap();
        assert_ne!(reordered, pristine);

        // Misuse is typed, never a panic or a silent no-op.
        assert!(matches!(
            ensure_coded_series(&path, &d, Some(&[9]), &storage),
            Err(PersistError::Corrupt(_))
        ));
        assert!(matches!(
            ensure_coded_series(
                &path,
                &d,
                None,
                &StorageConfig {
                    codec: PageCodec::F32,
                    ..storage
                }
            ),
            Err(PersistError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }
}
