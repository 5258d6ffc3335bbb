//! Snapshotting whole datasets — and the store-ordered copies of their
//! series that let a file on disk *back* a [`hydra-storage`] store directly.
//!
//! Generating the synthetic collections is cheap, but real deployments load
//! series from expensive pipelines; persisting the [`Dataset`] itself makes
//! a saved index fully self-sufficient: a server can boot from
//! `dataset.snap` + `index.snap` without touching the original source.
//!
//! ## Files a store reads
//!
//! Out-of-core serving needs raw series it can `pread` at a computable
//! offset. Every such file is a one-section container, written by one
//! streaming writer and read by one streaming reader ([`crate::stream`]):
//!
//! * A **dataset snapshot** ([`save_dataset`]) stores its values as
//!   contiguous little-endian `f32` bit patterns after a 24-byte shape, so
//!   the snapshot *doubles as the backing file* for any store that keeps
//!   series in dataset order (VA+file, SRS) — [`dataset_flat_region`]
//!   returns the payload's byte region (offset 73).
//! * A **`.series` sidecar** ([`ensure_flat_series`]) is a dataset
//!   snapshot of the store's series in store order — the leaf-ordered
//!   layout of the tree indexes — whose header fingerprint is
//!   [`flat_series_fingerprint`]. Its values start at offset 73 too.
//! * A **coded sidecar** ([`ensure_coded_series`]) holds a file's series
//!   as coded pages: its kind names the codec (`coded-u8`, `coded-f16`),
//!   its header fingerprint is the source's content fingerprint, and its
//!   section is the shape (series length, records, series per page)
//!   followed by the page records, from offset 74 (u8) or 75 (f16).
//!
//! Both sidecars are derived caches: written (atomically) on first use,
//! verified on reuse, and silently rebuilt when missing, damaged, stale or
//! of another format.
//!
//! [`hydra-storage`]: https://docs.rs/hydra-storage

use std::path::Path;

use hydra_core::Dataset;
use hydra_storage::coded::{coded_records_bytes, CodedPage, PageCodec};
use hydra_storage::StorageConfig;

use crate::error::{PersistError, Result};
use crate::fingerprint::{fingerprint_dataset, Fingerprint};
use crate::snapshot::write_streamed;
use crate::stream::{open_dataset_streaming, scan_dataset, ContainerScan, DataSource};

/// Kind tag of dataset snapshots.
pub const DATASET_KIND: &str = "dataset";

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
/// the dataset's content fingerprint in the header. The values stream to
/// the file a block at a time: nothing payload-sized is allocated.
pub fn save_dataset(dataset: &Dataset, path: &Path) -> Result<()> {
    let (series_len, n) = (dataset.series_len(), dataset.len());
    let shape = [series_len, n, series_len * n];
    write_streamed(path, DATASET_KIND, fingerprint_dataset(dataset), shape, |section| {
        section.put_f32s(dataset.as_flat())
    })?;
    Ok(())
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

/// Content fingerprint of a store's series in *store* order (`order[pos]`
/// names the dataset series stored at record `pos`; `None` is dataset
/// order): shape, then every value's bit pattern — [`fingerprint_dataset`]
/// of the permuted dataset, and so the header fingerprint of its `.series`
/// sidecar. With `None` it is free for a streamed source, whose handle
/// already holds it; a streamed source with a permuted order costs one
/// bounded-memory pass of per-series reads.
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
    let mut fetch = source.series_fetch()?;
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

/// What reading a cached sidecar came to: `Some` to reuse it, `None` to
/// rewrite it — absent, damaged, stale or of another format. Only an
/// unreadable filesystem is an error.
fn reusable<T>(path: &Path, read: impl FnOnce() -> Result<Option<T>>) -> Result<Option<T>> {
    if !path.try_exists()? {
        return Ok(None);
    }
    match read() {
        Err(PersistError::Io(e)) => Err(PersistError::Io(e)),
        Err(_) => Ok(None),
        Ok(found) => Ok(found),
    }
}

/// Ensures the `.series` sidecar at `path` holds the source's series in
/// the given order (`order[pos]` = dataset position of record `pos`;
/// `None` is dataset order), returning the payload span to back a store
/// with.
///
/// The sidecar is a dataset snapshot of the permuted series, and a derived
/// cache: reused untouched when the dataset reader validates it and its
/// fingerprint and shape are the expected ones, (re)written atomically
/// otherwise. A streamed source is read one series at a time
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
    let cached = reusable(path, || {
        let handle = scan_dataset(path, None)?;
        let fresh = handle.fingerprint() == fingerprint
            && (handle.len(), handle.series_len()) == (records, series_len);
        Ok(fresh.then(|| handle.flat_span()))
    })?;
    if let Some(span) = cached {
        return Ok(span);
    }
    let mut fetch = source.series_fetch()?;
    let mut series = Vec::new();
    let shape = [series_len, records, series_len * records];
    let payload_offset = write_streamed(path, DATASET_KIND, fingerprint, shape, |section| {
        for pos in 0..records {
            fetch.get(order.map_or(pos, |o| o[pos]), &mut series)?;
            section.put_f32s(&series)?;
        }
        Ok(())
    })?;
    Ok(FlatSpan {
        payload_offset,
        records,
        series_len,
    })
}

/// Ensures the coded-page sidecar at `path` holds the source's series (in
/// the given order, `None` = dataset order) quantized under
/// `storage.codec` and grouped exactly as a [`hydra_storage::SeriesStore`]
/// with `storage` groups its raw pages, and returns the byte offset of its
/// first page record — what a file-backed store attaches with
/// `SeriesStore::attach_coded_file`.
///
/// Like [`ensure_flat_series`], the sidecar is a derived cache: reused when
/// its kind names the codec, its header fingerprint is the source's
/// content fingerprint, its shape is the expected grouping and its section
/// checksum verifies; atomically (re)written otherwise. The codec never
/// enters *snapshot* fingerprints — it shapes only I/O economics, never
/// answers — so the same snapshot serves any codec.
///
/// A rewrite encodes each page once, reading the source a page's worth of
/// series at a time, so even a coded-tier rebuild during lazy boot stays
/// O(page) in memory.
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
) -> Result<u64> {
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
    let (kind, shape) = (format!("coded-{}", codec.name()), [series_len, records, series_per_page]);
    let pages_bytes = coded_records_bytes(records, series_len, series_per_page, codec);
    let cached = reusable(path, || {
        let mut scan = ContainerScan::open(path, &kind)?;
        let fresh = (scan.fingerprint, scan.shape, scan.rest) == (source_fingerprint, shape, pages_bytes);
        if fresh {
            scan.finish()?;
        }
        Ok(fresh.then_some(scan.payload_offset))
    })?;
    if let Some(payload_offset) = cached {
        return Ok(payload_offset);
    }

    let mut fetch = source.series_fetch()?;
    let mut series: Vec<f32> = Vec::new();
    let mut page: Vec<f32> = Vec::with_capacity(series_per_page * series_len);
    write_streamed(path, &kind, source_fingerprint, shape, |section| {
        for page_first in (0..records).step_by(series_per_page) {
            page.clear();
            for pos in page_first..(page_first + series_per_page).min(records) {
                fetch.get(order.map_or(pos, |o| o[pos]), &mut series)?;
                page.extend_from_slice(&series);
            }
            section.put(&CodedPage::encode(&page, series_len, codec).to_disk_bytes())?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{f32s_from_le, Section, SnapshotWriter};

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

    /// The streamed writer lays down exactly the bytes the in-memory
    /// container writer does, so snapshots written before it load as ever.
    #[test]
    fn streamed_save_writes_the_in_memory_containers_bytes() {
        let wave = (0..2_500).map(|i| (i as f32 * 0.37).sin() * 1e3);
        for d in [
            Dataset::from_flat(5, wave.collect()).unwrap(),
            Dataset::from_series(3, &[[f32::NAN, -0.0, f32::INFINITY]]).unwrap(),
            Dataset::new(4).unwrap(),
        ] {
            let mut reference = SnapshotWriter::new(DATASET_KIND, fingerprint_dataset(&d));
            let mut s = Section::new();
            s.put_usize(d.series_len());
            s.put_usize(d.len());
            s.put_f32s(d.as_flat());
            reference.push(s);
            let path = temp_path(&format!("streamed-{}.snap", d.len()));
            save_dataset(&d, &path).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), reference.to_bytes(), "{} series", d.len());
            std::fs::remove_file(&path).ok();
        }
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
        assert_eq!(span.payload_offset, 73);
        assert_eq!(span.records, 3);
        for (pos, &ds) in order.iter().enumerate() {
            assert_eq!(read_record(&path, span, pos), d.series(ds), "record {pos}");
        }
        // The sidecar is the dataset snapshot of the permuted series: its
        // load checks the header's `flat_series_fingerprint` against them.
        let permuted = Dataset::from_series(2, &[d.series(2), d.series(0), d.series(1)]).unwrap();
        assert_eq!(load_dataset(&path).unwrap(), permuted);
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

        // A container of another kind in its place is rewritten too.
        std::fs::write(&path, SnapshotWriter::new("dstree", 0).to_bytes()).unwrap();
        ensure_flat_series(&path, &d, None).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), pristine);

        // Only an unreadable filesystem is an error.
        let blocked = temp_path("not-a-dir").join("x.series");
        std::fs::write(blocked.parent().unwrap(), b"a file").unwrap();
        assert!(matches!(ensure_flat_series(&blocked, &d, None), Err(PersistError::Io(_))));
        std::fs::remove_file(blocked.parent().unwrap()).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sidecar_path_appends_series_suffix() {
        use crate::layout::{coded_sidecar_path, sidecar_series_path};
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
        let offset = ensure_coded_series(&path, &d, None, &storage).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // The container names the codec and the source, and its shape the
        // layout a store with this config expects; the pages follow it.
        let mut scan = ContainerScan::open(&path, "coded-u8").unwrap();
        assert_eq!(scan.fingerprint, flat_series_fingerprint(&d, None).unwrap());
        assert_eq!(scan.shape, [4, 5, 2]);
        assert_eq!(offset, 74);
        assert_eq!(scan.payload_offset, offset);
        scan.finish().unwrap();
        let page_bytes = |count| hydra_storage::coded::page_disk_bytes(count, 4, PageCodec::U8) as usize;
        let first = &pristine[offset as usize..offset as usize + page_bytes(2)];
        let values: Vec<f32> = d.as_flat()[..8].to_vec();
        assert_eq!(first, CodedPage::encode(&values, 4, PageCodec::U8).to_disk_bytes());
        assert_eq!(pristine.len(), offset as usize + 2 * page_bytes(2) + page_bytes(1));

        // Reuse does not rewrite.
        assert_eq!(ensure_coded_series(&path, &d, None, &storage).unwrap(), offset);
        assert_eq!(std::fs::read(&path).unwrap(), pristine);

        // A flipped payload byte is detected and the sidecar rebuilt.
        let mut damaged = pristine.clone();
        let last = damaged.len() - 1;
        damaged[last] ^= 0x10;
        std::fs::write(&path, &damaged).unwrap();
        ensure_coded_series(&path, &d, None, &storage).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), pristine, "damage repaired");

        // A sidecar written for another codec or another page size is
        // rebuilt.
        for other in [
            StorageConfig { codec: PageCodec::F16, ..storage },
            StorageConfig { page_bytes: 48, ..storage },
        ] {
            ensure_coded_series(&path, &d, None, &other).unwrap();
            assert_ne!(std::fs::read(&path).unwrap(), pristine);
            ensure_coded_series(&path, &d, None, &storage).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), pristine);
        }

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
