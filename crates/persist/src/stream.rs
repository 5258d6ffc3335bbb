//! Streamed dataset-snapshot validation — the lazy boot path.
//!
//! [`crate::dataset::load_dataset`] materializes every value of a `.data.snap` into
//! an in-RAM [`Dataset`] before anything can be served, so peak memory at
//! boot is dataset-sized even when every index afterwards reads through an
//! out-of-core [`hydra_storage::SeriesStore`]. This module provides the
//! alternative: [`open_dataset_streaming`] validates the *entire* container
//! — magic, version, kind, section checksum, shape, and the end-to-end
//! content fingerprint — by scanning the file once in bounded chunks, and
//! returns a [`DatasetHandle`] holding only the header facts (shape,
//! fingerprint, payload offset). Loaders that need raw series read them
//! from the snapshot by offset; nothing dataset-sized is ever allocated.
//!
//! [`DataSource`] is the common currency: "a dataset, either in RAM or
//! validated-on-disk". Loaders take a `DataSource` and stay agnostic;
//! only the few that genuinely need every value call
//! [`DataSource::materialized`].

use std::io::Read;
use std::path::{Path, PathBuf};

use hydra_core::Dataset;

use crate::dataset::{load_dataset, FlatSpan, DATASET_KIND};
use crate::error::{PersistError, Result};
use crate::fingerprint::{fingerprint_dataset, Fingerprint};
use crate::snapshot::{fnv1a64_continue, FNV_OFFSET_BASIS, FORMAT_VERSION, MAGIC};

/// Upper bound on any single read issued while streaming a snapshot.
///
/// This is the boot-time memory ceiling the lazy path promises: validation
/// allocates one buffer of at most this size regardless of dataset size.
/// Deliberately much smaller than any interesting dataset (the boot-memory
/// regression test asserts no allocation beyond it).
pub const STREAM_CHUNK_BYTES: usize = 64 * 1024;

/// A fully validated dataset snapshot that was **not** materialized: shape,
/// content fingerprint, and the byte region of its values, obtained by
/// [`open_dataset_streaming`].
///
/// Everything a disk-capable loader needs is here — dims/count checks use
/// [`DatasetHandle::series_len`]/[`DatasetHandle::len`], fingerprint checks
/// use [`DatasetHandle::fingerprint`], and the snapshot doubles as a
/// store's backing file via [`DatasetHandle::flat_span`] exactly as
/// [`crate::dataset::dataset_flat_region`] would report.
#[derive(Debug, Clone)]
pub struct DatasetHandle {
    path: PathBuf,
    series_len: usize,
    len: usize,
    fingerprint: u64,
    payload_offset: u64,
}

impl DatasetHandle {
    /// The snapshot file this handle validated.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Length of each series.
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the snapshot holds no series.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The content fingerprint recorded in (and verified against) the file
    /// — identical to [`fingerprint_dataset`] of the materialized dataset.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The byte region of the values inside the snapshot — the span that
    /// lets the snapshot back a [`hydra_storage::SeriesStore`] directly.
    pub fn flat_span(&self) -> FlatSpan {
        FlatSpan {
            payload_offset: self.payload_offset,
            records: self.len,
            series_len: self.series_len,
        }
    }
}

fn read_exactly(file: &mut std::fs::File, buf: &mut [u8]) -> Result<()> {
    file.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            PersistError::Truncated
        } else {
            PersistError::from(e)
        }
    })
}

/// Opens and validates the dataset snapshot at `path` in one streaming
/// pass, never materializing a [`Dataset`]: the container header, the
/// section checksum, the recorded shape, and the end-to-end content
/// fingerprint are all verified in chunks of at most
/// [`STREAM_CHUNK_BYTES`], so peak memory is O(1) in the dataset size.
///
/// The validation is exactly as strict as [`crate::dataset::load_dataset`] — every
/// failure maps to the same typed [`PersistError`] a materializing load
/// would report (see the error table in the crate docs), so the lazy boot
/// path can never accept a snapshot the eager path would refuse.
///
/// # Errors
/// [`PersistError::BadMagic`] / [`PersistError::VersionMismatch`] /
/// [`PersistError::KindMismatch`] for a foreign file,
/// [`PersistError::Truncated`] if the file ends before its headers
/// promise, [`PersistError::ChecksumMismatch`] for damaged payload bytes,
/// [`PersistError::Corrupt`] for an impossible shape or trailing garbage,
/// and [`PersistError::FingerprintMismatch`] if the values do not hash to
/// the recorded content fingerprint.
pub fn open_dataset_streaming(path: &Path) -> Result<DatasetHandle> {
    let mut file = std::fs::File::open(path)?;
    let mut pos: u64 = 0;

    // Container header: magic, version, fingerprint, kind, section count.
    let mut head = [0u8; 22];
    read_exactly(&mut file, &mut head)?;
    pos += head.len() as u64;
    if head[..8] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = u32::from_le_bytes(head[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(PersistError::VersionMismatch {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let header_fingerprint = u64::from_le_bytes(head[12..20].try_into().unwrap());
    let kind_len = u16::from_le_bytes(head[20..22].try_into().unwrap()) as usize;
    let mut kind = vec![0u8; kind_len];
    read_exactly(&mut file, &mut kind)?;
    pos += kind_len as u64;
    let kind = String::from_utf8(kind)
        .map_err(|_| PersistError::Corrupt("invalid UTF-8 kind tag".into()))?;
    if kind != DATASET_KIND {
        return Err(PersistError::KindMismatch {
            expected: DATASET_KIND.to_string(),
            found: kind,
        });
    }
    let mut count = [0u8; 4];
    read_exactly(&mut file, &mut count)?;
    pos += 4;
    let sections = u32::from_le_bytes(count) as usize;
    if sections == 0 {
        // A dataset snapshot always holds its one payload section.
        return Err(PersistError::Truncated);
    }

    // Section 0: length + checksum, then the payload streamed in chunks.
    // The first 24 payload bytes are the shape (series_len, n, value
    // count); everything after them is values, folded simultaneously into
    // the section checksum and the content fingerprint.
    let mut sec_head = [0u8; 16];
    read_exactly(&mut file, &mut sec_head)?;
    pos += 16;
    let sec_len = u64::from_le_bytes(sec_head[0..8].try_into().unwrap());
    let checksum = u64::from_le_bytes(sec_head[8..16].try_into().unwrap());
    if sec_len < 24 {
        return Err(PersistError::Truncated);
    }
    let mut shape = [0u8; 24];
    read_exactly(&mut file, &mut shape)?;
    pos += 24;
    let as_usize = |bytes: &[u8]| -> Result<usize> {
        let v = u64::from_le_bytes(bytes.try_into().unwrap());
        usize::try_from(v).map_err(|_| PersistError::Corrupt(format!("usize overflow: {v}")))
    };
    let series_len = as_usize(&shape[0..8])?;
    let n = as_usize(&shape[8..16])?;
    let values = as_usize(&shape[16..24])?;
    if series_len == 0 || values != n.checked_mul(series_len).ok_or_else(|| {
        PersistError::Corrupt(format!("dataset shape overflows: {n} × {series_len}"))
    })? {
        return Err(PersistError::Corrupt(format!(
            "dataset shape mismatch: {n} series of length {series_len} with {values} values"
        )));
    }
    let payload_offset = pos;
    let value_bytes = (values as u64) * 4;
    if sec_len - 24 < value_bytes {
        // The count prefix promises more values than the section holds.
        return Err(PersistError::Truncated);
    }

    let mut state = fnv1a64_continue(FNV_OFFSET_BASIS, &shape);
    let mut content = Fingerprint::new();
    content.push_usize(series_len);
    content.push_usize(n);
    let mut remaining_values = value_bytes;
    let mut remaining_section = sec_len - 24;
    let mut buf = vec![0u8; STREAM_CHUNK_BYTES.min((remaining_section as usize).max(4))];
    while remaining_section > 0 {
        let take = (buf.len() as u64).min(remaining_section) as usize;
        read_exactly(&mut file, &mut buf[..take])?;
        state = fnv1a64_continue(state, &buf[..take]);
        let value_take = (remaining_values.min(take as u64)) as usize;
        for chunk in buf[..value_take].chunks_exact(4) {
            content.push_f32(f32::from_bits(u32::from_le_bytes(chunk.try_into().unwrap())));
        }
        remaining_values -= value_take as u64;
        remaining_section -= take as u64;
    }
    if state != checksum {
        return Err(PersistError::ChecksumMismatch { section: 0 });
    }

    // Remaining sections (a dataset snapshot has none, but the container
    // allows them): checksum-validate each in the same bounded chunks.
    for section in 1..sections {
        let mut sec_head = [0u8; 16];
        read_exactly(&mut file, &mut sec_head)?;
        let sec_len = u64::from_le_bytes(sec_head[0..8].try_into().unwrap());
        let checksum = u64::from_le_bytes(sec_head[8..16].try_into().unwrap());
        let mut state = FNV_OFFSET_BASIS;
        let mut remaining = sec_len;
        while remaining > 0 {
            let take = (buf.len() as u64).min(remaining) as usize;
            read_exactly(&mut file, &mut buf[..take])?;
            state = fnv1a64_continue(state, &buf[..take]);
            remaining -= take as u64;
        }
        if state != checksum {
            return Err(PersistError::ChecksumMismatch { section });
        }
    }
    if file.read(&mut [0u8; 1])? != 0 {
        return Err(PersistError::Corrupt(
            "trailing bytes after the last section".into(),
        ));
    }

    let computed = content.finish();
    if computed != header_fingerprint {
        return Err(PersistError::FingerprintMismatch {
            expected: computed,
            found: header_fingerprint,
        });
    }
    Ok(DatasetHandle {
        path: path.to_path_buf(),
        series_len,
        len: n,
        fingerprint: header_fingerprint,
        payload_offset,
    })
}

/// A dataset, either materialized in RAM or validated-on-disk behind a
/// [`DatasetHandle`] — the common currency of the loading path.
///
/// Loaders consume this instead of `&Dataset` and stay agnostic to where
/// the values live: shape and fingerprint come for free from either
/// variant; only a loader that genuinely needs every value pays for
/// [`DataSource::materialized`] (and thereby opts out of lazy boot).
#[derive(Debug, Clone, Copy)]
pub enum DataSource<'a> {
    /// A dataset held in RAM — the historical (and build-time) path.
    InMemory(&'a Dataset),
    /// A dataset validated on disk by [`open_dataset_streaming`].
    Streamed(&'a DatasetHandle),
}

impl<'a> From<&'a Dataset> for DataSource<'a> {
    fn from(dataset: &'a Dataset) -> Self {
        DataSource::InMemory(dataset)
    }
}

impl<'a> DataSource<'a> {
    /// Length of each series.
    pub fn series_len(&self) -> usize {
        match self {
            DataSource::InMemory(d) => d.series_len(),
            DataSource::Streamed(h) => h.series_len(),
        }
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        match self {
            DataSource::InMemory(d) => d.len(),
            DataSource::Streamed(h) => h.len(),
        }
    }

    /// Whether the source holds no series.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The content fingerprint ([`fingerprint_dataset`]) of the source.
    pub fn fingerprint(&self) -> u64 {
        match self {
            DataSource::InMemory(d) => fingerprint_dataset(d),
            DataSource::Streamed(h) => h.fingerprint(),
        }
    }

    /// The dataset snapshot backing a streamed source, if any — the file a
    /// dataset-order store attaches directly ([`StoreBacking::FileBacked`]
    /// with `dataset_snapshot`).
    ///
    /// [`StoreBacking::FileBacked`]: crate::StoreBacking::FileBacked
    pub fn snapshot_path(&self) -> Option<&'a Path> {
        match self {
            DataSource::InMemory(_) => None,
            DataSource::Streamed(h) => Some(h.path()),
        }
    }

    /// The full dataset — borrowed when already in RAM, loaded (and
    /// re-validated) from the snapshot otherwise. Calling this on a
    /// streamed source materializes dataset-sized memory: it is the one
    /// escape hatch for loaders that genuinely need every value, and the
    /// thing every disk-capable loader avoids.
    pub fn materialized(&self) -> Result<MaterializedDataset<'a>> {
        match self {
            DataSource::InMemory(d) => Ok(MaterializedDataset::Borrowed(d)),
            DataSource::Streamed(h) => Ok(MaterializedDataset::Owned(load_dataset(h.path())?)),
        }
    }

    /// A per-series reader over the source (RAM slices or snapshot
    /// `pread`s), for sidecar rebuilds that must stay O(1) in memory.
    pub(crate) fn series_fetch(&self) -> Result<SeriesFetch<'a>> {
        match self {
            DataSource::InMemory(d) => Ok(SeriesFetch::Mem(d)),
            DataSource::Streamed(h) => Ok(SeriesFetch::File {
                file: std::fs::File::open(h.path())?,
                series_len: h.series_len(),
                len: h.len(),
                payload_offset: h.payload_offset,
            }),
        }
    }
}

/// The result of [`DataSource::materialized`]: a dataset that is either
/// borrowed from the caller or was just loaded from disk. Dereferences to
/// [`Dataset`].
#[derive(Debug)]
pub enum MaterializedDataset<'a> {
    /// Borrowed from an in-memory source.
    Borrowed(&'a Dataset),
    /// Loaded from a streamed source's snapshot.
    Owned(Dataset),
}

impl std::ops::Deref for MaterializedDataset<'_> {
    type Target = Dataset;

    fn deref(&self) -> &Dataset {
        match self {
            MaterializedDataset::Borrowed(d) => d,
            MaterializedDataset::Owned(d) => d,
        }
    }
}

/// Reads individual series from a [`DataSource`] — RAM slices for an
/// in-memory dataset, positional reads against the validated snapshot for
/// a streamed one.
pub(crate) enum SeriesFetch<'a> {
    Mem(&'a Dataset),
    File {
        file: std::fs::File,
        series_len: usize,
        len: usize,
        payload_offset: u64,
    },
}

impl SeriesFetch<'_> {
    /// Copies series `record` into `out`.
    ///
    /// # Panics
    /// Panics if `record` is out of bounds — callers validate order
    /// vectors against [`DataSource::len`] first, exactly as the
    /// dataset-based path panics on `Dataset::series`.
    pub(crate) fn get(&self, record: usize, out: &mut Vec<f32>) -> Result<()> {
        out.clear();
        match self {
            SeriesFetch::Mem(d) => {
                out.extend_from_slice(d.series(record));
            }
            SeriesFetch::File {
                file,
                series_len,
                len,
                payload_offset,
            } => {
                use std::os::unix::fs::FileExt;
                assert!(record < *len, "record {record} out of bounds");
                let mut buf = vec![0u8; series_len * 4];
                file.read_exact_at(
                    &mut buf,
                    payload_offset + (record * series_len * 4) as u64,
                )?;
                out.extend(
                    buf.chunks_exact(4)
                        .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap()))),
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{dataset_flat_region, save_dataset};
    use crate::snapshot::{Section, SnapshotWriter};

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hydra-stream-{}-{name}", std::process::id()))
    }

    fn sample_dataset() -> Dataset {
        let mut d = Dataset::new(8).unwrap();
        for i in 0..40 {
            let s: Vec<f32> = (0..8).map(|j| (i * 8 + j) as f32 * 0.5 - 3.0).collect();
            d.push(&s).unwrap();
        }
        d
    }

    #[test]
    fn streamed_open_agrees_with_the_materializing_load() {
        let d = sample_dataset();
        let path = temp_path("agree.data.snap");
        save_dataset(&d, &path).unwrap();
        let h = open_dataset_streaming(&path).unwrap();
        assert_eq!(h.series_len(), d.series_len());
        assert_eq!(h.len(), d.len());
        assert_eq!(h.fingerprint(), fingerprint_dataset(&d));
        // The handle's span is exactly what dataset_flat_region computes.
        assert_eq!(h.flat_span(), dataset_flat_region(&path, &d).unwrap());
        // Per-series preads through the handle are bit-exact.
        let src = DataSource::Streamed(&h);
        let fetch = src.series_fetch().unwrap();
        let mut out = Vec::new();
        for r in [0usize, 7, 39] {
            fetch.get(r, &mut out).unwrap();
            assert_eq!(out, d.series(r), "record {r}");
        }
        // Materializing through the source round-trips.
        assert_eq!(&*src.materialized().unwrap(), &d);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_snapshot_is_typed_truncated() {
        let d = sample_dataset();
        let path = temp_path("trunc.data.snap");
        save_dataset(&d, &path).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        // Cut mid-payload, mid-header, and mid-section-header.
        for cut in [pristine.len() - 10, 30, 3, 25] {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            assert!(
                matches!(open_dataset_streaming(&path), Err(PersistError::Truncated)),
                "cut at {cut} must be Truncated"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_payload_byte_is_typed_checksum_mismatch() {
        let d = sample_dataset();
        let path = temp_path("flip.data.snap");
        save_dataset(&d, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            open_dataset_streaming(&path),
            Err(PersistError::ChecksumMismatch { section: 0 })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_fingerprint_mismatch_is_typed() {
        let d = sample_dataset();
        let path = temp_path("fpr.data.snap");
        save_dataset(&d, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // The header fingerprint lives at 12..20 and is not covered by the
        // section checksum — flip it and only the end-to-end content check
        // can notice.
        bytes[12] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            open_dataset_streaming(&path),
            Err(PersistError::FingerprintMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shape_and_length_mismatches_are_typed() {
        let path = temp_path("shape.data.snap");
        // A checksum-valid section that promises more values than it holds.
        let mut w = SnapshotWriter::new(DATASET_KIND, 0);
        let mut s = Section::new();
        s.put_usize(3); // series_len
        s.put_usize(5); // n
        s.put_f32s(&[1.0; 15]); // count prefix says 15...
        let mut bytes = {
            w.push(s);
            w.to_bytes()
        };
        bytes.truncate(bytes.len() - 8); // ...but drop the last two values
        // Fix up the section length so only the *value count* disagrees.
        let header = 8 + 4 + 8 + 2 + DATASET_KIND.len() + 4;
        let sec_len = u64::from_le_bytes(bytes[header..header + 8].try_into().unwrap()) - 8;
        bytes[header..header + 8].copy_from_slice(&sec_len.to_le_bytes());
        let payload = &bytes[header + 16..];
        let fixed = crate::snapshot::fnv1a64(payload);
        bytes[header + 8..header + 16].copy_from_slice(&fixed.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            open_dataset_streaming(&path),
            Err(PersistError::Truncated)
        ));

        // A shape whose value count disagrees with n × series_len.
        let mut w = SnapshotWriter::new(DATASET_KIND, 0);
        let mut s = Section::new();
        s.put_usize(3);
        s.put_usize(5); // promises 15 values...
        s.put_f32s(&[1.0; 6]); // ...stores 6
        w.push(s);
        w.write_to(&path).unwrap();
        assert!(matches!(
            open_dataset_streaming(&path),
            Err(PersistError::Corrupt(_))
        ));

        // A zero series length is impossible.
        let mut w = SnapshotWriter::new(DATASET_KIND, 0);
        let mut s = Section::new();
        s.put_usize(0);
        s.put_usize(0);
        s.put_f32s(&[]);
        w.push(s);
        w.write_to(&path).unwrap();
        assert!(matches!(
            open_dataset_streaming(&path),
            Err(PersistError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_files_are_typed() {
        let d = sample_dataset();
        let path = temp_path("foreign.data.snap");
        save_dataset(&d, &path).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        let mut bad_magic = pristine.clone();
        bad_magic[0] = b'X';
        std::fs::write(&path, &bad_magic).unwrap();
        assert!(matches!(
            open_dataset_streaming(&path),
            Err(PersistError::BadMagic)
        ));

        let mut future = pristine.clone();
        future[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &future).unwrap();
        assert!(matches!(
            open_dataset_streaming(&path),
            Err(PersistError::VersionMismatch { .. })
        ));

        SnapshotWriter::new("dstree", 0).write_to(&path).unwrap();
        assert!(matches!(
            open_dataset_streaming(&path),
            Err(PersistError::KindMismatch { .. })
        ));

        let mut trailing = pristine;
        trailing.extend_from_slice(b"junk");
        std::fs::write(&path, &trailing).unwrap();
        assert!(matches!(
            open_dataset_streaming(&path),
            Err(PersistError::Corrupt(_))
        ));

        assert!(matches!(
            open_dataset_streaming(Path::new("/nonexistent/x.data.snap")),
            Err(PersistError::Io(_))
        ));
        std::fs::remove_file(&path).ok();
    }
}
