//! The one streaming reader of a dataset snapshot and of the sidecars.
//!
//! A `.data.snap`, a `.series` sidecar (a dataset snapshot of a store's
//! series in store order) and a coded `.u8`/`.f16` sidecar are each one
//! container section, read by a single streaming pass (`ContainerScan`)
//! that validates the *entire* container — magic, version, kind, section
//! checksum and shape — in chunks of at most [`STREAM_CHUNK_BYTES`], and
//! learns the byte offset of the payload as a by-product of parsing. A
//! dataset's pass (`scan_dataset`) also checks the end-to-end content
//! fingerprint. What differs between its callers is only where the values
//! go:
//!
//! * [`open_dataset_streaming`] keeps none of them and returns a
//!   [`DatasetHandle`] holding the header facts (shape, fingerprint,
//!   payload offset). Loaders that need raw series read them from the
//!   snapshot by offset; nothing dataset-sized is ever allocated, which is
//!   what lets an out-of-core boot start in O(pool) memory.
//! * [`crate::dataset::load_dataset`] collects them into the one buffer an
//!   in-RAM [`Dataset`] owns — peak memory is the payload plus a chunk.
//! * [`crate::dataset::dataset_flat_region`] asks only for the span.
//!
//! [`DataSource`] is the common currency: "a dataset, either in RAM or
//! validated-on-disk". Loaders take a `DataSource` and stay agnostic;
//! only the few that genuinely need every value call
//! [`DataSource::materialized`].

use std::borrow::Cow;
use std::io::{Read, Seek};
use std::path::{Path, PathBuf};

use hydra_core::Dataset;

use crate::dataset::{load_dataset, FlatSpan, DATASET_KIND};
use crate::error::{PersistError, Result};
use crate::fingerprint::{fingerprint_dataset, Fingerprint};
use crate::snapshot::{
    f32s_from_le, fnv1a64_continue, read_array, read_exactly, read_header, read_section_head,
    SectionReader, FNV_OFFSET_BASIS,
};

/// Upper bound on any single read issued while streaming a snapshot.
///
/// This is the memory ceiling of reading a dataset snapshot: validation
/// allocates one buffer of this size regardless of dataset size.
/// Deliberately much smaller than any interesting dataset (the boot-memory
/// regression tests assert no allocation beyond it).
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
    fingerprint: u64,
    span: FlatSpan,
}

impl DatasetHandle {
    /// The snapshot file this handle validated.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Length of each series.
    pub fn series_len(&self) -> usize {
        self.span.series_len
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.span.records
    }

    /// Whether the snapshot holds no series.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The content fingerprint recorded in (and verified against) the file
    /// — identical to [`fingerprint_dataset`] of the materialized dataset.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The byte region of the values inside the snapshot — the span that
    /// lets the snapshot back a [`hydra_storage::SeriesStore`] directly.
    pub fn flat_span(&self) -> FlatSpan {
        self.span
    }
}

/// Opens and validates the dataset snapshot at `path` in one streaming
/// pass, never materializing a [`Dataset`]: the container header, the
/// section checksum, the recorded shape, and the end-to-end content
/// fingerprint are all verified in chunks of at most
/// [`STREAM_CHUNK_BYTES`], so peak memory is O(1) in the dataset size.
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
    scan_dataset(path, None)
}

/// One pass over a one-section container — the reader of everything the
/// streamed writer of [`crate::snapshot`] writes: a dataset snapshot, a
/// `.series` sidecar (itself a dataset snapshot) and a coded sidecar.
/// [`ContainerScan::open`] validates the header and the kind and reads the
/// section's three-`u64` shape; the rest is read in chunks of at most
/// [`STREAM_CHUNK_BYTES`] and folded into the section checksum, which
/// [`ContainerScan::finish`] checks along with the end of the file.
pub(crate) struct ContainerScan {
    file: std::fs::File,
    buf: Vec<u8>,
    /// The header's fingerprint.
    pub(crate) fingerprint: u64,
    /// The first three `u64`s of the section.
    pub(crate) shape: [usize; 3],
    /// The byte offset of the payload after the shape.
    pub(crate) payload_offset: u64,
    /// Payload bytes after the shape not read yet.
    pub(crate) rest: u64,
    checksum: u64,
    state: u64,
}

impl ContainerScan {
    /// Opens the container at `path`, which must be of `kind`, and reads up
    /// to the end of the shape. Every length the file claims is bounded by
    /// the file's size before anything is sized by it.
    pub(crate) fn open(path: &Path, kind: &str) -> Result<Self> {
        let mut file = std::fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        let header = read_header(&mut file)?;
        if header.kind != kind {
            return Err(PersistError::KindMismatch {
                expected: kind.to_string(),
                found: header.kind,
            });
        }
        match header.sections {
            0 => return Err(PersistError::Truncated),
            1 => {}
            n => return Err(PersistError::Corrupt(format!("{n} sections, expected 1"))),
        }
        let (section_len, checksum) = read_section_head(&mut file)?;
        let shape_bytes = read_array::<24>(&mut file)?;
        let payload_offset = file.stream_position()?;
        let rest = section_len.checked_sub(24).ok_or(PersistError::Truncated)?;
        if rest > file_len.saturating_sub(payload_offset) {
            return Err(PersistError::Truncated);
        }
        let mut fields = SectionReader::new(&shape_bytes);
        let shape = [fields.get_usize()?, fields.get_usize()?, fields.get_usize()?];
        Ok(Self {
            file,
            buf: vec![0u8; STREAM_CHUNK_BYTES],
            fingerprint: header.fingerprint,
            shape,
            payload_offset,
            rest,
            checksum,
            state: fnv1a64_continue(FNV_OFFSET_BASIS, &shape_bytes),
        })
    }

    /// Feeds the next `len` payload bytes to `visit`, in chunks of at most
    /// [`STREAM_CHUNK_BYTES`].
    ///
    /// # Errors
    /// [`PersistError::Truncated`] if the section holds fewer.
    pub(crate) fn stream(&mut self, len: u64, mut visit: impl FnMut(&[u8])) -> Result<()> {
        self.rest = self.rest.checked_sub(len).ok_or(PersistError::Truncated)?;
        let mut left = len;
        while left > 0 {
            let chunk = &mut self.buf[..(STREAM_CHUNK_BYTES as u64).min(left) as usize];
            read_exactly(&mut self.file, chunk)?;
            self.state = fnv1a64_continue(self.state, chunk);
            visit(chunk);
            left -= chunk.len() as u64;
        }
        Ok(())
    }

    /// Reads the rest of the section, checks its checksum and refuses
    /// trailing bytes.
    pub(crate) fn finish(&mut self) -> Result<()> {
        self.stream(self.rest, |_| {})?;
        if self.state != self.checksum {
            return Err(PersistError::ChecksumMismatch { section: 0 });
        }
        if self.file.read(&mut [0u8; 1])? != 0 {
            return Err(PersistError::Corrupt(
                "trailing bytes after the section".into(),
            ));
        }
        Ok(())
    }
}

/// The single reader of a dataset snapshot (see the module docs): one
/// [`ContainerScan`] of the file at `path`, validating everything
/// [`open_dataset_streaming`] documents, with the values appended to
/// `values` when the caller wants them. The shape is (series length,
/// series count, value count); the values after it are folded into the
/// section checksum and the content fingerprint at once.
pub(crate) fn scan_dataset(path: &Path, mut values: Option<&mut Vec<f32>>) -> Result<DatasetHandle> {
    let mut scan = ContainerScan::open(path, DATASET_KIND)?;
    let [series_len, n, count] = scan.shape;
    if series_len == 0 || n.checked_mul(series_len) != Some(count) {
        return Err(PersistError::Corrupt(format!(
            "dataset shape mismatch: {n} series of length {series_len} with {count} values"
        )));
    }
    // The values must fit the section before anything is sized by them.
    let value_bytes = (count as u64).checked_mul(4).ok_or(PersistError::Truncated)?;
    if value_bytes > scan.rest {
        return Err(PersistError::Truncated);
    }
    if let Some(values) = values.as_deref_mut() {
        values.reserve_exact(count);
    }

    let mut content = Fingerprint::new();
    content.push_usize(series_len);
    content.push_usize(n);
    scan.stream(value_bytes, |chunk| {
        for value in f32s_from_le(chunk) {
            content.push_f32(value);
        }
        if let Some(values) = values.as_deref_mut() {
            values.extend(f32s_from_le(chunk));
        }
    })?;
    scan.finish()?;

    let computed = content.finish();
    if computed != scan.fingerprint {
        return Err(PersistError::FingerprintMismatch {
            expected: computed,
            found: scan.fingerprint,
        });
    }
    Ok(DatasetHandle {
        path: path.to_path_buf(),
        fingerprint: scan.fingerprint,
        span: FlatSpan {
            payload_offset: scan.payload_offset,
            records: n,
            series_len,
        },
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

    /// The full dataset — borrowed when already in RAM, loaded (and
    /// re-validated) from the snapshot otherwise. Calling this on a
    /// streamed source materializes dataset-sized memory: it is the one
    /// escape hatch for loaders that genuinely need every value, and the
    /// thing every disk-capable loader avoids.
    pub fn materialized(&self) -> Result<Cow<'a, Dataset>> {
        match self {
            DataSource::InMemory(d) => Ok(Cow::Borrowed(d)),
            DataSource::Streamed(h) => Ok(Cow::Owned(load_dataset(h.path())?)),
        }
    }

    /// The number of records a file or store holding this source in `order`
    /// has (`order[pos]` = dataset position of record `pos`; `None` is
    /// dataset order) — the one place an order is checked against the
    /// source before anything indexes by it.
    ///
    /// # Errors
    /// [`PersistError::Corrupt`] if `order` names a series outside the
    /// source.
    pub(crate) fn records_in(&self, order: Option<&[usize]>) -> Result<usize> {
        let Some(order) = order else {
            return Ok(self.len());
        };
        match order.iter().find(|&&ds| ds >= self.len()) {
            Some(bad) => Err(PersistError::Corrupt(format!(
                "record order references series {bad} of a {}-series dataset",
                self.len()
            ))),
            None => Ok(order.len()),
        }
    }

    /// A per-series reader over the source (RAM slices or snapshot
    /// `pread`s), for sidecar rebuilds that must stay O(1) in memory.
    pub(crate) fn series_fetch(&self) -> Result<SeriesFetch<'a>> {
        match self {
            DataSource::InMemory(d) => Ok(SeriesFetch::Mem(d)),
            DataSource::Streamed(h) => Ok(SeriesFetch::File {
                file: std::fs::File::open(h.path())?,
                span: h.flat_span(),
                buf: vec![0u8; h.series_len() * 4],
            }),
        }
    }
}

/// Reads individual series from a [`DataSource`] — RAM slices for an
/// in-memory dataset, positional reads against the validated snapshot for
/// a streamed one, each into the one series-sized buffer the fetch owns.
pub(crate) enum SeriesFetch<'a> {
    Mem(&'a Dataset),
    File { file: std::fs::File, span: FlatSpan, buf: Vec<u8> },
}

impl SeriesFetch<'_> {
    /// Copies series `record` into `out`.
    ///
    /// # Panics
    /// Panics if `record` is out of bounds — callers validate order
    /// vectors with [`DataSource::records_in`] first, exactly as the
    /// dataset-based path panics on `Dataset::series`.
    pub(crate) fn get(&mut self, record: usize, out: &mut Vec<f32>) -> Result<()> {
        out.clear();
        match self {
            SeriesFetch::Mem(d) => {
                out.extend_from_slice(d.series(record));
            }
            SeriesFetch::File { file, span, buf } => {
                use std::os::unix::fs::FileExt;
                assert!(record < span.records, "record {record} out of bounds");
                let at = span.payload_offset + (record * buf.len()) as u64;
                file.read_exact_at(buf, at)?;
                out.extend(f32s_from_le(buf));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{dataset_flat_region, save_dataset};
    use crate::snapshot::{Section, SnapshotWriter, FORMAT_VERSION};

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
        let mut fetch = src.series_fetch().unwrap();
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
        s.put_usize(15); // the count prefix says 15...
        for _ in 0..13 {
            s.put_f32(1.0); // ...but only 13 values follow
        }
        w.push(s);
        w.write_to(&path).unwrap();
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
