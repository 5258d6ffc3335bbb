//! Where a store's raw values live: an optional span of a backing file,
//! then resident values — the whole payload of a resident store, the tail
//! streaming ingest appends to a file-backed one.
//!
//! [`Backing`] knows nothing of pages being cached or accesses being
//! charged — it answers "how many values", "append these", "copy this
//! series out" and "read these records", and [`crate::store`] writes the
//! pool/accounting protocol once on top.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use hydra_core::{Error, Result};

use crate::mmap::MmapRegion;
use crate::store::{FileIoMode, FileSpan};

#[derive(Debug)]
pub(crate) struct FileBacked {
    file: std::fs::File,
    path: PathBuf,
    span: FileSpan,
    /// Under [`FileIoMode::Mmap`], the validated head of the file
    /// (`0..span.offset + payload`) mapped read-only; misses copy frames
    /// from here instead of issuing a `pread`. `None` under
    /// [`FileIoMode::Pread`] or for an empty span.
    map: Option<MmapRegion>,
}

/// The bytes of `values`, writable in place: a file read lands directly in
/// its final `[f32]` with no staging buffer and no per-value conversion.
/// Little-endian targets only — there, and only there, the on-disk payload
/// (little-endian IEEE-754 bit patterns) *is* the in-memory representation;
/// every other target decodes through `decode_le_f32s`.
#[cfg(target_endian = "little")]
#[allow(unsafe_code)]
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
pub(crate) fn decode_le_f32s(bytes: &[u8], out: &mut [f32]) {
    for (value, chunk) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *value = f32::from_bits(u32::from_le_bytes(chunk.try_into().unwrap()));
    }
}

impl FileBacked {
    /// Opens `path` read-only and validates `span` against its real
    /// length; under [`FileIoMode::Mmap`] the validated head is mapped.
    pub(crate) fn open(
        path: &Path,
        span: FileSpan,
        series_len: usize,
        io: FileIoMode,
    ) -> Result<Self> {
        let file = std::fs::File::open(path)
            .map_err(|e| Error::Storage(format!("cannot open {}: {e}", path.display())))?;
        let needed = (span.records as u64)
            .checked_mul((series_len * std::mem::size_of::<f32>()) as u64)
            .and_then(|payload| span.offset.checked_add(payload))
            .ok_or_else(|| Error::Storage("file span overflows".into()))?;
        let actual = file
            .metadata()
            .map_err(|e| Error::Storage(format!("cannot stat {}: {e}", path.display())))?
            .len();
        if actual < needed {
            return Err(Error::Storage(format!(
                "{} holds {actual} bytes but the span needs {needed}",
                path.display()
            )));
        }
        // Only after the span has been validated against the real file
        // length is the mapping created — a short file fails above with a
        // typed error, so dereferencing `0..needed` can never SIGBUS.
        let map = (io == FileIoMode::Mmap && needed > 0)
            .then(|| MmapRegion::map(&file, needed as usize, path))
            .transpose()?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            span,
            map,
        })
    }

    /// The backing file's path, for diagnostics.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Fills `out` with the span's f32 payload starting at record `first`
    /// (the byte offset is not f32-aligned: span offsets are byte-granular).
    /// On little-endian targets the bytes are read straight into `out`'s
    /// own storage.
    fn read_f32s(&self, out: &mut [f32], first: usize, series_len: usize) {
        let offset = self.span.offset + (first * series_len * std::mem::size_of::<f32>()) as u64;
        #[cfg(target_endian = "little")]
        self.read_payload(f32_bytes_mut(out), offset);
        #[cfg(not(target_endian = "little"))]
        {
            let mut buf = vec![0u8; std::mem::size_of_val(out)];
            self.read_payload(&mut buf, offset);
            decode_le_f32s(&buf, out);
        }
    }

    /// Copies the `len` payload bytes at file offset `offset` into `buf` —
    /// through the mapping when one exists, via `pread` otherwise. The one
    /// place the two I/O modes differ.
    fn read_payload(&self, buf: &mut [u8], offset: u64) {
        match &self.map {
            Some(map) => {
                let lo = offset as usize;
                buf.copy_from_slice(&map.bytes()[lo..lo + buf.len()]);
            }
            None => {
                use std::os::unix::fs::FileExt;
                self.file.read_exact_at(buf, offset).unwrap_or_else(|e| {
                    panic!(
                        "file-backed series store: reading {} bytes at offset {offset} of {} failed: {e}",
                        buf.len(),
                        self.path.display()
                    )
                });
            }
        }
    }
}

/// The raw values of a store: records `0..span.records` in the backing
/// file, if there is one, and the rest resident, flat in record order. The
/// file stays immutable; a file-backed store grows only its resident
/// values, and a frame freely straddles the file/resident boundary.
#[derive(Debug)]
pub(crate) struct Backing {
    file: Option<FileBacked>,
    values: Vec<f32>,
}

impl Backing {
    /// A backing over `file`'s span (paged I/O is real) or none (simulated),
    /// followed by the resident `values`.
    pub(crate) fn new(file: Option<FileBacked>, values: Vec<f32>) -> Self {
        Self { file, values }
    }

    /// Number of series in the file span (zero without a file).
    pub(crate) fn span_records(&self) -> usize {
        self.file.as_ref().map_or(0, |file| file.span.records)
    }

    /// Number of series held.
    pub(crate) fn len(&self, series_len: usize) -> usize {
        self.span_records() + self.values.len() / series_len
    }

    /// Number of values the resident part holds room for.
    pub(crate) fn capacity(&self) -> usize {
        self.values.capacity()
    }

    /// Appends one series to the resident values.
    pub(crate) fn append(&mut self, series: &[f32]) {
        self.values.extend_from_slice(series);
    }

    /// The flat payload when every value is resident, or the backing file
    /// — the one question the store asks before it serves a page, because
    /// a resident page is a zero-copy borrow with nothing to load.
    pub(crate) fn resident(&self) -> std::result::Result<&[f32], &FileBacked> {
        self.file.as_ref().map_or(Ok(&self.values), Err)
    }

    /// Reads records `first..first + count` into one freshly allocated
    /// frame: file bytes for records inside the span, resident values for
    /// the rest.
    ///
    /// # Panics
    /// Panics if a file read fails: the span was validated when the store
    /// was attached, so a failure here is a genuine I/O fault (or the file
    /// was mutated behind the store's back), not a recoverable query error.
    pub(crate) fn load_records(&self, first: usize, count: usize, series_len: usize) -> Arc<[f32]> {
        let span = self.span_records();
        let from_file = span.saturating_sub(first).min(count);
        // The frame is allocated once, at its final address, and filled in
        // place: the pool hands out this very allocation on every later hit.
        let mut frame: Arc<[f32]> = std::iter::repeat_n(0.0, count * series_len).collect();
        let values = Arc::get_mut(&mut frame).expect("a fresh frame has one owner");
        let (file_values, resident_values) = values.split_at_mut(from_file * series_len);
        if let Some(file) = self.file.as_ref().filter(|_| from_file > 0) {
            file.read_f32s(file_values, first, series_len);
        }
        if from_file < count {
            let lo = (first + from_file - span) * series_len;
            resident_values.copy_from_slice(&self.values[lo..lo + resident_values.len()]);
        }
        frame
    }

    /// Copies series `record` into `out` without any accounting.
    ///
    /// # Panics
    /// Panics on a genuine disk fault (see [`Backing::load_records`]).
    pub(crate) fn copy_series(&self, record: usize, series_len: usize, out: &mut Vec<f32>) {
        out.clear();
        let span = self.span_records();
        if let Some(file) = self.file.as_ref().filter(|_| record < span) {
            out.resize(series_len, 0.0);
            file.read_f32s(out, record, series_len);
        } else {
            let lo = (record - span) * series_len;
            out.extend_from_slice(&self.values[lo..lo + series_len]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Written so `cargo miri test -p hydra-storage byte_view` accepts it:
    /// no file, no mapping, only the helper and the frame allocation the
    /// miss path pairs it with.
    #[cfg(target_endian = "little")]
    #[test]
    fn byte_view_writes_land_in_the_f32s_bit_for_bit() {
        let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
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
}
