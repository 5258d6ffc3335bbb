//! The snapshot container format.
//!
//! A snapshot file is a header followed by checksummed sections. All
//! primitives are little-endian; there are no external dependencies and no
//! pointers — every structure is length-prefixed, so a reader can validate
//! the whole file before interpreting a single payload byte.
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"HYDRSNAP"
//! 8       4     format version (u32, currently 2)
//! 12      8     build-parameter fingerprint (u64)
//! 20      2     kind length L (u16)
//! 22      L     kind tag (ASCII, e.g. "isax2+", "dstree", "ground-truth")
//! 22+L    4     section count S (u32)
//! --- repeated S times ---
//!         8     payload length P (u64)
//!         8     payload checksum (FNV-1a 64 over the payload bytes)
//!         P     payload
//! ```
//!
//! [`SnapshotReader::open`] validates magic, version, header shape and every
//! section checksum before returning, so all later [`SectionReader`]
//! accesses can only fail with [`PersistError::Truncated`] (asking for more
//! values than the section holds) or [`PersistError::Corrupt`] (impossible
//! decoded values).
//!
//! The header has one parser, `read_header`, behind [`peek_kind`],
//! [`peek_fingerprint`], [`SnapshotReader`] and the streamed dataset reader
//! ([`crate::stream`]) alike — the same damaged header is the same typed
//! error whichever of them meets it. Every little-endian decode of the
//! crate goes through [`SectionReader`].

use std::io::Read;
use std::ops::Range;
use std::path::Path;

use crate::error::{PersistError, Result};

/// Magic bytes identifying a Hydra snapshot file.
pub const MAGIC: [u8; 8] = *b"HYDRSNAP";

/// The single container-format version this build writes and reads.
///
/// Version history: 1 = the original container; 2 = identical byte
/// layout, but index snapshot fingerprints stopped hashing the storage
/// configuration (PR 5's out-of-core work — pool size and backing are
/// serving knobs, not build parameters). The bump exists so directories
/// saved under the old fingerprint scheme fail with a clear
/// [`PersistError::VersionMismatch`] ("re-save your snapshots") instead
/// of a misleading fingerprint mismatch blaming the configuration.
pub const FORMAT_VERSION: u32 = 2;

/// The FNV-1a 64-bit offset basis.
pub(crate) const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an in-progress FNV-1a 64 state (the single inner
/// loop shared by the one-shot [`fnv1a64`] and the incremental
/// [`crate::fingerprint::Fingerprint`], so the two can never drift apart).
pub(crate) fn fnv1a64_continue(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// FNV-1a 64-bit hash — the section checksum (and the primitive under
/// [`crate::fingerprint::Fingerprint`]). Dependency-free and deterministic
/// across platforms.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_continue(FNV_OFFSET_BASIS, bytes)
}

// ---------------------------------------------------------------------------
// Section building
// ---------------------------------------------------------------------------

/// An append-only byte buffer holding one section's payload.
///
/// All `put_*` methods write little-endian. Slice writers prefix a `u64`
/// element count, so the matching [`SectionReader`] getters need no
/// out-of-band length.
#[derive(Debug, Default, Clone)]
pub struct Section {
    buf: Vec<u8>,
}

impl Section {
    /// Creates an empty section.
    pub fn new() -> Self {
        Self::default()
    }

    /// The payload accumulated so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (snapshots are portable across word
    /// sizes).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f32` by bit pattern (exact round-trip, NaN-safe).
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends an `f64` by bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a string as a `u16` length followed by its UTF-8 bytes.
    ///
    /// # Panics
    /// Panics if the string is longer than `u16::MAX` bytes (kind tags and
    /// labels are short by construction).
    pub fn put_str(&mut self, s: &str) {
        assert!(s.len() <= u16::MAX as usize, "string too long for snapshot");
        self.put_u16(s.len() as u16);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a `u64`-count-prefixed slice of bytes.
    pub fn put_u8s(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a count-prefixed slice of `u16`s.
    pub fn put_u16s(&mut self, v: &[u16]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u16(x);
        }
    }

    /// Appends a count-prefixed slice of `u32`s.
    pub fn put_u32s(&mut self, v: &[u32]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u32(x);
        }
    }

    /// Appends a count-prefixed slice of `u64`s.
    pub fn put_u64s(&mut self, v: &[u64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u64(x);
        }
    }

    /// Appends a count-prefixed slice of `usize`s (as `u64`s).
    pub fn put_usizes(&mut self, v: &[usize]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u64(x as u64);
        }
    }

    /// Appends a count-prefixed slice of `f32`s (by bit pattern).
    pub fn put_f32s(&mut self, v: &[f32]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_f32(x);
        }
    }

    /// Appends a count-prefixed slice of `f64`s (by bit pattern).
    pub fn put_f64s(&mut self, v: &[f64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_f64(x);
        }
    }
}

// ---------------------------------------------------------------------------
// Section reading
// ---------------------------------------------------------------------------

/// A cursor over one (checksum-validated) section payload.
///
/// Getters mirror the [`Section`] putters one-to-one; reading past the end
/// of the section yields [`PersistError::Truncated`] rather than a panic.
#[derive(Debug)]
pub struct SectionReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SectionReader<'a> {
    /// Wraps a raw payload buffer.
    ///
    /// Inside this crate every `SectionReader` comes from
    /// [`SnapshotReader::next_section`] (already checksum-validated);
    /// outside it, this constructor lets other length-prefixed formats —
    /// e.g. the `hydra-serve` wire protocol — reuse the snapshot
    /// primitives and their never-panic decoding guarantees over bytes
    /// they framed themselves.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes, undecoded.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(PersistError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `usize` stored as `u64`, rejecting values that do not fit the
    /// host word size.
    pub fn get_usize(&mut self) -> Result<usize> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| PersistError::Corrupt(format!("usize overflow: {v}")))
    }

    /// Reads an `f32` by bit pattern.
    pub fn get_f32(&mut self) -> Result<f32> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads an `f64` by bit pattern.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool, rejecting any byte other than 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(PersistError::Corrupt(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads a `u16`-length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let len = self.get_u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PersistError::Corrupt("invalid UTF-8 string".into()))
    }

    /// Reads the count prefix of a slice, verifying that `count * elem_size`
    /// bytes actually remain (so a corrupt length cannot trigger a huge
    /// allocation).
    fn get_count(&mut self, elem_size: usize) -> Result<usize> {
        let count = self.get_usize()?;
        if count.checked_mul(elem_size).map(|b| b > self.remaining()).unwrap_or(true) {
            return Err(PersistError::Truncated);
        }
        Ok(count)
    }

    /// Reads a count-prefixed byte slice.
    pub fn get_u8s(&mut self) -> Result<Vec<u8>> {
        let n = self.get_count(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a count-prefixed slice of `u16`s.
    pub fn get_u16s(&mut self) -> Result<Vec<u16>> {
        let n = self.get_count(2)?;
        (0..n).map(|_| self.get_u16()).collect()
    }

    /// Reads a count-prefixed slice of `u32`s.
    pub fn get_u32s(&mut self) -> Result<Vec<u32>> {
        let n = self.get_count(4)?;
        (0..n).map(|_| self.get_u32()).collect()
    }

    /// Reads a count-prefixed slice of `u64`s.
    pub fn get_u64s(&mut self) -> Result<Vec<u64>> {
        let n = self.get_count(8)?;
        (0..n).map(|_| self.get_u64()).collect()
    }

    /// Reads a count-prefixed slice of `usize`s.
    pub fn get_usizes(&mut self) -> Result<Vec<usize>> {
        let n = self.get_count(8)?;
        (0..n).map(|_| self.get_usize()).collect()
    }

    /// Reads a count-prefixed slice of `f32`s.
    pub fn get_f32s(&mut self) -> Result<Vec<f32>> {
        let n = self.get_count(4)?;
        Ok(f32s_from_le(self.take(n * 4)?).collect())
    }

    /// Reads a count-prefixed slice of `f64`s.
    pub fn get_f64s(&mut self) -> Result<Vec<f64>> {
        let n = self.get_count(8)?;
        (0..n).map(|_| self.get_f64()).collect()
    }
}

/// Decodes a run of little-endian `f32` bit patterns — the payload encoding
/// shared by dataset snapshots, flat series files and journals. Trailing
/// bytes short of a whole value are ignored.
pub(crate) fn f32s_from_le(bytes: &[u8]) -> impl Iterator<Item = f32> + '_ {
    bytes.chunks_exact(4).map(|value| {
        f32::from_bits(u32::from_le_bytes(value.try_into().expect("chunks of 4")))
    })
}

// ---------------------------------------------------------------------------
// Whole-file writer
// ---------------------------------------------------------------------------

/// Builds a snapshot file: a kind tag, a build fingerprint, and a sequence
/// of checksummed sections.
#[derive(Debug)]
pub struct SnapshotWriter {
    kind: String,
    fingerprint: u64,
    sections: Vec<Section>,
}

impl SnapshotWriter {
    /// Creates a writer for a snapshot of the given kind and build
    /// fingerprint.
    pub fn new(kind: &str, fingerprint: u64) -> Self {
        Self {
            kind: kind.to_string(),
            fingerprint,
            sections: Vec::new(),
        }
    }

    /// Appends one finished section.
    pub fn push(&mut self, section: Section) {
        self.sections.push(section);
    }

    /// Number of sections queued so far.
    pub fn num_sections(&self) -> usize {
        self.sections.len()
    }

    /// Serializes the whole snapshot into a byte buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload: usize = self.sections.iter().map(|s| s.buf.len() + 16).sum();
        let mut out = Vec::with_capacity(22 + self.kind.len() + 4 + payload);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        assert!(self.kind.len() <= u16::MAX as usize, "kind tag too long");
        out.extend_from_slice(&(self.kind.len() as u16).to_le_bytes());
        out.extend_from_slice(self.kind.as_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for s in &self.sections {
            out.extend_from_slice(&(s.buf.len() as u64).to_le_bytes());
            out.extend_from_slice(&fnv1a64(&s.buf).to_le_bytes());
            out.extend_from_slice(&s.buf);
        }
        out
    }

    /// Writes the snapshot to `path`, creating parent directories as needed.
    pub fn write_to(&self, path: &Path) -> Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }
}

/// `read_exact` with a short read reported as [`PersistError::Truncated`].
pub(crate) fn read_exactly(r: &mut impl Read, buf: &mut [u8]) -> Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            PersistError::Truncated
        } else {
            PersistError::from(e)
        }
    })
}

/// Reads the next `N` bytes, for a [`SectionReader`] to decode.
pub(crate) fn read_array<const N: usize>(r: &mut impl Read) -> Result<[u8; N]> {
    let mut bytes = [0u8; N];
    read_exactly(r, &mut bytes)?;
    Ok(bytes)
}

/// A container header, up to and including the section count.
pub(crate) struct Header {
    pub(crate) fingerprint: u64,
    pub(crate) kind: String,
    pub(crate) sections: usize,
}

/// Reads and validates a container header — the one parser of the layout in
/// the module docs, and the only place [`MAGIC`] and [`FORMAT_VERSION`] are
/// compared. Leaves `r` at the first section.
pub(crate) fn read_header(r: &mut impl Read) -> Result<Header> {
    if read_array::<8>(r)? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let fixed = read_array::<14>(r)?;
    let mut fixed = SectionReader::new(&fixed);
    let version = fixed.get_u32()?;
    if version != FORMAT_VERSION {
        return Err(PersistError::VersionMismatch {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let fingerprint = fixed.get_u64()?;
    let mut kind = vec![0u8; fixed.get_u16()? as usize];
    read_exactly(r, &mut kind)?;
    let kind = String::from_utf8(kind)
        .map_err(|_| PersistError::Corrupt("invalid UTF-8 kind tag".into()))?;
    let sections = SectionReader::new(&read_array::<4>(r)?).get_u32()? as usize;
    Ok(Header {
        fingerprint,
        kind,
        sections,
    })
}

/// Reads one section's payload length and checksum, leaving `r` at the
/// payload.
pub(crate) fn read_section_head(r: &mut impl Read) -> Result<(u64, u64)> {
    let head = read_array::<16>(r)?;
    let mut head = SectionReader::new(&head);
    Ok((head.get_u64()?, head.get_u64()?))
}

/// Reads only the header of the snapshot at `path` — magic, format version,
/// fingerprint, kind tag and section count — and returns the kind, without
/// loading or checksum-validating any section.
///
/// This is the cheap dispatch primitive behind
/// [`crate::LoaderRegistry::load_any`]: a multi-gigabyte snapshot costs a
/// few dozen bytes of I/O to identify, and the dispatched loader then
/// performs the full validation exactly once. The header IS validated, by
/// the parser the full reader uses (wrong magic, future version, truncation
/// and a non-UTF-8 kind each fail typed); damage beyond the header is the
/// loader's to find.
pub fn peek_kind(path: &Path) -> Result<String> {
    Ok(read_header(&mut std::fs::File::open(path)?)?.kind)
}

/// Reads only the build-parameter fingerprint out of the snapshot header
/// at `path`, with the same cheap-but-validated contract as [`peek_kind`].
///
/// This is how a journal ([`crate::journal`]) is pinned to its base
/// snapshot: the journal header records this fingerprint, and replay
/// refuses a journal whose base was rebuilt or swapped underneath it.
pub fn peek_fingerprint(path: &Path) -> Result<u64> {
    Ok(read_header(&mut std::fs::File::open(path)?)?.fingerprint)
}

// ---------------------------------------------------------------------------
// Whole-file reader
// ---------------------------------------------------------------------------

/// Opens and fully validates a snapshot file, then hands out its sections in
/// order.
#[derive(Debug)]
pub struct SnapshotReader {
    kind: String,
    fingerprint: u64,
    /// The file image, held once.
    bytes: Vec<u8>,
    /// Where each section's payload lies in `bytes`, already
    /// checksum-validated.
    sections: Vec<Range<usize>>,
    next: usize,
}

impl SnapshotReader {
    /// Reads `path` and validates the container: magic, format version,
    /// header shape, and the checksum of every section.
    ///
    /// # Errors
    /// [`PersistError::Io`] if the file cannot be read,
    /// [`PersistError::BadMagic`] / [`PersistError::VersionMismatch`] /
    /// [`PersistError::Truncated`] / [`PersistError::Corrupt`] for a
    /// malformed container, and [`PersistError::ChecksumMismatch`] for a
    /// damaged section.
    pub fn open(path: &Path) -> Result<Self> {
        Self::from_bytes(std::fs::read(path)?)
    }

    /// Validates a snapshot already held in memory (see [`Self::open`]),
    /// keeping `bytes` as the one copy its sections are read from.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self> {
        let mut rest = &bytes[..];
        let header = read_header(&mut rest)?;
        let mut sections = Vec::with_capacity(header.sections.min(1024));
        for section in 0..header.sections {
            let (len, checksum) = read_section_head(&mut rest)?;
            let len = usize::try_from(len)
                .ok()
                .filter(|&len| len <= rest.len())
                .ok_or(PersistError::Truncated)?;
            let start = bytes.len() - rest.len();
            let (payload, after) = rest.split_at(len);
            if fnv1a64(payload) != checksum {
                return Err(PersistError::ChecksumMismatch { section });
            }
            sections.push(start..start + len);
            rest = after;
        }
        if !rest.is_empty() {
            return Err(PersistError::Corrupt(format!(
                "{} trailing bytes after the last section",
                rest.len()
            )));
        }
        Ok(Self {
            kind: header.kind,
            fingerprint: header.fingerprint,
            bytes,
            sections,
            next: 0,
        })
    }

    /// The kind tag recorded in the file.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// The build fingerprint recorded in the file.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of sections in the file.
    pub fn num_sections(&self) -> usize {
        self.sections.len()
    }

    /// Fails with [`PersistError::KindMismatch`] unless the file holds a
    /// snapshot of `expected` kind.
    pub fn expect_kind(&self, expected: &str) -> Result<()> {
        if self.kind != expected {
            return Err(PersistError::KindMismatch {
                expected: expected.to_string(),
                found: self.kind.clone(),
            });
        }
        Ok(())
    }

    /// Fails with [`PersistError::FingerprintMismatch`] unless the file was
    /// built with parameters hashing to `expected`.
    pub fn expect_fingerprint(&self, expected: u64) -> Result<()> {
        if self.fingerprint != expected {
            return Err(PersistError::FingerprintMismatch {
                expected,
                found: self.fingerprint,
            });
        }
        Ok(())
    }

    /// Returns a cursor over the next section, in file order.
    ///
    /// # Errors
    /// [`PersistError::Truncated`] if every section has been consumed (the
    /// file holds fewer sections than the reader expects).
    pub fn next_section(&mut self) -> Result<SectionReader<'_>> {
        let range = self.sections.get(self.next).ok_or(PersistError::Truncated)?;
        self.next += 1;
        Ok(SectionReader::new(&self.bytes[range.clone()]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hydra-persist-{}-{name}", std::process::id()))
    }

    fn sample_snapshot() -> SnapshotWriter {
        let mut w = SnapshotWriter::new("unit-test", 0xDEAD_BEEF);
        let mut s0 = Section::new();
        s0.put_u32(7);
        s0.put_str("hello");
        s0.put_f32s(&[1.0, -2.5, f32::INFINITY]);
        w.push(s0);
        let mut s1 = Section::new();
        s1.put_usizes(&[3, 1, 4, 1, 5]);
        s1.put_bool(true);
        w.push(s1);
        w
    }

    #[test]
    fn roundtrip_preserves_every_value() {
        let bytes = sample_snapshot().to_bytes();
        let mut r = SnapshotReader::from_bytes(bytes).unwrap();
        assert_eq!(r.kind(), "unit-test");
        assert_eq!(r.fingerprint(), 0xDEAD_BEEF);
        assert_eq!(r.num_sections(), 2);
        r.expect_kind("unit-test").unwrap();
        r.expect_fingerprint(0xDEAD_BEEF).unwrap();
        let mut s0 = r.next_section().unwrap();
        assert_eq!(s0.get_u32().unwrap(), 7);
        assert_eq!(s0.get_str().unwrap(), "hello");
        let f = s0.get_f32s().unwrap();
        assert_eq!(f[0], 1.0);
        assert_eq!(f[1], -2.5);
        assert!(f[2].is_infinite());
        assert_eq!(s0.remaining(), 0);
        let mut s1 = r.next_section().unwrap();
        assert_eq!(s1.get_usizes().unwrap(), vec![3, 1, 4, 1, 5]);
        assert!(s1.get_bool().unwrap());
        assert!(matches!(r.next_section(), Err(PersistError::Truncated)));
    }

    #[test]
    fn file_roundtrip_works() {
        let path = temp_path("file-roundtrip.snap");
        sample_snapshot().write_to(&path).unwrap();
        let r = SnapshotReader::open(&path).unwrap();
        assert_eq!(r.kind(), "unit-test");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_creates_parent_directories() {
        let dir = temp_path("nested-dir");
        let path = dir.join("deep").join("file.snap");
        sample_snapshot().write_to(&path).unwrap();
        assert!(SnapshotReader::open(&path).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_file_reports_truncated() {
        let bytes = sample_snapshot().to_bytes();
        // Cut in the middle of the last section's payload.
        let cut = &bytes[..bytes.len() - 10];
        assert!(matches!(
            SnapshotReader::from_bytes(cut.to_vec()),
            Err(PersistError::Truncated)
        ));
        // Cut inside the header too.
        assert!(matches!(
            SnapshotReader::from_bytes(bytes[..10].to_vec()),
            Err(PersistError::Truncated)
        ));
        assert!(matches!(
            SnapshotReader::from_bytes(bytes[..3].to_vec()),
            Err(PersistError::Truncated)
        ));
    }

    #[test]
    fn flipped_payload_byte_reports_checksum_mismatch() {
        let mut bytes = sample_snapshot().to_bytes();
        // Flip the last payload byte (inside section 1).
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(
            SnapshotReader::from_bytes(bytes),
            Err(PersistError::ChecksumMismatch { section: 1 })
        ));
    }

    #[test]
    fn flipped_checksum_byte_reports_checksum_mismatch() {
        let w = sample_snapshot();
        let mut bytes = w.to_bytes();
        // The first section's checksum lives 8 bytes after its length field,
        // which starts right after the header.
        let header_len = 8 + 4 + 8 + 2 + "unit-test".len() + 4;
        bytes[header_len + 8] ^= 0x01;
        assert!(matches!(
            SnapshotReader::from_bytes(bytes),
            Err(PersistError::ChecksumMismatch { section: 0 })
        ));
    }

    #[test]
    fn wrong_magic_reports_bad_magic() {
        let mut bytes = sample_snapshot().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            SnapshotReader::from_bytes(bytes),
            Err(PersistError::BadMagic)
        ));
    }

    #[test]
    fn future_version_reports_version_mismatch() {
        let mut bytes = sample_snapshot().to_bytes();
        // The version field lives at offset 8..12.
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            SnapshotReader::from_bytes(bytes),
            Err(PersistError::VersionMismatch { found, supported: FORMAT_VERSION })
                if found == FORMAT_VERSION + 1
        ));
    }

    #[test]
    fn wrong_kind_and_fingerprint_are_typed() {
        let bytes = sample_snapshot().to_bytes();
        let r = SnapshotReader::from_bytes(bytes).unwrap();
        assert!(matches!(
            r.expect_kind("something-else"),
            Err(PersistError::KindMismatch { .. })
        ));
        assert!(matches!(
            r.expect_fingerprint(1),
            Err(PersistError::FingerprintMismatch { expected: 1, found: 0xDEAD_BEEF })
        ));
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let mut bytes = sample_snapshot().to_bytes();
        bytes.extend_from_slice(b"junk");
        assert!(matches!(
            SnapshotReader::from_bytes(bytes),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn section_reader_never_reads_past_the_end() {
        let mut s = Section::new();
        s.put_u16(42);
        let mut r = SectionReader::new(s.as_bytes());
        assert_eq!(r.get_u16().unwrap(), 42);
        assert!(matches!(r.get_u64(), Err(PersistError::Truncated)));
        // A corrupt huge count must fail before allocating.
        let mut s = Section::new();
        s.put_u64(u64::MAX);
        let mut r = SectionReader::new(s.as_bytes());
        assert!(matches!(r.get_f32s(), Err(PersistError::Truncated)));
    }

    #[test]
    fn invalid_bool_and_utf8_are_corrupt() {
        let mut s = Section::new();
        s.put_u8(7);
        let mut r = SectionReader::new(s.as_bytes());
        assert!(matches!(r.get_bool(), Err(PersistError::Corrupt(_))));
        let mut s = Section::new();
        s.put_u16(2);
        s.put_u8(0xFF);
        s.put_u8(0xFE);
        let mut r = SectionReader::new(s.as_bytes());
        assert!(matches!(r.get_str(), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn peek_kind_reads_only_the_header() {
        let path = temp_path("peek.snap");
        sample_snapshot().write_to(&path).unwrap();
        assert_eq!(peek_kind(&path).unwrap(), "unit-test");

        // Section damage is invisible to the peek (dispatchers hand the
        // file to a loader that validates fully)...
        let pristine = std::fs::read(&path).unwrap();
        let mut flipped = pristine.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        std::fs::write(&path, &flipped).unwrap();
        assert_eq!(peek_kind(&path).unwrap(), "unit-test");

        // ...but header damage is typed exactly like the full reader.
        let mut bad_magic = pristine.clone();
        bad_magic[0] = b'X';
        std::fs::write(&path, &bad_magic).unwrap();
        assert!(matches!(peek_kind(&path), Err(PersistError::BadMagic)));
        let mut future = pristine.clone();
        future[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &future).unwrap();
        assert!(matches!(
            peek_kind(&path),
            Err(PersistError::VersionMismatch { .. })
        ));
        std::fs::write(&path, &pristine[..12]).unwrap();
        assert!(matches!(peek_kind(&path), Err(PersistError::Truncated)));
        std::fs::write(&path, &pristine[..3]).unwrap();
        assert!(matches!(peek_kind(&path), Err(PersistError::Truncated)));
        assert!(matches!(
            peek_kind(Path::new("/nonexistent/peek.snap")),
            Err(PersistError::Io(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_reader_reports_the_same_header_damage() {
        use std::mem::discriminant;
        let path = temp_path("header-damage.snap");
        let pristine = sample_snapshot().to_bytes();
        let header_len = 8 + 4 + 8 + 2 + "unit-test".len() + 4;
        let mut damaged: Vec<(String, Vec<u8>, PersistError)> = (0..header_len)
            .map(|cut| (format!("cut at {cut}"), pristine[..cut].to_vec(), PersistError::Truncated))
            .collect();
        let mut wrong_magic = pristine.clone();
        wrong_magic[7] ^= 0x01;
        damaged.push(("wrong magic".into(), wrong_magic, PersistError::BadMagic));
        let mut future = pristine.clone();
        future[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let version = PersistError::VersionMismatch {
            found: FORMAT_VERSION + 1,
            supported: FORMAT_VERSION,
        };
        damaged.push(("version + 1".into(), future, version));
        let mut not_utf8 = pristine.clone();
        not_utf8[22] = 0xFF;
        damaged.push(("non-UTF-8 kind".into(), not_utf8, PersistError::Corrupt(String::new())));

        for (what, bytes, want) in damaged {
            std::fs::write(&path, &bytes).unwrap();
            let reported = [
                peek_kind(&path).err(),
                peek_fingerprint(&path).err(),
                SnapshotReader::open(&path).err(),
                crate::stream::open_dataset_streaming(&path).err(),
            ];
            for (reader, got) in reported.iter().enumerate() {
                assert_eq!(
                    got.as_ref().map(discriminant),
                    Some(discriminant(&want)),
                    "{what}: reader {reader} reported {got:?}"
                );
            }
            if !matches!(want, PersistError::Corrupt(_)) {
                assert!(reported.iter().all(|got| got.as_ref() == Some(&want)), "{what}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = SnapshotReader::open(Path::new("/nonexistent/hydra.snap")).unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
    }
}
