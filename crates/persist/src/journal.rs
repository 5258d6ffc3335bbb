//! Incremental snapshots: an append-only ingest journal beside the base
//! snapshot.
//!
//! A full [`crate::PersistentIndex::save`] after every
//! [`hydra_core::AnnIndex::insert_batch`] would rewrite the entire derived
//! structure to absorb a handful of series. The journal makes increments
//! cheap: an ingesting process appends each accepted batch's **raw
//! series** to `<snapshot>.snap.journal` ([`journal_path`]), and a later
//! load replays those batches through `insert_batch` on the freshly
//! loaded base. Because ingest is deterministic — the equivalence
//! contract pinned by `tests/integration_ingest.rs` — base + journal
//! reproduces the grown in-memory index **bit for bit**.
//!
//! A journal is *compacted on save*: a full `save()` of the grown index
//! writes a new self-contained base (its fingerprint re-computed over the
//! grown data), after which the journal is deleted
//! ([`remove_journal`]) — the increments now live in the base.
//!
//! ## File format
//!
//! All primitives little-endian, like the snapshot container:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"HYDRJRNL"
//! 8       4     journal format version (u32, currently 1)
//! 12      8     base snapshot fingerprint (u64 — the header fingerprint
//!               of the base `.snap`, see [`crate::peek_fingerprint`])
//! 20      8     series length L (u64)
//! --- one record per appended batch ---
//!         8     series count C (u64, > 0)
//!         C*L*4 raw f32 values, by bit pattern
//!         8     record checksum (FNV-1a 64 over the C*L*4 value bytes)
//! ```
//!
//! ## Failure semantics
//!
//! [`JournalReader::open`] validates the **whole file** — header, every
//! record length, every record checksum — before returning, so replay can
//! never apply half a journal: a file cut mid-record is
//! [`PersistError::Truncated`], a flipped value byte is
//! [`PersistError::ChecksumMismatch`] (the `section` names the record),
//! and a journal written against a different base is
//! [`PersistError::FingerprintMismatch`]. All typed, never partial state,
//! never a panic.

use std::io::Write;
use std::path::Path;

use crate::error::{PersistError, Result};
use crate::layout::journal_path;
use crate::snapshot::{f32s_from_le, fnv1a64, SectionReader};

/// Magic bytes identifying a Hydra ingest journal.
pub const JOURNAL_MAGIC: [u8; 8] = *b"HYDRJRNL";

/// The single journal-format version this build writes and reads.
pub const JOURNAL_VERSION: u32 = 1;

/// Deletes the journal beside `snapshot`, if any — the compaction step
/// after a full save has folded the increments into a new base.
///
/// # Errors
/// [`PersistError::Io`] on a filesystem failure other than the journal
/// simply not existing (no journal is the common, healthy case).
pub fn remove_journal(snapshot: &Path) -> Result<()> {
    match std::fs::remove_file(journal_path(snapshot)) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}

/// Appends ingest batches to a journal file, one checksummed record per
/// [`JournalWriter::append_batch`] call.
#[derive(Debug)]
pub struct JournalWriter {
    file: std::fs::File,
    series_len: usize,
}

impl JournalWriter {
    /// Creates (truncating) the journal at `path`, pinned to the base
    /// snapshot whose header fingerprint is `base_fingerprint`, over
    /// series of length `series_len`.
    ///
    /// # Errors
    /// [`PersistError::Io`] if the file cannot be created or the header
    /// cannot be written.
    pub fn create(path: &Path, base_fingerprint: u64, series_len: usize) -> Result<Self> {
        let mut file = std::fs::File::create(path)?;
        let mut head = Vec::with_capacity(28);
        head.extend_from_slice(&JOURNAL_MAGIC);
        head.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        head.extend_from_slice(&base_fingerprint.to_le_bytes());
        head.extend_from_slice(&(series_len as u64).to_le_bytes());
        file.write_all(&head)?;
        file.flush()?;
        Ok(Self { file, series_len })
    }

    /// Appends one batch as a single record, flushed before returning —
    /// once this returns `Ok`, the record survives the process, though not
    /// a power loss: it is in the page cache, never fsynced.
    ///
    /// # Errors
    /// [`PersistError::Corrupt`] on an empty batch or a series of the
    /// wrong length (mirroring `insert_batch`'s whole-batch-or-nothing
    /// validation — a record the replay would reject must never be
    /// written), [`PersistError::Io`] on a write failure.
    pub fn append_batch(&mut self, batch: &[&[f32]]) -> Result<()> {
        if batch.is_empty() {
            return Err(PersistError::Corrupt(
                "refusing to journal an empty batch".into(),
            ));
        }
        let mut values = Vec::with_capacity(batch.len() * self.series_len * 4);
        for series in batch {
            if series.len() != self.series_len {
                return Err(PersistError::Corrupt(format!(
                    "journaled series has length {}, journal holds length {}",
                    series.len(),
                    self.series_len
                )));
            }
            for &v in *series {
                values.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        let mut record = Vec::with_capacity(8 + values.len() + 8);
        record.extend_from_slice(&(batch.len() as u64).to_le_bytes());
        record.extend_from_slice(&values);
        record.extend_from_slice(&fnv1a64(&values).to_le_bytes());
        self.file.write_all(&record)?;
        self.file.flush()?;
        Ok(())
    }
}

/// A fully validated journal, ready to replay.
#[derive(Debug)]
pub struct JournalReader {
    base_fingerprint: u64,
    series_len: usize,
    batches: Vec<Vec<Vec<f32>>>,
}

impl JournalReader {
    /// Reads and validates the **entire** journal at `path` — header and
    /// every record — before returning (see the module docs' failure
    /// semantics).
    ///
    /// # Errors
    /// [`PersistError::BadMagic`] / [`PersistError::VersionMismatch`] for
    /// a foreign or future file, [`PersistError::Truncated`] for a file
    /// cut mid-header or mid-record, [`PersistError::ChecksumMismatch`]
    /// (the `section` is the record index) for damaged values,
    /// [`PersistError::Corrupt`] for impossible counts, and
    /// [`PersistError::Io`] if the file cannot be read.
    pub fn open(path: &Path) -> Result<Self> {
        let bytes = std::fs::read(path)?;
        let mut r = SectionReader::new(&bytes);
        if r.take(JOURNAL_MAGIC.len())? != JOURNAL_MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = r.get_u32()?;
        if version != JOURNAL_VERSION {
            return Err(PersistError::VersionMismatch {
                found: version,
                supported: JOURNAL_VERSION,
            });
        }
        let base_fingerprint = r.get_u64()?;
        let series_len = r.get_usize()?;
        if series_len == 0 {
            return Err(PersistError::Corrupt(
                "impossible journal series length 0".into(),
            ));
        }
        let mut batches: Vec<Vec<Vec<f32>>> = Vec::new();
        while r.remaining() > 0 {
            let count = r.get_usize()?;
            if count == 0 {
                return Err(PersistError::Corrupt(format!(
                    "impossible series count 0 in journal record {}",
                    batches.len()
                )));
            }
            let value_bytes = count
                .checked_mul(series_len)
                .and_then(|values| values.checked_mul(4))
                .ok_or(PersistError::Truncated)?;
            let values = r.take(value_bytes)?;
            if fnv1a64(values) != r.get_u64()? {
                return Err(PersistError::ChecksumMismatch {
                    section: batches.len(),
                });
            }
            batches.push(
                values
                    .chunks_exact(series_len * 4)
                    .map(|series| f32s_from_le(series).collect())
                    .collect(),
            );
        }
        Ok(Self {
            base_fingerprint,
            series_len,
            batches,
        })
    }

    /// The header fingerprint of the base snapshot this journal extends.
    pub fn base_fingerprint(&self) -> u64 {
        self.base_fingerprint
    }

    /// The series length every journaled series has.
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// The validated batches, in append order.
    pub fn batches(&self) -> &[Vec<Vec<f32>>] {
        &self.batches
    }

    /// Total series across all batches.
    pub fn num_series(&self) -> usize {
        self.batches.iter().map(|b| b.len()).sum()
    }

    /// Replays every batch through `index.insert_batch`, in append order —
    /// the exact call sequence the ingesting process made, so the result
    /// is bit-identical to the index it journaled.
    ///
    /// # Errors
    /// [`PersistError::FingerprintMismatch`] if the index's base snapshot
    /// fingerprint (`base_fingerprint`, from [`crate::peek_fingerprint`])
    /// is not the one this journal was pinned to,
    /// [`PersistError::Corrupt`] if the series lengths disagree or the
    /// index rejects a batch (e.g. it does not support streaming insert).
    pub fn replay(&self, index: &mut dyn hydra_core::AnnIndex, base_fingerprint: u64) -> Result<()> {
        if base_fingerprint != self.base_fingerprint {
            return Err(PersistError::FingerprintMismatch {
                expected: self.base_fingerprint,
                found: base_fingerprint,
            });
        }
        if index.series_len() != self.series_len {
            return Err(PersistError::Corrupt(format!(
                "journal holds series of length {}, index expects {}",
                self.series_len,
                index.series_len()
            )));
        }
        for batch in &self.batches {
            let refs: Vec<&[f32]> = batch.iter().map(|s| s.as_slice()).collect();
            index
                .insert_batch(&refs)
                .map_err(|e| PersistError::Corrupt(format!("journal replay failed: {e}")))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hydra-journal-{}-{name}", std::process::id()))
    }

    #[test]
    fn journal_path_sits_beside_the_snapshot() {
        assert_eq!(
            journal_path(Path::new("/snaps/walk-isax2.snap")),
            Path::new("/snaps/walk-isax2.snap.journal")
        );
    }

    #[test]
    fn roundtrips_batches_bit_for_bit() {
        let path = temp_path("roundtrip.snap.journal");
        let mut w = JournalWriter::create(&path, 0xFEED, 3).unwrap();
        let b0: Vec<&[f32]> = vec![&[1.0, -2.5, f32::MIN_POSITIVE], &[0.0, -0.0, 3.25]];
        let b1: Vec<&[f32]> = vec![&[9.0, 8.0, 7.0]];
        w.append_batch(&b0).unwrap();
        w.append_batch(&b1).unwrap();
        drop(w);
        let r = JournalReader::open(&path).unwrap();
        assert_eq!(r.base_fingerprint(), 0xFEED);
        assert_eq!(r.series_len(), 3);
        assert_eq!(r.num_series(), 3);
        assert_eq!(r.batches().len(), 2);
        assert_eq!(r.batches()[0][0], vec![1.0, -2.5, f32::MIN_POSITIVE]);
        // -0.0 must survive by bit pattern, not collapse to +0.0.
        assert_eq!(r.batches()[0][1][1].to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.batches()[1][0], vec![9.0, 8.0, 7.0]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_rejects_what_replay_would_reject() {
        let path = temp_path("reject.snap.journal");
        let mut w = JournalWriter::create(&path, 1, 2).unwrap();
        assert!(matches!(
            w.append_batch(&[]),
            Err(PersistError::Corrupt(_))
        ));
        let bad: Vec<&[f32]> = vec![&[1.0, 2.0, 3.0]];
        assert!(matches!(
            w.append_batch(&bad),
            Err(PersistError::Corrupt(_))
        ));
        // An empty journal (header only) is valid and replays nothing.
        drop(w);
        let r = JournalReader::open(&path).unwrap();
        assert_eq!(r.num_series(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn damage_is_typed_and_never_partial() {
        let path = temp_path("damage.snap.journal");
        let mut w = JournalWriter::create(&path, 2, 2).unwrap();
        let b: Vec<&[f32]> = vec![&[1.0, 2.0], &[3.0, 4.0]];
        w.append_batch(&b).unwrap();
        w.append_batch(&b).unwrap();
        drop(w);
        let pristine = std::fs::read(&path).unwrap();

        // A cut at every byte offset: on a record boundary the journal
        // opens as exactly the whole batches before it; anywhere else —
        // mid-header, mid-count, mid-values, mid-checksum — it is
        // Truncated, and open() fails before any batch is handed out.
        let record = 8 + 16 + 8;
        for cut in 0..=pristine.len() {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            let opened = JournalReader::open(&path);
            if cut >= 28 && (cut - 28) % record == 0 {
                let batches = opened.unwrap().batches().to_vec();
                assert_eq!(batches.len(), (cut - 28) / record, "cut at {cut}");
                assert!(batches.iter().all(|batch| batch == &[[1.0, 2.0], [3.0, 4.0]]));
            } else {
                assert!(
                    matches!(opened, Err(PersistError::Truncated)),
                    "cut at {cut} must be Truncated"
                );
            }
        }
        // A flipped value byte in the SECOND record names record 1.
        let mut flipped = pristine.clone();
        let second_values = 28 + 8 + 16 + 8 + 8 + 3;
        flipped[second_values] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            JournalReader::open(&path),
            Err(PersistError::ChecksumMismatch { section: 1 })
        ));
        // Foreign and future files are typed.
        let mut bad_magic = pristine.clone();
        bad_magic[0] = b'X';
        std::fs::write(&path, &bad_magic).unwrap();
        assert!(matches!(
            JournalReader::open(&path),
            Err(PersistError::BadMagic)
        ));
        let mut future = pristine.clone();
        future[8..12].copy_from_slice(&(JOURNAL_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &future).unwrap();
        assert!(matches!(
            JournalReader::open(&path),
            Err(PersistError::VersionMismatch { .. })
        ));
        // An impossible record count is Corrupt or Truncated, never a
        // huge allocation: u64::MAX overflows the record size check.
        let mut huge = pristine[..28 + 8].to_vec();
        huge[28..36].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &huge).unwrap();
        assert!(JournalReader::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn remove_journal_tolerates_absence() {
        let snap = temp_path("compact.snap");
        remove_journal(&snap).unwrap();
        let jpath = journal_path(&snap);
        JournalWriter::create(&jpath, 3, 2).unwrap();
        assert!(jpath.exists());
        remove_journal(&snap).unwrap();
        assert!(!jpath.exists());
    }
}
