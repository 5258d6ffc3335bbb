//! Streaming ingest. The ingest-equivalence contract — an index that
//! ingested series `h..n` through `insert_batch`, in any chunking, resident
//! or file-backed, under racing readers, answers like a fresh build over
//! all `n` — is the differential engine's `grow=` axis
//! (`tests/common/engine.rs`). Beyond it: a grown index snapshots
//! byte-identically to the fresh build and fingerprints as the
//! concatenated dataset, a rejected batch changes nothing, readers racing a
//! writer see chunk prefixes, a base snapshot plus its ingest journal loads
//! back to the grown index, and a damaged journal yields its typed
//! [`hydra::PersistError`] and **no index**, never a partially replayed one.

mod common;

use std::sync::RwLock;

use common::{assert_equivalent, grow, head, obtain, Load, Variant, Zoo};
use hydra::persist::{journal_path, layout, JournalWriter};
use hydra::prelude::*;
use hydra::{AnnIndex, Dataset, Neighbor, PersistError, SearchParams, StoreBacking};

/// Every ingest-capable method, grown from several split points under
/// several chunkings, is indistinguishable from its fresh build each
/// time, under 4 racing readers — and snapshots byte-identically.
#[test]
fn every_ingest_capable_method_grows_equivalently_under_any_chunking() {
    let data = hydra::data::random_walk(240, 32, 6161);
    let (zoo, dir) = (Zoo::new(StorageConfig::in_memory(), 9), common::temp_dir("ingest-grow"));
    // DSTree, iSAX2+, VA+file, SRS and HNSW ingest.
    for (method, _) in zoo.rows(data.series_len(), 5, |caps| caps.streaming_insert) {
        // The whole tail at once, ragged alternating chunks, one by one.
        for grow in [(60, &[240][..]), (120, &[7, 3]), (239, &[1])] {
            let v = Variant { grow: Some(grow), threads: 4, ..Variant::of(method.kind()) };
            assert_equivalent(&zoo, &data, &v, &dir);
        }
        // Save-time compaction: a grown index snapshots byte-identically to
        // the fresh build (the fingerprint recompute covers ingested series).
        let mut grown = method.build(&head(&data, 120)).unwrap();
        grow(grown.as_mut(), &data, 120, &[13]);
        let [fresh, grown_path] = ["fresh", "grown"].map(|side| dir.join(format!("{side}.snap")));
        method.build(&data).unwrap().save(&fresh).unwrap();
        grown.save(&grown_path).unwrap();
        let bytes = |path| std::fs::read(path).unwrap();
        assert!(bytes(&fresh) == bytes(&grown_path), "{}: grown snapshot bytes differ", method.kind());
    }
}

/// A disk index grown in two uneven chunks: the content fingerprint of
/// its collection must be `fingerprint_dataset` of the concatenated
/// dataset — which is what a load recomputes from its `dataset` argument
/// and checks the snapshot header against.
#[test]
fn a_grown_collection_fingerprints_as_the_concatenated_dataset() {
    let data = hydra::data::random_walk(240, 32, 6262);
    let h = data.len() / 3;
    let base = head(&data, h);
    let zoo = Zoo::new(StorageConfig::in_memory(), 9);
    let registry = hydra::standard_registry(zoo.storage, 9);
    // The four collection-backed disk indexes.
    let ingests = |caps: &hydra::Capabilities| caps.streaming_insert && caps.disk_resident;
    for (method, _) in zoo.rows(data.series_len(), 4, ingests) {
        let mut grown = method.build(&base).unwrap();
        grow(grown.as_mut(), &data, h, &[37, data.len()]);
        let name = grown.name().replace(['+', '/'], "");
        let dir = common::temp_dir(&format!("ingest-fingerprint-{name}"));
        let path = dir.join("grown.snap");
        grown.save(&path).unwrap();
        let reloaded = registry.load_any(&path, &data).unwrap_or_else(|e| {
            panic!("{name}: grown fingerprint is not the full dataset's: {e}")
        });
        assert_eq!(reloaded.num_series(), data.len());
        assert!(
            matches!(
                registry.load_any(&path, &base),
                Err(PersistError::FingerprintMismatch { .. })
            ),
            "{name}: a grown snapshot must not load against the base it grew from"
        );
    }
}

#[test]
fn a_bad_batch_is_rejected_atomically_without_growing() {
    let data = hydra::data::random_walk(120, 32, 7272);
    let queries = hydra::data::noisy_queries(&data, 4, &[0.1], 11);
    let (zoo, dir) = (Zoo::new(StorageConfig::in_memory(), 9), common::temp_dir("ingest-bad"));
    for (method, _) in zoo.rows(data.series_len(), 5, |caps| caps.streaming_insert) {
        let mut index = obtain(&zoo, &data, &Variant::of(method.kind()), &dir);
        let method = index.name();
        let before = index.num_series();
        let expected: Vec<Vec<Neighbor>> = queries
            .iter()
            .map(|q| index.search(q, &SearchParams::ng(5, 16)).unwrap().neighbors)
            .collect();
        // One good series, one of the wrong length: the whole batch must
        // be rejected before any mutation.
        let good = data.series(0).to_vec();
        let bad = vec![0.0f32; data.series_len() + 1];
        let err = index.insert_batch(&[&good, &bad]).unwrap_err();
        assert!(
            matches!(err, hydra::Error::DimensionMismatch { .. }),
            "{method}: expected DimensionMismatch, got {err:?}"
        );
        assert_eq!(index.num_series(), before, "{method}: a rejected batch grew the index");
        for (q, query) in queries.iter().enumerate() {
            let after = index.search(query, &SearchParams::ng(5, 16)).unwrap().neighbors;
            assert_eq!(after, expected[q], "{method}: a rejected batch changed answers");
        }
        // The empty batch is a no-op, not an error — and does not grow.
        index.insert_batch(&[]).unwrap();
        assert_eq!(index.num_series(), before, "{method}: an empty batch grew the index");
    }
}

#[test]
fn file_backed_ingest_answers_like_the_resident_full_build() {
    // A 1-page pool far smaller than the raw data: growth must keep the
    // buffer pool coherent while the backing file gains a tail.
    let data = hydra::data::random_walk(300, 64, 8484);
    let (zoo, dir) = (Zoo::new(StorageConfig::on_disk(), 5), common::temp_dir("ingest-ooc"));
    let ingests = |caps: &hydra::Capabilities| caps.streaming_insert && caps.disk_resident;
    for (method, _) in zoo.rows(data.series_len(), 4, ingests) {
        let (load, grow) = (Load::file(1), Some((200, &[17, 5][..])));
        assert_equivalent(&zoo, &data, &Variant { grow, load, threads: 4, ..Variant::of(method.kind()) }, &dir);
    }
}

#[test]
fn queries_racing_ingest_see_a_consistent_chunk_prefix() {
    // The serving layer's locking discipline in miniature: a test-level
    // RwLock hands readers the index between `insert_batch` calls, so
    // every exact answer must equal the brute-force truth over *some*
    // chunk-boundary prefix — never a torn in-between state.
    const BASE: usize = 200;
    const CHUNK: usize = 20;
    let data = hydra::data::random_walk(400, 32, 9393);
    // The racing index is the zoo's VA+file row behind a 1-page pool.
    let (zoo, dir) = (Zoo::new(StorageConfig::on_disk().with_pool_pages(1), 5), common::temp_dir("ingest-race"));
    let vafile = Variant::of("va+file");
    let query: Vec<f32> = data.series(3).to_vec();
    // Expected exact top-5 for every reachable prefix, keyed by size —
    // computed by a fresh build over each prefix, so the comparison is the
    // ingest-equivalence contract itself (bit-exact, same distance kernel).
    let truths: std::collections::BTreeMap<usize, Vec<Neighbor>> = (BASE..=data.len())
        .step_by(CHUNK)
        .map(|n| {
            let fresh = obtain(&zoo, &head(&data, n), &vafile, &dir.join(format!("prefix-{n}")));
            (n, fresh.search(&query, &SearchParams::exact(5)).unwrap().neighbors)
        })
        .collect();

    fn run(
        index: Box<dyn AnnIndex>,
        label: &str,
        data: &Dataset,
        query: &[f32],
        truths: &std::collections::BTreeMap<usize, Vec<Neighbor>>,
    ) {
        let lock = RwLock::new(index);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let mut at = BASE;
                while at < data.len() {
                    let hi = (at + CHUNK).min(data.len());
                    let batch: Vec<&[f32]> = (at..hi).map(|i| data.series(i)).collect();
                    lock.write().unwrap().insert_batch(&batch).unwrap();
                    at = hi;
                    std::thread::yield_now();
                }
            });
            for _ in 0..4 {
                let lock = &lock;
                scope.spawn(move || {
                    let mut seen_final = false;
                    while !seen_final {
                        let guard = lock.read().unwrap();
                        let n = guard.num_series();
                        let got = guard.search(query, &SearchParams::exact(5)).unwrap();
                        drop(guard);
                        let truth = truths.get(&n).unwrap_or_else(|| {
                            panic!("{label}: observed size {n} is not a chunk boundary")
                        });
                        let context = format!("{label}: torn answer at prefix {n}");
                        common::assert_same_neighbors(&context, &got.neighbors, truth);
                        seen_final = n == data.len();
                    }
                });
            }
            writer.join().unwrap();
        });
    }

    // Resident, then file-backed behind the 1-page pool.
    for v in [vafile, Variant { load: Load::file(1), ..vafile }] {
        let index = obtain(&zoo, &head(&data, BASE), &v, &dir.join("base"));
        run(index, &v.to_string(), &data, &query, &truths);
    }
}

#[test]
fn base_plus_journal_loads_back_to_the_grown_index_bit_for_bit() {
    let data = hydra::data::random_walk(260, 32, 1010);
    let h = 180;
    let head_data = head(&data, h);
    let zoo = Zoo::new(StorageConfig::in_memory(), 9);
    let registry = hydra::standard_registry(zoo.storage, zoo.seed);
    let dir = common::temp_dir("ingest-journal");
    let n = data.len();

    for (method, _) in zoo.rows(data.series_len(), 5, |caps| caps.streaming_insert) {
        let fresh = method.build(&data).unwrap();
        let snap = layout::index_snapshot(&dir, "walk", method.kind());
        method.build(&head_data).unwrap().save(&snap).unwrap();
        // Journal the tail in two ragged batches, as an ingesting server
        // would between full saves.
        let base = hydra::persist::peek_fingerprint(&snap).unwrap();
        let mut journal =
            JournalWriter::create(&journal_path(&snap), base, data.series_len()).unwrap();
        let mid = h + (n - h) / 3;
        let first: Vec<&[f32]> = (h..mid).map(|i| data.series(i)).collect();
        let second: Vec<&[f32]> = (mid..n).map(|i| data.series(i)).collect();
        journal.append_batch(&first).unwrap();
        journal.append_batch(&second).unwrap();
        drop(journal);
        // Replayed load == the in-memory grown index == the fresh build.
        let replayed = registry
            .load_any_journaled(&snap, &head_data, StoreBacking::Resident)
            .unwrap();
        let v = Variant {
            grow: Some((h, &[26, 54])),
            load: Load::Resident,
            threads: 4,
            ..Variant::of(method.kind())
        };
        let label = format!("{v} from its journal");
        common::assert_answers(&label, replayed.as_ref(), fresh.as_ref(), &data, &v);
        // Compaction: a full save of the grown index deletes the journal's
        // reason to exist; the compacted base then loads with no journal.
        hydra::persist::remove_journal(&snap).unwrap();
        assert!(!journal_path(&snap).exists());
    }
}

#[test]
fn a_damaged_journal_is_a_typed_error_and_never_partial_state() {
    let data = hydra::data::random_walk(200, 32, 2020);
    let h = 150;
    let head_data = head(&data, h);
    let storage = hydra::StorageConfig::in_memory();
    let registry = hydra::standard_registry(storage, 9);
    let config = VaPlusFileConfig {
        storage,
        seed: 9,
        ..VaPlusFileConfig::default()
    };
    let dir = common::temp_dir("ingest-journal-damage");
    let snap = dir.join("walk-vafile.snap");
    VaPlusFile::build(&head_data, config).unwrap().save(&snap).unwrap();
    let base = hydra::persist::peek_fingerprint(&snap).unwrap();
    let journal = journal_path(&snap);
    let write_journal = |base: u64| {
        let mut w = JournalWriter::create(&journal, base, data.series_len()).unwrap();
        let tail: Vec<&[f32]> = (h..data.len()).map(|i| data.series(i)).collect();
        w.append_batch(&tail[..20]).unwrap();
        w.append_batch(&tail[20..]).unwrap();
    };
    write_journal(base);
    let pristine = std::fs::read(&journal).unwrap();
    // Returns the loaded size so match arms stay debuggable (the index
    // itself has no Debug impl — and a failed load must yield no index).
    let load = |registry: &hydra::persist::LoaderRegistry| {
        registry
            .load_any_journaled(&snap, &head_data, StoreBacking::Resident)
            .map(|index| index.num_series())
    };
    assert_eq!(load(&registry).unwrap(), data.len(), "sanity: pristine replays");

    // Truncation anywhere — inside the header, a record header, or a
    // record body — is PersistError::Truncated and yields no index.
    for cut in [4usize, 20, 27, 36, pristine.len() - 1] {
        std::fs::write(&journal, &pristine[..cut]).unwrap();
        match load(&registry) {
            Err(PersistError::Truncated) => {}
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
    // A flipped value byte is a checksum mismatch naming the record.
    let mut flipped = pristine.clone();
    let in_first_record = 28 + 8 + 3; // header, record count, 4th value byte
    flipped[in_first_record] ^= 0x40;
    std::fs::write(&journal, &flipped).unwrap();
    match load(&registry) {
        Err(PersistError::ChecksumMismatch { section }) => assert_eq!(section, 0),
        other => panic!("expected ChecksumMismatch on record 0, got {other:?}"),
    }
    // Wrong magic and an impossible record count are loud too.
    let mut bad_magic = pristine.clone();
    bad_magic[0] ^= 0xFF;
    std::fs::write(&journal, &bad_magic).unwrap();
    assert!(matches!(load(&registry), Err(PersistError::BadMagic)));
    let mut huge = pristine.clone();
    huge[28..36].copy_from_slice(&u64::MAX.to_le_bytes());
    std::fs::write(&journal, &huge).unwrap();
    assert!(
        matches!(load(&registry), Err(PersistError::Corrupt(_)) | Err(PersistError::Truncated)),
        "an impossible record count must not allocate or replay"
    );
    // A journal written against a *different* base pins the mismatch.
    write_journal(base ^ 0xDEAD_BEEF);
    match load(&registry) {
        Err(PersistError::FingerprintMismatch { .. }) => {}
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
    std::fs::remove_file(&journal).ok();
}
