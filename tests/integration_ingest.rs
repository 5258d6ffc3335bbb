//! Streaming-ingest equivalence suite: the acceptance contract of the
//! live-growth PR.
//!
//! An index that ingested series `h..n` through `insert_batch` — in any
//! batch chunking, resident or file-backed, racing readers or not — must
//! be **indistinguishable** from an index built over all `n` series in
//! one shot: same neighbors, bit-identical distances, same
//! [`hydra::QueryStats`], and (because save-time compaction re-fingerprints
//! the grown data) byte-identical snapshots. Incremental snapshots close
//! the loop on disk: a base snapshot plus its ingest journal must load
//! back to the same grown index, and a damaged journal must yield its
//! typed [`hydra::PersistError`] and **no index**, never a partially
//! replayed one.

mod common;

use std::sync::RwLock;

use common::head;
use hydra::persist::{journal_path, JournalWriter};
use hydra::prelude::*;
use hydra::{AnnIndex, Dataset, Neighbor, PersistError, SearchParams, StoreBacking};

/// Streams `data[from..]` into `index` with batch sizes cycling through
/// `chunks` — the chunking must not matter, that is the point.
fn grow(index: &mut dyn AnnIndex, data: &Dataset, from: usize, chunks: &[usize]) {
    let n = data.len();
    let mut at = from;
    let mut ci = 0;
    while at < n {
        let hi = (at + chunks[ci % chunks.len()]).min(n);
        let batch: Vec<&[f32]> = (at..hi).map(|i| data.series(i)).collect();
        index.insert_batch(&batch).unwrap();
        at = hi;
        ci += 1;
    }
}

/// Every search setting `index` supports, in the shape the figure
/// harnesses sweep them.
fn settings_for(index: &dyn AnnIndex, k: usize) -> Vec<SearchParams> {
    let caps = index.capabilities();
    let mut settings = vec![SearchParams::ng(k, 16)];
    if caps.exact {
        settings.push(SearchParams::exact(k));
    }
    if caps.delta_epsilon_approximate {
        settings.push(SearchParams::delta_epsilon(k, 0.9, 1.0));
    }
    settings
}

/// Asserts `grown` answers exactly like `fresh` on every supported
/// setting — neighbors, distance bits, and `QueryStats` — both
/// single-threaded and under 4 concurrent reader threads.
fn assert_indistinguishable(
    method: &str,
    fresh: &dyn AnnIndex,
    grown: &dyn AnnIndex,
    queries: &hydra::data::QueryWorkload,
) {
    assert_eq!(fresh.num_series(), grown.num_series(), "{method}: size drifted");
    for params in settings_for(fresh, 5) {
        let expected: Vec<_> = queries
            .iter()
            .map(|q| fresh.search(q, &params).unwrap())
            .collect();
        // Everything but the I/O-operation counters — answers, CPU
        // counters, bytes_read — must never move.
        let check = |label: &str| {
            for (q, query) in queries.iter().enumerate() {
                let got = grown.search(query, &params).unwrap();
                let context = format!("{method} {label} {params:?} query {q}");
                common::assert_same_answer(
                    &context,
                    &got,
                    &expected[q],
                    common::StatsMatch::ExceptIoOperations,
                );
            }
        };
        check("1-thread");
        std::thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(move || check(&format!("4-thread[{t}]")));
            }
        });
    }
}

/// The ingest matrix: builds every row of `zoo(storage, seed)` that is in
/// the scenario fresh over all of `data` and hands the rows whose index
/// advertises streaming insert to `check`. Returns (rows visited, rows
/// checked), which every caller pins.
fn for_each_ingest_capable(
    storage: hydra::StorageConfig,
    seed: u64,
    in_memory: bool,
    data: &Dataset,
    mut check: impl FnMut(&hydra::Method, &dyn hydra::ZooIndex),
) -> (usize, usize) {
    let mut checked = 0;
    let visited = common::for_each_method(
        &hydra::zoo(storage, seed),
        |method| method.in_scenario(in_memory, data.series_len()),
        |method| {
            let fresh = method.build(data).unwrap();
            if fresh.capabilities().streaming_insert {
                check(method, fresh.as_ref());
                checked += 1;
            }
        },
    );
    (visited, checked)
}

/// `method` built over the first `h` series of `data`, then grown to all
/// of it under the `chunks` batch-size cycle.
fn build_grown(
    method: &hydra::Method,
    data: &Dataset,
    h: usize,
    chunks: &[usize],
) -> Box<dyn hydra::ZooIndex> {
    let mut grown = method.build(&head(data, h)).unwrap();
    grow(grown.as_mut(), data, h, chunks);
    grown
}

/// Every ingest-capable method, grown from several split points under
/// several chunkings, is indistinguishable from its fresh build each
/// time — and snapshots byte-identically.
#[test]
fn every_ingest_capable_method_grows_equivalently_under_any_chunking() {
    let data = hydra::data::random_walk(240, 32, 6161);
    let n = data.len();
    let queries = hydra::data::noisy_queries(&data, 6, &[0.0, 0.2], 404);
    let storage = hydra::StorageConfig::in_memory();
    let counts = for_each_ingest_capable(storage, 9, true, &data, |method, fresh| {
        let name = fresh.name();
        // (split point, batch-size cycle): the whole tail at once, ragged
        // alternating chunks, and one-by-one inserts.
        let variants: [(usize, &[usize]); 3] = [(n / 4, &[n]), (n / 2, &[7, 3]), (n - 1, &[1])];
        for (h, chunks) in variants {
            let grown = build_grown(method, &data, h, chunks);
            assert_indistinguishable(name, fresh, grown.as_ref(), &queries);
        }
        // Save-time compaction: a grown index snapshots byte-identically to
        // the fresh build (the fingerprint recompute covers ingested series).
        let dir = common::temp_dir(&format!("ingest-snap-{}", name.replace(['+', '/'], "")));
        let fresh_path = dir.join("fresh.snap");
        let grown_path = dir.join("grown.snap");
        fresh.save(&fresh_path).unwrap();
        build_grown(method, &data, n / 2, &[13]).save(&grown_path).unwrap();
        assert_eq!(
            std::fs::read(&fresh_path).unwrap(),
            std::fs::read(&grown_path).unwrap(),
            "{name}: a grown index must snapshot byte-identically to a fresh build"
        );
    });
    assert_eq!(counts, (8, 5), "DSTree, iSAX2+, VA+file, SRS and HNSW ingest");
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
    let storage = hydra::StorageConfig::in_memory();
    let registry = hydra::standard_registry(storage, 9);
    let counts = for_each_ingest_capable(storage, 9, false, &data, |method, _| {
        let grown = build_grown(method, &data, h, &[37, data.len()]);
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
    });
    assert_eq!(counts, (5, 4), "the four collection-backed disk indexes");
}

#[test]
fn a_bad_batch_is_rejected_atomically_without_growing() {
    let data = hydra::data::random_walk(120, 32, 7272);
    let queries = hydra::data::noisy_queries(&data, 4, &[0.1], 11);
    let storage = hydra::StorageConfig::in_memory();
    let counts = for_each_ingest_capable(storage, 9, true, &data, |method, _| {
        let mut index = method.build(&data).unwrap();
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
    });
    assert_eq!(counts, (8, 5));
}

#[test]
fn file_backed_ingest_answers_like_the_resident_full_build() {
    // A 1-page pool far smaller than the raw data: growth must keep the
    // buffer pool coherent while the backing file gains a tail.
    let data = hydra::data::random_walk(300, 64, 8484);
    let storage = hydra::StorageConfig::on_disk().with_pool_pages(1);
    let registry = hydra::standard_registry(storage, 5);
    let queries = hydra::data::noisy_queries(&data, 5, &[0.0, 0.2], 21);
    let dir = common::temp_dir("ingest-ooc");
    let head_data = head(&data, 200);
    let data_snap = dir.join("walk.data.snap");
    hydra::persist::dataset::save_dataset(&head_data, &data_snap).unwrap();

    let counts = for_each_ingest_capable(storage, 5, false, &data, |method, fresh| {
        let snap = common::snapshot_path(&dir, "walk", method.kind());
        method.build(&head_data).unwrap().save(&snap).unwrap();
        let backing = StoreBacking::FileBacked {
            dataset_snapshot: Some(&data_snap),
        };
        let mut grown = registry.load_any_backed(&snap, &head_data, backing).unwrap();
        grow(grown.as_mut(), &data, head_data.len(), &[17, 5]);
        assert_indistinguishable(fresh.name(), fresh, grown.as_ref(), &queries);
    });
    assert_eq!(counts, (5, 4));
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
    // Typed on purpose: the racing index is one VA+file, the zoo's row.
    let config = VaPlusFileConfig {
        storage: hydra::StorageConfig::on_disk().with_pool_pages(1),
        seed: 5,
        ..VaPlusFileConfig::default()
    };
    let query: Vec<f32> = data.series(3).to_vec();
    // Expected exact top-5 for every reachable prefix, keyed by size —
    // computed by a fresh build over each prefix, so the comparison is the
    // ingest-equivalence contract itself (bit-exact, same distance kernel).
    let truths: std::collections::BTreeMap<usize, Vec<Neighbor>> = (BASE..=data.len())
        .step_by(CHUNK)
        .map(|n| {
            let fresh = VaPlusFile::build(&head(&data, n), config).unwrap();
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
                        assert_eq!(got.neighbors.len(), truth.len());
                        for (a, b) in got.neighbors.iter().zip(truth.iter()) {
                            assert_eq!(a.index, b.index, "{label}: torn answer at prefix {n}");
                            assert_eq!(
                                a.distance.to_bits(),
                                b.distance.to_bits(),
                                "{label}: torn distance at prefix {n}"
                            );
                        }
                        seen_final = n == data.len();
                    }
                });
            }
            writer.join().unwrap();
        });
    }

    let h = head(&data, BASE);
    run(
        Box::new(VaPlusFile::build(&h, config).unwrap()),
        "vafile-resident",
        &data,
        &query,
        &truths,
    );
    // And the same race against a file-backed store behind a 1-page pool.
    let dir = common::temp_dir("ingest-race-ooc");
    hydra::persist::dataset::save_dataset(&h, &dir.join("walk.data.snap")).unwrap();
    let snap = dir.join("walk-vafile.snap");
    VaPlusFile::build(&h, config).unwrap().save(&snap).unwrap();
    let data_snap = dir.join("walk.data.snap");
    let ooc = VaPlusFile::load_backed(
        &snap,
        &h,
        &config,
        StoreBacking::FileBacked {
            dataset_snapshot: Some(&data_snap),
        },
    )
    .unwrap();
    run(Box::new(ooc), "vafile-file-backed-1-page", &data, &query, &truths);
}

#[test]
fn base_plus_journal_loads_back_to_the_grown_index_bit_for_bit() {
    let data = hydra::data::random_walk(260, 32, 1010);
    let h = 180;
    let head_data = head(&data, h);
    let storage = hydra::StorageConfig::in_memory();
    let registry = hydra::standard_registry(storage, 9);
    let queries = hydra::data::noisy_queries(&data, 5, &[0.0, 0.2], 33);
    let dir = common::temp_dir("ingest-journal");
    let n = data.len();

    let counts = for_each_ingest_capable(storage, 9, true, &data, |method, fresh| {
        let snap = common::snapshot_path(&dir, "walk", method.kind());
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
        assert_indistinguishable(fresh.name(), fresh, replayed.as_ref(), &queries);
        // Compaction: a full save of the grown index deletes the journal's
        // reason to exist; the compacted base then loads with no journal.
        hydra::persist::remove_journal(&snap).unwrap();
        assert!(!journal_path(&snap).exists());
    });
    assert_eq!(counts, (8, 5));
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
