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

use hydra::persist::{journal_path, JournalWriter};
use hydra::prelude::*;
use hydra::{AnnIndex, Dataset, Neighbor, PersistError, SearchParams, StoreBacking};

/// Streams `data[from..]` into `index` with batch sizes cycling through
/// `chunks` — the chunking must not matter, that is the point.
fn grow<T: AnnIndex>(mut index: T, data: &Dataset, from: usize, chunks: &[usize]) -> T {
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
    index
}

/// The head of `data`: its first `h` series as an owned dataset.
fn head(data: &Dataset, h: usize) -> Dataset {
    Dataset::from_flat(data.series_len(), data.as_flat()[..h * data.series_len()].to_vec())
        .unwrap()
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

/// One ingest-capable method: build fresh over all of `data`, then grow
/// from several split points under several chunkings, asserting
/// indistinguishability each time — plus byte-identical grown snapshots.
fn check_method<T, F>(data: &Dataset, config: T::Config, build: F)
where
    T: AnnIndex + hydra::PersistentIndex + 'static,
    T::Config: Copy,
    F: Fn(&Dataset, T::Config) -> hydra::Result<T>,
{
    let n = data.len();
    let queries = hydra::data::noisy_queries(data, 6, &[0.0, 0.2], 404);
    let fresh = build(data, config).unwrap();
    assert!(
        fresh.capabilities().streaming_insert,
        "{} must advertise streaming insert",
        fresh.name()
    );
    let method = fresh.name();
    // (split point, batch-size cycle): the whole tail at once, ragged
    // alternating chunks, and one-by-one inserts.
    let variants: [(usize, &[usize]); 3] = [(n / 4, &[n]), (n / 2, &[7, 3]), (n - 1, &[1])];
    for (h, chunks) in variants {
        let grown = grow(build(&head(data, h), config).unwrap(), data, h, chunks);
        assert_indistinguishable(method, &fresh, &grown, &queries);
    }
    // Save-time compaction: a grown index snapshots byte-identically to
    // the fresh build (the fingerprint recompute covers ingested series).
    let dir = common::temp_dir(&format!("ingest-snap-{}", method.replace(['+', '/'], "")));
    let fresh_path = dir.join("fresh.snap");
    let grown_path = dir.join("grown.snap");
    let grown = grow(build(&head(data, n / 2), config).unwrap(), data, n / 2, &[13]);
    fresh.save(&fresh_path).unwrap();
    grown.save(&grown_path).unwrap();
    assert_eq!(
        std::fs::read(&fresh_path).unwrap(),
        std::fs::read(&grown_path).unwrap(),
        "{method}: a grown index must snapshot byte-identically to a fresh build"
    );
}

#[test]
fn every_ingest_capable_method_grows_equivalently_under_any_chunking() {
    let data = hydra::data::random_walk(240, 32, 6161);
    let configs = hydra::standard_configs(hydra::StorageConfig::in_memory(), 9);
    check_method(&data, configs.dstree, DsTree::build);
    check_method(&data, configs.isax, Isax2Plus::build);
    check_method(&data, configs.vafile, VaPlusFile::build);
    check_method(&data, configs.srs, Srs::build);
    check_method(&data, configs.hnsw, Hnsw::build);
}

/// One disk index grown in two uneven chunks: the content fingerprint of
/// its collection must be `fingerprint_dataset` of the concatenated
/// dataset — which is what a load recomputes from its `dataset` argument
/// and checks the snapshot header against.
fn check_grown_fingerprint<T, F>(data: &Dataset, config: T::Config, build: F)
where
    T: AnnIndex + hydra::PersistentIndex,
    T::Config: Copy,
    F: Fn(&Dataset, T::Config) -> hydra::Result<T>,
{
    let h = data.len() / 3;
    let base = head(data, h);
    let grown = grow(build(&base, config).unwrap(), data, h, &[37, data.len()]);
    let name = grown.name().replace(['+', '/'], "");
    let dir = common::temp_dir(&format!("ingest-fingerprint-{name}"));
    let path = dir.join("grown.snap");
    grown.save(&path).unwrap();
    let reloaded = T::load(&path, data, &config)
        .unwrap_or_else(|e| panic!("{name}: grown fingerprint is not the full dataset's: {e}"));
    assert_eq!(reloaded.num_series(), data.len());
    assert!(
        matches!(
            T::load(&path, &base, &config),
            Err(PersistError::FingerprintMismatch { .. })
        ),
        "{name}: a grown snapshot must not load against the base it grew from"
    );
}

#[test]
fn a_grown_collection_fingerprints_as_the_concatenated_dataset() {
    let data = hydra::data::random_walk(240, 32, 6262);
    let configs = hydra::standard_configs(hydra::StorageConfig::in_memory(), 9);
    check_grown_fingerprint(&data, configs.dstree, DsTree::build);
    check_grown_fingerprint(&data, configs.isax, Isax2Plus::build);
    check_grown_fingerprint(&data, configs.vafile, VaPlusFile::build);
    check_grown_fingerprint(&data, configs.srs, Srs::build);
}

#[test]
fn a_bad_batch_is_rejected_atomically_without_growing() {
    let data = hydra::data::random_walk(120, 32, 7272);
    let configs = hydra::standard_configs(hydra::StorageConfig::in_memory(), 9);
    let queries = hydra::data::noisy_queries(&data, 4, &[0.1], 11);
    fn check<T: AnnIndex>(mut index: T, data: &Dataset, queries: &hydra::data::QueryWorkload) {
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
    check(DsTree::build(&data, configs.dstree).unwrap(), &data, &queries);
    check(Isax2Plus::build(&data, configs.isax).unwrap(), &data, &queries);
    check(VaPlusFile::build(&data, configs.vafile).unwrap(), &data, &queries);
    check(Srs::build(&data, configs.srs).unwrap(), &data, &queries);
    check(Hnsw::build(&data, configs.hnsw).unwrap(), &data, &queries);
}

#[test]
fn file_backed_ingest_answers_like_the_resident_full_build() {
    // A 1-page pool far smaller than the raw data: growth must keep the
    // buffer pool coherent while the backing file gains a tail.
    let data = hydra::data::random_walk(300, 64, 8484);
    let configs = hydra::standard_configs(hydra::StorageConfig::on_disk().with_pool_pages(1), 5);
    let queries = hydra::data::noisy_queries(&data, 5, &[0.0, 0.2], 21);
    let dir = common::temp_dir("ingest-ooc");
    let h = 200;
    let head_data = head(&data, h);
    hydra::persist::dataset::save_dataset(&head_data, &dir.join("walk.data.snap")).unwrap();

    fn check<T, F>(
        dir: &std::path::Path,
        kind: &str,
        data: &Dataset,
        head_data: &Dataset,
        queries: &hydra::data::QueryWorkload,
        config: T::Config,
        build: F,
    ) where
        T: AnnIndex + hydra::PersistentIndex + 'static,
        T::Config: Copy,
        F: Fn(&Dataset, T::Config) -> hydra::Result<T>,
    {
        let fresh = build(data, config).unwrap();
        let snap = dir.join(format!("walk-{kind}.snap"));
        build(head_data, config).unwrap().save(&snap).unwrap();
        let data_snap = dir.join("walk.data.snap");
        let loaded = T::load_backed(
            &snap,
            head_data,
            &config,
            StoreBacking::FileBacked {
                dataset_snapshot: Some(&data_snap),
            },
        )
        .unwrap();
        let grown = grow(loaded, data, head_data.len(), &[17, 5]);
        assert_indistinguishable(fresh.name(), &fresh, &grown, queries);
    }
    check(&dir, "dstree", &data, &head_data, &queries, configs.dstree, DsTree::build);
    check(&dir, "isax2", &data, &head_data, &queries, configs.isax, Isax2Plus::build);
    check(&dir, "vafile", &data, &head_data, &queries, configs.vafile, VaPlusFile::build);
    check(&dir, "srs", &data, &head_data, &queries, configs.srs, Srs::build);
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
    let configs = hydra::standard_configs(hydra::StorageConfig::on_disk().with_pool_pages(1), 5);
    let query: Vec<f32> = data.series(3).to_vec();
    // Expected exact top-5 for every reachable prefix, keyed by size —
    // computed by a fresh build over each prefix, so the comparison is the
    // ingest-equivalence contract itself (bit-exact, same distance kernel).
    let truths: std::collections::BTreeMap<usize, Vec<Neighbor>> = (BASE..=data.len())
        .step_by(CHUNK)
        .map(|n| {
            let fresh = VaPlusFile::build(&head(&data, n), configs.vafile).unwrap();
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
        Box::new(VaPlusFile::build(&h, configs.vafile).unwrap()),
        "vafile-resident",
        &data,
        &query,
        &truths,
    );
    // And the same race against a file-backed store behind a 1-page pool.
    let dir = common::temp_dir("ingest-race-ooc");
    hydra::persist::dataset::save_dataset(&h, &dir.join("walk.data.snap")).unwrap();
    let snap = dir.join("walk-vafile.snap");
    VaPlusFile::build(&h, configs.vafile).unwrap().save(&snap).unwrap();
    let data_snap = dir.join("walk.data.snap");
    let ooc = VaPlusFile::load_backed(
        &snap,
        &h,
        &configs.vafile,
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
    let seed = 9;
    let configs = hydra::standard_configs(hydra::StorageConfig::in_memory(), seed);
    let registry = hydra::standard_registry(hydra::StorageConfig::in_memory(), seed);
    let queries = hydra::data::noisy_queries(&data, 5, &[0.0, 0.2], 33);
    let dir = common::temp_dir("ingest-journal");

    fn check<T, F>(
        dir: &std::path::Path,
        kind: &str,
        registry: &hydra::persist::LoaderRegistry,
        data: &Dataset,
        head_data: &Dataset,
        queries: &hydra::data::QueryWorkload,
        config: T::Config,
        build: F,
    ) where
        T: AnnIndex + hydra::PersistentIndex + 'static,
        T::Config: Copy,
        F: Fn(&Dataset, T::Config) -> hydra::Result<T>,
    {
        let (h, n) = (head_data.len(), data.len());
        let snap = dir.join(format!("walk-{kind}.snap"));
        build(head_data, config).unwrap().save(&snap).unwrap();
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
            .load_any_journaled(&snap, head_data, StoreBacking::Resident)
            .unwrap();
        let fresh = build(data, config).unwrap();
        assert_indistinguishable(fresh.name(), &fresh, replayed.as_ref(), queries);
        // Compaction: a full save of the grown index deletes the journal's
        // reason to exist; the compacted base then loads with no journal.
        hydra::persist::remove_journal(&snap).unwrap();
        assert!(!journal_path(&snap).exists());
    }
    check(&dir, "dstree", &registry, &data, &head_data, &queries, configs.dstree, DsTree::build);
    check(&dir, "isax2", &registry, &data, &head_data, &queries, configs.isax, Isax2Plus::build);
    check(&dir, "vafile", &registry, &data, &head_data, &queries, configs.vafile, VaPlusFile::build);
    check(&dir, "srs", &registry, &data, &head_data, &queries, configs.srs, Srs::build);
    check(&dir, "hnsw", &registry, &data, &head_data, &queries, configs.hnsw, Hnsw::build);
}

#[test]
fn a_damaged_journal_is_a_typed_error_and_never_partial_state() {
    let data = hydra::data::random_walk(200, 32, 2020);
    let h = 150;
    let head_data = head(&data, h);
    let seed = 9;
    let configs = hydra::standard_configs(hydra::StorageConfig::in_memory(), seed);
    let registry = hydra::standard_registry(hydra::StorageConfig::in_memory(), seed);
    let dir = common::temp_dir("ingest-journal-damage");
    let snap = dir.join("walk-vafile.snap");
    VaPlusFile::build(&head_data, configs.vafile).unwrap().save(&snap).unwrap();
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
