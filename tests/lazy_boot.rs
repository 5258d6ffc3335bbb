//! Boot-memory regression: a file-backed (`--out-of-core`) boot must
//! never materialize the dataset. The snapshot fingerprint is validated
//! by streaming bounded chunks and the indexes re-attach their stores
//! straight from the validated file, so the boot's peak heap stays
//! O(pool + index structure) — a small fraction of the raw payload.
//!
//! The proof is a real meter, not a code review: this binary installs
//! [`hydra_obs::TrackingAllocator`] as its global allocator (exactly as
//! `hydra-serve` does) and pins the high-water mark of both boot paths.
//! A resident boot must allocate at least the payload (the meter works);
//! a streamed boot must stay under half of it (no Dataset-sized
//! allocation anywhere in the chain). The allocator's counters are
//! process-global, and a sibling test's allocations would pollute the
//! peak, so every test here holds [`METER`] for its whole run.

mod common;

use hydra::persist::layout;
use hydra_serve::{boot_from_dir, boot_from_dir_with, BootOptions};

#[global_allocator]
static ALLOC: hydra_obs::TrackingAllocator = hydra_obs::TrackingAllocator;

/// Serializes the tests of this binary around the process-global meter.
static METER: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn streamed_boot_peak_heap_stays_below_the_dataset_payload() {
    let _meter = METER.lock().unwrap_or_else(|e| e.into_inner());
    let dir = common::temp_dir("lazy-boot");
    let seed = 5;
    // 2000 × 512 f32 = 4 MiB of raw payload. Long series, few of them, on
    // purpose: every O(collection) structure a boot legitimately holds —
    // VA approximations, store mappings, tree nodes, their snapshot
    // sections — scales with the series *count*, while the raw payload
    // scales with count × length. Growing the length is what makes the
    // payload/2 bar discriminate "materialized the dataset" from
    // "loaded a Θ(n) index".
    let data = hydra::data::random_walk(2_000, 512, 777);
    let payload = data.len() * data.series_len() * 4;
    hydra::persist::dataset::save_dataset(&data, &dir.join("walk.data.snap")).unwrap();
    // One leaf-ordered store (sidecar-backed) and one dataset-ordered one.
    let zoo = hydra::zoo(hydra::StorageConfig::on_disk(), seed);
    let tree_and_filter = |method: &hydra::Method| ["dstree", "va+file"].contains(&method.kind());
    let saved = common::for_each_method(&zoo, tree_and_filter, |method| {
        let snapshot = layout::index_snapshot(&dir, "walk", method.kind());
        method.build(&data).unwrap().save(&snapshot).unwrap();
    });
    assert_eq!(saved, 2);
    drop(data);
    let registry = hydra::standard_registry(hydra::StorageConfig::on_disk().with_pool_pages(1), seed);

    // Warm-up boot: the first file-backed boot of a directory materializes
    // the flat-series sidecars. Sidecar writing is O(page) too, but it is
    // a once-per-directory cost, not a boot cost — measure steady state.
    boot_from_dir_with(&dir, &registry, BootOptions { file_backed: true }).unwrap();

    // The meter works: a resident boot materializes the Dataset, so its
    // peak must clear the payload.
    hydra_obs::reset_heap_peak();
    let live = hydra_obs::heap_live_bytes();
    let resident = boot_from_dir(&dir, &registry).unwrap();
    let resident_delta = hydra_obs::heap_peak_bytes() - live;
    assert_eq!(resident.indexes.len(), 2);
    assert!(
        resident_delta >= payload,
        "a resident boot must allocate at least the {payload}-byte payload, saw {resident_delta}"
    );
    drop(resident);

    // The promise holds: the streamed boot never allocates anything
    // dataset-sized.
    hydra_obs::reset_heap_peak();
    let live = hydra_obs::heap_live_bytes();
    let streamed =
        boot_from_dir_with(&dir, &registry, BootOptions { file_backed: true }).unwrap();
    let streamed_delta = hydra_obs::heap_peak_bytes() - live;
    assert_eq!(streamed.indexes.len(), 2);
    eprintln!("boot peaks: resident {resident_delta} bytes, streamed {streamed_delta} bytes");
    assert!(
        streamed_delta < payload / 2,
        "streamed boot peaked at {streamed_delta} heap bytes — a Dataset-sized allocation \
         ({payload} bytes of payload) crept back into the out-of-core boot path"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Re-validating the sidecars an earlier boot left behind is part of every
/// lazy boot, so it must stream them in bounded chunks like the dataset
/// snapshot itself — never through a buffer sized by anything else.
#[test]
fn sidecar_revalidation_allocates_a_small_multiple_of_the_stream_chunk() {
    use hydra::persist::dataset::{ensure_coded_series, ensure_flat_series, save_dataset};
    use hydra::persist::layout::coded_sidecar_path;
    use hydra::persist::{open_dataset_streaming, DataSource, STREAM_CHUNK_BYTES};
    let _meter = METER.lock().unwrap_or_else(|e| e.into_inner());
    let dir = common::temp_dir("sidecar-revalidation");
    // 600 × 512 f32 = 1.2 MiB raw, ~300 KiB as u8 codes: both payloads
    // dwarf the chunk.
    let data = hydra::data::random_walk(600, 512, 778);
    let snapshot = dir.join("walk.data.snap");
    save_dataset(&data, &snapshot).unwrap();
    drop(data);
    let handle = open_dataset_streaming(&snapshot).unwrap();
    let source = DataSource::Streamed(&handle);
    let flat = dir.join("walk.series");
    let storage = hydra::StorageConfig::on_disk().with_page_codec(hydra::PageCodec::U8);
    let coded = coded_sidecar_path(&flat, storage.codec);
    let ensure = || {
        ensure_flat_series(&flat, source, None).unwrap();
        ensure_coded_series(&coded, source, None, &storage).unwrap();
    };
    ensure(); // the write
    assert!(std::fs::metadata(&coded).unwrap().len() > 4 * STREAM_CHUNK_BYTES as u64);

    hydra_obs::reset_heap_peak();
    let live = hydra_obs::heap_live_bytes();
    ensure(); // the re-validation
    let delta = hydra_obs::heap_peak_bytes() - live;
    assert!(
        delta <= 2 * STREAM_CHUNK_BYTES,
        "re-validating the sidecars peaked at {delta} heap bytes; the promise is one \
         {STREAM_CHUNK_BYTES}-byte chunk"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A materializing load is the streamed validation with the values kept:
/// the payload is allocated once, in the buffer the `Dataset` ends up
/// owning, never next to a file image or a section copy of the same size.
#[test]
fn load_dataset_peaks_at_one_payload_plus_the_stream_chunk() {
    use hydra::persist::dataset::{load_dataset, save_dataset};
    use hydra::persist::STREAM_CHUNK_BYTES;
    let _meter = METER.lock().unwrap_or_else(|e| e.into_inner());
    let dir = common::temp_dir("load-dataset-peak");
    let data = hydra::data::random_walk(2_000, 512, 779);
    let payload = data.len() * data.series_len() * 4;
    let snapshot = dir.join("walk.data.snap");
    save_dataset(&data, &snapshot).unwrap();

    hydra_obs::reset_heap_peak();
    let live = hydra_obs::heap_live_bytes();
    let loaded = load_dataset(&snapshot).unwrap();
    let delta = hydra_obs::heap_peak_bytes() - live;
    assert_eq!(loaded, data);
    assert!(
        delta <= payload + 4 * STREAM_CHUNK_BYTES,
        "loading a {payload}-byte payload peaked at {delta} heap bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Saving streams the values to the file a block at a time: the payload is
/// never copied into a section buffer or a file image first.
#[test]
fn save_dataset_streams_within_two_stream_chunks() {
    use hydra::persist::dataset::{load_dataset, save_dataset};
    use hydra::persist::STREAM_CHUNK_BYTES;
    let _meter = METER.lock().unwrap_or_else(|e| e.into_inner());
    let dir = common::temp_dir("save-dataset-peak");
    let data = hydra::data::random_walk(2_000, 512, 780);
    let snapshot = dir.join("walk.data.snap");

    hydra_obs::reset_heap_peak();
    let live = hydra_obs::heap_live_bytes();
    save_dataset(&data, &snapshot).unwrap();
    let delta = hydra_obs::heap_peak_bytes() - live;
    assert_eq!(load_dataset(&snapshot).unwrap(), data);
    assert!(
        delta <= 2 * STREAM_CHUNK_BYTES,
        "saving a {}-byte payload peaked at {delta} heap bytes",
        data.len() * data.series_len() * 4
    );
    std::fs::remove_dir_all(&dir).ok();
}
