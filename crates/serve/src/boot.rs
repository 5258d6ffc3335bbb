//! Booting a serving set from a snapshot directory.
//!
//! The directory is what the figure harness's `--save-index DIR`
//! produces, as [`hydra::persist::layout`] names it: boot loads what
//! `layout::classify` calls a dataset or an index, ignores what it calls
//! known, and lists the rest in [`BootReport::skipped`].
//!
//! Every index snapshot is restored through a
//! [`LoaderRegistry`], re-attaching the raw series of its
//! dataset; the registry's configurations must fingerprint-match the ones
//! the snapshots were built with (use `hydra::standard_registry` for
//! harness-produced directories). **All validation happens here, at boot**:
//! a damaged container, an unknown kind, a fingerprint mismatch or a
//! dataset/index disagreement aborts the boot with a typed error naming
//! the file — a server that comes up serves only indexes it fully
//! validated, and can never discover a bad snapshot at query time.

use std::path::{Path, PathBuf};
use std::time::Duration;

use hydra::persist::layout::{classify, dataset_for_index, journal_path, Entry};
use hydra::persist::{
    dataset::load_dataset, open_dataset_streaming, DataSource, DatasetHandle, LoaderRegistry,
    PersistError, StoreBacking,
};
use hydra::Dataset;

use crate::server::ServedIndex;

/// Why a serving directory could not be booted.
#[derive(Debug)]
pub enum BootError {
    /// The directory could not be scanned.
    Io(String),
    /// The directory holds no dataset snapshot — there is nothing to
    /// re-attach index snapshots to.
    NoDatasets(PathBuf),
    /// A dataset directory entry held no loadable index at all.
    NoIndexes(PathBuf),
    /// One snapshot file failed to load (damage, unknown kind, fingerprint
    /// mismatch, ...).
    Snapshot {
        /// The offending file.
        file: PathBuf,
        /// The underlying typed error.
        source: PersistError,
    },
}

impl std::fmt::Display for BootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BootError::Io(msg) => write!(f, "cannot scan snapshot directory: {msg}"),
            BootError::NoDatasets(dir) => write!(
                f,
                "no dataset snapshot in {} — did the saving run use --save-index?",
                dir.display()
            ),
            BootError::NoIndexes(dir) => {
                write!(f, "no index snapshot in {} matches any dataset", dir.display())
            }
            BootError::Snapshot { file, source } => {
                write!(f, "cannot load {}: {source}", file.display())
            }
        }
    }
}

impl std::error::Error for BootError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BootError::Snapshot { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The outcome of a successful boot.
#[derive(Debug)]
pub struct BootReport {
    /// Every loaded index, named by snapshot file stem, sorted by name.
    pub indexes: Vec<ServedIndex>,
    /// The datasets found, as `(name, series count, series length)`.
    pub datasets: Vec<(String, usize, usize)>,
    /// Files no writer of the layout makes, and index snapshots of no
    /// dataset in the directory — surfaced so an operator can spot a
    /// typo'd dataset name in a listing.
    pub skipped: Vec<PathBuf>,
    /// How each index loaded, in [`indexes`](Self::indexes) order — the
    /// raw material for the boot/reload metrics
    /// (`hydra_index_load_micros`, `hydra_index_journaled`).
    pub loads: Vec<IndexLoad>,
}

/// How one index snapshot loaded during a boot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexLoad {
    /// The served index name (snapshot file stem).
    pub name: String,
    /// Wall-clock time for the snapshot load, including any journal
    /// replay and (for out-of-core boots) backing-file verification.
    pub elapsed: Duration,
    /// Whether a `.snap.journal` sat beside the snapshot and was replayed
    /// into the loaded index.
    pub journaled: bool,
}

/// How [`boot_from_dir_with`] should re-attach each index's raw series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BootOptions {
    /// Serve raw series out-of-core: every disk-capable index is loaded
    /// [`StoreBacking::FileBacked`], with its dataset's own `*.data.snap`
    /// as the backing file where the store keeps dataset order (and a
    /// verified `<snapshot>.series` sidecar — written into the snapshot
    /// directory on first boot — where it does not). Memory-only indexes
    /// are unaffected. Answers are byte-identical either way; only the
    /// boot-time RAM footprint and the realness of the I/O counters change.
    pub file_backed: bool,
}

/// Scans `dir` and loads every index snapshot against its dataset through
/// `registry` (see the module docs for the expected layout).
///
/// # Errors
/// Any [`BootError`]; loading is all-or-nothing, so a partially damaged
/// directory never yields a partially booted server.
pub fn boot_from_dir(dir: &Path, registry: &LoaderRegistry) -> Result<BootReport, BootError> {
    boot_from_dir_with(dir, registry, BootOptions::default())
}

/// [`boot_from_dir`] with explicit [`BootOptions`] — the out-of-core
/// serving switch.
///
/// # Errors
/// Any [`BootError`]; loading is all-or-nothing, so a partially damaged
/// directory never yields a partially booted server.
pub fn boot_from_dir_with(
    dir: &Path,
    registry: &LoaderRegistry,
    options: BootOptions,
) -> Result<BootReport, BootError> {
    let mut files: Vec<(String, PathBuf)> = std::fs::read_dir(dir)
        .map_err(|e| BootError::Io(format!("{}: {e}", dir.display())))?
        .filter_map(|entry| entry.ok())
        .map(|e| (e.file_name().to_string_lossy().into_owned(), e.path()))
        .filter(|(_, path)| path.is_file())
        .collect();
    files.sort();

    // Pass 1: datasets (keeping each snapshot's path: out-of-core boots
    // hand it to the loaders as the backing file). Out-of-core, the
    // snapshot is *streamed* — fully validated in bounded chunks, but
    // never materialized — so boot-time peak memory stays O(pool) no
    // matter how large the collection is.
    let mut datasets: Vec<(String, BootData, PathBuf)> = Vec::new();
    for (name, file) in &files {
        let Entry::Dataset(name) = classify(name) else {
            continue;
        };
        let data = if options.file_backed {
            open_dataset_streaming(file).map(BootData::Streamed)
        } else {
            load_dataset(file).map(BootData::Mem)
        }
        .map_err(|source| BootError::Snapshot {
            file: file.clone(),
            source,
        })?;
        datasets.push((name.to_string(), data, file.clone()));
    }
    if datasets.is_empty() {
        return Err(BootError::NoDatasets(dir.to_path_buf()));
    }

    // Pass 2: index snapshots, matched to their dataset by the shared
    // longest-`<dataset>-`-prefix rule ([`dataset_for_index`]).
    let mut indexes = Vec::new();
    let mut skipped = Vec::new();
    for (name, file) in &files {
        let (stem, owner) = match classify(name) {
            Entry::Dataset(_) | Entry::Known => continue,
            Entry::Index(stem) => {
                (stem, dataset_for_index(stem, datasets.iter().map(|(name, _, _)| name.as_str())))
            }
            Entry::Foreign => (name.as_str(), None),
        };
        let Some(owner) = owner else {
            skipped.push(file.clone());
            continue;
        };
        let (_, data, data_path) = datasets
            .iter()
            .find(|(name, _, _)| name == owner)
            .expect("owner came from this list");
        let backing = if options.file_backed {
            StoreBacking::FileBacked {
                dataset_snapshot: Some(data_path.as_path()),
            }
        } else {
            StoreBacking::Resident
        };
        // `load_any_journaled` also replays any `.snap.journal` beside the
        // snapshot — a server booting after an ingesting run serves the
        // grown index without waiting for a compacting full save.
        let journaled = journal_path(file).exists();
        let t0 = std::time::Instant::now();
        let index = registry
            .load_any_journaled(file, data.source(), backing)
            .map_err(|source| BootError::Snapshot {
                file: file.clone(),
                source,
            })?;
        let elapsed = t0.elapsed();
        indexes.push((
            ServedIndex {
                name: stem.to_string(),
                index,
            },
            IndexLoad {
                name: stem.to_string(),
                elapsed,
                journaled,
            },
        ));
    }
    if indexes.is_empty() {
        return Err(BootError::NoIndexes(dir.to_path_buf()));
    }
    indexes.sort_by(|a, b| a.0.name.cmp(&b.0.name));
    let (indexes, loads): (Vec<ServedIndex>, Vec<IndexLoad>) = indexes.into_iter().unzip();
    let mut dataset_summaries: Vec<(String, usize, usize)> = datasets
        .iter()
        .map(|(name, d, _)| (name.clone(), d.source().len(), d.source().series_len()))
        .collect();
    dataset_summaries.sort();
    Ok(BootReport {
        indexes,
        datasets: dataset_summaries,
        skipped,
        loads,
    })
}

/// A dataset as pass 1 of the boot scan holds it: materialized for a
/// resident boot, a validated header-facts handle for an out-of-core one
/// — which is the whole point of the lazy boot path: with `--out-of-core`
/// nothing dataset-sized is ever allocated between here and serving.
#[derive(Debug)]
enum BootData {
    Mem(Dataset),
    Streamed(DatasetHandle),
}

impl BootData {
    fn source(&self) -> DataSource<'_> {
        match self {
            BootData::Mem(d) => DataSource::InMemory(d),
            BootData::Streamed(h) => DataSource::Streamed(h),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra::persist::dataset::save_dataset;
    use hydra::persist::layout::{
        coded_sidecar_path, dataset_snapshot, ground_truth_cache, index_snapshot,
        sidecar_series_path,
    };
    use hydra::prelude::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hydra-serve-boot-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Builds the `kinds` rows of the in-memory zoo at seed 2 over `data`,
    /// one per kind, in table order.
    fn build_rows(kinds: &[&str], data: &Dataset) -> Vec<Box<dyn hydra::ZooIndex>> {
        let built: Vec<_> = hydra::zoo(hydra::StorageConfig::in_memory(), 2)
            .iter()
            .filter(|method| kinds.contains(&method.kind()))
            .map(|method| method.build(data).unwrap())
            .collect();
        assert_eq!(built.len(), kinds.len(), "a kind of {kinds:?} is not in the zoo");
        built
    }

    #[test]
    fn boots_saved_indexes_and_skips_foreign_files() {
        let dir = temp_dir("ok");
        let data = hydra::data::random_walk(150, 32, 1);
        save_dataset(&data, &dir.join("walk.data.snap")).unwrap();
        let built = build_rows(&["isax2+", "hnsw"], &data);
        let fresh = &built[0];
        fresh.save(&dir.join("walk-isax2.snap")).unwrap();
        built[1].save(&dir.join("walk-hnsw.snap")).unwrap();
        // A ground-truth cache is ignored and a stray file listed; neither
        // is fatal.
        hydra::persist::SnapshotWriter::new("ground-truth", 1)
            .write_to(&ground_truth_cache(&dir, 0xff))
            .unwrap();
        std::fs::write(dir.join("notes.txt"), b"hello").unwrap();

        let registry = hydra::standard_registry(hydra::StorageConfig::in_memory(), 2);
        let report = boot_from_dir(&dir, &registry).unwrap();
        let names: Vec<&str> = report.indexes.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["walk-hnsw", "walk-isax2"]);
        assert_eq!(report.datasets, vec![("walk".to_string(), 150, 32)]);
        assert_eq!(report.skipped, vec![dir.join("notes.txt")], "the gt cache is not listed");
        // Load telemetry rides along, one entry per index, in index order.
        let load_names: Vec<&str> = report.loads.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(load_names, names);
        assert!(
            report.loads.iter().all(|l| !l.journaled),
            "no journals were written in this directory"
        );
        // The loaded index answers like a fresh build.
        let q = data.series(3);
        let served = &report.indexes[1];
        let a = fresh.search(q, &SearchParams::ng(5, 8)).unwrap();
        let b = served.index.search(q, &SearchParams::ng(5, 8)).unwrap();
        assert_eq!(a.neighbors, b.neighbors);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_out_of_core_boot_lists_only_files_no_writer_makes() {
        let dir = temp_dir("ooc-listing");
        let data = hydra::data::random_walk(300, 32, 4);
        let data_snap = dataset_snapshot(&dir, "walk");
        save_dataset(&data, &data_snap).unwrap();
        // DSTree re-attaches a leaf-ordered `.series` sidecar, VA+file its
        // dataset snapshot; each codec adds a coded sidecar of that file.
        let kinds = ["dstree", "va+file"];
        for (built, kind) in build_rows(&kinds, &data).iter().zip(kinds) {
            built.save(&index_snapshot(&dir, "walk", kind)).unwrap();
        }
        let dstree = index_snapshot(&dir, "walk", "dstree");
        let base = hydra::persist::peek_fingerprint(&dstree).unwrap();
        hydra::persist::JournalWriter::create(&journal_path(&dstree), base, 32)
            .and_then(|mut journal| journal.append_batch(&[data.series(7), data.series(8)]))
            .unwrap();
        hydra::persist::SnapshotWriter::new("ground-truth", 1)
            .write_to(&ground_truth_cache(&dir, 0xabc))
            .unwrap();
        std::fs::write(dir.join("notes.txt"), b"hello").unwrap();
        std::fs::write(dir.join("x.snap.tmp.1.0"), b"a crash-left temporary").unwrap();

        for codec in [hydra::PageCodec::U8, hydra::PageCodec::F16] {
            let storage = hydra::StorageConfig::on_disk().with_page_codec(codec);
            let registry = hydra::standard_registry(storage, 2);
            let options = BootOptions { file_backed: true };
            let report = boot_from_dir_with(&dir, &registry, options).unwrap();
            let names: Vec<&str> = report.indexes.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(names, ["walk-dstree", "walk-vafile"], "{codec:?}");
            assert!(report.loads[0].journaled && !report.loads[1].journaled);
            for backing in [sidecar_series_path(&dstree), data_snap.clone()] {
                let sidecar = coded_sidecar_path(&backing, codec);
                assert!(sidecar.exists(), "{codec:?}: the boot writes {}", sidecar.display());
            }
            let foreign = [dir.join("notes.txt"), dir.join("x.snap.tmp.1.0")];
            assert_eq!(report.skipped, foreign, "{codec:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_datasets_and_bad_snapshots_fail_loudly() {
        let dir = temp_dir("empty");
        let registry = hydra::standard_registry(hydra::StorageConfig::in_memory(), 2);
        assert!(matches!(
            boot_from_dir(&dir, &registry),
            Err(BootError::NoDatasets(_))
        ));
        // A dataset with no indexes at all is NoIndexes.
        let data = hydra::data::random_walk(60, 16, 3);
        save_dataset(&data, &dir.join("lonely.data.snap")).unwrap();
        assert!(matches!(
            boot_from_dir(&dir, &registry),
            Err(BootError::NoIndexes(_))
        ));
        // A damaged index snapshot aborts the whole boot, naming the file.
        let hnsw = build_rows(&["hnsw"], &data).remove(0);
        let path = dir.join("lonely-hnsw.snap");
        hnsw.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match boot_from_dir(&dir, &registry) {
            Err(BootError::Snapshot { file, source }) => {
                assert_eq!(file, path);
                assert!(matches!(source, PersistError::ChecksumMismatch { .. }));
            }
            other => panic!("expected a Snapshot error, got {other:?}"),
        }
        // Pristine again: the matching registry boots it...
        hnsw.save(&path).unwrap();
        assert_eq!(boot_from_dir(&dir, &registry).unwrap().indexes.len(), 1);
        // ...and a registry built with the wrong seed is a fingerprint
        // mismatch, never a silently different index.
        let wrong = hydra::standard_registry(hydra::StorageConfig::in_memory(), 4);
        match boot_from_dir(&dir, &wrong) {
            Err(BootError::Snapshot { source, .. }) => {
                assert!(matches!(source, PersistError::FingerprintMismatch { .. }));
            }
            other => panic!("expected a fingerprint mismatch, got {other:?}"),
        }
        // A missing directory is Io.
        assert!(matches!(
            boot_from_dir(Path::new("/nonexistent/dir"), &registry),
            Err(BootError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
